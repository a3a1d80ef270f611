"""Versioned schedule revisions and the canonical batch digest.

The digest is the subsystem's correctness currency: two
:class:`~repro.core.relative_schedule.RelativeBatch` objects digest
equal iff they describe byte-identical schedules (slots, entries,
duties, inbound triggers, ROP polls, untriggerable leftovers).  The
equality oracle compares an incremental revision's digest against a
from-scratch recompute of the same state — unordered containers are
canonicalized (sorted) first, so dict insertion order, which may
legitimately differ between the two computation paths, cannot create
false mismatches.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.relative_schedule import RelativeBatch
from ..telemetry.metrics import percentile

#: Hex digits of the digest carried in trace events (full digest on
#: the revision object itself).
TRACE_DIGEST_CHARS = 12


def batch_digest(batch: RelativeBatch) -> str:
    """Canonical content hash of one relative batch."""
    slots = [
        [slot.index,
         [[entry.link.src, entry.link.dst, bool(entry.fake)]
          for entry in slot.entries],
         list(slot.rop_after)]
        for slot in batch.slots
    ]
    duties = sorted(
        [node, slot, sorted(duty.targets), sorted(duty.rop_polls),
         bool(duty.rop_flag)]
        for (node, slot), duty in batch.duties.items()
    )
    inbound = sorted(
        [slot, link.src, link.dst, list(nodes)]
        for (slot, link), nodes in batch.inbound.items()
    )
    rop_polls = sorted(
        [slot, list(aps)] for slot, aps in batch.rop_polls.items()
    )
    untriggerable = [[slot, link.src, link.dst]
                     for slot, link in batch.untriggerable]
    canonical = {
        "batch": batch.batch_id,
        "initial": bool(batch.initial),
        "slots": slots,
        "duties": duties,
        "inbound": inbound,
        "rop_polls": rop_polls,
        "untriggerable": untriggerable,
    }
    # Plain nested lists, no cycles: skip json's circularity bookkeeping.
    payload = json.dumps(canonical, sort_keys=True, separators=(",", ":"),
                         check_circular=False).encode()
    return hashlib.sha256(payload).hexdigest()


@dataclass(frozen=True)
class ScheduleRevision:
    """One versioned output of the online controller."""

    version: int            # monotonically increasing, starts at 1
    epoch: int              # debounce epoch that produced it
    t_us: float             # virtual time of the epoch's last event
    batch: RelativeBatch
    digest: str             # batch_digest(batch)
    events: int             # controller events folded into the epoch
    dirty_links: int        # dirty links when the epoch closed
    cache_hit: bool         # conversion replayed from cache
    full: bool = False      # produced by a from-scratch recompute
    latency_ms: float = 0.0  # wall-clock apply+revise time (not traced)
    #: Wall-clock phase breakdown in µs (``membership_us`` /
    #: ``conflict_us`` / ``cache_us`` / ``convert_us`` / ``digest_us``
    #: / ``total_us``), populated only under ``phase_timing``.
    phases: Optional[Dict[str, float]] = None

    @property
    def trace_digest(self) -> str:
        return self.digest[:TRACE_DIGEST_CHARS]


def percentiles_ms(latencies_ms: List[float]) -> Tuple[float, float]:
    """(p50, p99) by nearest-rank, matching the metrics histogram."""
    ordered = sorted(latencies_ms)
    return (percentile(ordered, 50.0), percentile(ordered, 99.0))
