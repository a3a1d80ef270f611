"""Matrix-engine bench: cross-backend identity + engine throughput.

The matrix backend exists to lift the serial event loop's throughput
ceiling (``serial_events_per_sec`` in ``BENCH_sweep.json``).  This
bench runs the Fig. 14 workload — one ``random_t_topology(20, 3)``
placement, dcf + domino, CBR 10/10 Mbps — on both engines and asserts
the two promises in order of importance:

* **identity** — traced runs produce byte-identical canonical-trace
  digests per (scheme, seed).  Non-negotiable, on any machine; a
  failure here means a backend bug, not a slow box.
* **speedup** — the matrix engine is faster than the reference engine
  on the same workload (``MIN_SPEEDUP`` floor, set conservatively for
  noisy CI boxes).

The measured ``matrix_events_per_sec`` (untraced, engine-only wall)
lands in ``BENCH_matrix.json`` and joins the ``BENCH_history.jsonl``
trend gate, so a regression of the vectorized medium fails CI even
while the wall-clock seconds stay machine-dependent info.

Honesty note: both engines execute the *same* event stream (that is
what byte-identical traces mean), so the observable per-event work —
MAC callbacks on carrier-sense flips, per-slot countdown timers,
traffic arrivals, the heap itself — is a shared serial floor.  The
matrix engine batches the per-edge energy bookkeeping across
receivers.  The reference radio now does only the observable part of
that work too (an O(1) running total, refreshes of deliverable frames
only), so the ratio on this workload fell from ~2.1x to ~1.15-1.25x
on a 2-vCPU host and grows with density (1.3-1.6x at T(40, 3),
DESIGN.md "When to pick which"); the original 10x target assumed
slot timers could be collapsed, which provably reorders same-instant
commits (see DESIGN.md, "Engine backends").
"""

from __future__ import annotations

import json
import os
import time

from repro.experiments.common import run_scheme
from repro.runner import trace_digest
from repro.topology.builder import random_t_topology

import trend

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULT_PATH = os.path.join(_ROOT, "BENCH_matrix.json")

M, N, SEED = 20, 3, 100               # the fig14 placement
HORIZON_US = 250_000.0
SCHEMES = ("dcf", "domino")
ENGINES = ("event", "matrix")
#: The matrix engine must beat the reference engine by at least this
#: much on the fig14 workload (measured ~1.15-1.25x since the reference
#: radio went incremental, so the floor is marginal; it leaves room for
#: CI noise without ever tolerating "not actually faster").
MIN_SPEEDUP = 1.2


def _run(scheme: str, engine: str, traced: bool):
    """One fig14 run; returns (wall_s, events, digest-or-None)."""
    topology = random_t_topology(M, N, seed=SEED)
    started = time.perf_counter()
    result = run_scheme(
        scheme, topology, horizon_us=HORIZON_US, seed=SEED,
        downlink_mbps=10.0, uplink_mbps=10.0,
        trace=True if traced else None, engine=engine)
    wall = time.perf_counter() - started
    sim = next(iter(result.macs.values())).sim
    digest = (trace_digest(result.trace.records())
              if result.trace is not None else None)
    return wall, sim.events_processed, digest


def test_matrix_identity_and_speedup():
    # Identity first: traced, both engines, digest per (scheme, engine).
    digests = {}
    for scheme in SCHEMES:
        for engine in ENGINES:
            digests[(scheme, engine)] = _run(scheme, engine, traced=True)[2]
    digests_identical = all(
        digests[(scheme, "event")] == digests[(scheme, "matrix")]
        for scheme in SCHEMES)

    # Throughput second: untraced, so the wall is the engine's own.
    walls = {engine: 0.0 for engine in ENGINES}
    total_events = 0
    per_scheme = {}
    for scheme in SCHEMES:
        row = {}
        counts = {}
        for engine in ENGINES:
            wall, events, _ = _run(scheme, engine, traced=False)
            walls[engine] += wall
            row[f"{engine}_s"] = round(wall, 4)
            counts[engine] = events
        # Same workload, same stream: the engines must execute the
        # exact same number of events.
        assert counts["event"] == counts["matrix"], (scheme, counts)
        row["events"] = counts["event"]
        total_events += row["events"]
        per_scheme[scheme] = row

    speedup = walls["event"] / walls["matrix"] if walls["matrix"] else 0.0
    matrix_eps = total_events / walls["matrix"] if walls["matrix"] else 0.0
    event_eps = total_events / walls["event"] if walls["event"] else 0.0

    report = {
        "workload": f"fig14 random T({M},{N}) seed={SEED}, dcf+domino, "
                    f"CBR 10/10 Mbps, horizon={HORIZON_US / 1000.0:.0f} ms",
        "schemes": per_scheme,
        "total_events": total_events,
        "event_s": round(walls["event"], 4),
        "matrix_s": round(walls["matrix"], 4),
        "event_events_per_sec": round(event_eps, 1),
        "matrix_events_per_sec": round(matrix_eps, 1),
        "speedup": round(speedup, 4),
        "speedup_floor": MIN_SPEEDUP,
        "digests_identical": digests_identical,
        "note": "identical event streams (byte-identical traces) put "
                "both engines behind the same observable MAC-callback "
                "floor; the matrix advantage grows with density — see "
                "DESIGN.md, 'Engine backends'.",
    }
    with open(RESULT_PATH, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")

    trend.append("matrix_speedup", {
        "matrix_events_per_sec": round(matrix_eps, 1),
        "matrix_speedup": round(speedup, 4),
        "total_events": total_events,
    })

    assert digests_identical, (
        "matrix backend diverged from the event engine", digests)
    for scheme in SCHEMES:
        assert per_scheme[scheme]["events"] > 0
    assert speedup >= MIN_SPEEDUP, report
