"""Central interference map (Sec. 3, "Identifying hidden and exposed links").

The DOMINO server maintains the received signal strength between all
node pairs and derives from it which links may transmit concurrently.
This module wraps an RSS source (trace matrix or propagation model)
and answers the questions the scheduler, converter and analysis need:

* can two links be active in the same slot (``conflicts``)?
* can a node's signature trigger another node (``can_trigger``)?
* which link pairs are *hidden* or *exposed* — the counts reported in
  Sec. 4.2.3 ("10 hidden link pairs and 62 exposed link pairs out of
  720 possible link pairs").

Conflict definition: two links conflict when they share a node, or
when the sender (or the ACK-sending receiver) of one link lowers the
other link's data SINR below the decode threshold plus a safety
margin.  This mirrors the conflict-graph construction of the
measurement-based interference literature the paper cites.

The map reads its RSS source once, into per-pair tables (RSS dBm,
mW gain, signal dB, trigger reachability), when it is built; after an
in-place RSS change the owner refreshes the touched nodes' rows and
columns with :meth:`InterferenceMap.invalidate_nodes`.  Every SINR
verdict — pairwise conflicts and whole-slot survival alike — goes
through one additive accumulator, :class:`SlotSinr`.  DESIGN.md §5,
"Control-plane gain tables", states the exactness rules.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Dict, Iterable, List, Sequence, Set

from ..sim.phy import (SIGNATURE_CORRELATION_GAIN_DB, PhyProfile, dbm_to_mw,
                       mw_to_dbm)
from .links import Link

RssFn = Callable[[int, int], float]


class SlotSinr:
    """Exact running SINR state of one slot under construction.

    Keeps, per admitted link, the interference summed at its receiver
    from every other sender (data) and at its sender from every other
    receiver (ACK), noise first and in admission order.  A candidate
    admitted last adds one term to each running sum, so :meth:`fits`
    sees exactly the floating-point sums a from-scratch pass over
    ``[*links, cand]`` would build, at O(k) instead of O(k^2).
    Slot-aligned semantics as in :meth:`InterferenceMap.conflicts`:
    data overlaps data, ACK overlaps ACK.
    """

    __slots__ = ("links", "nodes", "disjoint", "_data", "_ack", "_gain",
                 "_signal_db", "_noise_mw", "_data_floor_db",
                 "_ack_floor_db")

    def __init__(self, imap: "InterferenceMap") -> None:
        self.links: List[Link] = []
        #: Endpoints of every admitted link.
        self.nodes: Set[int] = set()
        #: False once two admitted links share a node.
        self.disjoint = True
        self._data: List[float] = []
        self._ack: List[float] = []
        self._gain = imap.gain_mw
        self._signal_db = imap.signal_db
        self._noise_mw = imap.noise_mw
        self._data_floor_db = imap.data_floor_db
        self._ack_floor_db = imap.ack_floor_db

    def add(self, link: Link) -> None:
        """Admit ``link`` unconditionally."""
        src, dst = link
        nodes = self.nodes
        if src in nodes or dst in nodes:
            self.disjoint = False
        nodes.add(src)
        nodes.add(dst)
        gain = self._gain
        from_src, from_dst = gain[src], gain[dst]
        data = ack = self._noise_mw
        data_sums, ack_sums = self._data, self._ack
        for i, (s, d) in enumerate(self.links):
            data += gain[s][dst]
            ack += gain[d][src]
            data_sums[i] += from_src[d]
            ack_sums[i] += from_dst[s]
        self.links.append(link)
        data_sums.append(data)
        ack_sums.append(ack)

    def fits(self, cand: Link) -> bool:
        """Would the slot still survive with ``cand`` admitted last?

        Interference sums are >= noise > 0, so ``10 * log10`` is
        :func:`~repro.sim.phy.mw_to_dbm` without its zero guard.
        """
        src, dst = cand
        if not self.disjoint or src in self.nodes or dst in self.nodes:
            return False
        gain, sig = self._gain, self._signal_db
        data_floor, ack_floor = self._data_floor_db, self._ack_floor_db
        from_src, from_dst = gain[src], gain[dst]
        log10 = math.log10
        data = ack = self._noise_mw
        for (s, d), data_i, ack_i in zip(self.links, self._data, self._ack):
            if not sig[s][d] - 10.0 * log10(data_i + from_src[d]) >= data_floor:
                return False
            if not sig[d][s] - 10.0 * log10(ack_i + from_dst[s]) >= ack_floor:
                return False
            data += gain[s][dst]
            ack += gain[d][src]
        return (sig[src][dst] - 10.0 * log10(data) >= data_floor
                and sig[dst][src] - 10.0 * log10(ack) >= ack_floor)

    def survives(self) -> bool:
        """Does every admitted link decode, data and ACK alike?"""
        if not self.disjoint:
            return False
        sig = self._signal_db
        data_floor, ack_floor = self._data_floor_db, self._ack_floor_db
        log10 = math.log10
        for (s, d), data, ack in zip(self.links, self._data, self._ack):
            if not sig[s][d] - 10.0 * log10(data) >= data_floor:
                return False
            if not sig[d][s] - 10.0 * log10(ack) >= ack_floor:
                return False
        return True


class InterferenceMap:
    """RSS-matrix view used by the central server.

    Parameters
    ----------
    rss_dbm:
        ``rss_dbm(tx, rx)`` in dBm, same convention as the medium; read
        into the tables at construction and on :meth:`invalidate_nodes`.
    profile:
        PHY profile; supplies noise floor, CS threshold and the data
        SINR threshold used in the conflict test.
    margin_db:
        Safety margin added to the decode threshold when declaring two
        links compatible, so borderline pairs are scheduled apart.
    n_nodes:
        Node ids are ``0 .. n_nodes - 1``.

    Tables, each ``table[tx][rx]``: :attr:`rss` (dBm), :attr:`gain_mw`
    (``10 ** (dBm / 10)``), :attr:`signal_db` (the gain back in dB, as
    the SINR test compares it) and :attr:`trigger` (signature
    reachability, :meth:`node_can_trigger`).
    """

    def __init__(self, rss_dbm: RssFn, profile: PhyProfile,
                 margin_db: float = 3.0, *, n_nodes: int) -> None:
        self.rss_dbm = rss_dbm
        self.profile = profile
        self.margin_db = margin_db
        self.n_nodes = n_nodes
        self.noise_mw = profile.noise_mw()
        self.data_floor_db = (
            profile.sinr_threshold_db(profile.data_rate_mbps) + margin_db)
        self.ack_floor_db = (
            profile.sinr_threshold_db(profile.basic_rate_mbps) + margin_db)
        self._trigger_floor_db = (
            profile.sinr_threshold_db(profile.basic_rate_mbps)
            - SIGNATURE_CORRELATION_GAIN_DB + 6.0)
        self.rss: List[List[float]] = [[0.0] * n_nodes
                                       for _ in range(n_nodes)]
        self.gain_mw = [list(row) for row in self.rss]
        self.signal_db = [list(row) for row in self.rss]
        self.trigger: List[List[bool]] = [[False] * n_nodes
                                          for _ in range(n_nodes)]
        for tx in range(n_nodes):
            for rx in range(n_nodes):
                self._store(tx, rx, rss_dbm(tx, rx))

    def _store(self, tx: int, rx: int, dbm: float) -> None:
        """Write one ordered pair's RSS and its derived entries."""
        gain = dbm_to_mw(dbm)
        self.rss[tx][rx] = dbm
        self.gain_mw[tx][rx] = gain
        self.signal_db[tx][rx] = mw_to_dbm(gain)
        self.trigger[tx][rx] = (dbm - self.profile.noise_dbm
                                >= self._trigger_floor_db)

    def invalidate_nodes(self, nodes: Iterable[int]) -> int:
        """Re-read the rows and columns of ``nodes`` from the RSS source.

        After an in-place RSS change confined to some nodes' rows and
        columns (mobility, re-measurement, association) the online
        controller calls this with exactly those nodes; every other
        entry is unchanged by construction.  The result equals a fresh
        build over the same source.  Returns the number of rows plus
        columns refreshed (two per node).
        """
        dirty = sorted(set(nodes))
        rss_dbm, rss = self.rss_dbm, self.rss
        for node in dirty:
            for other in range(self.n_nodes):
                for tx, rx in ((node, other), (other, node)):
                    dbm = rss_dbm(tx, rx)
                    # Derived entries are functions of the dBm value.
                    if dbm != rss[tx][rx]:
                        self._store(tx, rx, dbm)
        return 2 * len(dirty)

    # ------------------------------------------------------------------
    # Basic link quantities
    # ------------------------------------------------------------------
    def link_rss_dbm(self, link: Link) -> float:
        return self.rss[link.src][link.dst]

    def link_snr_db(self, link: Link) -> float:
        return self.link_rss_dbm(link) - self.profile.noise_dbm

    def link_viable(self, link: Link) -> bool:
        """Can the link carry data at the profile's data rate in isolation?"""
        return (self.link_rss_dbm(link) >= self.profile.sensitivity_dbm
                and self.link_snr_db(link) >= self.data_floor_db)

    def in_cs_range(self, a: int, b: int) -> bool:
        """Do ``a`` and ``b`` carrier-sense each other's transmissions?"""
        threshold = self.profile.cs_threshold_dbm
        return self.rss[a][b] >= threshold or self.rss[b][a] >= threshold

    # ------------------------------------------------------------------
    # Conflicts
    # ------------------------------------------------------------------
    def slot(self, links: Iterable[Link] = ()) -> SlotSinr:
        """A running SINR accumulator holding ``links``, in order."""
        acc = SlotSinr(self)
        for link in links:
            acc.add(link)
        return acc

    def conflicts(self, l1: Link, l2: Link) -> bool:
        """May ``l1`` and ``l2`` NOT share a slot?

        In slot-aligned operation the two links' *data* transmissions
        overlap and, later in the slot, their *ACKs* overlap — data
        never overlaps a foreign ACK.  So the test is: each link's
        data reception must survive the other's data sender, and each
        link's ACK reception (receiver back to sender, at the basic
        rate) must survive the other's ACK sender.  Links sharing a
        node always conflict.
        """
        return not self.slot((l1,)).fits(l2)

    def set_survives(self, links: Sequence[Link]) -> bool:
        """Does the whole slot survive additively?

        Stronger than pairwise compatibility: interference is additive,
        so a set can fail even when each pair passes.  Data receptions
        face every other sender; ACK receptions face every other
        receiver (slot-aligned semantics as in :meth:`conflicts`).
        """
        return self.slot(links).survives()

    # ------------------------------------------------------------------
    # Triggering (Sec. 3.3: "link l could trigger n iff the signature
    # sent by l.sender or l.receiver can be received by node n")
    # ------------------------------------------------------------------
    def node_can_trigger(self, src: int, target: int) -> bool:
        """Can ``src``'s signature be detected at ``target`` in the clear?

        Signature detection enjoys the Gold-code correlation gain, so
        the requirement is only that the signature arrives above an
        SNR the correlator can work with; interference robustness is
        handled at runtime by the detection model.
        """
        return self.trigger[src][target]

    def link_can_trigger(self, link: Link, target: int) -> bool:
        return (self.node_can_trigger(link.src, target)
                or self.node_can_trigger(link.dst, target))

    def trigger_rss_dbm(self, link: Link, target: int) -> float:
        """Best signature RSS at ``target`` from either endpoint of ``link``."""
        return max(self.rss[link.src][target], self.rss[link.dst][target])

    # ------------------------------------------------------------------
    # Hidden / exposed census (Sec. 4.2.3)
    # ------------------------------------------------------------------
    def classify_pair(self, l1: Link, l2: Link) -> str:
        """``'hidden'``, ``'exposed'``, ``'conflict'`` or ``'independent'``.

        * hidden: the links conflict, yet the senders cannot carrier-
          sense each other — DCF will collide them.
        * exposed: the links do not conflict, yet the senders *do*
          carrier-sense each other — DCF will serialize them.
        """
        if l1.shares_node(l2):
            return "conflict"
        conflicting = self.conflicts(l1, l2)
        senders_cs = self.in_cs_range(l1.src, l2.src)
        if conflicting and not senders_cs:
            return "hidden"
        if not conflicting and senders_cs:
            return "exposed"
        return "conflict" if conflicting else "independent"

    def census(self, links: Sequence[Link]) -> Dict[str, int]:
        """Counts of each pair class over all unordered link pairs."""
        counts = {"hidden": 0, "exposed": 0, "conflict": 0,
                  "independent": 0, "total": 0}
        for l1, l2 in itertools.combinations(links, 2):
            counts[self.classify_pair(l1, l2)] += 1
            counts["total"] += 1
        return counts
