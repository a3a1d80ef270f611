"""Vectorized medium: per-edge energy bookkeeping as matrix operations.

The reference :class:`~repro.sim.medium.Medium` fans every energy edge
out to each audible radio, and each radio re-sums its reception dict
and refreshes every tracked frame — O(reach x active) Python work per
edge.  This medium keeps one row per *active transmission* in a set of
preallocated ``(capacity, n_radios)`` arrays and updates all receivers
of an edge with a handful of numpy operations; only the MAC callbacks
(carrier-sense edges, lock attempts, deliveries) remain per-radio
Python, because their order is observable.

Byte-identical equivalence with the reference engine is an argument
about floats, not about intent; the load-bearing facts:

* A radio's incoming total in the reference engine is a left-to-right
  fold from 0.0 over its reception dict in insertion (= transmission
  start) order: extended by one ``+`` at a start edge and re-folded by
  an explicit loop at an end edge (never builtin ``sum()``, which
  compensates rounding from Python 3.12).  Here ``_totals`` follows
  the same two rules: ``+=`` at start edges and an **explicit row
  loop** in start order at end edges — never ``ndarray.sum(axis=0)``,
  whose pairwise summation may associate differently.  Rows a
  receiver cannot hear contribute 0.0, and ``x + 0.0 == x``
  bit-exactly for the non-negative powers used here, so folding over
  all rows equals folding over the audible subset.
* Worst-case interference (``total - rss``) can only grow at a start
  edge: at an end edge every total shrinks, so both engines skip the
  refresh there (DESIGN.md, "Engine backends").  The same
  monotonicity holds for trigger signature-overlap counts, which are
  refreshed only at TRIGGER start edges.
* Trigger overlap counts compare burst powers against a 10 dB floor
  (``rss_mw / 10.0``).  Pairs the receiver cannot hear have row value
  0.0 and a positive floor, so they drop out of the comparison without
  any explicit reach masking.
* All dBm<->mW conversions for values that reach MACs or telemetry go
  through the same scalar :func:`~repro.sim.phy.dbm_to_mw` /
  :func:`~repro.sim.phy.mw_to_dbm` as the reference engine, at build
  or delivery time — the hot loop does no transcendental math.

MAC callbacks fire in the reference engine's order — but only the
radios with something observable to do are visited at all.  The
reference engine walks every audible radio on every edge; here the
per-radio Python work shrinks to three sparse sets, each recovered in
ascending column order (= registration order = the reference fan-out
order):

* **carrier-sense edges** — the busy verdict ``own | total >= cs`` is
  recomputed for all columns in one vectorized comparison against the
  mirrored per-radio state (``_cs_state``); only columns whose verdict
  *changed* get a callback, and the change set is provably a subset of
  the edge's reach (only reach columns' totals move).
* **lock attempts** (start edges) — only radios whose static RSS
  clears the sensitivity floor can ever lock, so the walk runs over a
  precomputed per-source "lockable" sublist, filtered by the
  interrupted mask.
* **deliveries** (end edges) — DATA/ACK frames are observable only
  through a receiver's lock, so delivery checks run over the same
  lockable sublist; TRIGGER / QUEUE_REPORT dispatch walks the full
  reach (every non-interrupted receiver genuinely gets a callback).

Within one edge each radio runs its lock attempt before its
carrier-sense edge (start) or its carrier-sense edge before its
delivery (end), exactly as :class:`~repro.sim.radio.Radio` does; the
sparse sets are merged into a single ascending-column walk to keep
that per-radio interleaving.  Precomputing the sets before the walk is
sound because MAC callbacks cannot synchronously alter another radio's
carrier-sense or lock state (inline transmits are rejected, below).

One sequencing rule is enforced loudly rather than emulated: MACs must
not call ``radio.transmit`` *synchronously inside* another frame's
energy-edge callbacks (every shipped MAC transmits from its own
scheduled events).  Mid-edge state here is already compacted, so an
inline transmit could observe totals the reference engine would not;
:meth:`MatrixMedium.transmit` raises instead of diverging silently.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ... import telemetry
from ..engine import SimulationError, Simulator
from ..medium import Medium, Transmission
from ..packet import Frame, FrameKind
from ..phy import dbm_to_mw
from ..radio import min_sinr_db
from .radio import MatrixRadio

#: Fan-out entry: (radio, rss_dbm, rss_mw, column).  The floats are
#: Python floats (scalar-converted once), so nothing numpy-typed ever
#: reaches a MAC or the telemetry stream.
ReachEntry = Tuple[MatrixRadio, float, float, int]


class MatrixMedium(Medium):
    """Broadcast fabric with batched (vectorized) energy bookkeeping.

    Row ``r`` of the active matrices describes the ``r``-th oldest
    transmission still in flight:

    ``_R[r, j]``
        Received power (mW) of that transmission at radio column ``j``;
        0.0 where inaudible (below the energy floor) and on the
        source's own column.
    ``_MAXI[r, j]``
        Running worst-case interference ``total - _R[r, j]`` seen over
        the airtime (−1.0 until first refreshed, like
        ``Reception.max_interference_mw``).
    ``_INT[r, j]``
        The reception is already lost at ``j`` (receiver was
        transmitting or asleep at the start edge, started transmitting
        mid-frame, slept mid-frame, or lost a preamble-capture duel).
    ``_OVB[r, j]``
        Max signature waveforms overlapping this TRIGGER at ``j``.
    """

    def __init__(self, sim: Simulator, profile: Any,
                 rss_dbm: Callable[[int, int], float],
                 energy_floor_dbm: float = -105.0):
        super().__init__(sim, profile, rss_dbm,
                         energy_floor_dbm=energy_floor_dbm)
        self._built = False
        self._in_edge = False
        self._noise_mw = profile.noise_mw()
        self._cs_mw = dbm_to_mw(profile.cs_threshold_dbm)
        self._n = 0
        self._reach4: Dict[int, List[ReachEntry]] = {}
        self._lockable4: Dict[int, List[ReachEntry]] = {}
        self._row_mw: Dict[int, np.ndarray] = {}
        #: Mirror of every radio's ``_cs_busy`` (kept current by
        #: ``MatrixRadio.edge_cs``), so carrier-sense *changes* fall
        #: out of one vectorized comparison per edge.
        self._cs_state = np.zeros(0, dtype=bool)
        self._busy_buf = np.zeros(0, dtype=bool)
        self._chg_buf = np.zeros(0, dtype=bool)
        self._radio_by_col: List[MatrixRadio] = []
        self._cap = 8
        self._k = 0
        self._R = np.zeros((0, 0))
        self._MAXI = np.zeros((0, 0))
        self._INT = np.zeros((0, 0), dtype=bool)
        self._OVB = np.zeros((0, 0), dtype=np.int64)
        self._nsig: List[int] = []
        self._row_txs: List[Transmission] = []
        self._row_of: Dict[int, int] = {}
        self._totals = np.zeros(0)
        self._own_col = np.zeros(0, dtype=bool)
        self._sleep = np.zeros(0)

    # ------------------------------------------------------------------
    # Registration / topology
    # ------------------------------------------------------------------
    def make_radio(self, node_id: int) -> MatrixRadio:
        return MatrixRadio(node_id, self)

    def register(self, radio: Any) -> None:
        if self._k:
            raise SimulationError(
                "cannot register a radio while frames are in flight")
        super().register(radio)
        self._built = False

    def invalidate_topology(self) -> None:
        """Mobility: future reach lists and power rows are recomputed;
        rows already in flight keep their start-edge values, exactly
        like the reference medium's captured reach lists."""
        super().invalidate_topology()
        self._reach4.clear()
        self._lockable4.clear()
        self._row_mw.clear()

    def _ensure_built(self) -> None:
        if self._built:
            return
        if self.active:
            raise SimulationError(
                "radio population changed with frames in flight")
        n = len(self._radios)
        for col, radio in enumerate(self._radios.values()):
            radio.col = col
        self._n = n
        self._reach4.clear()
        self._lockable4.clear()
        self._row_mw.clear()
        self._radio_by_col = list(self._radios.values())
        self._cs_state = np.zeros(n, dtype=bool)
        self._busy_buf = np.zeros(n, dtype=bool)
        self._chg_buf = np.zeros(n, dtype=bool)
        for radio in self._radios.values():
            self._cs_state[radio.col] = radio.cs_busy
        self._R = np.zeros((self._cap, n))
        self._MAXI = np.zeros((self._cap, n))
        self._INT = np.zeros((self._cap, n), dtype=bool)
        self._OVB = np.zeros((self._cap, n), dtype=np.int64)
        self._nsig = []
        self._row_txs = []
        self._row_of = {}
        self._k = 0
        self._totals = np.zeros(n)
        self._own_col = np.zeros(n, dtype=bool)
        self._sleep = np.zeros(n)
        for radio in self._radios.values():
            self._own_col[radio.col] = radio.transmitting
            self._sleep[radio.col] = radio.sleep_deadline
        self._built = True

    def _grow(self) -> None:
        cap = self._cap * 2
        for name in ("_R", "_MAXI", "_INT", "_OVB"):
            old = getattr(self, name)
            fresh = np.zeros((cap, self._n), dtype=old.dtype)
            fresh[: self._k] = old[: self._k]
            setattr(self, name, fresh)
        self._cap = cap

    def _reach(self, src_id: int) -> List[ReachEntry]:
        """Fan-out list for ``src_id``: the same radios, in the same
        order, with the same scalar-converted powers as
        :meth:`Medium.audible`, plus each radio's column."""
        reach = self._reach4.get(src_id)
        if reach is None:
            self._ensure_built()
            reach = []
            for node_id, radio in self._radios.items():
                if node_id == src_id:
                    continue
                rss = self._rss_dbm(src_id, node_id)
                if rss >= self.energy_floor_dbm:
                    reach.append((radio, rss, dbm_to_mw(rss), radio.col))
            self._reach4[src_id] = reach
        return reach

    def _lockable(self, src_id: int) -> List[ReachEntry]:
        """Receivers that could ever lock a frame from ``src_id``: the
        reach entries whose RSS clears the sensitivity floor.  The
        reference radio re-checks this per frame (``Radio._maybe_lock``);
        RSS is static per (src, dst), so it is filtered once here."""
        lockable = self._lockable4.get(src_id)
        if lockable is None:
            sens = self.profile.sensitivity_dbm
            lockable = [e for e in self._reach(src_id) if e[1] >= sens]
            self._lockable4[src_id] = lockable
        return lockable

    def _row(self, src_id: int) -> np.ndarray:
        row = self._row_mw.get(src_id)
        if row is None:
            row = np.zeros(self._n)
            for _radio, _rss_dbm, rss_mw, col in self._reach(src_id):
                row[col] = rss_mw
            self._row_mw[src_id] = row
        return row

    # ------------------------------------------------------------------
    # Start edge
    # ------------------------------------------------------------------
    def transmit(self, src_id: int, frame: Frame) -> Transmission:
        if self._in_edge:
            raise SimulationError(
                "inline transmit inside an energy edge: the matrix medium "
                "requires MACs to transmit from their own scheduled events")
        self._ensure_built()
        sim = self.sim
        airtime = self.profile.frame_airtime_us(frame)
        tx = Transmission(
            frame=frame,
            src=src_id,
            start=sim.now,
            end=sim.now + airtime,
            tx_power_dbm=self.profile.tx_power_dbm,
        )
        self.active[tx.uid] = tx
        tel = self._trace
        if tel.enabled:
            frame.meta[telemetry.TX_META_KEY] = tel.frame_tx(
                sim.now, src_id, frame, airtime)
            metrics = tel.metrics
            metrics.counter("medium.tx_frames").inc()
            metrics.counter("medium.airtime_us").inc(airtime)
        reach = self._reach(src_id)
        k = self._k
        if k == self._cap:
            self._grow()
        # Append the row: powers, fresh interference/overlap trackers,
        # and the already-lost mask (receiver transmitting or asleep).
        self._R[k] = self._row(src_id)
        self._MAXI[k] = -1.0
        np.greater(self._sleep, sim.now, out=self._INT[k])
        self._INT[k] |= self._own_col
        self._OVB[k] = 0
        nsig = tx.n_signatures
        self._nsig.append(nsig)
        self._row_txs.append(tx)
        self._row_of[tx.uid] = k
        self._k = k + 1
        totals = self._totals
        totals += self._R[k]
        # Start edges are the only place interference can grow (totals
        # only fall at end edges), so one batched max refresh here
        # covers every refresh the reference engine performs.
        np.maximum(self._MAXI[: k + 1], totals[None, :] - self._R[: k + 1],
                   out=self._MAXI[: k + 1])
        if nsig:
            self._refresh_trigger_overlap()
        int_row = self._INT[k]
        chg = self._cs_changes()
        radio_by_col = self._radio_by_col
        self._in_edge = True
        try:
            if tx.lockable:
                # Lock attempt before carrier-sense edge, per radio, in
                # column order — the reference on_energy_start order.
                j = 0
                nc = len(chg)
                for radio, rss_dbm, rss_mw, col in self._lockable(src_id):
                    while j < nc and chg[j] < col:
                        c = chg[j]
                        radio_by_col[c].edge_cs(float(totals[c]))
                        j += 1
                    if not int_row[col]:
                        radio.edge_lock(tx, rss_dbm, rss_mw)
                    if j < nc and chg[j] == col:
                        radio.edge_cs(float(totals[col]))
                        j += 1
                for c in chg[j:]:
                    radio_by_col[c].edge_cs(float(totals[c]))
            else:
                for c in chg:
                    radio_by_col[c].edge_cs(float(totals[c]))
        finally:
            self._in_edge = False
        self.sim.schedule(airtime, self._finish, tx, reach)
        return tx

    def _cs_changes(self) -> List[int]:
        """Columns whose carrier-sense verdict flipped on this edge,
        ascending (= registration = reference fan-out order).  Always a
        subset of the edge's reach: only reach columns' totals moved,
        and ``own`` flips are handled by the radio itself."""
        np.greater_equal(self._totals, self._cs_mw, out=self._busy_buf)
        self._busy_buf |= self._own_col
        np.not_equal(self._busy_buf, self._cs_state, out=self._chg_buf)
        return np.flatnonzero(self._chg_buf).tolist()

    def _refresh_trigger_overlap(self) -> None:
        """Batched overlap refresh at a TRIGGER start edge.

        For each in-flight trigger ``a`` and receiver ``j``, count the
        signature waveforms of triggers within 10 dB of ``a``'s power
        at ``j`` (``a`` included, as in ``Radio._refresh_sinrs``) and
        fold into the running maximum.  Inaudible pairs carry 0.0 mW
        against a positive floor and drop out by comparison.
        """
        rows = [r for r in range(self._k) if self._nsig[r]]
        trig_pow = self._R[rows]
        counts = np.array([self._nsig[r] for r in rows], dtype=np.int64)
        for r in rows:
            floor = self._R[r] / 10.0
            overlap = ((trig_pow >= floor[None, :])
                       * counts[:, None]).sum(axis=0)
            np.maximum(self._OVB[r], overlap, out=self._OVB[r])

    # ------------------------------------------------------------------
    # End edge
    # ------------------------------------------------------------------
    def _finish(self, tx: Transmission,
                reach: Optional[List[ReachEntry]] = None) -> None:  # type: ignore[override]
        del self.active[tx.uid]
        if reach is None:  # pragma: no cover - legacy direct callers
            reach = self._reach(tx.src)
        r = self._row_of.pop(tx.uid)
        k = self._k
        # Snapshot the ended row before compacting over it.
        maxi_row = self._MAXI[r].copy()
        int_row = self._INT[r].copy()
        ovb_row = self._OVB[r].copy()
        if r < k - 1:
            self._R[r: k - 1] = self._R[r + 1: k]
            self._MAXI[r: k - 1] = self._MAXI[r + 1: k]
            self._INT[r: k - 1] = self._INT[r + 1: k]
            self._OVB[r: k - 1] = self._OVB[r + 1: k]
        del self._nsig[r]
        del self._row_txs[r]
        for row in range(r, k - 1):
            self._row_of[self._row_txs[row].uid] = row
        self._k = k = k - 1
        # Rebuild totals as the same left-to-right fold the reference
        # radio performs over its reception dict.  An explicit row loop
        # on purpose: ndarray.sum(axis=0) uses pairwise summation and
        # may associate the additions differently.
        totals = self._totals
        totals[:] = 0.0
        for row in range(k):
            totals += self._R[row]
        frame = tx.frame
        kind = frame.kind
        chg = self._cs_changes()
        radio_by_col = self._radio_by_col
        uid = tx.uid
        self._in_edge = True
        try:
            # Carrier-sense edge before delivery, per radio, in column
            # order — the reference on_energy_end order.
            j = 0
            nc = len(chg)
            if not tx.lockable:
                # Correlation-path dispatch genuinely reaches every
                # non-interrupted receiver: walk the full reach.
                for radio, rss_dbm, rss_mw, col in reach:
                    while j < nc and chg[j] < col:
                        c = chg[j]
                        radio_by_col[c].edge_cs(float(totals[c]))
                        j += 1
                    if j < nc and chg[j] == col:
                        radio.edge_cs(float(totals[col]))
                        j += 1
                    if int_row[col]:
                        continue
                    mac = radio.mac
                    if mac is None:
                        continue
                    if kind is FrameKind.TRIGGER:
                        mac.on_trigger(frame,
                                       min_sinr_db(rss_mw, maxi_row[col],
                                                   self._noise_mw),
                                       rss_dbm, int(ovb_row[col]))
                    else:
                        mac.on_queue_report(frame, rss_dbm)
            else:
                # DATA/ACK frames are observable only through a lock,
                # and only lockable-sublist radios can hold one.
                for radio, rss_dbm, rss_mw, col in self._lockable(tx.src):
                    while j < nc and chg[j] < col:
                        c = chg[j]
                        radio_by_col[c].edge_cs(float(totals[c]))
                        j += 1
                    if j < nc and chg[j] == col:
                        radio.edge_cs(float(totals[col]))
                        j += 1
                    lock = radio.mx_lock
                    if lock is not None and lock[0].uid == uid:
                        radio.edge_deliver(tx, rss_dbm, rss_mw,
                                           bool(int_row[col]),
                                           float(maxi_row[col]))
            for c in chg[j:]:
                radio_by_col[c].edge_cs(float(totals[c]))
        finally:
            self._in_edge = False
        src_radio = self._radios.get(tx.src)
        if src_radio is not None:
            src_radio.on_own_tx_end(tx)

    # ------------------------------------------------------------------
    # Radio-facing state (see MatrixRadio)
    # ------------------------------------------------------------------
    def total_at(self, col: int) -> float:
        """Current summed incoming power (mW) at radio column ``col``."""
        self._ensure_built()
        return float(self._totals[col])

    def mark_reception_lost(self, uid: int, col: int) -> None:
        """The receiver at ``col`` can no longer decode transmission
        ``uid`` (started transmitting, slept, or lost its lock)."""
        self._INT[self._row_of[uid], col] = True

    def mark_all_receptions_lost(self, col: int) -> None:
        if self._k:
            self._INT[: self._k, col] = True

    def note_transmitting(self, col: int, on: bool) -> None:
        self._own_col[col] = on

    def note_cs(self, col: int, busy: bool) -> None:
        """Keep the carrier-sense mirror current (every ``_cs_busy``
        flip flows through ``MatrixRadio.edge_cs``)."""
        self._cs_state[col] = busy

    def note_sleep(self, col: int, wake_time: float) -> None:
        self._sleep[col] = wake_time
