"""Per-node radio: carrier sensing, frame locking, SINR tracking.

The radio is the boundary between the analogue world (energy arriving
from the medium) and the MAC.  It implements:

* **Carrier sense** — the channel is busy when the summed incoming
  power crosses the profile's CS threshold, or while transmitting.
  MACs get edge-triggered ``on_channel_busy`` / ``on_channel_idle``
  callbacks (DCF freezes its backoff on these).

* **Frame locking** — an idle radio locks onto the first frame whose
  RSS clears the sensitivity floor.  While locked, the minimum SINR
  over the frame's airtime is tracked; at the end the frame is
  delivered iff that minimum stays above the rate's threshold.  A much
  stronger frame arriving during the locked frame's preamble steals
  the lock (preamble capture), which is how real 802.11 radios behave
  and matters for DCF collision outcomes.

* **Signature correlation path** — TRIGGER and QUEUE_REPORT frames
  bypass locking entirely.  Real DOMINO nodes run a continuous
  correlator bank for their own Gold-code signature (Sec. 3.2), which
  detects signatures through collisions that destroy packets, and the
  ROP queue reports are *designed* to overlap at the AP (Fig. 4).  The
  radio therefore tracks these frames' SINR separately and hands them
  to the MAC with their interference context; detection is decided by
  the MAC's calibrated models.

Half duplex: a transmitting radio hears nothing, including triggers.

The bookkeeping does only the work a MAC can observe (DESIGN.md,
"Engine backends"): the incoming total is kept as an exact
left-to-right fold in arrival order, worst-case interference and
signature overlap are refreshed only at start edges and only for the
receptions that can still be delivered, and the minimum SINR is
finalised only for a delivered frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, TYPE_CHECKING

from .. import telemetry
from .medium import Medium, Transmission
from .packet import Frame, FrameKind
from .phy import PhyProfile, dbm_to_mw, mw_to_dbm

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..mac.base import Mac


def min_sinr_db(rss_mw: float, max_interference_mw: float,
                noise_mw: float) -> float:
    """Finalise a delivered frame's minimum SINR over its airtime from
    the worst-case interference tracked for it (see
    ``Reception.max_interference_mw``; negative means never refreshed).
    Both media deliver through this one definition."""
    if max_interference_mw < 0.0:
        return float("inf")
    return mw_to_dbm(rss_mw) - mw_to_dbm(max_interference_mw + noise_mw)


@dataclass
class Reception:
    """Book-keeping for one frame being tracked at this radio."""

    tx: Transmission
    rss_dbm: float
    rss_mw: float
    # Largest number of signature waveforms overlapping this frame at
    # any point in its airtime (TRIGGER frames only).  The trigger
    # detection model degrades with this count (Fig. 9).
    max_overlapping_signatures: int = 0
    interrupted_by_tx: bool = False
    # Running maximum of the interference power (total incoming minus
    # this frame, noise excluded) seen over the airtime.  min SINR is
    # derived from it once at delivery — log10 is monotone, so the
    # worst step in mW is the worst step in dB — instead of paying two
    # log10 calls per tracked frame on every energy edge.  Negative
    # means "never refreshed" (min SINR +inf).
    max_interference_mw: float = -1.0


class Radio:
    """Half-duplex radio attached to one node."""

    def __init__(self, node_id: int, medium: Medium):
        self.node_id = node_id
        self.medium = medium
        self.profile: PhyProfile = medium.profile
        self.mac: Optional["Mac"] = None
        # All energy currently arriving, keyed by transmission uid, in
        # arrival order.
        self._incoming: Dict[int, Reception] = {}
        # Summed incoming power: the left-to-right fold of
        # ``_incoming``'s powers in arrival order, kept current at
        # every energy edge so carrier sense is an O(1) read.
        self._total = 0.0
        # Every TRIGGER reception in ``_incoming`` (all of them add
        # signature interference), and the subset not interrupted — the
        # only triggers whose tracked values a delivery can still read.
        self._triggers: Dict[int, Reception] = {}
        self._live_triggers: Dict[int, Reception] = {}
        self._lock: Optional[Reception] = None
        self._own_tx: Optional[Transmission] = None
        self._cs_busy = False
        self._noise_mw = self.profile.noise_mw()
        self._cs_mw = dbm_to_mw(self.profile.cs_threshold_dbm)
        # Power save (Sec. 5 energy saving): while asleep the radio
        # hears nothing; the MAC schedules sleep windows it knows are
        # free of involvement.
        self._sleep_until = 0.0
        self.total_sleep_us = 0.0
        self._trace = telemetry.current()
        medium.register(self)

    # ------------------------------------------------------------------
    # State queries
    # ------------------------------------------------------------------
    @property
    def transmitting(self) -> bool:
        return self._own_tx is not None

    @property
    def asleep(self) -> bool:
        return self.medium.sim.now < self._sleep_until

    def sleep_until(self, wake_time: float) -> float:
        """Power the receiver down until ``wake_time``.

        Returns the additional sleep time granted.  Sleeping while
        transmitting is refused (zero granted).
        """
        if self._own_tx is not None:
            return 0.0
        now = self.medium.sim.now
        previous = max(self._sleep_until, now)
        if wake_time <= previous:
            return 0.0
        granted = wake_time - previous
        self._sleep_until = wake_time
        self.total_sleep_us += granted
        if self._lock is not None:
            self._lock.interrupted_by_tx = True  # reception abandoned
            self._lock = None
        return granted

    @property
    def receiving(self) -> bool:
        return self._lock is not None

    def total_incoming_mw(self) -> float:
        return self._total

    def channel_busy(self) -> bool:
        """Carrier-sense verdict right now."""
        return self._own_tx is not None or self._total >= self._cs_mw

    # ------------------------------------------------------------------
    # Transmit path
    # ------------------------------------------------------------------
    def transmit(self, frame: Frame) -> Transmission:
        """Start transmitting ``frame``.  Aborts any ongoing reception."""
        if self._own_tx is not None:
            raise RuntimeError(f"node {self.node_id} is already transmitting")
        if self._lock is not None:
            # Switching to TX mid-reception destroys the reception.
            self._lock.interrupted_by_tx = True
            self._lock = None
        for rec in self._incoming.values():
            # Anything arriving while we transmit is unhearable.
            rec.interrupted_by_tx = True
        self._live_triggers.clear()
        tx = self.medium.transmit(self.node_id, frame)
        self._own_tx = tx
        self._update_cs()
        return tx

    def on_own_tx_end(self, tx: Transmission) -> None:
        self._own_tx = None
        self._update_cs()
        if self.mac is not None:
            self.mac.on_tx_end(tx.frame)

    # ------------------------------------------------------------------
    # Energy events from the medium
    # ------------------------------------------------------------------
    def on_energy_start(self, tx: Transmission, rss_dbm: float, rss_mw: float) -> None:
        rec = Reception(tx, rss_dbm, rss_mw)
        lost = (self._own_tx is not None
                or self.medium.sim.now < self._sleep_until)
        if lost:
            rec.interrupted_by_tx = True
        uid = tx.uid
        self._incoming[uid] = rec
        # The new reception is last in arrival order, so adding it
        # extends the same left-to-right fold by one term.
        total = self._total = self._total + rss_mw
        if tx.n_signatures:
            self._triggers[uid] = rec
            if not lost:
                self._live_triggers[uid] = rec
        elif tx.lockable and not lost:
            self._maybe_lock(rec)
        self._refresh(total, tx.n_signatures)
        self._update_cs()

    def on_energy_end(self, tx: Transmission, rss_dbm: float, rss_mw: float) -> None:
        uid = tx.uid
        rec = self._incoming.pop(uid, None)
        if rec is None:  # registered after our TX started; still tracked
            return
        # Re-fold the remaining powers in arrival order.  Not builtin
        # sum(): from Python 3.12 it compensates float rounding, which
        # would make totals depend on the interpreter version.
        total = 0.0
        for other in self._incoming.values():
            total += other.rss_mw
        self._total = total
        if tx.n_signatures:
            del self._triggers[uid]
            self._live_triggers.pop(uid, None)
        # No refresh here: the remaining powers are a subsequence of
        # those at the last start edge, so neither interference nor
        # signature overlap can exceed a maximum already recorded.
        self._update_cs()
        if rec is self._lock or not tx.lockable:
            # Anything else is an unlocked frame: never delivered.
            self._deliver(rec)

    # ------------------------------------------------------------------
    # Locking and SINR
    # ------------------------------------------------------------------
    def _maybe_lock(self, rec: Reception) -> None:
        """Lock attempt for a lockable, not-lost frame at its start edge
        (the only moment a reception can become the lock)."""
        if rec.rss_dbm < self.profile.sensitivity_dbm:
            return
        if self._lock is None:
            self._lock = rec
            return
        # Preamble capture: a much stronger frame arriving while the
        # current lock is still in its preamble steals the receiver.
        in_preamble = (
            self.medium.sim.now - self._lock.tx.start <= self.profile.preamble_us
        )
        margin_mw = self._lock.rss_mw * dbm_to_mw(self.profile.capture_margin_db) / 1.0
        if in_preamble and rec.rss_mw >= margin_mw:
            self._lock.interrupted_by_tx = True  # old frame is lost
            self._lock = rec

    def _refresh(self, total: float, new_signatures: int) -> None:
        """Fold this start edge into the running maxima of the
        receptions a delivery can still read: the lock and the live
        triggers.

        No other reception's tracked values are ever read — a frame
        becomes the lock only at its own start edge, an interrupted
        frame stays interrupted, QUEUE_REPORT delivery reads no SINR,
        and an unlocked frame is never delivered.  Signature overlap
        can only grow when a TRIGGER arrives (``new_signatures``).
        """
        lock = self._lock
        if lock is not None:
            interference = total - lock.rss_mw
            if interference > lock.max_interference_mw:
                lock.max_interference_mw = interference
        live = self._live_triggers
        if not live:
            return
        for rec in live.values():
            interference = total - rec.rss_mw
            if interference > rec.max_interference_mw:
                rec.max_interference_mw = interference
        if not new_signatures:
            return
        triggers = self._triggers.values()
        for rec in live.values():
            # Signatures that matter to the correlator are those of
            # comparable power: bursts more than 10 dB below this
            # one are negligible interference (Fig. 9's combining
            # limit is about same-order waveforms).  Interrupted
            # triggers still interfere, so all of them are counted.
            floor_mw = rec.rss_mw / 10.0
            signatures = 0
            for other in triggers:
                if other.rss_mw >= floor_mw:
                    signatures += other.tx.n_signatures
            if signatures > rec.max_overlapping_signatures:
                rec.max_overlapping_signatures = signatures

    def _deliver(self, rec: Reception) -> None:
        if self.mac is None:
            return
        frame = rec.tx.frame
        if frame.kind is FrameKind.TRIGGER:
            if not rec.interrupted_by_tx:
                self.mac.on_trigger(
                    frame, min_sinr_db(rec.rss_mw, rec.max_interference_mw,
                                       self._noise_mw),
                    rec.rss_dbm, rec.max_overlapping_signatures)
            return
        if frame.kind is FrameKind.QUEUE_REPORT:
            if not rec.interrupted_by_tx:
                self.mac.on_queue_report(frame, rec.rss_dbm)
            return
        if self._lock is not None and self._lock.tx.uid == rec.tx.uid:
            self._lock = None
            threshold = self.profile.frame_sinr_threshold_db(frame)
            ok = (not rec.interrupted_by_tx) and min_sinr_db(
                rec.rss_mw, rec.max_interference_mw, self._noise_mw) >= threshold
            tel = self._trace
            if tel.enabled:
                now = self.medium.sim.now
                if ok:
                    tel.frame_rx(now, self.node_id, frame)
                else:
                    reason = ("tx_busy" if rec.interrupted_by_tx else "sinr")
                    tel.frame_drop(now, self.node_id, frame, reason)
                    if reason == "sinr":
                        # A locked frame whose SINR dipped below
                        # threshold is the simulator's collision.
                        tel.metrics.counter("radio.collisions").inc()
            if ok:
                self.mac.on_receive(frame, rec.rss_dbm)
            else:
                self.mac.on_receive_failed(frame, rec.rss_dbm)

    # ------------------------------------------------------------------
    # Carrier sense edge detection
    # ------------------------------------------------------------------
    def _update_cs(self) -> None:
        busy = self._own_tx is not None or self._total >= self._cs_mw
        if busy == self._cs_busy:
            return
        self._cs_busy = busy
        if self.mac is None:
            return
        if busy:
            self.mac.on_channel_busy()
        else:
            self.mac.on_channel_idle()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "tx" if self.transmitting else ("rx" if self.receiving else "idle")
        return f"Radio(node={self.node_id}, {state}, incoming={len(self._incoming)})"
