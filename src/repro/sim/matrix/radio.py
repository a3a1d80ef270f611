"""Matrix-backend radio: per-node state over medium-owned matrices.

The reference :class:`~repro.sim.radio.Radio` owns a reception dict
and does all SINR/carrier-sense bookkeeping itself.  Here that
bookkeeping lives in the :class:`~repro.sim.matrix.medium.MatrixMedium`
matrices; the radio keeps only what is genuinely per-node and
order-observable — the frame lock, the carrier-sense edge detector,
the own-transmission handle and the sleep window — and exposes the
same MAC-facing API (``transmit``, ``channel_busy``, ``sleep_until``,
``total_incoming_mw``, the state properties).

``edge_lock`` / ``edge_cs`` / ``edge_deliver`` are the medium's
per-radio entry points during an energy edge; each replicates the
corresponding branch of the reference radio verbatim, including the
float arithmetic and the telemetry calls.
"""

from __future__ import annotations

from typing import Optional, Tuple, TYPE_CHECKING

from ..medium import Transmission
from ..packet import Frame
from ..phy import dbm_to_mw
from ..radio import Radio, min_sinr_db

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .medium import MatrixMedium


class MatrixRadio(Radio):
    """Half-duplex radio whose energy bookkeeping is medium-batched."""

    def __init__(self, node_id: int, medium: "MatrixMedium"):
        # (transmission, rss_mw) of the frame the receiver is locked
        # onto; the medium matrices hold everything else about it.
        self._mx_lock: Optional[Tuple[Transmission, float]] = None
        #: Column index in the medium's matrices (assigned on build).
        self.col = -1
        self._mx_med = medium
        super().__init__(node_id, medium)
        self._capture_factor = dbm_to_mw(self.profile.capture_margin_db)

    # ------------------------------------------------------------------
    # State queries (MAC-facing API of the reference radio)
    # ------------------------------------------------------------------
    @property
    def receiving(self) -> bool:
        return self._mx_lock is not None

    @property
    def mx_lock(self) -> Optional[Tuple[Transmission, float]]:
        """Current (transmission, rss_mw) lock, for the medium's
        delivery walk."""
        return self._mx_lock

    @property
    def cs_busy(self) -> bool:
        """Maintained carrier-sense verdict (for the medium's mirror)."""
        return self._cs_busy

    @property
    def sleep_deadline(self) -> float:
        return self._sleep_until

    def total_incoming_mw(self) -> float:
        return self._mx_med.total_at(self.col)

    def channel_busy(self) -> bool:
        # ``_cs_busy`` is re-derived on every energy edge and own-TX
        # transition, so between events it *is* the reference verdict
        # ``own or total >= cs`` — an O(1) read instead of the
        # reference engine's reception-dict scan.  This is what keeps
        # per-slot DCF backoff ticks cheap on this backend.
        if self._own_tx is not None:
            return True
        return self._cs_busy

    def sleep_until(self, wake_time: float) -> float:
        if self._own_tx is not None:
            return 0.0
        med = self._mx_med
        now = med.sim.now
        previous = max(self._sleep_until, now)
        if wake_time <= previous:
            return 0.0
        granted = wake_time - previous
        self._sleep_until = wake_time
        self.total_sleep_us += granted
        med.total_at(self.col)  # force a build so the column is valid
        med.note_sleep(self.col, wake_time)
        if self._mx_lock is not None:
            med.mark_reception_lost(self._mx_lock[0].uid, self.col)
            self._mx_lock = None
        return granted

    # ------------------------------------------------------------------
    # Transmit path
    # ------------------------------------------------------------------
    def transmit(self, frame: Frame) -> Transmission:
        if self._own_tx is not None:
            raise RuntimeError(f"node {self.node_id} is already transmitting")
        med = self._mx_med
        med.total_at(self.col)  # force a build so the column is valid
        if self._mx_lock is not None:
            # Switching to TX mid-reception destroys the reception.
            med.mark_reception_lost(self._mx_lock[0].uid, self.col)
            self._mx_lock = None
        # Anything arriving while we transmit is unhearable.
        med.mark_all_receptions_lost(self.col)
        tx = med.transmit(self.node_id, frame)
        self._own_tx = tx
        med.note_transmitting(self.col, True)
        self.edge_cs(0.0)  # transmitting forces busy regardless of total
        return tx

    def on_own_tx_end(self, tx: Transmission) -> None:
        self._own_tx = None
        med = self._mx_med
        med.note_transmitting(self.col, False)
        self.edge_cs(med.total_at(self.col))
        if self.mac is not None:
            self.mac.on_tx_end(tx.frame)

    # ------------------------------------------------------------------
    # Energy edges (driven by MatrixMedium; the reference entry points
    # must never be reached on this backend)
    # ------------------------------------------------------------------
    def on_energy_start(self, tx: Transmission, rss_dbm: float,
                        rss_mw: float) -> None:  # pragma: no cover
        raise RuntimeError("matrix radios receive energy via edge_* hooks")

    def on_energy_end(self, tx: Transmission, rss_dbm: float,
                      rss_mw: float) -> None:  # pragma: no cover
        raise RuntimeError("matrix radios receive energy via edge_* hooks")

    def edge_lock(self, tx: Transmission, rss_dbm: float,
                  rss_mw: float) -> None:
        """Lock attempt at a start edge (``Radio._maybe_lock``).

        The medium pre-filters what the reference radio re-checks per
        frame: only non-interrupted receivers on the static
        RSS >= sensitivity sublist get here.
        """
        lock = self._mx_lock
        if lock is None:
            self._mx_lock = (tx, rss_mw)
            return
        locked_tx, locked_rss_mw = lock
        in_preamble = (
            self._mx_med.sim.now - locked_tx.start <= self.profile.preamble_us
        )
        if in_preamble and rss_mw >= locked_rss_mw * self._capture_factor:
            # Preamble capture: the old frame is lost.
            self._mx_med.mark_reception_lost(locked_tx.uid, self.col)
            self._mx_lock = (tx, rss_mw)

    def edge_cs(self, total_mw: float) -> None:
        """Carrier-sense edge detection (``Radio._update_cs``)."""
        if self._own_tx is not None:
            busy = True
        else:
            busy = total_mw >= self._cs_mw
        if busy == self._cs_busy:
            return
        self._cs_busy = busy
        self._mx_med.note_cs(self.col, busy)
        mac = self.mac
        if mac is None:
            return
        if busy:
            mac.on_channel_busy()
        else:
            mac.on_channel_idle()

    def edge_deliver(self, tx: Transmission, rss_dbm: float, rss_mw: float,
                     interrupted: bool, max_interference_mw: float) -> None:
        """Locked-frame delivery at an end edge (``Radio._deliver``).

        TRIGGER / QUEUE_REPORT dispatch happens in the medium (those
        frames are never locked); everything else is observable only
        through the lock, so unlocked receivers return immediately.
        """
        if self.mac is None:
            # Reference quirk preserved: a MAC-less radio's _deliver
            # returns before clearing the lock or touching telemetry.
            return
        lock = self._mx_lock
        if lock is None or lock[0].uid != tx.uid:
            return
        self._mx_lock = None
        frame = tx.frame
        threshold = self.profile.frame_sinr_threshold_db(frame)
        ok = (not interrupted) and min_sinr_db(
            rss_mw, max_interference_mw, self._noise_mw) >= threshold
        tel = self._trace
        if tel.enabled:
            now = self._mx_med.sim.now
            if ok:
                tel.frame_rx(now, self.node_id, frame)
            else:
                reason = "tx_busy" if interrupted else "sinr"
                tel.frame_drop(now, self.node_id, frame, reason)
                if reason == "sinr":
                    # A locked frame whose SINR dipped below threshold
                    # is the simulator's collision.
                    tel.metrics.counter("radio.collisions").inc()
        mac = self.mac
        if mac is None:  # pragma: no cover - medium already filtered
            return
        if ok:
            mac.on_receive(frame, rss_dbm)
        else:
            mac.on_receive_failed(frame, rss_dbm)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "tx" if self.transmitting else (
            "rx" if self.receiving else "idle")
        return f"MatrixRadio(node={self.node_id}, col={self.col}, {state})"
