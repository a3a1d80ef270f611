"""The reference radio's incremental bookkeeping is exact.

``Radio`` keeps its incoming total as a running left-to-right fold,
refreshes worst-case interference and signature overlap only at start
edges and only for receptions a delivery can still read, and finalises
the minimum SINR only for delivered frames.  These tests hold that to
the straightforward algorithm it replaced, kept below as
:class:`ReferenceRadio`: re-fold the total on every edge, refresh every
reception at both edges, finalise every ended reception.

* Fold: the total equals the left-to-right fold in arrival order,
  never a compensated sum (builtin ``sum()`` compensates from
  Python 3.12).
* Oracle (Hypothesis): random edge sequences — RSS above and below
  sensitivity, every correlator and lockable frame kind, preamble
  capture, own transmits and sleep windows mid-frame, a MAC-less radio
  — give the identical MAC callback sequence and the identical
  carrier-sense verdict and total after every edge.  The canonical
  digest workloads never reach the capture or sleep paths, so this is
  what pins them.
* Work count: on a CI-sized Fig. 12 DOMINO run, minimum-SINR
  finalisations equal delivered callbacks exactly, on any machine.
"""

import math

from hypothesis import example, given, settings, strategies as st

from repro.core.domino_mac import DominoMac
from repro.experiments.common import run_scheme
from repro.experiments.fig12_t10_2 import default_topology
from repro.sim.medium import Transmission
from repro.sim.packet import Frame, FrameKind, ack_frame, data_frame
from repro.sim.phy import DOT11G, dbm_to_mw, mw_to_dbm
from repro.sim import radio as radio_module
from repro.sim.radio import Radio


class _Clock:
    now = 0.0


class FakeMedium:
    """Just enough medium for radios driven edge by edge."""

    def __init__(self, profile=DOT11G):
        self.profile = profile
        self.sim = _Clock()

    def register(self, radio):
        pass

    def transmit(self, src_id, frame):
        now = self.sim.now
        return Transmission(frame=frame, src=src_id, start=now,
                            end=now + self.profile.frame_airtime_us(frame),
                            tx_power_dbm=self.profile.tx_power_dbm)


def left_fold(values):
    total = 0.0
    for value in values:
        total = total + value
    return total


class _RefReception:
    def __init__(self, tx, rss_dbm, rss_mw):
        self.tx = tx
        self.rss_dbm = rss_dbm
        self.rss_mw = rss_mw
        self.max_overlapping_signatures = 0
        self.interrupted_by_tx = False
        self.max_interference_mw = -1.0
        self.n_signatures = 0


class ReferenceRadio:
    """The per-edge algorithm the incremental radio must reproduce."""

    def __init__(self, medium):
        self.medium = medium
        self.profile = medium.profile
        self.node_id = 0
        self.mac = None
        self._incoming = {}
        self._lock = None
        self._own_tx = None
        self._cs_busy = False
        self._noise_mw = self.profile.noise_mw()
        self._cs_mw = dbm_to_mw(self.profile.cs_threshold_dbm)
        self._sleep_until = 0.0
        # Path coverage, for the scenario tests.
        self.stats = {"captures": 0, "sleep_mid_frame": 0,
                      "transmit_mid_frame": 0, "finalisations": 0}

    def total_incoming_mw(self):
        return left_fold(r.rss_mw for r in self._incoming.values())

    def channel_busy(self):
        if self._own_tx is not None:
            return True
        return self.total_incoming_mw() >= self._cs_mw

    def sleep_until(self, wake_time):
        if self._own_tx is not None:
            return 0.0
        now = self.medium.sim.now
        previous = max(self._sleep_until, now)
        if wake_time <= previous:
            return 0.0
        self._sleep_until = wake_time
        if self._incoming:
            self.stats["sleep_mid_frame"] += 1
        if self._lock is not None:
            self._lock.interrupted_by_tx = True
            self._lock = None
        return wake_time - previous

    def transmit(self, frame):
        if self._incoming:
            self.stats["transmit_mid_frame"] += 1
        if self._lock is not None:
            self._lock.interrupted_by_tx = True
            self._lock = None
        for rec in self._incoming.values():
            rec.interrupted_by_tx = True
        tx = self.medium.transmit(self.node_id, frame)
        self._own_tx = tx
        self._update_cs(self.total_incoming_mw())
        return tx

    def on_own_tx_end(self, tx):
        self._own_tx = None
        self._update_cs(self.total_incoming_mw())
        if self.mac is not None:
            self.mac.on_tx_end(tx.frame)

    def on_energy_start(self, tx, rss_dbm, rss_mw):
        rec = _RefReception(tx, rss_dbm, rss_mw)
        if self._own_tx is not None or self.medium.sim.now < self._sleep_until:
            rec.interrupted_by_tx = True
        frame = tx.frame
        if frame.kind is FrameKind.TRIGGER:
            rec.n_signatures = max(
                1, len(frame.trigger_targets())
                + len(frame.meta.get("rop_polls", ())))
        self._incoming[tx.uid] = rec
        self._maybe_lock(rec)
        total = self.total_incoming_mw()
        self._refresh(total)
        self._update_cs(total)

    def on_energy_end(self, tx, rss_dbm, rss_mw):
        rec = self._incoming.pop(tx.uid, None)
        if rec is None:
            return
        total = self.total_incoming_mw()
        self._refresh(total)
        self._update_cs(total)
        self._deliver(rec)

    def _maybe_lock(self, rec):
        if rec.tx.frame.kind in (FrameKind.TRIGGER, FrameKind.QUEUE_REPORT):
            return
        if rec.interrupted_by_tx or rec.rss_dbm < self.profile.sensitivity_dbm:
            return
        if self._lock is None:
            self._lock = rec
            return
        in_preamble = (self.medium.sim.now - self._lock.tx.start
                       <= self.profile.preamble_us)
        margin_mw = self._lock.rss_mw * dbm_to_mw(self.profile.capture_margin_db)
        if in_preamble and rec.rss_mw >= margin_mw:
            self.stats["captures"] += 1
            self._lock.interrupted_by_tx = True
            self._lock = rec

    def _refresh(self, total):
        recs = list(self._incoming.values())
        triggers = [r for r in recs if r.n_signatures]
        for rec in recs:
            rec.max_interference_mw = max(rec.max_interference_mw,
                                          total - rec.rss_mw)
            if rec.n_signatures:
                floor_mw = rec.rss_mw / 10.0
                signatures = sum(o.n_signatures for o in triggers
                                 if o.rss_mw >= floor_mw)
                rec.max_overlapping_signatures = max(
                    rec.max_overlapping_signatures, signatures)

    def _deliver(self, rec):
        if self.mac is None:
            return
        min_sinr_db = math.inf
        if rec.max_interference_mw >= 0.0:
            self.stats["finalisations"] += 1
            min_sinr_db = mw_to_dbm(rec.rss_mw) - mw_to_dbm(
                rec.max_interference_mw + self._noise_mw)
        frame = rec.tx.frame
        if frame.kind is FrameKind.TRIGGER:
            if not rec.interrupted_by_tx:
                self.mac.on_trigger(frame, min_sinr_db, rec.rss_dbm,
                                    rec.max_overlapping_signatures)
            return
        if frame.kind is FrameKind.QUEUE_REPORT:
            if not rec.interrupted_by_tx:
                self.mac.on_queue_report(frame, rec.rss_dbm)
            return
        if self._lock is not None and self._lock.tx.uid == rec.tx.uid:
            self._lock = None
            threshold = self.profile.frame_sinr_threshold_db(frame)
            if not rec.interrupted_by_tx and min_sinr_db >= threshold:
                self.mac.on_receive(frame, rec.rss_dbm)
            else:
                self.mac.on_receive_failed(frame, rec.rss_dbm)

    def _update_cs(self, total):
        busy = self._own_tx is not None or total >= self._cs_mw
        if busy == self._cs_busy:
            return
        self._cs_busy = busy
        if self.mac is not None:
            if busy:
                self.mac.on_channel_busy()
            else:
                self.mac.on_channel_idle()


class LoggingMac:
    """Appends every radio callback, with its arguments, to ``log``."""

    def __init__(self, log):
        self.log = log

    def on_receive(self, frame, rss_dbm):
        self.log.append(("receive", frame.uid, rss_dbm))

    def on_receive_failed(self, frame, rss_dbm):
        self.log.append(("receive_failed", frame.uid, rss_dbm))

    def on_trigger(self, frame, sinr_db, rss_dbm, overlapping):
        self.log.append(("trigger", frame.uid, sinr_db, rss_dbm, overlapping))

    def on_queue_report(self, frame, rss_dbm):
        self.log.append(("queue_report", frame.uid, rss_dbm))

    def on_channel_busy(self):
        self.log.append(("busy",))

    def on_channel_idle(self):
        self.log.append(("idle",))

    def on_tx_end(self, frame):
        self.log.append(("tx_end", frame.uid))


def _frame(kind, n_targets, n_polls):
    if kind is FrameKind.DATA:
        return data_frame(1, 0, 512, 0, 0.0)
    if kind is FrameKind.ACK:
        return ack_frame(1, 0, 0)
    if kind is FrameKind.TRIGGER:
        return Frame(kind=kind, src=1, dst=None,
                     meta={"targets": frozenset(range(2, 2 + n_targets)),
                           "rop_polls": list(range(n_polls))})
    return Frame(kind=kind, src=1, dst=0, meta={"queue_len": 3})


def drive(ops, with_mac=True):
    """Run ``ops`` through a ``Radio`` and a ``ReferenceRadio``.

    Returns both logs — MAC callbacks interleaved with the
    carrier-sense verdict and incoming total after every edge — and the
    reference's path-coverage counts.  Every frame still in flight is
    ended at the close so its delivery is compared too.
    """
    medium = FakeMedium()
    radio = Radio(0, medium)
    ref = ReferenceRadio(medium)
    radios = (radio, ref)
    logs = ([], [])
    if with_mac:
        radio.mac = LoggingMac(logs[0])
        ref.mac = LoggingMac(logs[1])
    active = []
    own = None

    def snapshot(label):
        for r, log in zip(radios, logs):
            log.append((label, r.channel_busy(), r.total_incoming_mw(),
                        r._lock is not None))

    def end(i):
        tx, rss_dbm = active.pop(i)
        for r in radios:
            r.on_energy_end(tx, rss_dbm, dbm_to_mw(rss_dbm))
        snapshot("end")

    for op in ops:
        name = op[0]
        if name == "start":
            _, kind, rss_dbm, n_targets, n_polls = op
            frame = _frame(kind, n_targets, n_polls)
            tx = medium.transmit(1, frame)
            active.append((tx, rss_dbm))
            for r in radios:
                r.on_energy_start(tx, rss_dbm, dbm_to_mw(rss_dbm))
            snapshot("start")
        elif name == "end":
            if active:
                end(op[1] % len(active))
        elif name == "advance":
            medium.sim.now += op[1]
        elif name == "transmit":
            if own is None:
                frame = data_frame(0, 1, 64, 0, 0.0)
                own = tuple(r.transmit(frame) for r in radios)
                snapshot("transmit")
            else:
                for r, tx in zip(radios, own):
                    r.on_own_tx_end(tx)
                own = None
                snapshot("own_end")
        elif name == "sleep":
            wake = medium.sim.now + op[1]
            granted = [r.sleep_until(wake) for r in radios]
            for g, log in zip(granted, logs):
                log.append(("slept", g))
    while active:
        end(0)
    if own is not None:
        for r, tx in zip(radios, own):
            r.on_own_tx_end(tx)
        snapshot("own_end")
    return logs[0], logs[1], ref.stats


# Powers from below the energy a radio could lock (sensitivity -88 dBm)
# through the carrier-sense threshold (-82 dBm) to strong neighbours,
# dense enough that the 10 dB capture margin and the 10 dB signature
# floor are both crossed in either direction.
_rss = st.one_of(
    st.sampled_from([-100.0, -90.0, -88.0, -85.0, -82.0, -78.0, -72.0,
                     -60.0, -50.0, -40.0]),
    st.floats(min_value=-104.0, max_value=-30.0, allow_nan=False))
_kinds = st.sampled_from([FrameKind.DATA, FrameKind.ACK, FrameKind.TRIGGER,
                          FrameKind.QUEUE_REPORT])
_op = st.one_of(
    st.tuples(st.just("start"), _kinds, _rss, st.integers(0, 4),
              st.integers(0, 3)),
    st.tuples(st.just("end"), st.integers(0, 7)),
    # Short steps stay inside the 20 us preamble (capture possible).
    st.tuples(st.just("advance"), st.floats(min_value=0.0, max_value=40.0)),
    st.tuples(st.just("transmit")),
    st.tuples(st.just("sleep"), st.floats(min_value=0.0, max_value=100.0)),
)

_CAPTURE = [("start", FrameKind.DATA, -70.0, 0, 0),
            ("advance", 5.0),
            ("start", FrameKind.DATA, -50.0, 0, 0),
            ("start", FrameKind.TRIGGER, -55.0, 2, 1),
            ("end", 0), ("end", 0), ("end", 0)]
_SLEEP = [("start", FrameKind.DATA, -60.0, 0, 0),
          ("start", FrameKind.TRIGGER, -65.0, 1, 0),
          ("sleep", 30.0),
          ("start", FrameKind.TRIGGER, -62.0, 3, 2),
          ("advance", 40.0),
          ("start", FrameKind.QUEUE_REPORT, -70.0, 0, 0),
          ("end", 1), ("end", 0), ("end", 0), ("end", 0)]
_TRANSMIT = [("start", FrameKind.DATA, -60.0, 0, 0),
             ("start", FrameKind.TRIGGER, -58.0, 2, 0),
             ("transmit",),
             ("start", FrameKind.TRIGGER, -61.0, 1, 1),
             ("end", 0), ("transmit",),
             ("start", FrameKind.TRIGGER, -57.0, 4, 3),
             ("end", 0), ("end", 0), ("end", 0)]


@settings(deadline=None, max_examples=300)
@given(ops=st.lists(_op, max_size=40), with_mac=st.booleans())
@example(ops=_CAPTURE, with_mac=True)
@example(ops=_SLEEP, with_mac=True)
@example(ops=_TRANSMIT, with_mac=True)
@example(ops=_TRANSMIT, with_mac=False)
def test_radio_matches_per_edge_reference(ops, with_mac):
    got, want, _ = drive(ops, with_mac)
    assert got == want


def test_scenarios_reach_capture_sleep_and_transmit_paths():
    """The hand-written oracle examples really exercise the paths the
    digest workloads never reach, and deliver frames on each."""
    for ops, path in ((_CAPTURE, "captures"), (_SLEEP, "sleep_mid_frame"),
                      (_TRANSMIT, "transmit_mid_frame")):
        got, want, stats = drive(ops)
        assert stats[path] > 0, path
        assert got == want, path
        kinds = {entry[0] for entry in want}
        assert kinds & {"receive", "receive_failed", "trigger"}, path


def test_total_is_a_left_to_right_fold():
    """1.0 + 1e-16 + 1e-16 folds to 1.0 left to right; a compensated
    sum (builtin sum() from Python 3.12, math.fsum) gives the next
    float up.  Both the start-edge extension and the end-edge re-fold
    must give the fold."""
    medium = FakeMedium()
    radio = Radio(0, medium)
    powers = [1e-16, 1.0, 1e-16, 1e-16]
    txs = []
    for mw in powers:
        tx = medium.transmit(1, _frame(FrameKind.DATA, 0, 0))
        txs.append(tx)
        radio.on_energy_start(tx, mw_to_dbm(mw), mw)
    assert radio.total_incoming_mw() == left_fold(powers)
    radio.on_energy_end(txs[0], mw_to_dbm(powers[0]), powers[0])
    assert radio.total_incoming_mw() == left_fold(powers[1:]) == 1.0
    assert math.fsum(powers[1:]) != 1.0


def test_fig12_finalises_min_sinr_only_on_delivery(monkeypatch):
    """CI-sized Fig. 12 DOMINO run on the reference engine: every
    minimum-SINR finalisation belongs to a delivered on_trigger /
    on_receive / on_receive_failed callback.  The count is exact, so a
    return to per-reception finalisation is a code change on any
    machine."""
    counts = {"finalisations": 0, "delivered": 0, "ended": 0}
    finalise = radio_module.min_sinr_db
    energy_end = Radio.on_energy_end

    def counting_finalise(*args):
        counts["finalisations"] += 1
        return finalise(*args)

    def counting_end(self, tx, rss_dbm, rss_mw):
        counts["ended"] += 1
        return energy_end(self, tx, rss_dbm, rss_mw)

    monkeypatch.setattr(radio_module, "min_sinr_db", counting_finalise)
    monkeypatch.setattr(Radio, "on_energy_end", counting_end)
    for hook in ("on_trigger", "on_receive", "on_receive_failed"):
        original = getattr(DominoMac, hook)

        def counted(self, *args, _original=original):
            counts["delivered"] += 1
            return _original(self, *args)

        monkeypatch.setattr(DominoMac, hook, counted)
    result = run_scheme("domino", default_topology(3), horizon_us=60_000.0,
                        seed=1, downlink_mbps=10.0, uplink_mbps=0.0,
                        engine="event")
    assert all(isinstance(mac, DominoMac) for mac in result.macs.values())
    assert counts["delivered"] > 100
    assert counts["finalisations"] == counts["delivered"]
    # Far fewer than one per ended reception, the per-reception cost.
    assert counts["ended"] > 2 * counts["finalisations"]
