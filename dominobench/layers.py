"""Per-layer tracing for the benchmark's traced runs.

:class:`LayerTrace` wraps calls into each layer's public functions
from outside the program: while the context is active it replaces the
functions on their classes or modules with counting, timing wrappers
and puts the originals back on exit.  The wrappers only call through,
so a traced operation must produce the same simulated outputs as an
untraced one (run.py checks that).

Times are inclusive and counted once per outermost call of a metric:
medium callbacks fan out synchronously into other MACs' callbacks, and
the nested calls would otherwise be timed twice.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Per-layer metric names and units, in BENCHMARK.json order.
METRICS: List[Tuple[str, str]] = [
    ("sched.schedule_batch_calls", "count"),
    ("sched.schedule_batch_s", "s"),
    ("core.convert_calls", "count"),
    ("core.convert_s", "s"),
    ("core.cache_lookups", "count"),
    ("core.cache_hit_ratio", "ratio"),
    ("core.dispatch_share", "ratio"),
    ("topology.rss_lookups", "count"),
    ("topology.set_survives_calls", "count"),
    ("topology.set_survives_s", "s"),
    ("topology.set_survives_true_ratio", "ratio"),
    ("topology.conflicts_calls", "count"),
    ("topology.conflict_graph_build_s", "s"),
    ("topology.conflict_graph_update_calls", "count"),
    ("topology.conflict_graph_update_s", "s"),
    ("sim.events", "count"),
    ("sim.run_s", "s"),
    ("sim.transmit_calls", "count"),
    ("sim.transmit_s", "s"),
    ("mac.dcf_callbacks", "count"),
    ("mac.dcf_s", "s"),
    ("core.mac_triggers", "count"),
    ("core.mac_s", "s"),
    ("traffic.packets_offered", "count"),
    ("traffic.enqueue_refused", "count"),
    ("service.events", "count"),
    ("service.revisions", "count"),
    ("service.apply_s", "s"),
    ("service.revise_s", "s"),
    ("service.dirty_links", "count"),
    ("service.conflict_checks", "count"),
    ("service.oracle_s", "s"),
    ("service.revision_p99_ms", "ms"),
    ("bench.trace_overhead_ratio", "ratio"),
]


class LayerTrace:
    """Counts and times calls into the program's layers while active."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.seconds: Dict[str, float] = defaultdict(float)
        self._depth: Dict[str, int] = defaultdict(int)
        self._undo: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    def __enter__(self) -> "LayerTrace":
        try:
            self._install()
        except BaseException:
            self.__exit__()
            raise
        return self

    def _install(self) -> None:
        from repro.core import domino_mac, controller, converter
        from repro.mac import base, dcf
        from repro.sched import rand_scheduler
        from repro.service import incremental
        from repro.sim import engine, medium
        from repro.sim.matrix import medium as matrix_medium
        from repro.topology import interference_map, propagation

        count = self._count
        imap = interference_map.InterferenceMap
        self._timed(rand_scheduler.RandScheduler, "schedule_batch",
                    "sched.schedule_batch")
        self._timed(converter.ScheduleConverter, "convert", "core.convert")
        self._timed(imap, "set_survives", "topology.set_survives",
                    after=lambda ok: ok and count("topology.set_survives_true"))
        self._timed(imap, "conflicts", "topology.conflicts")
        for module in (controller, incremental):
            self._timed(module, "build_conflict_graph",
                        "topology.conflict_graph_build")
        self._timed(incremental, "update_conflict_graph",
                    "topology.conflict_graph_update")
        for module in (propagation, incremental):
            self._patch(module, "matrix_rss_fn",
                        self._counting_rss_fn(vars(module)["matrix_rss_fn"]))

        self._timed_run(engine.Simulator)
        for medium_cls in (medium.Medium, matrix_medium.MatrixMedium):
            self._timed(medium_cls, "transmit", "sim.transmit")
        for name in ("on_channel_busy", "on_channel_idle", "on_tx_end",
                     "on_receive"):
            self._timed(dcf.DcfMac, name, "mac.dcf")
        self._timed(domino_mac.DominoMac, "on_trigger", "core.mac",
                    before=lambda: count("core.mac_triggers"))
        for name in ("on_receive", "on_tx_end"):
            self._timed(domino_mac.DominoMac, name, "core.mac")
        self._timed(base.Mac, "enqueue", "traffic.enqueue",
                    after=lambda ok: ok or count("traffic.enqueue_refused"))

        ctl = incremental.IncrementalController
        self._timed(ctl, "apply_events", "service.apply",
                    after=lambda applied: count("service.dirty_links",
                                                applied.n_dirty_links))
        self._timed(ctl, "revise", "service.revise")
        self._timed(ctl, "full_recompute", "service.oracle")

    def __exit__(self, *exc: object) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    # ------------------------------------------------------------------
    def _count(self, key: str, n: int = 1) -> None:
        self.calls[key] += n

    def _patch(self, owner: Any, name: str, replacement: Any) -> None:
        # vars() rather than getattr(): only names the owner defines
        # itself, so restoring with setattr puts back exactly what was.
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, replacement)

    def _timed(self, owner: Any, name: str, metric: str, *,
               before: Optional[Callable[[], Any]] = None,
               after: Optional[Callable[[Any], Any]] = None) -> None:
        original = vars(owner)[name]
        calls, seconds, depth = self.calls, self.seconds, self._depth

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            calls[metric] += 1
            if before is not None:
                before()
            outer = not depth[metric]
            depth[metric] += 1
            t0 = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                depth[metric] -= 1
                if outer:
                    seconds[metric] += perf_counter() - t0
            if after is not None:
                after(result)
            return result

        self._patch(owner, name, wrapper)

    def _timed_run(self, simulator_cls: Any) -> None:
        original = vars(simulator_cls)["run"]
        trace = self

        @functools.wraps(original)
        def run(sim: Any, until: float) -> None:
            before = sim.events_processed
            t0 = perf_counter()
            try:
                original(sim, until)
            finally:
                trace.seconds["sim.run"] += perf_counter() - t0
                trace.calls["sim.events"] += sim.events_processed - before

        self._patch(simulator_cls, "run", run)

    def _counting_rss_fn(self, factory: Callable[..., Any]) -> Callable[..., Any]:
        calls = self.calls

        @functools.wraps(factory)
        def matrix_rss_fn(matrix: Any) -> Callable[[int, int], float]:
            rss = factory(matrix)

            def counted(tx_id: int, rx_id: int) -> float:
                calls["topology.rss_lookups"] += 1
                return rss(tx_id, rx_id)

            return counted

        return matrix_rss_fn

    # ------------------------------------------------------------------
    def metrics(self, op: Any, oracle_s: float) -> Dict[str, float]:
        """The per-layer metrics of one traced operation ``op``.

        ``op`` is the operation's :class:`workloads.OpResult`; the
        oracle time comes from the separately traced check pass.
        """
        c, s = self.calls, self.seconds
        lookups = op.cache_hits + op.cache_misses
        survives = c["topology.set_survives"]
        dispatch_s = s["sched.schedule_batch"] + s["core.convert"]
        return {
            "sched.schedule_batch_calls": c["sched.schedule_batch"],
            "sched.schedule_batch_s": s["sched.schedule_batch"],
            "core.convert_calls": c["core.convert"],
            "core.convert_s": s["core.convert"],
            "core.cache_lookups": lookups,
            "core.cache_hit_ratio": op.cache_hits / lookups if lookups else 0.0,
            "core.dispatch_share": (dispatch_s / op.domino_wall_s
                                    if op.domino_wall_s else 0.0),
            "topology.rss_lookups": c["topology.rss_lookups"],
            "topology.set_survives_calls": survives,
            "topology.set_survives_s": s["topology.set_survives"],
            "topology.set_survives_true_ratio": (
                c["topology.set_survives_true"] / survives if survives else 0.0),
            "topology.conflicts_calls": c["topology.conflicts"],
            "topology.conflict_graph_build_s":
                s["topology.conflict_graph_build"],
            "topology.conflict_graph_update_calls":
                c["topology.conflict_graph_update"],
            "topology.conflict_graph_update_s":
                s["topology.conflict_graph_update"],
            "sim.events": c["sim.events"],
            "sim.run_s": s["sim.run"],
            "sim.transmit_calls": c["sim.transmit"],
            "sim.transmit_s": s["sim.transmit"],
            "mac.dcf_callbacks": c["mac.dcf"],
            "mac.dcf_s": s["mac.dcf"],
            "core.mac_triggers": c["core.mac_triggers"],
            "core.mac_s": s["core.mac"],
            "traffic.packets_offered": c["traffic.enqueue"],
            "traffic.enqueue_refused": c["traffic.enqueue_refused"],
            "service.events": op.service.get("events", 0),
            "service.revisions": op.service.get("revisions", 0),
            "service.apply_s": s["service.apply"],
            "service.revise_s": s["service.revise"],
            "service.dirty_links": c["service.dirty_links"],
            "service.conflict_checks": op.service.get("conflict_checks", 0),
            "service.oracle_s": oracle_s,
        }
