"""The repository benchmark: one workload, one seed, one JSON result.

Usage::

    python3 dominobench/run.py --workload fig14-point --seed 0 \\
        --seconds 25 --trace 0

A run sets up (imports the program, generates the workload's inputs
from the seed), runs one untimed check operation whose outputs become
the run's reference, then repeats the workload's operation for
``--seconds`` seconds, timing :mod:`hostspeed` probes before each
operation and after the last.  With ``--trace 1`` it then repeats the
operation under :class:`layers.LayerTrace` for half as long again and
reports per-layer metrics instead of end-to-end ones.

Every operation's simulated outputs must equal the reference; at the
default seed the reference is ``pinned.json``.  An operation that
raises or differs counts as failed.  Human-readable metric lines (with
sample counts) precede the result, which is the last stdout line::

    {"correct": true, "attempted": 7, "failed": 0, "metrics": {...}}

Exit status: 0 with a result; 2 on bad arguments or when the checkout
holds no program source.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

import hostspeed
import layers
import workloads

BENCH_DIR = Path(__file__).resolve().parent
PINNED = BENCH_DIR / "pinned.json"

#: End-to-end metric names and units, in BENCHMARK.json order.
END_TO_END = [
    ("sim_ms_per_s", "ms/s"),
    ("updates_per_s", "1/s"),
    ("revision_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]
#: Cold set-ups measured in fresh interpreters, besides the run's own.
SETUP_PROBES = 8
#: Fewest timed operations per run: the service needs three replays
#: (3 x 374 revisions) for ten latency samples beyond the p99.
MIN_OPS = 3


class Tally:
    """Runs operations and checks each one's outputs against the reference."""

    def __init__(self, reference: Optional[Dict[str, Any]]):
        self.reference = reference
        self.attempted = 0
        self.failed = 0

    def run(self, label: str, op: Callable[[], workloads.OpResult]
            ) -> Optional[workloads.OpResult]:
        self.attempted += 1
        # Collect the previous operation's garbage outside this one's
        # window; the operation itself runs with the collector on.
        gc.collect()
        try:
            result = op()
        except Exception:  # one failed operation must not end the run
            self.failed += 1
            print(f"{label}: operation raised", file=sys.stderr)
            traceback.print_exc()
            return None
        print(f"{label}: {result.wall_s:.3f} s", file=sys.stderr)
        # Round-trip through JSON so outputs compare as pinned.json stores them.
        outputs = json.loads(json.dumps(result.outputs))
        if self.reference is None:
            self.reference = outputs
        elif outputs != self.reference:
            self.failed += 1
            diff = {k: (outputs.get(k), self.reference.get(k))
                    for k in sorted(set(outputs) | set(self.reference))
                    if outputs.get(k) != self.reference.get(k)}
            print(f"{label}: outputs differ (got, expected): {diff}",
                  file=sys.stderr)
        return result


def probe_setup(workload: str, seed: int) -> List[float]:
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload,
             str(seed)], capture_output=True, text=True, timeout=120,
            check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def p99(values: List[float]) -> float:
    """Nearest-rank 99th percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.99 * len(ordered)) - 1)]


def repeat(seconds: float, min_ops: int, step: Callable[[], Any]) -> list:
    """Results of ``step`` repeated for ``seconds`` and ``min_ops`` times."""
    done, attempts = [], 0
    t0 = perf_counter()
    while perf_counter() - t0 < seconds or attempts < min_ops:
        attempts += 1
        result = step()
        if result is not None:
            done.append(result)
    return done


def end_to_end(ops: List[workloads.OpResult], setup: List[float],
               scale: float = 1.0) -> Dict[str, tuple]:
    """Metric name -> (value, sample count).

    The timed metrics are taken at nominal host speed: every operation
    wall and revision latency is multiplied by ``scale`` (1 gives the
    raw values).
    """
    walls = [op.wall_s * scale for op in ops]
    latencies = [ms * scale for op in ops for ms in op.latencies_ms]
    if not latencies:   # simulation workloads: one latency per operation
        latencies = [wall * 1000.0 for wall in walls]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "sim_ms_per_s": (statistics.median(op.sim_ms / wall for op, wall
                                           in zip(ops, walls)), len(ops)),
        "updates_per_s": (statistics.median(op.events / wall for op, wall
                                            in zip(ops, walls)), len(ops)),
        "revision_p50_ms": (statistics.median(latencies), len(latencies)),
        "setup_s": (statistics.median(setup), len(setup)),
        "peak_rss_mb": (peak_kb / 1024.0, 1),
    }


def per_layer(traced: list, untraced: List[workloads.OpResult],
              oracle_s: float) -> Dict[str, tuple]:
    """Metric name -> (median over traced operations, sample count).

    The low median is a measured value, so counts stay whole numbers.
    """
    rows = [trace.metrics(op, oracle_s) for trace, op in traced]
    out = {name: (statistics.median_low(row[name] for row in rows),
                  len(rows))
           for name in rows[0]}
    # The revision tail comes from the untraced operations of the run.
    latencies = [ms for op in untraced for ms in op.latencies_ms]
    out["service.revision_p99_ms"] = (p99(latencies) if latencies else 0.0,
                                      len(latencies))
    out["bench.trace_overhead_ratio"] = (
        statistics.median(op.wall_s for _, op in traced)
        / statistics.median(op.wall_s for op in untraced), len(traced))
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]

    t0 = perf_counter()
    try:
        workloads.load_program()
    except workloads.ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    inputs = workload.make_inputs(args.seed)
    setup = [perf_counter() - t0]
    if not args.trace:
        setup += probe_setup(args.workload, args.seed)

    reference = None
    if args.seed == workloads.DEFAULT_SEED:
        reference = json.loads(PINNED.read_text())[args.workload]
    tally = Tally(reference)

    # The check operation warms the process up and, for the service,
    # runs the equality oracle; it is never timed.
    check_trace = layers.LayerTrace()
    with check_trace if args.trace else contextlib.nullcontext():
        tally.run("check", lambda: workload.check_op(inputs))

    gauge = hostspeed.Gauge()

    def timed_op():
        gauge.sample()
        return tally.run("op", lambda: workload.op(inputs))

    untraced = repeat(args.seconds, MIN_OPS, timed_op)
    gauge.sample()
    if not untraced:
        print("error: every timed operation raised", file=sys.stderr)
        return 1
    if not args.trace:
        scale = gauge.scale()
        metrics = end_to_end(untraced, setup, scale)
        units = dict(END_TO_END)
        raw = end_to_end(untraced, setup)
        print(f"host speed scale {scale:.4f} "
              f"({len(gauge.samples)} probes); raw: "
              + ", ".join(f"{name} {raw[name][0]:.6g}" for name, _ in
                          END_TO_END[:3]), file=sys.stderr)
    else:
        def traced_op():
            trace = layers.LayerTrace()
            with trace:
                result = tally.run("traced op", lambda: workload.op(inputs))
            return None if result is None else (trace, result)

        traced = repeat(args.seconds / 2, 1, traced_op)
        if not traced:
            print("error: every traced operation raised", file=sys.stderr)
            return 1
        metrics = per_layer(traced, untraced,
                            check_trace.seconds["service.oracle"])
        units = dict(layers.METRICS)

    for name, (value, samples) in metrics.items():
        print(f"{name:36s} {value:>16.6f} {units[name]:6s} n={samples}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, (value, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
