"""Engine table: wall time of the event and matrix engines per workload.

Runs every (workload, scheme, engine) cell untraced, best of
``REPEATS`` runs, and prints a Markdown table with the matrix
engine's speed relative to the event engine (event wall / matrix wall;
above 1 means matrix is faster).  The workloads span the paper's
small hand-built topologies to the densest random placement::

    PYTHONPATH=src python benchmarks/engine_table.py

Both engines run the identical event stream (byte-identical traces),
so the ratio isolates the medium and radio bookkeeping.  Wall-clock
seconds depend on the host; compare ratios taken on one machine.
"""

from __future__ import annotations

import os
import sys
import time

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_ROOT, "src"))

from repro.experiments.common import run_scheme  # noqa: E402
from repro.experiments.fig12_t10_2 import default_topology  # noqa: E402
from repro.topology.builder import (  # noqa: E402
    fig1_topology, fig7_topology, fig13a_topology, random_t_topology)

SCHEMES = ("dcf", "domino")
ENGINES = ("event", "matrix")
REPEATS = 3
SATURATED = dict(saturated=True)
CBR = dict(downlink_mbps=10.0, uplink_mbps=10.0)

#: name -> (topology factory, horizon in us, traffic keywords).
WORKLOADS = {
    "fig1": (fig1_topology, 200_000.0, SATURATED),
    "fig7": (lambda: fig7_topology(uplinks=True), 200_000.0, SATURATED),
    "fig13a": (fig13a_topology, 200_000.0, SATURATED),
    "T(10,2)": (lambda: default_topology(3), 300_000.0,
                dict(downlink_mbps=10.0, uplink_mbps=0.0)),
    "T(10,3)": (lambda: random_t_topology(10, 3, seed=100), 250_000.0, CBR),
    "T(20,3)": (lambda: random_t_topology(20, 3, seed=100), 250_000.0, CBR),
    "T(40,3)": (lambda: random_t_topology(40, 3, seed=100), 120_000.0, CBR),
}


def wall(name: str, scheme: str, engine: str) -> float:
    factory, horizon_us, traffic = WORKLOADS[name]
    best = float("inf")
    for _ in range(REPEATS):
        topology = factory()
        started = time.perf_counter()
        run_scheme(scheme, topology, horizon_us=horizon_us, seed=1,
                   engine=engine, **traffic)
        best = min(best, time.perf_counter() - started)
    return best


def main() -> None:
    print("| workload | scheme | event s | matrix s | matrix speed |")
    print("|---|---|---|---|---|")
    for name in WORKLOADS:
        for scheme in SCHEMES:
            event_s, matrix_s = (wall(name, scheme, engine)
                                 for engine in ENGINES)
            print(f"| {name} | {scheme} | {event_s:.2f} | {matrix_s:.2f} "
                  f"| {event_s / matrix_s:.2f}x |", flush=True)


if __name__ == "__main__":
    main()
