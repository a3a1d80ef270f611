"""Host-speed calibration for the end-to-end timings.

The shared two-core host the benchmark runs on changes speed for
seconds to minutes at a time: the same service replay takes 4.1 s in
a fast stretch and 5.6 s in a slow one, and CPU time moves with wall
time, so the process is not descheduled; the same instructions simply
run slower.  A slow stretch often covers several consecutive runs,
which no repetition inside one run averages out.

So run.py times :func:`probe` between the timed operations of a run,
in the benchmark process, while the program is idle.  The probe is a
fixed piece of pure-Python dict, set and list work that never touches
the program, so a change to the program cannot move it; the collector
is off while it runs, so the size of the program's heap cannot either.
A :class:`Gauge` collects the probe walls of one run; their mean
against :data:`NOMINAL_S` gives the host's speed over the run, and the
timed end-to-end metrics are reported at nominal host speed: a wall
``w`` measured while the probe took ``p`` on average is reported as
``w * NOMINAL_S / p``.

Two other designs were measured and dropped.  A probe timed in a
helper process on the other core *during* the operations tracked the
host closely, but the program slowed it by a factor that depends on
the program's own instruction mix (1.7x under the service replay, 2.1x
under the simulations), so a change to the program would have moved
its own scale.  Keeping the other core busy with a fixed loop, to make
the neighbour constant, left the spread where it was.
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter
from typing import List

#: The probe wall taken as nominal host speed.  Any fixed value would
#: do; on the 2-vCPU Xeon host the bounds were tuned on the probe took
#: about 0.05 s in fast stretches and 0.09 s in slow ones, so reported
#: times stay close to the walls seen there.
NOMINAL_S = 0.08

#: Iterations of the probe's loop.
ITERATIONS = 120_000

#: Probes per :meth:`Gauge.sample`.
PROBES = 3


def probe() -> float:
    """Wall seconds of one run of the fixed calibration work."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        table: dict = {}
        ring = [0] * 1024
        x, total = 12345, 0
        for i in range(ITERATIONS):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            key = x % 1021
            node = table.get(key)
            if node is None:
                node = table[key] = [key, 0.0, set()]
            node[1] += key * 1e-3
            node[2].add(i & 15)
            ring[i & 1023] = len(node[2])
            total += ring[x & 1023]
        wall = perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
    if total < 0:  # keep the loop's result live
        raise AssertionError(total)
    return wall


class Gauge:
    """The probe walls of one run, and the scale they give."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self) -> None:
        self.samples.extend(probe() for _ in range(PROBES))

    def scale(self) -> float:
        """Factor from walls measured in the run to nominal-speed walls."""
        return NOMINAL_S / statistics.fmean(self.samples)
