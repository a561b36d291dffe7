"""Machine-speed calibration for the benchmark's timings.

The benchmark runs on a shared machine whose speed drifts by tens of
percent over minutes. A fixed kernel that uses none of the program's code is
timed between the program's operations; its median over a run says how fast
the machine was during that run. Timings are then scaled to the speed at
which the kernel takes ``REFERENCE_S``:

    reported = measured * REFERENCE_S / median(kernel times of the run)

A change to the program cannot move the kernel, so the scaled figures of two
commits compare as their raw figures would on a machine of steady speed.

The kernel mixes the kinds of work the program's library calls do:
interpreter loops over small objects, sorting a numpy array and a float text
round trip through JSON. It is used where it tracks the program: in the
process that makes the plans, timed between rounds of them. On the
reference machine it does not track separate CLI processes, whose speed varies with the
machine in ways a kernel timed beside them does not see; those are timed raw
and over more processes instead.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

#: kernel time at the reference speed (a quiet 2-core Intel Xeon VM)
REFERENCE_S = 0.005

_rng = np.random.default_rng(0)
_SORT = _rng.random(2**15)
_FLOATS = _rng.random(3000).tolist()


def kernel() -> float:
    """Run the kernel once; its wall time in seconds."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(4000):
        acc += (i * 0.5, str(i))[0]
    for _ in range(6):
        np.sort(_SORT)
    json.loads(json.dumps(_FLOATS))
    return time.perf_counter() - t0


def scale(samples: list[float]) -> float:
    """Factor that scales a run's timings to the reference speed, given the
    kernel times sampled over the run."""
    return REFERENCE_S / statistics.median(samples)


class Calibration:
    """Kernel times collected over a run."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self, count: int = 5) -> None:
        """Time the kernel ``count`` times; keep the median of these."""
        self.samples.append(statistics.median(kernel() for _ in range(count)))
