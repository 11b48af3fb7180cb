"""Times at a reference CPU speed, from calibrations taken during the pass.

A shared CPU can run the same code up to twice as slowly for seconds or
minutes at a time, with process CPU time equal to wall time (so nothing is
descheduled; the core itself is slower). Wall times then measure the machine
as much as the program. The clock here measures the machine too, with three
short fixed kernels that do not use ipdg: interpreted Python with 6x6
products, element-wise numpy on 2000-vectors, and an einsum and tensordot
over a 3x6x6x6 field like a per-element derivative. Their geometric mean time
is the current speed.

During a pass, `tick` (called by the tracer's wrappers) calibrates whenever
INTERVAL_S has passed since the last calibration. Each stretch between two
calibrations counts at the speed of the median of the calibrations around it,
and the calibrations themselves count nothing. A duration on this clock is
the time the stretch would take if the kernels ran in REFERENCE_S. That
constant only fixes the unit; it is near the kernels' time during a pass on
the 2-core Intel Xeon the benchmark was written on.
"""

from __future__ import annotations

import bisect
import math
from time import perf_counter

import numpy as np

INTERVAL_S = 0.025
REFERENCE_S = 110e-6  # geometric mean of the three kernels at reference speed
NEIGHBOURS = 2  # a stretch uses the median of this many calibrations on each side

_rng = np.random.default_rng(20210812)
_A, _B = _rng.standard_normal((2, 6, 6))
_V = _rng.standard_normal(36)
_X, _Y = _rng.standard_normal((2, 2000))
_D = _rng.standard_normal((6, 6))
_U = _rng.standard_normal((3, 6, 6, 6))


def _interpreted():
    s = 0.0
    for i in range(12):
        c = _A @ _B
        s += float(c[0, 1]) + float(np.dot(_V, _V))
        d = {"k": i, "v": s}
        s += d["v"] * 1e-9 + len(str(i))
    return s


def _elementwise():
    s = 0.0
    for _ in range(20):
        s += float((_X * _Y + _X).sum())
    return s


def _contraction():
    s = 0.0
    for _ in range(6):
        r = np.einsum("ij,ajkl->aikl", _D, _U)
        s += float(np.tensordot(r, _D, axes=([3], [1]))[0, 0, 0, 0])
    return s


KERNELS = (_interpreted, _elementwise, _contraction)


class Clock:
    """Calibrations of one pass and the reference-speed time they imply."""

    def __init__(self):
        for kernel in KERNELS:  # first calls allocate and load code
            kernel()
        self.reset()

    def reset(self):
        self.starts, self.ends, self.costs = [], [], []
        self._last = -math.inf

    def calibrate(self):
        t = [perf_counter()]
        for kernel in KERNELS:
            kernel()
            t.append(perf_counter())
        self.starts.append(t[0])
        self.ends.append(t[-1])
        self.costs.append(math.exp(sum(math.log(b - a) for a, b in zip(t, t[1:])) / len(KERNELS)))
        self._last = t[-1]

    def tick(self):
        if perf_counter() - self._last >= INTERVAL_S:
            self.calibrate()

    def mapping(self):
        """Reference-speed time as a function of perf_counter time.

        Valid from the start of the first calibration to the end of the last;
        a pass is bracketed by two calibrations.
        """
        n = len(self.costs)
        if n < 2:
            raise ValueError("a pass needs a calibration before and after it")
        bounds = []
        rates = []
        for k in range(n):
            bounds += [self.starts[k], self.ends[k]]
            rates.append(0.0)  # inside a calibration
            if k + 1 < n:  # stretch between calibrations k and k + 1
                near = self.costs[max(0, k + 1 - NEIGHBOURS):k + 1 + NEIGHBOURS]
                rates.append(REFERENCE_S / float(np.median(near)))
        cumulative = [0.0]
        for i in range(1, len(bounds)):
            cumulative.append(cumulative[-1] + rates[i - 1] * (bounds[i] - bounds[i - 1]))

        def at(t):
            if not bounds[0] <= t <= bounds[-1]:
                raise ValueError("time outside the calibrated pass")
            i = min(bisect.bisect_right(bounds, t), len(rates)) - 1
            return cumulative[i] + rates[i] * (t - bounds[i])

        return at
