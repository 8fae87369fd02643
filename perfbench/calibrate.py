"""Machine-speed calibration for the timed loop.

A small shared host changes speed by tens of percent from minute to minute
(neighbours, clock and power states), which moves every wall time the
benchmark reads. Fixed kernels that use no otslice code are timed between
items, and each run's wall times are scaled by the kernels' nominal time over
their median time in that run. The result is a time in *calibrated seconds*:
the wall time on a core where the kernels take their nominal times. A change
to otslice moves item times and not the kernels, so it shows in full; a
change of machine speed moves both and largely cancels.

The kernels cover the three kinds of work otslice does, because a slow phase
of the host slows each kind by a different factor: interpreted Python, numpy
calls on small arrays, and numpy passes over arrays larger than the L1 and
L2 caches. A sample's slowness is the geometric mean of the three kernels'
times over their nominal times.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# Fastest-of-REPS times, in seconds, that define one calibrated second: the
# kernels' times in a fast phase of a 2-vCPU shared cloud host (Python 3.11,
# numpy 2, one BLAS thread). Calibrated seconds compare only with calibrated
# seconds of the same kernels and constants.
NOMINAL_S = {"interpreter": 5.5e-4, "small_arrays": 3.8e-4, "large_arrays": 1.8e-3}
# Repetitions per sample; the fastest is kept, so an interrupt in one
# repetition does not count.
REPS = 3
# Kernel time per second of item time, so long items get as many samples
# per run as short ones.
SHARE = 0.02


class SpeedProbe:
    """Samples the kernels' slowness; ``scale`` turns wall into calibrated seconds."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._small = [rng.standard_normal(48) for _ in range(80)]
        self._large = rng.standard_normal((1024, 96))
        self._large_w = rng.random((1024, 96))
        self._kernels = {"interpreter": self._interpreter, "small_arrays": self._small_arrays,
                         "large_arrays": self._large_arrays}
        self.samples = []

    @staticmethod
    def _interpreter():
        acc = 0.0
        for i in range(8000):
            acc += (i % 7) * 0.5
        return acc

    def _small_arrays(self):
        acc = 0.0
        for a in self._small:
            s = np.sort(a)
            acc += float(np.cumsum(s)[-1]) + float(np.searchsorted(s, 0.0))
        return acc

    def _large_arrays(self):
        s = np.sort(self._large, axis=1)
        return float(np.abs(s - np.cumsum(self._large_w, axis=1)).sum())

    def sample(self) -> float:
        """Slowness now: geometric mean of fastest kernel time over nominal."""
        logs = []
        for name, kernel in self._kernels.items():
            best = float("inf")
            for _ in range(REPS):
                t0 = time.perf_counter()
                kernel()
                best = min(best, time.perf_counter() - t0)
            logs.append(math.log(best / NOMINAL_S[name]))
        slowness = math.exp(sum(logs) / len(logs))
        self.samples.append(slowness)
        return slowness

    def after_item(self, latency: float) -> None:
        """Samples once, then again until SHARE of the item's latency has passed."""
        end = time.perf_counter() + SHARE * latency
        self.sample()
        while time.perf_counter() < end:
            self.sample()

    def scale(self) -> float:
        """Calibrated seconds per wall second: one over the median slowness."""
        return 1.0 / statistics.median(self.samples)
