"""Host-speed reference: a fixed kernel, independent of ``prefrl``, timed
between repetitions so that timings can be scaled to a nominal host.

The benchmark host is shared. The same CPU-bound work ran up to 1.8 times
slower for seconds to minutes at a time there, so raw step times of one seed
could not be compared with those of the next. The kernel mixes the operations
the workloads spend their time on: small matrix products, a row softmax, a
scatter-add and building small tuples in Python. On that host (2 vCPUs,
Xeon), 30-second medians of a batch-64 learner loop spread by 0.26-0.33 of
their median (interquartile range) raw, and by about 0.1 once each 2-second
block was scaled by ``NOMINAL_S`` over the mean kernel time around it.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

# seconds per kernel() call on the nominal host; timings are reported as if
# the host ran the kernel this fast
NOMINAL_S = 0.0035
CALLS = 40


class Reference:
    def __init__(self):
        rng = np.random.default_rng(12345)
        self._m = rng.standard_normal((64, 64))
        self._x = rng.standard_normal((10, 64))
        self._idx = rng.integers(0, 31, 10)
        self._acc = np.zeros((31, 64))

    def kernel(self) -> float:
        total = 0.0
        for i in range(100):
            y = self._x @ self._m
            scores = y @ y.T
            scores -= scores.max(axis=1, keepdims=True)
            e = np.exp(scores)
            e /= e.sum(axis=1, keepdims=True)
            np.add.at(self._acc, self._idx, y)
            key = tuple(int(j) for j in self._idx[:5]) + (i,)
            total += float(e[-1, -1]) + len(key)
        return total

    def seconds(self) -> float:
        """Median seconds per kernel call over ``CALLS`` calls."""
        times = []
        for _ in range(CALLS):
            t = time.perf_counter()
            self.kernel()
            times.append(time.perf_counter() - t)
        return statistics.median(times)
