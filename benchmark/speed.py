"""A fixed reference kernel, timed again and again during a run, that gives
the speed of the machine at the time of the run.

On a shared virtual machine, other guests slow this one by sharing caches,
memory bandwidth and the core's other hardware thread.  That slowdown shows
in CPU time and drifts over minutes: on the 2-vCPU machine the benchmark was
built on, one run of a workload took up to 1.5 times as long as another
a few minutes apart.  The kernel is a dense Newton-like iteration at the
workload's number of membrane unknowns (matrix copy, Cholesky
factor-and-solve, residual product and norm), so it slows with the
workload's steps.  The kernel is the benchmark's own code and does not change with the
library, so dividing by its time removes the machine's drift and keeps every
change of the library.
"""

from __future__ import annotations

import statistics

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from tracing import clock

# Iterations per kernel run, by matrix size.
REPEATS = {256: 32, 1024: 2}
# Median kernel time over 80 runs on the machine the benchmark was built on
# (Intel Xeon, 2 vCPUs, one OpenBLAS thread).  Times are reported at this
# speed.
REFERENCE_S = {256: 0.0230, 1024: 0.0487}


class SpeedProbe:
    """Call it between operations; ``factor()`` scales a CPU time measured
    over the same stretch to the reference speed."""

    def __init__(self, n: int):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(n, n))
        self.n = n
        self._a, self._b = a @ a.T + n * np.eye(n), rng.normal(size=n)
        # Factored in place in a buffer made once: a fresh copy would be
        # mapped, page-faulted and zeroed or taken from the heap depending
        # on what the library freed before, which moved the kernel's time
        # by up to 1.6 times.
        self._work = np.asfortranarray(self._a)
        self.samples: list[float] = []

    def __call__(self) -> float:
        """Time the kernel once; returns the time it took."""
        t0 = clock()
        for _ in range(REPEATS[self.n]):
            np.copyto(self._work, self._a)
            x = cho_solve(cho_factor(self._work, overwrite_a=True), self._b)
            np.max(np.abs(self._a @ x - self._b))
        elapsed = clock() - t0
        self.samples.append(elapsed)
        return elapsed

    def factor(self) -> float:
        return REFERENCE_S[self.n] / statistics.median(self.samples)
