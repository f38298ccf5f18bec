"""CPU-speed calibration for perfbench's CPU-bound timings.

On a shared virtual machine the guest's CPU speed can change by a third
within seconds and by half over minutes as other tenants come and go, which
moves every CPU-bound timing with it.  A fixed kernel that does not touch
the program under test (a Python loop, a numpy scatter-add and small matrix
products: the kinds of work the program's hot paths do) is timed right
before and (unless another process is still busy, as after a server start)
right after every CPU-bound sample, and the sample is reported scaled by
``REFERENCE_S`` over the kernel's mean time around it, that is, in seconds
at the reference CPU speed.  Each run's report keeps the mean
factor between raw and reported timings.
"""

from __future__ import annotations

import statistics
import time
from typing import List

import numpy as np

#: The kernel's time at the reference CPU speed (an unloaded 2-vCPU Xeon VM).
REFERENCE_S = 0.016


class Calibration:
    """Times the fixed kernel and turns raw timings into reference-speed ones."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._index = rng.integers(0, 2000, size=60000)
        self._values = rng.normal(size=(60000, 8))
        self._matrix = rng.normal(size=(200, 200))
        self.samples: List[float] = []

    def sample(self) -> float:
        start = time.perf_counter()
        total = 0
        for i in range(60000):
            total += i * i
        np.add.at(np.zeros((2000, 8)), self._index, self._values)
        for _ in range(5):
            self._matrix @ self._matrix
        took = time.perf_counter() - start
        self.samples.append(took)
        return took

    @property
    def factor(self) -> float:
        """Reference over measured kernel time, averaged over the run."""
        return REFERENCE_S / statistics.fmean(self.samples)
