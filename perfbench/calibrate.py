"""A fixed CPU kernel that tracks how fast the host runs right now.

On a shared host the same configure takes 2 s in one minute and 4 s a
few minutes later, and every unit of a 30-second run is slow together,
so neither the median nor the fastest unit of a run is steady. This
kernel does the kind of work the rate math does (a loop of small NumPy
arrays and Python float arithmetic) and imports nothing from the
program, so no change to the program can move it. Timed right before
and after each unit, it tells how slow the host was while the unit ran.
"""

from __future__ import annotations

import statistics
import time
from math import comb
from typing import List

import numpy as np

ROUNDS = 8000
# Unit times are reported as they would read on a host on which one
# kernel takes this long (about the reference VM at its fastest).
REFERENCE_S = 0.100


def kernel_s() -> float:
    """Seconds one kernel takes now."""
    t0 = time.perf_counter()
    total = 0.0
    for i in range(ROUNDS):
        p = np.clip(np.asarray(1e-3 * (1 + i % 7), dtype=float), 0.0, 0.5)
        q = 1.0 - p
        tail = np.zeros_like(p)
        for k in range(4, 8):
            tail += comb(7, k) * p**k * q ** (7 - k)
        total += float(np.where(p >= 0.5, 0.5, np.minimum(tail, 0.5)))
    elapsed = time.perf_counter() - t0
    if not total > 0.0:
        raise RuntimeError("calibration kernel computed nothing")
    return elapsed


class Calibrated:
    """Unit times scaled by the kernels timed on either side of each unit."""

    def __init__(self) -> None:
        self.before = kernel_s()
        self.scaled: List[float] = []

    def add(self, wall_s: float) -> None:
        after = kernel_s()
        self.scaled.append(wall_s * REFERENCE_S / ((self.before + after) / 2.0))
        self.before = after

    def median(self) -> float:
        return statistics.median(self.scaled)
