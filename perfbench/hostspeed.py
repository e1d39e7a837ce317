"""Host-speed calibration for timings taken on a shared machine.

On a shared host the same process can run 1.5x slower for minutes at a
time while neighbours load the machine, so run medians of the same code
drift by more than a regression bound. A run therefore times a fixed
numpy kernel on the CPU its invocations run on, just before and just after
each invocation, and scales the invocation's timings by
``REFERENCE_S / kernel time``: timings read as if the host ran the kernel in
``REFERENCE_S``. The kernel is independent of decint, so a change to decint
moves the scaled timings by the same factor as the raw ones; only the
host's speed is divided out. Raw timings are kept in the run record.

The kernel is an XOR of 32 rows of a 1 MiB uint8 array into 32 others plus
a popcount. On a 2-vCPU sandbox its time correlated about 0.7 with decint's
invocation times, and over ten 60 s runs of exhaustive-steane the quartile
spread of run medians of wall_s fell from 12.7% unscaled to 4.7% scaled.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median kernel time on the 2-vCPU sandbox the baseline was measured on
# (Intel Xeon, Python 3.11, numpy 2.4), so scaled timings read close to raw
# ones there.
REFERENCE_S = 0.0047

SAMPLES = 25


class HostSpeed:
    """Times the calibration kernel; arrays are fixed, not seed-dependent."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._rows = rng.integers(0, 256, (64, 16384), dtype=np.uint8)
        self._perm = rng.permutation(64)

    def _kernel_s(self) -> float:
        rows, perm = self._rows, self._perm
        t0 = time.perf_counter()
        for _ in range(6):
            rows[perm[:32]] ^= rows[perm[32:]]
            np.count_nonzero(rows[:8])
        return time.perf_counter() - t0

    def kernel_s(self) -> float:
        """Median of SAMPLES kernel timings, about 0.1 s in all."""
        return statistics.median(self._kernel_s() for _ in range(SAMPLES))
