"""Machine-speed normalisation of measured times.

The benchmark runs on shared 2-vCPU hosts whose speed drifts by 25-50%
over minutes while the container itself is idle: a fixed pure-Python
kernel run back to back slows and recovers with every other timed call.
Raw wall times then scatter between runs far more than any change under
test.  :class:`SpeedClock` runs a small reference kernel (dict inserts,
tuple and list allocation, iteration: the mix the program spends its
time on) between timed calls, at most every ``EVERY_S`` seconds, and
expresses each measured time in *nominal* seconds: the measured time
multiplied by ``NOMINAL_REF_S`` over the kernel time interpolated at the
moment of the measurement.  On a quiet host the factor is ~1; the raw
times are printed next to the normalised ones.
"""

from __future__ import annotations

import bisect
import statistics
import time

#: reference-kernel time on a quiet 2-vCPU Intel Xeon container (CPython
#: 3.11); the unit normalised times are expressed against
NOMINAL_REF_S = 0.013
EVERY_S = 0.5


def reference_s() -> float:
    """Best of three runs of the reference kernel, in seconds."""
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        table = {}
        for j in range(40_000):
            table[(j, j & 7)] = [j]
        sum(len(v) for k, v in table.items() if k[1] != 3)
        best = min(best, time.perf_counter() - started)
    return best


class SpeedClock:
    """Reference-kernel readings over time, and the factor they imply."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.refs: list[float] = []

    def calibrate(self) -> None:
        """Take one reading now."""
        ref = reference_s()
        self.times.append(time.perf_counter())
        self.refs.append(ref)

    def maybe_calibrate(self) -> None:
        """Take a reading unless the last one is under ``EVERY_S`` old."""
        if not self.times or time.perf_counter() - self.times[-1] >= EVERY_S:
            self.calibrate()

    def factor(self, at: float) -> float:
        """Nominal over actual speed at ``at``, interpolated linearly."""
        i = bisect.bisect_left(self.times, at)
        if i == 0:
            ref = self.refs[0]
        elif i == len(self.times):
            ref = self.refs[-1]
        else:
            t0, t1 = self.times[i - 1], self.times[i]
            r0, r1 = self.refs[i - 1], self.refs[i]
            ref = r0 + (r1 - r0) * (at - t0) / (t1 - t0)
        return NOMINAL_REF_S / ref

    def median_factor(self) -> float:
        return NOMINAL_REF_S / statistics.median(self.refs)
