"""Machine-speed calibration for the end-to-end timings.

The benchmark runs on shared machines whose effective CPU speed drifts by
tens of percent over seconds (the same fixed loop was measured at 0.26 s and
0.43 s minutes apart, with CPU time equal to wall time, so the slowdown is
in the core itself, not in scheduling).  Wall-clock timings of the same ops
then differ by 40 % between runs, which no amount of repetition removes.

The closed loop therefore runs a fixed reference kernel, written here and
independent of the package, at most every ``INTERVAL_S`` seconds between
ops.  An op's timing is scaled by ``REFERENCE_S / r``, where ``r`` is the
median reference time in a window around the op: timings are reported as
they would read on a machine where the kernel takes ``REFERENCE_S``.  The
raw wall-clock figures are printed alongside in the provenance line.  The
process and its children are pinned to one CPU so that the kernel and the
ops run on the same core.
"""

from __future__ import annotations

import bisect
import os
import statistics
from fractions import Fraction
from operator import mul
from time import perf_counter

REFERENCE_S = 0.0025
INTERVAL_S = 0.05
WINDOW_S = 1.0


def pin_to_one_cpu() -> int:
    """Pin this process, and the children it starts, to one of its allowed
    CPUs, so the reference kernel and the ops run on the same core (the
    cores of a shared machine drift apart in speed)."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def reference_kernel() -> int:
    """A fixed mix of the package's kinds of work, written independently of
    it: fraction-free elimination of an integer matrix (list indexing and
    big-integer multiply/divide, as in the rank kernels), an integer matrix
    product through ``zip``/``map`` (as in the oracle's powers) and exact
    ``Fraction`` sums (as in the Hasse tables)."""
    n = 20
    rows = [[((i + 1) * (j + 3) * 7919 + i * i) % 61 - 30 for j in range(n)]
            for i in range(n)]
    prev = 1
    for r in range(n):
        piv_row = rows[r]
        piv = piv_row[r] or 1
        for i in range(r + 1, n):
            row = rows[i]
            f = row[r]
            for j in range(r + 1, n):
                row[j] = (row[j] * piv - f * piv_row[j]) // prev
        prev = piv
    a = [[(i * j + 3) % 7 - 3 for j in range(36)] for i in range(36)]
    cols = list(zip(*a))
    prod = [[sum(map(mul, row, col)) for col in cols] for row in a]
    acc = Fraction(0)
    for k in range(1, 200):
        acc += Fraction(k % 7 - 3, k % 5 + 1)
    return rows[-1][-1] + prod[-1][-1] + acc.numerator


class Speedometer:
    """Reference-kernel samples over time, and the scale they imply."""

    def __init__(self):
        self.times: list[float] = []
        self.durations: list[float] = []

    def sample(self) -> None:
        t0 = perf_counter()
        reference_kernel()
        t1 = perf_counter()
        self.times.append((t0 + t1) / 2)
        self.durations.append(t1 - t0)

    def maybe_sample(self) -> None:
        if not self.times or perf_counter() - self.times[-1] >= INTERVAL_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S / median reference time near [start, end]; at least
        the three nearest samples are used."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        if hi - lo < 3:
            mid = bisect.bisect_left(self.times, (start + end) / 2)
            lo, hi = max(0, mid - 2), min(len(self.times), mid + 2)
        return REFERENCE_S / statistics.median(self.durations[lo:hi])

    def median_s(self) -> float:
        return statistics.median(self.durations)
