"""Calibrated time: seconds at a reference CPU speed.

The benchmark shares a small machine with other tenants, which slow the
same Python code by up to a factor of two, in stretches from under a
second to more than a run.  Raw times of identical work then spread by
25-45% between runs.  A fixed calibration kernel (a small Fraction
elimination and dict filling, like the program's own work) is timed
every CAL_EVERY_S seconds, from a timer signal, also in the middle of
long operations; the time spent in it is taken out of the operation it
interrupted.  Each measured time is multiplied by CAL_REF_S over the
median kernel time during and around it.  The result reads as seconds
on the reference machine in its unloaded state, and moves only when the
program's own work changes.
"""
from __future__ import annotations

import bisect
import contextlib
import signal
import statistics
import time
from fractions import Fraction

# Kernel time on the reference machine, unloaded: 2-core Intel Xeon VM, CPython 3.11.7.
CAL_REF_S = 650e-6
CAL_EVERY_S = 0.03

_MATRIX = [[Fraction((3 * i + 5 * j) % 7 + 1, (i + j) % 3 + 1) for j in range(7)] for i in range(6)]


def kernel_seconds():
    """Time of one run of the calibration kernel."""
    m = [row[:] for row in _MATRIX]
    start = time.perf_counter()
    for c in range(6):
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for i in range(6):
            if i != c and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    table = {}
    for k in range(300):
        table[(k, k % 7)] = k
    return time.perf_counter() - start


class Clock:
    """Calibration samples taken along a run, and the scale they give to any interval."""

    def __init__(self):
        self.times = []
        self.kernel = []
        self.paused = 0.0          # seconds spent sampling, to take out of measured intervals

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.times.append(start)
        self.kernel.append(min(kernel_seconds() for _ in range(3)))
        self.paused += time.perf_counter() - start

    @contextlib.contextmanager
    def ticking(self):
        """Sample the kernel on entry, every CAL_EVERY_S seconds while the block runs, and on exit."""
        self._tick(None, None)
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self._tick(None, None)

    def scale(self, start, end):
        """Reference seconds per measured second over [start, end]: samples inside it and one on each side."""
        lo = max(bisect.bisect_left(self.times, start) - 1, 0)
        hi = bisect.bisect_right(self.times, end) + 1
        return CAL_REF_S / statistics.median(self.kernel[lo:hi])
