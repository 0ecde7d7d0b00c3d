"""Host-speed gauge: puts draw times on a common scale across a shared host.

On a shared machine the speed of the host changes by up to twice from one
minute to the next (other tenants on the same cores), with nothing in the
guest to show it: no steal time, and CPU time tracks wall time.  A run of a
few dozen seconds can fall wholly inside a slow phase, so no statistic over
one run's raw times removes it.

While draws run, a timer interrupts the process every ``PERIOD_S`` and times
a small fixed kernel of the benchmark's own (Python loop over small numpy
products, like the pipeline's inner loops).  A draw's *adjusted* time is its
wall time, less the samples taken inside it, scaled by ``REF_S`` over the
mean sample time within ``WINDOW_S`` of the draw:

    adjusted = (wall - samples inside) * REF_S / mean(samples nearby)

that is, the draw's time on a host where the kernel takes ``REF_S``.  The
kernel is not program code, so a faster program still reads faster.  The
mean leaves out samples over ``STALL`` times the nearby median: a host stall
of a few milliseconds multiplies one 0.3 ms sample but adds little to a draw.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.05
WINDOW_S = 0.25  # a draw shorter than a period still sees ~10 samples
REF_S = 0.0003  # the kernel's time on a quiet 2-vCPU VM (Python 3.11, numpy 2.4)
KERNEL_STEPS = 300
STALL = 3.0

_MATRIX = np.random.default_rng(0).standard_normal((8, 8))


def kernel() -> float:
    total = 0.0
    for i in range(KERNEL_STEPS):
        total += float(_MATRIX[i % 8] @ _MATRIX[(i + 1) % 8])
    return total


class HostGauge:
    """Context manager that samples the kernel on a real-time interval timer."""

    def __init__(self):
        self.starts = []  # perf_counter at the start of each sample
        self.durations = []

    def _sample(self, signum, frame):
        start = time.perf_counter()
        kernel()
        self.durations.append(time.perf_counter() - start)
        self.starts.append(start)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def speed(self, start: float, end: float) -> float:
        """``REF_S`` over the mean sample time within ``WINDOW_S`` of an interval."""
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_left(self.starts, end + WINDOW_S)
        nearby = self.durations[lo:hi]
        if not nearby:
            raise ValueError("no gauge samples near the interval")
        limit = STALL * statistics.median(nearby)
        return REF_S / statistics.fmean(d for d in nearby if d <= limit)

    def adjust(self, start: float, seconds: float) -> float:
        """Adjusted time of ``seconds`` of this process's wall time from ``start``.

        Samples taken inside the interval ran in this process and are
        subtracted.  Time spent waiting for a child process is not charged
        for samples, so set-up probes are scaled by :meth:`speed` alone.
        """
        end = start + seconds
        lo, hi = bisect.bisect_left(self.starts, start), bisect.bisect_left(self.starts, end)
        inside = sum(self.durations[lo:hi])
        return (seconds - inside) * self.speed(start, end)

    def median_sample_s(self) -> float | None:
        return statistics.median(self.durations) if self.durations else None
