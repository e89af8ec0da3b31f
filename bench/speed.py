"""Timings scaled to a nominal CPU speed, for machines whose speed drifts.

On a shared machine the same work can run half again as slow from one
second to the next, and the slow spells last from milliseconds to minutes,
so no length of run averages them away.  A ``Speedometer`` times a fixed
piece of interpreter work from a SIGALRM handler every ``interval`` seconds
while the measured code runs, so its samples cover the same wall-clock
time as that code.  ``nominal(start, end)`` scales a measured interval by
the mean sample time inside it: the result is how long the interval would
have taken at the nominal speed, at which one sample takes
``NOMINAL_SAMPLE_S``.
"""

from __future__ import annotations

import math
import signal
from bisect import bisect_left, bisect_right
from time import perf_counter

# One sample on a 2.0 GHz Intel Xeon vCPU, between its slow and fast spells.
NOMINAL_SAMPLE_S = 5e-4
_SAMPLE_ITERATIONS = 3000


def _sample_work() -> float:
    total = 0.0
    for i in range(_SAMPLE_ITERATIONS):
        total += math.sin(i * 1e-3)
    return total


class Speedometer:
    """Samples this process's speed while used as a context manager."""

    def __init__(self, interval: float):
        self.interval = interval
        self.times: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        _sample_work()
        self.times.append(start)
        self.durations.append(perf_counter() - start)

    def __enter__(self) -> "Speedometer":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def mean_sample(self, start: float = -math.inf, end: float = math.inf
                    ) -> float:
        """Mean sample time in [start, end]; over all samples if none fall
        inside."""
        window = self.durations[bisect_left(self.times, start):
                                bisect_right(self.times, end)]
        if not window:
            if not self.durations:
                self._sample(None, None)
            window = self.durations
        return sum(window) / len(window)

    def nominal(self, start: float, end: float) -> float:
        """Seconds that [start, end] would have taken at the nominal speed."""
        return (end - start) * NOMINAL_SAMPLE_S / self.mean_sample(start, end)
