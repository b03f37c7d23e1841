"""Host-speed correction: a fixed task, independent of the program, timed
every few tenths of a second while a pass runs.

The benchmark runs on a few cores of a shared host whose speed for the same
Python code swings by up to a factor of two, in phases from a fraction of a
second to minutes.  Raw wall times of two runs of the same code therefore
differ by more than any bound a regression check could use.  So a pass samples
the host's speed: an interval timer interrupts the program every SAMPLE_S
seconds and a signal handler times TASK, a fixed mix of exact fractions over
big integers, set and dict traffic and small-integer loops like the
program's.  Between two samples the program is taken to run at the mean of
their speeds, and every interval the benchmark reports is converted to the
time it would take on a host where the task takes REFERENCE_MS.  The time
spent in the samples themselves is left out of every interval.

The task runs with the cyclic garbage collector paused, so its time does not
depend on how many objects the program keeps alive, and it holds little
memory, so a pass's peak RSS does not depend on when a sample falls.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

REFERENCE_MS = 10.0  # the task's time on the host the figures are scaled to
SAMPLE_S = 0.2


def task() -> int:
    acc = Fraction(0)
    for i in range(1, 600):
        acc += Fraction(3 ** (i % 89) + i, i * i + 1)
    seen = set()
    for i in range(40000):
        seen.add(i * 7919 % 1009)
    counts: dict[int, int] = {}
    for i in range(40000):
        counts[i % 313] = counts.get(i % 313, 0) + i
    return acc.numerator % 1000003 + len(seen) + counts[7]


def timed_task() -> tuple[float, float]:
    """(start, duration) of one run of the task, in perf_counter seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        task()
        return start, time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scale(seconds: float, task_s: float) -> float:
    """`seconds` measured while the task took `task_s`, at reference speed."""
    return seconds * REFERENCE_MS / (task_s * 1000.0)


def median_task_s() -> float:
    """The task's time now: the median of three runs, in seconds."""
    return statistics.median(timed_task()[1] for _ in range(3))


class HostSpeed:
    """Samples the task while started; converts intervals afterwards."""

    def __init__(self, interval_s: float = SAMPLE_S):
        self.interval_s = interval_s
        self.samples: list[tuple[float, float]] = []  # (start, duration)
        self.sampled_s = 0.0
        self._previous = None

    def _sample(self, *_):
        start, duration = timed_task()
        self.samples.append((start, duration))
        self.sampled_s += duration

    def start(self) -> None:
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self._sample()

    def program_clock(self) -> float:
        """perf_counter with the time spent in samples taken out."""
        return time.perf_counter() - self.sampled_s

    def segments(self) -> list[tuple[float, float, float]]:
        """(start, end, task seconds) for the stretches between samples."""
        out = []
        for (s0, d0), (s1, d1) in zip(self.samples, self.samples[1:]):
            out.append((s0 + d0, s1, (d0 + d1) / 2))
        return out

    def corrected(self, start: float, end: float) -> float:
        """Seconds at reference speed that the program ran between the
        perf_counter readings start and end, samples left out.  Both ends
        must lie between the first and the last sample."""
        return sum(scale(t, task_s) for t, task_s in self._overlaps(start, end))

    def raw(self, start: float, end: float) -> float:
        """Seconds the program ran between start and end, samples left out."""
        return sum(t for t, _ in self._overlaps(start, end))

    def _overlaps(self, start: float, end: float):
        for s, e, task_s in self.segments():
            overlap = min(end, e) - max(start, s)
            if overlap > 0:
                yield overlap, task_s

    def median_task_ms(self) -> float:
        return statistics.median(d for _, d in self.samples) * 1000.0
