"""Host-speed probe: reports measured intervals at a pinned reference speed.

The benchmark's host shares its cores with other machines, and its speed
swings by up to about 40 %, on time scales from tens of milliseconds to
minutes.  The workloads here slow by about the same factor as a plain Python
loop, so the probe times a fixed loop every 10 ms, from a ``SIGALRM`` handler
in the main thread (the process stays single-threaded).  An interval is then reported as

    (wall time - probe time inside it) * NOMINAL_S * mean(1 / probe time)

with the mean taken over the probes that ran within ``WINDOW_S`` of the
interval: the seconds the same work takes on a host where the loop takes
``NOMINAL_S``.  Only benchmark code runs in the probe, so a change to the
program cannot move it.  Raw wall times are printed next to the scaled ones.
Intervals can be converted while the probe runs; the samples after an
interval's end then cover less than ``WINDOW_S``.
"""

from __future__ import annotations

import signal
from array import array
from bisect import bisect_left, bisect_right
from time import perf_counter

PERIOD_S = 0.01
LOOP = 1000
NOMINAL_S = 6e-5
WINDOW_S = 0.02


def _loop() -> int:
    total = 0
    for i in range(LOOP):
        total += i * i % 7
    return total


class HostSpeed:
    """Samples the probe between :meth:`start` and :meth:`stop`."""

    def __init__(self):
        self.starts = array("d")
        self.durations = array("d")
        self._spent = [0.0]
        self._inverse = [0.0]

    def _tick(self, signum, frame):
        started = perf_counter()
        _loop()
        self.starts.append(started)
        self.durations.append(perf_counter() - started)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _sums(self, count: int) -> None:
        """Extend the prefix sums over the first ``count`` samples."""
        for duration in self.durations[len(self._spent) - 1:count]:
            self._spent.append(self._spent[-1] + duration)
            self._inverse.append(self._inverse[-1] + 1.0 / duration)

    def raw(self, start: float, end: float) -> float:
        """Wall time of the interval minus the probe time spent inside it."""
        first = bisect_left(self.starts, start)
        last = bisect_left(self.starts, end)
        self._sums(last)
        return end - start - (self._spent[last] - self._spent[first])

    def scaled(self, start: float, end: float) -> float:
        """The interval's work time at the reference speed."""
        first = bisect_left(self.starts, start - WINDOW_S)
        last = bisect_right(self.starts, end + WINDOW_S)
        if last == first:
            first, last = 0, len(self.starts)
        if last == first:
            raise RuntimeError("the host-speed probe recorded no samples")
        self._sums(last)
        speed = (self._inverse[last] - self._inverse[first]) / (last - first)
        return self.raw(start, end) * NOMINAL_S * speed
