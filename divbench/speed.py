"""Host-speed sampling, so timings survive a shared host's slow spells.

The shared 2-core host this benchmark was built on changes speed by up to
2x within a fraction of a second: a fixed loop timed back to back ranges
from 0.2 to 0.44 s, with CPU time equal to wall time, so no time is stolen
from the process; the CPU just runs slower.  Timing an operation between
two calibration loops therefore tracks the host badly once the operation
is longer than a few tenths of a second.

A Speedometer instead samples the host's speed during the operations: a
SIGALRM timer runs a short fixed loop every PERIOD_S seconds, in the main
thread, between the bytecodes of whatever runs there.  An operation's time
is then rescaled to a host on which that loop takes REFERENCE_S:

    seconds = (wall seconds - time spent in the sampler) * REFERENCE_S
              / median(loop time of the samples taken during the operation,
                       and of the one just before it)

The median, not the mean, because a sample that lands while the process is
descheduled (say, by `sweep --workers 2`'s own workers) can take ten times
as long as its neighbours.

Every reported time and rate is in these reference seconds.  The loop does
the kind of work divrel does (a pair-sum Counter and gcds in pure Python).
It is part of the benchmark and does not change between commits, so the
rescaling cancels when a parent and a child are compared.  Interval timers
are not inherited across fork, so pool workers are never sampled.

A set-up probe runs in a fresh interpreter, maybe on the other core, so it
times the loop itself, before importing divrel and after its result, and
the parent rescales the probe's wall time by the mean of those two.  This
module imports nothing slow, so the probe can import it first.
"""

from __future__ import annotations

import math
import signal
from bisect import bisect_left
from collections import Counter
from time import perf_counter

PERIOD_S = 0.05
REFERENCE_S = 0.0008
_VALUES = [(i * 7919) % 100003 + 1 for i in range(40)]


def median(xs: list[float]) -> float:
    s = sorted(xs)
    return (s[(len(s) - 1) // 2] + s[len(s) // 2]) / 2


def loop_s() -> float:
    """Seconds for one run of the fixed calibration loop."""
    t0 = perf_counter()
    sums: Counter = Counter()
    for a in _VALUES:
        for b in _VALUES:
            sums[a + b] += 1
    g = 0
    for a in _VALUES:
        for b in _VALUES[:15]:
            g += math.gcd(a, b)
    return perf_counter() - t0


class Speedometer:
    """Samples loop_s() every PERIOD_S seconds while started."""

    def __init__(self) -> None:
        self.starts: list[float] = []  # perf_counter() at each sample
        self.spent: list[float] = []  # seconds the sample took from the program
        self.loops: list[float] = []  # loop_s() of each sample

    def _tick(self, *_args) -> None:
        t0 = perf_counter()
        loop = loop_s()
        self.starts.append(t0)
        self.loops.append(loop)
        self.spent.append(perf_counter() - t0)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def reference_seconds(self, t0: float, t1: float) -> float:
        """The span [t0, t1] of perf_counter() in reference seconds."""
        first = bisect_left(self.starts, t0)
        last = bisect_left(self.starts, t1)
        spent = sum(self.spent[first:last])
        # The sample just before the operation covers its first moments.
        speeds = self.loops[max(first - 1, 0):last] or self.loops[-1:]
        return (t1 - t0 - spent) * REFERENCE_S / median(speeds)

    def summary_ms(self) -> dict[str, float]:
        return {
            "reference": 1000 * REFERENCE_S,
            "samples": len(self.loops),
            "median": 1000 * median(self.loops),
            "min": 1000 * min(self.loops),
            "max": 1000 * max(self.loops),
        }
