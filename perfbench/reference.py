"""How fast the host ran around each operation, from a fixed reference loop.

On a shared host the speed a process gets moves by a fifth or more from
minute to minute, and by half for seconds at a time, with the neighbours'
load.  A run therefore times a fixed piece of pure-Python integer work,
which calls nothing in dioph, between its operations.  Each timing is
scaled by REFERENCE_MS over the fastest reference sample taken within
WINDOW_S of it: it reads as if it had run at the speed the reference loop
had on the VM the benchmark was tuned on.  The fastest sample, like the
fastest round of an operation, is the one the neighbours disturbed least.
An operation that runs only once, for many seconds, is scaled by the mean
of the samples taken while it ran instead: it could not avoid the
disturbances, and its time, like that mean, adds them all up.  A change to dioph moves the timings and leaves the
reference alone, so scaled timings compare commits across host speeds.
"""

from __future__ import annotations

import bisect
import math
from time import perf_counter

from checks import residue_sets
from pool import _unit_x

# The reference loop's fastest time on a 2-core 2.0 GHz Xeon VM (Python 3.11).
REFERENCE_MS = 0.22
# A sample is taken once at least this much time has passed since the last.
SAMPLE_GAP_S = 0.05
# A timing is scaled by the samples from this long before it to this long after.
WINDOW_S = 1.0

_NON_SQUARES = [D for D in range(2, 200) if math.isqrt(D) ** 2 != D][:120]


def reference_loop() -> int:
    """The reference work: Pell units by continued fractions (big integers)
    and residue sets (small-integer loops and sets)."""
    x = sum(_unit_x(D) % 7 for D in _NON_SQUARES)
    return x + len(residue_sets((7, 14, 41), 2, 64)[7]) + len(residue_sets((2, 6, 14), -3, 128)[6])


class HostSpeed:
    def __init__(self) -> None:
        self.at: list[float] = []  # when each sample ended
        self.samples_ms: list[float] = []

    def sample(self, times: int = 1) -> None:
        for _ in range(times):
            start = perf_counter()
            reference_loop()
            end = perf_counter()
            self.at.append(end)
            self.samples_ms.append((end - start) * 1e3)

    def sample_if_due(self) -> None:
        if not self.at or perf_counter() - self.at[-1] >= SAMPLE_GAP_S:
            self.sample()

    def scale(self, start: float, end: float, statistic=min) -> float:
        """Factor that turns a timing over [start, end] into one at the
        reference speed, from the fastest (or another statistic of the)
        samples within WINDOW_S of it, or the nearest sample if none is."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        if lo == hi:
            lo = min(range(max(lo - 1, 0), min(lo + 1, len(self.at))),
                     key=lambda i: abs(self.at[i] - start))
            hi = lo + 1
        return REFERENCE_MS / statistic(self.samples_ms[lo:hi])
