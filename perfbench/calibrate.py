"""Host speed, from a fixed unit of pure-Python work timed between operations.

The shared host this benchmark was tuned on changes speed by a third or
more for minutes at a time, which moves every timing of a run together.
The benchmark times a fixed unit of work (``unit``) every ``EVERY_S``
seconds of the timed loop and before every set-up round.  The unit shares
no code with the package, so a change to the package never changes it.
A time measured at moment t is divided by the host's speed factor at t:
the median time of the ``NEAREST`` units closest to t, over ``REF_UNIT_S``.
Normalised times therefore read as times on the reference host speed.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter

# Time of one unit on the machine the benchmark was tuned on (a shared
# 2-vCPU VM, Python 3.11.7), in its usual, slower phase.  It only sets the
# scale: on a host twice as fast every factor halves.
REF_UNIT_S = 0.0055
EVERY_S = 0.5
NEAREST = 10
FAMILY = 2584  # the unit's answer, checked on every call


def unit() -> float:
    """Seconds taken by the fixed unit of work.

    The unit builds the independent sets of a 16-vertex path as frozensets
    and hashes each again; object allocation and hashing dominate it, as
    they dominate the operations.  Five kinds of unit were timed beside
    the operations while the host changed speed.  This one's time changed
    by 1.39x when the operations' changed by 1.33x (reductions) and 1.44x
    (trees).  BFS with ball counts, BFS on a large tree, sorting distance
    rows and an exhaustive multipacking search all changed by 1.6-1.7x,
    and so over-corrected.
    """
    t0 = perf_counter()
    family = [frozenset()]
    for v in range(16):
        family += [f | {v} for f in family if v - 1 not in f]
    distinct = {frozenset(sorted(f)) for f in family}
    if len(distinct) != FAMILY:
        raise AssertionError("the calibration unit's answer changed")
    return perf_counter() - t0


class Speed:
    """Unit times sampled over a run, and the speed factor at any moment."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.took: list[float] = []

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            self.at.append(perf_counter())
            self.took.append(unit())

    def factor(self, t: float) -> float:
        """Unit time near ``t`` over the reference unit time (> 1: slow host)."""
        i = bisect.bisect_left(self.at, t)
        lo = max(0, min(i - NEAREST // 2, len(self.at) - NEAREST))
        return statistics.median(self.took[lo:lo + NEAREST]) / REF_UNIT_S
