"""Order statistics used by the benchmark report."""

from __future__ import annotations

import statistics
from typing import Sequence

MIN_BEYOND = 10  # a percentile is reported only with this many samples above it


def rank(n: int, pct: int) -> int:
    """1-based nearest-rank index of the ``pct``-th percentile of ``n`` samples."""
    if n < 1 or not 0 < pct <= 100:
        raise ValueError(f"no {pct}th percentile of {n} samples")
    return -(-pct * n // 100)


def percentile(values: Sequence[float], pct: int) -> float:
    """Nearest-rank percentile: the smallest sample with ``pct`` % at or below it."""
    return sorted(values)[rank(len(values), pct) - 1]


def samples_beyond(n: int, pct: int) -> int:
    """How many of ``n`` samples lie strictly above the ``pct``-th percentile's rank."""
    return n - rank(n, pct)


def reportable(n: int, pct: int) -> bool:
    """True when the percentile has at least ``MIN_BEYOND`` samples beyond it."""
    return samples_beyond(n, pct) >= MIN_BEYOND


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
