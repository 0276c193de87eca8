"""Order statistics used by the benchmark's end-to-end metrics."""

from __future__ import annotations

import statistics

TAIL_BEYOND = 10


def median(values: list[float]) -> float:
    return statistics.median(values)


def tail(values: list[float], beyond: int = TAIL_BEYOND) -> tuple[float, float]:
    """The highest percentile that leaves at least *beyond* samples above it.

    With nearest-rank percentiles, the p-th percentile of n sorted
    samples is the sample at rank ceil(p * n / 100).  Leaving ``beyond``
    samples above it means rank n - beyond, so p = 100 * (n - beyond) / n.
    Returns ``(percentile, value)``.
    """
    n = len(values)
    if n <= beyond:
        raise ValueError(f"need more than {beyond} samples for a tail, got {n}")
    return 100.0 * (n - beyond) / n, sorted(values)[n - beyond - 1]


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
