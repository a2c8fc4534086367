"""Summaries that repeat on a box whose speed changes within seconds.

Every timing is cut into fine blocks (tens of milliseconds to a few
hundred) and the reported value is the *undisturbed decile* of the
per-block values: the first decile where lower is better, the ninth where
higher is.  A slow block measures the neighbours on the host; a change to
the program moves every block, so it moves the decile too.  Quartiles of
one-second blocks were tried first and did not repeat: on the reference
box more than a quarter of a run can be disturbed (see the README).
"""

from __future__ import annotations

import statistics
from typing import Iterable, Sequence

__all__ = [
    "percentile",
    "undisturbed",
    "tail_percentile",
    "sliding_windows",
    "spread_share",
    "disturbed_share",
]


def percentile(values: Iterable[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def undisturbed(values: Sequence[float], better: str) -> float:
    """First decile of ``values`` when lower is better, ninth when higher
    is: the level the program reaches when the host leaves it alone,
    without trusting a single best block."""
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    if not values:
        raise ValueError("no blocks to summarise")
    return percentile(values, 10.0 if better == "lower" else 90.0)


def tail_percentile(samples: int) -> float:
    """The highest of p50/p90/p99/p99.9 with at least ten samples beyond
    it (p50 is the floor)."""
    for q, beyond_per_thousand in ((99.9, 1), (99.0, 10), (90.0, 100)):
        if samples * beyond_per_thousand // 1000 >= 10:
            return q
    return 50.0


def sliding_windows(values: Sequence[float], size: int, stride: int) -> list:
    """Overlapping windows of ``size`` consecutive values, ``stride``
    apart (one short window when there are fewer values than ``size``)."""
    if len(values) <= size:
        return [list(values)] if values else []
    return [
        list(values[start : start + size])
        for start in range(0, len(values) - size + 1, stride)
    ]


def spread_share(values: Sequence[float]) -> float:
    """Interquartile distance over the median (0 for under two values)."""
    if len(values) < 2:
        return 0.0
    first, median, third = statistics.quantiles(values, n=4)
    return (third - first) / median if median else 0.0


def disturbed_share(values: Sequence[float], better: str, tolerance: float = 0.10) -> float:
    """Share of blocks worse than the undisturbed decile by more than
    ``tolerance``: how much of the run the neighbours took."""
    level = undisturbed(values, better)
    if better == "lower":
        worse = sum(1 for value in values if value > level * (1 + tolerance))
    else:
        worse = sum(1 for value in values if value < level * (1 - tolerance))
    return worse / len(values)
