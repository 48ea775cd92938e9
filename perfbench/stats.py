"""Small statistics helpers shared by the benchmark modules."""

from __future__ import annotations

import math
import statistics
from typing import Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (numpy's default rule)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def supported(n: int, q: float) -> bool:
    """Whether at least ten samples of ``n`` lie beyond the ``q``-th
    percentile."""
    return n * (100.0 - q) / 100.0 >= 10.0


def median(values: Sequence[float]) -> float:
    return statistics.median(values)

