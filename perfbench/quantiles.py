"""Exact quantiles from per-request samples.

Every percentile is read off the sorted samples themselves (nearest
rank), never off histogram buckets, and carries its sample count.  A
percentile is *supported* only when at least ten samples lie beyond it,
so p99 needs 1000 samples and p50 needs 20.
"""

from __future__ import annotations

import math

MIN_BEYOND = 10


def supported(q: float, n: int) -> bool:
    return n * (1.0 - q) >= MIN_BEYOND


def quantile(values, q: float) -> float:
    """Nearest-rank quantile of ``values`` (0.0 for an empty sample)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return float(ordered[max(0, math.ceil(q * len(ordered)) - 1)])


def summary(values, q: float) -> tuple[float, int, bool]:
    """``(value, n, supported)`` for one percentile of ``values``."""
    values = list(values)
    return quantile(values, q), len(values), supported(q, len(values))
