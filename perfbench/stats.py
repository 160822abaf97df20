"""Order statistics for the benchmark's timings.

A timing is reported as its median plus the highest percentile that
still has at least ``MIN_BEYOND`` samples beyond it, together with the
sample count, so a tail figure never rests on a handful of samples.
"""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence

#: Samples a reported tail percentile must leave beyond itself.
MIN_BEYOND = 10

#: The percentiles the benchmark may report, in increasing order.
PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``pct`` percent of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < pct <= 100.0:
        raise ValueError(f"percentile {pct} outside (0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered) - 1e-9))
    return float(ordered[rank - 1])


def beyond(n: int, pct: float) -> int:
    """Samples strictly beyond the nearest-rank ``pct`` percentile of
    ``n`` samples."""
    return n - max(1, math.ceil(pct / 100.0 * n - 1e-9))


def highest_percentile(n: int, min_beyond: int = MIN_BEYOND) -> Optional[float]:
    """The highest of :data:`PERCENTILES` with at least ``min_beyond``
    of ``n`` samples beyond it (``None`` when even the median has
    fewer)."""
    best = None
    for pct in PERCENTILES:
        if beyond(n, pct) >= min_beyond:
            best = pct
    return best


def samples_for(pct: float, min_beyond: int = MIN_BEYOND) -> int:
    """The fewest samples that leave ``min_beyond`` beyond ``pct``."""
    n = 1
    while beyond(n, pct) < min_beyond:
        n += 1
    return n
