"""Small statistics helpers: percentiles, means and CDFs.

Implemented without numpy on the hot path so they also work on raw Python
lists coming out of the simulator; numpy is available and used only where it
genuinely helps (none of these datasets are large enough to matter).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Sequence, Tuple


def percentile(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile of ``values`` using linear interpolation.

    Matches ``numpy.percentile(..., method="linear")``.  Raises ``ValueError``
    on an empty input, because silently returning 0 would corrupt the latency
    tables.
    """
    if not values:
        raise ValueError("cannot take a percentile of an empty sequence")
    if not 0.0 <= p <= 100.0:
        raise ValueError("percentile must be within [0, 100]")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (p / 100.0) * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return float(ordered[int(rank)])
    fraction = rank - low
    return float(ordered[low] * (1.0 - fraction) + ordered[high] * fraction)


def percentiles(values: Sequence[float], ps: Iterable[float] = (90, 95, 99)) -> Dict[float, float]:
    """Several percentiles at once (the paper reports 90p/95p/99p)."""
    return {p: percentile(values, p) for p in ps}


def mean(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("cannot take the mean of an empty sequence")
    return sum(values) / len(values)


def stdev(values: Sequence[float]) -> float:
    """Population standard deviation (the paper reports std dev of overheads)."""
    if not values:
        raise ValueError("cannot take the stdev of an empty sequence")
    m = mean(values)
    return math.sqrt(sum((v - m) ** 2 for v in values) / len(values))


def cdf_points(values: Sequence[float]) -> List[Tuple[float, float]]:
    """Empirical CDF as (value, cumulative probability) points.

    This is what the paper's latency CDF figures plot; benchmarks emit these
    series so they can be compared against Figures 5 and 7.
    """
    if not values:
        return []
    ordered = sorted(values)
    n = len(ordered)
    return [(v, (i + 1) / n) for i, v in enumerate(ordered)]
