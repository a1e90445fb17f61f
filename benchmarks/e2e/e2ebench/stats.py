"""Exact order statistics, fastest-round summaries and the compare verdict.

Nothing here knows about the program under test; the functions take plain
lists of numbers so the self-tests can pin them on synthetic data.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Optional, Sequence, Tuple


def percentile(samples: Sequence[float], p: float) -> float:
    """Exact ``p``-th percentile (0..100), linear between closest ranks."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = (len(ordered) - 1) * p / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def highest_supported_percentile(count: int, beyond: int = 10) -> Optional[float]:
    """The highest of p50/p90/p99/p99.9 with at least ``beyond`` samples above it."""
    # Tolerance: 10000 * (100 - 99.9) / 100 is 9.999... in binary floating point.
    supported = [
        p for p in (50.0, 90.0, 99.0, 99.9) if count * (100.0 - p) / 100.0 >= beyond - 1e-6
    ]
    return supported[-1] if supported else None


def fastest(rows: Sequence[Sequence[float]]) -> List[float]:
    """``rows[r][u]`` is what unit ``u`` of work cost in round ``r``, the
    rounds doing identical work; returns each unit's cost in the round that
    did it fastest.

    The sandbox is a few cores of a shared host whose speed drops for
    seconds at a time, so one timing of a unit mostly says whether a slow
    spell covered it.  Rounds are several seconds apart, and a slow spell
    rarely covers the same unit in all of them.
    """
    if not rows or any(len(row) != len(rows[0]) for row in rows):
        raise ValueError("rounds must hold the same units")
    return [min(column) for column in zip(*rows)]


def quiet_percentile(
    rounds: Sequence[Sequence[Sequence[float]]], p: float, pick: float = 25.0
) -> float:
    """``rounds[r][u]`` holds the samples (latencies) of time slice ``u`` in
    round ``r``.  Every slice's ``p``-th percentile is taken at the round
    where it is lowest (see :func:`fastest`); returns the ``pick``-th
    percentile of those over the slices.

    The default ``pick`` is the lower quartile.  A replica stalls for
    100-200 ms every second or two, and a whole window's tail percentile
    mostly counts how many stalls fell into it: with a tenth of the requests
    behind a stall, p90 flips between 20 ms and 200 ms from run to run.
    The better quartile of the slices is the latency between stalls; the
    stalls themselves are a per-layer metric (``latency.p99_ms``).
    A round with no sample in a slice is not a candidate for it.
    """
    best = [
        min(percentile(samples, p) for samples in column if samples)
        for column in zip(*rounds)
        if any(column)
    ]
    if not best:
        raise ValueError("no samples in any slice")
    return percentile(best, pick)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (0 for one value)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def verdict(
    base: Sequence[float], new: Sequence[float], better: str, bound: float
) -> Dict[str, float | str]:
    """Compare two sets of runs of one (metric, workload) pair.

    ``unresolved`` when either set's own spread exceeds the bound: the
    metric cannot tell a change of that size from its noise.
    """
    base_med, new_med = statistics.median(base), statistics.median(new)
    change = (new_med - base_med) / base_med if base_med else 0.0
    worse = change if better == "lower" else -change
    noise = max(spread(base), spread(new))
    if noise > bound:
        result = "unresolved"
    elif worse > bound:
        result = "regressed"
    elif -worse > max(bound, noise):
        result = "improved"
    else:
        result = "unchanged"
    return {
        "base_median": base_med,
        "new_median": new_med,
        "change": change,
        "spread": noise,
        "verdict": result,
    }
