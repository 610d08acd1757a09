"""Order statistics and span arithmetic for the benchmark (stdlib only)."""

from __future__ import annotations

import math
import statistics
from collections import defaultdict
from fractions import Fraction

# Percentiles the benchmark may report, highest first.
PERCENTILES = (99.9, 99.0, 90.0, 50.0)
MIN_BEYOND = 10


def _rank(count: int, p: float) -> int:
    # Exact: 99.9% of 10000 is rank 9990, not 9991 as float rounding gives.
    return max(1, math.ceil(Fraction(str(p)) * count / 100))


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least p% at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    return sorted(values)[_rank(len(values), p) - 1]


def samples_beyond(count: int, p: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank p-th percentile."""
    return count - _rank(count, p)


def highest_percentile(count: int) -> float | None:
    """The highest reportable percentile with at least ten samples beyond it."""
    for p in PERCENTILES:
        if samples_beyond(count, p) >= MIN_BEYOND:
            return p
    return None


def fastest(samples) -> dict:
    """{key: smallest value} over (key, value) pairs.

    The benchmark's latency of a cell is its fastest call in the run: the
    host's speed drifts by 10-20% over tens of seconds, which moves medians
    of a 30 s run but hardly moves the fastest of calls spread over it.
    """
    out: dict = {}
    for key, value in samples:
        if key not in out or value < out[key]:
            out[key] = value
    return out


def iqr_share(values) -> float:
    """Interquartile distance as a share of the median (0 for fewer than 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[str, tuple[int, float, float]]:
    """Aggregate spans into {name: (calls, total seconds, self seconds)}.

    ``spans`` is a sequence of (name, start, end, parent) with ``parent`` the
    index of the enclosing span or -1.  A span's self time is its duration
    minus the part of its interval that its child spans cover.
    """
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out: dict[str, tuple[int, float, float]] = {}
    for i, (name, start, end, _parent) in enumerate(spans):
        calls, total, own = out.get(name, (0, 0.0, 0.0))
        duration = end - start
        own_part = duration - _covered(children.get(i, ()), start, end)
        out[name] = (calls + 1, total + duration, own + own_part)
    return out
