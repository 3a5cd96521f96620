"""Order statistics used by every workload's report.

Percentiles follow one rule: a percentile is reported only when at
least :data:`MIN_BEYOND` samples lie beyond it, so a p99 needs 1000
samples.  :func:`tail` picks the highest percentile a sample supports.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence

MIN_BEYOND = 10
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0)

def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def supports(n: int, p: float) -> bool:
    """Whether ``n`` samples put at least MIN_BEYOND beyond the p-th
    percentile."""
    return math.floor(n * (100.0 - p) / 100.0 + 1e-9) >= MIN_BEYOND


def percentile_or_none(values: Sequence[float], p: float) -> Optional[float]:
    return percentile(values, p) if supports(len(values), p) else None


def tail(values: Sequence[float]) -> Optional[Dict[str, float]]:
    """``{"p": 99.0, "value": ...}`` for the highest supported tail
    percentile, or None when the sample is too small for any."""
    for p in TAIL_CANDIDATES:
        if supports(len(values), p):
            return {"p": p, "value": percentile(values, p)}
    return None


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def geomean(values: Sequence[float]) -> float:
    if not values or min(values) <= 0:
        raise ValueError("geomean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def ratio(num: float, den: float) -> float:
    """``num / den`` with 0 for an empty denominator (a layer no
    operation reached)."""
    return num / den if den else 0.0
