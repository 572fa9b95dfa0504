"""Summary statistics of the benchmark: medians, the tail rule, failure share.

Kept free of numpy so the rules can be tested without the package under test.
"""

from __future__ import annotations

import statistics

# Percentiles the tail may be reported at, in tenths of a percent.
TAIL_CANDIDATES_TENTHS = (500, 750, 900, 950, 990, 999)
MIN_BEYOND = 10


def percentile(values, pct: float) -> float:
    """Linear-interpolation percentile (numpy's default rule)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    pos = (len(ordered) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(n: int) -> float | None:
    """Highest candidate percentile with at least ten samples beyond it.

    With n samples, n * (1 - p) of them lie beyond the p-th percentile; the
    rule picks the largest candidate p for which that is at least ten.
    Returns None when n < 20, where no percentile at or above the median
    has ten samples beyond it.
    """
    best = None
    for tenths in TAIL_CANDIDATES_TENTHS:
        if n * (1000 - tenths) >= MIN_BEYOND * 1000:
            best = tenths / 10.0
    return best


def tail(values) -> tuple[float, float]:
    """(percentile, value) of the tail; the maximum when the sample is too
    small for the rule, reported as the 100th percentile."""
    pct = tail_percentile(len(values))
    if pct is None:
        return 100.0, max(values)
    return pct, percentile(values, pct)


def fail_frac(units) -> tuple[int, int, float]:
    """(attempted, failed, failed / attempted) over unit results with ``ok``."""
    attempted = len(units)
    failed = sum(1 for u in units if not u.ok)
    return attempted, failed, (failed / attempted if attempted else 0.0)


def median(values) -> float:
    return float(statistics.median(values))
