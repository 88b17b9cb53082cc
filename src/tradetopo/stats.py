"""Pearson correlation and two-sample Kolmogorov-Smirnov testing with
exact permutation p-values at every sample size.

The p-value counts monotone lattice paths in O(n*m) time and O(m)
memory, in Python integers. Per tail, measured with CPython 3.11 on a
2-core x86-64 host: n = m = 300 in 0.03 s, n = m = 1,000 in 0.2-0.3 s
and n = m = 2,000 in 1.0-1.5 s with a 0.38 MB peak. A p-value below the
smallest positive double reads 0.0."""

from __future__ import annotations

import sys
from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import Degenerate, MissingYear

_TIE_EPS = 1e-12


@dataclass(frozen=True)
class KsResult:
    d_statistic: float
    p_value: float
    method: str  # always "exact-permutation"


def pearson(x, y) -> float:
    """Product-moment correlation of two equal-length sequences."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise Degenerate(f"lengths differ: {x.shape} vs {y.shape}")
    if x.size < 3:
        raise Degenerate(f"need at least 3 points, got {x.size}")
    # elementwise sums, not a BLAS dot, whose threads would make the last
    # bits depend on the thread count; an overflow is caught as an inf below
    with np.errstate(over="ignore"):
        dx = x - x.mean()
        dy = y - y.mean()
        ss_x = float((dx * dx).sum())
        ss_y = float((dy * dy).sum())
    if ss_x == 0.0 or ss_y == 0.0:
        raise Degenerate("zero variance input")
    if ss_x == np.inf or ss_y == np.inf:
        raise Degenerate("variance overflows a double")
    den = np.sqrt(ss_x * ss_y)
    if not sys.float_info.min <= ss_x * ss_y < np.inf:  # over- or underflow
        den = np.sqrt(ss_x) * np.sqrt(ss_y)
    return float((dx * dy).sum() / den)


def _observed_gaps(a, b):
    """Sizes n and m, the pooled-sample counts i + j at the end of each tie
    group, and the signed ECDF_a - ECDF_b gaps there."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size == 0 or b.size == 0:
        raise Degenerate("both samples must be nonempty")
    pooled = np.concatenate([a, b])
    order = np.argsort(pooled, kind="stable")
    ends = np.flatnonzero(np.append(np.diff(pooled[order]) != 0, True))
    gaps = np.cumsum(order < a.size) / a.size - np.cumsum(order >= a.size) / b.size
    return a.size, b.size, ends + 1, gaps[ends]


def _exact_p(n, m, ends, stat, two_sided):
    """Share of the comb(n + m, n) assignments of the pooled values to the
    first sample whose |gap| (or signed gap) reaches stat at some tie-group
    end: each assignment is a monotone lattice path to (n, m), so count the
    paths that avoid every such cell (Hodges 1957) in O(n*m)."""
    checked = set(ends.tolist())
    threshold = stat - _TIE_EPS
    row = [1] + [0] * m  # row[j]: paths to (i, j) that avoided the cells
    for i in range(n + 1):
        for j in range(m + 1):
            if j:
                row[j] += row[j - 1]
            if i + j in checked:
                gap = i / n - j / m
                if (abs(gap) if two_sided else gap) >= threshold:
                    row[j] = 0
    total = comb(n + m, n)
    return (total - row[m]) / total


def ks_two_sample(a, b) -> KsResult:
    """Two-sided KS test with the exact permutation p-value."""
    n, m, ends, gaps = _observed_gaps(a, b)
    d = float(np.max(np.abs(gaps)))
    p = _exact_p(n, m, ends, d, two_sided=True)
    return KsResult(d_statistic=d, p_value=p, method="exact-permutation")


def ks_one_sided_p(a, b) -> float:
    """Permutation p-value for D+ = sup(ECDF_a - ECDF_b), the one-sided
    alternative that a-values sit below b-values."""
    n, m, ends, gaps = _observed_gaps(a, b)
    return _exact_p(n, m, ends, float(np.max(gaps)), two_sided=False)


def recession_ccc_shift(series, windows):
    """Compare CCC the year before each recession starts with CCC the
    year after it ends.

    Returns before/after samples, the two-sided KS result and the
    one-sided permutation p for "before below after", i.e. CCC rising
    after recessions.
    """
    if not windows:
        raise Degenerate("no recession windows to test")
    by_year = {p.year: p.ccc for p in series}
    missing = [
        w for w in windows
        if w.start[0] - 1 not in by_year or w.end[0] + 1 not in by_year
    ]
    if missing:
        raise MissingYear(missing)
    before = [by_year[w.start[0] - 1] for w in windows]
    after = [by_year[w.end[0] + 1] for w in windows]
    return {
        "before": before,
        "after": after,
        "two_sided": ks_two_sample(before, after),
        "one_sided_p": ks_one_sided_p(before, after),
    }
