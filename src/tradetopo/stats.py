"""Pearson correlation and two-sample Kolmogorov-Smirnov testing with
exact permutation p-values at every sample size.

The p-value counts monotone lattice paths in O(n*m) time and O(m)
memory, in Python integers. Per tail, measured with CPython 3.11 on a
2-core x86-64 host: n = m = 300 in 0.03 s, n = m = 1,000 in 0.2-0.3 s
and n = m = 2,000 in 1.0-1.5 s with a 0.38 MB peak. A p-value below the
smallest positive double reads 0.0."""

from __future__ import annotations

from math import comb, frexp

import numpy as np

from .errors import Degenerate

_TIE_EPS = 1e-12


def pearson(x, y) -> float:
    """Product-moment correlation of two equal-length sequences. Each is
    scaled by the power of two that brings its largest magnitude below
    1, which changes no bit of the result unless a nonzero value lies
    below that magnitude times 2**-1022."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise Degenerate(f"lengths differ: {x.shape} vs {y.shape}")
    if x.size < 3:
        raise Degenerate(f"need at least 3 points, got {x.size}")
    # ldexp makes fresh arrays, so centring in place never writes the inputs;
    # max(v.max(), -v.min()) is v's largest magnitude, or NaN. Elementwise sums,
    # not a BLAS dot, whose threads would make the last bits depend on the
    # thread count; values below 1 keep each sum of squares below 4n
    x = np.ldexp(x, -frexp(max(x.max(), -x.min()))[1])
    y = np.ldexp(y, -frexp(max(y.max(), -y.min()))[1])
    x -= x.mean()
    y -= y.mean()
    t = x * x
    ss_x = float(t.sum())
    ss_y = float(np.multiply(y, y, out=t).sum())
    if ss_x == 0.0 or ss_y == 0.0:
        raise Degenerate("zero variance input")
    # with its largest magnitude at least 1/2, an input that is not
    # constant strays at least 2**-56 from its mean: the product of the
    # sums cannot underflow
    return float(np.multiply(x, y, out=t).sum() / np.sqrt(ss_x * ss_y))


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


def ks_two_sample(a, b):
    """Two-sample KS test with exact permutation p-values. Returns the
    statistic D, its two-sided p and the one-sided p of D+ = sup(ECDF_a -
    ECDF_b), the alternative that a-values sit below b-values."""
    n, m, ends, gaps = _observed_gaps(a, b)
    d = float(np.max(np.abs(gaps)))
    return (d, _exact_p(n, m, ends, d, two_sided=True),
            _exact_p(n, m, ends, float(np.max(gaps)), two_sided=False))


def recession_ccc_shift(series, windows):
    """Compare CCC the year before each recession starts with CCC the
    year after it ends.

    Returns the record written as recessions_test.json: the two-sided KS
    statistic D, its p and method, the before/after samples, and the
    one-sided permutation p for "before below after", i.e. CCC rising
    after recessions.
    """
    if not windows:
        raise Degenerate("no recession windows to test")
    by_year = {p.year: p.ccc for p in series}
    missing = [
        w.label for w in windows
        if w.start[0] - 1 not in by_year or w.end[0] + 1 not in by_year
    ]
    if missing:
        raise Degenerate(f"CCC series does not cover window(s): {', '.join(missing)}")
    before = [by_year[w.start[0] - 1] for w in windows]
    after = [by_year[w.end[0] + 1] for w in windows]
    d, p, one_sided_p = ks_two_sample(before, after)
    return {"D": d, "p": p, "method": "exact-permutation",
            "before": before, "after": after, "one_sided_p": one_sided_p}
