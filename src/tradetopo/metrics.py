"""Hierarchy and structure metrics for trade networks: cophenetic
correlation, trade-share matrices, trade/GDP ratio and total trade."""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import hclust, ingest, stats
from .errors import Degenerate, TradeTopoError

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class CccPoint:
    year: int
    ccc: float
    n_countries: int


@dataclass(frozen=True)
class ShareMatrix:
    countries: list[str]
    s: np.ndarray


def ccc(d: hclust.CondensedDistances, c: hclust.CondensedDistances) -> float:
    """Pearson correlation between original and cophenetic distances over
    the upper-triangle pairs.

    Pairs are sorted by (d, c) before summation so the result is
    bit-identical under any relabeling of the underlying items: one
    argsort of d, then one lexsort of the runs of equal d by c.
    """
    if d.n != c.n:
        raise Degenerate(f"distance sizes differ: {d.n} vs {c.n}")
    if d.n < 3:
        raise Degenerate(f"CCC needs at least 3 items, got {d.n}")
    order = d.values.argsort()
    dv = d.values[order]
    t = (dv[1:] == dv[:-1]).nonzero()[0]  # runs of equal d, each contiguous
    if t.size:
        tied = np.union1d(t, t + 1)
        order[tied] = order[tied[np.lexsort((c.values[order[tied]], dv[tied]))]]
    # in a tie run dv can differ from d.values[order] only in the sign of a
    # zero, which centring erases; gathers, not strided views, fix the last bits
    return stats.pearson(dv, c.values[order])


def ccc_of_network(net) -> CccPoint:
    """CCC of one year's trade network against its average-linkage tree."""
    d = hclust.distances_from_network(net)
    c = hclust.cophenetic(hclust.average_linkage(d))
    return CccPoint(year=net.year, ccc=ccc(d, c), n_countries=net.n)


def ccc_series(networks) -> list[CccPoint]:
    """One CccPoint per network; degenerate years are skipped with a
    warning instead of failing the whole series."""
    points = []
    for net in networks:
        try:
            points.append(ccc_of_network(net))
        except TradeTopoError as exc:
            log.warning("skipping year %d: %s", net.year, exc)
    return points


def share_matrix(net) -> ShareMatrix:
    """S_ij = M_ij / (sum_m M_im + sum_n M_jn); fully isolated pairs map
    to share 0."""
    totals = net.m.sum(axis=1)
    s = np.add.outer(totals, totals)  # the denominators, then the shares
    keep = s > 0
    np.divide(net.m, s, out=s, where=keep)
    np.copyto(s, 0.0, where=~keep)
    np.fill_diagonal(s, 0.0)
    return ShareMatrix(countries=list(net.countries), s=s)


def ordered_share_matrix(net, dend: hclust.Dendrogram) -> ShareMatrix:
    """share_matrix with rows/columns permuted into dendrogram leaf order."""
    if dend.n_leaves != net.n:
        raise Degenerate(
            f"dendrogram has {dend.n_leaves} leaves, network {net.n} countries"
        )
    base = share_matrix(net)
    order = hclust.leaf_order(dend)
    return ShareMatrix(
        countries=[base.countries[i] for i in order],
        s=base.s[np.ix_(order, order)],
    )


def total_trade(net) -> float:
    """Sum of the symmetrized matrix over unordered pairs."""
    return float(net.m.ravel().take(hclust.pair_tables(net.n).flat).sum())


def trade_gdp_ratio(net, gdp: dict) -> float:
    """Total world trade of the year divided by total world GDP over the
    network's countries, summed left to right in country order."""
    return total_trade(net) / sum(ingest.gdp_of(gdp, net.year, net.countries))
