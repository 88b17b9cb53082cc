"""Average-linkage agglomerative clustering and dendrogram utilities.

Node ids: leaves are 0..n-1, the k-th merge creates node n+k. Merge
heights are nondecreasing (average linkage admits no inversions).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import Degenerate

NEWICK_METACHARS = set("(),:;")


class PairTables(NamedTuple):
    rows: np.ndarray
    cols: np.ndarray
    flat: np.ndarray
    index: np.ndarray


# one size cached: each stage works on one year's n at a time
@lru_cache(maxsize=1)
def pair_tables(n) -> PairTables:
    """The pairs i < j of an n x n matrix in condensed (row-major) order:
    their rows, their columns, their flat positions i*n + j, and the n x n
    table of the condensed position of pair {i, j}, whose diagonal points
    one past the last pair. Shared and read-only."""
    rows, cols = np.triu_indices(n, k=1)
    index = np.full((n, n), rows.size)
    index[rows, cols] = index[cols, rows] = np.arange(rows.size)
    tables = PairTables(rows, cols, rows * n + cols, index)
    for a in tables:
        a.flags.writeable = False
    return tables


@dataclass(frozen=True)
class CondensedDistances:
    """Upper triangle of a symmetric distance matrix, row-major over
    pairs (i, j) with i < j."""

    n: int
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        expected = self.n * (self.n - 1) // 2
        if values.shape != (expected,):
            raise Degenerate(
                f"expected {expected} condensed entries for n={self.n}, "
                f"got {values.shape}"
            )
        if not (values.min(initial=0.0) >= 0 and values.max(initial=0.0) < math.inf):
            raise ValueError("distances must be finite and nonnegative")


class Merge(NamedTuple):
    left: int
    right: int
    height: float
    size: int


@dataclass(frozen=True)
class Dendrogram:
    """n_leaves - 1 merges in merge order. Nothing checks them: a tree
    from average_linkage is well formed, and one built by hand is its
    caller's responsibility (each child an earlier node, used once)."""

    n_leaves: int
    merges: tuple[Merge, ...]


def distances_from_network(net) -> CondensedDistances:
    """d_ij = M* - M_ij with M* the maximum off-diagonal entry of this
    year's trade matrix; the closest pair sits at distance exactly 0."""
    n = net.n
    if n < 2:
        raise Degenerate(f"need at least 2 countries, got {n}")
    upper = net.m.ravel().take(pair_tables(n).flat)
    return CondensedDistances(n=n, values=np.subtract(upper.max(), upper, out=upper))


def average_linkage(d: CondensedDistances) -> Dendrogram:
    """UPGMA-style agglomeration with the unweighted Lance-Williams
    update; ties broken on the lexicographically smallest id pair.

    The distances live in a copy f of the condensed vector, with one
    spare inf entry at the end that the pair index gives for the diagonal.
    The active clusters occupy slots first..n-1, one each, so their pairs
    are exactly the suffix of f that starts at pair (first, first + 1),
    and one argmin over it finds the merge. A second argmin past that hit
    tells whether the minimum is tied; a tie scans every hit. The update
    gathers both clusters' rows through views of the pair index, scales
    them in place by the cluster sizes and adds them: the same two
    products whichever slot holds which cluster, so the tree does not
    depend on the slot layout. It goes into one slot, and the other is
    freed by moving slot first into it, after which first advances. The
    distances are scaled by the power of two that brings the largest
    below 1, and the heights are scaled back; that is exact unless a
    nonzero distance lies below max(d) * 2**-1022.
    """
    n = d.n
    if n < 2:
        raise Degenerate(f"need at least 2 items, got {n}")
    e = math.frexp(float(d.values.max()))[1]
    # adding 0.0 turns -0.0 into 0.0, so no zero height takes its sign
    # from whichever of two equal zeros a scan meets first
    f = np.append(d.values, np.inf)  # the one working copy
    np.add(np.ldexp(f, -e, out=f), 0.0, out=f)
    rows, cols, _, index = pair_tables(n)
    rows_of = list(index)  # row k: the pair positions of slot k, a view
    ids = list(range(n))  # node id of each slot
    sizes = [1.0] * n  # floats: the update multiplies float64 rows by them
    merges = []
    # distances below 1 keep every update below n: none overflows
    for first in range(n - 1):
        start = first * (2 * n - first - 1) // 2
        p = start + int(f[start:].argmin())
        height = f.item(p)
        # a tie lies past p (argmin finds the first minimum), then the spare
        if f.item(p + 1 + int(f[p + 1 :].argmin())) != height:
            a, b = rows.item(p), cols.item(p)
            left, right = (ids[a], ids[b]) if ids[a] < ids[b] else (ids[b], ids[a])
        else:
            hits = (f[start:] == height).nonzero()[0] + start
            ends, others, node = rows[hits], cols[hits], np.array(ids)
            lo = np.minimum(node[ends], node[others])
            hi = np.maximum(node[ends], node[others])
            # node ids are below 2n, so this key orders pairs as (lo, hi)
            t = int(np.argmin(lo * (2 * n) + hi))
            left, right = int(lo[t]), int(hi[t])
            a, b = int(ends[t]), int(others[t])
        new_size = sizes[a] + sizes[b]
        # row k - first: the merged cluster's distance to slot k
        ia, ib = rows_of[a][first:], rows_of[b][first:]
        # a product by a size of 1.0 would change no bit, so it is skipped
        row, other = f[ia], f[ib]
        if sizes[a] != 1.0:
            row *= sizes[a]
        if sizes[b] != 1.0:
            other *= sizes[b]
        row += other
        row /= new_size
        if a == first:  # the merged cluster keeps slot b, first is freed
            a, b, ia, ib = b, a, ib, ia
        f[ia] = row
        if b != first:
            f[ib] = f[rows_of[first][first:]]  # (first, b) swaps with the spare
            ids[b], sizes[b] = ids[first], sizes[first]
            f[-1] = np.inf  # the move wrote pair (first, b) there
        ids[a], sizes[a] = n + first, new_size
        merges.append((left, right, math.ldexp(height, e), int(new_size)))
    return Dendrogram(n_leaves=n, merges=tuple(map(Merge._make, merges)))


def cophenetic(dend: Dendrogram) -> CondensedDistances:
    """c_ij = height of the lowest merge whose cluster contains both
    leaves.

    In leaf order every cluster is one contiguous run of leaves, its
    first child's run before its second's. A top-down walk gives each
    child the start of its run, and each merge fills the block between
    its children's runs, above the diagonal, with its height. One gather
    at the pair's two leaf positions, smaller first, maps it back.
    """
    n = dend.n_leaves
    sizes = [1] * n + [m.size for m in dend.merges]
    start = [0] * (2 * n - 1)
    sq = np.empty((n, n))  # only the blocks above the diagonal are read
    for node, first, second in reversed(list(_merges_in_order(dend))):
        a = start[first] = start[node]
        b = start[second] = a + sizes[first]
        sq[a:b, b : b + sizes[second]] = dend.merges[node - n].height
    p, q = map(np.array(start[:n]).take, pair_tables(n)[:2])  # leaf positions
    index = np.minimum(p, q)
    index *= n
    index += np.maximum(p, q, out=p)
    return CondensedDistances(n=n, values=sq.ravel().take(index))


def _merges_in_order(dend: Dendrogram):
    """(node, first, second) for each merge in merge order, first being
    the child whose subtree holds the smaller leaf id. Every child comes
    before its parent, so the tree products build bottom-up in one loop."""
    mins = list(range(dend.n_leaves))
    for node, m in enumerate(dend.merges, start=dend.n_leaves):
        first, second = m.left, m.right
        if mins[second] < mins[first]:
            first, second = second, first
        mins.append(mins[first])
        yield node, first, second


def leaf_order(dend: Dendrogram) -> list[int]:
    """Left-to-right leaf sequence of the tree drawn with the child whose
    subtree holds the smallest leaf id first."""
    # order[node] is its subtree's sequence; a merge extends its first
    # child's list in place, which no later merge reads again
    order = [[leaf] for leaf in range(dend.n_leaves)]
    for _, first, second in _merges_in_order(dend):
        order[first] += order[second]
        order.append(order[first])
    return order[-1]


def to_newick(dend: Dendrogram, labels) -> str:
    """Rooted Newick string whose leaf-to-leaf path lengths reproduce
    cophenetic distances: every node sits at depth
    (root_height - node_height) / 2."""
    labels = list(labels)
    if len(labels) != dend.n_leaves:
        raise Degenerate(
            f"{len(labels)} labels for {dend.n_leaves} leaves"
        )
    for lab in labels:
        if NEWICK_METACHARS & set(lab):
            raise Degenerate(f"label {lab!r} contains Newick metacharacters")
    heights = [0.0] * dend.n_leaves + [m.height for m in dend.merges]
    text = list(labels)
    for node, first, second in _merges_in_order(dend):
        h = heights[node]
        text.append(
            f"({text[first]}:{(h - heights[first]) / 2.0:.12g},"
            f"{text[second]}:{(h - heights[second]) / 2.0:.12g})"
        )
    return text[-1] + ";"


def cut_at_count(dend: Dendrogram, k: int) -> list[int]:
    """Cluster assignment (1..k) from undoing the last k-1 merges;
    labels follow leaf_order of first appearance."""
    n = dend.n_leaves
    if not 1 <= k <= n:
        raise Degenerate(f"k must be in 1..{n}, got {k}")
    # top-down over the kept merges: each child joins its parent's cluster,
    # named by the highest kept node above it
    cluster = list(range(2 * n - 1))
    for node in range(2 * n - k - 1, n - 1, -1):
        m = dend.merges[node - n]
        cluster[m.left] = cluster[m.right] = cluster[node]
    labels = {}
    assignment = [0] * n
    for leaf in leaf_order(dend):
        assignment[leaf] = labels.setdefault(cluster[leaf], len(labels) + 1)
    return assignment
