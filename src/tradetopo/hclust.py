"""Average-linkage agglomerative clustering and dendrogram utilities.

Node ids: leaves are 0..n-1, the k-th merge creates node n+k. Merge
heights are nondecreasing (average linkage admits no inversions).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import Degenerate

NEWICK_METACHARS = set("(),:;")


@lru_cache(maxsize=16)
def upper_indices(n):
    """Row and column indices of the pairs i < j of an n x n matrix, in
    condensed (row-major) order; shared and read-only."""
    iu = np.triu_indices(n, k=1)
    for a in iu:
        a.flags.writeable = False
    return iu


@lru_cache(maxsize=16)
def pair_index(n):
    """n x n table of the condensed position of pair {s, k}; the diagonal
    points one past the last pair. Shared and read-only."""
    rows, cols = upper_indices(n)
    index = np.full((n, n), rows.size)
    index[rows, cols] = index[cols, rows] = np.arange(rows.size)
    index.flags.writeable = False
    return index


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
        if not np.all(np.isfinite(values)) or np.any(values < 0):
            raise ValueError("distances must be finite and nonnegative")

    def as_square(self) -> np.ndarray:
        rows, cols = upper_indices(self.n)
        sq = np.zeros((self.n, self.n))
        sq[rows, cols] = self.values
        sq[cols, rows] = self.values
        return sq


@dataclass(frozen=True)
class Merge:
    left: int
    right: int
    height: float
    size: int


@dataclass(frozen=True)
class Dendrogram:
    n_leaves: int
    merges: tuple[Merge, ...]

    def __post_init__(self):
        object.__setattr__(self, "merges", tuple(self.merges))
        n = self.n_leaves
        if len(self.merges) != n - 1:
            raise ValueError(f"expected {n - 1} merges, got {len(self.merges)}")
        used = set()
        for k, m in enumerate(self.merges):
            for child in (m.left, m.right):
                if not 0 <= child < n + k or child in used:
                    raise ValueError(f"bad child id {child} in merge {k}")
                used.add(child)
        if self.merges and self.merges[-1].size != n:
            raise ValueError("final merge must contain all leaves")


def distances_from_network(net) -> CondensedDistances:
    """d_ij = M* - M_ij with M* the maximum off-diagonal entry of this
    year's trade matrix; the closest pair sits at distance exactly 0."""
    n = net.n
    if n < 2:
        raise Degenerate(f"need at least 2 countries, got {n}")
    upper = net.m[upper_indices(n)]
    return CondensedDistances(n=n, values=upper.max() - upper)


def average_linkage(d: CondensedDistances) -> Dendrogram:
    """UPGMA-style agglomeration with the unweighted Lance-Williams
    update; ties broken on the lexicographically smallest id pair.

    The distances live in a copy f of the condensed vector, with one
    spare inf entry at the end that pair_index gives for the diagonal.
    The active clusters occupy slots first..n-1, one each, so their pairs
    are exactly the suffix of f that starts at pair (first, first + 1),
    and one argmin over it finds the merge. A second argmin past that hit
    tells whether the minimum is tied; a tie scans every hit. The update
    adds the same two products whichever slot holds which cluster, so the
    tree does not depend on the slot layout. It goes into one of the two
    slots, and the other is freed by moving slot first into it, after
    which first advances. An overflowed update leaves an inf that later
    updates keep, so the merge of its clusters raises Degenerate.
    """
    n = d.n
    if n < 2:
        raise Degenerate(f"need at least 2 items, got {n}")
    # adding 0.0 turns -0.0 into 0.0, so no zero height takes its sign
    # from whichever of two equal zeros a scan meets first
    f = np.append(d.values, np.inf)
    f += 0.0
    index = pair_index(n)
    rows, cols = upper_indices(n)
    ids = list(range(n))  # node id of each slot
    sizes = [1] * n
    merges = []
    # an overflow is caught as an inf height below
    with np.errstate(over="ignore"):
        for first in range(n - 1):
            start = first * (2 * n - first - 1) // 2
            live = f[start:]  # the live pairs, then the spare: rest is never empty
            p = int(live.argmin())
            height = float(live[p])
            if height == np.inf:
                raise Degenerate(f"average-linkage update overflowed by merge {first}")
            # argmin returns the first of equal minima: a tie lies past p
            rest = live[p + 1 :]
            if rest[rest.argmin()] != height:
                a, b = int(rows[start + p]), int(cols[start + p])
                left, right = min(ids[a], ids[b]), max(ids[a], ids[b])
            else:
                hits = (live == height).nonzero()[0] + start
                ends, others, node = rows[hits], cols[hits], np.array(ids)
                lo = np.minimum(node[ends], node[others])
                hi = np.maximum(node[ends], node[others])
                # node ids are below 2n, so this key orders pairs as (lo, hi)
                t = int(np.argmin(lo * (2 * n) + hi))
                left, right = int(lo[t]), int(hi[t])
                a, b = int(ends[t]), int(others[t])
            new_size = sizes[a] + sizes[b]
            # row k - first: the merged cluster's distance to slot k
            row = f[index[a, first:]]
            row *= sizes[a]
            row += f[index[b, first:]] * sizes[b]
            row /= new_size
            if a == first:  # the merged cluster keeps slot b, first is freed
                a, b = b, a
            f[index[a, first:]] = row
            if b != first:
                f[index[b, first + 1 :]] = f[index[first, first + 1 :]]
                ids[b], sizes[b] = ids[first], sizes[first]
                f[-1] = np.inf  # the move wrote pair (first, b) there
            ids[a], sizes[a] = n + first, new_size
            merges.append(Merge(left=left, right=right, height=height, size=new_size))
    return Dendrogram(n_leaves=n, merges=tuple(merges))


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
    sq = np.zeros((n, n))
    for node, first, second in reversed(list(_merges_in_order(dend))):
        a = start[first] = start[node]
        b = start[second] = a + sizes[first]
        sq[a:b, b : b + sizes[second]] = dend.merges[node - n].height
    pos = np.array(start[:n])  # a leaf's run starts at its position
    rows, cols = upper_indices(n)
    p, q = pos[rows], pos[cols]
    values = sq.ravel().take(np.minimum(p, q) * n + np.maximum(p, q))
    return CondensedDistances(n=n, values=values)


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
