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

    The m active clusters occupy the top-left m x m block of dist, one
    slot each. A merge writes the new row into the lower of its two slots
    and frees the higher one by moving the last active slot into it, so
    one minimum pass is the only O(m^2) work per merge. Row and column a
    are written from one row and slot last moves as a row and column, so
    the block stays exactly symmetric. The update
    adds the same two products whichever slot holds which cluster, so
    the dendrogram does not depend on the slot layout.
    """
    n = d.n
    if n < 2:
        raise Degenerate(f"need at least 2 items, got {n}")
    # dist is indexed by active slot; ids map slots to node ids
    dist = d.as_square()
    np.fill_diagonal(dist, np.inf)
    ids = list(range(n))
    sizes = [1] * n
    merges = []
    for k in range(n - 1):
        last = n - k - 1
        block = dist[: last + 1, : last + 1]
        # block is symmetric, so its column minima are its row minima
        rowmin = np.minimum.reduce(block, axis=0)
        height = rowmin.min()
        # both ends of every pair at the global minimum reach it in their row
        rows = (rowmin == height).nonzero()[0]
        if rows.size == 2:  # one pair at the minimum: no tie to break
            a, b = rows.tolist()
            left, right = sorted((ids[a], ids[b]))
        else:
            hits, cols = (block[rows] == height).nonzero()
            ends, node = rows[hits], np.array(ids)
            lo = np.minimum(node[ends], node[cols])
            hi = np.maximum(node[ends], node[cols])
            # node ids are below 2n, so this key orders pairs as (lo, hi)
            t = int(np.argmin(lo * (2 * n) + hi))
            left, right = int(lo[t]), int(hi[t])
            a, b = sorted((int(ends[t]), int(cols[t])))
        height = float(height)
        new_size = sizes[a] + sizes[b]
        # unweighted average update into slot a
        row = (sizes[a] * block[a] + sizes[b] * block[b]) / new_size
        block[a], block[:, a] = row, row
        block[a, a] = np.inf
        # free slot b (a < b <= last): the last active slot moves into it
        block[b, :last] = block[last, :last]
        block[:last, b] = block[:last, last]
        block[b, b] = np.inf
        ids[a], sizes[a] = n + k, new_size
        ids[b], sizes[b] = ids[last], sizes[last]
        del ids[last], sizes[last]
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
