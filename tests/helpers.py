"""Independent oracles used by the test suite.

Everything here is deliberately written against the definitions, not
against the library code paths it checks.
"""

import itertools
import math

import numpy as np

from tradetopo import stats


def trade_csv(rows):
    """Trade CSV text of (year, reporter, partner, value) rows; floats are
    written with repr so that they parse back exactly."""
    lines = ["year,reporter,partner,value_usd"]
    lines += [f"{y},{r},{p},{v!r}" for y, r, p, v in rows]
    return "\n".join(lines) + "\n"


def format_trade_csv(panel):
    """Canonical serialization of a parsed trade panel, which
    parse_trade_csv reads back to the same columns."""
    return trade_csv(zip(panel.year.tolist(), panel.reporter.tolist(),
                         panel.partner.tolist(), panel.value.tolist()))


def brute_directed_flows(rows, year):
    """(countries, matrix) of one year from (year, reporter, partner, value)
    rows with normalized codes: duplicate pairs are summed into a dict in
    row order, countries are every code of that year, sorted."""
    flows = {}
    for y, reporter, partner, value in rows:
        if y == year:
            flows[(reporter, partner)] = flows.get((reporter, partner), 0.0) + value
    countries = sorted({c for pair in flows for c in pair})
    index = {c: i for i, c in enumerate(countries)}
    x = np.zeros((len(countries), len(countries)))
    for (reporter, partner), value in flows.items():
        x[index[reporter], index[partner]] = value
    return countries, x


def string_directed_flows(panel, year):
    """ingest.directed_flows with the countries factorized by np.unique on
    the code strings themselves."""
    rows = panel.year == year
    k = int(np.count_nonzero(rows))
    countries, index = np.unique(
        np.concatenate([panel.reporter[rows], panel.partner[rows]]),
        return_inverse=True,
    )
    x = np.zeros((len(countries), len(countries)))
    np.add.at(x, (index[:k], index[k:]), panel.value[rows])
    return countries.tolist(), x


def pearson_direct(x, y):
    """Direct evaluation of the product-moment formula."""
    x = list(map(float, x))
    y = list(map(float, y))
    mx = sum(x) / len(x)
    my = sum(y) / len(y)
    num = sum((a - mx) * (b - my) for a, b in zip(x, y))
    den = math.sqrt(
        sum((a - mx) ** 2 for a in x) * sum((b - my) ** 2 for b in y)
    )
    return num / den


def condensed_to_square(n, values):
    sq = np.zeros((n, n))
    it = iter(values)
    for i in range(n):
        for j in range(i + 1, n):
            sq[i, j] = sq[j, i] = next(it)
    return sq


def brute_average_linkage_heights(n, condensed):
    """Hand-rolled agglomeration keeping explicit member lists; the
    inter-cluster distance is recomputed from scratch as the mean over
    all cross pairs rather than via the incremental update."""
    sq = condensed_to_square(n, condensed)
    clusters = [[i] for i in range(n)]
    heights = []
    while len(clusters) > 1:
        best = None
        for a, b in itertools.combinations(range(len(clusters)), 2):
            d = np.mean([sq[i, j] for i in clusters[a] for j in clusters[b]])
            if best is None or d < best[0]:
                best = (d, a, b)
        d, a, b = best
        heights.append(d)
        merged = clusters[a] + clusters[b]
        clusters = [c for k, c in enumerate(clusters) if k not in (a, b)]
        clusters.append(merged)
    return heights


def delete_average_linkage(n, condensed):
    """Average linkage on a matrix that shrinks by two np.delete copies
    per merge, with the library's tie rule (smallest sorted node-id pair)
    and its update arithmetic, so its merges must match bit for bit.
    Returns (left, right, height, size) per merge."""
    dist = condensed_to_square(n, condensed)
    np.fill_diagonal(dist, np.inf)
    ids = list(range(n))
    sizes = [1] * n
    merges = []
    for k in range(n - 1):
        height = dist.min()
        best = None
        for a, b in zip(*np.where(dist == height)):
            if a >= b:
                continue
            i, j = ids[a], ids[b]
            if i > j:
                i, j = j, i
            if best is None or (i, j) < best[0]:
                best = ((i, j), a, b)
        (left, right), a, b = best
        new_size = sizes[a] + sizes[b]
        row = (sizes[a] * dist[a] + sizes[b] * dist[b]) / new_size
        dist[a], dist[:, a] = row, row
        dist[a, a] = np.inf
        dist = np.delete(np.delete(dist, b, axis=0), b, axis=1)
        ids[a] = n + k
        sizes[a] = new_size
        del ids[b], sizes[b]
        merges.append((left, right, float(height), new_size))
    return merges


def ix_share_matrix(m, order):
    """S_ij = M_ij / (sum_k M_ik + sum_k M_jk), 0 on the diagonal and for
    two countries with no trade, permuted into order with np.ix_."""
    totals = m.sum(axis=1)
    s = np.zeros_like(m)
    for i, j in itertools.product(range(len(m)), repeat=2):
        if i != j and totals[i] + totals[j] > 0:
            s[i, j] = m[i, j] / (totals[i] + totals[j])
    return s[np.ix_(order, order)]


def where_share_matrix(m):
    """S_ij = M_ij / (sum_k M_ik + sum_k M_jk) wherever that denominator
    is positive, else 0, with a zero diagonal, through np.divide(where=)."""
    totals = m.sum(axis=1)
    denom = totals[:, None] + totals[None, :]
    s = np.divide(m, denom, out=np.zeros_like(denom), where=denom > 0)
    np.fill_diagonal(s, 0.0)
    return s


def brute_cophenetic(n, merges):
    """Condensed cophenetic distances from the definition: c_ij is the
    height of the first merge, in merge order, that joins a cluster
    holding i to one holding j. merges are (left, right, height) with
    leaves 0..n-1 and the k-th merge creating node n + k."""
    members = {i: [i] for i in range(n)}
    sq = np.zeros((n, n))
    for k, (left, right, height) in enumerate(merges):
        for i in members[left]:
            for j in members[right]:
                sq[i, j] = sq[j, i] = height
        members[n + k] = members.pop(left) + members.pop(right)
    return sq[np.triu_indices(n, k=1)]


def lexsort_ccc(d, c):
    """CCC of condensed values d and c with the pairs put in
    np.lexsort((c, d)) order before stats.pearson: the order that the
    library's argsort of d with a lexsort of its tie runs must reproduce
    bit for bit."""
    d = np.asarray(d, dtype=float)
    c = np.asarray(c, dtype=float)
    order = np.lexsort((c, d))
    return stats.pearson(d[order], c[order])


def random_ultrametric(rng, n):
    """Condensed ultrametric distances from a random binary tree with
    strictly increasing merge heights."""
    members = [[i] for i in range(n)]
    sq = np.zeros((n, n))
    height = 0.0
    while len(members) > 1:
        height += rng.uniform(0.5, 2.0)
        a, b = sorted(rng.choice(len(members), size=2, replace=False))
        for i in members[a]:
            for j in members[b]:
                sq[i, j] = sq[j, i] = height
        merged = members[a] + members[b]
        members = [m for k, m in enumerate(members) if k not in (a, b)]
        members.append(merged)
    return sq[np.triu_indices(n, k=1)]


def _min_leaf(dend):
    mins = list(range(dend.n_leaves))
    for m in dend.merges:
        mins.append(min(mins[m.left], mins[m.right]))
    return mins


def _ordered_children(dend, node, mins):
    m = dend.merges[node - dend.n_leaves]
    if mins[m.left] <= mins[m.right]:
        return m.left, m.right
    return m.right, m.left


def stack_leaf_order(dend):
    """Leaf order by a top-down traversal with an explicit stack, the
    child whose subtree holds the smallest leaf id visited first."""
    if dend.n_leaves == 1:
        return [0]
    mins = _min_leaf(dend)
    order = []
    stack = [2 * dend.n_leaves - 2]
    while stack:
        node = stack.pop()
        if node < dend.n_leaves:
            order.append(node)
        else:
            first, second = _ordered_children(dend, node, mins)
            stack.append(second)
            stack.append(first)
    return order


def recursive_newick(dend, labels):
    """Newick string rendered top-down by recursion, each branch
    (parent_height - height) / 2 with 12 significant digits. Recursion
    depth is the tree height, so keep it to shallow trees."""
    n = dend.n_leaves
    mins = _min_leaf(dend)

    def height(node):
        return 0.0 if node < n else dend.merges[node - n].height

    def render(node, parent_height):
        if node < n:
            body = labels[node]
        else:
            first, second = _ordered_children(dend, node, mins)
            h = height(node)
            body = f"({render(first, h)},{render(second, h)})"
        if parent_height is None:
            return body
        return f"{body}:{(parent_height - height(node)) / 2.0:.12g}"

    return render(2 * n - 2, None) + ";"


def union_find_cut(dend, k):
    """Cut into k clusters by joining the first n - k merges in a
    union-find, numbered by first appearance in stack_leaf_order."""
    n = dend.n_leaves
    parent = list(range(2 * n - 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for idx, m in enumerate(dend.merges[: n - k]):
        parent[find(m.left)] = n + idx
        parent[find(m.right)] = n + idx
    labels = {}
    assignment = [0] * n
    for leaf in stack_leaf_order(dend):
        root = find(leaf)
        if root not in labels:
            labels[root] = len(labels) + 1
        assignment[leaf] = labels[root]
    return assignment


def parse_newick(text):
    """Tiny Newick reader; returns (children, branch_length, label)
    nested tuples for path-length checks."""
    pos = 0

    def node():
        nonlocal pos
        children = []
        if text[pos] == "(":
            pos += 1
            children.append(node())
            while text[pos] == ",":
                pos += 1
                children.append(node())
            assert text[pos] == ")"
            pos += 1
        start = pos
        while text[pos] not in "(),:;":
            pos += 1
        label = text[start:pos]
        branch = 0.0
        if text[pos] == ":":
            pos += 1
            start = pos
            while text[pos] not in "(),:;":
                pos += 1
            branch = float(text[start:pos])
        return (children, branch, label)

    tree = node()
    assert text[pos] == ";"
    return tree


def newick_leaf_depths(tree):
    """Map leaf label -> total branch length from the root."""
    depths = {}

    def walk(node, acc):
        children, branch, label = node
        acc = acc + branch
        if not children:
            depths[label] = acc
        for ch in children:
            walk(ch, acc)

    walk(tree, 0.0)
    return depths


def newick_path_lengths(text, labels):
    """Leaf-to-leaf path lengths implied by a Newick string."""
    tree = parse_newick(text)
    depths = newick_leaf_depths(tree)

    def leaves(node):
        children, _, label = node
        if not children:
            return {label}
        return set().union(*(leaves(c) for c in children))

    def lca_depth(node, acc, a, b):
        children, branch, _ = node
        acc = acc + branch
        for ch in children:
            under = leaves(ch)
            if a in under and b in under:
                return lca_depth(ch, acc, a, b)
        return acc

    paths = {}
    for a, b in itertools.combinations(labels, 2):
        d = lca_depth(tree, 0.0, a, b)
        paths[(a, b)] = depths[a] + depths[b] - 2 * d
    return paths


def ks_d_direct(a, b):
    """sup over thresholds of |ECDF_a - ECDF_b|, via explicit ECDFs."""
    a, b = sorted(a), sorted(b)
    best = 0.0
    for t in a + b:
        fa = sum(v <= t for v in a) / len(a)
        fb = sum(v <= t for v in b) / len(b)
        best = max(best, abs(fa - fb))
    return best


def ks_d_plus_direct(a, b):
    a, b = sorted(a), sorted(b)
    best = 0.0
    for t in a + b:
        fa = sum(v <= t for v in a) / len(a)
        fb = sum(v <= t for v in b) / len(b)
        best = max(best, fa - fb)
    return best


def ks_exact_p_enumeration(a, b, one_sided=False):
    """Permutation p-value by explicit enumeration of every assignment
    of pooled values to the first sample."""
    pooled = list(a) + list(b)
    n = len(a)
    stat = ks_d_plus_direct(a, b) if one_sided else ks_d_direct(a, b)
    count = 0
    total = 0
    for picks in itertools.combinations(range(len(pooled)), n):
        sa = [pooled[i] for i in picks]
        sb = [pooled[i] for i in range(len(pooled)) if i not in picks]
        s = ks_d_plus_direct(sa, sb) if one_sided else ks_d_direct(sa, sb)
        count += s >= stat - 1e-12
        total += 1
    return count / total


def two_country_shock_oracle(y_u, y_w, x, p, s, tol=1e-10):
    """Scalar recurrence for the symmetric two-country system: each
    country's growth factor responds to the other's previous growth
    factor. Returns (epicenter series, partner series)."""
    del x  # exports telescope to GDP ratios for this symmetric system
    us = [y_u, y_u * (1 - s)]
    ws = [y_w, y_w]
    while True:
        ru = us[-1] / us[-2]
        rw = ws[-1] / ws[-2]
        us.append(us[-1] * (1 + p * (rw - 1)))
        ws.append(ws[-1] * (1 + p * (ru - 1)))
        if (abs(us[-1] - us[-2]) / us[-2] < tol
                and abs(ws[-1] - ws[-2]) / ws[-2] < tol):
            return us, ws



def reference_shock_trace(x, y_prev, y, p, tol=1e-10, max_steps=100_000):
    """The shock iteration as first written, kept as a bit-for-bit oracle:
    each step sums the rows of X(t-1) again, rather than carrying them
    from the step before, and goes through the np.all/np.max wrappers.

    Starts from X(t-1) = x, Y(t-1) = y_prev and Y(t) = y, with the
    library's update rule, domain checks and stopping rule. Returns
    (ys, x_last, outcome): Y(t+1) of every step that passed its checks,
    the X(t) of the last of them, and "converged", "no convergence" or
    "degenerate" (step len(ys) + 1 then failed its checks)."""
    ys = []
    for _ in range(max_steps):
        x_t = x * (y / y_prev)[None, :]
        ex_prev = x.sum(axis=1)
        ex_t = x_t.sum(axis=1)
        ratio = np.divide(ex_t, ex_prev, out=np.ones_like(ex_t),
                          where=ex_prev > 0)
        y_next = y * (1.0 + p * (ratio - 1.0))
        if not (np.all(np.isfinite(y_next)) and np.all(y_next > 0)
                and np.all(np.isfinite(x_t))):
            return ys, x, "degenerate"
        ys.append(y_next)
        delta = float(np.max(np.abs(y_next - y) / y))
        x, y_prev, y = x_t, y, y_next
        if delta < tol:
            return ys, x, "converged"
    return ys, x, "no convergence"
