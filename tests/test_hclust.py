import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.cluster import hierarchy as scipy_hier
from scipy.spatial import distance as scipy_distance

import helpers
from tradetopo import errors, hclust
from tradetopo.ingest import TradeNetwork


def cd(values):
    values = np.asarray(values, dtype=float)
    n = int(round((1 + np.sqrt(1 + 8 * len(values))) / 2))
    return hclust.CondensedDistances(n=n, values=values)


def net_from_upper(entries):
    n = int(round((1 + np.sqrt(1 + 8 * len(entries))) / 2))
    m = helpers.condensed_to_square(n, entries)
    return TradeNetwork(2000, [f"C{i:02d}" for i in range(n)], m)


random_condensed = st.integers(0, 10_000).map(
    lambda seed: np.random.default_rng(seed)
).flatmap(
    lambda rng: st.just(
        cd(rng.uniform(0, 10, size=(n := rng.integers(2, 15)) * (n - 1) // 2))
    )
)


def condensed_from(values):
    """Condensed inputs with n in 2..40 whose entries values(rng, count)
    draws from a hypothesis-chosen seed."""
    return st.tuples(st.integers(2, 40), st.integers(0, 2**32 - 1)).map(
        lambda ns: cd(values(np.random.default_rng(ns[1]), ns[0] * (ns[0] - 1) // 2))
    )


def tie_levels(rng, count):
    return rng.integers(0, 4, count).astype(float)


def continuous(rng, count):
    return rng.uniform(0, 10, count)


# average-linkage trees, n 2..40, from continuous and tie-heavy levels
random_dendrograms = st.one_of(
    condensed_from(tie_levels), condensed_from(continuous)
).map(hclust.average_linkage)


def binary_levels(rng, count):
    return rng.integers(0, 2, count).astype(float)


def gravity_chain(n, levels=None):
    """Distances M* - M_ij of a gravity-style M = g_i g_j * noise with
    widely spread masses g, as in the benchmark's trade networks: the
    heaviest cluster absorbs the other leaves one at a time. With levels,
    the distances are floored to that many integer levels."""
    rng = np.random.default_rng(n)
    g = rng.lognormal(0.0, 1.5, n)
    rows, cols = hclust.upper_indices(n)
    m = g[rows] * g[cols] * rng.lognormal(0.0, 0.3, rows.size)
    d = m.max() - m
    return cd(d if levels is None else np.floor(d / d.max() * levels))


def pinned_dendrogram(n, values):
    return hclust.average_linkage(
        cd(values(np.random.default_rng(n), n * (n - 1) // 2))
    )


def assert_same_bits(got, expected):
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


def heights(dend):
    return np.array([m.height for m in dend.merges])


def assert_same_tree(got, expected):
    """Merge == reads -0.0 as 0.0, so the heights are compared as bits too."""
    assert got == expected
    assert_same_bits(heights(got), heights(expected))


def scipy_cophenet(dend):
    """scipy's cophenet on the same merges as a linkage matrix."""
    z = np.array([(m.left, m.right, m.height, m.size) for m in dend.merges])
    return scipy_hier.cophenet(z)


def caterpillar(n):
    """Dendrogram of depth n - 1: the leaves join one at a time, in a
    shuffled order, onto a single growing cluster."""
    leaves = np.random.default_rng(0).permutation(n).tolist()
    merges = [hclust.Merge(leaves[0], leaves[1], 1.0, 2)]
    for k in range(2, n):
        merges.append(hclust.Merge(n + k - 2, leaves[k], float(k), k + 1))
    return hclust.Dendrogram(n, merges)


def delete_oracle(d):
    merges = helpers.delete_average_linkage(d.n, d.values)
    return hclust.Dendrogram(d.n, tuple(hclust.Merge(*m) for m in merges))


class TestCondensedDistances:
    def test_length_checked(self):
        with pytest.raises(errors.Degenerate, match="expected 6 condensed entries"):
            hclust.CondensedDistances(n=4, values=np.zeros(5))

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(condensed_from(tie_levels), condensed_from(continuous)))
    def test_as_square_equals_scipy(self, d):
        assert_same_bits(d.as_square(), scipy_distance.squareform(d.values))

    @pytest.mark.parametrize("n", [1, 2, 150, 200])
    def test_as_square_equals_scipy_pinned(self, n):
        d = cd(continuous(np.random.default_rng(n), n * (n - 1) // 2))
        assert_same_bits(d.as_square(), scipy_distance.squareform(d.values))

    def test_square_round_trip(self):
        d = cd([1.0, 4.0, 5.0])
        sq = d.as_square()
        assert np.array_equal(sq, sq.T)
        assert sq[0, 2] == 4.0


class TestDistancesFromNetwork:
    def test_formula(self):
        d = hclust.distances_from_network(net_from_upper([5.0, 2.0, 1.0]))
        assert np.array_equal(d.values, [0.0, 3.0, 4.0])

    def test_all_equal_trade(self):
        d = hclust.distances_from_network(net_from_upper([3.0, 3.0, 3.0]))
        assert np.array_equal(d.values, [0.0, 0.0, 0.0])

    def test_two_countries(self):
        d = hclust.distances_from_network(net_from_upper([7.0]))
        assert np.array_equal(d.values, [0.0])

    def test_too_few(self):
        net = TradeNetwork(2000, ["AAA"], np.zeros((1, 1)))
        with pytest.raises(errors.Degenerate, match="need at least 2 countries"):
            hclust.distances_from_network(net)

    def test_minimum_is_zero(self):
        rng = np.random.default_rng(3)
        net = net_from_upper(rng.uniform(1, 9, size=45))
        assert hclust.distances_from_network(net).values.min() == 0.0


class TestAverageLinkage:
    def test_three_item_fixture(self):
        dend = hclust.average_linkage(cd([1.0, 4.0, 5.0]))
        assert [(m.left, m.right, m.height) for m in dend.merges] == [
            (0, 1, 1.0),
            (2, 3, 4.5),
        ]
        assert [m.size for m in dend.merges] == [2, 3]

    def test_pair(self):
        dend = hclust.average_linkage(cd([7.0]))
        assert dend.merges == (hclust.Merge(0, 1, 7.0, 2),)

    def test_equilateral_ties(self):
        dend = hclust.average_linkage(cd([2.0, 2.0, 2.0]))
        assert [m.height for m in dend.merges] == [2.0, 2.0]
        # deterministic tie-break: (0,1) first
        assert (dend.merges[0].left, dend.merges[0].right) == (0, 1)

    def test_too_few(self):
        with pytest.raises(errors.Degenerate, match="need at least 2 items"):
            hclust.average_linkage(hclust.CondensedDistances(1, np.zeros(0)))

    def test_overflowed_update_degenerate(self):
        # the merge of two pairs adds 2 * 8.5e307 to 2 * 8.5e307, past the
        # largest double; the inf reaches the minimum, where the tie scan
        # would join a cluster with itself
        d = cd([0.0] + [8.5e307] * 14)
        with np.errstate(over="ignore"), pytest.raises(
                errors.Degenerate, match="average-linkage update overflowed"):
            hclust.average_linkage(d)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(condensed_from(tie_levels), condensed_from(continuous)))
    def test_matches_delete_oracle(self, d):
        assert_same_tree(hclust.average_linkage(d), delete_oracle(d))

    @pytest.mark.parametrize("n", [150, 200])
    @pytest.mark.parametrize("values", [tie_levels, continuous])
    def test_matches_delete_oracle_pinned(self, n, values):
        d = cd(values(np.random.default_rng(n), n * (n - 1) // 2))
        assert_same_tree(hclust.average_linkage(d), delete_oracle(d))

    @pytest.mark.parametrize("n", [150, 200])
    def test_matches_delete_oracle_gravity_chain(self, n):
        d = gravity_chain(n)
        dend = hclust.average_linkage(d)
        assert_same_tree(dend, delete_oracle(d))
        leaf_joins = sum((m.left < n) != (m.right < n) for m in dend.merges)
        assert leaf_joins >= 0.9 * (n - 1)

    def test_matches_delete_oracle_integer_gravity_chain(self):
        # 1,000 integer levels: 86 of the 199 merges pick among tied
        # pairs, all of them after a merge has moved slot first into a
        # freed slot, so the slot order of the pairs is not their node-id
        # order
        n = 200
        d = gravity_chain(n, levels=1000)
        dend = hclust.average_linkage(d)
        assert_same_tree(dend, delete_oracle(d))
        leaf_joins = sum((m.left < n) != (m.right < n) for m in dend.merges)
        assert leaf_joins >= 0.9 * (n - 1)

    @settings(max_examples=200, deadline=None)
    @given(condensed_from(binary_levels))
    def test_matches_delete_oracle_binary(self, d):
        assert_same_tree(hclust.average_linkage(d), delete_oracle(d))

    @settings(max_examples=200, deadline=None)
    @given(condensed_from(tie_levels))
    def test_negative_zero_reads_as_zero(self, d):
        # the zeros at even positions of a tie-heavy input as -0.0
        signed = np.where((d.values == 0) & (np.arange(d.values.size) % 2 == 0),
                          -0.0, d.values)
        dend = hclust.average_linkage(cd(signed))
        assert_same_bits(heights(dend), heights(hclust.average_linkage(d)))
        newick = hclust.to_newick(dend, [f"L{i}" for i in range(d.n)])
        assert not any(b.startswith("-") for b in re.findall(r":([^,();]+)", newick))

    def test_negative_zero_pinned(self):
        dend = hclust.average_linkage(cd([0.0, -0.0, 1.0]))
        assert_same_bits(heights(dend), np.array([0.0, 0.5]))
        assert hclust.to_newick(dend, "abc") == "((a:0,b:0):0.25,c:0.25);"

    @settings(max_examples=150, deadline=None)
    @given(random_condensed)
    def test_heights_match_brute_force(self, d):
        dend = hclust.average_linkage(d)
        expected = helpers.brute_average_linkage_heights(d.n, d.values)
        assert [m.height for m in dend.merges] == pytest.approx(
            expected, rel=1e-9, abs=1e-12
        )

    @settings(max_examples=150, deadline=None)
    @given(random_condensed)
    def test_heights_nondecreasing(self, d):
        heights = [m.height for m in hclust.average_linkage(d).merges]
        assert all(a <= b + 1e-12 for a, b in zip(heights, heights[1:]))

    @settings(max_examples=100, deadline=None)
    @given(random_condensed)
    def test_matches_scipy_heights(self, d):
        dend = hclust.average_linkage(d)
        z = scipy_hier.linkage(d.values, method="average")
        assert [m.height for m in dend.merges] == pytest.approx(
            list(z[:, 2]), rel=1e-9, abs=1e-12
        )


class TestCophenetic:
    def test_three_item_fixture(self):
        dend = hclust.average_linkage(cd([1.0, 4.0, 5.0]))
        c = hclust.cophenetic(dend)
        assert np.array_equal(c.values, [1.0, 4.5, 4.5])

    def test_pair(self):
        c = hclust.cophenetic(hclust.average_linkage(cd([7.0])))
        assert np.array_equal(c.values, [7.0])

    def test_ultrametric_reconstruction(self):
        d = cd([2.0, 8.0, 8.0])
        c = hclust.cophenetic(hclust.average_linkage(d))
        assert np.array_equal(c.values, d.values)

    @settings(max_examples=100, deadline=None)
    @given(random_condensed)
    def test_matches_scipy(self, d):
        c = hclust.cophenetic(hclust.average_linkage(d))
        z = scipy_hier.linkage(d.values, method="average")
        assert c.values == pytest.approx(
            scipy_hier.cophenet(z), rel=1e-9, abs=1e-12
        )

    @settings(max_examples=300, deadline=None)
    @given(random_dendrograms)
    def test_equals_scipy_cophenet(self, dend):
        assert_same_bits(hclust.cophenetic(dend).values, scipy_cophenet(dend))

    @pytest.mark.parametrize("n", [150, 200])
    @pytest.mark.parametrize("values", [tie_levels, continuous])
    def test_equals_scipy_cophenet_pinned(self, n, values):
        dend = pinned_dendrogram(n, values)
        assert_same_bits(hclust.cophenetic(dend).values, scipy_cophenet(dend))

    def test_equals_scipy_cophenet_pair(self):
        dend = hclust.average_linkage(cd([7.0]))
        assert_same_bits(hclust.cophenetic(dend).values, scipy_cophenet(dend))

    def test_deep_tree_equals_scipy_cophenet(self):
        dend = caterpillar(300)
        assert_same_bits(hclust.cophenetic(dend).values, scipy_cophenet(dend))

    @settings(max_examples=150, deadline=None)
    @given(random_condensed)
    def test_matches_members_brute_force(self, d):
        dend = hclust.average_linkage(d)
        expected = helpers.brute_cophenetic(
            d.n, [(m.left, m.right, m.height) for m in dend.merges]
        )
        assert np.array_equal(hclust.cophenetic(dend).values, expected)

    @settings(max_examples=150, deadline=None)
    @given(random_condensed)
    def test_ultrametric_triples(self, d):
        c = hclust.cophenetic(hclust.average_linkage(d)).as_square()
        n = c.shape[0]
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert c[i, k] <= max(c[i, j], c[j, k]) * (1 + 1e-12) + 1e-12

    @settings(max_examples=60, deadline=None)
    @given(random_condensed, st.integers(0, 2**32 - 1))
    def test_permutation_equivariance(self, d, seed):
        rng = np.random.default_rng(seed)
        perm = rng.permutation(d.n)
        sq = d.as_square()[np.ix_(perm, perm)]
        dp = cd(sq[np.triu_indices(d.n, k=1)])
        c = hclust.cophenetic(hclust.average_linkage(d)).as_square()
        cp = hclust.cophenetic(hclust.average_linkage(dp)).as_square()
        assert np.array_equal(cp, c[np.ix_(perm, perm)])


class TestLeafOrder:
    def test_three_item_fixture(self):
        dend = hclust.average_linkage(cd([1.0, 4.0, 5.0]))
        assert hclust.leaf_order(dend) == [0, 1, 2]

    def test_pair(self):
        assert hclust.leaf_order(hclust.average_linkage(cd([7.0]))) == [0, 1]

    def test_hand_built_dendrogram(self):
        dend = hclust.Dendrogram(
            n_leaves=3,
            merges=(hclust.Merge(0, 1, 1.0, 2), hclust.Merge(3, 2, 4.5, 3)),
        )
        assert hclust.leaf_order(dend) == [0, 1, 2]

    @settings(max_examples=100, deadline=None)
    @given(random_condensed)
    def test_is_permutation(self, d):
        order = hclust.leaf_order(hclust.average_linkage(d))
        assert sorted(order) == list(range(d.n))

    @settings(max_examples=200, deadline=None)
    @given(random_dendrograms)
    def test_matches_stack_oracle(self, dend):
        assert hclust.leaf_order(dend) == helpers.stack_leaf_order(dend)

    @pytest.mark.parametrize("n", [150, 200])
    @pytest.mark.parametrize("values", [tie_levels, continuous])
    def test_matches_stack_oracle_pinned(self, n, values):
        dend = pinned_dendrogram(n, values)
        assert hclust.leaf_order(dend) == helpers.stack_leaf_order(dend)

    def test_single_leaf(self):
        assert hclust.leaf_order(hclust.Dendrogram(1, ())) == [0]


class TestNewick:
    def test_three_item_fixture(self):
        dend = hclust.average_linkage(cd([1.0, 4.0, 5.0]))
        assert hclust.to_newick(dend, ["A", "B", "C"]) == (
            "((A:0.5,B:0.5):1.75,C:2.25);"
        )

    def test_pair(self):
        dend = hclust.average_linkage(cd([7.0]))
        assert hclust.to_newick(dend, ["A", "B"]) == "(A:3.5,B:3.5);"

    def test_bad_label(self):
        dend = hclust.average_linkage(cd([7.0]))
        with pytest.raises(errors.Degenerate, match="Newick metacharacters"):
            hclust.to_newick(dend, ["A,B", "C"])

    def test_label_count_checked(self):
        dend = hclust.average_linkage(cd([7.0]))
        with pytest.raises(errors.Degenerate, match="1 labels for 2 leaves"):
            hclust.to_newick(dend, ["A"])

    @settings(max_examples=60, deadline=None)
    @given(random_condensed)
    def test_path_lengths_equal_cophenetic(self, d):
        dend = hclust.average_linkage(d)
        labels = [f"L{i}" for i in range(d.n)]
        text = hclust.to_newick(dend, labels)
        paths = helpers.newick_path_lengths(text, labels)
        c = hclust.cophenetic(dend).as_square()
        for i in range(d.n):
            for j in range(i + 1, d.n):
                assert paths[(labels[i], labels[j])] == pytest.approx(
                    c[i, j], rel=1e-9, abs=1e-9
                )

    @settings(max_examples=200, deadline=None)
    @given(random_dendrograms)
    def test_matches_recursive_oracle(self, dend):
        labels = [f"L{i}" for i in range(dend.n_leaves)]
        assert hclust.to_newick(dend, labels) == helpers.recursive_newick(
            dend, labels
        )

    @pytest.mark.parametrize("n", [150, 200])
    @pytest.mark.parametrize("values", [tie_levels, continuous])
    def test_matches_recursive_oracle_pinned(self, n, values):
        dend = pinned_dendrogram(n, values)
        labels = [f"L{i}" for i in range(n)]
        assert hclust.to_newick(dend, labels) == helpers.recursive_newick(
            dend, labels
        )

    def test_single_leaf(self):
        assert hclust.to_newick(hclust.Dendrogram(1, ()), ["A"]) == "A;"


class TestCutAtCount:
    def test_three_item_fixture(self):
        dend = hclust.average_linkage(cd([1.0, 4.0, 5.0]))
        assert hclust.cut_at_count(dend, 2) == [1, 1, 2]

    def test_k_one(self):
        dend = hclust.average_linkage(cd([1.0, 4.0, 5.0]))
        assert hclust.cut_at_count(dend, 1) == [1, 1, 1]

    def test_k_n(self):
        dend = hclust.average_linkage(cd([1.0, 4.0, 5.0]))
        assert sorted(hclust.cut_at_count(dend, 3)) == [1, 2, 3]

    @pytest.mark.parametrize("k", [0, 4])
    def test_bad_k(self, k):
        dend = hclust.average_linkage(cd([1.0, 4.0, 5.0]))
        with pytest.raises(errors.Degenerate, match="k must be in 1"):
            hclust.cut_at_count(dend, k)

    @settings(max_examples=50, deadline=None)
    @given(random_condensed, st.integers(1, 14))
    def test_cluster_count(self, d, k):
        if k > d.n:
            return
        assignment = hclust.cut_at_count(hclust.average_linkage(d), k)
        assert sorted(set(assignment)) == list(range(1, k + 1))

    @settings(max_examples=100, deadline=None)
    @given(random_dendrograms)
    def test_matches_union_find_oracle(self, dend):
        for k in range(1, dend.n_leaves + 1):
            assert hclust.cut_at_count(dend, k) == helpers.union_find_cut(dend, k)

    @pytest.mark.parametrize("n", [150, 200])
    @pytest.mark.parametrize("values", [tie_levels, continuous])
    def test_matches_union_find_oracle_pinned(self, n, values):
        dend = pinned_dendrogram(n, values)
        for k in (1, 2, 6, n // 2, n - 1, n):
            assert hclust.cut_at_count(dend, k) == helpers.union_find_cut(dend, k)

    def test_single_leaf(self):
        assert hclust.cut_at_count(hclust.Dendrogram(1, ()), 1) == [1]


class TestDeepTree:
    """A 1,200-leaf caterpillar is deeper than Python's recursion limit;
    helpers.recursive_newick and helpers.parse_newick are kept away from
    it."""

    N = 1200

    def test_leaf_order(self):
        dend = caterpillar(self.N)
        assert hclust.leaf_order(dend) == helpers.stack_leaf_order(dend)

    def test_newick(self):
        dend = caterpillar(self.N)
        labels = [f"L{i}" for i in range(self.N)]
        text = hclust.to_newick(dend, labels)
        assert text.count("(") == text.count(")") == self.N - 1
        assert re.findall(r"L\d+", text) == [
            labels[leaf] for leaf in hclust.leaf_order(dend)
        ]

    def test_cut(self):
        dend = caterpillar(self.N)
        assignment = hclust.cut_at_count(dend, 6)
        assert assignment == helpers.union_find_cut(dend, 6)
        assert sorted(set(assignment)) == [1, 2, 3, 4, 5, 6]
