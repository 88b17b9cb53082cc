import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import helpers
from tradetopo import errors, hclust, metrics
from tradetopo.ingest import TradeNetwork


def cd(values):
    values = np.asarray(values, dtype=float)
    n = int(round((1 + np.sqrt(1 + 8 * len(values))) / 2))
    return hclust.CondensedDistances(n=n, values=values)


def net_from_upper(entries, year=2000):
    n = int(round((1 + np.sqrt(1 + 8 * len(entries))) / 2))
    m = helpers.condensed_to_square(n, entries)
    return TradeNetwork(year, [f"C{i:02d}" for i in range(n)], m)


def random_net(seed, n=None, year=2000):
    rng = np.random.default_rng(seed)
    n = n or int(rng.integers(3, 15))
    return net_from_upper(rng.uniform(1, 100, size=n * (n - 1) // 2), year)


class TestCcc:
    def test_fixture(self):
        value = metrics.ccc(cd([1.0, 4.0, 5.0]), cd([1.0, 4.5, 4.5]))
        assert value == pytest.approx(7 / math.sqrt(52), abs=1e-12)
        # independent oracle: direct Pearson evaluation
        assert value == pytest.approx(
            helpers.pearson_direct([1, 4, 5], [1, 4.5, 4.5]), abs=1e-12
        )

    def test_self_correlation_is_one(self):
        d = cd([2.0, 8.0, 8.0])
        assert metrics.ccc(d, d) == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_variance(self):
        with pytest.raises(errors.Degenerate, match="zero variance input"):
            metrics.ccc(cd([3.0, 3.0, 3.0]), cd([1.0, 2.0, 3.0]))

    def test_size_mismatch(self):
        with pytest.raises(errors.Degenerate, match="distance sizes differ"):
            metrics.ccc(cd([1.0]), cd([1.0, 2.0, 3.0]))

    def test_too_few(self):
        with pytest.raises(errors.Degenerate, match="CCC needs at least 3 items"):
            metrics.ccc(cd([1.0]), cd([2.0]))

    def test_range(self):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(3, 12))
            pairs = n * (n - 1) // 2
            v = metrics.ccc(
                cd(rng.uniform(0, 10, pairs)), cd(rng.uniform(0, 10, pairs))
            )
            assert -1 <= v <= 1


def tie_heavy_pairs(draw_c):
    """(d, c) condensed pairs, n 3..60, d on the integer levels 0..3 and c
    either the cophenetic distances of d's tree or levels of its own."""
    def build(args):
        n, seed, tree = args
        rng = np.random.default_rng(seed)
        d = cd(rng.integers(0, 4, n * (n - 1) // 2).astype(float))
        if tree:
            return d, hclust.cophenetic(hclust.average_linkage(d))
        return d, cd(draw_c(rng, d.values.size))
    return st.tuples(
        st.integers(3, 60), st.integers(0, 2**32 - 1), st.booleans()
    ).map(build)


class TestCccOrder:
    """metrics.ccc argsorts d and lexsorts only the runs of equal d; the
    full np.lexsort((c, d)) order is the oracle, and the result must be
    == to it."""

    @settings(max_examples=300, deadline=None)
    @given(tie_heavy_pairs(lambda rng, k: rng.integers(0, 4, k).astype(float)))
    def test_matches_lexsort_oracle_tie_heavy(self, pair):
        d, c = pair
        assume(np.ptp(d.values) > 0 and np.ptp(c.values) > 0)
        assert metrics.ccc(d, c) == helpers.lexsort_ccc(d.values, c.values)

    @settings(max_examples=100, deadline=None)
    @given(tie_heavy_pairs(lambda rng, k: rng.uniform(0, 10, k)))
    def test_matches_lexsort_oracle_mixed(self, pair):
        d, c = pair
        assume(np.ptp(d.values) > 0 and np.ptp(c.values) > 0)
        assert metrics.ccc(d, c) == helpers.lexsort_ccc(d.values, c.values)

    @pytest.mark.parametrize("n", [150, 200])
    @pytest.mark.parametrize("ties", [True, False])
    def test_matches_lexsort_oracle_pinned(self, n, ties):
        rng = np.random.default_rng(n)
        count = n * (n - 1) // 2
        d = cd(rng.integers(0, 4, count).astype(float) if ties
               else rng.uniform(0, 10, count))
        c = hclust.cophenetic(hclust.average_linkage(d))
        assert metrics.ccc(d, c) == helpers.lexsort_ccc(d.values, c.values)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_lexsort_oracle_tie_runs_at_both_ends(self, seed):
        # the smallest and the largest d are each a run of equal values
        rng = np.random.default_rng(seed)
        d = np.concatenate([np.zeros(7), rng.uniform(1, 9, 176), np.full(7, 10.0)])
        d = cd(rng.permutation(d))
        c = cd(rng.integers(0, 5, d.values.size).astype(float))
        assert metrics.ccc(d, c) == helpers.lexsort_ccc(d.values, c.values)

    @pytest.mark.parametrize("odd", [0.0, 2.0])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_lexsort_oracle_all_but_one_tied(self, odd, seed):
        # one run covers every sorted position but the first or the last
        rng = np.random.default_rng(seed)
        d = np.ones(190)
        d[rng.integers(190)] = odd
        c = cd(rng.uniform(0, 10, 190))
        assert metrics.ccc(cd(d), c) == helpers.lexsort_ccc(d, c.values)


class TestCccScale:
    """The CCC of a network does not depend on the unit of its trade
    values, even where the product of the two sums of squares in the
    Pearson denominator over- or underflows a double."""

    @pytest.mark.parametrize("scale", [1e80, 1e-150])
    def test_scaled_network(self, scale):
        net = random_net(8, n=8)
        scaled = TradeNetwork(net.year, net.countries, net.m * scale)
        expected = metrics.ccc_of_network(net).ccc
        assert metrics.ccc_of_network(scaled).ccc == pytest.approx(
            expected, rel=1e-12, abs=0
        )


class TestCccOfNetwork:
    def test_composition_fixture(self):
        net = net_from_upper([5.0, 2.0, 1.0])
        d = hclust.distances_from_network(net)
        c = hclust.cophenetic(hclust.average_linkage(d))
        point = metrics.ccc_of_network(net)
        assert point.ccc == pytest.approx(metrics.ccc(d, c), abs=0)
        assert point.year == 2000 and point.n_countries == 3

    def test_equal_trade_degenerate(self):
        with pytest.raises(errors.Degenerate, match="zero variance input"):
            metrics.ccc_of_network(net_from_upper([4.0, 4.0, 4.0]))

    def test_block_network_beats_uniform(self):
        rng = np.random.default_rng(11)
        n = 8
        within = np.zeros((n, n))
        blocks = np.repeat([0, 1], n // 2)
        for i in range(n):
            for j in range(n):
                if i != j:
                    within[i, j] = 90.0 if blocks[i] == blocks[j] else 5.0
        noise = rng.uniform(0.9, 1.1, (n, n))
        block_m = (within * noise + (within * noise).T) / 2
        np.fill_diagonal(block_m, 0)
        uni_m = rng.uniform(40, 60, (n, n))
        uni_m = (uni_m + uni_m.T) / 2
        np.fill_diagonal(uni_m, 0)
        countries = [f"C{i:02d}" for i in range(n)]
        ccc_block = metrics.ccc_of_network(TradeNetwork(2000, countries, block_m)).ccc
        ccc_uni = metrics.ccc_of_network(TradeNetwork(2000, countries, uni_m)).ccc
        assert ccc_block > ccc_uni

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10_000), st.sampled_from([1e-3, 1.0, 1e6]))
    def test_scale_invariance(self, seed, k):
        net = random_net(seed)
        scaled = TradeNetwork(net.year, net.countries, net.m * k)
        assert metrics.ccc_of_network(scaled).ccc == pytest.approx(
            metrics.ccc_of_network(net).ccc, abs=1e-9
        )

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10_000), st.integers(0, 2**32 - 1))
    def test_permutation_invariance_exact(self, seed, pseed):
        net = random_net(seed)
        perm = np.random.default_rng(pseed).permutation(net.n)
        permuted = TradeNetwork(
            net.year,
            [net.countries[i] for i in perm],
            net.m[np.ix_(perm, perm)],
        )
        assert metrics.ccc_of_network(permuted).ccc == metrics.ccc_of_network(net).ccc

    def test_independent_of_blas_threads(self, package_env):
        # a threaded BLAS dot splits its sum by thread count, which would
        # change the CCC's last bits between these two children
        code = (
            "import numpy as np\n"
            "from tradetopo import ingest, metrics\n"
            "x = np.random.default_rng(0).uniform(0.0, 1.0, (200, 200))\n"
            "np.fill_diagonal(x, 0.0)\n"
            "net = ingest.symmetrize(2000, [f'C{i:03d}' for i in range(200)], x)\n"
            "print(repr(metrics.ccc_of_network(net).ccc))\n"
        )
        reprs = [
            subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True,
                check=True, env={**package_env, "OPENBLAS_NUM_THREADS": threads},
            ).stdout
            for threads in ("1", "2")
        ]
        assert reprs[0] == reprs[1]


class TestCccSeries:
    def test_two_years_in_order(self):
        nets = [random_net(0, year=1995), random_net(1, year=1996)]
        series = metrics.ccc_series(nets)
        assert [p.year for p in series] == [1995, 1996]

    def test_degenerate_year_skipped(self, caplog):
        nets = [
            net_from_upper([7.0], year=1995),  # 2 countries only
            random_net(1, year=1996),
        ]
        with caplog.at_level("WARNING"):
            series = metrics.ccc_series(nets)
        assert [p.year for p in series] == [1996]
        assert "skipping year 1995" in caplog.text

    def test_empty(self):
        assert metrics.ccc_series([]) == []


class TestShareMatrix:
    def test_two_country_share(self):
        share = metrics.share_matrix(net_from_upper([10.0]))
        assert share.s[0, 1] == pytest.approx(0.5)

    def test_isolated_pair(self):
        share = metrics.share_matrix(net_from_upper([0.0]))
        assert np.array_equal(share.s, np.zeros((2, 2)))

    def test_symmetric_and_in_range(self):
        net = random_net(5)
        share = metrics.share_matrix(net)
        assert np.array_equal(share.s, share.s.T)
        assert np.all((share.s >= 0) & (share.s <= 1))
        assert np.all(np.diag(share.s) == 0)

    def test_denominator(self):
        net = net_from_upper([5.0, 2.0, 1.0])
        share = metrics.share_matrix(net)
        assert share.s[0, 1] == pytest.approx(5.0 / ((5 + 2) + (5 + 1)))


class TestOrderedShareMatrix:
    def test_three_country_order(self):
        net = net_from_upper([5.0, 2.0, 1.0])
        dend = hclust.average_linkage(hclust.distances_from_network(net))
        ordered = metrics.ordered_share_matrix(net, dend)
        order = hclust.leaf_order(dend)
        base = metrics.share_matrix(net)
        assert ordered.countries == [net.countries[i] for i in order]
        assert np.array_equal(ordered.s, base.s[np.ix_(order, order)])

    def test_size_mismatch(self):
        net = random_net(0, n=5)
        dend = hclust.average_linkage(
            hclust.distances_from_network(random_net(1, n=4))
        )
        with pytest.raises(errors.Degenerate, match="leaves, network"):
            metrics.ordered_share_matrix(net, dend)


class TestTotals:
    def test_total_trade(self):
        assert metrics.total_trade(net_from_upper([10.0, 2.0, 1.0])) == 13.0

    def test_total_trade_empty(self):
        assert metrics.total_trade(net_from_upper([0.0, 0.0, 0.0])) == 0.0

    def test_total_trade_linear(self):
        net = random_net(9)
        doubled = TradeNetwork(net.year, net.countries, net.m * 2)
        assert metrics.total_trade(doubled) == pytest.approx(
            2 * metrics.total_trade(net)
        )

    def test_trade_gdp_ratio(self):
        net = net_from_upper([10.0])
        gdp = {(2000, "C00"): 100.0, (2000, "C01"): 100.0}
        assert metrics.trade_gdp_ratio(net, gdp) == pytest.approx(0.05)

    def test_trade_gdp_ratio_zero_trade(self):
        net = net_from_upper([0.0])
        gdp = {(2000, "C00"): 100.0, (2000, "C01"): 100.0}
        assert metrics.trade_gdp_ratio(net, gdp) == 0.0

    def test_missing_gdp(self):
        net = net_from_upper([10.0])
        with pytest.raises(errors.MissingGdp) as err:
            metrics.trade_gdp_ratio(net, {(2000, "C00"): 100.0})
        assert err.value.countries == ["C01"]
