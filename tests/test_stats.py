import tracemalloc

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import kolmogorov

import helpers
from tradetopo import errors, stats
from tradetopo.ingest import RecessionWindow
from tradetopo.metrics import CccPoint


class TestPearson:
    def test_identity(self):
        assert stats.pearson([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0)

    def test_anticorrelated(self):
        assert stats.pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_fixture(self):
        assert stats.pearson([1, 4, 5], [1, 4.5, 4.5]) == pytest.approx(
            7 / np.sqrt(52), abs=1e-12
        )

    def test_size_mismatch(self):
        with pytest.raises(errors.Degenerate, match="lengths differ"):
            stats.pearson([1, 2, 3], [1, 2])

    def test_too_few_points(self):
        with pytest.raises(errors.Degenerate, match="need at least 3 points, got 2"):
            stats.pearson([1, 2], [2, 1])

    def test_degenerate(self):
        with pytest.raises(errors.Degenerate, match="zero variance input"):
            stats.pearson([1, 1, 1], [1, 2, 3])

    def test_squares_past_largest_double(self):
        # unscaled, the squares of 2**700 would overflow a double
        big = [-(2.0**700), 0.0, 2.0**700]
        assert stats.pearson(big, [1, 2, 4]) == stats.pearson([-1, 0, 1], [1, 2, 4])

    @pytest.mark.parametrize("same", [False, True], ids=["two_arrays", "one_array"])
    def test_inputs_unchanged(self, same):
        rng = np.random.default_rng(4)
        x = 3.0 * rng.normal(size=40) + 5.0
        y = x if same else rng.normal(size=40) - 2.0
        kept = x.tobytes(), y.tobytes()
        stats.pearson(x, y)
        assert (x.tobytes(), y.tobytes()) == kept

    def test_strided_views_unchanged(self):
        base = np.random.default_rng(5).normal(size=(2, 60)) + 1.0
        kept = base.tobytes()
        x, y = base[0, ::3], base[1, 1::3]
        r = stats.pearson(x, y)
        assert base.tobytes() == kept
        assert r == stats.pearson(x.copy(), y.copy())

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10_000), st.sampled_from([-1000, 0, 1000]),
           st.sampled_from([-1000, 0, 1000]))
    def test_power_of_two_scale(self, seed, kx, ky):
        x, y = np.random.default_rng(seed).normal(size=(2, 8))
        assert stats.pearson(np.ldexp(x, kx), np.ldexp(y, ky)) == stats.pearson(x, y)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10_000))
    def test_matches_direct_formula(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=8)
        y = rng.normal(size=8)
        assert stats.pearson(x, y) == pytest.approx(
            helpers.pearson_direct(x, y), abs=1e-12
        )


# tie-free normal draws, so that scipy's exact p (which assumes no ties)
# is an oracle
TIE_FREE_12 = tuple(np.random.default_rng(12).normal(size=(2, 12)))
TIE_FREE_300 = tuple(np.random.default_rng(300).normal(size=(2, 300)))


class TestKsTwoSample:
    def test_identical_samples(self):
        assert stats.ks_two_sample([0.8, 0.9], [0.8, 0.9]) == (0.0, 1.0, 1.0)

    def test_disjoint_singletons(self):
        assert stats.ks_two_sample([1.0], [2.0])[0] == 1.0

    def test_separated_sevens_exact_p(self):
        a = list(np.arange(7.0))
        b = [v + 100 for v in a]
        d, p, _ = stats.ks_two_sample(a, b)
        assert d == 1.0
        assert p == pytest.approx(2 / 3432, abs=0)
        assert p == pytest.approx(
            helpers.ks_exact_p_enumeration(a, b), abs=1e-15
        )

    def test_empty_sample(self):
        with pytest.raises(errors.Degenerate, match="both samples must be nonempty"):
            stats.ks_two_sample([], [1.0])

    @pytest.mark.parametrize("samples", [TIE_FREE_12, TIE_FREE_300],
                             ids=["n12_m12", "n300_m300"])
    def test_large_samples_equal_scipy_exact(self, samples):
        a, b = samples
        _, p, one_sided_p = stats.ks_two_sample(a, b)
        two_sided = scipy.stats.ks_2samp(a, b, method="exact")
        greater = scipy.stats.ks_2samp(a, b, alternative="greater", method="exact")
        assert p == pytest.approx(two_sided.pvalue, rel=1e-12, abs=0)
        assert one_sided_p == pytest.approx(greater.pvalue, rel=1e-12, abs=0)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10_000))
    def test_exact_p_matches_enumeration_oracle(self, seed):
        rng = np.random.default_rng(seed)
        a = list(rng.normal(size=4))
        b = list(rng.normal(size=5))
        d, p, _ = stats.ks_two_sample(a, b)
        assert p == pytest.approx(
            helpers.ks_exact_p_enumeration(a, b), abs=1e-12
        )
        assert d == pytest.approx(helpers.ks_d_direct(a, b), abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10_000))
    def test_monotone_transform_invariance(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=6)
        b = rng.normal(size=6)
        d1 = stats.ks_two_sample(a, b)[0]
        d2 = stats.ks_two_sample(np.exp(a), np.exp(b))[0]
        assert d1 == pytest.approx(d2, abs=1e-12)

    def test_exact_p_in_unit_interval(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            a = rng.normal(size=5)
            b = rng.normal(size=5)
            p = stats.ks_two_sample(a, b)[1]
            assert 0 < p <= 1

    def test_exact_vs_asymptotic_order_of_magnitude(self):
        rng = np.random.default_rng(42)
        en = np.sqrt(49 / 14)
        for _ in range(100):
            a = rng.normal(size=7)
            b = rng.normal(size=7)
            d, p, _ = stats.ks_two_sample(a, b)
            p_asym = min(1.0, kolmogorov(en * d))
            assert p / 3 <= p_asym <= p * 3


class TestOneSided:
    def test_identical(self):
        assert stats.ks_two_sample([1.0, 2.0], [1.0, 2.0])[2] == 1.0

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_matches_enumeration_oracle(self, seed):
        rng = np.random.default_rng(seed)
        a = list(rng.normal(size=4))
        b = list(rng.normal(size=4))
        assert stats.ks_two_sample(a, b)[2] == pytest.approx(
            helpers.ks_exact_p_enumeration(a, b, one_sided=True), abs=1e-12
        )


# Samples with n, m <= 6 drawn from a few levels, so that ties fall both
# within and across the two samples.
tied_samples = st.tuples(
    st.lists(st.sampled_from([0.25, 0.5, 0.75]), min_size=1, max_size=6),
    st.lists(st.sampled_from([0.25, 0.5, 0.75, 1.0]), min_size=1, max_size=6),
)


class TestTiedSamplesMatchOracle:
    @settings(max_examples=150, deadline=None)
    @given(tied_samples)
    def test_two_sided(self, samples):
        a, b = samples
        assert stats.ks_two_sample(a, b)[1] == pytest.approx(
            helpers.ks_exact_p_enumeration(a, b), abs=1e-12
        )

    @settings(max_examples=150, deadline=None)
    @given(tied_samples)
    def test_one_sided(self, samples):
        a, b = samples
        assert stats.ks_two_sample(a, b)[2] == pytest.approx(
            helpers.ks_exact_p_enumeration(a, b, one_sided=True), abs=1e-12
        )


TIE_FREE_11 = (
    [0.61, 0.63, 0.58, 0.70, 0.66, 0.59, 0.64, 0.62, 0.69, 0.57, 0.67],
    [0.65, 0.72, 0.68, 0.74, 0.60, 0.71, 0.73, 0.75, 0.655, 0.76, 0.685],
)
LOPSIDED_2_300 = (
    [0.8125, 0.96875],
    [(i * 37 % 300) / 300 for i in range(300)],
)
IDENTICAL_11 = [0.3, 0.5, 0.5, 0.9, 0.7, 0.1, 0.2, 0.4, 0.6, 0.8, 0.65]

# repr of (p_value, method, d_statistic, one_sided_p), recorded with the
# exhaustive assignment enumeration that the lattice-path count replaced;
# method is the value recessions_test.json holds beside them.
PINNED = [
    (TIE_FREE_11,
     (0.0746606334841629, 'exact-permutation', 0.5454545454545455,
      0.03733031674208145)),
    (([0.1, 0.2, 0.2, 0.3, 0.3, 0.3, 0.4, 0.5, 0.5, 0.6, 0.7],
      [0.2, 0.3, 0.4, 0.4, 0.5, 0.6, 0.6, 0.7, 0.7, 0.8, 0.8]),
     (0.34848433300445686, 'exact-permutation', 0.3636363636363637,
      0.17474540423456833)),
    (([0.35, 0.41, 0.38, 0.52, 0.47, 0.33, 0.44, 0.50, 0.39, 0.46],
      [0.48, 0.55, 0.43, 0.58, 0.51, 0.62, 0.45, 0.57, 0.60, 0.53, 0.49]),
     (0.024212113995395728, 'exact-permutation', 0.6181818181818182,
      0.012106056997697864)),
    (LOPSIDED_2_300,
     (0.07273767353853601, 'exact-permutation', 0.8133333333333334,
      0.9693076059932675)),
    ((IDENTICAL_11, list(IDENTICAL_11)),
     (1.0, 'exact-permutation', 0.0, 1.0)),
]


class TestExactPinned:
    @pytest.mark.parametrize(
        "samples, expected", PINNED,
        ids=["tie_free_11_11", "ties_11_11", "n10_m11", "n2_m300", "identical"],
    )
    def test_bit_identical(self, samples, expected):
        a, b = samples
        d, p, one_sided_p = stats.ks_two_sample(a, b)
        assert (p, "exact-permutation", d, one_sided_p) == expected

    @pytest.mark.parametrize("samples", [TIE_FREE_11, LOPSIDED_2_300],
                             ids=["n11_m11", "n2_m300"])
    def test_matches_scipy_exact(self, samples):
        a, b = samples
        expected = scipy.stats.ks_2samp(a, b, method="exact").pvalue
        assert abs(stats.ks_two_sample(a, b)[1] - expected) <= 1e-15

    @pytest.mark.parametrize("samples", [TIE_FREE_11, TIE_FREE_300],
                             ids=["n11_m11", "n300_m300"])
    def test_peak_memory_small(self, samples):
        a, b = samples
        tracemalloc.start()
        try:
            stats.ks_two_sample(a, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


def window(label, start_year, end_year):
    return RecessionWindow(label, (start_year, 3), (end_year, 11))


def series(values, start_year):
    return [
        CccPoint(start_year + i, v, 10) for i, v in enumerate(values)
    ]


class TestRecessionCccShift:
    def test_before_and_after_extraction(self):
        pts = series([0.1, 0.2, 0.3, 0.4, 0.5], 1990)
        shift = stats.recession_ccc_shift(pts, [window("w", 1991, 1993)])
        assert shift["before"] == [0.1]
        assert shift["after"] == [0.5]
        # the keys in the order recessions_test.json holds them
        assert list(shift) == ["D", "p", "method", "before", "after", "one_sided_p"]

    def test_equal_before_after(self):
        pts = series([0.5, 0.5, 0.5, 0.5, 0.5], 1990)
        shift = stats.recession_ccc_shift(pts, [window("w", 1991, 1993)])
        assert shift["D"] == 0.0
        assert shift["p"] == 1.0

    def test_seven_separated_windows(self):
        years = range(1960, 2002, 6)
        windows = [window(f"w{i}", y + 1, y + 3) for i, y in enumerate(years)]
        pts = []
        for i, y in enumerate(years):
            pts.append(CccPoint(y, 0.2 + 0.001 * i, 10))       # before
            pts.append(CccPoint(y + 4, 0.8 + 0.001 * i, 10))   # after
        shift = stats.recession_ccc_shift(pts, windows)
        assert shift["D"] == 1.0
        assert shift["p"] == pytest.approx(2 / 3432)
        before = [0.2 + 0.001 * i for i in range(7)]
        after = [0.8 + 0.001 * i for i in range(7)]
        assert shift["one_sided_p"] == pytest.approx(
            helpers.ks_exact_p_enumeration(before, after, one_sided=True)
        )

    def test_one_sided_tests_before_below_after(self):
        years = range(1960, 1978, 6)
        windows = [window(f"w{i}", y + 1, y + 3) for i, y in enumerate(years)]
        low, high = [0.2, 0.21, 0.22], [0.8, 0.81, 0.82]

        def shift(before, after):
            pts = []
            for y, lo, hi in zip(years, before, after):
                pts += [CccPoint(y, lo, 10), CccPoint(y + 4, hi, 10)]
            return stats.recession_ccc_shift(pts, windows)

        assert shift(low, high)["one_sided_p"] == 1 / 20
        assert shift(high, low)["one_sided_p"] == 1.0
        assert stats.ks_two_sample(low, high)[2] == 1 / 20

    def test_no_windows(self):
        with pytest.raises(errors.Degenerate, match="no recession windows"):
            stats.recession_ccc_shift(series([0.1, 0.2, 0.3], 1990), [])

    def test_missing_year(self):
        pts = series([0.1, 0.2, 0.3], 1990)
        with pytest.raises(errors.Degenerate,
                           match=r"^CCC series does not cover window\(s\): w$"):
            stats.recession_ccc_shift(pts, [window("w", 1991, 1999)])
