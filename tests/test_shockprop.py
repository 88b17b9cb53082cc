import pathlib
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import helpers
from tradetopo import errors, ingest, shockprop, synthetic
from tradetopo.shockprop import EconomyState, ShockConfig, SimulationTrace

def state_of(rows, gdp, year=2007):
    """year_state of (year, reporter, partner, value) rows, read as CSV."""
    panel = ingest.parse_trade_csv(helpers.trade_csv(rows))
    return shockprop.year_state(year, *ingest.directed_flows(panel, year), gdp)


def two_country_state(y_u=100.0, y_w=100.0, x=10.0):
    rows = [(2007, "USA", "WLD", x), (2007, "WLD", "USA", x)]
    return state_of(rows, {(2007, "USA"): y_u, (2007, "WLD"): y_w})


def zero_trade_state(n=4, epi_share=0.5):
    countries = tuple(f"C{i:02d}" for i in range(n))
    rest = 100.0 * (1 - epi_share) / (n - 1)
    y = np.array([100.0 * epi_share] + [rest] * (n - 1))
    return EconomyState(countries, y, np.zeros((n, n)), np.zeros(n))


def random_state(rng, n, zero_rows=0):
    """Lognormal exports with zero diagonal, the first zero_rows countries
    exporting nothing, and P drawn from (0.05, 0.95) where there are
    exports."""
    x = rng.lognormal(0.0, 1.5, (n, n))
    np.fill_diagonal(x, 0.0)
    x[:zero_rows] = 0.0
    ex = x.sum(axis=1)
    y = np.where(ex > 0, ex / rng.uniform(0.05, 0.95, n),
                 rng.lognormal(2.0, 1.0, n))
    return EconomyState.from_exports(
        tuple(f"C{i:02d}" for i in range(n)), y, x)


def fixture_states(fixtures_dir):
    """The year_state of every year of the bundled fixture."""
    with open(fixtures_dir / "trade.csv") as f:
        panel = ingest.parse_trade_csv(f)
    with open(fixtures_dir / "gdp.csv") as f:
        gdp = ingest.parse_gdp_csv(f)
    return [shockprop.year_state(year, *ingest.directed_flows(panel, year), gdp)
            for year in panel.years()]


CFG = ShockConfig(epicenter="USA", shock_fraction=0.054)


def same_bits(a, b):
    """Equal dtype, shape and bytes: tells -0.0 from +0.0."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestYearState:
    """The initial state of a simulation, built by year_state."""

    def test_export_ratios(self):
        st = two_country_state()
        assert np.allclose(st.p, [0.1, 0.1])
        assert st.countries == ("USA", "WLD")

    def test_zero_export_country(self):
        gdp = {(2007, "USA"): 100.0, (2007, "WLD"): 100.0}
        st = state_of([(2007, "USA", "WLD", 10.0)], gdp)
        assert st.p[st.index("WLD")] == 0.0

    def test_missing_gdp(self):
        with pytest.raises(errors.MissingGdp):
            state_of([(2007, "USA", "WLD", 10.0)], {(2007, "USA"): 100.0})

    def test_high_ratio_warns(self, caplog):
        gdp = {(2007, "USA"): 100.0, (2007, "WLD"): 100.0}
        with caplog.at_level("WARNING"):
            state_of([(2007, "USA", "WLD", 150.0)], gdp)
        assert "USA" in caplog.text

    def test_high_ratio_warning_names_the_year(self, caplog):
        gdp = {(year, c): 100.0 for year in (2006, 2007) for c in ("USA", "WLD")}
        rows = [(2006, "WLD", "USA", 150.0), (2007, "USA", "WLD", 150.0)]
        with caplog.at_level("WARNING"):
            state_of(rows, gdp, year=2006)
            state_of(rows, gdp, year=2007)
        assert caplog.messages == [
            "year 2006: export/GDP ratio >= 1 for: WLD",
            "year 2007: export/GDP ratio >= 1 for: USA",
        ]


class TestShockConfig:
    @pytest.mark.parametrize("fraction", [1.5, 1.0, 0.0, -0.1, float("nan")])
    def test_fraction_out_of_range(self, fraction):
        with pytest.raises(ValueError, match="shock_fraction must be in"):
            ShockConfig(epicenter="USA", shock_fraction=fraction)

    @pytest.mark.parametrize("tolerance", [float("nan"), -1e-12, -1.0,
                                           float("-inf")])
    def test_bad_tolerance(self, tolerance):
        with pytest.raises(ValueError, match="tolerance must be >= 0"):
            ShockConfig(epicenter="USA", tolerance=tolerance)

    @pytest.mark.parametrize("max_steps", [0, -5])
    def test_bad_max_steps(self, max_steps):
        with pytest.raises(ValueError, match="max_steps must be >= 1"):
            ShockConfig(epicenter="USA", max_steps=max_steps)

    def test_limits_accepted(self):
        cfg = ShockConfig(epicenter="USA", tolerance=0.0, max_steps=1)
        assert (cfg.tolerance, cfg.max_steps) == (0.0, 1)


def shocked_y(state, config=CFG):
    """Y(1), the GDP just after the shock, as run_to_steady records it."""
    return shockprop.run_to_steady(state, config).steps[1]


class TestEpicenterShock:
    """The shock that run_to_steady applies at t = 1."""

    def test_fraction(self):
        y = shocked_y(two_country_state())
        assert y[0] == pytest.approx(94.6, abs=1e-12)
        assert y[1] == 100.0

    def test_small_fraction_limit(self):
        y = shocked_y(two_country_state(),
                      ShockConfig(epicenter="USA", shock_fraction=1e-12))
        assert y[0] == pytest.approx(100.0, rel=1e-11)

    def test_unknown_epicenter(self):
        with pytest.raises(errors.Degenerate, match="'XXX' not in state"):
            shockprop.run_to_steady(
                two_country_state(), ShockConfig(epicenter="XXX")
            )

    def test_restore_before_stepping_recovers_initial(self):
        st = two_country_state()
        y = shocked_y(st).copy()
        y[0] = st.y[0]
        assert np.array_equal(y, st.y)


class TestStep:
    def test_first_hand_iterate(self):
        st = two_country_state()
        x_t, _, y_next, _ = shockprop.step(
            st.x, st.x.sum(axis=1), st.y, shocked_y(st), st.p)
        # exports toward the epicenter shrink with its GDP
        assert x_t[1, 0] == pytest.approx(9.46, abs=1e-12)
        assert x_t[0, 1] == pytest.approx(10.0, abs=1e-12)
        assert y_next[1] == pytest.approx(99.46, abs=1e-12)
        assert y_next[0] == pytest.approx(94.6, abs=1e-12)

    def test_second_hand_iterate(self):
        st = two_country_state()
        y1 = shocked_y(st)
        x2, ex2, y2, _ = shockprop.step(
            st.x, st.x.sum(axis=1), st.y, y1, st.p)
        x3, _, y3, _ = shockprop.step(x2, ex2, y1, y2, st.p)
        assert x3[0, 1] == pytest.approx(9.946, abs=1e-12)
        assert y3[0] == pytest.approx(94.548916, abs=1e-12)

    def test_zero_trade_fixed_point(self):
        st = zero_trade_state()
        _, _, y_next, _ = shockprop.step(st.x, st.x.sum(axis=1), st.y, st.y, st.p)
        assert np.array_equal(y_next, st.y)

    @pytest.mark.parametrize("y_prev, y", [
        ([1.0, 1.0], [1.0, 2.0]),  # 1e308 * 2 overflows to inf
        ([1.0, 0.0], [1.0, 0.0]),  # 0 / 0 makes column 1 NaN
    ], ids=["inf", "nan"])
    def test_non_finite_x_t_with_positive_row_sums(self, y_prev, y):
        # every row sum of X(t-1) is finite and > 0, so X(t) is not
        # scanned: its non-finite entry must still reach Y(t+1)
        x = np.array([[1.0, 1e308], [1.0, 1.0]])
        ex, y_prev, y = x.sum(axis=1), np.array(y_prev), np.array(y)
        p = np.array([0.5, 0.5])
        assert np.isfinite(ex).all() and ex.min() > 0
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.isfinite(x * (y / y_prev)).all()
            ys, _, outcome = helpers.reference_shock_trace(
                x, y_prev, y, p, max_steps=1)
            assert (outcome, ys) == ("degenerate", [])
            with pytest.raises(errors.Degenerate):
                shockprop.step(x, ex, y_prev, y, p)

    def test_gdp_more_than_doubles(self):
        # country 0's only partner grew tenfold, so its GDP goes 1 -> 5.5:
        # the change is >= 1, which takes the full domain check, and
        # Y(t+1) stays finite and positive
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        y_prev, y = np.array([1.0, 100.0]), np.array([1.0, 1000.0])
        p = np.array([0.5, 0.5])
        x_t, _, y_next, delta = shockprop.step(x, x.sum(axis=1), y_prev, y, p)
        assert delta == 4.5
        ys, x_ref, _ = helpers.reference_shock_trace(x, y_prev, y, p,
                                                     max_steps=1)
        assert np.array_equal(y_next, ys[0])
        assert np.array_equal(x_t, x_ref)
        # and the whole iteration, entered from the same state
        start = EconomyState(("C00", "C01"), y_prev, x, p)
        cfg = ShockConfig(epicenter="C01")
        assert check_run(lambda: shockprop.run_recovery(start, 1000.0, cfg),
                         start, y, cfg) is not None

    def test_gdp_falls_to_exactly_zero(self):
        # P = 2 and a partner that halved: 1 + 2 * (0.5 - 1) = 0, a change
        # of exactly 1, which must take the domain check
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        y_prev, y = np.array([1.0, 2.0]), np.array([1.0, 1.0])
        p = np.array([2.0, 0.5])
        ys, _, outcome = helpers.reference_shock_trace(x, y_prev, y, p,
                                                       max_steps=1)
        assert (outcome, ys) == ("degenerate", [])
        with pytest.raises(errors.Degenerate):
            shockprop.step(x, x.sum(axis=1), y_prev, y, p)

    @pytest.mark.parametrize("row", [0, 3, 6], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("value", [np.nan, 0.0, -0.0],
                             ids=["nan", "+0.0", "-0.0"])
    def test_row_sum_nan_or_signed_zero(self, value, row):
        # step reads min(ex) at argmin, which stops at the first NaN; a row
        # sum that is NaN, +0.0 or -0.0 anywhere must fail the trade test
        # as the reference's ex > 0 does. The row holds the value itself,
        # and ex holds it as given, since a sum of -0.0s is +0.0
        st = random_state(np.random.default_rng(7), 7)
        x = st.x.copy()
        x[row] = value
        ex = np.add.reduce(x, 1)
        ex[row] = value
        assert np.signbit(ex[row]) == np.signbit(value)
        assert np.delete(ex, row).min() > 0
        y = st.y.copy()
        y[(row + 1) % 7] *= 1.0 - 0.054
        ys, x_ref, outcome = helpers.reference_shock_trace(
            x, st.y, y, st.p, max_steps=1)
        if np.isnan(value):
            assert (outcome, ys) == ("degenerate", [])
            with pytest.raises(errors.Degenerate):
                shockprop.step(x, ex, st.y, y, st.p)
            return
        assert (outcome, len(ys)) == ("no convergence", 1)
        x_t, ex_t, y_next, delta = shockprop.step(x, ex, st.y, y, st.p)
        assert same_bits(x_t, x_ref)
        assert same_bits(ex_t, x_ref.sum(axis=1))
        assert same_bits(y_next, ys[0])
        assert type(delta) is float
        assert delta == float(np.max(np.abs(ys[0] - y) / y))

    def test_nan_change_after_a_larger_finite_one(self):
        # country 0's only partner grew by half, a change of 0.25; country
        # 2's inf export makes its ratio inf / inf, so its change is NaN.
        # Every finite change is < 1, so a delta read past the NaN would
        # skip the domain check and step would return; max(change) read at
        # argmax must be that NaN, and the domain check must raise
        x = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [1.0, np.inf, 0.0]])
        y_prev, y = np.array([1.0, 100.0, 1.0]), np.array([1.0, 150.0, 1.0])
        p = np.array([0.5, 0.5, 0.5])
        with np.errstate(invalid="ignore"):
            ys, _, outcome = helpers.reference_shock_trace(
                x, y_prev, y, p, max_steps=1)
            assert (outcome, ys) == ("degenerate", [])
            with pytest.raises(errors.Degenerate,
                               match="left the finite positive domain"):
                shockprop.step(x, x.sum(axis=1), y_prev, y, p)


class TestRunToSteady:
    def test_zero_trade_converges_immediately(self):
        st = zero_trade_state()
        trace = shockprop.run_to_steady(st, ShockConfig(epicenter="C00"))
        assert len(trace.steps) == 3  # pre-shock, shock, confirming step
        changed = trace.steps[-1] != trace.steps[0]
        assert list(changed) == [True, False, False, False]

    def test_two_country_matches_independent_oracle(self):
        trace = shockprop.run_to_steady(two_country_state(), CFG)
        us, ws = helpers.two_country_shock_oracle(100.0, 100.0, 10.0, 0.1, 0.054)
        assert trace.steps[-1][0] == pytest.approx(us[-1], rel=1e-9)
        assert trace.steps[-1][1] == pytest.approx(ws[-1], rel=1e-9)

    def test_trace_records_pre_shock(self):
        trace = shockprop.run_to_steady(two_country_state(), CFG)
        assert np.array_equal(trace.steps[0], [100.0, 100.0])
        assert trace.steps[1][0] == pytest.approx(94.6)

    def test_zero_tolerance_never_converges(self):
        cfg = ShockConfig(
            epicenter="USA", shock_fraction=0.054, tolerance=0.0, max_steps=50
        )
        with mock.patch.object(shockprop, "step", wraps=shockprop.step) as spy:
            with pytest.raises(errors.NoConvergence,
                               match="^shock: no steady state after 50 steps"):
                shockprop.run_to_steady(two_country_state(), cfg)
        assert spy.call_count == 50

    def test_determinism(self):
        t1 = shockprop.run_to_steady(two_country_state(), CFG)
        t2 = shockprop.run_to_steady(two_country_state(), CFG)
        assert len(t1.steps) == len(t2.steps)
        for a, b in zip(t1.steps, t2.steps):
            assert np.array_equal(a, b)

    def test_gdp_stays_in_bounds(self):
        pair = synthetic.matched_block_pair(3)
        for which in ("uniform", "modular"):
            st = pair.state(which)
            trace = shockprop.run_to_steady(st, ShockConfig(epicenter="C00"))
            for y in trace.steps:
                assert np.all(y > 0)
                assert np.all(y <= st.y * (1 + 1e-12))

    @pytest.mark.parametrize("gdp", [0.0, -1.0, np.inf, np.nan])
    @pytest.mark.parametrize("country", [0, 2])
    def test_gdp_not_finite_positive_raises_on_entry(self, country, gdp):
        st = random_state(np.random.default_rng(5), 5)
        y = st.y.copy()
        y[country] = gdp
        state = EconomyState(st.countries, y, st.x, st.p)
        cfg = ShockConfig(epicenter="C00")
        with mock.patch.object(shockprop, "step", wraps=shockprop.step) as spy:
            with pytest.raises(errors.Degenerate, match="at the start"):
                shockprop.run_to_steady(state, cfg)
        assert spy.call_count == 0


class TestWorldGdpChange:
    def test_zero_trade(self):
        st = zero_trade_state(epi_share=0.5)
        trace = shockprop.run_to_steady(
            st, ShockConfig(epicenter="C00", shock_fraction=0.054)
        )
        assert shockprop.world_gdp_change(trace) == pytest.approx(
            -0.027, abs=1e-15
        )

    def test_two_country_value(self):
        trace = shockprop.run_to_steady(two_country_state(), CFG)
        us, ws = helpers.two_country_shock_oracle(100.0, 100.0, 10.0, 0.1, 0.054)
        expected = (us[-1] + ws[-1] - 200.0) / 200.0
        assert shockprop.world_gdp_change(trace) == pytest.approx(
            expected, rel=1e-9
        )


class TestImpactRatio:
    def test_zero_trade_is_zero(self):
        st = zero_trade_state()
        trace = shockprop.run_to_steady(st, ShockConfig(epicenter="C00"))
        assert shockprop.impact_ratio(trace, "C00") == 0.0

    def test_two_country_value(self):
        trace = shockprop.run_to_steady(two_country_state(), CFG)
        us, ws = helpers.two_country_shock_oracle(100.0, 100.0, 10.0, 0.1, 0.054)
        expected = ((ws[-1] - 100) / 100) / ((us[-1] - 100) / 100)
        assert shockprop.impact_ratio(trace, "USA") == pytest.approx(
            expected, rel=1e-9
        )

    def test_single_country_world(self):
        trace = SimulationTrace(("AAA",), [np.array([100.0]), np.array([90.0])])
        with pytest.raises(errors.Degenerate, match="needs at least 2 countries"):
            shockprop.impact_ratio(trace, "AAA")

    def test_zero_epicenter_change(self):
        trace = SimulationTrace(
            ("AAA", "BBB"),
            [np.array([100.0, 50.0]), np.array([100.0, 50.0])],
        )
        with pytest.raises(errors.Degenerate, match="epicenter GDP did not change"):
            shockprop.impact_ratio(trace, "AAA")

    def test_unknown_epicenter(self):
        trace = shockprop.run_to_steady(two_country_state(), CFG)
        with pytest.raises(errors.Degenerate, match="^'XYZ' not in state$"):
            shockprop.impact_ratio(trace, "XYZ")


class TestWorldGdp:
    @settings(max_examples=200, deadline=None)
    @given(n=hs.one_of(hs.sampled_from([1, 127, 128, 129]), hs.integers(1, 300)),
           n_steps=hs.integers(1, 40), seed=hs.integers(0, 2**32 - 1))
    def test_equals_per_step_sums(self, n, n_steps, seed):
        # n around 128, the block size of numpy's pairwise summation
        rng = np.random.default_rng(seed)
        steps = list(rng.lognormal(20.0, 2.0, (n_steps, n)))
        trace = SimulationTrace(tuple(f"C{i}" for i in range(n)), steps)
        want = np.array([y.sum() for y in steps])
        assert trace.world_gdp.tobytes() == want.tobytes()


class TestRunRecovery:
    def test_zero_trade_restores_world(self):
        st = zero_trade_state()
        cfg = ShockConfig(epicenter="C00")
        shock = shockprop.run_to_steady(st, cfg)
        rec = shockprop.run_recovery(shock.final_state, float(st.y[0]), cfg)
        assert rec.world_gdp[-1] == pytest.approx(st.y.sum(), rel=1e-12)

    def test_two_country_monotone_recovery(self):
        st = two_country_state()
        shock = shockprop.run_to_steady(st, CFG)
        rec = shockprop.run_recovery(shock.final_state, 100.0, CFG)
        w = rec.world_gdp
        assert np.all(np.diff(w) >= -1e-9)

    def test_restore_to_steady_value_is_flat(self):
        st = two_country_state()
        shock = shockprop.run_to_steady(st, CFG)
        steady = shock.final_state
        rec = shockprop.run_recovery(
            steady, float(steady.y[steady.index("USA")]), CFG
        )
        assert np.allclose(rec.world_gdp, rec.world_gdp[0])

    def test_no_convergence_names_its_phase(self):
        shock = shockprop.run_to_steady(two_country_state(), CFG)
        cfg = ShockConfig(epicenter="USA", tolerance=0.0, max_steps=5)
        with mock.patch.object(shockprop, "step", wraps=shockprop.step) as spy:
            with pytest.raises(errors.NoConvergence,
                               match="^recovery: no steady state after 5 steps"):
                shockprop.run_recovery(shock.final_state, 100.0, cfg)
        # the first step starts from the shock's steady state
        assert np.array_equal(spy.call_args_list[0].args[2],
                              shock.final_state.y)

    @pytest.mark.parametrize("gdp", [0.0, -1.0, np.inf, np.nan])
    def test_epicenter_gdp_not_finite_positive_raises_on_entry(self, gdp):
        cfg = ShockConfig(epicenter="USA")
        steady = shockprop.run_to_steady(two_country_state(), cfg).final_state
        with mock.patch.object(shockprop, "step", wraps=shockprop.step) as spy:
            with pytest.raises(errors.Degenerate, match="at the start"):
                shockprop.run_recovery(steady, gdp, cfg)
        assert spy.call_count == 0


class TestFitRecovery:
    def make_trace(self, w):
        return SimulationTrace(("A",), [np.array([v]) for v in w])

    def test_recovers_generating_model(self):
        t = np.arange(21)
        fit = shockprop.fit_recovery(self.make_trace(100 - 5 * np.exp(-0.3 * t)))
        assert fit.lam == pytest.approx(0.3, abs=1e-9)
        assert fit.a == pytest.approx(5.0, abs=1e-9)
        assert fit.y_inf == pytest.approx(100.0, abs=1e-9)

    def test_overshoot(self):
        w = np.array([90.0, 101.0, 100.5, 100.0])
        with pytest.raises(errors.Degenerate, match="overshoots its final value"):
            shockprop.fit_recovery(self.make_trace(w))

    def test_flat_trace(self):
        with pytest.raises(errors.Degenerate, match="only 0 points below"):
            shockprop.fit_recovery(self.make_trace(np.full(10, 50.0)))

    def test_two_country_recovery_rate_positive(self):
        st = two_country_state()
        shock = shockprop.run_to_steady(st, CFG)
        rec = shockprop.run_recovery(shock.final_state, 100.0, CFG)
        assert shockprop.fit_recovery(rec).lam > 0


def recovery_trace(state, cfg):
    """The recovery trace after shocking state to its steady state."""
    initial_y = float(state.y[state.index(cfg.epicenter)])
    shock = shockprop.run_to_steady(state, cfg)
    return shockprop.run_recovery(shock.final_state, initial_y, cfg)


def loglinear_seed(w):
    """(y_end, a0, lam0): fit_recovery's seed, a log-linear regression of
    ln(y_end - W) on t over the points below the final value."""
    y_end = float(w[-1])
    resid = y_end - w
    mask = resid > 1e-12 * abs(y_end)
    t = np.arange(len(w), dtype=float)
    slope, intercept = np.polyfit(t[mask], np.log(resid[mask]), 1)
    return y_end, float(np.exp(intercept)), -slope


def curve_fit_oracle(w):
    """(lam, a, y_inf) from the public scipy.optimize.curve_fit, started at
    fit_recovery's seed."""
    from scipy.optimize import curve_fit

    def model(t, y_inf, a, lam):
        return y_inf - a * np.exp(-lam * t)

    y_end, a0, lam0 = loglinear_seed(w)
    t = np.arange(len(w), dtype=float)
    y_inf, a, lam = curve_fit(model, t, w, p0=(y_end, a0, max(lam0, 1e-12)),
                              maxfev=10_000)[0]
    return float(lam), float(a), float(y_inf)


def fit_tuple(w):
    fit = shockprop.fit_recovery(
        SimulationTrace(("A",), [np.array([v]) for v in w]))
    return fit.lam, fit.a, fit.y_inf


class TestFitRecoveryEqualsCurveFit:
    """fit_recovery calls MINPACK's lmdif as curve_fit does: the same bits."""

    def assert_same_fit(self, trace):
        fit = shockprop.fit_recovery(trace)
        assert (fit.lam, fit.a, fit.y_inf) == curve_fit_oracle(trace.world_gdp)

    def test_fixture_years(self, fixtures_dir):
        states = fixture_states(fixtures_dir)
        assert len(states) == 12
        for state in states:
            self.assert_same_fit(recovery_trace(state, CFG))

    def test_matched_pairs(self):
        cfg = ShockConfig(epicenter="C00")
        for seed in range(20):
            pair = synthetic.matched_block_pair(seed)
            for which in ("uniform", "modular"):
                self.assert_same_fit(recovery_trace(pair.state(which), cfg))

    @pytest.mark.parametrize("noise", [0.0, 1e-3, 1e-2])
    @pytest.mark.parametrize("seed", range(10))
    def test_random_exponentials(self, seed, noise):
        rng = np.random.default_rng(seed)
        lam = rng.uniform(0.1, 2.0)
        n = int(rng.integers(8, 8 + 12 / lam))
        y_inf, a = rng.uniform(1.0, 1e4), rng.uniform(0.01, 1.0)
        t = np.arange(n)
        # relative noise on the gap below 3 * noise keeps W rising to its
        # last value for lam >= 0.1
        jitter = 1.0 + noise * np.clip(rng.standard_normal(n), -3, 3)
        w = y_inf * (1.0 - a * np.exp(-lam * t) * jitter)
        assert fit_tuple(w) == curve_fit_oracle(w)

    def test_no_convergence_returns_seed(self, monkeypatch, caplog):
        # MINPACK's info 5: the call limit was reached without convergence
        w = 100 - 5 * np.exp(-0.3 * np.arange(21))
        monkeypatch.setattr(shockprop, "_lmdif",
                            lambda: lambda func, x0, *args: (x0 * 2, 5))
        with caplog.at_level("WARNING"):
            fit = fit_tuple(w)
        y_end, a0, lam0 = loglinear_seed(w)
        assert fit == (lam0, a0, y_end)
        assert [(r.levelname, r.getMessage()) for r in caplog.records] == [
            ("WARNING", "recovery fit: lmdif info 5; using the log-linear seed")]

    def test_nan_in_fitted_points(self, recwarn):
        # a non-finite point is a ValueError wherever it sits, with no
        # numpy warning: the check runs before the seed reads w
        for at, value in [(5, np.nan), (-1, np.nan), (-1, np.inf), (0, np.inf)]:
            w = 100 - 5 * np.exp(-0.3 * np.arange(21))
            w[at] = value
            with pytest.raises(ValueError, match="infs or NaNs"):
                fit_tuple(w)
        assert not recwarn.list

    FIT_IN_CHILD = (
        "import sys, numpy as np\n"
        "{before}\n"
        "from tradetopo import shockprop\n"
        "from tradetopo.shockprop import SimulationTrace\n"
        "w = 100 - 5 * np.exp(-0.3 * np.arange(21)) + 1e-3 * np.sin(np.arange(21))\n"
        "trace = SimulationTrace(('A',), [np.array([v]) for v in w])\n"
        "print(repr(shockprop.fit_recovery(trace).lam))\n"
        "print('scipy.optimize' in sys.modules)\n"
        "{after}\n"
    )

    @pytest.mark.parametrize("before, after, imported", [
        ("", "", False),
        ("import scipy.optimize", "", True),
        # scipy.optimize imports after the loader took the extension alone
        ("", "from scipy.optimize import curve_fit", False),
    ], ids=["loader-alone", "scipy-optimize-first", "scipy-optimize-after"])
    def test_same_lambda_whichever_loads_first(self, before, after, imported,
                                               package_env):
        proc = subprocess.run(
            [sys.executable, "-c",
             self.FIT_IN_CHILD.format(before=before, after=after)],
            capture_output=True, text=True, env=package_env)
        assert proc.returncode == 0, proc.stderr
        w = 100 - 5 * np.exp(-0.3 * np.arange(21)) + 1e-3 * np.sin(np.arange(21))
        assert proc.stdout.split() == [repr(fit_tuple(w)[0]), str(imported)]


class TestShockAndRecover:
    """shock_and_recover is run_to_steady, run_recovery to the epicenter's
    own pre-shock GDP, then fit_recovery, bit for bit."""

    def test_equals_the_three_steps(self, fixtures_dir):
        for st in fixture_states(fixtures_dir):
            shock, rec, fit = shockprop.shock_and_recover(st, CFG)
            want_shock = shockprop.run_to_steady(st, CFG)
            want_rec = shockprop.run_recovery(
                want_shock.final_state, float(st.y[st.index("USA")]), CFG)
            for got, want in ((shock, want_shock), (rec, want_rec)):
                assert np.array_equal(got.steps, want.steps)
            assert fit == shockprop.fit_recovery(want_rec)
            i = st.index("USA")
            assert rec.steps[1][i] == st.y[i] != shock.final_state.y[i]

    def test_unknown_epicenter_runs_no_step(self):
        with mock.patch.object(shockprop, "step", wraps=shockprop.step) as spy:
            with pytest.raises(errors.Degenerate, match="'CHN' not in state"):
                shockprop.shock_and_recover(two_country_state(),
                                            ShockConfig(epicenter="CHN"))
        assert spy.call_count == 0

    @pytest.mark.parametrize("max_steps, phase", [
        (1, "shock"), (17, "shock"), (18, "recovery"), (19, None)])
    def test_no_convergence_names_its_phase(self, max_steps, phase,
                                            fixtures_dir):
        # the fixture's 2005 shock converges in 18 steps, its recovery in 19
        st = fixture_states(fixtures_dir)[2005 - 1995]
        cfg = ShockConfig(epicenter="USA", max_steps=max_steps)
        if phase is None:
            shock, rec, _ = shockprop.shock_and_recover(st, cfg)
            assert (len(shock.steps), len(rec.steps)) == (18 + 2, 19 + 2)
            return
        with pytest.raises(errors.NoConvergence,
                           match=f"^{phase}: no steady state after {max_steps} steps"):
            shockprop.shock_and_recover(st, cfg)


class TestStructureResponse:
    def test_modular_network_is_shielded(self):
        pair = synthetic.matched_block_pair(0)
        cfg = ShockConfig(epicenter="C00")
        results = {}
        for which in ("uniform", "modular"):
            trace = shockprop.run_to_steady(pair.state(which), cfg)
            rec = shockprop.run_recovery(
                trace.final_state, 100.0, cfg
            )
            results[which] = (
                shockprop.world_gdp_change(trace),
                shockprop.fit_recovery(rec).lam,
            )
        assert abs(results["modular"][0]) < abs(results["uniform"][0])
        assert results["modular"][1] > results["uniform"][1]

    @pytest.mark.parametrize("method", ["state", "network"])
    def test_unknown_allocation_raises(self, method):
        pair = synthetic.matched_block_pair(0)
        with pytest.raises(KeyError, match="'Uniform'"):
            getattr(pair, method)("Uniform")


def check_run(run, start, y, cfg):
    """Call run(), one shock or recovery iteration from X(t-1) = start.x,
    Y(t-1) = start.y and Y(t) = y, and check it bit for bit against
    helpers.reference_shock_trace, with one shockprop.step call per step:
    the X(t) and Y(t+1) each step call returns, and the trace of a run
    that converges. Returns that trace, or None when both left the
    positive domain or both stalled."""
    ys, x_ref, outcome = helpers.reference_shock_trace(
        start.x, start.y, y, start.p, tol=cfg.tolerance,
        max_steps=cfg.max_steps)
    step, returned = shockprop.step, []

    def recorded_step(*args):
        returned.append(step(*args))
        return returned[-1]
    with mock.patch.object(shockprop, "step", side_effect=recorded_step) as spy:
        if outcome == "degenerate":
            with pytest.raises(errors.Degenerate):
                run()
            assert spy.call_count == len(ys) + 1
            return None
        if outcome == "converged":
            trace = run()
        else:
            with pytest.raises(errors.NoConvergence):
                run()
            trace = None
    assert spy.call_count == len(ys)
    _, _, y_prev, y_t, _ = spy.call_args_list[0].args
    assert np.array_equal(y_prev, start.y)
    assert np.array_equal(y_t, y)
    for (_, _, got, _), want in zip(returned, ys, strict=True):
        assert np.array_equal(got, want)
    assert np.array_equal(returned[-1][0], x_ref)
    if trace is None:
        return None
    assert len(trace.steps) == len(ys) + 2
    assert np.array_equal(trace.steps[0], start.y)
    assert np.array_equal(trace.steps[1], y)
    for got, want in zip(trace.steps[2:], ys):
        assert np.array_equal(got, want)
    final = trace.final_state
    assert final.countries == start.countries
    assert np.array_equal(final.x, x_ref)
    assert np.array_equal(final.y, ys[-1])
    assert np.array_equal(final.p, start.p)
    return trace


def check_against_reference(initial, cfg):
    """run_to_steady, then run_recovery from its steady state, each
    against the reference."""
    i = initial.index(cfg.epicenter)
    shocked = initial.y.copy()
    shocked[i] *= 1.0 - cfg.shock_fraction
    shock = check_run(lambda: shockprop.run_to_steady(initial, cfg),
                      initial, shocked, cfg)
    if shock is None:
        return
    steady = shock.final_state
    restored = steady.y.copy()
    restored[i] = initial.y[i]
    check_run(lambda: shockprop.run_recovery(steady, float(initial.y[i]), cfg),
              steady, restored, cfg)


class TestReferenceTrace:
    """The iteration carries plain arrays and each step's export row sums;
    every step must equal the reference's, which rebuilds both."""

    @settings(max_examples=150, deadline=None)
    @given(n=hs.integers(2, 40), seed=hs.integers(0, 2**32 - 1),
           zero_frac=hs.floats(0.0, 0.5),
           log_tol=hs.floats(-13.0, -5.0), max_steps=hs.integers(1, 600),
           shock=hs.floats(0.001, 0.5), epi=hs.integers(0, 39))
    def test_random_states(self, n, seed, zero_frac, log_tol, max_steps,
                           shock, epi):
        state = random_state(np.random.default_rng(seed), n,
                             zero_rows=round(zero_frac * n))
        cfg = ShockConfig(epicenter=f"C{epi % n:02d}", shock_fraction=shock,
                          tolerance=10.0 ** log_tol, max_steps=max_steps)
        check_against_reference(state, cfg)

    def test_matched_pairs(self):
        cfg = ShockConfig(epicenter="C00")
        for seed in range(5):
            pair = synthetic.matched_block_pair(seed)
            for which in ("uniform", "modular"):
                check_against_reference(pair.state(which), cfg)

    def test_fixture_years(self, fixtures_dir):
        cfg = ShockConfig(epicenter="USA")
        for state in fixture_states(fixtures_dir):
            check_against_reference(state, cfg)

    def test_lognormal_n150(self):
        state = random_state(np.random.default_rng(150), 150)
        check_against_reference(state, ShockConfig(epicenter="C07"))

    def test_max_steps_exhausted(self):
        state = synthetic.matched_block_pair(1).state("modular")
        cfg = ShockConfig(epicenter="C00", max_steps=7)
        shocked = state.y.copy()
        shocked[0] *= 1.0 - cfg.shock_fraction
        _, _, outcome = helpers.reference_shock_trace(
            state.x, state.y, shocked, state.p, max_steps=7)
        assert outcome == "no convergence"
        assert check_run(lambda: shockprop.run_to_steady(state, cfg),
                         state, shocked, cfg) is None

    @pytest.mark.parametrize("q, passing", [(1.5, 7), (2.0, 4)])
    def test_degenerate_at_reference_step(self, q, passing):
        # two countries that each export q times their GDP to the other:
        # with P = q > 1 every step amplifies the partner's fall, until a
        # GDP leaves the positive domain after some steps have passed
        state = EconomyState.from_exports(
            ("C00", "C01"), np.ones(2), np.array([[0.0, q], [q, 0.0]]))
        cfg = ShockConfig(epicenter="C00")
        shocked = state.y.copy()
        shocked[0] *= 1.0 - cfg.shock_fraction
        ys, _, outcome = helpers.reference_shock_trace(
            state.x, state.y, shocked, state.p)
        assert (outcome, len(ys)) == ("degenerate", passing)
        with pytest.raises(errors.Degenerate,
                           match="left the finite positive domain"):
            shockprop.run_to_steady(state, cfg)
        # raises Degenerate on the reference's failing step
        check_against_reference(state, cfg)

    @staticmethod
    def with_row(row, values, seed=3, n=6):
        """random_state with row `row` of the exports replaced by values
        (column -> export), P recomputed from the new row sums."""
        st = random_state(np.random.default_rng(seed), n)
        x = st.x.copy()
        x[row] = 0.0
        for col, value in values.items():
            x[row, col] = value
        return EconomyState.from_exports(st.countries, st.y, x)

    def test_row_sum_underflows_to_zero(self):
        # the only export goes to the epicenter and is the smallest
        # subnormal: every row sum is > 0 at step 1, then this one is 0
        state = self.with_row(2, {0: 5e-324})
        cfg = ShockConfig(epicenter="C00", shock_fraction=0.6)
        assert 5e-324 * (1.0 - cfg.shock_fraction) == 0.0
        check_against_reference(state, cfg)

    @pytest.mark.parametrize("values", [{0: -2.0, 1: 1.0}, {0: 1.0, 1: -1.0}])
    def test_negative_exports_with_sum_not_positive(self, values):
        state = self.with_row(2, values)
        assert state.x[2].sum() <= 0
        check_against_reference(state, ShockConfig(epicenter="C00"))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_export_raises_at_first_step(self, bad):
        # an inf export makes its row sum inf, still > 0, so that step
        # skips the scan of X(t) and inf / inf makes the ratio NaN; a NaN
        # export makes its row sum NaN, so that step scans X(t)
        state = self.with_row(2, {0: 1.0, 1: bad, 3: 2.0})
        cfg = ShockConfig(epicenter="C00")
        shocked = state.y.copy()
        shocked[0] *= 1.0 - cfg.shock_fraction
        with np.errstate(invalid="ignore"):  # inf / inf in the ratio
            ys, _, outcome = helpers.reference_shock_trace(
                state.x, state.y, shocked, state.p)
            assert (outcome, len(ys)) == ("degenerate", 0)
            check_against_reference(state, cfg)

    @pytest.mark.parametrize("max_steps", [1, 3])
    def test_no_convergence_reports_last_change(self, max_steps):
        state = synthetic.matched_block_pair(1).state("modular")
        cfg = ShockConfig(epicenter="C00", max_steps=max_steps)
        with pytest.raises(errors.NoConvergence) as err:
            shockprop.run_to_steady(state, cfg)
        shocked = state.y.copy()
        shocked[0] *= 1.0 - cfg.shock_fraction
        ys, _, outcome = helpers.reference_shock_trace(
            state.x, state.y, shocked, state.p, max_steps=max_steps)
        assert outcome == "no convergence"
        before, last = ([shocked] + ys)[-2:]
        change = max(abs(float(a) - float(b)) / float(b)
                     for a, b in zip(last, before))
        assert str(err.value) == (
            f"shock: no steady state after {max_steps} steps: max relative change"
            f" {change:.2g} >= tolerance 1e-10")


class TestDynamics:
    """Properties of the dynamics that follow from the update rule."""

    @pytest.mark.parametrize("seed", range(4))
    def test_exports_telescope(self, seed):
        # X_ij(t) = X_ij(t-1) Y_j(t)/Y_j(t-1), so X(t) = X(0) Y(t)/Y(0)
        rng = np.random.default_rng(seed)
        st = random_state(rng, int(rng.integers(2, 30)), zero_rows=seed)
        x, ex, y_prev, y = st.x, st.x.sum(axis=1), st.y, st.y.copy()
        y[0] *= 1.0 - 0.054
        for _ in range(200):
            x, ex, y_next, delta = shockprop.step(x, ex, y_prev, y, st.p)
            assert delta == np.max(np.abs(y_next - y) / y)
            np.testing.assert_allclose(x, st.x * (y / st.y), rtol=1e-12)
            y_prev, y = y, y_next

    @pytest.mark.parametrize("c", [0.2, 0.4, 0.7])
    @pytest.mark.parametrize("seed", range(3))
    def test_uniform_openness_increment_ratio(self, seed, c):
        # linearized, the growth rates follow v(t+1) = c S v(t) with S
        # row-stochastic, whose leading eigenvalue is c; the ratio is read
        # once the transient has died but before rounding dominates
        rng = np.random.default_rng(seed)
        n = 12
        share = rng.random((n, n))
        np.fill_diagonal(share, 0.0)
        share /= share.sum(axis=1, keepdims=True)
        y = rng.lognormal(5.0, 1.0, n)
        state = EconomyState(tuple(f"C{i:02d}" for i in range(n)), y,
                             (c * y)[:, None] * share, np.full(n, c))
        trace = shockprop.run_to_steady(
            state, ShockConfig(epicenter="C00", tolerance=1e-14))
        w = trace.world_gdp
        dw = np.diff(w)
        late = int(np.argmax(np.abs(dw) < 1e-9 * w[0]))
        assert late > 1
        assert dw[late] / dw[late - 1] == pytest.approx(c, abs=1e-5)


def scaled_modular_pair(exponent):
    """matched_block_pair(0)'s modular state with GDP and exports in a unit
    2**exponent times smaller; a power of two scales every value exactly,
    so P is unchanged bit for bit."""
    base = synthetic.matched_block_pair(0).state("modular")
    scale = 2.0**exponent
    state = EconomyState.from_exports(base.countries, base.y * scale, base.x * scale)
    assert np.array_equal(state.p, base.p)
    return state


class TestCurrencyUnit:
    """The update is unit-free: results do not depend on the currency
    unit of the GDP and export inputs."""

    @pytest.mark.parametrize("exponent", [-10, 10])
    def test_multiplicative_traces_scale_exactly(self, exponent):
        cfg = ShockConfig(epicenter="C00")
        base = shockprop.run_to_steady(scaled_modular_pair(0), cfg)
        scaled = shockprop.run_to_steady(scaled_modular_pair(exponent), cfg)
        assert len(base.steps) == len(scaled.steps) == 100
        for y, y_scaled in zip(base.steps, scaled.steps):
            assert np.array_equal(y * 2.0**exponent, y_scaled)
        assert (shockprop.impact_ratio(scaled, "C00")
                == shockprop.impact_ratio(base, "C00"))


def test_structure_response_script_prints_recorded_text(package_env):
    # scripts/run_structure_response_2.txt was printed by the script before
    # it ran its scenarios through shockprop.shock_and_recover
    scripts = pathlib.Path(__file__).resolve().parents[1] / "scripts"
    proc = subprocess.run(
        [sys.executable, str(scripts / "run_structure_response.py"), "2"],
        capture_output=True, text=True, env=package_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (scripts / "run_structure_response_2.txt").read_text()
