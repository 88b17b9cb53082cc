import numpy as np
import pytest

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


CFG = ShockConfig(epicenter="USA", shock_fraction=0.054)


class TestInitState:
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


class TestApplyShock:
    def test_fraction(self):
        shocked = shockprop.apply_shock(two_country_state(), CFG)
        assert shocked.y[0] == pytest.approx(94.6, abs=1e-12)
        assert shocked.y[1] == 100.0

    def test_small_fraction_limit(self):
        st = two_country_state()
        shocked = shockprop.apply_shock(
            st, ShockConfig(epicenter="USA", shock_fraction=1e-12)
        )
        assert shocked.y[0] == pytest.approx(100.0, rel=1e-11)

    def test_unknown_epicenter(self):
        with pytest.raises(errors.Degenerate, match="'XXX' not in state"):
            shockprop.apply_shock(
                two_country_state(), ShockConfig(epicenter="XXX")
            )

    def test_restore_before_stepping_recovers_initial(self):
        st = two_country_state()
        shocked = shockprop.apply_shock(st, CFG)
        y = shocked.y.copy()
        y[0] = st.y[0]
        assert np.array_equal(y, st.y)


class TestStep:
    def test_first_hand_iterate(self):
        st = two_country_state()
        shocked = shockprop.apply_shock(st, CFG)
        nxt = shockprop.step(st, shocked)
        # exports toward the epicenter shrink with its GDP
        assert nxt.x[1, 0] == pytest.approx(9.46, abs=1e-12)
        assert nxt.x[0, 1] == pytest.approx(10.0, abs=1e-12)
        assert nxt.y[1] == pytest.approx(99.46, abs=1e-12)
        assert nxt.y[0] == pytest.approx(94.6, abs=1e-12)

    def test_second_hand_iterate(self):
        st = two_country_state()
        shocked = shockprop.apply_shock(st, CFG)
        s2 = shockprop.step(st, shocked)
        prev = EconomyState(st.countries, shocked.y, s2.x, st.p)
        s3 = shockprop.step(prev, s2)
        assert s3.x[0, 1] == pytest.approx(9.946, abs=1e-12)
        assert s3.y[0] == pytest.approx(94.548916, abs=1e-12)

    def test_zero_trade_fixed_point(self):
        st = zero_trade_state()
        nxt = shockprop.step(st, st)
        assert np.array_equal(nxt.y, st.y)

    def test_literal_additive_rule(self):
        st = two_country_state()
        shocked = shockprop.apply_shock(st, CFG)
        s2 = shockprop.step(st, shocked)
        prev = EconomyState(st.countries, shocked.y, s2.x, st.p)
        s3 = shockprop.step(prev, s2, update_rule="literal-additive")
        assert s3.y[0] == pytest.approx(94.6 + 0.1 * (0.9946 - 1.0), abs=1e-12)


class TestRunToSteady:
    def test_zero_trade_converges_immediately(self):
        st = zero_trade_state()
        trace = shockprop.run_to_steady(st, ShockConfig(epicenter="C00"))
        assert trace.converged
        assert len(trace.steps) == 3  # pre-shock, shock, confirming step
        changed = trace.steps[-1] != trace.steps[0]
        assert list(changed) == [True, False, False, False]

    def test_two_country_matches_independent_oracle(self):
        trace = shockprop.run_to_steady(two_country_state(), CFG)
        us, ws = helpers.two_country_shock_oracle(100.0, 100.0, 10.0, 0.1, 0.054)
        assert trace.converged
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
        with pytest.raises(errors.NoConvergence) as err:
            shockprop.run_to_steady(two_country_state(), cfg)
        assert err.value.trace is not None
        assert not err.value.trace.converged
        assert len(err.value.trace.steps) == 52

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

    def test_not_converged(self):
        trace = SimulationTrace(("A",), [np.array([1.0])], converged=False)
        with pytest.raises(errors.Degenerate, match="did not reach steady state"):
            shockprop.world_gdp_change(trace)


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
        trace = SimulationTrace(
            ("AAA",), [np.array([100.0]), np.array([90.0])], converged=True
        )
        with pytest.raises(errors.Degenerate, match="needs at least 2 countries"):
            shockprop.impact_ratio(trace, "AAA")

    def test_zero_epicenter_change(self):
        trace = SimulationTrace(
            ("AAA", "BBB"),
            [np.array([100.0, 50.0]), np.array([100.0, 50.0])],
            converged=True,
        )
        with pytest.raises(errors.Degenerate, match="epicenter GDP did not change"):
            shockprop.impact_ratio(trace, "AAA")


class TestRunRecovery:
    def test_zero_trade_restores_world(self):
        st = zero_trade_state()
        cfg = ShockConfig(epicenter="C00")
        shock = shockprop.run_to_steady(st, cfg)
        rec = shockprop.run_recovery(shock.final_state, float(st.y[0]), cfg)
        assert rec.converged
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
        assert rec.converged
        assert np.allclose(rec.world_gdp, rec.world_gdp[0])


class TestFitRecovery:
    def make_trace(self, w):
        return SimulationTrace(
            ("A",), [np.array([v]) for v in w], converged=True
        )

    def test_recovers_generating_model(self):
        t = np.arange(21)
        fit = shockprop.fit_recovery(self.make_trace(100 - 5 * np.exp(-0.3 * t)))
        assert fit.lam == pytest.approx(0.3, abs=1e-9)
        assert fit.a == pytest.approx(5.0, abs=1e-9)
        assert fit.y_inf == pytest.approx(100.0, abs=1e-9)

    def test_flat_trace(self):
        with pytest.raises(errors.Degenerate, match="only 0 points below"):
            shockprop.fit_recovery(self.make_trace(np.full(10, 50.0)))

    def test_two_country_recovery_rate_positive(self):
        st = two_country_state()
        shock = shockprop.run_to_steady(st, CFG)
        rec = shockprop.run_recovery(shock.final_state, 100.0, CFG)
        assert shockprop.fit_recovery(rec).lam > 0

    def test_not_converged(self):
        trace = SimulationTrace(("A",), [np.array([1.0])], converged=False)
        with pytest.raises(errors.Degenerate, match="did not reach steady state"):
            shockprop.fit_recovery(trace)


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
