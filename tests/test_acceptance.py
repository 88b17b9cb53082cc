"""End-to-end acceptance gate.

Each test covers one numbered criterion, checks the stated tolerance and
runtime budget, and prints a single PASS/FAIL line (visible with -s or in
the captured-output section on failure).
"""

import filecmp
import itertools
import time

import numpy as np

import helpers
from tradetopo import cli, hclust, ingest, metrics, shockprop, stats, synthetic
from tradetopo.hclust import CondensedDistances
from tradetopo.shockprop import ShockConfig


def report(num, label, ok, elapsed):
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {verdict} ({elapsed * 1e3:8.2f} ms)  {label}")
    assert ok, f"criterion {num}: {label}"


def ccc_of_condensed(values):
    d = CondensedDistances(n=3, values=np.asarray(values, dtype=float))
    return metrics.ccc(d, hclust.cophenetic(hclust.average_linkage(d)))


def test_01_ccc_fixture():
    ccc_of_condensed([1.0, 4.0, 5.0])  # warm up numpy dispatch
    t0 = time.perf_counter()
    value = ccc_of_condensed([1.0, 4.0, 5.0])
    elapsed = time.perf_counter() - t0
    oracle = helpers.pearson_direct([1.0, 4.0, 5.0], [1.0, 4.5, 4.5])
    expected = 7.0 / np.sqrt(52.0)
    ok = (
        abs(value - expected) <= 1e-12
        and abs(oracle - expected) <= 1e-12
        and elapsed < 1e-3
    )
    report(1, "three-leaf CCC equals 7/sqrt(52) within 1e-12, < 1 ms", ok, elapsed)


def test_02_ultrametric_reconstruction():
    rng = np.random.default_rng(20240817)
    t0 = time.perf_counter()
    ok = True
    for _ in range(100):
        n = int(rng.integers(3, 13))
        values = helpers.random_ultrametric(rng, n)
        d = CondensedDistances(n=n, values=values)
        dend = hclust.average_linkage(d)
        c = hclust.cophenetic(dend)
        ok &= bool(np.max(np.abs(c.values - d.values)) <= 1e-9)
        ok &= abs(metrics.ccc(d, c) - 1.0) <= 1e-9
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    report(2, "100 random ultrametrics reconstructed exactly, CCC = 1", ok, elapsed)


def test_03_monotone_heights_and_ultrametricity():
    from scipy.spatial.distance import squareform

    rng = np.random.default_rng(3)
    t0 = time.perf_counter()
    ok = True
    for _ in range(1000):
        n = int(rng.integers(3, 21))
        values = rng.uniform(0.0, 10.0, size=n * (n - 1) // 2)
        dend = hclust.average_linkage(CondensedDistances(n=n, values=values))
        heights = [m.height for m in dend.merges]
        ok &= all(a <= b + 1e-12 for a, b in zip(heights, heights[1:]))
        c = squareform(hclust.cophenetic(dend).values)
        for j in range(n):
            bound = np.maximum(c[:, j][:, None], c[j, :][None, :])
            ok &= bool(np.all(c <= bound + 1e-12))
        if not ok:
            break
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5.0
    report(3, "1000 random matrices: nondecreasing heights, ultrametric output",
           ok, elapsed)


def test_04_invariance_suite():
    rng = np.random.default_rng(4)
    t0 = time.perf_counter()
    ok = True
    for _ in range(200):
        n = int(rng.integers(3, 10))
        m = rng.uniform(0.1, 50.0, size=(n, n))
        m = m + m.T
        np.fill_diagonal(m, 0.0)

        def ccc_of_matrix(mat):
            iu = np.triu_indices(mat.shape[0], k=1)
            upper = mat[iu]
            d = CondensedDistances(n=mat.shape[0], values=upper.max() - upper)
            return metrics.ccc(d, hclust.cophenetic(hclust.average_linkage(d)))

        base = ccc_of_matrix(m)
        for k in (1e-3, 1.0, 1e6):
            ok &= abs(ccc_of_matrix(k * m) - base) <= 1e-9
        perm = rng.permutation(n)
        ok &= ccc_of_matrix(m[np.ix_(perm, perm)]) == base
        if not ok:
            break
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 2.0
    report(4, "CCC invariant under scaling (1e-9) and relabeling (exact)",
           ok, elapsed)


def test_05_two_country_shock_fixture():
    panel = ingest.parse_trade_csv(helpers.trade_csv(
        [(2007, "USA", "WLD", 10.0), (2007, "WLD", "USA", 10.0)]
    ))
    gdp = {(2007, "USA"): 100.0, (2007, "WLD"): 100.0}
    cfg = ShockConfig(epicenter="USA", shock_fraction=0.054)
    initial = shockprop.year_state(2007, *ingest.directed_flows(panel, 2007), gdp)
    shockprop.run_to_steady(initial, cfg)  # warm up
    t0 = time.perf_counter()
    trace = shockprop.run_to_steady(initial, cfg)
    elapsed = time.perf_counter() - t0
    # trace.steps[t] holds Y(t); hand iterates index time the same way
    y_w_2 = trace.steps[2][1]
    y_u_3 = trace.steps[3][0]
    us, ws = helpers.two_country_shock_oracle(100.0, 100.0, 10.0, 0.1, 0.054)
    ok = (
        abs(y_w_2 - 99.46) <= 1e-12
        and abs(y_u_3 - 94.548916) <= 1e-12
        and abs(trace.steps[-1][0] - us[-1]) <= 1e-9 * abs(us[-1])
        and abs(trace.steps[-1][1] - ws[-1]) <= 1e-9 * abs(ws[-1])
        and elapsed < 1e-2
    )
    report(5, "two-country hand iterates at 1e-12 and oracle steady state at 1e-9",
           ok, elapsed)


def test_06_zero_propagation():
    t0 = time.perf_counter()
    countries = ("AAA", "BBB", "CCC", "DDD")
    y = np.array([50.0, 20.0, 20.0, 10.0])
    state = shockprop.EconomyState(
        countries=countries, y=y, x=np.zeros((4, 4)), p=np.zeros(4)
    )
    # dyadic shock fraction keeps every operation exact in binary floats
    cfg = ShockConfig(epicenter="AAA", shock_fraction=0.5)
    trace = shockprop.run_to_steady(state, cfg)
    share = 50.0 / 100.0
    ok = (
        shockprop.world_gdp_change(trace) == -cfg.shock_fraction * share
        and shockprop.impact_ratio(trace, "AAA") == 0.0
    )
    elapsed = time.perf_counter() - t0
    report(6, "zero trade: world change = -s * share and impact ratio = 0, exact",
           ok, elapsed)


def test_07_structure_response():
    t0 = time.perf_counter()
    wins_ccc = wins_loss = wins_lam = 0
    cfg = ShockConfig(epicenter="C00")
    for seed in range(20):
        pair = synthetic.matched_block_pair(seed)
        out = {}
        for which in ("uniform", "modular"):
            net = pair.network(which)
            shock = shockprop.run_to_steady(pair.state(which), cfg)
            rec = shockprop.run_recovery(shock.final_state, 100.0, cfg)
            out[which] = (
                metrics.ccc_of_network(net).ccc,
                abs(shockprop.world_gdp_change(shock)),
                shockprop.fit_recovery(rec).lam,
            )
        wins_ccc += out["modular"][0] > out["uniform"][0]
        wins_loss += out["modular"][1] < out["uniform"][1]
        wins_lam += out["modular"][2] > out["uniform"][2]
    elapsed = time.perf_counter() - t0
    ok = min(wins_ccc, wins_loss, wins_lam) >= 18 and elapsed < 30.0
    report(
        7,
        f"modular beats uniform on CCC {wins_ccc}/20, loss {wins_loss}/20, "
        f"lambda {wins_lam}/20 (need >= 18)",
        ok, elapsed,
    )


def test_08_recovery_fit():
    t0 = time.perf_counter()
    t = np.arange(21, dtype=float)
    w = 100.0 - 5.0 * np.exp(-0.3 * t)
    trace = shockprop.SimulationTrace(
        countries=("WLD",), steps=[np.array([v]) for v in w]
    )
    fit = shockprop.fit_recovery(trace)
    ok = (
        abs(fit.lam - 0.3) <= 1e-9
        and abs(fit.a - 5.0) <= 1e-9
        and abs(fit.y_inf - 100.0) <= 1e-9
    )
    elapsed = time.perf_counter() - t0
    report(8, "exact exponential series recovers lambda = 0.3, a = 5 at 1e-9",
           ok, elapsed)


def test_09_ks_suite():
    t0 = time.perf_counter()
    d, p, _ = stats.ks_two_sample([0.1, 0.2, 0.3], [0.1, 0.2, 0.3])
    ok = d == 0.0 and p == 1.0

    a = list(np.arange(7.0))
    b = [v + 100.0 for v in a]
    d, p, _ = stats.ks_two_sample(a, b)
    n_assignments = len(list(itertools.combinations(range(14), 7)))
    ok &= n_assignments == 3432
    ok &= d == 1.0
    ok &= abs(p - helpers.ks_exact_p_enumeration(a, b)) <= 1e-15
    ok &= p == 2 / 3432

    rng = np.random.default_rng(9)
    en = np.sqrt(49.0 / 14.0)
    from scipy.special import kolmogorov

    for _ in range(100):
        u = rng.normal(size=7)
        v = rng.normal(size=7)
        d, p, _ = stats.ks_two_sample(u, v)
        p_asym = min(1.0, float(kolmogorov(en * d)))
        ok &= p / 3 <= p_asym <= p * 3
        if not ok:
            break
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5.0
    report(9, "KS: identical/separated fixtures exact, asymptotic within x3",
           ok, elapsed)


def test_10_cli_determinism(fixtures_dir, tmp_path):
    t0 = time.perf_counter()
    outs = []
    for run_dir in ("first", "second"):
        out = tmp_path / run_dir
        code = cli.main([
            "pipeline",
            "--trade", str(fixtures_dir / "trade.csv"),
            "--gdp", str(fixtures_dir / "gdp.csv"),
            "--recessions", str(fixtures_dir / "recessions.csv"),
            "--out", str(out),
        ])
        assert code == 0
        outs.append(out)
    elapsed = time.perf_counter() - t0
    names = sorted(p.name for p in outs[0].iterdir())
    ok = names == sorted(p.name for p in outs[1].iterdir()) and len(names) > 0
    match, mismatch, errors_ = filecmp.cmpfiles(
        outs[0], outs[1], names, shallow=False
    )
    ok &= not mismatch and not errors_ and sorted(match) == names
    ok &= elapsed < 10.0
    report(10, f"pipeline run twice: {len(names)} files byte-identical",
           ok, elapsed)
