import csv
import hashlib
import json
import math
import os
import stat
import subprocess
import sys
import weakref

import numpy as np
import pytest

import helpers
from tradetopo import cli, errors, ingest, metrics, pipeline, shockprop, stats

TRADE3 = """year,reporter,partner,value_usd
2000,AAA,BBB,3
2000,BBB,AAA,2
2000,AAA,CCC,2
2000,CCC,BBB,1
2001,AAA,BBB,4
2001,BBB,CCC,3
2001,AAA,CCC,1
"""

GDP3 = """year,country,gdp_usd
2000,AAA,100
2000,BBB,100
2000,CCC,100
2001,AAA,110
2001,BBB,105
2001,CCC,102
"""


@pytest.fixture
def small_inputs(tmp_path):
    trade = tmp_path / "trade.csv"
    trade.write_text(TRADE3)
    gdp = tmp_path / "gdp.csv"
    gdp.write_text(GDP3)
    return trade, gdp


def run(*argv):
    return cli.main([str(a) for a in argv])


class TestCccSeries:
    """pipeline's ccc_series.csv, and its total and ratio tables with GDP."""

    def test_two_year_series(self, small_inputs, tmp_path):
        trade, gdp = small_inputs
        out = tmp_path / "out"
        assert run("pipeline", "--trade", trade, "--out", out) == 0
        lines = (out / "ccc_series.csv").read_text().splitlines()
        assert lines[0] == "year,ccc,n_countries"
        assert [ln.split(",")[0] for ln in lines[1:]] == ["2000", "2001"]

    def test_inserts_written_with_gdp(self, small_inputs, tmp_path):
        trade, gdp = small_inputs
        out = tmp_path / "out"
        assert run("pipeline", "--trade", trade, "--gdp", gdp, "--epicenter", "AAA",
                   "--out", out) == 0
        assert (out / "trade_gdp_ratio.csv").exists()
        assert (out / "total_trade.csv").exists()
        row = (out / "total_trade.csv").read_text().splitlines()[1]
        assert row == "2000,8"

    def test_missing_file_exit_2(self, tmp_path):
        assert run("pipeline", "--trade", tmp_path / "nope.csv",
                   "--out", tmp_path / "o") == 2

    def test_parse_error_exit_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("year,reporter,partner,value_usd\n2000,AAA,BBB,x\n")
        assert run("pipeline", "--trade", bad, "--out", tmp_path / "o") == 2

    def test_all_degenerate_exit_3(self, tmp_path):
        trade = tmp_path / "trade.csv"
        trade.write_text("year,reporter,partner,value_usd\n2000,AAA,BBB,3\n")
        assert run("pipeline", "--trade", trade, "--out", tmp_path / "o") == 3

    def test_run_panel_without_config_runs_no_fig4(self, small_inputs):
        trade, gdp = small_inputs
        run = pipeline.run_panel(cli.load_trade(trade),
                                 cli.load(ingest.parse_gdp_csv, gdp))
        assert run.totals[0] == (2000, 8.0)
        assert [year for year, _ in run.ratios] == [2000, 2001]
        assert (run.fig4, run.failures, run.shift) == (None, [], None)

    @staticmethod
    def six_country_years(year_2000_value, scale=1):
        """Trade CSV for 1999-2001 over six countries: flows 1-100, except
        year_2000_value(reporter, partner) in 2000 where it is not None;
        every flow times scale."""
        rng = np.random.default_rng(6)
        lines = ["year,reporter,partner,value_usd"]
        countries = ["AAA", "BBB", "CCC", "DDD", "EEE", "FFF"]
        for year in (1999, 2000, 2001):
            for a in countries:
                for b in countries:
                    if a == b:
                        continue
                    value = year_2000_value(a, b) if year == 2000 else None
                    if value is None:
                        value = int(rng.integers(1, 101))
                    lines.append(f"{year},{a},{b},{value * scale!r}")
        return "\n".join(lines) + "\n"

    # unscaled, the first would overflow an average-linkage update and the
    # second the sums of squares behind the CCC's variances
    HUGE = {
        "linkage_update": lambda a, b: 8.5e307 if {a, b} == {"AAA", "BBB"} else None,
        "variance": lambda a, b: 2e307 + 2.4e306 * ((ord(a[0]) * 7 + ord(b[0])) % 11),
    }

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("case", HUGE)
    def test_huge_year_same_as_scaled(self, case, tmp_path, caplog):
        texts, cccs = [], []
        for k, scale in enumerate([1, 2.0**-1000]):
            trade = tmp_path / f"trade{k}.csv"
            trade.write_text(self.six_country_years(self.HUGE[case], scale))
            out = tmp_path / f"out{k}"
            with caplog.at_level("WARNING"):
                assert run("pipeline", "--trade", trade, "--out", out) == 0
            texts.append((out / "ccc_series.csv").read_text())
            net = ingest.build_network(cli.load_trade(trade), 2000)
            cccs.append(metrics.ccc_of_network(net).ccc)
        rows = texts[0].splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["1999", "2000", "2001"]
        assert all(row.split(",")[2] == "6" for row in rows)
        assert texts[0] == texts[1]
        assert np.isfinite(cccs[0]) and cccs[0] == cccs[1]
        assert "skipping" not in caplog.text

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_year_skipped(self, tmp_path, caplog):
        # every row is finite, but 2000's AAA-BBB sum is not
        trade = tmp_path / "trade.csv"
        trade.write_text(
            "year,reporter,partner,value_usd\n"
            "2000,AAA,BBB,1e308\n2000,BBB,AAA,1e308\n2000,AAA,CCC,1\n"
            "2001,AAA,BBB,4\n2001,BBB,CCC,3\n2001,AAA,CCC,1\n"
        )
        out = tmp_path / "out"
        with caplog.at_level("WARNING"):
            assert run("pipeline", "--trade", trade, "--out", out) == 0
        rows = (out / "ccc_series.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["2001"]
        assert "bilateral trade of year 2000 overflows" in caplog.text
        assert run("dendrogram", "--trade", trade, "--year", 2000,
                   "--out", tmp_path / "dendrogram") == 3


class TestDendrogram:
    def test_newick_fixture(self, tmp_path):
        trade = tmp_path / "trade.csv"
        # symmetrized M: AB=5, AC=2, BC=1 -> derived 3-leaf tree
        trade.write_text(
            "year,reporter,partner,value_usd\n"
            "2000,AAA,BBB,3\n2000,BBB,AAA,2\n2000,AAA,CCC,2\n2000,CCC,BBB,1\n"
        )
        out = tmp_path / "out"
        assert run("dendrogram", "--trade", trade, "--year", 2000,
                   "--out", out) == 0
        newick = (out / "tree_2000.nwk").read_text().strip()
        # d = (0, 3, 4): A,B merge at 0, C joins at (3+4)/2 = 3.5
        assert newick == "((AAA:0,BBB:0):1.75,CCC:1.75);"
        clusters = (out / "clusters_2000.csv").read_text().splitlines()
        assert clusters[0] == "country,cluster"

    def test_cut_one(self, small_inputs, tmp_path):
        trade, _ = small_inputs
        out = tmp_path / "out"
        assert run("dendrogram", "--trade", trade, "--year", 2000,
                   "--cut", 1, "--out", out) == 0
        rows = (out / "clusters_2000.csv").read_text().splitlines()[1:]
        assert {r.split(",")[1] for r in rows} == {"1"}

    def test_year_absent_exit_3(self, small_inputs, tmp_path):
        trade, _ = small_inputs
        assert run("dendrogram", "--trade", trade, "--year", 1900,
                   "--out", tmp_path / "o") == 3

    def test_cut_zero_writes_nothing(self, small_inputs, tmp_path, capsys):
        trade, _ = small_inputs
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run("dendrogram", "--trade", trade, "--year", 2000,
                "--cut", 0, "--out", out)
        assert exc.value.code == 2
        assert ("error: argument --cut: must be positive, got '0'"
                in capsys.readouterr().err)
        assert not out.exists() or list(out.iterdir()) == []

    # SHA-256 of the fixture's year 2000 at the default --cut, as written
    # when the share matrix had its own command
    FIXTURE_2000 = {
        "clusters_2000.csv":
            "5a29aab5235f8536186f2413d42aeaa82f9446e5c86196c7a34ee6f559e5c0d7",
        "share_matrix_2000.csv":
            "578fbc9f30f47fdeaa7d835f97bf711174fb29c5ee7a25429565e516ac546333",
        "tree_2000.nwk":
            "405c89db13581ff01a5da3a2ba79261e660f1297727e13eb34fc271614b48657",
    }

    def test_fixture_digests(self, fixtures_dir, tmp_path):
        out = tmp_path / "out"
        assert run("dendrogram", "--trade", fixtures_dir / "trade.csv",
                   "--year", 2000, "--out", out) == 0
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in out.iterdir()}
        assert digests == self.FIXTURE_2000


class TestShareMatrix:
    def test_matrix_written(self, small_inputs, tmp_path):
        trade, _ = small_inputs
        out = tmp_path / "out"
        assert run("dendrogram", "--trade", trade, "--year", 2000,
                   "--out", out) == 0
        lines = (out / "share_matrix_2000.csv").read_text().splitlines()
        header = lines[0].split(",")[1:]
        assert sorted(header) == ["AAA", "BBB", "CCC"]


class TestShock:
    def test_summary_matches_library(self, small_inputs, tmp_path):
        trade, gdp = small_inputs
        out = tmp_path / "out"
        assert run("shock", "--trade", trade, "--gdp", gdp, "--year", 2000,
                   "--epicenter", "AAA", "--out", out) == 0
        summary = json.loads((out / "shock_summary_2000.json").read_text())
        assert summary["converged"] is True
        assert summary["world_gdp_change"] < 0
        trace = (out / "shock_trace_2000.csv").read_text().splitlines()
        assert trace[0] == "step,country,gdp"
        assert trace[1].startswith("0,AAA,")

    def test_zero_trade_impact_ratio(self, tmp_path):
        trade = tmp_path / "trade.csv"
        # one-way flow: BBB never exports, AAA exports to BBB
        trade.write_text(
            "year,reporter,partner,value_usd\n2000,BBB,AAA,0\n2000,CCC,AAA,0\n"
            "2000,AAA,BBB,0\n"
        )
        gdp = tmp_path / "gdp.csv"
        gdp.write_text("year,country,gdp_usd\n2000,AAA,100\n2000,BBB,100\n"
                       "2000,CCC,100\n")
        out = tmp_path / "out"
        assert run("shock", "--trade", trade, "--gdp", gdp, "--year", 2000,
                   "--epicenter", "AAA", "--out", out) == 0
        summary = json.loads((out / "shock_summary_2000.json").read_text())
        assert summary["impact_ratio"] == 0.0

    def test_max_steps_exit_4_with_partial_trace(self, small_inputs, tmp_path,
                                                 capsys):
        # a stalled run writes nothing, its partial trace included
        trade, gdp = small_inputs
        out = tmp_path / "out"
        assert run("shock", "--trade", trade, "--gdp", gdp, "--year", 2000,
                   "--epicenter", "AAA", "--max-steps", 1, "--out", out) == 4
        assert "error: shock: no steady state after 1 steps" in (
            capsys.readouterr().err)
        assert not out.exists()


class TestRecover:
    def test_summary_fields(self, small_inputs, tmp_path):
        trade, gdp = small_inputs
        out = tmp_path / "out"
        assert run("recover", "--trade", trade, "--gdp", gdp, "--year", 2000,
                   "--epicenter", "AAA", "--out", out) == 0
        summary = json.loads((out / "recovery_summary_2000.json").read_text())
        assert set(summary) == {
            "world_gdp_change", "impact_ratio", "lambda", "a", "y_inf",
            "steps", "converged",
        }
        assert summary["lambda"] > 0

    def recover_fixture(self, fixtures_dir, out, year, max_steps):
        return run("recover", "--trade", fixtures_dir / "trade.csv",
                   "--gdp", fixtures_dir / "gdp.csv", "--year", year,
                   "--max-steps", max_steps, "--out", out)

    def test_shock_phase_stalls(self, fixtures_dir, tmp_path, capsys):
        out = tmp_path / "out"
        assert self.recover_fixture(fixtures_dir, out, 2000, 1) == 4
        assert "error: shock: no steady state after 1 steps" in (
            capsys.readouterr().err)
        assert not out.exists()

    def test_recovery_phase_stalls(self, fixtures_dir, tmp_path, capsys):
        # the 2005 shock converges in 18 steps, its recovery needs 19
        shock_out, out = tmp_path / "shock", tmp_path / "out"
        assert run("shock", "--trade", fixtures_dir / "trade.csv",
                   "--gdp", fixtures_dir / "gdp.csv", "--year", 2005,
                   "--max-steps", 18, "--out", shock_out) == 0
        capsys.readouterr()
        assert self.recover_fixture(fixtures_dir, out, 2005, 18) == 4
        assert "error: recovery: no steady state after 18 steps" in (
            capsys.readouterr().err)
        assert not out.exists()


class TestScenarioGoldenBytes:
    """SHA-256 of the shock and recover outputs on tests/fixtures, recorded
    before the two commands shared one body and shockprop's scenario."""

    TRACE = {
        "shock":
            "d154cc59074b72670057ef0a4685d1e410282a3b39db4360243e1d866f5ed207",
        "recover":
            "9c6fa9da9704c412a9293ac8c648dca541c9f844f5f665a2690b7e5c0b5705ed",
    }
    SUMMARY = {
        "shock":
            "7c0aa16ff8967506ec3a566722108d8e0e178d6a83abdb7dc386024b33401127",
        "recover":
            "0efa1e3c68ef0893b7c0f6f1e0670ac515b2868a1b91895ebc99776fdc5e5e2c",
    }

    def run_fixture(self, fixtures_dir, out, command, *options):
        return run(command, "--trade", fixtures_dir / "trade.csv",
                   "--gdp", fixtures_dir / "gdp.csv", *options, "--out", out)

    @staticmethod
    def digests(out):
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in out.iterdir()}

    @pytest.mark.parametrize("command", TRACE, ids=["shock-csv", "recover-csv"])
    def test_output_bytes(self, command, fixtures_dir, tmp_path):
        out = tmp_path / "out"
        assert self.run_fixture(fixtures_dir, out, command, "--year", 2003) == 0
        phase = "shock" if command == "shock" else "recovery"
        assert self.digests(out) == {
            f"{phase}_trace_2003.csv": self.TRACE[command],
            f"{phase}_summary_2003.json": self.SUMMARY[command],
        }


class TestRecessionsTest:
    """pipeline's recessions_test.json."""

    def test_output(self, fixtures_dir, tmp_path):
        out = tmp_path / "out"
        assert run("pipeline",
                   "--trade", fixtures_dir / "trade.csv",
                   "--recessions", fixtures_dir / "recessions.csv",
                   "--out", out) == 0
        result = json.loads((out / "recessions_test.json").read_text())
        assert set(result) == {"D", "p", "method", "before", "after",
                               "one_sided_p"}
        assert len(result["before"]) == 2
        # the same file as with --gdp on the same inputs
        assert (hashlib.sha256((out / "recessions_test.json").read_bytes()).hexdigest()
                == TestPipeline.GOLDEN["recessions_test.json"])

    def test_window_outside_series_exit_3(self, small_inputs, tmp_path):
        trade, _ = small_inputs
        rec = tmp_path / "rec.csv"
        rec.write_text("label,start,end\nw,1980-01,1980-12\n")
        assert run("pipeline", "--trade", trade, "--recessions", rec,
                   "--out", tmp_path / "o") == 3

    def test_header_only_file_exit_3(self, small_inputs, tmp_path, capsys):
        trade, _ = small_inputs
        rec = tmp_path / "rec.csv"
        rec.write_text("label,start,end\n")
        assert run("pipeline", "--trade", trade, "--recessions", rec,
                   "--out", tmp_path / "o") == 3
        assert "no recession windows" in capsys.readouterr().err


class TestRecessionsTestTwelveWindows:
    """Twelve windows, n = m = 12: the KS p stays exact past 10**6 label
    assignments, and no scipy module loads."""

    @pytest.fixture
    def inputs(self, tmp_path):
        rng = np.random.default_rng(0)
        codes = ["AAA", "BBB", "CCC", "DDD"]
        trade = tmp_path / "trade.csv"
        trade.write_text("year,reporter,partner,value_usd\n" + "".join(
            f"{year},{r},{p},{rng.uniform(1, 100):.6f}\n"
            for year in range(1990, 2004) for r in codes for p in codes if r != p))
        # scipy's exact p assumes no value falls in both samples: no two
        # window years are two apart, so no year is both a before and an
        # after year. Each window appears twice.
        rec = tmp_path / "rec.csv"
        rec.write_text("label,start,end\n" + "".join(
            f"w{i},{year}-01,{year}-12\n"
            for i, year in enumerate([1991, 1992, 1995, 1996, 1999, 2000] * 2)))
        return trade, rec

    @pytest.fixture
    def argv(self, inputs, tmp_path):
        trade, rec = inputs
        return ["pipeline", f"--trade={trade}", f"--recessions={rec}",
                f"--out={tmp_path / 'out'}"]

    @staticmethod
    def scipy_modules(code, args, env):
        """The value a child running code with args sets as first, and the
        scipy modules loaded when it is done."""
        proc = subprocess.run(
            [sys.executable, "-c",
             "import json, sys\n" + code +
             "print(json.dumps([first, sorted(m for m in sys.modules\n"
             "                                if m.split('.')[0] == 'scipy')]))",
             *args],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    def test_p_values_equal_scipy_exact(self, argv, tmp_path):
        import scipy.stats

        assert run(*argv) == 0
        result = json.loads((tmp_path / "out" / "recessions_test.json").read_text())
        assert result["method"] == "exact-permutation"
        before, after = result["before"], result["after"]
        assert len(before) == len(after) == 12
        two_sided = scipy.stats.ks_2samp(before, after, method="exact")
        greater = scipy.stats.ks_2samp(before, after, alternative="greater",
                                       method="exact")
        # the file holds %.12g values
        assert result["p"] == pytest.approx(two_sided.pvalue, rel=1e-11)
        assert result["one_sided_p"] == pytest.approx(greater.pvalue, rel=1e-11)

    def test_loads_no_scipy(self, argv, package_env):
        assert self.scipy_modules(
            "from tradetopo.cli import main\n"
            "first = main(json.loads(sys.argv[1]))\n",
            [json.dumps(argv)], package_env) == [0, []]

    def test_run_panel_without_gdp_loads_no_scipy(self, inputs, package_env):
        assert self.scipy_modules(
            "from tradetopo import ingest, pipeline\n"
            "with open(sys.argv[1]) as trade, open(sys.argv[2]) as rec:\n"
            "    run = pipeline.run_panel(ingest.parse_trade_csv(trade),\n"
            "                             windows=ingest.parse_recessions(rec))\n"
            "first = run.shift['method']\n",
            [str(path) for path in inputs], package_env) == ["exact-permutation", []]


class TestPipeline:
    def test_full_fixture_run(self, fixtures_dir, tmp_path):
        out = tmp_path / "out"
        assert run("pipeline",
                   "--trade", fixtures_dir / "trade.csv",
                   "--gdp", fixtures_dir / "gdp.csv",
                   "--recessions", fixtures_dir / "recessions.csv",
                   "--out", out) == 0
        for name in ("ccc_series.csv", "trade_gdp_ratio.csv", "total_trade.csv",
                     "fig4a.csv", "fig4b.csv", "recessions_test.json"):
            assert (out / name).exists(), name
        fig4b = (out / "fig4b.csv").read_text().splitlines()
        assert fig4b[0] == "year,ccc,world_gdp_change,lambda"
        assert len(fig4b) == 13

    def test_without_gdp_degrades(self, fixtures_dir, tmp_path):
        out = tmp_path / "out"
        assert run("pipeline", "--trade", fixtures_dir / "trade.csv",
                   "--out", out) == 0
        assert (out / "ccc_series.csv").exists()
        assert not (out / "fig4a.csv").exists()

    def test_no_valid_years_exit_3(self, fixtures_dir, tmp_path):
        assert run("pipeline", "--trade", fixtures_dir / "trade.csv",
                   "--years", "1900:1901", "--out", tmp_path / "o") == 3

    # SHA-256 of every pipeline output on tests/fixtures, recorded before the
    # pipeline was restructured to parse and aggregate each input once.
    GOLDEN = {
        "ccc_series.csv":
            "2b778cf8ad2e5f647e696730c06deeb854263b7935e89dbd591eb0c091abf561",
        "trade_gdp_ratio.csv":
            "9f2b6a2e2931050b0be646effc2f67848cd8c75be2b27616a80887a17992b7d6",
        "total_trade.csv":
            "68f1e2ecbc9c0fee77054b3d541f08e3f15cd8384d99089335ca43cffdced4a0",
        "fig4a.csv":
            "877aba02ee7149c2ba9784ffe9d4b04233560ac4f0524ac1f8d864e5e0a385ad",
        "fig4b.csv":
            "107c62fb864e348f4eabd3b954fb7920514ee33fa33a8a616f53492d3a0ffd33",
        "recessions_test.json":
            "44fa479d25e4f37d4f63c34be30f02dc74cc48c9b4bcc632f043020a10f21763",
    }

    def run_fixture(self, fixtures_dir, out, **overrides):
        inputs = {"trade": fixtures_dir / "trade.csv",
                  "gdp": fixtures_dir / "gdp.csv",
                  "recessions": fixtures_dir / "recessions.csv", **overrides}
        argv = ["pipeline", "--out", out]
        for name, path in inputs.items():
            argv += [f"--{name}", path]
        return run(*argv)

    def test_golden_output_bytes(self, fixtures_dir, tmp_path):
        out = tmp_path / "out"
        assert self.run_fixture(fixtures_dir, out) == 0
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in out.iterdir()}
        assert digests == self.GOLDEN

    @staticmethod
    def csv_records(path):
        """The data rows of a CSV file below its header, as text fields."""
        with open(path, newline="") as fh:
            return list(csv.reader(fh))[1:]

    @staticmethod
    def oracle_ccc(x):
        """CCC from the definitions: M = X + X^T with a zero diagonal,
        d = M* - M, the delete oracle's tree, its brute cophenetic and the
        lexsort CCC."""
        m = x + x.T
        np.fill_diagonal(m, 0.0)
        n = len(m)
        upper = m[np.triu_indices(n, k=1)]
        d = upper.max() - upper
        merges = helpers.delete_average_linkage(n, d)
        c = helpers.brute_cophenetic(n, [mg[:3] for mg in merges])
        return helpers.lexsort_ccc(d, c)

    def test_ccc_series_equals_composed_oracles(self, fixtures_dir, tmp_path):
        # each year from the definitions: summed flows, then oracle_ccc
        rows = [(int(y), r, p, float(v)) for y, r, p, v
                in self.csv_records(fixtures_dir / "trade.csv")]
        expected = [["year", "ccc", "n_countries"]]
        for year in sorted({row[0] for row in rows}):
            countries, x = helpers.brute_directed_flows(rows, year)
            expected.append([str(year), f"{self.oracle_ccc(x):.12g}",
                             str(len(countries))])
        out = tmp_path / "out"
        assert self.run_fixture(fixtures_dir, out) == 0
        with open(out / "ccc_series.csv", newline="") as fh:
            assert list(csv.reader(fh)) == expected
        assert len(expected) == 13
        series = pipeline.run_panel(cli.load_trade(fixtures_dir / "trade.csv")).series
        assert [[str(p.year), f"{p.ccc:.12g}", str(p.n_countries)]
                for p in series] == expected[1:]

    def test_fig4_equals_composed_oracles(self, fixtures_dir, tmp_path):
        # each year from the definitions: summed flows, the fixture's GDPs
        # and P = X_i / Y_i; the shock at the default epicenter and
        # fraction, then the recovery to its pre-shock GDP, each stepped by
        # the reference trace to the default tolerance; F and the world
        # GDP change from the shock's first and last GDP vectors; lambda
        # from curve_fit on the recovery's world GDP, seeded by a
        # log-linear fit of the points below its last. Where lmdif stops
        # fixes lambda to about 6 digits, hence its bound
        from scipy.optimize import curve_fit
        rows = [(int(y), r, p, float(v)) for y, r, p, v
                in self.csv_records(fixtures_dir / "trade.csv")]
        gdp = {(int(y), c): float(v) for y, c, v
               in self.csv_records(fixtures_dir / "gdp.csv")}
        config = shockprop.ShockConfig(epicenter="USA")
        expected = {}
        for year in sorted({row[0] for row in rows}):
            countries, x = helpers.brute_directed_flows(rows, year)
            y = np.array([gdp[(year, c)] for c in countries])
            p = x.sum(axis=1) / y
            i = countries.index(config.epicenter)
            shocked = y.copy()
            shocked[i] *= 1.0 - config.shock_fraction
            ys, x_steady, outcome = helpers.reference_shock_trace(
                x, y, shocked, p, tol=config.tolerance)
            assert outcome == "converged"
            first, last = y.tolist(), ys[-1].tolist()
            epi = (last[i] - first[i]) / first[i]
            rest_first = math.fsum(first[:i] + first[i + 1:])
            rest_last = math.fsum(last[:i] + last[i + 1:])
            impact = (rest_last - rest_first) / rest_first / epi
            world = (math.fsum(last) - math.fsum(first)) / math.fsum(first)
            restored = ys[-1].copy()
            restored[i] = y[i]
            ys_rec, _, outcome = helpers.reference_shock_trace(
                x_steady, ys[-1], restored, p, tol=config.tolerance)
            assert outcome == "converged"
            w = np.array([math.fsum(v) for v in [ys[-1], restored, *ys_rec]])
            t = np.arange(len(w), dtype=float)
            below = w[-1] - w > 1e-12 * w[-1]
            slope, intercept = np.polyfit(t[below], np.log((w[-1] - w)[below]), 1)
            (_, _, lam), _ = curve_fit(
                lambda t, y_inf, a, lam: y_inf - a * np.exp(-lam * t),
                t, w, p0=(w[-1], np.exp(intercept), -slope), maxfev=10_000)
            expected[year] = (self.oracle_ccc(x), impact, world, lam)
        out = tmp_path / "out"
        assert self.run_fixture(fixtures_dir, out) == 0
        fig4a = self.csv_records(out / "fig4a.csv")
        fig4b = self.csv_records(out / "fig4b.csv")
        assert [r[:2] for r in fig4a] == [r[:2] for r in fig4b]
        written = [(int(year), ccc, float(f), float(change), float(lam))
                   for (year, ccc, f), (*_, change, lam) in zip(fig4a, fig4b)]
        # run_panel's record, unrounded, to the same bounds
        fig4 = pipeline.run_panel(
            cli.load_trade(fixtures_dir / "trade.csv"),
            cli.load(ingest.parse_gdp_csv, fixtures_dir / "gdp.csv"),
            config=config).fig4
        recorded = [(p.year, f"{p.ccc:.12g}", s["impact_ratio"],
                     s["world_gdp_change"], s["lambda"]) for p, s in fig4]
        assert len(expected) == 12
        for rows in (written, recorded):
            assert [r[0] for r in rows] == sorted(expected)
            for year, ccc, f, change, lam in rows:
                want_ccc, want_f, want_change, want_lam = expected[year]
                assert ccc == f"{want_ccc:.12g}"
                assert f == pytest.approx(want_f, rel=1e-11, abs=0)
                assert change == pytest.approx(want_change, rel=1e-11, abs=0)
                assert lam == pytest.approx(want_lam, rel=1e-6, abs=0)

    def test_each_stage_runs_once(self, fixtures_dir, tmp_path, monkeypatch):
        calls = {}

        def count(module, name):
            original = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        count(ingest, "parse_trade_csv")
        count(ingest, "parse_gdp_csv")
        count(metrics, "ccc_series")
        count(shockprop, "shock_and_recover")
        count(stats, "_observed_gaps")
        assert self.run_fixture(fixtures_dir, tmp_path / "out") == 0
        assert calls == {"parse_trade_csv": 1, "parse_gdp_csv": 1,
                         "ccc_series": 1, "shock_and_recover": 12,
                         "_observed_gaps": 1}

    @pytest.mark.skipif(sys.version_info < (3, 11),
                        reason="CPython 3.10 keeps call arguments on the caller's stack")
    def test_parsed_rows_freed_before_the_ccc_series(self, fixtures_dir, tmp_path,
                                                      monkeypatch):
        # pipeline's peak memory rests on this CPython detail: cmd_pipeline
        # passes the parsed panel to run_panel by no name, so the callee's
        # del frees it
        parse, ccc_series, panels, alive = (ingest.parse_trade_csv,
                                            metrics.ccc_series, [], [])

        def parse_and_watch(stream):
            panel = parse(stream)
            panels.append(weakref.ref(panel))
            return panel

        def watched_series(nets):
            alive.append(panels[0]() is not None)
            return ccc_series(nets)

        monkeypatch.setattr(ingest, "parse_trade_csv", parse_and_watch)
        monkeypatch.setattr(metrics, "ccc_series", watched_series)
        assert self.run_fixture(fixtures_dir, tmp_path / "out") == 0
        assert alive == [False]

    def test_missing_gdp_file_writes_nothing(self, fixtures_dir, tmp_path):
        out = tmp_path / "out"
        assert self.run_fixture(fixtures_dir, out,
                                gdp=tmp_path / "nope.csv") == 2
        assert not out.exists() or list(out.iterdir()) == []

    def test_malformed_recessions_writes_nothing(self, fixtures_dir, tmp_path):
        rec = tmp_path / "rec.csv"
        rec.write_text("label,start,end\nbad,2001-13,2002-01\n")
        out = tmp_path / "out"
        assert self.run_fixture(fixtures_dir, out, recessions=rec) == 2
        assert not out.exists() or list(out.iterdir()) == []

    def test_header_only_recessions_writes_nothing(self, fixtures_dir, tmp_path,
                                                   capsys):
        rec = tmp_path / "rec.csv"
        rec.write_text("label,start,end\n")
        out = tmp_path / "out"
        assert self.run_fixture(fixtures_dir, out, recessions=rec) == 3
        assert "no recession windows" in capsys.readouterr().err
        assert not out.exists() or list(out.iterdir()) == []

    @pytest.mark.parametrize("shock", ["1.5", "0"])
    def test_bad_shock_writes_nothing(self, fixtures_dir, tmp_path, shock):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run("pipeline", "--trade", fixtures_dir / "trade.csv",
                "--gdp", fixtures_dir / "gdp.csv", "--shock", shock,
                "--out", out)
        assert exc.value.code == 2
        assert not out.exists() or list(out.iterdir()) == []

    def test_window_outside_series_writes_nothing(self, fixtures_dir, tmp_path):
        rec = tmp_path / "rec.csv"
        rec.write_text("label,start,end\nw,1980-01,1980-12\n")
        out = tmp_path / "out"
        assert self.run_fixture(fixtures_dir, out, recessions=rec) == 3
        assert not out.exists() or list(out.iterdir()) == []

    def test_unknown_epicenter_writes_nothing(self, fixtures_dir, tmp_path):
        out = tmp_path / "out"
        assert run("pipeline", "--trade", fixtures_dir / "trade.csv",
                   "--gdp", fixtures_dir / "gdp.csv", "--epicenter", "XYZ",
                   "--out", out) == 3
        assert not out.exists() or list(out.iterdir()) == []

    def test_epicenter_is_case_insensitive(self, fixtures_dir, tmp_path):
        upper, lower = tmp_path / "upper", tmp_path / "lower"
        assert self.run_fixture(fixtures_dir, upper, epicenter="USA") == 0
        assert self.run_fixture(fixtures_dir, lower, epicenter=" usa") == 0
        names = sorted(p.name for p in upper.iterdir())
        assert names == sorted(p.name for p in lower.iterdir())
        for name in names:
            assert (lower / name).read_bytes() == (upper / name).read_bytes()

    def test_unknown_lower_case_epicenter_writes_nothing(
            self, fixtures_dir, tmp_path, capsys):
        out = tmp_path / "out"
        assert self.run_fixture(fixtures_dir, out, epicenter="xyz") == 3
        assert "'XYZ' not in state" in capsys.readouterr().err
        assert not out.exists() or list(out.iterdir()) == []

    def test_epicenter_missing_from_some_years_skips_them(
            self, fixtures_dir, tmp_path, caplog):
        lines = (fixtures_dir / "trade.csv").read_text().splitlines()
        trade = tmp_path / "trade.csv"
        trade.write_text("\n".join(
            ln for ln in lines
            if not (ln.startswith("1995,") and "MEX" in ln)) + "\n")
        out = tmp_path / "out"
        assert run("pipeline", "--trade", trade,
                   "--gdp", fixtures_dir / "gdp.csv", "--epicenter", "MEX",
                   "--out", out) == 0
        years = [ln.split(",")[0]
                 for ln in (out / "fig4a.csv").read_text().splitlines()[1:]]
        assert "1995" not in years and "1996" in years
        assert "year 1995: shock scenario skipped: 'MEX' not in state" in caplog.text

    def test_degenerate_impact_ratio_skips_its_year(self, fixtures_dir, tmp_path,
                                                    caplog, monkeypatch):
        impact_ratio, calls = shockprop.impact_ratio, []

        def first_call_fails(trace, epicenter):
            calls.append(1)
            if len(calls) == 1:
                raise errors.Degenerate("epicenter GDP did not change")
            return impact_ratio(trace, epicenter)
        monkeypatch.setattr(shockprop, "impact_ratio", first_call_fails)
        out = tmp_path / "out"
        assert self.run_fixture(fixtures_dir, out) == 0
        years = [ln.split(",")[0]
                 for ln in (out / "ccc_series.csv").read_text().splitlines()[1:]]
        for name in ("fig4a.csv", "fig4b.csv"):
            rows = (out / name).read_text().splitlines()[1:]
            assert [ln.split(",")[0] for ln in rows] == years[1:]
        assert (f"year {years[0]}: shock scenario skipped: epicenter GDP did not"
                " change") in caplog.text

    def check_no_fig4(self, out, *unchanged):
        """out holds every output but fig4a.csv and fig4b.csv, and the
        files named have their golden bytes."""
        assert {p.name for p in out.iterdir()} == (
            set(self.GOLDEN) - {"fig4a.csv", "fig4b.csv"})
        for name in unchanged:
            digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
            assert digest == self.GOLDEN[name], name

    def test_every_year_stalls_exit_4(self, fixtures_dir, tmp_path, capsys):
        out = tmp_path / "out"
        assert self.run_fixture(fixtures_dir, out, **{"max-steps": 3}) == 4
        assert "error: shock scenario failed in all 12 years" in (
            capsys.readouterr().err)
        self.check_no_fig4(out, "ccc_series.csv", "trade_gdp_ratio.csv",
                           "total_trade.csv", "recessions_test.json")

    @pytest.mark.parametrize("years, extra", [
        (None, {}),  # MissingGdp in every year
        ("1995", {"max-steps": 3}),  # and NoConvergence in the others
    ], ids=["missing-gdp", "mixed"])
    def test_every_year_fails_exit_3(self, years, extra, fixtures_dir,
                                     tmp_path, capsys):
        lines = (fixtures_dir / "gdp.csv").read_text().splitlines()
        gdp = tmp_path / "gdp.csv"
        gdp.write_text("\n".join(
            ln for ln in lines
            if not (",CAN," in ln and (years is None
                                       or ln.startswith(years + ",")))) + "\n")
        out = tmp_path / "out"
        assert self.run_fixture(fixtures_dir, out, gdp=gdp, **extra) == 3
        assert "error: shock scenario failed in all 12 years" in (
            capsys.readouterr().err)
        self.check_no_fig4(out, "ccc_series.csv", "total_trade.csv",
                           "recessions_test.json")

    # the child keeps every log record, as a test's log capture does
    PEAKS = ("import json, logging, sys, tracemalloc\n"
             "from tradetopo.cli import main\n"
             "records = []\n"
             "keep = logging.Handler()\n"
             "keep.emit = records.append\n"
             "logging.getLogger().addHandler(keep)\n"
             "peaks = []\n"
             "for argv in json.loads(sys.argv[1]):\n"
             "    tracemalloc.start()\n"
             "    peaks.append((main(argv), tracemalloc.get_traced_memory()[1]))\n"
             "    tracemalloc.stop()\n"
             "print(json.dumps(peaks))\n")

    def test_stalled_years_are_not_kept(self, fixtures_dir, tmp_path,
                                        package_env):
        # GDP equal to exports makes P = 1, and no year's shock converges.
        # Each stalled year's GDP vectors must be freed before the next
        # year runs, its log record kept or not: the peak over all 12 years
        # stays below twice the peak of one year's run, which holds one
        # year's 5,000-step trace
        with open(fixtures_dir / "trade.csv") as f:
            panel = ingest.parse_trade_csv(f)
        rows = ["year,country,gdp_usd"]
        for year in panel.years():
            countries, x = ingest.directed_flows(panel, year)
            rows += [f"{year},{c},{v!r}"
                     for c, v in zip(countries, x.sum(axis=1).tolist())]
        gdp = tmp_path / "gdp.csv"
        gdp.write_text("\n".join(rows) + "\n")
        argv = ["pipeline", f"--trade={fixtures_dir / 'trade.csv'}",
                f"--gdp={gdp}", "--max-steps=5000", f"--out={tmp_path / 'out'}"]
        proc = subprocess.run(
            [sys.executable, "-c", self.PEAKS,
             json.dumps([[*argv, "--years=2000:2000"], argv])],
            capture_output=True, text=True, env=package_env)
        assert proc.returncode == 0, proc.stderr
        (one_code, one_year), (all_code, all_years) = json.loads(proc.stdout)
        assert (one_code, all_code) == (4, 4)
        assert all_years < 2 * one_year


class TestExitCodes:
    # exit code, stderr fragment, argv ({d} is the input directory); every
    # case also gets --out
    CASES = {
        "parse_error": (
            2, "line 2: negative trade value", "pipeline --trade {d}/bad.csv"),
        "missing_gdp_row": (
            2, "no GDP data for: CCC",
            "shock --trade {d}/trade.csv --gdp {d}/gdp_no_ccc.csv --year 2000"
            " --epicenter AAA"),
        "window_outside_series": (
            3, "CCC series does not cover window(s): w",
            "pipeline --trade {d}/trade.csv --recessions {d}/rec.csv"),
        "no_year_in_range": (
            3, "no year produced a CCC value",
            "pipeline --trade {d}/trade.csv --years 1900:1901"),
        "unknown_epicenter": (
            3, "'XYZ' not in state",
            "shock --trade {d}/trade.csv --gdp {d}/gdp.csv --year 2000"
            " --epicenter XYZ"),
        "unknown_epicenter_pipeline": (
            3, "'XYZ' not in state",
            "pipeline --trade {d}/trade.csv --gdp {d}/gdp.csv --epicenter XYZ"),
        "trade_is_directory": (
            2, "Is a directory", "pipeline --trade {d}"),
        "no_convergence": (
            4, "no steady state after 1 steps",
            "shock --trade {d}/trade.csv --gdp {d}/gdp.csv --year 2000"
            " --epicenter AAA --max-steps 1"),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_exit_code_and_message(self, case, small_inputs, tmp_path, capsys):
        code, fragment, argv = self.CASES[case]
        (tmp_path / "bad.csv").write_text(
            "year,reporter,partner,value_usd\n2000,AAA,BBB,-1\n")
        (tmp_path / "gdp_no_ccc.csv").write_text(
            GDP3.replace("2000,CCC,100\n", ""))
        (tmp_path / "rec.csv").write_text("label,start,end\nw,1980-01,1980-12\n")
        argv = [arg.format(d=tmp_path) for arg in argv.split()]
        assert run(*argv, "--out", tmp_path / "out") == code
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert fragment in err

    @pytest.mark.parametrize("option,value", [
        ("--tol", "0"), ("--tol", "-0.5"), ("--tol", "nan"),
        ("--max-steps", "0"), ("--max-steps", "-5"),
    ])
    @pytest.mark.parametrize("command", [
        ["shock", "--year", "2000"], ["pipeline"],
    ], ids=["shock", "pipeline"])
    def test_bad_solver_option_writes_nothing(
            self, command, option, value, small_inputs, tmp_path, capsys):
        trade, gdp = small_inputs
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run(*command, "--trade", trade, "--gdp", gdp, "--epicenter", "AAA",
                option, value, "--out", out)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"error: argument {option}: must be positive, got '{value}'" in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["1.5", "1", "0", "-0.1", "nan"])
    @pytest.mark.parametrize("command", [
        ["shock", "--year", "2000"], ["pipeline"],
    ], ids=["shock", "pipeline"])
    def test_shock_out_of_range_writes_nothing(
            self, command, value, small_inputs, tmp_path, capsys):
        trade, gdp = small_inputs
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run(*command, "--trade", trade, "--gdp", gdp, "--epicenter", "AAA",
                "--shock", value, "--out", out)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"error: argument --shock: must be in (0, 1), got '{value}'" in err
        assert not out.exists()

    @pytest.mark.parametrize("value", [
        "2000:1995", "1995-2000", "1995:", ":2000", "1995", "a:b", "1995:2000:2005",
    ])
    # each id but pipeline's names the former command whose inputs pipeline reads
    @pytest.mark.parametrize("inputs", [["--gdp"], ["--recessions"],
                                        ["--gdp", "--recessions"]],
                             ids=["ccc-series", "recessions-test", "pipeline"])
    def test_bad_year_range_exits_before_reading(
            self, inputs, value, tmp_path, capsys):
        # no input names a file: the range fails first
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run("pipeline", "--trade", tmp_path / "missing.csv",
                *(arg for name in inputs for arg in (name, tmp_path / "missing.csv")),
                "--years", value, "--out", out)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert ("error: argument --years: must be A:B with integers A <= B, "
                f"got '{value}'") in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["shock", "recover", "pipeline"])
    def test_update_option_is_gone(self, command, tmp_path, capsys):
        # the GDP update has one rule; --trade and --gdp name no file
        out = tmp_path / "out"
        year = [] if command == "pipeline" else ["--year", "2000"]
        with pytest.raises(SystemExit) as exc:
            run(command, "--trade", tmp_path / "missing.csv",
                "--gdp", tmp_path / "missing.csv", *year,
                "--update", "multiplicative", "--out", out)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --update multiplicative" in err
        assert not out.exists()

    def test_one_year_range(self, fixtures_dir, tmp_path):
        out = tmp_path / "out"
        assert run("pipeline", "--trade", fixtures_dir / "trade.csv",
                   "--years", "1996:1996", "--out", out) == 0
        rows = (out / "ccc_series.csv").read_text().splitlines()
        assert [r.split(",")[0] for r in rows] == ["year", "1996"]

    # each id that names ccc-series or recessions-test gives pipeline the
    # inputs of that former command
    @pytest.mark.parametrize("argv", [
        # tables are CSV only: --format is gone
        ["pipeline", "--gdp=gdp.csv", "--years=1995:2000", "--format", "json"],
        ["dendrogram", "--year", "2000", "--format", "json"],
        ["shock", "--gdp=gdp.csv", "--year=2000", "--format", "json"],
        ["recover", "--gdp=gdp.csv", "--year=2000", "--format", "json"],
        ["pipeline", "--years", "1995:2000", "--format", "json"],
        ["dendrogram", "--year", "2000", "--gdp", "nope.csv", "--shock", "5"],
        # the trade network is always M = X + X^T: --mode is gone
        ["pipeline", "--gdp=gdp.csv", "--years=1995:2000", "--mode", "sum"],
        ["dendrogram", "--year", "2000", "--mode", "max"],
        ["pipeline", "--recessions", "r.csv", "--mode", "sum"],
        ["pipeline", "--years", "1995:2000", "--mode", "sum"],
        # pipeline selects its years with --years alone, and no option is
        # matched by a prefix of its name
        ["pipeline", "--gdp", "gdp.csv", "--year", "2000"],
        ["pipeline", "--recessions", "r.csv", "--year", "2000"],
        ["pipeline", "--years", "1995:2000", "--year", "2000"],
    ], ids=["ccc-series-format", "dendrogram-format", "shock-format",
            "recover-format", "pipeline-format",
            "dendrogram", "ccc-series-mode", "dendrogram-mode",
            "recessions-test-mode", "pipeline-mode",
            "ccc-series-year", "recessions-test-year", "pipeline-year"])
    def test_option_the_command_does_not_read_is_rejected(
            self, argv, small_inputs, tmp_path, capsys):
        trade, _ = small_inputs
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run(*argv, "--trade", trade, "--out", out)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: tradetopo ")
        assert f"error: unrecognized arguments: {' '.join(argv[3:])}\n" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["ccc-series", "recessions-test"])
    def test_removed_command_is_unknown(self, command, small_inputs, tmp_path,
                                        capsys):
        # pipeline writes what each wrote
        trade, _ = small_inputs
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run(command, "--trade", trade, "--out", out)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err and repr(command) in err
        assert not out.exists()


class TestByteOrderMark:
    # Excel's "CSV UTF-8" format starts the file with U+FEFF; quoting the
    # first data row sends the trade file to the row parser
    @pytest.mark.parametrize("argv, name, quote", [
        (["pipeline"], "trade.csv", False),
        (["pipeline"], "trade.csv", True),
        (["shock", "--gdp", "gdp.csv", "--year", "2000"], "gdp.csv", False),
        (["pipeline", "--recessions", "recessions.csv"],
         "recessions.csv", False),
    ], ids=["trade", "trade-row-parser", "gdp", "recessions"])
    def test_same_bytes_as_without(self, argv, name, quote, fixtures_dir,
                                   tmp_path, monkeypatch):
        lines = (fixtures_dir / name).read_text().split("\n")
        if quote:
            lines[1] = ",".join(f'"{field}"' for field in lines[1].split(","))
        for fixture in fixtures_dir.glob("*.csv"):
            (tmp_path / fixture.name).write_bytes(fixture.read_bytes())
        (tmp_path / name).write_text("\ufeff" + "\n".join(lines), encoding="utf-8")
        row_parses = []
        parse_rows = ingest._parse_trade_rows
        monkeypatch.setattr(ingest, "_parse_trade_rows",
                            lambda s: row_parses.append(1) or parse_rows(s))
        outs = {}
        for label, d in (("plain", fixtures_dir), ("bom", tmp_path)):
            outs[label] = tmp_path / f"out_{label}"
            paths = [str(d / a) if a.endswith(".csv") else a for a in argv]
            assert run(*paths, "--trade", d / "trade.csv",
                       "--out", outs[label]) == 0
        assert bool(row_parses) == quote
        names = sorted(p.name for p in outs["plain"].iterdir())
        assert names and sorted(p.name for p in outs["bom"].iterdir()) == names
        for n in names:
            assert (outs["bom"] / n).read_bytes() == (outs["plain"] / n).read_bytes()


class TestBadInputBytes:
    """A field over the csv module's size limit, or a byte that is not
    UTF-8, fails its record's own line in each input file (exit 2)."""

    DIGITS = b'"' + b"1" * 140_000 + b'"'
    LIMIT = "field larger than field limit (131072)"

    @pytest.mark.parametrize("name, line, record, message", [
        ("trade", 1, DIGITS, LIMIT),
        ("trade", 3, b"2000,CAN,USA," + DIGITS, LIMIT),
        ("trade", 3, b"2000,C\xc9N,USA,3", "bad country code 'C\\udcc9N'"),
        ("gdp", 3, b"2000,CAN," + DIGITS, LIMIT),
        ("gdp", 3, b"2000,C\xc9N,3", "bad country code 'C\\udcc9N'"),
        ("recessions", 3, b"x," + DIGITS + b",2000-12", LIMIT),
        ("recessions", 3, b"x,2000-\xc901,2000-12",
         "expected YYYY-MM, got '2000-\\udcc901'"),
    ], ids=["trade-header-field-limit", "trade-field-limit", "trade-not-utf-8",
            "gdp-field-limit", "gdp-not-utf-8", "recessions-field-limit",
            "recessions-not-utf-8"])
    def test_parse_error_names_the_line(self, name, line, record, message,
                                        fixtures_dir, tmp_path, capsys):
        paths = {}
        for fixture in ("trade", "gdp", "recessions"):
            paths[fixture] = fixtures_dir / f"{fixture}.csv"
        lines = paths[name].read_bytes().split(b"\n")
        lines.insert(line - 1, record)
        paths[name] = tmp_path / f"{name}.csv"
        paths[name].write_bytes(b"\n".join(lines))
        out = tmp_path / "out"
        assert run("pipeline", *(f"--{k}={v}" for k, v in paths.items()),
                   "--out", out) == 2
        assert capsys.readouterr().err == f"error: line {line}: {message}\n"
        assert not out.exists()

    def test_recession_label_keeps_a_bad_byte(self, tmp_path):
        path = tmp_path / "recessions.csv"
        path.write_bytes(b"label,start,end\nC\xc9N,2000-01,2000-12\n")
        [window] = cli.load(ingest.parse_recessions, path)
        assert window.label == "C\udcc9N"


class TestEpicenterText:
    @pytest.fixture
    def ala_inputs(self, tmp_path):
        trade, gdp = tmp_path / "trade.csv", tmp_path / "gdp.csv"
        trade.write_text(TRADE3.replace("AAA", "ÅLA"), encoding="utf-8")
        gdp.write_text(GDP3.replace("AAA", "ÅLA"), encoding="utf-8")
        return trade, gdp

    def test_non_ascii_epicenter_under_an_ascii_locale(self, ala_inputs, tmp_path,
                                                        package_env):
        trade, gdp = ala_inputs
        outs = []
        for name, locale in [
            ("ascii", {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}),
            ("utf8", {"LC_ALL": "C.UTF-8", "PYTHONUTF8": "1"}),
        ]:
            outs.append(tmp_path / name)
            proc = subprocess.run(
                [sys.executable, "-m", "tradetopo.cli", "shock",
                 "--trade", str(trade), "--gdp", str(gdp), "--year", "2000",
                 "--epicenter", "ÅLA".encode(), "--out", str(outs[-1])],
                env={**package_env, **locale}, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
        names = sorted(p.name for p in outs[1].iterdir())
        assert names == ["shock_summary_2000.json", "shock_trace_2000.csv"]
        for n in names:
            assert (outs[0] / n).read_bytes() == (outs[1] / n).read_bytes()

    @pytest.mark.parametrize("text", ["ÅLA", " åla", "\udcc3\udc85LA"],
                             ids=["text", "lower-case", "surrogate-escaped"])
    def test_epicenter_reads_as_the_files_code(self, text, ala_inputs, tmp_path):
        trade, gdp = ala_inputs
        args = cli.build_parser().parse_args(
            ["shock", "--trade", "t", "--gdp", "g", "--year", "2000",
             "--epicenter", text, "--out", "o"])
        assert args.epicenter == "ÅLA"
        out = tmp_path / "out"
        assert run("shock", "--trade", trade, "--gdp", gdp, "--year", 2000,
                   "--epicenter", text, "--out", out) == 0
        assert (out / "shock_summary_2000.json").exists()


class TestAtomicWrite:
    def test_non_ascii_codes_under_an_ascii_locale(self, tmp_path, package_env):
        trade = tmp_path / "trade.csv"
        trade.write_text(TRADE3.replace("AAA", "ÅLA"), encoding="utf-8")
        outs = []
        for name, locale in [
            ("ascii", {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}),
            ("utf8", {"LC_ALL": "C.UTF-8", "PYTHONUTF8": "1"}),
        ]:
            outs.append(tmp_path / name)
            proc = subprocess.run(
                [sys.executable, "-m", "tradetopo.cli", "dendrogram",
                 "--trade", str(trade), "--year", "2000", "--out", str(outs[-1])],
                env={**package_env, **locale}, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
        names = sorted(p.name for p in outs[1].iterdir())
        assert names == ["clusters_2000.csv", "share_matrix_2000.csv", "tree_2000.nwk"]
        assert sorted(p.name for p in outs[0].iterdir()) == names
        for n in names:
            assert (outs[0] / n).read_bytes() == (outs[1] / n).read_bytes()
        assert "ÅLA".encode() in (outs[0] / "tree_2000.nwk").read_bytes()

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                             ids=["umask-022", "umask-077"])
    def test_outputs_follow_the_umask(self, umask, mode, small_inputs, tmp_path):
        trade, _ = small_inputs
        out = tmp_path / "out"
        previous = os.umask(umask)
        try:
            assert run("pipeline", "--trade", trade, "--out", out) == 0
            assert run("dendrogram", "--trade", trade, "--year", 2000,
                       "--out", out) == 0
        finally:
            os.umask(previous)
        modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in out.iterdir()}
        assert modes == dict.fromkeys(
            ["ccc_series.csv", "clusters_2000.csv", "share_matrix_2000.csv",
             "tree_2000.nwk"], mode)

    def test_failed_rename_leaves_no_temp_file(self, tmp_path, monkeypatch):
        def fail(src, dst):
            raise OSError("rename failed")
        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="^rename failed$"):
            cli.atomic_write(tmp_path / "out.csv", "year\n")
        assert list(tmp_path.iterdir()) == []


class TestHelp:
    @pytest.mark.parametrize("argv", [["--help"], ["pipeline", "--help"]])
    def test_help_exits_zero(self, argv, tmp_path, monkeypatch, package_env):
        monkeypatch.chdir(tmp_path)
        proc = subprocess.run(
            [sys.executable, "-m", "tradetopo.cli", *argv],
            capture_output=True, text=True, env=package_env,
        )
        assert proc.returncode == 0
        assert "usage" in proc.stdout.lower()
        assert list(tmp_path.iterdir()) == []

    def test_import_leaves_scipy_optimize_unloaded(self, package_env):
        # scipy.optimize is the slowest import; no command loads it
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, tradetopo.cli; print('scipy.optimize' in sys.modules)"],
            capture_output=True, text=True, env=package_env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_import_leaves_scipy_unloaded(self, package_env):
        # the hierarchy and KS paths are numpy only; scipy's MINPACK
        # extension loads in the recovery fit
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, tradetopo.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
            capture_output=True, text=True, env=package_env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestRecoveryFitImports:
    """pipeline and recover load MINPACK's extension alone, without the
    scipy.optimize package and the scipy.linalg it pulls in."""

    RUN = ("import importlib.machinery, json, sys\n"
           "{setup}\n"
           "from tradetopo.cli import main\n"
           "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
           "print(json.dumps([codes, [m for m in ('scipy.optimize', 'scipy.linalg')\n"
           "                          if m in sys.modules]]))\n")

    def run_child(self, setup, fixtures_dir, out, package_env):
        inputs = [f"--{name}={fixtures_dir / name}.csv"
                  for name in ("trade", "gdp", "recessions")]
        argvs = [["pipeline", *inputs, f"--out={out / 'pipeline'}"],
                 ["recover", *inputs[:2], "--year=2000", f"--out={out / 'recover'}"]]
        proc = subprocess.run(
            [sys.executable, "-c", self.RUN.format(setup=setup), json.dumps(argvs)],
            capture_output=True, text=True, env=package_env)
        assert proc.returncode == 0, proc.stderr
        codes, loaded = json.loads(proc.stdout)
        assert codes == [0, 0]
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in (out / "pipeline").iterdir()}
        assert digests == TestPipeline.GOLDEN
        return loaded, (out / "recover" / "recovery_summary_2000.json").read_bytes()

    @pytest.mark.parametrize("setup, loaded", [
        ("", []),
        # no file matches: the loader imports scipy.optimize._minpack as usual
        ("importlib.machinery.EXTENSION_SUFFIXES = ['.no-such-suffix']",
         ["scipy.optimize", "scipy.linalg"]),
    ], ids=["extension-file", "no-extension-file"])
    def test_scipy_modules_loaded(self, setup, loaded, fixtures_dir, tmp_path,
                                  package_env):
        modules, summary = self.run_child(setup, fixtures_dir, tmp_path / "child",
                                          package_env)
        assert modules == loaded
        normal = tmp_path / "in-process"
        assert run("recover", "--trade", fixtures_dir / "trade.csv",
                   "--gdp", fixtures_dir / "gdp.csv", "--year", 2000,
                   "--out", normal) == 0
        assert summary == (normal / "recovery_summary_2000.json").read_bytes()


class TestBlasThreads:
    """The CLI runs OpenBLAS on one thread unless the user set a count."""

    VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

    @pytest.fixture
    def clean_env(self, package_env):
        # built per test: importing tradetopo.cli in this process sets the
        # variable, and package_env copies this process's environment
        return {k: v for k, v in package_env.items() if k not in self.VARS}

    def thread_env(self, env, module="tradetopo.cli"):
        """The three variables as a child sees them after importing module."""
        code = (f"import json, os, {module}; "
                f"print(json.dumps([os.environ.get(v) for v in {self.VARS!r}]))")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        return dict(zip(self.VARS, json.loads(proc.stdout)))

    def test_cli_import_sets_one_thread(self, clean_env):
        assert self.thread_env(clean_env) == {
            "OPENBLAS_NUM_THREADS": "1", "GOTO_NUM_THREADS": None,
            "OMP_NUM_THREADS": None}

    @pytest.mark.parametrize("name", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
    def test_user_setting_is_kept(self, name, clean_env):
        want = {v: None for v in self.VARS}
        want[name] = "2"
        assert self.thread_env({**clean_env, name: "2"}) == want

    def test_library_import_leaves_environment_alone(self, clean_env):
        for module in ("tradetopo.metrics", "tradetopo.pipeline"):
            assert self.thread_env(clean_env, module) == {v: None for v in self.VARS}

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="counts threads in /proc/self/task")
    def test_no_blas_worker_threads(self, clean_env):
        # numpy's and scipy's OpenBLAS each start their pool when loaded
        code = ("import os, tradetopo.cli, scipy.linalg; "
                "print(len(os.listdir('/proc/self/task')))")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, env=clean_env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "1"

    def test_pipeline_bytes_do_not_depend_on_thread_count(
            self, fixtures_dir, tmp_path, clean_env):
        outs = {}
        for label, extra in (("default", {}), ("two", {"OPENBLAS_NUM_THREADS": "2"})):
            outs[label] = tmp_path / label
            argv = ["pipeline", "--out", str(outs[label])]
            for name in ("trade", "gdp", "recessions"):
                argv += [f"--{name}", str(fixtures_dir / f"{name}.csv")]
            proc = subprocess.run([sys.executable, "-m", "tradetopo.cli", *argv],
                                  capture_output=True, text=True,
                                  env={**clean_env, **extra})
            assert proc.returncode == 0, proc.stderr
        names = sorted(p.name for p in outs["default"].iterdir())
        assert names == sorted(TestPipeline.GOLDEN)
        assert sorted(p.name for p in outs["two"].iterdir()) == names
        for name in names:
            assert (outs["two"] / name).read_bytes() == (outs["default"] / name).read_bytes()


class TestWithoutScipy:
    # None in sys.modules makes every import of scipy fail
    BLOCKED = ("import sys; sys.modules['scipy'] = None; "
               "from tradetopo.cli import main; sys.exit(main(sys.argv[1:]))")

    @pytest.mark.parametrize("argv", [
        ["pipeline"],  # the CCC series alone
        ["dendrogram", "--year", "2000"],
        ["shock", "--gdp", "gdp.csv", "--year", "2000"],
        ["pipeline", "--recessions", "recessions.csv"],
    ], ids=["ccc-series", "dendrogram", "shock", "pipeline"])
    def test_same_bytes_with_scipy_blocked(self, argv, fixtures_dir, tmp_path,
                                           package_env):
        argv = [str(fixtures_dir / a) if a.endswith(".csv") else a for a in argv]
        argv += ["--trade", str(fixtures_dir / "trade.csv")]
        blocked, normal = tmp_path / "blocked", tmp_path / "normal"
        proc = subprocess.run(
            [sys.executable, "-c", self.BLOCKED, *argv, "--out", str(blocked)],
            capture_output=True, text=True, env=package_env,
        )
        assert proc.returncode == 0, proc.stderr
        assert run(*argv, "--out", normal) == 0
        names = sorted(p.name for p in normal.iterdir())
        assert names and sorted(p.name for p in blocked.iterdir()) == names
        for name in names:
            assert (blocked / name).read_bytes() == (normal / name).read_bytes()

    @pytest.mark.parametrize("argv", [
        ["recover", "--gdp", "gdp.csv", "--year", "2000"],
        ["pipeline", "--gdp", "gdp.csv", "--recessions", "recessions.csv"],
    ], ids=lambda argv: argv[0])
    def test_recovery_fit_without_scipy_writes_nothing(self, argv, fixtures_dir,
                                                       tmp_path, package_env):
        # the fit runs before the first write, and its ImportError is an
        # input error, not a traceback
        argv = [str(fixtures_dir / a) if a.endswith(".csv") else a for a in argv]
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-c", self.BLOCKED, *argv,
             "--trade", str(fixtures_dir / "trade.csv"), "--out", str(out)],
            capture_output=True, text=True, env=package_env,
        )
        assert proc.returncode == 2, proc.stderr
        errors = [line for line in proc.stderr.splitlines()
                  if line.startswith("error: ")]
        assert len(errors) == 1 and "scipy" in errors[0], proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("argv, error, written", [
        (["recover", "--gdp", "gdp.csv", "--year", "2000"],
         "error: shock: no steady state after 3 steps", []),
        (["pipeline", "--gdp", "gdp.csv", "--recessions", "recessions.csv"],
         "error: shock scenario failed in all 12 years",
         ["ccc_series.csv", "recessions_test.json", "total_trade.csv",
          "trade_gdp_ratio.csv"]),
    ], ids=["recover", "pipeline"])
    def test_no_convergence_before_the_fit_writes_as_with_scipy(
            self, argv, error, written, fixtures_dir, tmp_path, package_env,
            capsys):
        # the shock phase stops after 3 steps, before any fit loads scipy:
        # exit 4, the same error and the same files as with scipy
        argv = [str(fixtures_dir / a) if a.endswith(".csv") else a for a in argv]
        argv += ["--trade", str(fixtures_dir / "trade.csv"), "--max-steps", "3"]
        blocked, normal = tmp_path / "blocked", tmp_path / "normal"
        proc = subprocess.run(
            [sys.executable, "-c", self.BLOCKED, *argv, "--out", str(blocked)],
            capture_output=True, text=True, env=package_env,
        )
        assert proc.returncode == 4, proc.stderr
        assert run(*argv, "--out", normal) == 4
        assert error in proc.stderr and error in capsys.readouterr().err
        for out in (blocked, normal):
            assert sorted(p.name for p in out.glob("*")) == written
        for name in written:
            assert (blocked / name).read_bytes() == (normal / name).read_bytes()
