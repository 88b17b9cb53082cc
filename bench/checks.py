"""Correctness checks for the benchmark's workloads.

The oracles are independent of tradetopo: trade CSVs are read with the csv
module and hierarchies are rebuilt with scipy. Recorded SHA-256 digests
(``expected.json``) pin the exact output bytes where an oracle cannot.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

import numpy as np
from scipy.cluster.hierarchy import cophenet, linkage
from scipy.stats import ks_2samp

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

CCC_TOL = 1e-9  # absolute, CCC is in [-1, 1]
HEIGHT_RTOL = 1e-9  # relative to the largest distance of the year
KS_TOL = 1e-9

PIPELINE_FILES = (
    "ccc_series.csv", "trade_gdp_ratio.csv", "total_trade.csv",
    "fig4a.csv", "fig4b.csv", "recessions_test.json",
)


def load_expected():
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def sha256_file(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def digest_text(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def scipy_hierarchy(m):
    """(sorted merge heights, CCC) of a symmetric trade matrix, with the
    package's distance convention d_ij = max(M) - M_ij."""
    upper = m[np.triu_indices(m.shape[0], k=1)]
    d = upper.max() - upper
    z = linkage(d, method="average")
    c, _ = cophenet(z, d)
    return np.sort(z[:, 2]), float(c), float(d.max())


def read_trade_matrices(path):
    """{year: symmetric summed matrix} from a trade CSV, over the year's
    sorted active countries (the same convention as the package)."""
    flows = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for year, rep, par, value in reader:
            if rep != par:
                key = (int(year), rep, par)
                flows[key] = flows.get(key, 0.0) + float(value)
    by_year = {}
    for (year, rep, par), value in flows.items():
        by_year.setdefault(year, []).append((rep, par, value))
    mats = {}
    for year, rows in by_year.items():
        codes = sorted({c for r in rows for c in r[:2]})
        index = {c: i for i, c in enumerate(codes)}
        x = np.zeros((len(codes), len(codes)))
        for rep, par, value in rows:
            x[index[rep], index[par]] = value
        m = x + x.T
        np.fill_diagonal(m, 0.0)
        mats[year] = m
    return mats


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _finite(text):
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def check_pipeline(out_dir, panel_dir, oracle_ccc, expected_digests=None):
    """Check one pipeline run's outputs.

    Returns (failed_years, problems): the panel years that are missing from
    or wrong in the outputs, and a list of messages. A problem that is not
    tied to one year (missing file, wrong KS test, digest mismatch) fails
    every year.
    """
    years = sorted(oracle_ccc)
    problems = []
    for name in PIPELINE_FILES:
        if not os.path.exists(os.path.join(out_dir, name)):
            problems.append(f"missing output {name}")
    if problems:
        return set(years), problems
    bad = set()
    series = {int(r["year"]): r for r in _read_csv(os.path.join(out_dir, "ccc_series.csv"))}
    fig4a = {int(r["year"]): r for r in _read_csv(os.path.join(out_dir, "fig4a.csv"))}
    fig4b = {int(r["year"]): r for r in _read_csv(os.path.join(out_dir, "fig4b.csv"))}
    for year in years:
        row, a, b = series.get(year), fig4a.get(year), fig4b.get(year)
        if row is None or a is None or b is None:
            problems.append(f"year {year} missing from ccc_series/fig4a/fig4b")
            bad.add(year)
            continue
        if abs(float(row["ccc"]) - oracle_ccc[year]) > CCC_TOL:
            problems.append(f"year {year}: ccc {row['ccc']} vs scipy {oracle_ccc[year]!r}")
            bad.add(year)
        if not (a["ccc"] == b["ccc"] == row["ccc"]):
            problems.append(f"year {year}: fig4 ccc differs from ccc_series")
            bad.add(year)
        values = (a["impact_ratio"], b["world_gdp_change"], b["lambda"])
        if not all(_finite(v) for v in values) or not (
                float(b["world_gdp_change"]) < 0 < float(b["lambda"])):
            problems.append(f"year {year}: bad fig4 values {values}")
            bad.add(year)
    run_problems = _check_recessions(out_dir, panel_dir, oracle_ccc)
    if expected_digests is not None:
        for name in PIPELINE_FILES:
            got = sha256_file(os.path.join(out_dir, name))
            if got != expected_digests.get(name):
                run_problems.append(f"{name}: sha256 {got} differs from the recorded digest")
    if run_problems:
        bad = set(years)
    return bad, problems + run_problems


def pipeline_failures(rc, out_dir, panel_dir, oracle_ccc, expected_digests=None):
    """{year: message} for the failed years of one pipeline run."""
    if rc != 0:
        return {year: f"pipeline exited {rc}" for year in oracle_ccc}
    bad, problems = check_pipeline(out_dir, panel_dir, oracle_ccc, expected_digests)
    return {year: "; ".join(problems) for year in sorted(bad)}


def _check_recessions(out_dir, panel_dir, oracle_ccc):
    with open(os.path.join(out_dir, "recessions_test.json")) as fh:
        result = json.load(fh)
    windows = _read_csv(os.path.join(panel_dir, "recessions.csv"))
    windows.sort(key=lambda w: w["start"])
    want_before = [oracle_ccc[int(w["start"][:4]) - 1] for w in windows]
    want_after = [oracle_ccc[int(w["end"][:4]) + 1] for w in windows]
    problems = []
    if len(result["before"]) != len(want_before) or len(result["after"]) != len(want_after):
        return ["recessions_test: wrong sample sizes"]
    if (np.max(np.abs(np.subtract(result["before"], want_before))) > CCC_TOL
            or np.max(np.abs(np.subtract(result["after"], want_after))) > CCC_TOL):
        problems.append("recessions_test: before/after samples differ from scipy CCC")
    d = ks_2samp(result["before"], result["after"]).statistic
    if abs(result["D"] - d) > KS_TOL:
        problems.append(f"recessions_test: D {result['D']} vs scipy {d}")
    if result["method"] != "exact-permutation" or not 0 < result["p"] <= 1:
        problems.append(f"recessions_test: method {result['method']} p {result['p']}")
    return problems


def check_tree(oracle, heights, ccc_value, n_clusters, assignment, share_countries,
               countries):
    """Problems with one tree_sweep item; oracle is scipy_hierarchy(m)."""
    want_heights, want_ccc, scale = oracle
    problems = []
    if np.max(np.abs(np.sort(heights) - want_heights)) > HEIGHT_RTOL * scale:
        problems.append("merge heights differ from scipy average linkage")
    if abs(ccc_value - want_ccc) > CCC_TOL:
        problems.append(f"ccc {ccc_value!r} vs scipy cophenet {want_ccc!r}")
    if sorted(set(assignment)) != list(range(1, n_clusters + 1)):
        problems.append("cut_at_count labels are not 1..k")
    if sorted(share_countries) != sorted(countries):
        problems.append("ordered share matrix does not permute the countries")
    return problems
