"""Deterministic benchmark inputs, made from the workload seed.

Everything here depends only on numpy and the seed, never on tradetopo,
so the program under test only ever sees the generated files and arrays.
Generated inputs are cached under ``.bench_cache/`` in the checkout; the
generation itself is never timed.
"""

from __future__ import annotations

import json
import os
import string

import numpy as np

# Bump when the generator changes, so stale caches and digests are not reused.
GEN_VERSION = 1

PANEL_COUNTRIES = 150
PANEL_YEARS = tuple(range(1990, 2015))  # 25 years
PANEL_RECESSIONS = 11
TREE_COUNTRIES = 200
TREE_YEARS = 25
N_BLOCKS = 6


def _rng(stream, seed):
    """Independent generator per input kind; any integer seed is accepted."""
    return np.random.default_rng([GEN_VERSION, stream, seed % 2**64])


def country_codes(rng, n):
    """n distinct 3-letter upper-case codes, in generation order."""
    picks = rng.choice(26**3, size=n, replace=False)
    letters = string.ascii_uppercase
    return [letters[k // 676] + letters[k // 26 % 26] + letters[k % 26] for k in picks]


def gravity_flows(rng, n, n_years):
    """Gravity-style directed export flows with regional trade blocks.

    Returns (gdp, flows): gdp[t, i] in whole USD, flows[t, i, j] the whole-USD
    exports i -> j in year t (zero diagonal, every off-diagonal entry >= 1).
    Each country exports 15-45% of its GDP, so every shock converges; the
    within-block boost changes from year to year, so CCC moves with it.
    """
    base_gdp = np.exp(rng.normal(25.0, 1.5, size=n))  # ~7e10 USD median
    growth = rng.normal(0.03, 0.01, size=n)
    openness = rng.uniform(0.15, 0.45, size=n)
    blocks = rng.integers(0, N_BLOCKS, size=n)
    same_block = blocks[:, None] == blocks[None, :]
    years = np.arange(n_years)
    gdp = np.rint(base_gdp[None, :] * (1.0 + growth[None, :]) ** years[:, None])
    flows = np.empty((n_years, n, n))
    for t in range(n_years):
        boost = rng.uniform(1.5, 6.0)
        noise = rng.lognormal(0.0, 0.3, size=(n, n))
        raw = gdp[t][None, :] ** 0.7 * np.where(same_block, boost, 1.0) * noise
        np.fill_diagonal(raw, 0.0)
        budget = openness * gdp[t]
        x = np.maximum(np.rint(raw / raw.sum(axis=1, keepdims=True) * budget[:, None]), 1.0)
        np.fill_diagonal(x, 0.0)
        flows[t] = x
    return gdp, flows


def _trade_lines(years, codes, flows):
    lines = ["year,reporter,partner,value_usd"]
    n = len(codes)
    off = ~np.eye(n, dtype=bool)
    rep = np.repeat(np.arange(n), n).reshape(n, n)[off]
    par = np.tile(np.arange(n), n).reshape(n, n)[off]
    for t, year in enumerate(years):
        values = flows[t][off].astype(np.int64).tolist()
        lines.extend(
            f"{year},{codes[i]},{codes[j]},{v}"
            for i, j, v in zip(rep.tolist(), par.tolist(), values)
        )
    return lines


def panel_files(seed):
    """The pipeline inputs for one seed: CSV text keyed by file name, plus
    the epicenter (the largest economy of the last year)."""
    years = PANEL_YEARS
    rng = _rng(1, seed)
    codes = country_codes(rng, PANEL_COUNTRIES)
    gdp, flows = gravity_flows(rng, PANEL_COUNTRIES, len(years))
    # one-year windows strictly inside the panel, so every window has a
    # CCC the year before it starts and the year after it ends
    inner = np.array(years[1:-1])
    rec_years = np.sort(rng.choice(inner, size=PANEL_RECESSIONS, replace=False))
    gdp_lines = ["year,country,gdp_usd"]
    for t, year in enumerate(years):
        gdp_lines.extend(
            f"{year},{c},{g}" for c, g in zip(codes, gdp[t].astype(np.int64).tolist())
        )
    rec_lines = ["label,start,end"]
    for k, year in enumerate(rec_years.tolist()):
        start, end = sorted(rng.choice(np.arange(1, 13), size=2, replace=False).tolist())
        rec_lines.append(f"r{k:02d},{year}-{start:02d},{year}-{end:02d}")
    files = {
        "trade.csv": "\n".join(_trade_lines(years, codes, flows)) + "\n",
        "gdp.csv": "\n".join(gdp_lines) + "\n",
        "recessions.csv": "\n".join(rec_lines) + "\n",
    }
    epicenter = codes[int(np.argmax(gdp[-1]))]
    return files, epicenter


def tree_matrices(seed, n=TREE_COUNTRIES, n_years=TREE_YEARS):
    """(codes sorted, symmetric trade matrices [year, i, j]) for tree_sweep."""
    rng = _rng(2, seed)
    codes = country_codes(rng, n)
    _, flows = gravity_flows(rng, n, n_years)
    order = np.argsort(codes)
    flows = flows[:, order][:, :, order]
    return sorted(codes), flows + flows.transpose(0, 2, 1)


def structure_pair_seeds(seed, count, table_size):
    """The matched_block_pair seeds one structure_response round runs; all
    are drawn from range(table_size), whose results have recorded digests."""
    rng = _rng(3, seed)
    return sorted(rng.choice(table_size, size=count, replace=False).tolist())


def cached_panel(cache_dir, seed):
    """Directory holding trade.csv, gdp.csv, recessions.csv and meta.json."""
    final = os.path.join(cache_dir, f"panel-v{GEN_VERSION}-{seed}")
    if not os.path.isdir(final):
        tmp = f"{final}.tmp{os.getpid()}"
        os.makedirs(tmp, exist_ok=True)
        files, epicenter = panel_files(seed)
        for name, text in files.items():
            with open(os.path.join(tmp, name), "w", newline="\n") as fh:
                fh.write(text)
        with open(os.path.join(tmp, "meta.json"), "w") as fh:
            json.dump({"epicenter": epicenter}, fh)
        os.rename(tmp, final)
    return final


def cached_trees(cache_dir, seed, n=TREE_COUNTRIES, n_years=TREE_YEARS):
    """Path of an .npz holding codes and the symmetric matrices."""
    path = os.path.join(cache_dir, f"trees-v{GEN_VERSION}-{seed}-{n}x{n_years}.npz")
    if not os.path.exists(path):
        codes, m = tree_matrices(seed, n, n_years)
        tmp = f"{path}.tmp{os.getpid()}.npz"
        np.savez(tmp, codes=np.array(codes), m=m)
        os.replace(tmp, path)
    return path
