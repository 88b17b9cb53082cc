"""Synthetic network generators for experiments and the bundled test
fixtures.

matched_block_pair builds two economies that share every country-level
aggregate (GDP vector and per-country total exports, hence total world
trade) and differ only in how exports are allocated: evenly across all
partners, or concentrated inside trade blocks. Blocks carry an
export/GDP gradient and the shocked country sits in the least open
block, so the pair isolates the effect of modular allocation on shock
propagation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ingest import TradeNetwork, symmetrize
from .shockprop import EconomyState


@dataclass(frozen=True)
class MatchedPair:
    countries: tuple[str, ...]
    gdp: np.ndarray
    x_uniform: np.ndarray
    x_modular: np.ndarray

    def network(self, which, year=2000) -> TradeNetwork:
        x = self.x_uniform if which == "uniform" else self.x_modular
        return symmetrize(year, self.countries, x)

    def state(self, which) -> EconomyState:
        x = self.x_uniform if which == "uniform" else self.x_modular
        return EconomyState.from_exports(self.countries, self.gdp.copy(), x.copy())


def _codes(n):
    return tuple(f"C{i:02d}" for i in range(n))


def matched_block_pair(seed, n=24, n_blocks=4, boost=30.0,
                       openness=(0.2, 0.45, 0.7, 0.95)) -> MatchedPair:
    if n % n_blocks:
        raise ValueError("n must be divisible by n_blocks")
    if len(openness) != n_blocks:
        raise ValueError("one openness level per block")
    rng = np.random.default_rng(seed)
    gdp = np.full(n, 100.0)
    blocks = np.repeat(np.arange(n_blocks), n // n_blocks)
    p = np.asarray(openness)[blocks]
    base = rng.uniform(0.8, 1.2, size=(n, n))
    uniform = base.copy()
    np.fill_diagonal(uniform, 0.0)
    within = (blocks[:, None] == blocks[None, :]).astype(float)
    modular = base * (within * boost + (1 - within))
    np.fill_diagonal(modular, 0.0)
    # identical row sums P_i * Y_i in both allocations
    for x in (uniform, modular):
        x *= (p * gdp)[:, None] / x.sum(axis=1, keepdims=True)
    return MatchedPair(
        countries=_codes(n), gdp=gdp, x_uniform=uniform, x_modular=modular
    )


# --- bundled fixture dataset ---

FIXTURE_COUNTRIES = ("CAN", "CHN", "DEU", "FRA", "GBR", "JPN", "MEX", "USA")
FIXTURE_BLOCKS = {  # two regional trade blocks
    "CAN": 0, "MEX": 0, "USA": 0, "JPN": 0,
    "CHN": 1, "DEU": 1, "FRA": 1, "GBR": 1,
}
FIXTURE_GDP_BASE = {
    "CAN": 0.60e12, "CHN": 1.20e12, "DEU": 1.90e12, "FRA": 1.30e12,
    "GBR": 1.40e12, "JPN": 4.30e12, "MEX": 0.40e12, "USA": 7.60e12,
}
FIXTURE_YEARS = tuple(range(1995, 2007))
# within-block boost per year: high right after the recession windows
FIXTURE_BOOST = {
    1995: 3.0, 1996: 2.6, 1997: 2.3, 1998: 3.4, 1999: 3.8, 2000: 2.4,
    2001: 2.1, 2002: 3.6, 2003: 3.9, 2004: 2.5, 2005: 2.2, 2006: 2.0,
}

FIXTURE_RECESSIONS = [
    ("asia-crisis", "1997-08", "1998-06"),
    ("dotcom", "2001-03", "2001-11"),
]


def fixture_gdp_rows():
    rows = []
    for year in FIXTURE_YEARS:
        growth = 1.03 ** (year - FIXTURE_YEARS[0])
        for c in FIXTURE_COUNTRIES:
            rows.append((year, c, round(FIXTURE_GDP_BASE[c] * growth)))
    return rows


def fixture_trade_rows(seed=7):
    """Gravity-style directed flows with a yearly within-block boost;
    total exports stay below 40% of each country's GDP."""
    rng = np.random.default_rng(seed)
    rows = []
    for year in FIXTURE_YEARS:
        growth = 1.03 ** (year - FIXTURE_YEARS[0])
        boost = FIXTURE_BOOST[year]
        raw = {}
        for rep in FIXTURE_COUNTRIES:
            for par in FIXTURE_COUNTRIES:
                if rep == par:
                    continue
                pull = FIXTURE_GDP_BASE[par] ** 0.7
                same = FIXTURE_BLOCKS[rep] == FIXTURE_BLOCKS[par]
                noise = rng.uniform(0.7, 1.3)
                raw[(rep, par)] = pull * (boost if same else 1.0) * noise
        for rep in FIXTURE_COUNTRIES:
            total = sum(v for (r, _), v in raw.items() if r == rep)
            budget = 0.35 * FIXTURE_GDP_BASE[rep] * growth
            for par in FIXTURE_COUNTRIES:
                if rep == par:
                    continue
                value = round(raw[(rep, par)] / total * budget)
                rows.append((year, rep, par, value))
    return rows


def fixture_files() -> dict[str, str]:
    """The three bundled CSV fixtures as text, keyed by file name."""
    trade = ["year,reporter,partner,value_usd"]
    trade += [f"{y},{r},{p},{v}" for y, r, p, v in fixture_trade_rows()]
    gdp = ["year,country,gdp_usd"]
    gdp += [f"{y},{c},{v}" for y, c, v in fixture_gdp_rows()]
    rec = ["label,start,end"]
    rec += [f"{label},{start},{end}" for label, start, end in FIXTURE_RECESSIONS]
    return {
        "trade.csv": "\n".join(trade) + "\n",
        "gdp.csv": "\n".join(gdp) + "\n",
        "recessions.csv": "\n".join(rec) + "\n",
    }

