"""Matched pairs of synthetic economies for the structure-response
experiment.

matched_block_pair builds two 24-country economies that share every
country-level aggregate (GDP vector and per-country total exports, hence
total world trade) and differ only in how exports are allocated: evenly
across all partners, or concentrated inside 4 trade blocks of 6 (within-
block weights boosted 30-fold). The blocks carry an export/GDP gradient
(openness 0.2, 0.45, 0.7, 0.95) and the shocked country sits in the least
open block, so the pair isolates the effect of modular allocation on
shock propagation.
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
    exports: dict[str, np.ndarray]  # keyed by allocation: "uniform", "modular"

    def network(self, which) -> TradeNetwork:
        return symmetrize(2000, self.countries, self.exports[which])

    def state(self, which) -> EconomyState:
        x = self.exports[which]
        return EconomyState.from_exports(self.countries, self.gdp.copy(), x.copy())


def matched_block_pair(seed) -> MatchedPair:
    n, n_blocks, boost = 24, 4, 30.0
    openness = np.array([0.2, 0.45, 0.7, 0.95])
    rng = np.random.default_rng(seed)
    gdp = np.full(n, 100.0)
    blocks = np.repeat(np.arange(n_blocks), n // n_blocks)
    p = openness[blocks]
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
        countries=tuple(f"C{i:02d}" for i in range(n)),
        gdp=gdp,
        exports={"uniform": uniform, "modular": modular},
    )
