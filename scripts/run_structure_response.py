#!/usr/bin/env python3
"""Shock matched uniform/modular network pairs and tabulate how topology
changes hierarchy (CCC), world GDP loss, and the fitted recovery rate.

Usage: python3 scripts/run_structure_response.py [n_pairs] [shock_fraction]
"""

import sys

from tradetopo import metrics, shockprop, synthetic
from tradetopo.shockprop import ShockConfig


def run_pair(seed, shock_fraction):
    pair = synthetic.matched_block_pair(seed)
    cfg = ShockConfig(epicenter="C00", shock_fraction=shock_fraction)
    out = {}
    for which in ("uniform", "modular"):
        shock, _, fit = shockprop.shock_and_recover(pair.state(which), cfg)
        out[which] = (
            metrics.ccc_of_network(pair.network(which)).ccc,
            shockprop.world_gdp_change(shock),
            fit.lam,
        )
    return out


def main(argv):
    n_pairs = int(argv[1]) if len(argv) > 1 else 20
    shock = float(argv[2]) if len(argv) > 2 else 0.054
    print(f"{'seed':>4}  {'topology':>8}  {'ccc':>8}  {'gdp_change':>11}  {'lambda':>8}")
    wins = {"ccc": 0, "loss": 0, "lam": 0}
    for seed in range(n_pairs):
        out = run_pair(seed, shock)
        for which in ("uniform", "modular"):
            ccc, wgc, lam = out[which]
            print(f"{seed:>4}  {which:>8}  {ccc:8.4f}  {wgc:11.3e}  {lam:8.4f}")
        wins["ccc"] += out["modular"][0] > out["uniform"][0]
        wins["loss"] += abs(out["modular"][1]) < abs(out["uniform"][1])
        wins["lam"] += out["modular"][2] > out["uniform"][2]
    print(
        f"\nmodular wins out of {n_pairs}: "
        f"higher ccc {wins['ccc']}, smaller loss {wins['loss']}, "
        f"faster recovery {wins['lam']}"
    )


if __name__ == "__main__":
    main(sys.argv)
