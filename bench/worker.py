"""Benchmark worker: one fresh interpreter per run, driven by run.py.

  worker.py --workload W --seed S --seconds T --trace 0|1 --cache DIR
            --result PATH [--smoke] [--probe] [--pipeline JSON]

The worker imports tradetopo, builds the workload's inputs (the set-up),
then repeats the workload's round until --seconds have passed and writes
per-round wall and CPU times, per-item failures and, with --trace 1, the
per-layer metric values of traced rounds to --result as JSON. A traced run
spends half of --seconds untraced and half traced. With --probe it stops
after the set-up and prints "ready"; run.py times such probes for setup_s.

panel_pipeline is normally run by run.py as `python -m tradetopo.cli`
children; the worker runs it only traced, in-process through cli.main.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import sys
import time

import calib
import gen
from tracing import Tracer, round_metrics

N_CLUSTERS = 6  # the CLI's default --cut
SHOCK_FRACTION = 0.054  # the CLI's default --shock
STRUCTURE_TABLE = 256  # pair seeds with recorded digests
STRUCTURE_PAIRS = 48  # pair seeds per round
SMOKE_TREES = (30, 4)  # n countries, n networks
SMOKE_PAIRS = 3


# --- tree_sweep: hclust + metrics on prebuilt networks ---

class TreeSweep:
    def __init__(self, args):
        import numpy as np
        from tradetopo import hclust, ingest, metrics

        self.hclust, self.metrics = hclust, metrics
        n, n_years = SMOKE_TREES if args.smoke else (gen.TREE_COUNTRIES, gen.TREE_YEARS)
        with np.load(gen.cached_trees(args.cache, args.seed, n, n_years)) as data:
            codes = [str(c) for c in data["codes"]]
            self.matrices = data["m"]
        self.networks = [
            ingest.TradeNetwork(year=2000 + t, countries=list(codes), m=m.copy())
            for t, m in enumerate(self.matrices)
        ]
        self._oracle = None

    def items(self):
        return len(self.networks)

    def run_round(self):
        out = []
        for net in self.networks:
            try:
                point = self.metrics.ccc_of_network(net)
                dend = self.hclust.average_linkage(self.hclust.distances_from_network(net))
                self.hclust.to_newick(dend, net.countries)
                assignment = self.hclust.cut_at_count(dend, N_CLUSTERS)
                share = self.metrics.ordered_share_matrix(net, dend)
            except Exception as exc:  # an item that raises counts as failed
                out.append(f"raised {type(exc).__name__}: {exc}")
                continue
            out.append((point.ccc, [m.height for m in dend.merges], assignment,
                        share.countries))
        return out

    def check(self, outputs):
        import checks

        problems = {}
        for k, (net, got) in enumerate(zip(self.networks, outputs)):
            if isinstance(got, str):
                problems[k] = got
                continue
            if self._oracle is None:
                self._oracle = [checks.scipy_hierarchy(m) for m in self.matrices]
            ccc, heights, assignment, share_countries = got
            found = checks.check_tree(self._oracle[k], heights, ccc, N_CLUSTERS,
                                      assignment, share_countries, net.countries)
            if found:
                problems[k] = "; ".join(found)
        return problems


# --- structure_response: the loop of scripts/run_structure_response.py ---

def structure_scenarios(pair_seed):
    """(texts, errors) for both allocations of one matched pair: the values
    scripts/run_structure_response.py tabulates plus the step counts, as
    %.12g text, and {scenario index: message} for scenarios that raised."""
    from tradetopo import metrics, shockprop, synthetic

    pair = synthetic.matched_block_pair(pair_seed)
    cfg = shockprop.ShockConfig(epicenter="C00", shock_fraction=SHOCK_FRACTION)
    texts, errors = [], {}
    for j, which in enumerate(("uniform", "modular")):
        try:
            shock = shockprop.run_to_steady(pair.state(which), cfg)
            rec = shockprop.run_recovery(shock.final_state, 100.0, cfg)
            ccc = metrics.ccc_of_network(pair.network(which)).ccc
            wgc = shockprop.world_gdp_change(shock)
            lam = shockprop.fit_recovery(rec).lam
        except Exception as exc:  # an item that raises counts as failed
            errors[j] = f"{which}: raised {type(exc).__name__}: {exc}"
            texts.append(errors[j])
            continue
        texts.append(f"{which}:{ccc:.12g}:{wgc:.12g}:{lam:.12g}:"
                     f"{len(shock.steps)}:{len(rec.steps)}")
    return texts, errors


class StructureResponse:
    def __init__(self, args):
        import tradetopo.metrics  # noqa: F401  (imports the layers it drives)
        import tradetopo.shockprop  # noqa: F401
        import tradetopo.synthetic  # noqa: F401

        count = SMOKE_PAIRS if args.smoke else STRUCTURE_PAIRS
        self.pair_seeds = gen.structure_pair_seeds(args.seed, count, STRUCTURE_TABLE)
        # read directly: checks imports scipy.stats, which set-up must not pay for
        with open(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                               "expected.json")) as fh:
            self.expected = json.load(fh)["structure_response"]["digests"]

    def items(self):
        return 2 * len(self.pair_seeds)

    def run_round(self):
        return [structure_scenarios(s) for s in self.pair_seeds]

    def check(self, outputs):
        import checks

        problems = {}
        for k, (seed, (texts, errors)) in enumerate(zip(self.pair_seeds, outputs)):
            for j, message in errors.items():
                problems[2 * k + j] = f"pair {seed} {message}"
            if checks.digest_text("\n".join(texts)) != self.expected[seed]:
                problems.setdefault(2 * k, f"pair {seed}: digest differs from the recorded one")
                problems.setdefault(2 * k + 1, problems[2 * k])
        return problems


# --- panel_pipeline, in-process through cli.main (traced runs only) ---

def pipeline_args(panel_dir, epicenter, out_dir):
    """`tradetopo pipeline` arguments for a panel directory."""
    return [
        "pipeline",
        "--trade", os.path.join(panel_dir, "trade.csv"),
        "--gdp", os.path.join(panel_dir, "gdp.csv"),
        "--recessions", os.path.join(panel_dir, "recessions.csv"),
        "--epicenter", epicenter, "--out", out_dir,
    ]


class Pipeline:
    """--pipeline is a JSON object with the panel dir, epicenter, output
    dir, the path of the panel's scipy CCC oracle and recorded digests."""

    def __init__(self, args):
        from tradetopo import cli

        self.cli = cli
        spec = json.loads(args.pipeline)
        self.panel, self.out_dir, self.digests = spec["panel"], spec["out"], spec["digests"]
        self.argv = pipeline_args(spec["panel"], spec["epicenter"], spec["out"])
        with open(spec["oracle"]) as fh:
            self.oracle = {int(y): c for y, c in json.load(fh).items()}

    def items(self):
        return len(self.oracle)

    def run_round(self):
        shutil.rmtree(self.out_dir, ignore_errors=True)
        return self.cli.main(self.argv)

    def check(self, rc):
        import checks

        return checks.pipeline_failures(rc, self.out_dir, self.panel, self.oracle,
                                        self.digests)


# --- round loop ---

def timed(fn):
    gc.collect()
    c0, t0 = time.process_time(), time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0, time.process_time() - c0


def output_bytes(out_dir):
    return sum(os.path.getsize(os.path.join(out_dir, f)) for f in os.listdir(out_dir))


def run_rounds(work, seconds, min_rounds, tracer=None):
    """Repeat work.run_round until `seconds` have passed and check each
    round. Rounds are bracketed by calibration samples (calib.py); with a
    tracer, each round also records its per-layer metric values."""
    rounds, failed, problems = [], 0, []
    out_dir = getattr(work, "out_dir", None)
    start = time.perf_counter()
    while len(rounds) < min_rounds or time.perf_counter() - start < seconds:
        if tracer:
            tracer.reset()
        (outputs, wall, cpu), factor = calib.bracketed(lambda: timed(work.run_round))
        this = {"wall_s": wall, "cpu_s": cpu, "scale": factor}
        if tracer:
            this["values"] = round_metrics(tracer.snapshot(),
                                           output_bytes(out_dir) if out_dir else 0)
        found = work.check(outputs)
        failed += len(found)
        problems.extend(found.values())
        rounds.append(this)
    return rounds, failed, problems


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cache", required=True)
    parser.add_argument("--result")
    parser.add_argument("--pipeline")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)

    kinds = {"tree_sweep": TreeSweep, "structure_response": StructureResponse,
             "panel_pipeline": Pipeline}
    work = kinds[args.workload](args)
    if args.probe:
        sys.stdout.write("ready\n")
        sys.stdout.flush()
        return 0

    seconds = args.seconds / 2 if args.trace else args.seconds
    rounds, failed, problems = run_rounds(work, seconds, 1 if args.trace else 3)
    record = {"untraced": rounds}
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced, traced_failed, traced_problems = run_rounds(work, seconds, 1, tracer)
        finally:
            tracer.uninstall()
        record["traced"] = traced
        rounds = rounds + traced
        failed += traced_failed
        problems += traced_problems
    record.update(attempted=work.items() * len(rounds), failed=failed,
                  problems=problems[:20])
    with open(args.result, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
