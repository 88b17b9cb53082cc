#!/usr/bin/env python3
"""tradetopo benchmark: three workloads, end-to-end and per-layer metrics.

  python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 bench/run.py --smoke ...   tiny inputs (bench/tests/test_smoke.py)
  python3 bench/run.py --record      rewrite bench/expected.json

Run from anywhere inside a checkout; the package is imported from the
checkout's src/. The last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it is a
record of the run (environment, per-round times, problems found).
Workloads, metrics and the layer -> end-to-end mapping are described in
bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import calib
import checks
import gen
import tracing
import worker

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CACHE = os.path.join(ROOT, ".bench_cache")
FIXTURES = os.path.join(ROOT, "tests", "fixtures")
WORKLOADS = ("panel_pipeline", "tree_sweep", "structure_response")
N_PROBES = 7
PANEL_MIN_ROUNDS = 2
RUN_DEADLINE_S = 170.0  # a run must end within 180 s
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    "TRADE_TOPOLOGY_THREADS",
)


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def child_env():
    """The caller's environment with the checkout's src/ first on the path.
    BLAS and TRADE_TOPOLOGY_THREADS settings are passed through untouched."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def run_child(argv, deadline, log_path, ready_line=False):
    """Run argv to completion; returns (exit code, wall s, rusage, ready s).

    ready s is the time until the child printed "ready" (ready_line) or
    None. The child is killed at the monotonic deadline.
    """
    with open(log_path, "w") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stderr=log,
            stdout=subprocess.PIPE if ready_line else subprocess.DEVNULL,
        )
        timer = threading.Timer(max(0.1, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            ready = None
            if ready_line:
                line = proc.stdout.readline()
                ready = time.perf_counter() - t0
                proc.stdout.read()
                proc.stdout.close()
                if line.strip() != b"ready":
                    ready = None
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        finally:
            timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage, ready


def cpu_s(usage):
    return usage.ru_utime + usage.ru_stime


def rss_mb(usage):
    return usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def worker_argv(args, *extra):
    return [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--cache", CACHE, *(["--smoke"] if args.smoke else []), *extra,
    ]


def setup_seconds(args, deadline):
    """Median time from a fresh interpreter to imports done and inputs
    built, over several probe processes. Calibration (calib.py) tracks
    process start-up badly, so probes are reported as measured."""
    if args.workload == "panel_pipeline":
        argv = [sys.executable, "-c", "import tradetopo.cli; print('ready', flush=True)"]
    else:
        argv = worker_argv(args, "--probe")
    log = os.path.join(CACHE, f"probe-{os.getpid()}.log")
    times = []
    for _ in range(2 if args.smoke else N_PROBES):
        rc, _, _, ready = run_child(argv, deadline, log, ready_line=True)
        if rc != 0 or ready is None:
            raise BenchError(f"set-up probe failed (exit {rc}); see {log}")
        times.append(ready)
    return statistics.median(times), times


# --- panel_pipeline ---

def panel_inputs(args):
    """(panel dir, epicenter, recorded digests or None)."""
    expected = checks.load_expected()
    if args.smoke:
        return FIXTURES, "USA", expected["fixture"]["sha256"]
    panel = gen.cached_panel(CACHE, args.seed)
    with open(os.path.join(panel, "meta.json")) as fh:
        epicenter = json.load(fh)["epicenter"]
    recorded = expected["panel_pipeline"]
    digests = None
    if args.seed == recorded["seed"] and expected["gen_version"] == gen.GEN_VERSION:
        digests = recorded["sha256"]
    return panel, epicenter, digests


def panel_oracle(panel_dir):
    """({year: scipy CCC}, path of its JSON cache) for a panel."""
    if panel_dir.startswith(CACHE):
        path = os.path.join(panel_dir, "oracle.json")
    else:
        path = os.path.join(CACHE, f"oracle-{os.path.basename(panel_dir)}.json")
    if not os.path.exists(path):
        mats = checks.read_trade_matrices(os.path.join(panel_dir, "trade.csv"))
        oracle = {year: checks.scipy_hierarchy(m)[1] for year, m in sorted(mats.items())}
        with open(path + ".tmp", "w") as fh:
            json.dump(oracle, fh)
        os.replace(path + ".tmp", path)
    with open(path) as fh:
        return {int(y): c for y, c in json.load(fh).items()}, path


def run_panel_pipeline(args, deadline):
    """Untraced: whole `python -m tradetopo.cli pipeline` children, as a
    user runs it. Traced: the worker runs cli.main in-process."""
    panel, epicenter, digests = panel_inputs(args)
    oracle, oracle_path = panel_oracle(panel)
    out_dir = os.path.join(CACHE, f"out-{os.getpid()}")
    if args.trace:
        spec = {"panel": panel, "epicenter": epicenter, "out": out_dir,
                "oracle": oracle_path, "digests": digests}
        record = run_in_worker(args, deadline, "--pipeline", json.dumps(spec))
        shutil.rmtree(out_dir, ignore_errors=True)
        return record
    log = os.path.join(CACHE, f"pipeline-{os.getpid()}.log")
    argv = [sys.executable, "-m", "tradetopo.cli", *worker.pipeline_args(panel, epicenter, out_dir)]
    rounds, problems, failed = [], [], 0
    start = time.perf_counter()
    # Whole pipelines only, at least PANEL_MIN_ROUNDS of them: one ~20 s
    # pipeline varies by up to ±15% from run to run on a shared host (CSV
    # parsing and the KS enumeration are memory-bound), so one is not enough.
    while len(rounds) < PANEL_MIN_ROUNDS or (
            time.perf_counter() - start + rounds[-1]["wall_s"] <= args.seconds
            and time.monotonic() + 2 * rounds[-1]["wall_s"] < deadline):
        shutil.rmtree(out_dir, ignore_errors=True)
        rc, wall, usage, _ = run_child(argv, deadline, log)
        found = checks.pipeline_failures(rc, out_dir, panel, oracle, digests)
        failed += len(found)
        problems.extend(sorted(set(found.values())))
        rounds.append({"wall_s": wall, "cpu_s": cpu_s(usage), "rss_mb": rss_mb(usage)})
    shutil.rmtree(out_dir, ignore_errors=True)
    return {"untraced": rounds, "attempted": len(oracle) * len(rounds), "failed": failed,
            "problems": problems, "peak_rss_mb": max(r["rss_mb"] for r in rounds)}


# --- in-process workloads ---

def run_in_worker(args, deadline, *extra):
    result = os.path.join(CACHE, f"result-{os.getpid()}.json")
    log = os.path.join(CACHE, f"worker-{os.getpid()}.log")
    rc, _, usage, _ = run_child(worker_argv(args, "--result", result, *extra), deadline, log)
    if rc != 0:
        raise BenchError(f"worker exited {rc}; see {log}")
    with open(result) as fh:
        record = json.load(fh)
    os.unlink(result)
    record["peak_rss_mb"] = rss_mb(usage)
    return record


# --- results ---

def end_to_end(record, setup):
    """In-process rounds carry a calibration scale (calib.py); whole CLI
    processes are too long to bracket and are reported as measured."""
    rounds = record["untraced"]
    return {
        "wall_s": statistics.median(r["wall_s"] * r.get("scale", 1.0) for r in rounds),
        "cpu_s": statistics.median(r["cpu_s"] * r.get("scale", 1.0) for r in rounds),
        "peak_rss_mb": record["peak_rss_mb"],
        "setup_s": setup,
        "ok_frac": 1.0 - record["failed"] / record["attempted"],
    }


def per_layer(record):
    traced = record["traced"]
    values = [r["values"] for r in traced]
    out = {name: statistics.median(v[name] for v in values)
           for name in [*tracing.TIMES, "shockprop.step.us_per_call"]}
    out.update({name: values[0][name] for name in tracing.COUNTS})
    for name in tracing.COUNTS:
        if any(v[name] != values[0][name] for v in values):
            record["problems"].append(f"count {name} differs between traced rounds")
    out["stats.ks_peak_mb"] = max(v["stats.ks_peak_mb"] for v in values)
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    out["trace.overhead_s"] = traced_wall - statistics.median(
        r["wall_s"] for r in record["untraced"])
    out["trace.accounted_frac"] = statistics.median(
        v["traced_self_s"] / r["wall_s"] for v, r in zip(values, traced))
    out["failed_frac"] = record["failed"] / record["attempted"]
    return out


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return None
    done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or None


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": git_commit(),
    }


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run(args):
    deadline = time.monotonic() + RUN_DEADLINE_S
    spec = benchmark_spec()
    os.makedirs(CACHE, exist_ok=True)
    if args.workload == "tree_sweep":  # build the cached inputs before any timing
        gen.cached_trees(CACHE, args.seed, *(worker.SMOKE_TREES if args.smoke else ()))
    setup, probes = (None, []) if args.trace else setup_seconds(args, deadline)
    if args.workload == "panel_pipeline":
        record = run_panel_pipeline(args, deadline)
    else:
        record = run_in_worker(args, deadline)
    if args.trace:
        values, wanted = per_layer(record), spec["per_layer"]
    else:
        values, wanted = end_to_end(record, setup), spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    log_record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "environment": environment(),
        "setup_probes_s": probes,
        "rounds_untraced": record["untraced"], "rounds_traced": record.get("traced", []),
        "problems": record["problems"][:20],
    }
    print(json.dumps(log_record))
    print(json.dumps({
        "correct": record["failed"] == 0 and not record["problems"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))


def record_expected():
    """Rewrite expected.json from the current checkout's outputs."""
    sys.path.insert(0, SRC)  # structure_scenarios runs in this process
    deadline = time.monotonic() + 3600
    os.makedirs(CACHE, exist_ok=True)
    expected = {"gen_version": gen.GEN_VERSION}
    panel0 = gen.cached_panel(CACHE, 0)
    with open(os.path.join(panel0, "meta.json")) as fh:
        epicenter0 = json.load(fh)["epicenter"]
    for key, seed, panel, epicenter in (("panel_pipeline", 0, panel0, epicenter0),
                                        ("fixture", None, FIXTURES, "USA")):
        out_dir = os.path.join(CACHE, f"record-{key}")
        shutil.rmtree(out_dir, ignore_errors=True)
        rc, _, _, _ = run_child(
            [sys.executable, "-m", "tradetopo.cli",
             *worker.pipeline_args(panel, epicenter, out_dir)],
            deadline, os.path.join(CACHE, "record.log"))
        found = checks.pipeline_failures(rc, out_dir, panel, panel_oracle(panel)[0])
        if found:
            raise BenchError(f"{key}: outputs fail their checks: {found}")
        expected[key] = {"seed": seed, "sha256": {
            name: checks.sha256_file(os.path.join(out_dir, name))
            for name in checks.PIPELINE_FILES}}
        shutil.rmtree(out_dir)
    digests = []
    for pair_seed in range(worker.STRUCTURE_TABLE):
        texts, errors = worker.structure_scenarios(pair_seed)
        if errors:
            raise BenchError(f"structure pair {pair_seed}: {errors}")
        digests.append(checks.digest_text("\n".join(texts)))
    expected["structure_response"] = {"digests": digests}
    with open(checks.EXPECTED_PATH, "w") as fh:
        json.dump(expected, fh, indent=1)
        fh.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs; panel_pipeline runs on tests/fixtures")
    parser.add_argument("--record", action="store_true",
                        help="rewrite bench/expected.json from this checkout")
    args = parser.parse_args(argv)
    try:
        if not os.path.exists(os.path.join(SRC, "tradetopo", "cli.py")):
            raise BenchError(f"no tradetopo sources under {SRC}")
        if args.record:
            record_expected()
        elif args.workload is None:
            parser.error("--workload is required")
        else:
            run(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
