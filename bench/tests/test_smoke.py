"""Smoke tests for the benchmark: every workload at tiny size, both modes.

Run with:  python3 -m pytest bench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("panel_pipeline", "tree_sweep", "structure_response")

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def run_bench(*args, cwd=ROOT, timeout=180):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


def smoke(workload, trace, seed=1):
    done = run_bench("--smoke", "--workload", workload, "--seed", str(seed),
                     "--seconds", "0.5", "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_emitted_and_outputs_correct(workload, trace):
    record, result = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, record["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    env = record["environment"]
    for key in ("python", "numpy", "scipy", "blas", "thread_env", "cpu_count",
                "cpu_affinity", "commit"):
        assert key in env
    assert "TRADE_TOPOLOGY_THREADS" in env["thread_env"]


def test_end_to_end_values_are_positive():
    _, result = smoke("structure_response", 0)
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["value"] > 0


def test_counts_repeat_for_the_same_seed():
    names = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "B")]
    _, first = smoke("panel_pipeline", 1, seed=5)
    _, second = smoke("panel_pipeline", 1, seed=5)
    assert {n: first["metrics"][n]["value"] for n in names} == {
        n: second["metrics"][n]["value"] for n in names}
    assert first["metrics"]["ingest.parse_trade_csv.calls"]["value"] >= 1
    assert first["metrics"]["shockprop.step.calls"]["value"] >= 1


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("--workload", "tree_sweep", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=str(tmp_path))
    assert done.returncode != 0
    assert done.stdout.strip() == ""
