"""Smoke test of the benchmark: every workload at tiny sizes, untraced then
traced, through the same command line the full runs use."""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(cwd, out, workload, trace):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--smoke",
         "--out", str(out)],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def result_of(done) -> dict:
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], done.stderr
    assert result["attempted"] >= 1 and result["failed"] == 0
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_then_traced_run(tmp_path, workload):
    plain = result_of(bench(ROOT, tmp_path, workload, 0))
    assert set(plain["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in plain["metrics"].values())

    # the traced run's records must digest like the untraced run's
    traced = result_of(bench(ROOT, tmp_path, workload, 1))
    metrics = {k: v["value"] for k, v in traced["metrics"].items()}
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    # the wrappers sit on the real call path
    if workload.startswith("sweep"):
        assert metrics["solvers.operator_norm_sq.calls_per_op"] == 2
        assert metrics["sensing.build_sensing_system.calls_per_op"] == 1
    else:
        assert metrics["sensing.build_sensing_system.calls_per_op"] == 2
        assert metrics["solvers.operator_norm_sq.calls_per_op"] == 0
    shares = [v for k, v in metrics.items() if k.endswith(".self_share")]
    assert len(shares) == 7 and sum(shares) == pytest.approx(1.0)


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench(str(tmp_path), tmp_path / "out", WORKLOADS[0], 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
