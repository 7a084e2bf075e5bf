"""Smoke tests of the benchmark harness: tiny budgets, no timing asserted.

Run with ``python3 -m pytest bench`` from the repository root; the tier-1
suite (``tests/``) does not collect this file.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import lqlearn as lq  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], *map(str, args)],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_untraced_passes_checks(workload, seed):
    proc = run_bench("--workload", workload, "--seed", seed, "--seconds", 1,
                     "--trace", 0, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    names = {m["name"] for m in SPEC["end_to_end"]}
    assert set(result["metrics"]) == names
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name
    assert "deterministic across" in proc.stdout


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_traced_reports_every_layer(workload):
    proc = run_bench("--workload", workload, "--seed", 3, "--seconds", 1,
                     "--trace", 1, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    if workload == "validate_mc":
        assert metrics["sampling.simulate_trajectory.calls"]["value"] == 20
        assert metrics["qlearning.y_operator.calls"]["value"] > 0  # set-up run only
        assert metrics["lqcore.svd_per_update"]["value"] == 0.0
    else:
        assert metrics["lqcore.svd_per_update"]["value"] == 2.0
        assert metrics["sampling.simulate_trajectory.calls"]["value"] == 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "paper_sweep", "--seed", 0, "--seconds", 1,
                     "--trace", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_exact_cost_matches_oracle_value_under_k_star():
    cfg = workloads.preset()
    config = lq.load_preset("paper_sec4")
    oracle = lq.solve_oracle(config.system, config.noise)
    x0 = np.asarray(cfg["validation"]["x0"], dtype=float)
    expected = float(x0 @ oracle.P @ x0)
    assert workloads.exact_cost(cfg, oracle.K_star.K, 10_000) == pytest.approx(
        expected, rel=1e-9
    )
    # Truncation: one step costs exactly x0'(Q + K'RK)x0.
    K = oracle.K_star.K
    C = config.system.Q + K.T @ config.system.R @ K
    assert workloads.exact_cost(cfg, K, 1) == pytest.approx(float(x0 @ C @ x0))


def test_computed_flops_at_paper_dimensions():
    # n=2, m=1: y_operator 95, innovation + symmetrize + norm guard 54,
    # consensus 27 per neighbour.
    assert workloads.flops_sensor_update(2, 1, 0) == 149
    assert workloads.flops_sensor_update(2, 1, 2) == 203
    assert workloads.flops_realize(2, 1) == 12
    assert workloads.flops_rollout_step(2, 1) == 41
