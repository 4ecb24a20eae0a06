"""Tests of the benchmark itself; run with ``python3 -m pytest perfbench -q``.

Quick mode runs one round of each workload, so these tests check what the
benchmark emits, never how fast anything ran.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from hostspeed import REFERENCE_S, HostSpeed  # noqa: E402
from run import END_TO_END_UNITS  # noqa: E402
from tracing import PER_LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def bench(*args, root=ROOT):
    proc = subprocess.run([sys.executable, os.path.join(root, "perfbench", "run.py"), *args],
                          cwd=root, capture_output=True, text=True, timeout=600)
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    return proc, lines


def details(lines) -> dict:
    return next(line["details"] for line in lines if "details" in line)


def test_benchmark_json_names_what_the_benchmark_emits():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_METRICS


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_quick_run_emits_every_end_to_end_metric(workload):
    proc, lines = bench("--workload", workload, "--seed", "5", "--quick")
    assert proc.returncode == 0, proc.stderr
    result = lines[-1]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END_UNITS
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_run_reports_every_layer_and_leaves_charges_unchanged(workload):
    proc, lines = bench("--workload", workload, "--seed", "5", "--quick", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    traced = lines[-1]
    assert traced["correct"] and traced["failed"] == 0
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == PER_LAYER_METRICS
    assert details(lines)["absent"] == []

    proc, lines = bench("--workload", workload, "--seed", "5", "--quick")
    assert proc.returncode == 0, proc.stderr
    untraced = details(lines)["charges"]
    metrics = traced["metrics"]
    assert metrics["oracle.quantum_queries"]["value"] == untraced["quantum_queries"]
    assert metrics["oracle.classical_executions"]["value"] == untraced["classical_executions"]


def test_traced_counts_do_not_depend_on_speed():
    # The traced run does a fixed number of rounds, so every count it reports
    # is the same on a second run of the same seed, however fast either ran.
    counts = []
    for _ in range(2):
        proc, lines = bench("--workload", "collision-large", "--seed", "3", "--quick",
                            "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        counts.append({k: v["value"] for k, v in lines[-1]["metrics"].items()
                       if v["unit"] in ("count", "B") and k != "trace.spans"})
    assert counts[0] == counts[1]
    assert counts[0]["oracle.quantum_queries"] > 0


def test_workload_premises_show_in_the_trace():
    proc, lines = bench("--workload", "grid-small", "--seed", "5", "--quick", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    module_self = details(lines)["module_self_s"]
    assert max(module_self, key=module_self.get) == "mean_estimation"


def test_same_seed_gives_the_same_charges():
    digests = []
    for _ in range(2):
        proc, lines = bench("--workload", "collision-large", "--seed", "9", "--quick")
        assert proc.returncode == 0, proc.stderr
        digests.append(details(lines)["charges"])
    assert digests[0] == digests[1]


def test_host_speed_scales_by_the_smoothed_kernel_time():
    speed = HostSpeed()
    # Samples at 0, 1, ..., 4 s, each taking 0.1 s.
    speed.starts = [0.0, 1.0, 2.0, 3.0, 4.0]
    speed.ends = [t + 0.1 for t in speed.starts]
    # A lone slow sample is smoothed away; a lasting slowdown halves the factor.
    speed.kernel_s = [REFERENCE_S, REFERENCE_S, 9 * REFERENCE_S, REFERENCE_S, REFERENCE_S]
    assert speed.factors([0.0, 2.05, 3.5]) == pytest.approx([1.0, 1.0, 1.0])
    speed.kernel_s = [2 * REFERENCE_S] * 5
    assert speed.factors([0.5, 2.5]) == pytest.approx([0.5, 0.5])
    # A call from 0.5 s to 2.5 s ran for 1.8 s besides the samples inside it.
    raw, scaled = speed.scale([0.5], [2.5])
    assert raw == pytest.approx([1.8])
    assert scaled == pytest.approx([0.9], rel=0.02)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc, lines = bench("--workload", "grid-small", "--seed", "1", "--seconds", "1",
                        root=str(tmp_path))
    assert proc.returncode != 0
    assert not any("correct" in line for line in lines)
