"""Tests of the benchmark itself, at the demos/04_snr_sweep.py scale except
where a test says otherwise.

Run:  python3 -m pytest perfbench -q
(The repository's default test run collects only ``tests/``.)
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import bench  # noqa: E402

WORKLOADS = ("eval_grid", "train_sets", "raw_baselines")
ISSUE_METRICS = {
    "eval_grid": ["trials_per_s", "eval_ms_p50", "eval_ms_p90", "eval_calls"],
    "train_sets": ["sample_epochs_per_s", "set_train_s_p50", "set_train_calls"],
    "raw_baselines": ["trials_per_s", "eval_ms_p50", "eval_ms_p90", "eval_calls"],
}
COMMON_METRICS = [
    "setup_s", "setup_wall_s", "cpu_s", "wall_s", "peak_rss_mb", "failed_frac",
    "stage_datasets_s", "stage_training_s", "stage_eval_s", "stage_crb_s",
]


def toy(workload, tmp_path, trace=False, seed=5):
    return bench.measure(workload, seed, 0, trace, toy=True, out_root=tmp_path)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_with_unit_and_no_failure(workload, tmp_path):
    report = toy(workload, tmp_path)
    result = report["result"]
    assert result["correct"] and result["failed"] == 0, report["problems"]
    assert result["attempted"] >= 1
    declared = bench.declared_metrics("end_to_end")
    assert set(result["metrics"]) == set(declared)
    for name, m in result["metrics"].items():
        assert m["unit"] == declared[name]
        assert m["value"] > 0, name
    for name in COMMON_METRICS + ISSUE_METRICS[workload]:
        assert report["metrics"][name]["unit"], name
    assert report["metrics"]["failed_frac"]["value"] == 0.0
    assert report["timed_steps"] >= bench.MIN_ITERATIONS


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_layers_and_writes_same_bytes(workload, tmp_path):
    report = toy(workload, tmp_path, trace=True)
    assert report["result"]["correct"], report["problems"]
    metrics = report["result"]["metrics"]
    assert set(metrics) == set(bench.declared_metrics("per_layer"))
    called = {
        "eval_grid": ["arrays", "music", "network", "metrics", "harness"],
        "train_sets": ["arrays", "network", "harness"],
        "raw_baselines": ["arrays", "music", "metrics", "harness", "cli"],
    }[workload]
    for layer in called:
        assert metrics[f"{layer}.self_s"]["value"] > 0, layer
    assert "trace.overhead_s" in metrics
    # Each traced step was checked against the digests of the first untraced one.
    assert report["traced_steps"] >= 2 and not report["problems"]
    spans = Path(report["spans_file"]).read_text().splitlines()
    first = json.loads(spans[0])
    assert set(first) == {"i", "name", "start", "end", "parent", "run", "tag"}


def test_same_seed_writes_same_bytes(tmp_path):
    a = toy("eval_grid", tmp_path / "a", seed=9)
    b = toy("eval_grid", tmp_path / "b", seed=9)
    c = toy("eval_grid", tmp_path / "c", seed=10)
    assert a["digests"] == b["digests"]
    assert a["digests"]["setup"] != c["digests"]["setup"]


def test_command_prints_result_as_last_line(tmp_path):
    """The full-scale raw_baselines workload, at its minimum of timed steps."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "raw_baselines",
         "--seed", "3", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"]
    assert any(line.startswith("eval_ms_p90 = ") and line.endswith(" ms") for line in lines)
    # Another process with the same seed writes the same bytes.
    report = json.loads((ROOT / ".perfbench" / "raw_baselines-seed3-trace0.json").read_text())
    again = bench.measure("raw_baselines", 3, 0, False, out_root=tmp_path)
    assert report["digests"] == again["digests"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eval_grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert out.returncode != 0
    assert "correct" not in out.stdout
