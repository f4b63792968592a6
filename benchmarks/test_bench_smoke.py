"""Smoke test of the benchmark itself: every workload at tiny sizes, untraced
and traced, plus the result-line contract and the negative-control check."""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def test_spec_matches_harness():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert SPEC["command"] == ["python3", "benchmarks/run.py"]
    assert WORKLOADS == list(workloads.ROUNDS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_workload(workload, trace):
    result, details = run.run_benchmark(workload, 3, 0, trace, tiny=True, setup_repeats=1)
    assert details["failures"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if trace:
        assert details["self_time_mismatches"] == 0
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_passing_negative_control_is_caught(monkeypatch):
    revival = importlib.import_module("cyclewalk.revival")
    real = revival.power_deviation
    for name in ("cyclewalk", *(f"cyclewalk.{layer}" for layer in ("revival", "solver", "tables", "cli"))):
        module = importlib.import_module(name)
        if getattr(module, "power_deviation", None) is real:
            monkeypatch.setattr(module, "power_deviation", lambda k, params, n: 0.0)
    result, details = run.run_benchmark("large_cycle", 3, 0, False, tiny=True, setup_repeats=1)
    assert not result["correct"] and result["failed"] > 0
    assert any(f.startswith("verify-fail") for f in details["failures"])


def test_command_line_contract():
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "walk_stream", "--seed", "2",
         "--seconds", "0", "--trace", "0", "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    details, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and set(result["metrics"]) == set(run.END_TO_END)
    assert {"nproc", "blas", "blas_threads", "python", "numpy", "caches"} <= set(details["machine"])


def test_refuses_without_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "paper_search", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0 and proc.stdout == ""
