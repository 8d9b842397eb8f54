"""Self-tests of the benchmark: ``python -m pytest -q perfbench/selftest.py``.

Every workload runs through the one command at a tiny size (a few ops,
one set-up probe), in a subprocess, exactly as the benchmark is driven.
"""

from __future__ import annotations

import functools
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(workload["name"] for workload in SPEC["workloads"])


def run_bench(workload: str, *, seed: int = 3, trace: int = 0, ops: int = 2) -> tuple[dict, str]:
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", "1",
        "--trace", str(trace), "--ops", str(ops), "--setup-repeats", "1",
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), done.stdout


#: Runs shared by the tests that inspect the same invocation.
bench = functools.lru_cache(maxsize=None)(run_bench)


def _units(section: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in SPEC[section]}


def _check_shape(result: dict, section: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    metrics = result["metrics"]
    assert {name: value["unit"] for name, value in metrics.items()} == _units(section)
    assert all(isinstance(value["value"], (int, float)) for value in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_present_with_its_unit(workload):
    timed, text = bench(workload)
    _check_shape(timed, "end_to_end")
    assert "fail_ratio=" in text
    traced, _ = bench(workload, trace=1)
    _check_shape(traced, "per_layer")
    assert timed["correct"] and timed["failed"] == 0
    assert traced["correct"] and traced["failed"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_records_identical_with_tracing_on_and_off(workload):
    _, text = bench(workload, trace=1)
    assert "records differ between the traced and untraced passes" not in text


@pytest.mark.parametrize("workload", ("grid", "ensemble"))
def test_counts_repeat_for_one_seed(workload):
    def counts(text: str) -> str:
        (line,) = [line for line in text.splitlines() if "counts over the first" in line]
        return line

    _, first = run_bench(workload, seed=5, ops=3)
    _, second = run_bench(workload, seed=5, ops=3)
    assert counts(first) == counts(second)
    assert "replayed with different output" not in first
