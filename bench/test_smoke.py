"""Smoke test of the benchmark itself: every workload at minimal size.

    python3 -m pytest -q bench/test_smoke.py

It checks the result schema, that every metric BENCHMARK.json names is
reported with its unit, that no output check fails, that two traced runs
of one seed make identical call counts, and that the benchmark refuses to
run without the package source. It makes no timing assertions.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload: str, trace: int, cwd: Path = ROOT, bench: Path = BENCH):
    return subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_of(done) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_result(result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0  # error_rate = failed / attempted = 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))


def test_benchmark_declares_every_workload():
    local = json.loads((BENCH / "workloads.json").read_text(encoding="utf-8"))
    assert WORKLOADS == list(local)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result = result_of(run_bench(workload, trace=0))
    check_result(result, SPEC["end_to_end"])
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_calls_repeat_exactly(workload):
    first = result_of(run_bench(workload, trace=1))
    second = result_of(run_bench(workload, trace=1))
    check_result(first, SPEC["per_layer"])
    check_result(second, SPEC["per_layer"])
    calls = {k: v["value"] for k, v in first["metrics"].items() if k.endswith(".calls")}
    again = {k: v["value"] for k, v in second["metrics"].items() if k.endswith(".calls")}
    assert calls == again
    assert any(calls.values())
    if workload == "paper-ckpt":
        assert first["metrics"]["checkpoint.bytes_written"]["value"] > 0
        assert first["metrics"]["checkpoint.bytes_read"]["value"] > 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = run_bench("desk-train", trace=0, cwd=tmp_path, bench=tmp_path / "bench")
    assert done.returncode != 0
    last = (done.stdout.strip().splitlines() or [""])[-1]
    assert not last.startswith("{")
