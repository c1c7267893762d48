"""Tests of the benchmark itself (not collected by the package's test run).

    python3 -m pytest perfbench/test_bench.py

Every workload runs at the default seed. Takes about two minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workload import DEFAULT_SEED, WORKLOADS  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def traced_iteration(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "workload.py"), "--workload", workload,
         "--seed", str(DEFAULT_SEED), "--trace", "1"],
        capture_output=True, text=True, check=True, timeout=600,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def run(*args: str, cwd: Path = HERE.parent) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          capture_output=True, text=True, cwd=cwd, timeout=600)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_repeat_exactly(workload):
    first, second = traced_iteration(workload), traced_iteration(workload)
    counts = [{k: v for k, v in r["layers"].items() if not k.endswith("_s")}
              for r in (first, second)]
    assert counts[0] == counts[1]
    assert first["digests"] == second["digests"]
    assert first["digests"] == json.loads((HERE / "digests.json").read_text())[workload]
    assert first["failed"] == 0 and first["unexcused"] == 0 and first["loop_guard_trips"] == 0
    assert counts[0]["failsim.walks_per_set"] == 1.0


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_follows_benchmark_json(trace, section):
    proc = run("--workload", "geant-churn", "--seed", str(DEFAULT_SEED),
               "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    report, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert report["env"]["seed"] == DEFAULT_SEED and report["env"]["nproc"] >= 1


def test_refuses_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = run("--workload", "grid-join", "--seed", "1", "--seconds", "1", "--trace", "0",
               cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
