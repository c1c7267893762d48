"""The benchmark's pinned outputs, checked on every test run.

perfbench/digests.json pins, per workload at seed 7, the SHA-256 of the
final fabric.dump(), of the sweep results and of every delivery row. Each
case runs one iteration of perfbench/workload.py in a subprocess, the way
the benchmark does, and compares the digests it prints with the pinned
ones. geant-verify is left out: its rows digest covers all 45,825 F=3
failure sets and takes several seconds more than the two cases here; the
benchmark run itself still checks it.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"


@pytest.mark.parametrize("workload", ["grid-join", "geant-churn"])
def test_workload_digests_match_the_pins(workload):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "workload.py"), "--workload", workload, "--seed", "7"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    printed = json.loads(proc.stdout.splitlines()[-1])["digests"]
    pinned = json.loads((BENCH / "digests.json").read_text())[workload]
    assert printed == pinned
