"""The benchmark's pinned outputs, checked on every test run.

perfbench/digests.json pins, per workload at seed 7, the SHA-256 of the
final fabric.dump(), of the sweep results and of every delivery row. Each
case runs one iteration of perfbench/workload.py in a subprocess, the way
the benchmark does, and compares the digests it prints with the pinned
ones. grid-join and geant-churn are checked in full. geant-verify runs with
--light and is checked on its dump digest only, which pins the geant F=3
build. Its tolerance and rows digests cover all 45,825 F=3 failure sets and
take several seconds more; the benchmark run itself still checks them.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"


def printed_digests(workload, *flags):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "workload.py"), "--workload", workload, "--seed", "7", *flags],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])["digests"]


def pinned_digests(workload):
    return json.loads((BENCH / "digests.json").read_text())[workload]


@pytest.mark.parametrize("workload", ["grid-join", "geant-churn"])
def test_workload_digests_match_the_pins(workload):
    assert printed_digests(workload) == pinned_digests(workload)


def test_geant_f3_dump_matches_the_pin():
    # --light skips the once-per-seed checks, so only the dump digest is printed
    assert printed_digests("geant-verify", "--light") == {"dump": pinned_digests("geant-verify")["dump"]}
