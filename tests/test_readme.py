"""The README's library and CLI examples run as written against the current API."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

from ffmcast.cli import main

ROOT = Path(__file__).resolve().parent.parent


def blocks(heading: str, lang: str = "") -> list[str]:
    """The fenced blocks of one language under a README heading, in order."""
    text = (ROOT / "README.md").read_text()
    section = text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(rf"```{lang}\n(.*?)```", section, re.S)


def library_example() -> str:
    found = blocks("Library", "python")
    assert found, "no python block under ## Library"
    return found[0]


def test_library_example_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", library_example()],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "2"


def test_cli_examples_take_the_documented_files(tmp_path, monkeypatch):
    # exit 2 is bad input; report may exit 1, as documented, for exceeding --limit
    topo, scn = blocks("File formats", "json")
    (tmp_path / "topo.json").write_text(topo)
    (tmp_path / "scn.json").write_text(scn)
    monkeypatch.chdir(tmp_path)
    lines = blocks("CLI")[0].splitlines()
    assert len(lines) == 4
    for line in lines:
        argv = shlex.split(line)
        assert argv[0] == "ffmcast"
        try:
            code = main(argv[1:])
        except SystemExit as exc:
            code = exc.code
        assert code != 2, line
