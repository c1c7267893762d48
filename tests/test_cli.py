import json
import subprocess
import sys

import pytest

from ffmcast.cli import main

TRIANGLE = {"nodes": ["A", "B", "C"], "links": [["A", "B"], ["B", "C"], ["A", "C"]]}
SCENARIO = {
    "source": "A",
    "events": [
        {"op": "join", "arg": "B"},
        {"op": "join", "arg": "C"},
        {"op": "inject"},
        {"op": "fail", "arg": "A-C"},
        {"op": "inject"},
    ],
}


@pytest.fixture
def files(tmp_path):
    topo = tmp_path / "topo.json"
    topo.write_text(json.dumps(TRIANGLE))
    scn = tmp_path / "scn.json"
    scn.write_text(json.dumps(SCENARIO))
    return topo, scn, tmp_path


class TestRun:
    def test_writes_csvs(self, files, capsys):
        topo, scn, tmp = files
        code = main(["run", "--topology", str(topo), "--scenario", str(scn),
                     "--tree", "spt", "-F", "1", "--out", str(tmp / "out")])
        assert code == 0
        out = capsys.readouterr().out
        assert "subscribers=2" in out
        assert "delivered 2/2" in out
        metrics = (tmp / "out" / "metrics.csv").read_text()
        assert metrics.startswith("snapshot,event,metric,scope,value")
        deliveries = (tmp / "out" / "deliveries.csv").read_text()
        assert "A-C,B,1," in deliveries

    def test_reruns_byte_identical(self, files):
        topo, scn, tmp = files
        argv = ["run", "--topology", str(topo), "--scenario", str(scn), "--out"]
        assert main(argv + [str(tmp / "o1")]) == 0
        assert main(argv + [str(tmp / "o2")]) == 0
        for name in ("metrics.csv", "deliveries.csv"):
            assert (tmp / "o1" / name).read_bytes() == (tmp / "o2" / name).read_bytes()

    def test_complete_preset_flag(self, files, capsys):
        _, _, tmp = files
        scn = tmp / "k.json"
        scn.write_text(json.dumps({"source": "n3", "events": [{"op": "join", "arg": "n0"}]}))
        code = main(["run", "--complete", "4", "--scenario", str(scn), "--out", str(tmp / "k")])
        assert code == 0
        assert "subscribers=1" in capsys.readouterr().out

    def test_topology_flags_exclusive(self, files):
        topo, scn, tmp = files
        with pytest.raises(SystemExit) as exc:
            main(["run", "--topology", str(topo), "--complete", "4",
                  "--scenario", str(scn), "--out", str(tmp / "x")])
        assert exc.value.code == 2


class TestVerify:
    def test_clean_exit_zero(self, files, capsys):
        topo, scn, _ = files
        code = main(["verify", "--topology", str(topo), "--scenario", str(scn), "-F", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "failure sets checked: 3" in out
        assert "unexcused misses: 0" in out
        assert "duplicate copies: 0" in out
        assert "stray deliveries: 0" in out
        assert "unmatched packets: 0" in out
        assert "dataplane walks: " in out

    def test_budget_refusal_exit_two(self, files, capsys):
        topo, scn, _ = files
        code = main(["verify", "--topology", str(topo), "--scenario", str(scn),
                     "-F", "1", "--max-sets", "2"])
        assert code == 2
        assert "exceed" in capsys.readouterr().err

    def test_out_dir_gets_every_case(self, files):
        topo, scn, tmp = files
        code = main(["verify", "--topology", str(topo), "--scenario", str(scn),
                     "-F", "1", "--out", str(tmp / "v")])
        assert code == 0
        lines = (tmp / "v" / "deliveries.csv").read_text().splitlines()
        # header + (baseline + 3 single cuts) x 2 subscribers
        assert len(lines) == 1 + 4 * 2
        assert lines[1].startswith(",B,1,")


class TestRecover:
    def test_switch_model_numbers(self, capsys):
        code = main(["recover", "--model", "switch", "--rtt-ms", "20",
                     "--rate-hz", "120", "--duration-ms", "1000"])
        assert code == 0
        out = capsys.readouterr().out
        assert "outage_ms=21" in out
        assert "packets lost: 2 of 120" in out

    def test_ff_without_window(self, capsys):
        code = main(["recover", "--model", "ff", "--detect-ms", "100"])
        assert code == 0
        assert "packets lost: 12" in capsys.readouterr().out


class TestReport:
    def test_complete_sweep(self, capsys):
        code = main(["report", "--preset", "complete", "-n", "6", "--tree", "spt",
                     "-F", "1", "--reps", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "depth 0: mean hops 1.0000" in out
        assert "depth 1: mean hops 2.0000" in out
        assert "source=n5" in out

    def test_capacity_flag_can_fail(self, capsys):
        code = main(["report", "--preset", "complete", "-n", "8", "--tree", "spt",
                     "-F", "1", "--reps", "1", "--limit", "2"])
        assert code == 1
        assert "over group table limit" in capsys.readouterr().err


class TestBadInput:
    """Bad input exits 2 with a one-line message, never a traceback."""

    @pytest.mark.parametrize("argv, message", [
        (["report", "--preset", "complete", "-n", "4", "--reps", "0"], "--reps: must be >= 1"),
        (["recover", "--model", "switch", "--rtt-ms", "10", "--rate-hz", "-5"],
         "rate_hz must be >= 0"),
        (["verify", "--complete", "0", "--scenario", "{scn}"],
         "complete graph needs at least 2 nodes"),
        (["verify", "--topology", "{topo}", "--scenario", "{scn}", "--max-sets", "-1"],
         "--max-sets: must be >= 0"),
        (["report", "--preset", "complete", "-n", "0"], "complete graph needs at least 2 nodes"),
    ])
    def test_rejected(self, files, capsys, argv, message):
        topo, scn, _ = files
        argv = [a.format(topo=topo, scn=scn) for a in argv]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and message in lines[0]


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ffmcast.cli", "recover", "--model", "ff"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "packets lost: 0" in proc.stdout

    def test_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["run"])
        assert exc.value.code == 2
