import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

import ffmcast
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
# malformed input documents, written next to the good ones
BAD_DOCS = {
    "events_int": {"source": "A", "events": 5},
    "events_null": {"source": "A", "events": None},
    "leave_unknown": {"source": "A", "events": [{"op": "leave", "arg": "ZZ"}]},
    "topo_list_end": {"nodes": ["A", "B"], "links": [["A", ["B"]]]},
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

    def test_budget_beyond_the_link_count(self, capsys):
        # one depth line per chain length the three links allow, not per unit of budget
        outs = []
        for budget in ("3", "1000000000"):
            assert main(["report", "--preset", "complete", "-n", "3", "-F", budget, "--reps", "1"]) == 0
            outs.append(capsys.readouterr().out.splitlines())
        assert outs[1][0].endswith("F=1000000000 reps=1")
        assert outs[1][1:] == outs[0][1:]
        assert sum(line.startswith("depth ") for line in outs[0]) == 4

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
        (["recover", "--model", "switch", "--groups", "-5"], "affected_groups must be >= 0"),
        (["recover", "--model", "restore", "--entries", "-3"], "entries must be >= 0"),
        (["report", "--preset", "geant", "-n", "5"], "the geant preset has a fixed size"),
        (["run", "--topology", "{topo}", "--scenario", "{events_int}", "--out", "{tmp}/o"],
         "'events' must be a list"),
        (["verify", "--topology", "{topo}", "--scenario", "{events_null}"],
         "'events' must be a list"),
        (["run", "--topology", "{topo}", "--scenario", "{leave_unknown}", "--out", "{tmp}/o"],
         "unknown node 'ZZ'"),
        (["verify", "--topology", "{topo_list_end}", "--scenario", "{scn}"],
         "link endpoints must be node id strings"),
        (["report", "--preset", "complete", "-n", "4", "--limit", "-5"], "--limit: must be >= 0"),
        (["recover", "--model", "ff", "--detect-ms", "inf"], "detection_ms must be finite"),
        (["recover", "--model", "switch", "--rate-hz", "nan"], "rate_hz must be finite"),
        (["recover", "--model", "restore", "--rtt-ms", "nan"], "rtt_ms must be finite"),
        (["recover", "--model", "ff", "--duration-ms=-inf"], "duration_ms must be finite"),
        (["report", "--preset", "geant", "-F", "5", "--reps", "1"], "all 4094 tags in use"),
        (["recover", "--model", "ff", "--detect-ms", "1e308", "--rate-hz", "1e308"],
         "the packet count must be finite"),
        (["recover", "--model", "restore", "--flowmod-ms", "1e308", "--entries", "10"],
         "the outage window must be finite"),
        (["recover", "--model", "restore", "--entries", "1" + "0" * 400],
         "the outage window must be finite"),
        (["report", "--preset", "geant", "--source", "", "--reps", "1"], "unknown source node ''"),
        (["report", "--preset", "complete", "-n", "4", "--source", "", "--reps", "1"],
         "unknown source node ''"),
    ])
    def test_rejected(self, files, capsys, argv, message):
        topo, scn, tmp = files
        docs = {}
        for name, doc in BAD_DOCS.items():
            docs[name] = tmp / f"{name}.json"
            docs[name].write_text(json.dumps(doc))
        argv = [a.format(topo=topo, scn=scn, tmp=tmp, **docs) for a in argv]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and message in lines[0]

    def test_topology_that_is_not_utf8(self, files, capsys):
        topo, scn, tmp = files
        bad = tmp / "latin1.json"
        bad.write_bytes(b"\xff" + topo.read_bytes())
        assert main(["verify", "--topology", str(bad), "--scenario", str(scn)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and "topology file is not valid JSON: 'utf-8' codec can't decode" in lines[0]


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ffmcast.cli", "recover", "--model", "ff"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "packets lost: 0" in proc.stdout

    def test_runtime_is_stdlib_only(self):
        src = Path(ffmcast.__file__).resolve().parents[1]
        script = (
            "import sys\n"
            f"sys.path.insert(0, {str(src)!r})\n"
            "before = set(sys.modules)\n"
            "import ffmcast, ffmcast.cli\n"
            "print(sorted({m.split('.')[0] for m in set(sys.modules) - before}))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        loaded = ast.literal_eval(proc.stdout)
        assert "ffmcast" in loaded
        assert [m for m in loaded if m != "ffmcast" and m not in sys.stdlib_module_names] == []

    def test_benchmark_tracer_hooks_resolve(self):
        # perfbench/tracer.py wraps package entry points by name: renaming or
        # deleting one must fail here, not only in a traced benchmark run
        src = Path(ffmcast.__file__).resolve().parents[1]
        script = (
            "import sys\n"
            f"sys.path[:0] = [{str(src)!r}, {str(src.parent / 'perfbench')!r}]\n"
            "from tracer import Tracer\n"
            "tracer = Tracer()\n"
            "tracer.install()\n"
            "tracer.uninstall()\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["run"])
        assert exc.value.code == 2
