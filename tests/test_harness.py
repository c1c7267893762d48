import json

import pytest

from ffmcast.errors import TopologyError
from ffmcast.harness import (
    Scenario,
    capacity_check,
    delivery_rows,
    georeplay,
    load_scenario,
    parse_link,
    run_scenario,
    write_deliveries_csv,
    write_metrics_csv,
)
from ffmcast.protection import GroupState, ProtectionConfig, protect_join
from ffmcast.topology import Link, complete_graph, load_topology
from tests.test_protection import triangle


def scenario(source, *events):
    return load_scenario({"source": source, "events": [dict(e) for e in events]})


class TestLoadScenario:
    def test_minimal(self):
        s = load_scenario({"source": "A", "events": []})
        assert s == Scenario("A", ())

    def test_from_file(self, tmp_path):
        p = tmp_path / "s.json"
        p.write_text(json.dumps({"source": "A", "events": [{"op": "join", "arg": "B"}]}))
        s = load_scenario(p)
        assert s.events[0].op == "join" and s.events[0].arg == "B"

    def test_unknown_op(self):
        with pytest.raises(ValueError):
            load_scenario({"source": "A", "events": [{"op": "explode"}]})

    def test_missing_arg(self):
        with pytest.raises(ValueError):
            load_scenario({"source": "A", "events": [{"op": "join"}]})

    def test_missing_source(self):
        with pytest.raises(ValueError):
            load_scenario({"events": []})

    @pytest.mark.parametrize("events", [5, None, "join", {"op": "join"}])
    def test_events_not_a_list(self, events):
        with pytest.raises(ValueError, match="'events' must be a list"):
            load_scenario({"source": "A", "events": events})

    def test_unknown_keys(self):
        with pytest.raises(ValueError):
            load_scenario({"source": "A", "events": [], "speed": 11})


class TestParseLink:
    def test_simple(self):
        net = triangle()
        assert str(parse_link(net, "A-B")) == "A-B"
        assert str(parse_link(net, "B-A")) == "A-B"

    def test_hyphenated_ids(self):
        net = load_topology({"nodes": ["x-1", "y"], "links": [["x-1", "y"]]})
        assert parse_link(net, "x-1-y").a == "x-1"

    def test_unknown(self):
        with pytest.raises(TopologyError):
            parse_link(triangle(), "A-Z")


class TestRunScenario:
    def test_initial_snapshot_is_empty(self):
        result = run_scenario(triangle(), Scenario("A", ()))
        [snap] = result.snapshots
        assert snap.event == "init"
        assert snap.subscribers == snap.tags == snap.flows_total == snap.groups_total == 0

    def test_snapshot_per_membership_event(self):
        s = scenario(
            "A",
            {"op": "join", "arg": "B"},
            {"op": "fail", "arg": "A-B"},
            {"op": "inject"},
            {"op": "restore", "arg": "A-B"},
            {"op": "wait", "arg": "5"},
            {"op": "leave", "arg": "B"},
        )
        result = run_scenario(triangle(), s, ProtectionConfig("spt", 1))
        assert [x.event for x in result.snapshots] == ["init", "join:B", "leave:B"]
        assert len(result.injections) == 1
        failed, rep = result.injections[0]
        assert [str(l) for l in failed] == ["A-B"]
        assert rep.outcomes["B"].delivered  # detour via C

    def test_fail_restore_is_involutive(self):
        s = scenario(
            "A",
            {"op": "join", "arg": "B"},
            {"op": "join", "arg": "C"},
            {"op": "inject"},
            {"op": "fail", "arg": "A-B"},
            {"op": "inject"},
            {"op": "restore", "arg": "A-B"},
            {"op": "inject"},
        )
        before, during, after = run_scenario(triangle(), s, ProtectionConfig("spt", 1)).injections
        assert during[0] == (Link("A", "B"),) and during[1] != before[1]  # B detours via C
        assert before[0] == () and before == after

    def test_unknown_link_state(self):
        for op in ("fail", "restore"):
            with pytest.raises(TopologyError):
                run_scenario(triangle(), scenario("A", {"op": op, "arg": "A-Z"}))

    def test_leave_all_returns_to_zero(self):
        s = scenario(
            "A",
            {"op": "join", "arg": "B"},
            {"op": "join", "arg": "C"},
            {"op": "leave", "arg": "C"},
            {"op": "leave", "arg": "B"},
        )
        result = run_scenario(triangle(), s, ProtectionConfig("spt", 1))
        final = result.snapshots[-1]
        assert final.subscribers == final.flows_total == final.groups_total == 0
        assert final.tags > 0  # spent tags stay spent

    def test_rejected_join_reported(self):
        net = load_topology({"nodes": ["A", "B", "C"], "links": [["A", "B"]]})
        result = run_scenario(net, scenario("A", {"op": "join", "arg": "C"}))
        assert result.rejected_joins == ["C"]

    def test_deterministic(self):
        s = scenario("A", {"op": "join", "arg": "B"}, {"op": "join", "arg": "C"}, {"op": "inject"})
        a = run_scenario(triangle(), s, ProtectionConfig("spt", 1))
        b = run_scenario(triangle(), s, ProtectionConfig("spt", 1))
        assert a.snapshots == b.snapshots
        assert a.gs.fabric.dump() == b.gs.fabric.dump()


class TestGeoreplay:
    def test_complete_preset_defaults(self):
        r = georeplay("complete", "spt", 1, n=6, repetitions=2)
        assert r.source == "n5"
        assert r.subscribers == 5
        assert r.tags == (5, 5)
        assert r.mean_depths[0] == 1.0

    def test_geant_preset_default_source(self):
        r = georeplay("geant", "spt", 0, repetitions=1)
        assert r.source == "AT"
        assert r.subscribers == 39

    def test_repetitions_reseeded(self):
        a = georeplay("complete", "dst", 0, n=7, seed=3, repetitions=4)
        b = georeplay("complete", "dst", 0, n=7, seed=3, repetitions=4)
        assert a == b
        # different seeds shuffle different join orders somewhere
        c = georeplay("complete", "dst", 0, n=7, seed=4, repetitions=4)
        assert a.depths != c.depths

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            georeplay("torus", "spt", 1)


class TestCapacity:
    def test_under_limit(self):
        net = complete_graph(5)
        gs = GroupState(net, "n4", ProtectionConfig("spt", 1))
        for v in net.nodes[:-1]:
            protect_join(gs, v)
        rep = capacity_check(gs, limit=32)
        assert rep.ok and rep.worst == 4

    def test_over_limit_names_switches(self):
        net = complete_graph(5)
        gs = GroupState(net, "n4", ProtectionConfig("spt", 1))
        for v in net.nodes[:-1]:
            protect_join(gs, v)
        rep = capacity_check(gs, limit=3)
        assert not rep.ok
        assert rep.over == (("n4", 4),)


class TestCsv:
    def test_metrics_layout(self, tmp_path):
        s = scenario("A", {"op": "join", "arg": "B"})
        result = run_scenario(triangle(), s, ProtectionConfig("spt", 1))
        out = tmp_path / "metrics.csv"
        write_metrics_csv(out, result.snapshots)
        lines = out.read_text().splitlines()
        assert lines[0] == "snapshot,event,metric,scope,value"
        assert "0,init,subscribers,total,0" in lines
        assert "1,join:B,subscribers,total,1" in lines
        assert any(l.startswith("1,join:B,groups,A,") for l in lines)

    def test_delivery_rows_format(self):
        gs = GroupState(triangle(), "A", ProtectionConfig("spt", 1))
        protect_join(gs, "B")
        protect_join(gs, "C")
        from ffmcast.failsim import simulate_delivery
        from ffmcast.topology import Link

        failed = (Link("A", "C"), Link("A", "B"))
        rows = delivery_rows(failed, simulate_delivery(gs, failed))
        assert [r[:2] for r in rows] == [["A-B;A-C", "B"], ["A-B;A-C", "C"]]
        for row in rows:
            assert row[2] in (0, 1)

    def test_csv_bytes_stable(self, tmp_path):
        s = scenario("A", {"op": "join", "arg": "B"}, {"op": "inject"})
        rows = []
        for name in ("one", "two"):
            result = run_scenario(triangle(), s, ProtectionConfig("spt", 1))
            m = tmp_path / f"m-{name}.csv"
            d = tmp_path / f"d-{name}.csv"
            write_metrics_csv(m, result.snapshots)
            write_deliveries_csv(d, [r for f, rep in result.injections for r in delivery_rows(f, rep)])
            rows.append((m.read_bytes(), d.read_bytes()))
        assert rows[0] == rows[1]
