import random

import pytest

import ffmcast.protection
from ffmcast.dataplane import MAX_TAG
from ffmcast.errors import TagSpaceExhausted, TopologyError
from ffmcast.failsim import verify_tolerance
from ffmcast.protection import GroupState, ProtectionConfig, protect_join, protect_leave
from ffmcast.topology import Network, complete_graph, geant, load_topology
from tests.test_topology import rand_connected


def triangle():
    return load_topology({
        "nodes": ["A", "B", "C"],
        "links": [["A", "B"], ["B", "C"], ["A", "C"]],
    })


def line(*nodes):
    return load_topology({"nodes": list(nodes), "links": [[a, b] for a, b in zip(nodes, nodes[1:])]})


class TestJoin:
    def test_triangle_backup_detours(self):
        gs = GroupState(triangle(), "A", ProtectionConfig("spt", 1))
        assert protect_join(gs, "C")
        dump = gs.fabric.dump()
        assert "  group 1\n    C|output:C\n    B|tag=1,output:B" in dump
        assert "flow table=0 match=(mcast-A,1) prio=0 actions=output:C" in dump
        backup = gs.primary.backup[("A", "C")]
        assert backup.tag == 1
        assert backup.path_to("C") == [("A", "B"), ("B", "C")]

    def test_join_is_idempotent(self):
        gs = GroupState(triangle(), "A")
        protect_join(gs, "B")
        once = gs.fabric.dump()
        calls = gs.join_calls
        assert protect_join(gs, "B")
        assert gs.fabric.dump() == once
        assert gs.join_calls == calls

    def test_source_cannot_join(self):
        gs = GroupState(triangle(), "A")
        with pytest.raises(ValueError):
            protect_join(gs, "A")

    def test_unknown_node(self):
        gs = GroupState(triangle(), "A")
        with pytest.raises(TopologyError):
            protect_join(gs, "Z")

    def test_unknown_source(self):
        with pytest.raises(TopologyError):
            GroupState(triangle(), "Z")

    def test_unreachable_subscriber_rejected(self):
        net = load_topology({"nodes": ["A", "B", "C"], "links": [["A", "B"]]})
        gs = GroupState(net, "A")
        assert not protect_join(gs, "C")
        assert gs.fabric.dump() == ""  # nothing half-installed

    def test_transit_switch_can_subscribe(self):
        gs = GroupState(line("A", "B", "C"), "A", ProtectionConfig("spt", 0))
        protect_join(gs, "C")
        assert protect_join(gs, "B")  # B already forwards for the tree
        dump = gs.fabric.dump()
        assert "switch B" in dump
        assert "actions=output:C,goto:1" in dump
        assert "actions=output:host" in dump

    def test_zero_budget_builds_no_backups(self):
        gs = GroupState(triangle(), "A", ProtectionConfig("spt", 0))
        protect_join(gs, "C")
        assert gs.tags_allocated == 0
        assert gs.fabric.total_groups() == 0

    def test_hopeless_edges_recorded_not_fatal(self):
        gs = GroupState(line("A", "B"), "A", ProtectionConfig("spt", 1))
        assert protect_join(gs, "B")
        assert gs.tags_allocated == 1  # burned on the attempt
        assert gs.unprotected == [(1, ("A", "B"), ("A-B",))]


class TestTags:
    def test_first_tag_is_one(self):
        gs = GroupState(triangle(), "A")
        assert gs.fresh_tag() == 1
        assert gs.fresh_tag() == 2
        assert gs.tags_allocated == 2

    def test_tag_space_boundary(self):
        gs = GroupState(triangle(), "A")
        gs.primary.next_tag = MAX_TAG
        assert gs.fresh_tag() == MAX_TAG
        with pytest.raises(TagSpaceExhausted):
            gs.fresh_tag()

    def test_exhaustion_mid_join_rolls_back(self, monkeypatch):
        monkeypatch.setattr(ffmcast.protection, "MAX_TAG", 12)
        gs = GroupState(geant(), "AT", ProtectionConfig("spt", 2))
        order = [v for v in gs.net.nodes if v != "AT"]
        for v in order[: order.index("BE")]:
            protect_join(gs, v)
        before = gs.fabric.dump()
        unprotected = list(gs.unprotected)
        tags = gs.tags_allocated
        with pytest.raises(TagSpaceExhausted):
            protect_join(gs, "BE")
        assert "BE" not in gs.subscribers
        assert gs.fabric.dump() == before
        assert gs.unprotected == unprotected
        assert gs.tags_allocated > tags  # burned tags stay burned
        assert verify_tolerance(gs).ok

    def test_exhaustion_on_first_join_removes_base(self, monkeypatch):
        monkeypatch.setattr(ffmcast.protection, "MAX_TAG", 0)
        gs = GroupState(triangle(), "A", ProtectionConfig("spt", 1))
        with pytest.raises(TagSpaceExhausted):
            protect_join(gs, "C")
        assert not gs.subscribers
        assert gs.fabric.dump() == ""

    def test_leave_does_not_recycle_tags(self):
        gs = GroupState(triangle(), "A")
        protect_join(gs, "B")
        used = gs.tags_allocated
        protect_leave(gs, "B")
        protect_join(gs, "B")
        assert gs.tags_allocated > used

    def test_complete_f1_one_tag_per_subscriber(self):
        net = complete_graph(9)
        gs = GroupState(net, max(net.nodes), ProtectionConfig("spt", 1))
        for v in net.nodes[:-1]:
            protect_join(gs, v)
        assert gs.tags_allocated == 8
        counts = gs.fabric.group_counts()
        assert gs.fabric.total_groups() == 8
        assert counts[gs.source] == 8  # failover happens at the root


class TestLeave:
    def test_round_trip_restores_state(self):
        gs = GroupState(triangle(), "A", ProtectionConfig("spt", 1))
        protect_join(gs, "B")
        before = gs.fabric.dump()
        protect_join(gs, "C")
        protect_leave(gs, "C")
        assert gs.fabric.dump() == before

    def test_last_leave_removes_everything(self):
        gs = GroupState(triangle(), "A", ProtectionConfig("spt", 1))
        protect_join(gs, "B")
        protect_join(gs, "C")
        protect_leave(gs, "B")
        protect_leave(gs, "C")
        assert gs.fabric.dump() == ""
        assert gs.fabric.total_flows() == 0
        assert gs.fabric.total_groups() == 0

    def test_leave_nonmember_is_noop(self):
        gs = GroupState(triangle(), "A")
        protect_join(gs, "B")
        before = gs.fabric.dump()
        protect_leave(gs, "C")
        protect_leave(gs, "A")
        assert gs.fabric.dump() == before

    def test_shared_segment_survives(self):
        gs = GroupState(line("A", "B", "C", "D"), "A", ProtectionConfig("spt", 0))
        protect_join(gs, "D")
        protect_join(gs, "C")
        protect_leave(gs, "D")
        dump = gs.fabric.dump()
        assert "switch C" in dump and "output:host" in dump
        assert "output:D" not in dump

    def test_transit_terminal_keeps_forwarding(self):
        gs = GroupState(line("A", "B", "C"), "A", ProtectionConfig("spt", 0))
        protect_join(gs, "C")
        protect_join(gs, "B")
        protect_leave(gs, "B")
        dump = gs.fabric.dump()
        assert "switch B" in dump and "output:C" in dump
        assert dump.count("output:host") == 1

    def test_leave_drops_unprotected_entries_of_pruned_trees(self):
        net = geant()
        gs = GroupState(net, "AT", ProtectionConfig("spt", 2))
        others = [v for v in net.nodes if v != "AT"]
        for v in others:
            protect_join(gs, v)
        joined = list(gs.unprotected)
        assert len(joined) == 45
        for v in others[:20]:
            protect_leave(gs, v)
        alive = {t.tag for t in gs.all_trees()}
        assert gs.unprotected == [e for e in joined if e[0] in alive]
        assert 0 < len(gs.unprotected) < len(joined)
        for v in others[20:]:
            protect_leave(gs, v)
        assert gs.fabric.dump() == ""
        assert gs.unprotected == []

    def test_random_round_trips(self):
        for seed in range(25):
            rng = random.Random(seed)
            net = rand_connected(rng, rng.randint(4, 12))
            src = rng.choice(net.nodes)
            strategy = rng.choice(["spt", "dst"])
            gs = GroupState(net, src, ProtectionConfig(strategy, rng.randint(1, 2)))
            others = [v for v in net.nodes if v != src]
            rng.shuffle(others)
            cut = rng.randint(0, len(others) - 1)
            keep, temp = others[:cut], others[cut:]
            for v in keep:
                protect_join(gs, v)
            before = gs.fabric.dump()
            for v in temp:
                protect_join(gs, v)
            rng.shuffle(temp)
            for v in temp:
                protect_leave(gs, v)
            assert gs.fabric.dump() == before, f"seed {seed} leaked state"


class TestBranchedBackups:
    """One backup tree fanning out of its root through several ports."""

    def net(self):
        # r-a trunk serves b and c; x and y are disjoint detours
        return load_topology({
            "nodes": ["r", "a", "b", "c", "x", "y"],
            "links": [["r", "a"], ["a", "b"], ["a", "c"],
                      ["r", "x"], ["x", "b"], ["r", "y"], ["y", "c"]],
        })

    @pytest.mark.parametrize("order", [("b", "c"), ("c", "b")])
    def test_trunk_failure_fans_out(self, order):
        from ffmcast.failsim import simulate_delivery, verify_tolerance
        from ffmcast.topology import Link

        gs = GroupState(self.net(), "r", ProtectionConfig("spt", 1))
        for v in order:
            protect_join(gs, v)
        # both first hops of the trunk backup leave r, so one is a copy
        assert gs.fabric.group_counts()["r"] == 2
        rep = simulate_delivery(gs, [Link("r", "a")])
        assert rep.outcomes["b"].delivered and rep.outcomes["b"].hops == 2
        assert rep.outcomes["c"].delivered and rep.outcomes["c"].hops == 2
        assert rep.outcomes["b"].copies == rep.outcomes["c"].copies == 1
        assert verify_tolerance(gs).ok

    def test_copy_unwinds_on_leave(self):
        gs = GroupState(self.net(), "r", ProtectionConfig("spt", 1))
        protect_join(gs, "b")
        solo = gs.fabric.dump()
        protect_join(gs, "c")
        protect_leave(gs, "c")
        assert gs.fabric.dump() == solo
        protect_leave(gs, "b")
        assert gs.fabric.dump() == ""


class TestWorkBound:
    def test_join_invocations_bounded(self):
        nets = {
            "triangle": triangle(),
            "k5": complete_graph(5),
            "k6": complete_graph(6),
        }
        for name, net in nets.items():
            for f in (1, 2, 3):
                gs = GroupState(net, net.nodes[0], ProtectionConfig("spt", f))
                bound = 4 * len(net.links) ** f
                for v in net.nodes[1:]:
                    seen = gs.join_calls
                    protect_join(gs, v)
                    spent = gs.join_calls - seen
                    assert spent <= bound, f"{name} F={f}: {spent} > {bound}"


class TestNoGraphBuilds:
    def grid(self, n):
        name = lambda r, c: f"g{r}{c}"
        nodes = [name(r, c) for r in range(n) for c in range(n)]
        links = [[name(r, c), name(r, c + 1)] for r in range(n) for c in range(n - 1)]
        links += [[name(r, c), name(r + 1, c)] for r in range(n - 1) for c in range(n)]
        return load_topology({"nodes": nodes, "links": links})

    @pytest.mark.parametrize("topo", ["geant", "grid6"])
    def test_joins_build_no_network(self, topo, monkeypatch):
        net = geant() if topo == "geant" else self.grid(6)
        builds = []
        init = Network.__init__

        def counting_init(self, *args, **kwargs):
            builds.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Network, "__init__", counting_init)
        gs = GroupState(net, net.nodes[0], ProtectionConfig("spt", 2))
        for v in net.nodes[1:]:
            assert protect_join(gs, v)
        assert gs.tags_allocated > 0
        assert not builds


class TestConfig:
    def test_bad_strategy(self):
        with pytest.raises(ValueError):
            ProtectionConfig("widest", 1)

    def test_negative_budget(self):
        with pytest.raises(ValueError):
            ProtectionConfig("spt", -1)

    def test_tree_inventory(self):
        gs = GroupState(triangle(), "A", ProtectionConfig("spt", 2))
        protect_join(gs, "C")
        trees = gs.all_trees()
        assert trees[0] is gs.primary
        assert sorted(t.tag for t in trees) == sorted(range(gs.tags_allocated + 1))
