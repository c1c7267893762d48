import random
from collections import Counter

import pytest

import ffmcast.protection
from ffmcast.dataplane import MAX_TAG, PLAIN, FlowInstaller, SwitchFabric
from ffmcast.errors import TagSpaceExhausted, TopologyError
from ffmcast.failsim import simulate_delivery, verify_tolerance
from ffmcast.protection import GroupState, ProtectionConfig, protect_join, protect_leave
from ffmcast.topology import Link, Network, bfs_distances, complete_graph, geant, load_topology
from tests.test_dataplane import check_view, fill_view
from tests.test_topology import grid, rand_connected


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

    def test_one_group_per_source_on_a_fabric(self):
        # a second group from n0 would share the first one's flows, base drop and tags
        net = complete_graph(5)
        fabric = SwitchFabric(net)
        first = GroupState(net, "n0", fabric=fabric)
        with pytest.raises(ValueError, match="already carries a group from 'n0'"):
            GroupState(net, "n0", fabric=fabric)
        other = GroupState(net, "n2", fabric=fabric)
        protect_join(first, "n1")
        protect_join(other, "n3")
        assert simulate_delivery(first).stray == 0
        assert verify_tolerance(first).ok and verify_tolerance(other).ok

    def test_fabric_of_another_network(self):
        fabric = SwitchFabric(complete_graph(5))
        with pytest.raises(ValueError, match="built on another network"):
            GroupState(complete_graph(5), "n0", fabric=fabric)
        assert not fabric.group_keys

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
        assert gs.unprotected == [(1, ("A", "B"), ("A-B",), "B")]


class TestTags:
    def test_first_tag_is_one(self):
        gs = GroupState(triangle(), "A")
        assert gs.fresh_tag() == 1
        assert gs.fresh_tag() == 2
        assert gs.tags_allocated == 2

    def test_tag_space_boundary(self):
        gs = GroupState(triangle(), "A")
        gs.tags_allocated = MAX_TAG - 1
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

    def test_leave_unknown_node(self):
        gs = GroupState(triangle(), "A")
        protect_join(gs, "B")
        before = gs.fabric.dump()
        with pytest.raises(TopologyError):
            protect_leave(gs, "ZZ")
        assert gs.fabric.dump() == before
        assert gs.subscribers == {"B"}

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
        alive = {t.tag for t in all_trees(gs)}
        assert gs.unprotected == [e for e in joined if e[0] in alive and e[3] in gs.subscribers]
        assert 0 < len(gs.unprotected) < len(joined)
        for v in others[20:]:
            protect_leave(gs, v)
        assert gs.fabric.dump() == ""
        assert gs.unprotected == []

    def test_leave_drops_own_unprotected_entries(self):
        net = geant()
        gs = GroupState(net, "AT", ProtectionConfig("spt", 2))
        for v in net.nodes:
            if v != "AT":
                protect_join(gs, v)
        joined = list(gs.unprotected)
        # one entry per subscriber whose attach failed, so none repeats
        assert len(set(joined)) == len(joined) == 45
        # the leave prunes only one of the 7 backup trees behind LV's entries
        assert sum(1 for e in joined if e[3] == "LV") == 7
        protect_leave(gs, "LV")
        assert gs.unprotected == [e for e in joined if e[3] != "LV"]

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


class TestCompileOnlyNewEdges:
    """A join hands the installer only the edges it adds to a tree, so none
    of them is installed yet: no flow child and no bucket for the edge."""

    @pytest.mark.parametrize("topo", ["grid6", "geant"])
    @pytest.mark.parametrize("strategy", ["spt", "dst"])
    def test_every_compiled_edge_is_new(self, topo, strategy, monkeypatch):
        net, source = (grid(6), "g0000") if topo == "grid6" else (geant(), "AT")
        compiled = []
        real = FlowInstaller.compile_path

        def guard(self, tree, path, terminal=None):
            for edge in path:
                flow = self.fabric.switches[edge[0]].flows.get((self.group_key, tree.tag))
                assert flow is None or edge not in flow.children, (tree.tag, edge)
                assert (tree.tag, edge) not in self._buckets, (tree.tag, edge)
            compiled.extend(path)
            return real(self, tree, path, terminal)

        monkeypatch.setattr(FlowInstaller, "compile_path", guard)
        gs = GroupState(net, source, ProtectionConfig(strategy, 2))
        order = [v for v in net.nodes if v != source]
        rng = random.Random(7)
        rng.shuffle(order)
        leaving = order[::3]
        for v in order:
            assert protect_join(gs, v)
        for v in leaving:
            protect_leave(gs, v)
        for v in reversed(leaving):  # rejoins regrow pruned edges
            assert protect_join(gs, v)
        check_installer_index(gs)
        assert len(compiled) > len(net.nodes)


class TestConfig:
    def test_bad_strategy(self):
        with pytest.raises(ValueError):
            ProtectionConfig("widest", 1)

    def test_negative_budget(self):
        with pytest.raises(ValueError):
            ProtectionConfig("spt", -1)

    @pytest.mark.parametrize("budget", [1.5, 2.0, True, "2"], ids=["float", "whole-float", "bool", "str"])
    def test_budget_that_is_not_an_int(self, budget):
        # a float used to pass here and fail much later, in verify's range();
        # True used to pass as 1
        with pytest.raises(ValueError, match="max_failures must be an int, not "):
            ProtectionConfig("spt", budget)

    def test_tree_inventory(self):
        gs = GroupState(triangle(), "A", ProtectionConfig("spt", 2))
        protect_join(gs, "C")
        trees = all_trees(gs)
        assert trees[0] is gs.primary
        assert sorted(t.tag for t in trees) == sorted(range(gs.tags_allocated + 1))


def all_trees(gs):
    """Primary tree first, then backup trees in breadth-first order."""
    out = [gs.primary]
    for t in out:
        out.extend(t.backup[edge] for edge in sorted(t.backup))
    return out


def check_installer_index(gs):
    """The installer's records name exactly the live trees' state, and each
    group member is the (tag, edge) key of the tree edge its bucket carries.
    Each live backup names the edge it protects and assumes down its parent's
    links plus that edge, within the budget, and none of its own edges. Each
    tree's fanout counts the children its parent map gives. An spt tree is a
    shortest-path tree of its root around its down set."""
    for t in all_trees(gs):
        for edge, b in t.backup.items():
            assert b.protects == (t.tag, edge)
            assert b.down == t.down | {Link(*edge)}
            assert len(b.down) <= gs.config.max_failures
            assert not any(Link(p, c) in b.down for c, p in b.parent.items()), b.tag
        assert t.fanout == Counter(t.parent.values()), t.tag
        if gs.config.strategy == "spt":
            dist = bfs_distances(gs.net, t.root, t.down)
            assert all(len(t.path_to(v)) == dist[v] for v in t.nodes), t.tag
    inst = gs.installer
    switches = gs.fabric.switches
    first_hops = {(t.tag, (p, c)) for t in all_trees(gs)[1:] for c, p in t.parent.items() if p == t.root}
    assert set(inst._buckets) == first_hops
    referenced = set()  # (switch, gid) of every group the installer reaches
    for key, gid in inst._buckets.items():
        group = switches[key[1][0]].groups.get(gid)
        assert group is not None and key in group.members, key
        referenced.add((key[1][0], gid))
    for switch, sw in switches.items():
        for (group_key, _), flow in sw.flows.items():
            assert flow.children or flow.terminal, (switch, group_key)
            if group_key != inst.group_key:
                continue
            for mode in flow.children.values():
                assert mode == PLAIN or mode in sw.groups, (switch, mode)
                if mode != PLAIN:
                    referenced.add((switch, mode))
                    referenced.update((switch, c) for c in sw.groups[mode].copies)
    for switch, gid in referenced:
        group = switches[switch].groups[gid]
        backups = group.members
        if group.origin is None:
            # the primary slot: the owner's own tree edge, and only there
            tag, edge = group.members[0]
            assert tag == group.owner_tag, (switch, gid)
            flow = switches[switch].flows[(inst.group_key, tag)]
            assert flow.children[edge] == gid, (switch, gid)
            backups = group.members[1:]
        for key in backups:
            assert key[0] != group.owner_tag and inst._buckets.get(key) == gid, (switch, gid, key)
        edges = [edge for _, edge in group.members] + group.drop_watch
        assert all(edge[0] == switch for edge in edges), (switch, gid)
    # flow_count() and dump() are two derivations of the same flows
    dumped = sum(1 for line in gs.fabric.dump().splitlines() if line.startswith("  flow "))
    assert gs.fabric.total_flows() == dumped


class TestInstallerIndex:
    def test_index_tracks_random_join_leave(self):
        for seed in range(36):
            rng = random.Random(seed)
            net = geant() if seed % 4 == 0 else rand_connected(rng, rng.randint(4, 12))
            src = rng.choice(net.nodes)
            config = ProtectionConfig(("spt", "dst")[seed // 4 % 2], 1 + seed % 3)
            gs = GroupState(net, src, config)
            others = [v for v in net.nodes if v != src]
            for _ in range(40):
                if gs.subscribers and rng.random() < 0.4:
                    protect_leave(gs, rng.choice(sorted(gs.subscribers)))
                else:
                    protect_join(gs, rng.choice(others))
                check_installer_index(gs)


class TestViewInvalidation:
    """The view stays exact across installer edits, with no rebuild between them."""

    @pytest.mark.parametrize("seed", range(16))
    def test_cached_records_match_fresh_compiles(self, seed, monkeypatch):
        rng = random.Random(seed)
        net = geant() if seed % 4 == 0 else rand_connected(rng, rng.randint(5, 12))
        cut = seed % 4 == 3
        budget = 1 + seed % 3
        config = ProtectionConfig(("spt", "dst")[seed // 4 % 2], budget)
        fabric = SwitchFabric(net)
        groups = [GroupState(net, src, config, fabric=fabric)
                  for src in rng.sample(net.nodes, rng.randint(2, 3))]
        links = sorted(net.links)
        rollbacks = 0
        for step in range(150):
            if cut and step == 50:  # the tag space runs out: joins roll back mid-way
                most = max(g.tags_allocated for g in groups)
                monkeypatch.setattr(ffmcast.protection, "MAX_TAG", most + budget)
            gs = rng.choice(groups)
            others = [v for v in net.nodes if v != gs.source]
            roll = rng.random()
            try:
                if gs.subscribers and roll < 0.35:
                    protect_leave(gs, rng.choice(sorted(gs.subscribers)))
                elif roll < 0.8:
                    protect_join(gs, rng.choice(others))
                else:
                    simulate_delivery(gs, rng.sample(links, rng.randint(1, budget)))
            except TagSpaceExhausted:
                rollbacks += 1
            check_view(fabric)
            for g in groups:  # so that the next edit meets a cached record at every key
                fill_view(fabric, g.installer.group_key)
        assert (rollbacks > 0) == cut


class TestUnprotected:
    def test_read_only(self):
        gs = GroupState(line("A", "B"), "A", ProtectionConfig("spt", 1))
        protect_join(gs, "B")
        with pytest.raises(AttributeError):
            gs.unprotected = []
        assert gs.unprotected == [(1, ("A", "B"), ("A-B",), "B")]
