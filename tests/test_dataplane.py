import pytest

from ffmcast.dataplane import (
    FlowEntry,
    FlowInstaller,
    GotoTable,
    Output,
    PortId,
    SetTag,
    SwitchFabric,
    ToGroup,
)
from ffmcast.errors import DataplaneError
from ffmcast.topology import HOST, Link, load_topology

GOLDEN_STAR_DUMP = """\
switch S
  flow table=0 match=(g,untagged) prio=0 actions=group:1,group:2,group:3
  group 1
    p1|output:p1
    p2|tag=1,output:p2
    p7|tag=2,output:p7
    p10|tag=3,output:p10
  group 2
    p1|Drop
    p2|Drop
    p8|tag=2,output:p8
    p11|tag=4,output:p11
  group 3
    p1|Drop
    p2|Drop
    p9|tag=2,output:p9
    p12|tag=5,output:p12
"""


class _Tree:
    """Just enough tree surface for the installer."""

    def __init__(self, root, tag=0, protects=None):
        self.root = root
        self.tag = tag
        self.protects = protects


def star(n=12):
    nodes = ["S"] + [f"p{i}" for i in range(1, n + 1)]
    return load_topology({"nodes": nodes, "links": [["S", p] for p in nodes[1:]]})


def build_golden():
    fab = SwitchFabric(star())
    inst = FlowInstaller(fab, "g")
    inst.compile_path(_Tree("S"), [("S", "p1")])
    g = inst._ensure_chain((0, ("S", "p1")))
    add = lambda gid, port, tag: inst.add_backup_bucket("S", gid, PortId("S", port), tag)
    add(g, "p2", 1)
    add(g, "p7", 2)
    c1 = add(g, "p8", 2)
    c2 = add(g, "p9", 2)
    add(g, "p10", 3)
    add(c1, "p11", 4)
    add(c2, "p12", 5)
    return fab, inst, g, c1, c2


def fill_view(fab, group_key):
    """Cache the record of the untagged key and of every tag a table matches,
    at every switch, as walks reaching them would."""
    for switch, sw in fab.switches.items():
        tags = {None} | {tag for table in sw.tables for gk, tag in table if gk == group_key}
        for tag in tags:
            key = (group_key, switch, tag)
            if key not in fab.view:
                fab.view[key] = fab.compile(switch, group_key, tag)


def check_view(fab):
    """Every record the fabric's view holds equals a fresh compile."""
    for (group_key, switch, tag), record in fab.view.items():
        assert record == fab.compile(switch, group_key, tag), (group_key, switch, tag)


class TestChainGroups:
    def test_golden_copy_sequence(self):
        fab, _, g, c1, c2 = build_golden()
        assert (g, c1, c2) == (1, 2, 3)
        assert fab.dump() == GOLDEN_STAR_DUMP

    def test_same_tag_forks_not_appends(self):
        fab, _, g, c1, c2 = build_golden()
        groups = fab.switches["S"].groups
        assert [m.set_tag for m in groups[g].members] == [None, 1, 2, 3]
        assert [m.set_tag for m in groups[c1].members] == [2, 4]
        # the copies inherit exactly the buckets ahead of the forked slot
        assert [p.peer for p in groups[c1].drop_watch] == ["p1", "p2"]
        assert [p.peer for p in groups[c2].drop_watch] == ["p1", "p2"]

    def test_first_live_bucket_wins(self):
        fab, _, _, _, _ = build_golden()
        down = lambda *ps: {Link("S", p) for p in ps}
        out, _ = fab.forward("S", "g", None, down("p1"))
        assert sorted((p.peer, t) for p, t in out) == [("p2", 1)]
        out, _ = fab.forward("S", "g", None, down("p1", "p2"))
        assert sorted((p.peer, t) for p, t in out) == [("p7", 2), ("p8", 2), ("p9", 2)]
        out, _ = fab.forward("S", "g", None, down("p1", "p2", "p7", "p8", "p9"))
        assert sorted((p.peer, t) for p, t in out) == [("p10", 3), ("p11", 4), ("p12", 5)]

    def test_copy_prefix_still_guards(self):
        # while any inherited port is live, a copy stays silent
        fab, _, _, _, _ = build_golden()
        out, _ = fab.forward("S", "g", None, {Link("S", "p1")})
        peers = {p.peer for p, _ in out}
        assert "p8" not in peers and "p9" not in peers

    def test_forward_reads_only_the_down_set_passed(self):
        fab, _, _, _, _ = build_golden()
        fab.forward("S", "g", None, {Link("S", "p1")})
        # an earlier call's down set leaves nothing behind
        out, _ = fab.forward("S", "g", None, set())
        assert [(p.peer, t) for p, t in out] == [("p1", None)]
        assert fab.dump() == GOLDEN_STAR_DUMP

    def test_consulted_links_are_the_watch_ports_checked(self):
        fab, _, _, _, _ = build_golden()
        seen = set()
        fab.forward("S", "g", None, set(), seen)
        # each group stops at its first live watch port, p1
        assert seen == {Link("S", "p1")}
        seen.clear()
        fab.forward("S", "g", None, {Link("S", "p1"), Link("S", "p2")}, seen)
        assert seen == {Link("S", p) for p in ("p1", "p2", "p7", "p8", "p9")}
        # a copy run alone reads its inherited (Drop) watch ports too
        fab.switches["S"].tables[0][("g", None)] = {0: FlowEntry(0, "g", None, 0, (ToGroup(2),))}
        seen.clear()
        out, _ = fab.forward("S", "g", None, {Link("S", "p1")}, seen)
        assert out == [] and seen == {Link("S", "p1"), Link("S", "p2")}

    def test_unknown_group_reference(self):
        fab = SwitchFabric(star(3))
        sw = fab.switches["S"]
        sw.tables[0][("g", None)] = {0: FlowEntry(0, "g", None, 0, (ToGroup(9),))}
        with pytest.raises(DataplaneError):
            fab.forward("S", "g", None, set())


class TestForwardQuirks:
    def test_mixed_actions_keep_groups_only(self):
        fab = SwitchFabric(star(3))
        inst = FlowInstaller(fab, "g")
        inst.compile_path(_Tree("S"), [("S", "p1")])
        inst._ensure_chain((0, ("S", "p1")))
        sw = fab.switches["S"]
        # hand-build the forbidden mix: plain output plus a group action
        sw.tables[0][("g", None)] = {
            0: FlowEntry(0, "g", None, 0, (Output(PortId("S", "p2")), ToGroup(1)))
        }
        out, matched = fab.forward("S", "g", None, set())
        assert matched
        assert [(p.peer, t) for p, t in out] == [("p1", None)]

    def test_outputs_carry_the_tag_at_their_action(self):
        fab = SwitchFabric(star(3))
        acts = (Output(PortId("S", "p1")), SetTag(5), Output(PortId("S", "p2")))
        fab.switches["S"].tables[0][("g", None)] = {0: FlowEntry(0, "g", None, 0, acts)}
        out, matched = fab.forward("S", "g", None, set())
        assert matched
        assert [(p.peer, t) for p, t in out] == [("p1", None), ("p2", 5)]

    def test_group_action_drops_every_output(self):
        fab = SwitchFabric(star(3))
        inst = FlowInstaller(fab, "g")
        inst.compile_path(_Tree("S"), [("S", "p3")])
        inst._ensure_chain((0, ("S", "p3")))
        acts = (Output(PortId("S", "p1")), SetTag(5), Output(PortId("S", "p2")), ToGroup(1))
        fab.switches["S"].tables[0][("g", None)] = {0: FlowEntry(0, "g", None, 0, acts)}
        out, matched = fab.forward("S", "g", None, set())
        assert matched
        # the group runs with the tag current at its action
        assert [(p.peer, t) for p, t in out] == [("p3", 5)]

    def test_priority_order(self):
        fab = SwitchFabric(star(2))
        inst = FlowInstaller(fab, "g")
        inst.ensure_base("S")
        out, matched = fab.forward("S", "g", None, set())
        assert matched and out == []  # drop entry holds the fort
        inst.compile_path(_Tree("S"), [("S", "p1")])
        out, _ = fab.forward("S", "g", None, set())
        assert [(p.peer, t) for p, t in out] == [("p1", None)]
        inst.remove_edge(_Tree("S"), ("S", "p1"))
        out, matched = fab.forward("S", "g", None, set())
        assert matched and out == []

    def test_unmatched_is_reported(self):
        fab = SwitchFabric(star(2))
        out, matched = fab.forward("S", "g", 5, set())
        assert not matched and out == []

    def test_goto_must_advance(self):
        fab = SwitchFabric(star(2))
        sw = fab.switches["S"]
        sw.tables[0][("g", None)] = {0: FlowEntry(0, "g", None, 0, (GotoTable(0),))}
        with pytest.raises(DataplaneError):
            fab.forward("S", "g", None, set())

    def test_host_port_always_live(self):
        fab = SwitchFabric(star(2))
        inst = FlowInstaller(fab, "g")
        inst.compile_path(_Tree("S"), [("S", "p1")])
        gid = inst._ensure_chain((0, ("S", "p1")))
        inst.add_backup_bucket("S", gid, PortId("S", HOST), 1)
        # with every link down, the bucket watching the host port still fires
        out, _ = fab.forward("S", "g", None, set(fab.net.links))
        assert [(p.peer, t) for p, t in out] == [(HOST, 1)]


class TestCompile:
    def test_record_layout(self):
        fab, _, _, _, _ = build_golden()
        link = lambda p: Link("S", p)
        matched, hosts, wires, groups = fab.compile("S", "g", None)
        assert matched and hosts == () and wires == ()
        assert groups[0] == ((), ((link("p1"), "p1", None), (link("p2"), "p2", 1),
                                  (link("p7"), "p7", 2), (link("p10"), "p10", 3)))
        assert groups[1] == ((link("p1"), link("p2")), ((link("p8"), "p8", 2), (link("p11"), "p11", 4)))
        assert fab.compile("S", "g", 5) == (False, (), (), ())

    def test_hosts_split_from_wires(self):
        fab = SwitchFabric(star(3))
        acts = (Output(PortId("S", "p1")), Output(PortId("S", "host")), SetTag(5), Output(PortId("S", "p2")))
        fab.switches["S"].tables[0][("g", None)] = {0: FlowEntry(0, "g", None, 0, acts)}
        assert fab.compile("S", "g", None) == (
            True, (None,), ((Link("S", "p1"), "p1", None), (Link("S", "p2"), "p2", 5)), ())

    def test_installer_drops_each_key_it_changes(self):
        fab = SwitchFabric(star(4))
        inst = FlowInstaller(fab, "g")
        tree = _Tree("S")
        backup = _Tree("S", tag=1, protects=(0, ("S", "p1")))
        steps = [
            lambda: inst.ensure_base("S"),
            lambda: inst.compile_path(tree, [("S", "p1")], terminal="p1"),
            lambda: inst._ensure_chain((0, ("S", "p1"))),
            lambda: inst.add_backup_bucket("S", 1, PortId("S", "p2"), 1),  # appends
            lambda: inst.add_backup_bucket("S", 1, PortId("S", "p3"), 1),  # copies
            lambda: inst.remove_edge(backup, ("S", "p3")),
            lambda: inst.remove_edge(backup, ("S", "p2")),
            lambda: inst.remove_terminal(tree, "p1"),
            lambda: inst.remove_edge(tree, ("S", "p1")),
            lambda: inst.remove_base(),
        ]
        for step in steps:
            fill_view(fab, "g")
            step()
            check_view(fab)
        assert fab.dump() == ""


class TestInstallerLifecycle:
    def test_promotion_and_dissolution_round_trip(self):
        fab = SwitchFabric(star(4))
        inst = FlowInstaller(fab, "g")
        tree = _Tree("S")
        inst.compile_path(tree, [("S", "p1")])
        plain = fab.dump()
        inst._ensure_chain((0, ("S", "p1")))
        backup = _Tree("S", tag=1, protects=(0, ("S", "p1")))
        inst.compile_path(backup, [("S", "p2")])
        assert "group" in fab.dump()
        inst.remove_edge(backup, ("S", "p2"))
        assert fab.dump() == plain

    def test_three_kinds_three_tables(self):
        net = load_topology({
            "nodes": ["S", "a", "b"],
            "links": [["S", "a"], ["S", "b"]],
        })
        fab = SwitchFabric(net)
        inst = FlowInstaller(fab, "g")
        tree = _Tree("S")
        inst.compile_path(tree, [("S", "a")], terminal="S")
        inst.compile_path(tree, [("S", "b")])
        inst._ensure_chain((0, ("S", "a")))
        dump = fab.dump()
        assert "flow table=0 match=(g,untagged) prio=0 actions=group:1,goto:1" in dump
        assert "flow table=1 match=(g,untagged) prio=0 actions=output:b,goto:2" in dump
        assert "flow table=2 match=(g,untagged) prio=0 actions=output:host" in dump

    def test_tagged_terminal_pops(self):
        fab = SwitchFabric(star(2))
        backup = _Tree("p1", tag=3, protects=None)
        inst = FlowInstaller(fab, "g")
        inst.compile_path(backup, [], terminal="p1")
        assert "match=(g,3) prio=0 actions=pop,output:host" in fab.dump()

    def test_reinstall_is_idempotent(self):
        fab = SwitchFabric(star(4))
        inst = FlowInstaller(fab, "g")
        tree = _Tree("S")
        inst.compile_path(tree, [("S", "p1")], terminal="p1")
        once = fab.dump()
        inst.compile_path(tree, [("S", "p1")], terminal="p1")
        assert fab.dump() == once

    def test_remove_terminal_only(self):
        fab = SwitchFabric(star(2))
        inst = FlowInstaller(fab, "g")
        tree = _Tree("S")
        inst.compile_path(tree, [("S", "p1")])
        with_host = fab.dump()
        inst.compile_path(tree, [], terminal="p1")
        inst.remove_terminal(tree, "p1")
        assert fab.dump() == with_host
        inst.remove_terminal(tree, "p1")  # second time is a no-op
        assert fab.dump() == with_host

    def test_backup_bucket_on_unknown_group(self):
        fab = SwitchFabric(star(2))
        inst = FlowInstaller(fab, "g")
        with pytest.raises(DataplaneError):
            inst.add_backup_bucket("S", 42, PortId("S", "p1"), 1)

    def test_chain_of_uninstalled_edge(self):
        fab = SwitchFabric(star(2))
        inst = FlowInstaller(fab, "g")
        with pytest.raises(DataplaneError):
            inst._ensure_chain((0, ("S", "p1")))
