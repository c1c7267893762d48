import re
from functools import partial

import pytest

from ffmcast.dataplane import PLAIN, FlowInstaller, SwitchFabric
from ffmcast.errors import DataplaneError, TopologyError
from ffmcast.protection import GroupState, ProtectionConfig, protect_join
from ffmcast.topology import HOST, Link, geant, load_topology
from tests.test_pinned_outputs import shared_geant_fabric

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
    add = lambda gid, port, tag: inst.add_backup_bucket("S", gid, port, tag)
    add(g, "p2", 1)
    add(g, "p7", 2)
    c1 = add(g, "p8", 2)
    c2 = add(g, "p9", 2)
    add(g, "p10", 3)
    add(c1, "p11", 4)
    add(c2, "p12", 5)
    return fab, inst, g, c1, c2


def fill_view(fab, group_key):
    """Cache the record of the untagged key (tag 0) and of every tag a flow
    matches, at every switch, as walks reaching them would."""
    for switch, sw in fab.switches.items():
        tags = {0} | {tag for gk, tag in sw.flows if gk == group_key}
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
        assert [tag for _, _, tag in groups[g].members] == [0, 1, 2, 3]
        assert [tag for _, _, tag in groups[c1].members] == [2, 4]
        # the copies inherit exactly the buckets ahead of the forked slot
        bit = fab.net.bit
        assert groups[c1].drops == (bit["S", "p1"], bit["S", "p2"])
        assert groups[c2].drops == (bit["S", "p1"], bit["S", "p2"])

    def test_first_live_bucket_wins(self):
        fab, _, _, _, _ = build_golden()
        down = lambda *ps: {Link("S", p) for p in ps}
        out, _ = fab.forward("S", "g", 0, down("p1"))
        assert sorted(out) == [("p2", 1)]
        out, _ = fab.forward("S", "g", 0, down("p1", "p2"))
        assert sorted(out) == [("p7", 2), ("p8", 2), ("p9", 2)]
        out, _ = fab.forward("S", "g", 0, down("p1", "p2", "p7", "p8", "p9"))
        assert sorted(out) == [("p10", 3), ("p11", 4), ("p12", 5)]

    def test_copy_prefix_still_guards(self):
        # while any inherited port is live, a copy stays silent
        fab, _, _, _, _ = build_golden()
        out, _ = fab.forward("S", "g", 0, {Link("S", "p1")})
        peers = {peer for peer, _ in out}
        assert "p8" not in peers and "p9" not in peers

    def test_forward_reads_only_the_down_set_passed(self):
        fab, _, _, _, _ = build_golden()
        fab.forward("S", "g", 0, {Link("S", "p1")})
        # an earlier call's down set leaves nothing behind
        out, _ = fab.forward("S", "g", 0, set())
        assert out == [("p1", 0)]
        assert fab.dump() == GOLDEN_STAR_DUMP

    def test_consulted_links_are_the_watch_ports_checked(self):
        # links past each group's first live watch port cannot change the output
        fab, _, _, _, _ = build_golden()
        down = lambda *ps: {Link("S", p) for p in ps}
        later = ("p7", "p8", "p9", "p10", "p11", "p12")
        assert fab.forward("S", "g", 0, down("p2", *later)) == fab.forward("S", "g", 0, set())
        assert (fab.forward("S", "g", 0, down("p1", "p2", "p10", "p11", "p12"))
                == fab.forward("S", "g", 0, down("p1", "p2")))
        # a copy run alone stops at its first live inherited (Drop) watch port
        fab.switches["S"].flows[("g", 0)] = {"p8": (2,)}
        assert fab.forward("S", "g", 0, down("p1", "p8", "p11")) == ([], True)

    def test_unknown_link_in_down_set(self):
        fab, _, _, _, _ = build_golden()
        with pytest.raises(TopologyError, match="p1-p2 is not in the network"):
            fab.forward("S", "g", 0, {("p1", "p2")})

    def test_unknown_group_reference(self):
        fab = SwitchFabric(star(3))
        fab.switches["S"].flows[("g", 0)] = {"p1": (9,)}
        with pytest.raises(DataplaneError):
            fab.forward("S", "g", 0, set())


class TestForwardQuirks:
    def test_priority_order(self):
        fab = SwitchFabric(star(2))
        inst = FlowInstaller(fab, "g")
        inst.ensure_base("S")
        out, matched = fab.forward("S", "g", 0, set())
        assert matched and out == []  # drop entry holds the fort
        inst.compile_path(_Tree("S"), [("S", "p1")])
        out, _ = fab.forward("S", "g", 0, set())
        assert out == [("p1", 0)]
        inst.remove_edge(_Tree("S"), ("S", "p1"))
        out, matched = fab.forward("S", "g", 0, set())
        assert matched and out == []

    def test_unmatched_is_reported(self):
        fab = SwitchFabric(star(2))
        out, matched = fab.forward("S", "g", 5, set())
        assert not matched and out == []


class TestCompile:
    def test_record_layout(self):
        fab, _, _, _, _ = build_golden()
        link = lambda p: fab.net.bit["S", p]
        matched, terminal, wires, groups = fab.compile("S", "g", 0)
        assert matched and not terminal and wires == ()
        # each member stamps the tag it stores; the primary slot's is the flow's own
        assert groups[0] == ((), ((link("p1"), "p1", 0), (link("p2"), "p2", 1),
                                  (link("p7"), "p7", 2), (link("p10"), "p10", 3)))
        assert groups[1] == ((link("p1"), link("p2")), ((link("p8"), "p8", 2), (link("p11"), "p11", 4)))
        assert fab.compile("S", "g", 5) == (False, False, (), ())

    def test_terminal_flows_deliver_untagged(self):
        fab = SwitchFabric(star(2))
        inst = FlowInstaller(fab, "g")
        inst.compile_path(_Tree("p1"), [], terminal="p1")
        inst.compile_path(_Tree("p1", tag=3), [], terminal="p1")
        assert fab.compile("p1", "g", 0) == (True, True, (), ())
        assert fab.compile("p1", "g", 3) == (True, True, (), ())
        # the host delivery pops the tag
        assert fab.forward("p1", "g", 3, set()) == ([(HOST, 0)], True)
        dump = fab.dump()
        assert "match=(g,untagged) prio=0 actions=output:host" in dump
        assert "match=(g,3) prio=0 actions=pop,output:host" in dump

    def test_three_kinds(self):
        fab = SwitchFabric(star(3))
        inst = FlowInstaller(fab, "g")
        tree = _Tree("p1", tag=4)  # S is a transit switch of backup tree 4
        inst.compile_path(tree, [("S", "p3"), ("S", "p1"), ("S", "p2")], terminal="S")
        gid = inst._ensure_chain((4, ("S", "p2")))
        link = lambda p: fab.net.bit["S", p]
        assert fab.compile("S", "g", 4) == (
            True,
            True,
            ((link("p1"), "p1", 4), (link("p3"), "p3", 4)),
            (((), ((link("p2"), "p2", 4),)),),
        )
        assert gid == 1 and fab.switches["S"].flows[("g", 4)] == {
            "p1": PLAIN, "p2": (1,), "p3": PLAIN, HOST: PLAIN}

    def test_base_drop_only(self):
        fab = SwitchFabric(star(2))
        FlowInstaller(fab, "g").ensure_base("S")
        assert fab.compile("S", "g", 0) == (True, False, (), ())
        assert fab.compile("S", "g", 1) == (False, False, (), ())
        assert fab.compile("S", "h", 0) == (False, False, (), ())
        assert fab.dump() == "switch S\n  flow table=0 match=(g,untagged) prio=-1 actions=Drop\n"

    def test_installer_drops_each_key_it_changes(self):
        fab = SwitchFabric(star(4))
        inst = FlowInstaller(fab, "g")
        tree = _Tree("S")
        backup = _Tree("S", tag=1, protects=(0, ("S", "p1")))
        steps = [
            lambda: inst.ensure_base("S"),
            lambda: inst.compile_path(tree, [("S", "p1")], terminal="p1"),
            lambda: inst._ensure_chain((0, ("S", "p1"))),
            lambda: inst.add_backup_bucket("S", 1, "p2", 1),  # appends
            lambda: inst.add_backup_bucket("S", 1, "p3", 1),  # copies
            lambda: inst.remove_edge(backup, ("S", "p3")),
            lambda: inst.remove_edge(backup, ("S", "p2")),
            lambda: inst.remove_terminal(tree, "p1"),
            lambda: inst.remove_edge(tree, ("S", "p1")),
            lambda: inst.remove_base("S"),
        ]
        for step in steps:
            fill_view(fab, "g")
            step()
            check_view(fab)
        assert fab.dump() == ""


class TestInstallerLifecycle:
    def test_promotion_and_dissolution_round_trip(self):
        # p2 is appended to group 1 and p3 goes into a copy; removing them in
        # either order dissolves the group back to a plain output
        for order in (["p2"], ["p2", "p3"], ["p3", "p2"]):
            fab = SwitchFabric(star(4))
            inst = FlowInstaller(fab, "g")
            inst.compile_path(_Tree("S"), [("S", "p1")])
            plain = fab.dump()
            backup = _Tree("S", tag=1, protects=(0, ("S", "p1")))
            for peer in sorted(order):
                inst.compile_path(backup, [("S", peer)])
            assert "group" in fab.dump()
            for peer in order:
                inst.remove_edge(backup, ("S", peer))
            assert fab.dump() == plain, order
            assert fab.switches["S"].groups == {}

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
        backup = _Tree("S", tag=1, protects=(0, ("S", "p1")))
        # a plain edge, then a backup tree's first hop, which is a failover bucket
        for tree, peer in ((_Tree("S"), "p1"), (backup, "p2")):
            inst.compile_path(tree, [("S", peer)], terminal=peer)
            once = fab.dump()
            inst.compile_path(tree, [("S", peer)], terminal=peer)
            assert fab.dump() == once

    def test_backup_first_hop_needs_a_protected_edge(self):
        fab = SwitchFabric(star(2))
        inst = FlowInstaller(fab, "g")
        with pytest.raises(DataplaneError, match="backup tree 3 has no protected edge"):
            inst.compile_path(_Tree("S", tag=3, protects=None), [("S", "p1")])
        assert fab.switches["S"].groups == {}

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
            inst.add_backup_bucket("S", 42, "p1", 1)

    def test_chain_of_uninstalled_edge(self):
        fab = SwitchFabric(star(2))
        inst = FlowInstaller(fab, "g")
        with pytest.raises(DataplaneError):
            inst._ensure_chain((0, ("S", "p1")))


FLOW_LINE = re.compile(r"  flow table=(\d) match=\((.+),(untagged|\d+)\) prio=(0|-1) actions=(.+)")


def dump_records(fab):
    """The record of every (switch, group key, tag) that fab.dump() shows,
    read back from the text alone: {(switch, group_key, tag): record}.

    A flow's entries give, in table order, its groups (each followed by its
    copies), its plain outputs and its host delivery; a member with no
    stamp keeps the tag of the flow that owns its group. A base drop
    without a flow at tag 0 matches and goes nowhere."""
    bit = fab.net.bit
    records = {}
    for block in fab.dump().split("switch ")[1:]:
        switch, *lines = block.splitlines()
        entries = {}  # (group_key, tag) -> [(table, actions)]
        base = []
        groups = {}  # gid -> [(peer, action)]
        for line in lines:
            if line.startswith("  flow "):
                table, gk, tag, prio, acts = FLOW_LINE.fullmatch(line).groups()
                tag = 0 if tag == "untagged" else int(tag)
                if prio == "-1":
                    assert acts == "Drop" and tag == 0, line
                    base.append(gk)
                else:
                    entries.setdefault((gk, tag), []).append((int(table), acts.split(",")))
            elif line.startswith("  group "):
                gid = int(line.split()[1])
                groups[gid] = []
            else:
                groups[gid].append(tuple(line.strip().split("|")))

        def group_record(gid, tag):
            drops = tuple(bit[switch, peer] for peer, act in groups[gid] if act == "Drop")
            members = []
            for peer, act in groups[gid]:
                if act != "Drop":
                    stamp, _, out = act.rpartition(",")
                    assert out == f"output:{peer}", act
                    out_tag = int(stamp.removeprefix("tag=")) if stamp else tag
                    members.append((bit[switch, peer], peer, out_tag))
            return drops, tuple(members)

        for (gk, tag), tables in entries.items():
            terminal = False
            wires = []
            ffgroups = []
            tables.sort()
            for i, (table, acts) in enumerate(tables):
                goto = [f"goto:{tables[i + 1][0]}"] if i + 1 < len(tables) else []
                assert acts[len(acts) - len(goto):] == goto, (switch, gk, tag)
                for act in acts[:len(acts) - len(goto)]:
                    kind, _, arg = act.partition(":")
                    if act == "output:host":
                        terminal = True
                    elif kind == "group":
                        ffgroups.append(group_record(int(arg), tag))
                    elif kind == "output":
                        wires.append((bit[switch, arg], arg, tag))
                    else:
                        assert act == "pop" and tag, (switch, gk, tag)
            records[switch, gk, tag] = (True, terminal, tuple(wires), tuple(ffgroups))
        for gk in base:
            records.setdefault((switch, gk, 0), (True, False, (), ()))
    return records


def built(strategy, budget):
    gs = GroupState(geant(), "AT", ProtectionConfig(strategy, budget))
    for v in gs.net.nodes:
        if v != "AT":
            protect_join(gs, v)
    return gs.fabric


def golden_and_a_base_drop():
    """The golden star, plus a second group with nothing but its base drop."""
    fab = build_golden()[0]
    FlowInstaller(fab, "h").ensure_base("S")
    return fab


FABRICS = {f"{s}-F{f}": partial(built, s, f) for s in ("spt", "dst") for f in (1, 2, 3)}
FABRICS |= {"shared": shared_geant_fabric, "golden": golden_and_a_base_drop}


class TestCompileMatchesDump:
    """compile() and dump() are two readers of the same flows: the record
    compile gives for every flow and every base drop is the one the dump's
    text states, and every other key is unmatched."""

    @pytest.mark.parametrize("case", list(FABRICS))
    def test_records_read_back_from_the_dump(self, case):
        fab = FABRICS[case]()
        records = dump_records(fab)
        stored = {(switch, gk, tag) for switch, sw in fab.switches.items() for gk, tag in sw.flows}
        stored |= {(switch, gk, 0) for switch, sw in fab.switches.items() for gk in sw.base}
        assert set(records) == stored
        for (switch, gk, tag), record in records.items():
            assert fab.compile(switch, gk, tag) == record, (switch, gk, tag)
        tags = range(max(tag for _, _, tag in records) + 2)
        for switch in fab.switches:
            for gk in {gk for _, gk, _ in records}:
                for tag in tags:
                    if (switch, gk, tag) not in records:
                        assert fab.compile(switch, gk, tag) == (False, False, (), ())
