"""Invariants that tie a group's trees to the switch state they compile to.

check_installer_index(gs) asserts them after any public call; the tests run
it after their operations and churn_digest.py after every 10th operation of
each configuration. Standard library only, apart from ffmcast itself.
"""

from __future__ import annotations

from ffmcast.dataplane import PLAIN
from ffmcast.topology import HOST, Link, bfs_distances


def all_trees(gs):
    """Primary tree first, then backup trees in breadth-first order."""
    out = [gs.primary]
    for t in out:
        out.extend(t.backup[edge] for edge in sorted(t.backup))
    return out


def check_installer_index(gs):
    """The switch state says what each live tree forwards, and the
    installer's records name exactly that state.

    Every flow forwards somewhere, over links or plainly to its host. Each
    port that groups carry lists the original first, its primary slot the
    port's own wire, then its copies, each with drops. No group is empty,
    every group names the (owner_tag, port) whose tuple holds it, and every
    group at a switch sits in exactly one tuple, so none is orphaned (this
    spans every session on the fabric). Each group member is the
    wire (link bit, peer, tag) of the tree edge its bucket carries, its bit
    that of the link to the peer; a copy's drop bits are links of its
    switch.
    Pruning leaves no dead branch: every non-root node of a tree is a
    terminal or a parent, and the switches holding a tree's flow are
    exactly its nodes that forward or deliver (a backup's root forwards
    through buckets only); no flow outlives its tree. Each live backup names
    the edge it protects and assumes down its parent's links plus that
    edge, within the budget, and none of its own edges. An spt tree is a
    shortest-path tree of its root around its down set."""
    inst = gs.installer
    switches = gs.fabric.switches
    bit = gs.net.bit
    holders: dict[int, set[str]] = {}  # tree tag -> switches holding the group's flow for it
    mine = set()  # (switch, gid) of every group this group's flows carry
    for switch, sw in switches.items():
        tupled = []
        for (group_key, tag), flow in sw.flows.items():
            assert flow and flow.get(HOST, PLAIN) == PLAIN, (switch, group_key)
            assert all(port == HOST or Link(switch, port) in gs.net.links for port in flow), switch
            if group_key == inst.group_key:
                holders.setdefault(tag, set()).add(switch)
            for port, gids in flow.items():
                if gids == PLAIN:
                    continue
                assert gids and all(gid in sw.groups for gid in gids), (switch, port, gids)
                first, *copies = groups = [sw.groups[gid] for gid in gids]
                assert all((g.owner_tag, g.port) == (tag, port) for g in groups), (switch, gids)
                assert not first.drops and first.members[0] == (bit[switch, port], port, tag), (switch, gids)
                assert all(copy.drops for copy in copies), (switch, gids)
                assert all(g.members for g in groups), (switch, gids)
                tupled.extend(gids)
                if group_key == inst.group_key:
                    mine.update((switch, gid) for gid in gids)
        assert sorted(tupled) == sorted(sw.groups), switch
    for t in all_trees(gs):
        for edge, b in t.backup.items():
            assert b.protects == (t.tag, edge)
            assert b.down == t.down | {Link(*edge)}
            assert len(b.down) <= gs.config.max_failures
            assert not any(Link(p, c) in b.down for c, p in b.parent.items()), b.tag
        parents = set(t.parent.values())
        assert all(v in t.terminals or v in parents for v in t.parent), t.tag
        forwarding = (parents | t.terminals) - ({t.root} if t.tag else set())
        assert holders.pop(t.tag, set()) == forwarding, t.tag
        if gs.config.strategy == "spt":
            dist = bfs_distances(gs.net, t.root, t.down)
            assert all(len(t.path_to(v)) == dist[v] for v in (t.root, *t.parent)), t.tag
    assert not holders, sorted(holders)
    first_hops = {(t.tag, (p, c)) for t in all_trees(gs)[1:] for c, p in t.parent.items() if p == t.root}
    assert set(inst._buckets) == first_hops
    for key, gid in inst._buckets.items():
        tag, (switch, peer) = key
        assert (switch, gid) in mine, key
        assert (bit[switch, peer], peer, tag) in switches[switch].groups[gid].members, key
    for switch, gid in mine:
        group = switches[switch].groups[gid]
        # an original's primary slot is a flow port; every other member is a bucket
        for _, peer, tag in group.members if group.drops else group.members[1:]:
            key = (tag, (switch, peer))
            assert tag != group.owner_tag and inst._buckets.get(key) == gid, (switch, gid, key)
        # the bits are stored, not derived: each must still be the link it names
        assert all(bit.get((switch, peer)) == b for b, peer, _ in group.members), (switch, gid)
        own = {b for (a, _), b in bit.items() if a == switch}
        assert own.issuperset(group.drops), (switch, gid)
    # flow_count() and dump() are two derivations of the same flows
    dumped = sum(1 for line in gs.fabric.dump().splitlines() if line.startswith("  flow "))
    assert gs.fabric.total_flows() == dumped
