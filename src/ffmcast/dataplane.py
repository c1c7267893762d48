"""Emulated OpenFlow-style dataplane: flows, fast-failover groups, tags.

Switch state is kept as the records the installer works with. Each switch
holds flows[(group_key, tag)], a flow: a plain dict that maps each out port
to PLAIN or the tuple of ids of the groups that carry it. A port is the peer
switch's name, and the reserved HOST port, which no node may take, holds the
host delivery. The tag is the tree's tag, an int everywhere from the tree to
the walk; tag 0, the primary tree's, matches untagged packets. Its base set
names the groups whose source sits here, each with a priority -1 drop so
unsubscribed traffic dies quietly, and groups maps a group id to its
ChainGroup. No OpenFlow table is kept: dump() renders each flow as up to
three entries in table 0, 1 and 2 (group actions, then plain outputs, then
the host delivery, chained by goto), and flow_count() counts what it
renders.

SwitchFabric.compile is the one reader of that state for forwarding. It
flattens what a packet of one group does at one (switch, tag) into a record
of plain tuples: whether it matched, whether it delivers to the host, its
static wires, and its fast-failover groups as watch links in failover
order. A link in a record is its bit in the network (Network.bit), which a
walk tests against the mask of its failure set. Walks read records from
the fabric's `view`, keyed by (group_key, switch, tag) and filled on first
use; it persists across walks and sweeps. The installer drops exactly the
key of each (switch, tag) it changes, so the view never goes stale. Code
that edits flows or groups by hand must clear the view (or pop the keys it
touched) afterwards; a test may instead write a record into the view
directly, which is what walks read.

A fast-failover group is an ordered bucket list where the first bucket with a
live watch port wins. Each bucket is stored as the wire a walk reads,
(link bit, peer, tag): it watches and outputs to the peer over that link
and stamps the tag. The primary slot stamps the tag of the flow that owns
the group, so it keeps the packet's tag. Backup trees rooted at a switch
add buckets to the group protecting the link they cover; when one backup
tree needs several egress ports at the same switch, the extra ports get
copies of the group whose inherited buckets are rewritten to Drop so each
copy emits at most one packet. The owning flow's port lists the original
first, then its copies in the order they were made; a copy is reached from
there alone. A bucket is built once, when it is installed, so compile
copies it and derives nothing.
"""

from __future__ import annotations

from collections.abc import Iterable

from .errors import DataplaneError
from .records import Record
from .topology import HOST, Link, Network

MAX_TAG = 4094
PLAIN = "plain"

# (link bit, peer switch, outgoing tag) of a static wire or a failover member
Wire = tuple[int, str, int]


class ChainGroup(Record):
    """Fast-failover group holding one failover cascade, keyed by its gid in SwitchState.groups.

    members are the cascade's own buckets in failover order, each stored as
    the wire (link bit, peer, tag) of the tree edge (switch, peer) it
    carries: the bucket watches and outputs to peer and stamps the tag. The
    primary slot, members[0] of an original, stamps owner_tag, the tag of
    the flow that references the group, so it keeps the packet's tag; a
    backup tree has no flow at its own root, so no backup bucket stamps
    owner_tag. port is the out port of that flow whose gids name the group:
    the peer of an original's primary slot.
    drops holds the link bits of a copy's inherited prefix (same watch
    ports, Drop actions), fixed when the copy is made; a group is a copy
    exactly when it has drops.
    """

    __slots__ = ("owner_tag", "port", "drops", "members")

    def __init__(self, owner_tag: int, port: str, drops: tuple[int, ...] = (),
                 members: list[Wire] | None = None):
        self.owner_tag = owner_tag  # tree tag of the flow on this switch that references it
        self.port = port  # the port of that flow that carries the group
        self.drops = drops
        self.members = [] if members is None else members


def table_count(flow: dict[str, tuple[int, ...] | str]) -> int:
    """Flow entries dump() renders for a flow: one per kind of action it uses."""
    host = HOST in flow  # the host port is PLAIN too
    plain = list(flow.values()).count(PLAIN)
    return (plain < len(flow)) + (plain > host) + host


class SwitchState:
    """One switch's state. flows maps (group_key, tree tag) to a flow, a dict
    from each out port (the peer switch, or HOST for the host delivery) to
    PLAIN or the gids of the groups that carry it, the original first, then
    its copies; a flow with no port is deleted."""

    def __init__(self):
        self.flows: dict[tuple[str, int], dict[str, tuple[int, ...] | str]] = {}
        self.base: set[str] = set()  # group keys with the priority -1 drop
        self.groups: dict[int, ChainGroup] = {}
        self._next_gid = 1

    def alloc_gid(self) -> int:
        gid = self._next_gid
        self._next_gid += 1
        return gid

    def flow_count(self) -> int:
        return len(self.base) + sum(map(table_count, self.flows.values()))


# (link bits of the inherited Drop buckets, members in failover order)
FFGroup = tuple[tuple[int, ...], tuple[Wire, ...]]
# (matched, delivers to the host, static wires, groups)
Record = tuple[bool, bool, tuple[Wire, ...], tuple[FFGroup, ...]]


class SwitchFabric:
    """All switches of one network: each one's flows, base drops and groups.

    It keeps no link state: a failure set is the caller's input to forward()
    and to walks, so one fabric can be walked under many failure sets without
    mutation. `view` caches compile() per (group_key, switch, tag) for walks.
    """

    def __init__(self, net: Network):
        self.net = net
        self.switches = {n: SwitchState() for n in net.nodes}
        self.view: dict[tuple[str, str, int], Record] = {}
        self.group_keys: set[str] = set()  # of the groups it carries, one per source

    def compile(self, switch: str, group_key: str, tag: int) -> Record:
        """What a packet of the group with this tag does at the switch, for any
        down set: (matched, terminal, static wires, groups).

        Wires and groups follow the flow's ports in sorted order, and a
        port's groups the order of its gids. Wires keep the packet's tag and
        each group member stamps its own. Without a flow, an untagged packet
        (tag 0) at a switch with the group's base drop matches and goes
        nowhere.
        """
        sw = self.switches[switch]
        flow = sw.flows.get((group_key, tag))
        if flow is None:
            return tag == 0 and group_key in sw.base, False, (), ()
        bit = self.net.bit
        wires: list[Wire] = []
        groups: list[FFGroup] = []
        for peer in sorted(flow):
            gids = flow[peer]
            if gids == PLAIN:
                if peer != HOST:
                    wires.append((bit[switch, peer], peer, tag))
                continue
            for gid in gids:
                g = sw.groups.get(gid)
                if g is None:
                    raise DataplaneError(f"flow references unknown group {gid} on {switch}")
                # fresh member tuples: sharing the stored ones measured slower on warm sweeps
                groups.append((g.drops, tuple([(b, p, t) for b, p, t in g.members])))
        return True, HOST in flow, tuple(wires), tuple(groups)

    def forward(
        self, switch: str, group_key: str, tag: int, down: Iterable[Link]
    ) -> tuple[list[tuple[str, int]], bool]:
        """Run one packet through a switch with the given links down; returns
        (emissions, matched).

        Each emission is (peer, outgoing tag), with (HOST, 0) for the host
        delivery, which pops the tag: the live member of each group (an
        inherited Drop bucket that is live consumes the packet), then the
        static wires, then the host delivery. A link outside the network
        raises TopologyError. Reads a fresh compile(), never the view.
        """
        down = self.net.mask(down)
        matched, terminal, wires, groups = self.compile(switch, group_key, tag)
        emissions: list[tuple[str, int]] = []
        for drops, members in groups:
            # first live bucket wins; a live inherited Drop bucket consumes the packet
            for b in drops:
                if not b & down:
                    break
            else:
                for b, peer, out_tag in members:
                    if not b & down:
                        emissions.append((peer, out_tag))
                        break
        emissions.extend((peer, out_tag) for _, peer, out_tag in wires)
        if terminal:
            emissions.append((HOST, 0))
        return emissions, matched

    # metrics -------------------------------------------------------

    def flow_counts(self) -> dict[str, int]:
        return {n: sw.flow_count() for n, sw in self.switches.items()}

    def group_counts(self) -> dict[str, int]:
        return {n: len(sw.groups) for n, sw in self.switches.items()}

    def total_flows(self) -> int:
        return sum(sw.flow_count() for sw in self.switches.values())

    def total_groups(self) -> int:
        return sum(len(sw.groups) for sw in self.switches.values())

    # dump ----------------------------------------------------------

    def dump(self) -> str:
        """Stable text rendering of all flow and group state, in OpenFlow table form.

        Each flow becomes up to three entries at priority 0, one kind of
        action per table and chained by goto: its groups (each port's gids
        in order), its plain outputs, then its host delivery (popping the
        tag first when there is one). A base drop is a table-0 entry at
        priority -1. The text is joined once, from one chunk per switch.
        """
        peer_of = {(a, b): peer for (a, peer), b in self.net.bit.items()}  # (switch, link bit) -> peer
        chunks: list[str] = []
        for node in self.net.nodes:
            sw = self.switches[node]
            entries = [(0, gk, 0, -1, "Drop") for gk in sw.base]
            for (gk, tag), flow in sw.flows.items():
                groups = []
                outputs = []
                for peer in sorted(flow):
                    gids = flow[peer]
                    if gids != PLAIN:
                        groups.extend(f"group:{gid}" for gid in gids)
                    elif peer != HOST:
                        outputs.append(f"output:{peer}")
                host = ["pop", "output:host"] if tag else ["output:host"]
                kinds = [k for k in (groups, outputs, host if HOST in flow else []) if k]
                for t, acts in enumerate(kinds):
                    goto = [f"goto:{t + 1}"] if t < len(kinds) - 1 else []
                    entries.append((t, gk, tag, 0, ",".join(acts + goto)))
            if not entries and not sw.groups:
                continue
            lines = [f"switch {node}"]
            for t, gk, tag, prio, acts in sorted(entries):
                tag_s = str(tag) if tag else "untagged"
                lines.append(f"  flow table={t} match=({gk},{tag_s}) prio={prio} actions={acts}")
            for gid in sorted(sw.groups):
                group = sw.groups[gid]
                lines.append(f"  group {gid}")
                lines.extend(f"    {peer_of[node, b]}|Drop" for b in group.drops)
                for _, peer, tag in group.members:
                    stamp = "" if tag == group.owner_tag else f"tag={tag},"
                    lines.append(f"    {peer}|{stamp}output:{peer}")
            lines.append("")
            chunks.append("\n".join(lines))
        return "".join(chunks)


class FlowInstaller:
    """Compiles tree paths for one multicast group into switch state.

    It edits the switches' flows, base drops and groups in place, which makes
    installation idempotent and removal an exact inverse: each flow's
    ports say how its tree edges are carried (PLAIN or gids), and
    _buckets names the group holding each backup tree's first hop. Every
    edit of a (switch, tag) drops that key from the fabric's view.
    """

    def __init__(self, fabric: SwitchFabric, group_key: str):
        self.fabric = fabric
        self.group_key = group_key
        # (backup tree tag, first-hop edge) -> gid of the group holding its bucket
        self._buckets: dict[tuple[int, tuple[str, str]], int] = {}

    def _edited(self, switch: str, tag: int) -> None:
        """After an edit of one (switch, tree tag): forget its compiled record,
        and its flow once it forwards nothing."""
        key = (self.group_key, tag)
        flows = self.fabric.switches[switch].flows
        if key in flows and not flows[key]:
            del flows[key]
        self.fabric.view.pop((self.group_key, switch, tag), None)

    # group base ----------------------------------------------------

    def ensure_base(self, root: str) -> None:
        """Low-priority drop at the sourcing switch so unsubscribed traffic dies quietly."""
        self.fabric.switches[root].base.add(self.group_key)
        self._edited(root, 0)

    def remove_base(self, root: str) -> None:
        self.fabric.switches[root].base.discard(self.group_key)
        self._edited(root, 0)

    # install -------------------------------------------------------

    def compile_path(self, tree, path: list[tuple[str, str]], terminal: str | None = None) -> None:
        """Install the flows for tree edges and a host delivery at terminal.

        Callers pass only the edges they add to the tree (what a join
        returns), so a join pays for its new edges alone; an edge that is
        already installed is still a no-op. The first hop out of a backup
        tree's root becomes a failover bucket in the group covering the
        protected link; every other edge is a PLAIN port of the (switch, tag)
        flow, and the host delivery is one more, its HOST port. An insert
        never empties a flow, so each one drops just its view key.
        """
        key = (self.group_key, tree.tag)
        switches = self.fabric.switches
        for a, b in path if terminal is None else (*path, (terminal, HOST)):
            if tree.tag != 0 and a == tree.root and b != HOST:
                if (tree.tag, (a, b)) in self._buckets:
                    continue
                if tree.protects is None:
                    raise DataplaneError(f"backup tree {tree.tag} has no protected edge")
                self.add_backup_bucket(a, self._ensure_chain(tree.protects), b, tree.tag)
            else:
                flow = switches[a].flows.get(key)
                if flow is None:
                    flow = switches[a].flows[key] = {}
                elif b in flow:
                    continue
                flow[b] = PLAIN
                self.fabric.view.pop((self.group_key, a, tree.tag), None)

    def _ensure_chain(self, parent_key: tuple[int, tuple[str, str]]) -> int:
        """Group id of the failover chain that carries the given tree edge."""
        if parent_key in self._buckets:
            return self._buckets[parent_key]
        tag, (switch, peer) = parent_key
        sw = self.fabric.switches[switch]
        flow = sw.flows.get((self.group_key, tag))
        gids = None if flow is None else flow.get(peer)
        if gids is None:
            raise DataplaneError(f"edge {parent_key} is not installed")
        if gids != PLAIN:
            return gids[0]
        # promote a plain output to a fast-failover group
        gid = sw.alloc_gid()
        sw.groups[gid] = ChainGroup(tag, peer, members=[(self.fabric.net.bit[switch, peer], peer, tag)])
        flow[peer] = (gid,)
        self._edited(switch, tag)
        return gid

    def add_backup_bucket(self, switch: str, gid: int, peer: str, backup_tag: int) -> int:
        """Add a failover bucket for a backup tree's first hop, to peer.

        Appends to the given group unless it already serves another first hop
        of the same backup tree; in that case a copy is made whose inherited
        buckets all Drop (same watch ports), and its gid is appended to the
        owning flow's port. Returns the group id that got the bucket.
        """
        sw = self.fabric.switches[switch]
        group = sw.groups.get(gid)
        if group is None:
            raise DataplaneError(f"unknown group {gid} on {switch}")
        key = (backup_tag, (switch, peer))
        wire = (self.fabric.net.bit[switch, peer], peer, backup_tag)
        first = next((i for i, (_, _, tag) in enumerate(group.members) if tag == backup_tag), None)
        if first is None:
            group.members.append(wire)
            self._buckets[key] = gid
            self._edited(switch, group.owner_tag)
            return gid
        # another egress for the same backup tree: copy the group
        copy_gid = sw.alloc_gid()
        drops = group.drops + tuple([b for b, _, _ in group.members[:first]])
        sw.groups[copy_gid] = ChainGroup(group.owner_tag, group.port, drops, [wire])
        sw.flows[(self.group_key, group.owner_tag)][group.port] += (copy_gid,)
        self._buckets[key] = copy_gid
        self._edited(switch, group.owner_tag)
        return copy_gid

    # removal -------------------------------------------------------

    def remove_terminal(self, tree, v: str) -> None:
        self._remove_port(v, tree.tag, HOST)

    def remove_edge(self, tree, edge: tuple[str, str]) -> None:
        """Undo compile_path for one directed tree edge (no-op if gone already)."""
        key = (tree.tag, edge)
        if key in self._buckets:
            self._remove_member(self._buckets[key], key)
        else:
            self._remove_port(edge[0], tree.tag, edge[1])

    def _remove_port(self, switch: str, tag: int, port: str) -> None:
        """Drop a port of the (switch, tag) flow and the groups on it (no-op if gone)."""
        flow = self.fabric.switches[switch].flows.get((self.group_key, tag))
        gids = None if flow is None else flow.pop(port, None)
        if gids is None:
            return
        if gids != PLAIN:
            self._delete_family(switch, tag, gids)
        self._edited(switch, tag)

    def _delete_family(self, switch: str, tag: int, gids: tuple[int, ...]) -> None:
        """Delete a port's groups and forget the backup buckets they held."""
        groups = self.fabric.switches[switch].groups
        for gid in gids:
            for _, peer, m_tag in groups.pop(gid).members:
                if m_tag != tag:  # the primary slot is a flow port, not a bucket
                    del self._buckets[m_tag, (switch, peer)]

    def _remove_member(self, gid: int, key: tuple[int, tuple[str, str]]) -> None:
        tag, (switch, peer) = key
        sw = self.fabric.switches[switch]
        group = sw.groups[gid]
        del self._buckets[key]
        group.members.remove((self.fabric.net.bit[switch, peer], peer, tag))
        flow = sw.flows[(self.group_key, group.owner_tag)]
        gids = flow[group.port]
        if group.drops and not group.members:
            # a copy with nothing left to send vanishes
            del sw.groups[gid]
            gids = flow[group.port] = tuple([g for g in gids if g != gid])
        if len(gids) == 1 and len(sw.groups[gids[0]].members) == 1:
            # only the original's primary slot remains: dissolve back to a plain output
            del sw.groups[gids[0]]
            flow[group.port] = PLAIN
        self._edited(switch, group.owner_tag)
