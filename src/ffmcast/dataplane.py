"""Emulated OpenFlow-style dataplane: flow tables, fast-failover groups, tags.

Each switch has up to 3 flow tables. Action lists are kept homogeneous at
compile time (group actions, plain outputs, and host deliveries live in
separate tables chained by goto) because a mixed list would only execute its
group actions; SwitchFabric.compile still implements that quirk faithfully.

SwitchFabric.compile is the one reader of the tables and groups for
forwarding. It flattens what a packet of one group does at one (switch, tag)
into a record of plain tuples: whether it matched, its host deliveries, its
static wires, and its fast-failover groups as watch links in failover order.
Walks read records from the fabric's `view`, keyed by (group_key, switch,
tag) and filled on first use; it persists across walks and sweeps. The
installer drops exactly the key of each (switch, tag) it changes, so the view
never goes stale. Code that edits tables or groups by hand must clear the
view (or pop the keys it touched) afterwards.

A fast-failover group is an ordered bucket list where the first bucket with a
live watch port wins. Backup trees rooted at a switch add buckets to the
group protecting the link they cover; when one backup tree needs several
egress ports at the same switch, the extra ports get copies of the group
whose inherited buckets are rewritten to Drop so each copy emits at most one
packet, and the owning flow entry points at the copies as well.
"""

from __future__ import annotations

from collections.abc import Set
from dataclasses import dataclass, field

from .errors import DataplaneError
from .topology import HOST, Link, Network

MAX_TAG = 4094
PLAIN = "plain"


@dataclass(frozen=True, order=True)
class PortId:
    """Egress port of a switch, identified by what it faces."""

    switch: str
    peer: str  # neighbor switch id, or HOST for the local host port

    @property
    def is_host(self) -> bool:
        return self.peer == HOST

    @property
    def link(self) -> Link:
        """The link behind the port (for a host port, one no topology has)."""
        return Link(self.switch, self.peer)


@dataclass(frozen=True)
class Output:
    port: PortId


@dataclass(frozen=True)
class SetTag:
    tag: int

    def __post_init__(self) -> None:
        if not 1 <= self.tag <= MAX_TAG:
            raise DataplaneError(f"tag {self.tag} outside 1..{MAX_TAG}")


@dataclass(frozen=True)
class PopTag:
    pass


@dataclass(frozen=True)
class ToGroup:
    group: int


@dataclass(frozen=True)
class GotoTable:
    table: int


@dataclass(frozen=True)
class DropAction:
    pass


Action = Output | SetTag | PopTag | ToGroup | GotoTable | DropAction


def render_action(action: Action) -> str:
    if isinstance(action, Output):
        return f"output:{action.port.peer}"
    if isinstance(action, SetTag):
        return f"tag={action.tag}"
    if isinstance(action, PopTag):
        return "pop"
    if isinstance(action, ToGroup):
        return f"group:{action.group}"
    if isinstance(action, GotoTable):
        return f"goto:{action.table}"
    return "Drop"


@dataclass(frozen=True)
class FlowEntry:
    table: int
    group_key: str
    tag: int | None  # None matches untagged packets
    priority: int
    actions: tuple[Action, ...]


@dataclass(frozen=True)
class Bucket:
    watch: PortId
    actions: tuple[Action, ...]

    def render(self) -> str:
        return f"{self.watch.peer}|{','.join(render_action(a) for a in self.actions)}"


@dataclass
class _Member:
    """Live bucket of a chain group: forwards out of its watch port."""

    watch: PortId
    set_tag: int | None  # None keeps the packet's current tag (primary slot)
    edge: tuple[int, tuple[str, str]]  # (tree tag, directed edge) it carries


@dataclass
class ChainGroup:
    """Fast-failover group holding one failover cascade.

    drop_watch is the inherited prefix of a copy (same watch ports, Drop
    actions); members are the cascade's own buckets in failover order.
    """

    gid: int
    owner_tag: int  # tree tag of the flow entry on this switch that references it
    drop_watch: list[PortId] = field(default_factory=list)
    members: list[_Member] = field(default_factory=list)
    copies: list[int] = field(default_factory=list)  # only on originals
    origin: int | None = None  # original gid when this is a copy

    def buckets(self) -> list[Bucket]:
        rendered = [Bucket(p, (DropAction(),)) for p in self.drop_watch]
        for m in self.members:
            acts: tuple[Action, ...]
            if m.set_tag is None:
                acts = (Output(m.watch),)
            else:
                acts = (SetTag(m.set_tag), Output(m.watch))
            rendered.append(Bucket(m.watch, acts))
        return rendered


class SwitchState:
    def __init__(self, node: str):
        self.node = node
        # table index -> (group_key, tag) -> priority -> entry
        self.tables: list[dict[tuple[str, int | None], dict[int, FlowEntry]]] = [{}, {}, {}]
        self.groups: dict[int, ChainGroup] = {}
        self._next_gid = 1

    def alloc_gid(self) -> int:
        gid = self._next_gid
        self._next_gid += 1
        return gid

    def flow_count(self, table: int | None = None) -> int:
        if table is None:
            return sum(len(prios) for tbl in self.tables for prios in tbl.values())
        return sum(len(prios) for prios in self.tables[table].values())


# (link, peer switch, outgoing tag) of a static wire or a failover member; a
# member watching the host port has peer HOST
Wire = tuple[Link, str, int | None]
# (links of the inherited Drop buckets, members in failover order)
FFGroup = tuple[tuple[Link, ...], tuple[Wire, ...]]
# (matched, outgoing tags of the host deliveries, static wires, groups)
Record = tuple[bool, tuple[int | None, ...], tuple[Wire, ...], tuple[FFGroup, ...]]


class SwitchFabric:
    """All switches of one network.

    It keeps no link state: a failure set is the caller's input to forward()
    and to walks, so one fabric can be walked under many failure sets without
    mutation. `view` caches compile() per (group_key, switch, tag) for walks.
    """

    def __init__(self, net: Network):
        self.net = net
        self.switches = {n: SwitchState(n) for n in net.nodes}
        self.view: dict[tuple[str, str, int | None], Record] = {}

    def compile(self, switch: str, group_key: str, tag: int | None) -> Record:
        """What a packet of the group with this tag does at the switch, for any
        down set: (matched, host delivery tags, static wires, groups).

        An entry's actions run in one pass: each output is set aside with the
        tag current at that action and kept only if no group action ran, so a
        list that mixes group and output actions keeps only its groups. A
        group's members carry the tag current at its action unless they set
        their own.
        """
        sw = self.switches[switch]
        hosts: list[int | None] = []
        wires: list[Wire] = []
        groups: list[FFGroup] = []
        table = 0
        cur = tag
        matched = False
        while True:
            prios = sw.tables[table].get((group_key, cur))
            if not prios:
                break
            entry = prios[max(prios)]
            matched = True
            outputs = []
            grouped = False
            goto = None
            for a in entry.actions:
                if isinstance(a, Output):
                    outputs.append((a.port, cur))
                elif isinstance(a, ToGroup):
                    grouped = True
                    groups.append(self._compile_group(sw, a.group, cur))
                elif isinstance(a, SetTag):
                    cur = a.tag
                elif isinstance(a, PopTag):
                    cur = None
                elif isinstance(a, GotoTable):
                    goto = a.table
            if not grouped:
                for port, out_tag in outputs:
                    if port.is_host:
                        hosts.append(out_tag)
                    else:
                        wires.append((port.link, port.peer, out_tag))
            if goto is None:
                break
            if goto <= table:
                raise DataplaneError(f"goto must increase the table index ({table} -> {goto})")
            table = goto
        return matched, tuple(hosts), tuple(wires), tuple(groups)

    @staticmethod
    def _compile_group(sw: SwitchState, gid: int, tag: int | None) -> FFGroup:
        group = sw.groups.get(gid)
        if group is None:
            raise DataplaneError(f"flow references unknown group {gid} on {sw.node}")
        drops = tuple([port.link for port in group.drop_watch])
        members = tuple([
            (m.watch.link, m.watch.peer, tag if m.set_tag is None else m.set_tag)
            for m in group.members
        ])
        return drops, members

    def forward(
        self,
        switch: str,
        group_key: str,
        tag: int | None,
        down: Set[Link],
        consulted: set[Link] | None = None,
    ) -> tuple[list[tuple[PortId, int | None]], bool]:
        """Run one packet through a switch with the given links down; returns
        (emissions, matched).

        Each emission is (egress port, outgoing tag): the live member of each
        group (an inherited Drop bucket that is live consumes the packet),
        then the static wires, then the host deliveries. When `consulted` is
        a set, the link of every watch port a group checked is added to it:
        the result is the same for any down set that agrees with `down` on
        those links. Reads a fresh compile(), never the view.
        """
        matched, hosts, wires, groups = self.compile(switch, group_key, tag)
        emissions: list[tuple[PortId, int | None]] = []
        for drops, members in groups:
            # first live bucket wins; a live inherited Drop bucket consumes the packet
            for link in drops:
                if consulted is not None:
                    consulted.add(link)
                if link not in down:
                    break
            else:
                for link, peer, out_tag in members:
                    if consulted is not None:
                        consulted.add(link)
                    if link not in down:
                        emissions.append((PortId(switch, peer), out_tag))
                        break
        emissions.extend((PortId(switch, peer), out_tag) for _, peer, out_tag in wires)
        emissions.extend((PortId(switch, HOST), out_tag) for out_tag in hosts)
        return emissions, matched

    # metrics -------------------------------------------------------

    def flow_counts(self) -> dict[str, list[int]]:
        return {n: [sw.flow_count(t) for t in range(3)] for n, sw in self.switches.items()}

    def group_counts(self) -> dict[str, int]:
        return {n: len(sw.groups) for n, sw in self.switches.items()}

    def total_flows(self) -> int:
        return sum(sw.flow_count() for sw in self.switches.values())

    def total_groups(self) -> int:
        return sum(len(sw.groups) for sw in self.switches.values())

    # dump ----------------------------------------------------------

    def dump(self, group_key: str | None = None) -> str:
        """Stable text rendering of all flow and group state."""
        lines: list[str] = []
        for node in self.net.nodes:
            sw = self.switches[node]
            entries = []
            for t in range(3):
                for (gk, tag), prios in sw.tables[t].items():
                    if group_key is not None and gk != group_key:
                        continue
                    for prio, entry in prios.items():
                        entries.append((t, gk, tag is not None, tag or 0, prio, entry))
            if not entries and not sw.groups:
                continue
            lines.append(f"switch {node}")
            for t, gk, _, _, prio, entry in sorted(entries, key=lambda e: e[:5]):
                tag_s = "untagged" if entry.tag is None else str(entry.tag)
                acts = ",".join(render_action(a) for a in entry.actions)
                lines.append(f"  flow table={t} match=({gk},{tag_s}) prio={prio} actions={acts}")
            for gid in sorted(sw.groups):
                lines.append(f"  group {gid}")
                for bucket in sw.groups[gid].buckets():
                    lines.append(f"    {bucket.render()}")
        return "\n".join(lines) + ("\n" if lines else "")


@dataclass
class _LogicalFlow:
    """Controller-side view of one (switch, tree) forwarding state."""

    children: dict[tuple[str, str], int | str] = field(default_factory=dict)  # edge -> PLAIN or gid
    terminal: bool = False


class FlowInstaller:
    """Compiles tree paths for one multicast group into switch state.

    Its records make installation idempotent and removal an exact inverse:
    each flow's children say how its tree edges are carried (PLAIN or a gid),
    and _buckets names the group holding each backup tree's first hop. Every
    edit of a (switch, tag) drops that key from the fabric's view.
    """

    def __init__(self, fabric: SwitchFabric, group_key: str):
        self.fabric = fabric
        self.group_key = group_key
        self._flows: dict[tuple[str, int], _LogicalFlow] = {}
        # (backup tree tag, first-hop edge) -> gid of the group holding its bucket
        self._buckets: dict[tuple[int, tuple[str, str]], int] = {}
        self._base_root: str | None = None

    # group base ----------------------------------------------------

    def ensure_base(self, root: str) -> None:
        """Low-priority drop at the sourcing switch so unsubscribed traffic dies quietly."""
        sw = self.fabric.switches[root]
        entry = FlowEntry(0, self.group_key, None, -1, (DropAction(),))
        sw.tables[0].setdefault((self.group_key, None), {})[-1] = entry
        self._drop_view(root, 0)
        self._base_root = root

    def remove_base(self) -> None:
        if self._base_root is None:
            return
        sw = self.fabric.switches[self._base_root]
        prios = sw.tables[0].get((self.group_key, None))
        if prios:
            prios.pop(-1, None)
            if not prios:
                del sw.tables[0][(self.group_key, None)]
        self._drop_view(self._base_root, 0)
        self._base_root = None

    def _drop_view(self, switch: str, tag: int) -> None:
        """Forget the compiled record of one (switch, tree tag) after an edit."""
        self.fabric.view.pop((self.group_key, switch, None if tag == 0 else tag), None)

    # install -------------------------------------------------------

    def compile_path(self, tree, path: list[tuple[str, str]], terminal: str | None = None) -> None:
        """Install the flows for a join path; already-installed edges are no-ops.

        The first hop out of a backup tree's root becomes a failover bucket
        in the group covering the protected link; every other edge is a
        forwarding action of the (switch, tag) flow entry.
        """
        for a, b in path:
            if tree.tag != 0 and a == tree.root:
                if (tree.tag, (a, b)) in self._buckets:
                    continue
                if tree.protects is None:
                    raise DataplaneError(f"backup tree {tree.tag} has no protected edge")
                self.add_backup_bucket(a, self._ensure_chain(tree.protects), PortId(a, b), tree.tag)
            else:
                lf = self._flows.get((a, tree.tag))
                if lf is None:
                    lf = self._flows[(a, tree.tag)] = _LogicalFlow()
                elif (a, b) in lf.children:
                    continue
                lf.children[(a, b)] = PLAIN
                self._repack(a, tree.tag)
        if terminal is not None:
            lf = self._flows.setdefault((terminal, tree.tag), _LogicalFlow())
            if not lf.terminal:
                lf.terminal = True
                self._repack(terminal, tree.tag)

    def _ensure_chain(self, parent_key: tuple[int, tuple[str, str]]) -> int:
        """Group id of the failover chain that carries the given tree edge."""
        if parent_key in self._buckets:
            return self._buckets[parent_key]
        tag, edge = parent_key
        switch = edge[0]
        lf = self._flows.get((switch, tag))
        if lf is None or edge not in lf.children:
            raise DataplaneError(f"edge {parent_key} is not installed")
        if lf.children[edge] != PLAIN:
            return int(lf.children[edge])
        # promote a plain output to a fast-failover group
        sw = self.fabric.switches[switch]
        gid = sw.alloc_gid()
        group = ChainGroup(gid, tag)
        group.members.append(_Member(PortId(edge[0], edge[1]), None, parent_key))
        sw.groups[gid] = group
        lf.children[edge] = gid
        self._repack(switch, tag)
        return gid

    def add_backup_bucket(self, switch: str, gid: int, backup_port: PortId, backup_tag: int) -> int:
        """Add a failover bucket for a backup tree's first hop.

        Appends to the given group unless it already serves another first hop
        of the same backup tree; in that case a copy is made whose inherited
        buckets all Drop (same watch ports) and the owning flow entry is
        pointed at the copy too. Returns the group id that got the bucket.
        """
        sw = self.fabric.switches[switch]
        group = sw.groups.get(gid)
        if group is None:
            raise DataplaneError(f"unknown group {gid} on {switch}")
        edge = (backup_tag, (switch, backup_port.peer))
        member = _Member(backup_port, backup_tag, edge)
        first = next((i for i, m in enumerate(group.members) if m.set_tag == backup_tag), None)
        if first is None:
            group.members.append(member)
            self._buckets[edge] = gid
            self._drop_view(switch, group.owner_tag)
            return gid
        # another egress for the same backup tree: copy the group
        origin_gid = group.origin if group.origin is not None else gid
        origin = sw.groups[origin_gid]
        copy_gid = sw.alloc_gid()
        prefix = list(group.drop_watch) + [m.watch for m in group.members[:first]]
        copy = ChainGroup(copy_gid, origin.owner_tag, drop_watch=prefix, origin=origin_gid)
        copy.members.append(member)
        sw.groups[copy_gid] = copy
        origin.copies.append(copy_gid)
        self._buckets[edge] = copy_gid
        self._repack(switch, origin.owner_tag)
        return copy_gid

    # removal -------------------------------------------------------

    def remove_terminal(self, tree, v: str) -> None:
        lf = self._flows.get((v, tree.tag))
        if lf is None or not lf.terminal:
            return
        lf.terminal = False
        self._repack(v, tree.tag)

    def remove_edge(self, tree, edge: tuple[str, str]) -> None:
        """Undo compile_path for one directed tree edge (no-op if gone already)."""
        key = (tree.tag, edge)
        if key in self._buckets:
            self._remove_member(self._buckets[key], key)
            return
        lf = self._flows.get((edge[0], tree.tag))
        mode = None if lf is None else lf.children.get(edge)
        if mode == PLAIN:
            del lf.children[edge]
            self._repack(edge[0], tree.tag)
        elif mode is not None:
            self._delete_family(int(mode), key)

    def _delete_family(self, gid: int, slot0_key: tuple[int, tuple[str, str]]) -> None:
        tag, edge = slot0_key
        switch = edge[0]
        sw = self.fabric.switches[switch]
        for dead_gid in [gid, *sw.groups[gid].copies]:
            for m in sw.groups.pop(dead_gid).members:
                if m.set_tag is not None:  # the primary slot is a flow child, not a bucket
                    del self._buckets[m.edge]
        del self._flows[(switch, tag)].children[edge]
        self._repack(switch, tag)

    def _remove_member(self, gid: int, key: tuple[int, tuple[str, str]]) -> None:
        switch = key[1][0]
        sw = self.fabric.switches[switch]
        group = sw.groups[gid]
        del self._buckets[key]
        group.members = [m for m in group.members if m.edge != key]
        if group.origin is not None and not group.members:
            # a copy with nothing left to send vanishes
            del sw.groups[gid]
            sw.groups[group.origin].copies.remove(gid)
        elif group.origin is None and len(group.members) == 1 and not group.copies:
            # only the primary slot remains: dissolve back to a plain output
            slot0 = group.members[0]
            del sw.groups[gid]
            self._flows[(switch, slot0.edge[0])].children[slot0.edge[1]] = PLAIN
        self._repack(switch, group.owner_tag)

    # table packing -------------------------------------------------

    def _repack(self, switch: str, tag: int) -> None:
        """Rebuild the (up to 3) flow entries of one (switch, tree) pair.

        Action kinds are segregated: group actions first, then plain
        outputs, then the host delivery (tag pop for backup trees), each
        kind in its own table linked by goto.
        """
        sw = self.fabric.switches[switch]
        match_tag = None if tag == 0 else tag
        self._drop_view(switch, tag)
        for t in range(3):
            prios = sw.tables[t].get((self.group_key, match_tag))
            if prios:
                prios.pop(0, None)
                if not prios:
                    del sw.tables[t][(self.group_key, match_tag)]
        lf = self._flows.get((switch, tag))
        if lf is None:
            return
        group_acts: list[Action] = []
        out_acts: list[Action] = []
        for edge in sorted(lf.children):
            mode = lf.children[edge]
            if mode == PLAIN:
                out_acts.append(Output(PortId(edge[0], edge[1])))
            else:
                gid = int(mode)
                group_acts.append(ToGroup(gid))
                for copy_gid in sw.groups[gid].copies:
                    group_acts.append(ToGroup(copy_gid))
        host_acts: list[Action] = []
        if lf.terminal:
            if tag != 0:
                host_acts.append(PopTag())
            host_acts.append(Output(PortId(switch, HOST)))
        kinds = [k for k in (group_acts, out_acts, host_acts) if k]
        if not kinds:
            if not lf.children and not lf.terminal:
                self._flows.pop((switch, tag), None)
            return
        for t, acts in enumerate(kinds):
            actions = list(acts)
            if t < len(kinds) - 1:
                actions.append(GotoTable(t + 1))
            entry = FlowEntry(t, self.group_key, match_tag, 0, tuple(actions))
            sw.tables[t].setdefault((self.group_key, match_tag), {})[0] = entry
