"""Protected group membership.

protect_join grafts a subscriber onto the primary tree, then walks every
tree edge the subscriber now depends on and makes sure a backup tree rooted
at the edge's upstream switch can reach the subscriber with that edge (and
any already-assumed failures, together the backup's down set) removed from
the topology. Backup trees get their own tag and are recursively protected
until the failure budget is spent. protect_leave undoes exactly that,
pruning edges nobody needs.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable
from typing import NamedTuple

from .dataplane import MAX_TAG, FlowInstaller, SwitchFabric
from .errors import TagSpaceExhausted, TopologyError
# without_links is unused here but stays importable: perfbench's tracer wraps it by name
from .topology import Link, Network, without_links  # noqa: F401
from .trees import JOIN_STRATEGIES, MulticastTree, apply_path, backup_steps, join


class _ProtectionFields(NamedTuple):
    strategy: str
    max_failures: int


class ProtectionConfig(_ProtectionFields):
    """How a group grows and protects its trees. Every way of making one,
    _make and _replace too, checks the fields (ValueError)."""

    __slots__ = ()

    def __new__(cls, strategy: str = "spt", max_failures: int = 1) -> ProtectionConfig:
        if strategy not in JOIN_STRATEGIES:
            raise ValueError(f"unknown join strategy {strategy!r}")
        require_count("max_failures", max_failures)
        return tuple.__new__(cls, (strategy, max_failures))

    @classmethod
    def _make(cls, iterable: Iterable) -> ProtectionConfig:
        return cls(*iterable)


def require_count(name: str, value: object) -> None:
    """Reject a budget that is not an int >= 0, naming it: a bool, a float
    or a str raises ValueError here rather than deep in a later call."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an int, not {type(value).__name__}")
    if value < 0:
        raise ValueError(f"{name} must be >= 0")


class GroupState:
    """One multicast group: its trees plus the switch state they compile to."""

    def __init__(
        self,
        net: Network,
        source: str,
        config: ProtectionConfig | None = None,
        fabric: SwitchFabric | None = None,
    ):
        if source not in net:
            raise TopologyError(f"unknown source node {source!r}")
        self.net = net
        self.config = config or ProtectionConfig()
        self.primary = MulticastTree(root=source)
        self.fabric = fabric or SwitchFabric(net)
        if self.fabric.net is not net:
            raise ValueError("the fabric was built on another network")
        key = f"mcast-{source}"
        if key in self.fabric.group_keys:
            raise ValueError(f"the fabric already carries a group from {source!r}")
        self.fabric.group_keys.add(key)
        self.installer = FlowInstaller(self.fabric, key)
        self.tags_allocated = 0  # backup tree tags drawn so far; the primary has tag 0
        self.join_calls = 0

    @property
    def source(self) -> str:
        return self.primary.root

    @property
    def subscribers(self) -> set[str]:
        return set(self.primary.terminals)

    @property
    def unprotected(self) -> list[tuple[int, tuple[str, str], tuple[str, ...], str]]:
        """(backup tag, protected edge, assumed-down links, subscriber), sorted,
        for each backup tree on a subscriber's protection path that does not
        reach it. Computed from the trees on each read."""
        return sorted(
            (b.tag, b.protects[1], tuple(sorted(str(l) for l in b.down)), v)
            for v in self.primary.terminals
            for b in backup_steps(self.primary, v)
            if v not in b.terminals
        )

    def fresh_tag(self) -> int:
        """The next backup tree tag. Tags are drawn in order and never reused."""
        if self.tags_allocated >= MAX_TAG:
            raise TagSpaceExhausted(f"all {MAX_TAG} tags in use")
        self.tags_allocated += 1
        return self.tags_allocated


def protect_join(gs: GroupState, v: str) -> bool:
    """Subscribe v; returns False when the primary tree cannot reach it.

    Tree edges that end up without a viable backup are skipped quietly and
    show up in gs.unprotected; delivery under failures hitting them is not
    promised. If the tag space runs out mid-join, the join is undone and
    TagSpaceExhausted propagates; the tags it drew are not returned.
    """
    primary = gs.primary
    if v not in gs.net:
        raise TopologyError(f"unknown node {v!r}")
    if v == primary.root:
        raise ValueError("the source cannot subscribe to its own group")
    if v in primary.terminals:
        return True
    if not _attach(gs, primary, v):
        return False
    gs.installer.ensure_base(primary.root)
    queue: deque[MulticastTree] = deque()
    if gs.config.max_failures > 0:
        queue.append(primary)
    try:
        while queue:
            tree = queue.popleft()
            for x, y in tree.path_to(v):
                b = tree.backup.get((x, y))
                if b is None:
                    # the tag is burned even when no backup path exists
                    b = MulticastTree(root=x, tag=gs.fresh_tag(), protects=(tree.tag, (x, y)),
                                      down=tree.down | {Link(x, y)})
                    tree.backup[(x, y)] = b
                if _attach(gs, b, v) and len(b.down) < gs.config.max_failures:
                    queue.append(b)
    except TagSpaceExhausted:
        # undo the partial join through the leave path; the tags it drew stay burned
        protect_leave(gs, v)
        raise
    return True


def _attach(gs: GroupState, tree: MulticastTree, v: str) -> bool:
    """Join v to one tree, routing around the links in tree.down, and install
    the edges the join adds and v's host delivery; False if v is unreachable.
    """
    gs.join_calls += 1
    path = join(gs.net, tree, v, gs.config.strategy)
    if path is None:
        return False
    apply_path(tree, path)
    tree.terminals.add(v)
    gs.installer.compile_path(tree, path, terminal=v)
    return True


def protect_leave(gs: GroupState, v: str) -> None:
    """Unsubscribe v everywhere; a no-op for non-subscribers and the source."""
    if v not in gs.net:
        raise TopologyError(f"unknown node {v!r}")
    _leave(gs, gs.primary, v)
    if not gs.primary.terminals:
        gs.installer.remove_base(gs.source)


def _leave(gs: GroupState, tree: MulticastTree, v: str) -> None:
    """Take v off tree and its backups, dropping the backups of pruned edges."""
    if v == tree.root or v not in tree.terminals:
        return
    snapshot = tree.path_to(v)
    tree.terminals.discard(v)
    gs.installer.remove_terminal(tree, v)
    pruned: list[tuple[str, str]] = []
    key = (gs.installer.group_key, tree.tag)
    cur = v
    # drop edges upward while the switch holds no flow of the tree: no child, no host
    while cur != tree.root and key not in gs.fabric.switches[cur].flows:
        parent = tree.parent.pop(cur)
        gs.installer.remove_edge(tree, (parent, cur))
        pruned.append((parent, cur))
        cur = parent
    # v also leaves every backup tree covering an edge it depended on,
    # nearest edge first so nested state unwinds before its parents
    for edge in reversed(snapshot):
        b = tree.backup.get(edge)
        if b is not None:
            _leave(gs, b, v)
    for edge in pruned:
        tree.backup.pop(edge, None)
