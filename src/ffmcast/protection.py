"""Protected group membership.

protect_join grafts a subscriber onto the primary tree, then walks every
tree edge the subscriber now depends on and makes sure a backup tree rooted
at the edge's upstream switch can reach the subscriber with that edge (and
any already-assumed failures) removed from the topology. Backup trees get
their own tag and are recursively protected until the failure budget is
spent. protect_leave undoes exactly that, pruning edges nobody needs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .dataplane import MAX_TAG, FlowInstaller, SwitchFabric
from .errors import TagSpaceExhausted, TopologyError
# without_links is unused here but stays importable: perfbench's tracer wraps it by name
from .topology import Link, Network, without_links  # noqa: F401
from .trees import JOIN_STRATEGIES, MulticastTree, PathEdges, apply_path, join


@dataclass(frozen=True)
class ProtectionConfig:
    strategy: str = "spt"
    max_failures: int = 1

    def __post_init__(self) -> None:
        if self.strategy not in JOIN_STRATEGIES:
            raise ValueError(f"unknown join strategy {self.strategy!r}")
        if self.max_failures < 0:
            raise ValueError("max_failures must be >= 0")


class GroupState:
    """One multicast group: its trees plus the switch state they compile to."""

    def __init__(
        self,
        net: Network,
        source: str,
        config: ProtectionConfig | None = None,
        fabric: SwitchFabric | None = None,
        group_key: str | None = None,
    ):
        if source not in net:
            raise TopologyError(f"unknown source node {source!r}")
        self.net = net
        self.config = config or ProtectionConfig()
        self.primary = MulticastTree(root=source)
        self.fabric = fabric or SwitchFabric(net)
        self.installer = FlowInstaller(self.fabric, group_key or f"mcast-{source}")
        self.join_calls = 0
        # (backup tag, protected edge, assumed-down links) with no usable path
        self.unprotected: list[tuple[int, tuple[str, str], tuple[str, ...]]] = []

    @property
    def source(self) -> str:
        return self.primary.root

    @property
    def subscribers(self) -> set[str]:
        return set(self.primary.terminals)

    @property
    def tags_allocated(self) -> int:
        return self.primary.next_tag - 1

    def fresh_tag(self) -> int:
        nxt = self.primary.next_tag
        if nxt > MAX_TAG:
            raise TagSpaceExhausted(f"all {MAX_TAG} tags in use")
        self.primary.next_tag = nxt + 1
        return nxt

    def all_trees(self) -> list[MulticastTree]:
        """Primary tree first, then backup trees in breadth-first order."""
        out = [self.primary]
        q = deque([self.primary])
        while q:
            t = q.popleft()
            for edge in sorted(t.backup):
                b = t.backup[edge]
                out.append(b)
                q.append(b)
        return out


def protect_join(gs: GroupState, v: str) -> bool:
    """Subscribe v; returns False when the primary tree cannot reach it.

    Tree edges that end up without a viable backup are skipped quietly and
    recorded in gs.unprotected; delivery under failures hitting them is not
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
    full = _attach(gs, primary, v, frozenset())
    if full is None:
        return False
    gs.installer.ensure_base(primary.root)
    recorded = len(gs.unprotected)
    queue: deque[tuple[PathEdges, MulticastTree, frozenset[Link]]] = deque()
    if gs.config.max_failures > 0:
        queue.append((full, primary, frozenset()))
    try:
        while queue:
            path_edges, tree, down = queue.popleft()
            for x, y in path_edges:
                assumed = down | {Link(x, y)}
                b = tree.backup.get((x, y))
                if b is None:
                    # the tag is burned even when no backup path exists
                    b = MulticastTree(root=x, tag=gs.fresh_tag(), protects=(tree.tag, (x, y)))
                    tree.backup[(x, y)] = b
                bfull = _attach(gs, b, v, assumed)
                if bfull is None:
                    gs.unprotected.append((b.tag, (x, y), tuple(sorted(str(l) for l in assumed))))
                    continue
                if len(assumed) < gs.config.max_failures:
                    queue.append((bfull, b, assumed))
    except TagSpaceExhausted:
        # undo the partial join through the leave path; the tags it drew stay burned
        del gs.unprotected[recorded:]
        protect_leave(gs, v)
        raise
    return True


def _attach(gs: GroupState, tree: MulticastTree, v: str, avoid: frozenset[Link]) -> PathEdges | None:
    """Join v to one tree, routing around the links in avoid, and install the
    flows; full root-to-v edge list.

    A subscriber whose switch already forwards for the tree just gets the
    host delivery added (empty extension).
    """
    gs.join_calls += 1
    if v not in tree.nodes:
        got = join(gs.net, tree, v, gs.config.strategy, avoid)
        if got is None:
            return None
        apply_path(tree, got)
    tree.terminals.add(v)
    full = tree.path_to(v)
    gs.installer.compile_path(tree, full, terminal=v)
    return full


def protect_leave(gs: GroupState, v: str) -> None:
    """Unsubscribe v everywhere; a no-op for non-subscribers.

    The gs.unprotected entries of the backup trees it prunes go with them.
    """
    dropped: set[int] = set()
    _leave(gs, gs.primary, v, dropped)
    if dropped:
        gs.unprotected[:] = [entry for entry in gs.unprotected if entry[0] not in dropped]
    if not gs.primary.terminals:
        gs.installer.remove_base()


def _leave(gs: GroupState, tree: MulticastTree, v: str, dropped: set[int]) -> None:
    """Take v off tree and its backups; collects the tags of pruned backup trees."""
    if v == tree.root or v not in tree.terminals:
        return
    snapshot = tree.path_to(v)
    tree.terminals.discard(v)
    gs.installer.remove_terminal(tree, v)
    pruned: list[tuple[str, str]] = []
    cur = v
    # drop edges upward until someone else still needs the switch
    while cur != tree.root and not tree.children.get(cur) and cur not in tree.terminals:
        parent = tree.parent.pop(cur)
        tree.nodes.discard(cur)
        tree.children[parent].discard(cur)
        if not tree.children[parent]:
            del tree.children[parent]
        gs.installer.remove_edge(tree, (parent, cur))
        pruned.append((parent, cur))
        cur = parent
    # v also leaves every backup tree covering an edge it depended on,
    # nearest edge first so nested state unwinds before its parents
    for edge in reversed(snapshot):
        b = tree.backup.get(edge)
        if b is not None:
            _leave(gs, b, v, dropped)
    for edge in pruned:
        b = tree.backup.pop(edge, None)
        if b is not None:
            dropped.add(b.tag)
