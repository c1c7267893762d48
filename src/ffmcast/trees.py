"""Multicast trees and the two join strategies used to grow them.

A tree is a rooted arborescence over switch ids. Joins are pure: they only
compute a path, and apply_path mutates the tree afterwards. The spt strategy
re-runs a biased shortest-path search from the root so subscribers always sit
at minimum hop distance; the dst strategy grafts the subscriber onto the
nearest tree node.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

from .errors import InvalidPathError, TopologyError
from .topology import Link, Network, bfs_distances, shortest_path

# A path is an ordered list of directed (parent, child) edges.
PathEdges = list[tuple[str, str]]


@dataclass
class MulticastTree:
    """Rooted delivery tree.

    tag 0 marks the untagged primary tree; backup trees carry VLAN tags
    1..4094. next_tag lives on the primary tree and only grows, so tags are
    never reused. terminals are the switches whose host receives the stream
    from this tree; protects records which edge of which parent tree this
    tree is the backup for.
    """

    root: str
    tag: int = 0
    next_tag: int = 1
    nodes: set[str] = field(default_factory=set)
    parent: dict[str, str] = field(default_factory=dict)
    children: dict[str, set[str]] = field(default_factory=dict)
    backup: dict[tuple[str, str], "MulticastTree"] = field(default_factory=dict)
    terminals: set[str] = field(default_factory=set)
    protects: tuple[int, tuple[str, str]] | None = None

    def __post_init__(self) -> None:
        self.nodes.add(self.root)

    def edge_count(self) -> int:
        return len(self.parent)

    def tree_links(self) -> set[Link]:
        return {Link(p, c) for c, p in self.parent.items()}

    def path_to(self, node: str) -> PathEdges:
        """Directed edges from the root down to node."""
        if node == self.root:
            return []
        if node not in self.nodes:
            raise InvalidPathError(f"{node!r} is not in the tree")
        chain = []
        cur = node
        while cur != self.root:
            pre = self.parent[cur]
            chain.append((pre, cur))
            cur = pre
        chain.reverse()
        return chain

    def out_degree(self, node: str) -> int:
        return len(self.children.get(node, ()))


def apply_path(tree: MulticastTree, path: PathEdges) -> None:
    """Add a join path to the tree; edges already present are no-ops.

    The path must chain head-to-tail and start at a node already in the
    tree. Giving a node a second parent is an error.
    """
    if not path:
        return
    if path[0][0] not in tree.nodes:
        raise InvalidPathError(f"path starts at {path[0][0]!r}, which is outside the tree")
    prev_head = None
    for a, b in path:
        if prev_head is not None and a != prev_head:
            raise InvalidPathError(f"path breaks at ({a!r}, {b!r})")
        prev_head = b
    for a, b in path:
        if b in tree.nodes:
            if tree.parent.get(b) != a:
                raise InvalidPathError(f"{b!r} already has a different parent")
            continue
        tree.nodes.add(b)
        tree.parent[b] = a
        tree.children.setdefault(a, set()).add(b)


def spt_join(
    net: Network, tree: MulticastTree, v: str, avoid: Iterable[Link] = frozenset()
) -> PathEdges | None:
    """Minimum-hop join biased to reuse tree links, skipping links in avoid.

    Runs a shortest-path search from the tree root with exact integer costs:
    E for a tree link and E + 1 for any other link, where E is the tree's
    edge count. A path of h hops using k tree links costs h(E + 1) - k with
    0 <= k <= E, so paths rank by fewest hops, then most reused tree links,
    then the lexicographically smallest node sequence. Returns only the
    suffix after the last node already in the tree, or None if v is already
    in the tree or unreachable.
    """
    if v not in net:
        raise TopologyError(f"unknown node {v!r}")
    if v in tree.nodes:
        return None
    tree_cost = tree.edge_count()
    parent = tree.parent

    def cost(a: str, b: str) -> int:
        if parent.get(b) == a or parent.get(a) == b:
            return tree_cost
        return tree_cost + 1

    nodes = shortest_path(net, tree.root, v, cost, avoid)
    if nodes is None:
        return None
    anchor = 0
    for i, node in enumerate(nodes):
        if node in tree.nodes:
            anchor = i
    return [(nodes[i], nodes[i + 1]) for i in range(anchor, len(nodes) - 1)]


def dst_join(
    net: Network, tree: MulticastTree, v: str, avoid: Iterable[Link] = frozenset()
) -> PathEdges | None:
    """Graft v onto the nearest tree node, skipping links in avoid.

    Picks the tree node w with minimum hop distance to v (ties go to the
    lexicographically smallest w) and returns the existing root-to-w tree
    path followed by a shortest w-to-v segment. Returns None if v is already
    in the tree or unreachable.
    """
    if v not in net:
        raise TopologyError(f"unknown node {v!r}")
    if v in tree.nodes:
        return None
    dist = bfs_distances(net, v, avoid)
    best: tuple[int, str] | None = None
    for w in tree.nodes:
        d = dist.get(w)
        if d is None:
            continue
        if best is None or (d, w) < best:
            best = (d, w)
    if best is None:
        return None
    w = best[1]
    segment = shortest_path(net, w, v, avoid=avoid)
    assert segment is not None
    pre = tree.path_to(w)
    return pre + [(segment[i], segment[i + 1]) for i in range(len(segment) - 1)]


def backup_steps(
    tree: MulticastTree, v: str
) -> Iterator[tuple[MulticastTree, tuple[str, str], frozenset[Link]]]:
    """Walk v's protection hierarchy below tree, depth first.

    For each edge on v's path in a tree that reaches v and has a backup,
    yields (backup tree, protected edge, assumed-down links), then descends
    into that backup if it reaches v too. Backups exist only down to the
    failure budget, so the walk ends there.
    """

    def walk(t: MulticastTree, down: frozenset[Link]):
        if v not in t.terminals:
            return
        for x, y in t.path_to(v):
            b = t.backup.get((x, y))
            if b is not None:
                assumed = down | {Link(x, y)}
                yield b, (x, y), assumed
                yield from walk(b, assumed)

    return walk(tree, frozenset())


JOIN_STRATEGIES = {"spt": spt_join, "dst": dst_join}


def join(
    net: Network, tree: MulticastTree, v: str, strategy: str, avoid: Iterable[Link] = frozenset()
) -> PathEdges | None:
    """Dispatch to a named join strategy; links in avoid are treated as down."""
    try:
        fn = JOIN_STRATEGIES[strategy]
    except KeyError:
        raise ValueError(f"unknown join strategy {strategy!r}") from None
    return fn(net, tree, v, avoid)
