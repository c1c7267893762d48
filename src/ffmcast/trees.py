"""Multicast trees and the two join strategies used to grow them.

A tree is a rooted arborescence over switch ids. Joins are pure: they only
compute the edges to add, and apply_path grafts them afterwards. The spt
strategy re-runs a biased shortest-path search from the root so subscribers
always sit at minimum hop distance; the dst strategy grafts the subscriber
onto the nearest tree node.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

from .errors import InvalidPathError
# bfs_distances is unused here but stays importable: perfbench's tracer wraps it by name
from .topology import Link, Network, bfs_distances, nearest, shortest_path  # noqa: F401

# A path is an ordered list of directed (parent, child) edges.
PathEdges = list[tuple[str, str]]


@dataclass
class MulticastTree:
    """Rooted delivery tree.

    tag 0 marks the primary tree, whose packets travel untagged; backup trees
    carry VLAN tags 1..4094, drawn by GroupState.fresh_tag. The switch state
    is keyed by the same int, so a flow matches tree.tag and a bucket onto
    this tree stamps it. terminals are the switches whose host receives the
    stream from this tree; protects records which edge of which parent tree
    this tree is the backup for, and down the links it assumes failed: the
    parent's down plus that edge. Every join onto the tree routes around them,
    so an spt tree is a shortest-path tree of its root around down. The
    tree's nodes are the root and the keys of parent: `node in tree`; the
    switch state says which of them still forward or deliver.
    """

    root: str
    tag: int = 0
    parent: dict[str, str] = field(default_factory=dict)
    backup: dict[tuple[str, str], "MulticastTree"] = field(default_factory=dict)
    terminals: set[str] = field(default_factory=set)
    protects: tuple[int, tuple[str, str]] | None = None
    down: frozenset[Link] = frozenset()

    def __contains__(self, node: str) -> bool:
        return node == self.root or node in self.parent

    def path_to(self, node: str) -> PathEdges:
        """Directed edges from the root down to node."""
        if node == self.root:
            return []
        if node not in self.parent:
            raise InvalidPathError(f"{node!r} is not in the tree")
        chain = []
        cur = node
        while cur != self.root:
            pre = self.parent[cur]
            chain.append((pre, cur))
            cur = pre
        chain.reverse()
        return chain


def apply_path(tree: MulticastTree, path: PathEdges) -> None:
    """Graft a join's edges onto the tree.

    The path must chain head-to-tail from a node already in the tree, and
    each edge must enter a node not yet on it. Every edge is checked before
    the tree changes, so a rejected path leaves it as it was.
    """
    if not path:
        return
    if path[0][0] not in tree:
        raise InvalidPathError(f"path starts at {path[0][0]!r}, which is outside the tree")
    entered: set[str] = set()
    prev_head = path[0][0]
    for a, b in path:
        if a != prev_head:
            raise InvalidPathError(f"path breaks at ({a!r}, {b!r})")
        if b in tree or b in entered:
            raise InvalidPathError(f"path enters {b!r}, which is already on the tree")
        entered.add(b)
        prev_head = b
    for a, b in path:
        tree.parent[b] = a


def spt_join(net: Network, tree: MulticastTree, v: str) -> PathEdges | None:
    """Minimum-hop join biased to reuse tree links, around tree.down.

    Searches from the tree root with the tree's parent map, so paths rank by
    fewest hops, then most reused tree links, then the lexicographically
    smallest node sequence. That is the ranking of a cheapest-path search
    with exact integer costs E for a tree link and E + 1 for any other,
    where E is the tree's edge count: a path of h hops using k tree links
    costs h(E + 1) - k with 0 <= k <= E, so no reuse buys a hop. The tests
    check this search against that one. Every join grows the tree by such a
    path around the same down set, so the tree stays a shortest-path tree of
    its root around tree.down, as the search requires. Returns the edges
    after the path last leaves the tree ([] if v is in the tree), or None if
    v is unreachable.
    """
    nodes = shortest_path(net, tree.root, v, tree.parent, tree.down)
    if nodes is None:
        return None
    anchor = len(nodes) - 1
    while nodes[anchor] not in tree:
        anchor -= 1
    return [(nodes[i], nodes[i + 1]) for i in range(anchor, len(nodes) - 1)]


def dst_join(net: Network, tree: MulticastTree, v: str) -> PathEdges | None:
    """Graft v onto the nearest tree node, around tree.down.

    Picks the tree node w with minimum hop distance to v (ties go to the
    lexicographically smallest w) and returns the edges of the segment
    shortest_path(net, w, v, avoid=tree.down) gives, both read from nearest's
    one breadth-first search from v; no other tree node is on it, since w is
    nearest. Returns [] if v is in the tree, or None if v is unreachable.
    """
    segment = nearest(net, v, tree, tree.down)
    if segment is None:
        return None
    return [(segment[i], segment[i + 1]) for i in range(len(segment) - 1)]


def backup_steps(tree: MulticastTree, v: str) -> Iterator[MulticastTree]:
    """Yield v's protection hierarchy below tree, depth first: the backup of
    each edge on v's path in a tree that reaches v, then the backups below it.
    Backups exist only down to the failure budget, so the walk ends there.
    """
    if v not in tree.terminals:
        return
    for edge in tree.path_to(v):
        b = tree.backup.get(edge)
        if b is not None:
            yield b
            yield from backup_steps(b, v)


JOIN_STRATEGIES = {"spt": spt_join, "dst": dst_join}


def join(net: Network, tree: MulticastTree, v: str, strategy: str) -> PathEdges | None:
    """Dispatch to a named join strategy, routing around tree.down.

    Every strategy returns exactly the edges to add, from a tree node to v:
    [] when v is already in the tree, None only when v is unreachable.
    tree.down must hold links of the network (TopologyError otherwise),
    checked for members too.
    """
    try:
        fn = JOIN_STRATEGIES[strategy]
    except KeyError:
        raise ValueError(f"unknown join strategy {strategy!r}") from None
    if v in tree:
        net.mask(tree.down)
        return []
    return fn(net, tree, v)
