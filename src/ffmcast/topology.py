"""Undirected network topologies and deterministic path computation.

Node ids are plain strings ordered lexicographically; that order is the
tie-break everywhere, so equal runs produce identical paths, trees and
dataplane state.
"""

from __future__ import annotations

import json
from collections.abc import Container, Iterable, Mapping
from importlib import resources
from pathlib import Path
from typing import NamedTuple

from .errors import TopologyError

# Reserved peer name for the implicit host port on every switch.
HOST = "host"


class _Endpoints(NamedTuple):
    a: str
    b: str


class Link(_Endpoints):
    """Undirected link: the sorted endpoint pair, so Link(a, b) == Link(b, a).

    A Link is a 2-tuple, so hashing, equality and ordering (by (a, b)) run
    in C, and a Link compares equal to the plain tuple (a, b). Directed tree
    edges are plain (parent, child) tuples; never look a Link up in a mapping
    keyed by them (tree.backup, FlowInstaller._buckets).
    """

    __slots__ = ()

    def __new__(cls, a: str, b: str) -> Link:
        if a == b:
            raise TopologyError(f"self-loop on {a!r}")
        return tuple.__new__(cls, (a, b) if a < b else (b, a))

    def __str__(self) -> str:
        return f"{self.a}-{self.b}"


class Network:
    """Undirected graph with sorted adjacency; its nodes and links never change.

    HOST names every switch's host port, so no node may take that name.
    A set of links is an int mask: bit[link] is 1 << i for the link's
    position i in sorted(links), keyed under both orientations so a directed
    tree edge (a, b) finds its link directly; mask() encodes a set.

    The one mutable part is _reach: per (source, avoid) pair, shortest_path
    memoises there its reach, the hop distances from the source around avoid,
    and avoid's banned-neighbour map. Only spt joins call shortest_path, so it
    holds spt trees' reaches alone; the graph never changes, so it is never
    invalidated and grows with the pairs searched.
    """

    def __init__(self, nodes: Iterable[str], links: Iterable[Link | tuple[str, str]]):
        self.nodes: tuple[str, ...] = tuple(sorted(set(nodes)))
        self._node_set = frozenset(self.nodes)
        if HOST in self._node_set:
            raise TopologyError(f"node id {HOST!r} is reserved for host ports")
        normalized = set()
        for link in links:
            if not isinstance(link, Link):
                link = Link(*link)
            for end in (link.a, link.b):
                if end not in self._node_set:
                    raise TopologyError(f"link {link} references unknown node {end!r}")
            normalized.add(link)
        self.links: frozenset[Link] = frozenset(normalized)
        self.bit: dict[tuple[str, str], int] = {}
        for i, link in enumerate(sorted(normalized)):
            self.bit[link] = self.bit[link.b, link.a] = 1 << i
        adj: dict[str, list[str]] = {n: [] for n in self.nodes}
        for link in normalized:
            adj[link.a].append(link.b)
            adj[link.b].append(link.a)
        self._adj: dict[str, tuple[str, ...]] = {n: tuple(sorted(v)) for n, v in adj.items()}
        self._reach: dict[tuple[str, frozenset[Link]], _Reach] = {}

    def __contains__(self, node: str) -> bool:
        return node in self._node_set

    def mask(self, links: Iterable[tuple[str, str]]) -> int:
        """The bits of the given links, in either orientation; unknown links raise."""
        bit = self.bit
        mask = 0
        for link in links:
            b = bit.get(link)
            if b is None:
                name = "-".join(map(str, link)) if isinstance(link, tuple) else repr(link)
                raise TopologyError(f"link {name} is not in the network")
            mask |= b
        return mask

    def __repr__(self) -> str:
        return f"Network({len(self.nodes)} nodes, {len(self.links)} links)"


def load_topology(source: Mapping | str | Path) -> Network:
    """Build a Network from a topology document.

    The document is a mapping with two keys: "nodes", a list of node id
    strings, and "links", a list of [a, b] endpoint pairs. A string or Path
    argument is read as a JSON file. Duplicate links collapse to one;
    self-loops and unknown endpoints are errors.
    """
    if isinstance(source, (str, Path)):
        try:
            source = json.loads(Path(source).read_text(encoding="utf-8"))
        except ValueError as exc:  # bad JSON or bytes that are not UTF-8
            raise TopologyError(f"topology file is not valid JSON: {exc}") from exc
    if not isinstance(source, Mapping):
        raise TopologyError("topology document must be a mapping")
    extra = set(source) - {"nodes", "links"}
    if extra:
        raise TopologyError(f"unexpected topology keys: {sorted(extra)}")
    try:
        nodes = source["nodes"]
        links = source["links"]
    except KeyError as exc:
        raise TopologyError(f"topology document missing key {exc}") from exc
    if not isinstance(nodes, list) or not nodes:
        raise TopologyError("'nodes' must be a non-empty list")
    for n in nodes:
        if not isinstance(n, str) or not n:
            raise TopologyError(f"node id must be a non-empty string, got {n!r}")
    if len(set(nodes)) != len(nodes):
        raise TopologyError("duplicate node ids")
    if not isinstance(links, list):
        raise TopologyError("'links' must be a list")
    parsed = []
    for pair in links:
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
            raise TopologyError(f"link entry must be a pair, got {pair!r}")
        a, b = pair
        if not (isinstance(a, str) and isinstance(b, str)):
            raise TopologyError(f"link endpoints must be node id strings, got {pair!r}")
        parsed.append(Link(a, b))
    return Network(nodes, parsed)


def complete_graph(n: int) -> Network:
    """Complete graph on n synthetic switches named n0..n<n-1> (zero padded)."""
    if n < 2:
        raise TopologyError("complete graph needs at least 2 nodes")
    width = len(str(n - 1))
    names = [f"n{i:0{width}d}" for i in range(n)]
    links = [Link(names[i], names[j]) for i in range(n) for j in range(i + 1, n)]
    return Network(names, links)


def geant() -> Network:
    """Bundled approximation of a European research backbone (40 nodes)."""
    doc = json.loads(resources.files("ffmcast.data").joinpath("geant.json").read_text(encoding="utf-8"))
    return load_topology(doc)


def without_links(net: Network, removed: Iterable[Link]) -> Network:
    """Logical subgraph with the given links removed; net itself is unchanged.

    Path search takes an avoid set instead; this copy is the oracle the
    tests compare that against.
    """
    removed = set(removed)
    missing = removed - net.links
    if missing:
        raise TopologyError(f"links not in network: {sorted(map(str, missing))}")
    return Network(net.nodes, net.links - removed)


class _Reach:
    """A breadth-first search from src around avoid: dist holds each labelled
    node's hop distance from src, frontier the last layer labelled, banned
    each node's neighbours across a link in avoid. Making one checks src and
    avoid (TopologyError for a node or link not in net); step() labels the
    next layer."""

    __slots__ = ("adj", "dist", "frontier", "banned")

    def __init__(self, net: Network, src: str, avoid: Iterable[tuple[str, str]]):
        if src not in net:
            raise TopologyError(f"unknown node {src!r}")
        avoid = tuple(avoid)
        net.mask(avoid)
        banned: dict[str, tuple[str, ...]] = {}
        for a, b in avoid:
            banned[a] = banned.get(a, ()) + (b,)
            banned[b] = banned.get(b, ()) + (a,)
        self.adj = net._adj
        self.dist = {src: 0}
        self.frontier = [src]
        self.banned = banned

    def step(self) -> list[str]:
        """Label the next layer and return it: [] once every node src reaches has a label."""
        frontier = self.frontier
        if not frontier:
            return frontier
        dist, adj, banned = self.dist, self.adj, self.banned
        hops = dist[frontier[0]] + 1
        reached = []
        for node in frontier:
            skip = banned.get(node, ())
            for nxt in adj[node]:
                if nxt not in dist and nxt not in skip:
                    dist[nxt] = hops
                    reached.append(nxt)
        self.frontier = reached
        return reached


def shortest_path(
    net: Network,
    src: str,
    dst: str,
    parent: Mapping[str, str] | None = None,
    avoid: Iterable[Link] = frozenset(),
) -> list[str] | None:
    """Best src-to-dst path that uses no link in avoid, or None if unreachable.

    parent is the child -> parent map of a shortest-path tree rooted at src
    around avoid (spt passes its tree's): every tree node's entry is a
    neighbour one hop nearer src, over a link not in avoid. Paths rank by
    fewest hops, then most tree links, then the lexicographically smallest
    node sequence. That is the order a Dijkstra search with lexicographic
    tie-break gives under costs E for a tree link and E + 1 for any other,
    E = len(parent): a simple path of h hops and k <= E tree links costs
    h(E + 1) - k. The tests keep that search as this one's oracle.

    avoid holds links of the network, each in either orientation; anything
    else raises TopologyError. The network memoises the hop distances from
    src around avoid (its reach) and grows them one breadth-first layer at a
    time, only until dst has one, so every search from a tree's root around
    the same links shares them. avoid is checked when its reach is made.

    The search then walks back from dst over the shortest-path DAG, one
    layer of predecessors at a time, each predecessor taking as successor
    the first in name order of the nodes it leads to. It stops at the first
    layer that holds a tree node, dst's own layer included; src's layer
    always does. Tree links join consecutive layers, so no path has more
    tree links than that layer's depth, and a path that has as many takes a
    tree path to one of its nodes. The best path is the smallest of those
    tree paths, then the successors to dst. A tree path read on the way
    that does not reach src one layer per step over links not in avoid, or
    an entry for src itself, raises ValueError: parent is then not a
    shortest-path tree of src around avoid.
    """
    if dst not in net:
        raise TopologyError(f"unknown node {dst!r}")
    avoid = frozenset(avoid)
    reach = net._reach.get((src, avoid))
    if reach is None:  # a hit's src and avoid were checked on its miss
        reach = net._reach[src, avoid] = _Reach(net, src, avoid)
    if parent is None:
        parent = {}
    elif src in parent:
        raise ValueError(f"{src!r} has a parent: not a shortest-path tree of its root around avoid")
    if src == dst:
        return [src]
    adj, dist, banned = net._adj, reach.dist, reach.banned
    while dst not in dist:
        if not reach.step():
            return None
    succ: dict[str, str] = {}
    layer = [dst]
    left = dist[dst]
    keys = parent.keys() & layer
    while not keys and left:
        left -= 1
        below = []
        for node in layer:
            skip = banned.get(node, ())
            for pre in adj[node]:
                if dist.get(pre) == left and pre not in skip:
                    old = succ.get(pre)
                    if old is None:
                        succ[pre] = node
                        below.append(pre)
                    elif node < old:
                        succ[pre] = node
        layer = below
        keys = parent.keys() & layer
    path = _tree_path(net, keys, left, parent, dist, banned) if keys else [src]
    node = path[-1]
    while node != dst:
        node = succ[node]
        path.append(node)
    return path


def _tree_path(
    net: Network,
    keys: Iterable[str],
    left: int,
    parent: Mapping[str, str],
    dist: dict[str, int],
    banned: dict[str, tuple[str, ...]],
) -> list[str]:
    """The smallest tree path among keys at hop left, each step one hop
    nearer src over a link not avoided; ValueError for a key without one."""
    best = None
    for key in keys:
        chain = [key]
        node = key
        for hops in range(left - 1, -1, -1):
            up = parent.get(node)
            if up is None or dist.get(up) != hops or (node, up) not in net.bit or up in banned.get(node, ()):
                raise ValueError(
                    f"the tree path of {key!r} breaks at {node!r}: "
                    "not a shortest-path tree of its root around avoid"
                )
            chain.append(up)
            node = up
        chain.reverse()
        if best is None or chain < best:
            best = chain
    return best


def bfs_distances(net: Network, src: str, avoid: Iterable[Link] = frozenset()) -> dict[str, int]:
    """Hop distance from src to every node reachable without the links in avoid.

    avoid holds links of the network, each in either orientation; anything
    else raises TopologyError.
    """
    reach = _Reach(net, src, avoid)
    while reach.step():
        pass
    return reach.dist


def nearest(
    net: Network, src: str, targets: Container[str], avoid: Iterable[Link] = frozenset()
) -> list[str] | None:
    """Best path to src from the nearest node of targets without the links in
    avoid, ties to the smallest name, or None if no target is reachable.

    One breadth-first search from src stops at the first layer holding a
    target and takes its smallest, w: the smallest (bfs_distances(net, src,
    avoid)[w], w). The path steps from w to the smallest neighbour a layer
    nearer src over a link not in avoid, so it is shortest_path(net, w, src,
    avoid=avoid), and no other target is on it. avoid is checked as there.
    """
    reach = _Reach(net, src, avoid)
    layer = reach.frontier
    while layer:
        found = [node for node in layer if node in targets]
        if found:
            node = min(found)
            path = [node]
            adj, dist, banned = net._adj, reach.dist, reach.banned
            for hops in range(dist[node] - 1, -1, -1):
                skip = banned.get(node, ())
                node = next(y for y in adj[node] if dist.get(y) == hops and y not in skip)
                path.append(node)
            return path
        layer = reach.step()
    return None
