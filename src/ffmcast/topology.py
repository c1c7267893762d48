"""Undirected network topologies and deterministic path computation.

Node ids are plain strings ordered lexicographically; that order is the
tie-break everywhere, so equal runs produce identical paths, trees and
dataplane state.
"""

from __future__ import annotations

import json
from collections import deque
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
    keyed by them (tree.backup, Flow.children, FlowInstaller._buckets).
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

    The one mutable part is _reach: shortest_path memoises there its reach,
    the hop distances from a source around an avoid set, per (source, avoid)
    pair. The graph never changes, so the memo is never invalidated; it
    grows with the distinct pairs searched, about 4 MB for a 12x12 grid
    group built at F=2.
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
        self._reach: dict[tuple[str, frozenset[Link]], list] = {}

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
        text = Path(source).read_text()
        try:
            source = json.loads(text)
        except json.JSONDecodeError as exc:
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
    doc = json.loads(resources.files("ffmcast.data").joinpath("geant.json").read_text())
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


def _banned(avoid: Iterable[tuple[str, str]]) -> dict[str, set[str]]:
    """Node -> neighbours it must not use, for links treated as down."""
    banned: dict[str, set[str]] = {}
    for a, b in avoid:
        banned.setdefault(a, set()).add(b)
        banned.setdefault(b, set()).add(a)
    return banned


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
    for node in (src, dst):
        if node not in net:
            raise TopologyError(f"unknown node {node!r}")
    if parent is None:
        parent = {}
    elif src in parent:
        raise ValueError(f"{src!r} has a parent: not a shortest-path tree of its root around avoid")
    if src == dst:
        return [src]
    avoid = frozenset(avoid)
    adj = net._adj
    reach = net._reach.get((src, avoid))
    if reach is None:
        net.mask(avoid)  # a hit's avoid was checked on its miss
        reach = net._reach[src, avoid] = [{src: 0}, [src]]
    banned = _banned(avoid)
    dist, frontier = reach
    while dst not in dist:
        if not frontier:
            return None
        hops = dist[frontier[0]] + 1
        reached = []
        for node in frontier:
            skip = banned.get(node, ())
            for nxt in adj[node]:
                if nxt not in dist and nxt not in skip:
                    dist[nxt] = hops
                    reached.append(nxt)
        reach[1] = frontier = reached
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
    banned: dict[str, set[str]],
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
    if src not in net:
        raise TopologyError(f"unknown node {src!r}")
    avoid = tuple(avoid)
    net.mask(avoid)
    adj = net._adj
    banned = _banned(avoid)
    dist = {src: 0}
    queue = deque([src])
    while queue:
        node = queue.popleft()
        skip = banned.get(node, ())
        for nxt in adj[node]:
            if nxt not in dist and nxt not in skip:
                dist[nxt] = dist[node] + 1
                queue.append(nxt)
    return dist


def nearest(net: Network, src: str, targets: Container[str], avoid: Iterable[Link] = frozenset()) -> str | None:
    """The node of targets nearest src without the links in avoid, ties to
    the smallest name, or None if no target is reachable.

    A breadth-first search from src that stops at the first layer holding a
    target; it picks what the smallest (bfs_distances(net, src, avoid)[w], w)
    over the reachable targets w picks. avoid is checked as there.
    """
    if src not in net:
        raise TopologyError(f"unknown node {src!r}")
    avoid = tuple(avoid)
    net.mask(avoid)
    if src in targets:
        return src
    adj = net._adj
    banned = _banned(avoid)
    seen = {src}
    layer = [src]
    while layer:
        found = []
        below = []
        for node in layer:
            skip = banned.get(node, ())
            for nxt in adj[node]:
                if nxt not in seen and nxt not in skip:
                    seen.add(nxt)
                    below.append(nxt)
                    if nxt in targets:
                        found.append(nxt)
        if found:
            return min(found)
        layer = below
    return None
