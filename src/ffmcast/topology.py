"""Undirected network topologies and deterministic path computation.

Node ids are plain strings ordered lexicographically; that order is the
tie-break everywhere, so equal runs produce identical paths, trees and
dataplane state.
"""

from __future__ import annotations

import heapq
import json
from collections import deque
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .errors import TopologyError

# Reserved peer name for the implicit host port on every switch.
HOST = "host"

CostFn = Callable[[str, str], float]


@dataclass(frozen=True, order=True)
class Link:
    """Undirected link; endpoints are stored sorted so Link(a, b) == Link(b, a)."""

    a: str
    b: str

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise TopologyError(f"self-loop on {self.a!r}")
        if self.a > self.b:
            a, b = self.a, self.b
            object.__setattr__(self, "a", b)
            object.__setattr__(self, "b", a)

    def other(self, node: str) -> str:
        if node == self.a:
            return self.b
        if node == self.b:
            return self.a
        raise TopologyError(f"{node!r} is not an endpoint of {self}")

    def __str__(self) -> str:
        return f"{self.a}-{self.b}"


class Network:
    """Immutable undirected graph with sorted adjacency."""

    def __init__(self, nodes: Iterable[str], links: Iterable[Link | tuple[str, str]]):
        self.nodes: tuple[str, ...] = tuple(sorted(set(nodes)))
        self._node_set = frozenset(self.nodes)
        normalized = set()
        for link in links:
            if not isinstance(link, Link):
                link = Link(*link)
            for end in (link.a, link.b):
                if end not in self._node_set:
                    raise TopologyError(f"link {link} references unknown node {end!r}")
            normalized.add(link)
        self.links: frozenset[Link] = frozenset(normalized)
        adj: dict[str, list[str]] = {n: [] for n in self.nodes}
        for link in normalized:
            adj[link.a].append(link.b)
            adj[link.b].append(link.a)
        self._adj: dict[str, tuple[str, ...]] = {n: tuple(sorted(v)) for n, v in adj.items()}

    def __contains__(self, node: str) -> bool:
        return node in self._node_set

    def neighbors(self, node: str) -> tuple[str, ...]:
        try:
            return self._adj[node]
        except KeyError:
            raise TopologyError(f"unknown node {node!r}") from None

    def degree(self, node: str) -> int:
        return len(self.neighbors(node))

    def has_link(self, a: str, b: str) -> bool:
        return Link(a, b) in self.links

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
        if n == HOST:
            raise TopologyError(f"node id {HOST!r} is reserved for host ports")
    if len(set(nodes)) != len(nodes):
        raise TopologyError("duplicate node ids")
    if not isinstance(links, list):
        raise TopologyError("'links' must be a list")
    parsed = []
    node_set = set(nodes)
    for pair in links:
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
            raise TopologyError(f"link entry must be a pair, got {pair!r}")
        a, b = pair
        if a not in node_set or b not in node_set:
            raise TopologyError(f"link [{a!r}, {b!r}] references an unknown node")
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


def _banned(avoid: Iterable[Link]) -> dict[str, set[str]]:
    """Node -> neighbours it must not use, for links treated as down."""
    banned: dict[str, set[str]] = {}
    for link in avoid:
        banned.setdefault(link.a, set()).add(link.b)
        banned.setdefault(link.b, set()).add(link.a)
    return banned


def shortest_path(
    net: Network,
    src: str,
    dst: str,
    cost: CostFn | None = None,
    avoid: Iterable[Link] = frozenset(),
) -> list[str] | None:
    """Cheapest src-to-dst path that uses no link in avoid, or None if unreachable.

    cost(a, b) prices the hop from a to b (default 1) and must be positive.
    Among equal-cost paths the lexicographically smallest node sequence wins,
    which makes the result independent of iteration order; use exact (for
    example integer) costs so that equal really means equal.
    """
    for node in (src, dst):
        if node not in net:
            raise TopologyError(f"unknown node {node!r}")
    if src == dst:
        return [src]
    adj = net._adj
    banned = _banned(avoid)
    heap: list[tuple[float, tuple[str, ...]]] = [(0, (src,))]
    done: set[str] = set()
    while heap:
        dist, path = heapq.heappop(heap)
        node = path[-1]
        if node in done:
            continue
        done.add(node)
        if node == dst:
            return list(path)
        skip = banned.get(node, ())
        for nxt in adj[node]:
            if nxt in done or nxt in skip:
                continue
            step = 1 if cost is None else cost(node, nxt)
            if step <= 0:
                raise ValueError(f"non-positive cost on {node}-{nxt}")
            heapq.heappush(heap, (dist + step, path + (nxt,)))
    return None


def bfs_distances(net: Network, src: str, avoid: Iterable[Link] = frozenset()) -> dict[str, int]:
    """Hop distance from src to every node reachable without the links in avoid."""
    if src not in net:
        raise TopologyError(f"unknown node {src!r}")
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
