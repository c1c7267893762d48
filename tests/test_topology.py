import json
import random

import pytest

from ffmcast.errors import TopologyError
from ffmcast.topology import (
    Link,
    bfs_distances,
    complete_graph,
    geant,
    load_topology,
    shortest_path,
    without_links,
)


def rand_connected(rng, n, extra=None):
    nodes = [f"v{i:02d}" for i in range(n)]
    links = [[nodes[i], nodes[rng.randrange(i)]] for i in range(1, n)]
    for _ in range(n if extra is None else extra):
        a, b = rng.sample(nodes, 2)
        links.append([a, b])
    return load_topology({"nodes": nodes, "links": links})


class TestLink:
    def test_endpoints_normalized(self):
        assert Link("B", "A") == Link("A", "B")
        assert Link("B", "A").a == "A"
        assert str(Link("y", "x")) == "x-y"

    def test_other_endpoint(self):
        l = Link("A", "B")
        assert l.other("A") == "B"
        assert l.other("B") == "A"
        with pytest.raises(ValueError):
            l.other("C")

    def test_self_loop_rejected(self):
        with pytest.raises(TopologyError):
            Link("A", "A")


class TestLoadTopology:
    def test_from_mapping(self):
        net = load_topology({"nodes": ["A", "B"], "links": [["A", "B"]]})
        assert net.nodes == ("A", "B")
        assert Link("A", "B") in net.links

    def test_from_file(self, tmp_path):
        p = tmp_path / "t.json"
        p.write_text(json.dumps({"nodes": ["A", "B"], "links": [["B", "A"]]}))
        net = load_topology(p)
        assert net.has_link("A", "B")

    def test_duplicate_links_collapse(self):
        net = load_topology({"nodes": ["A", "B"], "links": [["A", "B"], ["B", "A"]]})
        assert len(net.links) == 1

    def test_unknown_endpoint(self):
        with pytest.raises(TopologyError):
            load_topology({"nodes": ["A"], "links": [["A", "B"]]})

    def test_missing_keys(self):
        with pytest.raises(TopologyError):
            load_topology({"nodes": ["A"]})
        with pytest.raises(TopologyError):
            load_topology({"links": []})

    def test_extra_keys_rejected(self):
        with pytest.raises(TopologyError):
            load_topology({"nodes": ["A"], "links": [], "weights": []})

    def test_host_is_reserved(self):
        with pytest.raises(TopologyError):
            load_topology({"nodes": ["A", "host"], "links": []})

    def test_adjacency_sorted(self):
        net = load_topology({"nodes": ["A", "C", "B"], "links": [["A", "C"], ["A", "B"]]})
        assert net.neighbors("A") == ("B", "C")
        assert net.degree("A") == 2


class TestPresets:
    def test_complete_8_link_count(self):
        net = complete_graph(8)
        # every unordered pair, counted directly
        pairs = {(a, b) for i, a in enumerate(net.nodes) for b in net.nodes[i + 1 :]}
        assert len(net.links) == len(pairs) == 28
        assert net.nodes[0] == "n0" and net.nodes[-1] == "n7"

    def test_complete_30_ids_padded(self):
        net = complete_graph(30)
        assert net.nodes[0] == "n00" and net.nodes[-1] == "n29"
        assert len(net.links) == 435

    def test_complete_too_small(self):
        with pytest.raises(TopologyError):
            complete_graph(1)

    def test_geant_shape(self):
        net = geant()
        assert len(net.nodes) == 40
        assert len(net.links) == 65
        assert net.degree("AT") == 9
        assert set(net.neighbors("AT")) == {"CH", "CZ", "DE2", "GR", "HR", "HU", "IT", "SI", "SK"}

    def test_geant_survives_any_single_cut(self):
        net = geant()
        for link in sorted(net.links):
            dist = bfs_distances(without_links(net, {link}), net.nodes[0])
            assert len(dist) == len(net.nodes), f"cut {link} disconnects the topology"


class TestShortestPath:
    def test_direct(self):
        net = complete_graph(4)
        assert shortest_path(net, "n0", "n3") == ["n0", "n3"]

    def test_lexicographic_tie(self):
        net = load_topology({
            "nodes": ["A", "B", "C", "D"],
            "links": [["A", "B"], ["B", "D"], ["A", "C"], ["C", "D"]],
        })
        assert shortest_path(net, "A", "D") == ["A", "B", "D"]

    def test_unreachable(self):
        net = load_topology({"nodes": ["A", "B", "C"], "links": [["A", "B"]]})
        assert shortest_path(net, "A", "C") is None

    def test_trivial(self):
        net = complete_graph(3)
        assert shortest_path(net, "n1", "n1") == ["n1"]

    def test_cost_function_respected(self):
        net = load_topology({
            "nodes": ["A", "B", "C"],
            "links": [["A", "B"], ["B", "C"], ["A", "C"]],
        })
        # make the direct link expensive
        cost = lambda a, b: 5.0 if Link(a, b) == Link("A", "C") else 1.0
        assert shortest_path(net, "A", "C", cost) == ["A", "B", "C"]

    def test_nonpositive_cost_rejected(self):
        net = complete_graph(3)
        with pytest.raises(ValueError):
            shortest_path(net, "n0", "n1", lambda a, b: 0.0)

    def test_hops_match_bfs_oracle(self):
        for seed in range(60):
            rng = random.Random(seed)
            net = rand_connected(rng, rng.randint(3, 20))
            src = rng.choice(net.nodes)
            dist = bfs_distances(net, src)
            for dst in net.nodes:
                path = shortest_path(net, src, dst)
                assert path is not None
                assert len(path) - 1 == dist[dst]

    def test_path_is_walkable(self):
        rng = random.Random(7)
        net = rand_connected(rng, 15)
        path = shortest_path(net, net.nodes[0], net.nodes[-1])
        for a, b in zip(path, path[1:]):
            assert net.has_link(a, b)


class TestAvoid:
    """Searching around an avoid set matches searching the rebuilt subgraph."""

    def cases(self):
        for seed in range(60):
            rng = random.Random(seed)
            net = rand_connected(rng, rng.randint(3, 16))
            avoid = set(rng.sample(sorted(net.links), rng.randint(0, min(4, len(net.links)))))
            yield rng, net, avoid, without_links(net, avoid)

    def test_shortest_path_matches_subgraph(self):
        for rng, net, avoid, sub in self.cases():
            src = rng.choice(net.nodes)
            weight = {l: rng.randint(1, 3) for l in net.links}
            cost = lambda a, b: weight[Link(a, b)]
            for dst in net.nodes:
                assert shortest_path(net, src, dst, avoid=avoid) == shortest_path(sub, src, dst)
                assert shortest_path(net, src, dst, cost, avoid) == shortest_path(sub, src, dst, cost)

    def test_bfs_matches_subgraph(self):
        for rng, net, avoid, sub in self.cases():
            src = rng.choice(net.nodes)
            assert bfs_distances(net, src, avoid) == bfs_distances(sub, src)

    def test_avoided_link_unused(self):
        net = load_topology({"nodes": ["A", "B", "C"], "links": [["A", "B"], ["B", "C"], ["A", "C"]]})
        assert shortest_path(net, "A", "C", avoid={Link("C", "A")}) == ["A", "B", "C"]
        assert shortest_path(net, "A", "C", avoid={Link("A", "C"), Link("B", "C")}) is None
        assert bfs_distances(net, "A", {Link("A", "C")}) == {"A": 0, "B": 1, "C": 2}


class TestWithoutLinks:
    def test_removal(self):
        net = complete_graph(4)
        cut = Link("n0", "n1")
        sub = without_links(net, {cut})
        assert cut not in sub.links
        assert len(sub.links) == len(net.links) - 1

    def test_unknown_link_rejected(self):
        net = complete_graph(3)
        with pytest.raises(TopologyError):
            without_links(net, {Link("n0", "zz")})
