import copy
import heapq
import json
import pickle
import random
import re

import pytest

from ffmcast.errors import TopologyError
from ffmcast.topology import (
    Link,
    Network,
    bfs_distances,
    complete_graph,
    geant,
    load_topology,
    nearest,
    shortest_path,
    without_links,
)
from ffmcast.trees import MulticastTree, apply_path, join, spt_join
from tests.churn_digest import grid, rand_connected  # noqa: F401  (re-exported for the other test modules)


def neighbours(net, node):
    """node's neighbours in name order, read from net.links alone."""
    return sorted(link.b if link.a == node else link.a for link in net.links if node in link)


def reference_path(net, src, dst, cost=None, avoid=frozenset()):
    """Cheapest src-to-dst path by Dijkstra over whole path tuples.

    cost(a, b) prices a hop (default 1) with an exact number, int or
    Fraction; equal-cost paths tie-break to the lexicographically smallest
    node sequence. Slow and plain: the oracle for shortest_path.
    """
    heap = [(0, (src,))]
    done = set()
    while heap:
        dist, path = heapq.heappop(heap)
        node = path[-1]
        if node in done:
            continue
        done.add(node)
        if node == dst:
            return list(path)
        for nxt in neighbours(net, node):
            if nxt not in done and Link(node, nxt) not in avoid:
                step = 1 if cost is None else cost(node, nxt)
                heapq.heappush(heap, (dist + step, path + (nxt,)))
    return None


def tree_cost(tree):
    """spt's exact integer pricing: E = len(tree.parent) per tree link,
    E + 1 per other link."""
    parent, edges = tree.parent, len(tree.parent)
    return lambda a, b: edges if parent.get(b) == a or parent.get(a) == b else edges + 1


def grown(net, root, avoid, joins):
    """A tree from root grown by spt_join around avoid, joining nodes in order."""
    tree = MulticastTree(root=root, down=frozenset(avoid))
    for v in joins:
        got = spt_join(net, tree, v)
        if got:
            apply_path(tree, got)
    return tree


class TestLink:
    def test_endpoints_normalized(self):
        assert Link("B", "A") == Link("A", "B")
        assert Link("B", "A").a == "A"
        assert str(Link("y", "x")) == "x-y"

    def test_self_loop_rejected(self):
        with pytest.raises(TopologyError):
            Link("A", "A")

    def test_value_type_contract(self):
        l = Link("B", "A")
        assert l == Link("A", "B") and hash(l) == hash(Link("A", "B"))
        assert l == ("A", "B")  # the sorted endpoint pair
        assert (l.a, l.b) == ("A", "B")
        assert repr(l) == "Link(a='A', b='B')"
        for clone in (pickle.loads(pickle.dumps(l)), copy.copy(l), copy.deepcopy(l)):
            assert type(clone) is Link and clone == l
        assert str(l) == "A-B"
        rng = random.Random(5)
        nodes = [f"n{i}" for i in range(12)] + ["N", "n", "a10", "a9"]
        links = {Link(*rng.sample(nodes, 2)) for _ in range(60)}
        assert sorted(links) == sorted(links, key=lambda l: (l.a, l.b))


class TestLinkBits:
    def test_bits_follow_sorted_links_and_decode(self):
        rng = random.Random(11)
        for net in (geant(), complete_graph(6), rand_connected(rng, 9)):
            links = sorted(net.links)
            assert len(net.bit) == 2 * len(links)
            for i, link in enumerate(links):
                assert net.bit[link] == net.bit[link.b, link.a] == 1 << i
            # verify_tolerance decodes a mask low bit first, by index into sorted links
            picked = rng.sample(links, 3)
            rest, decoded = net.mask(picked), []
            while rest:
                low = rest & -rest
                decoded.append(links[low.bit_length() - 1])
                rest ^= low
            assert decoded == sorted(picked)

    def test_mask_rejects_links_outside_the_network(self):
        net = load_topology({"nodes": ["A", "B", "C"], "links": [["A", "B"], ["B", "C"]]})
        assert net.mask([("B", "A"), Link("C", "B")]) == 0b11
        with pytest.raises(TopologyError, match="A-C is not in the network"):
            net.mask([Link("A", "B"), ("A", "C")])


class TestLoadTopology:
    def test_from_mapping(self):
        net = load_topology({"nodes": ["A", "B"], "links": [["A", "B"]]})
        assert net.nodes == ("A", "B")
        assert Link("A", "B") in net.links

    def test_from_file(self, tmp_path):
        p = tmp_path / "t.json"
        p.write_text(json.dumps({"nodes": ["A", "B"], "links": [["B", "A"]]}))
        net = load_topology(p)
        assert Link("A", "B") in net.links

    def test_duplicate_links_collapse(self):
        net = load_topology({"nodes": ["A", "B"], "links": [["A", "B"], ["B", "A"]]})
        assert len(net.links) == 1

    def test_unknown_endpoint(self):
        with pytest.raises(TopologyError, match="link A-B references unknown node 'B'"):
            load_topology({"nodes": ["A"], "links": [["A", "B"]]})

    @pytest.mark.parametrize("pair", [["A", ["B"]], [["A"], "B"], ["A", {"B": 1}]])
    def test_non_string_endpoint(self, pair):
        with pytest.raises(TopologyError, match="node id strings"):
            load_topology({"nodes": ["A", "B"], "links": [pair]})

    @pytest.mark.parametrize("text, message", [
        ('{"nodes": ["A"],', "topology file is not valid JSON"),
        ('[["A", "B"]]', "topology document must be a mapping"),
        ('{"nodes": [], "links": []}', "'nodes' must be a non-empty list"),
        ('{"nodes": "AB", "links": []}', "'nodes' must be a non-empty list"),
        ('{"nodes": ["A", ""], "links": []}', "node id must be a non-empty string, got ''"),
        ('{"nodes": ["A", 7], "links": []}', "node id must be a non-empty string, got 7"),
        ('{"nodes": ["A", "B", "A"], "links": []}', "duplicate node ids"),
        ('{"nodes": ["A", "B"], "links": {"A": "B"}}', "'links' must be a list"),
        ('{"nodes": ["A", "B"], "links": [["A", "B", "A"]]}', "link entry must be a pair, got"),
        ('{"nodes": ["A", "B"], "links": ["AB"]}', "link entry must be a pair, got 'AB'"),
    ])
    def test_malformed_file(self, tmp_path, text, message):
        p = tmp_path / "t.json"
        p.write_text(text)
        with pytest.raises(TopologyError, match=re.escape(message)):
            load_topology(p)

    def test_file_that_is_not_utf8(self, tmp_path):
        p = tmp_path / "t.json"
        p.write_bytes(b'\xff{"nodes": ["A"], "links": []}')
        with pytest.raises(TopologyError, match="topology file is not valid JSON: 'utf-8' codec can't decode"):
            load_topology(p)

    def test_missing_keys(self):
        with pytest.raises(TopologyError):
            load_topology({"nodes": ["A"]})
        with pytest.raises(TopologyError):
            load_topology({"links": []})

    def test_extra_keys_rejected(self):
        with pytest.raises(TopologyError):
            load_topology({"nodes": ["A"], "links": [], "weights": []})

    def test_host_is_reserved(self):
        with pytest.raises(TopologyError, match="reserved for host ports"):
            load_topology({"nodes": ["A", "host"], "links": []})

    def test_network_reserves_host(self):
        # a switch named host would share its name with every host port: a
        # bucket aimed at it reads as a host delivery, and dump() prints
        # output:host for both
        with pytest.raises(TopologyError, match="reserved for host ports"):
            Network(["s", "host", "x"], [("s", "x"), ("s", "host"), ("host", "x")])


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
        assert set(neighbours(net, "AT")) == {"CH", "CZ", "DE2", "GR", "HR", "HU", "IT", "SI", "SK"}

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

    def test_prefer_ranks_between_hops_and_names(self):
        # parent maps of shortest-path trees rooted at A
        net = load_topology({
            "nodes": ["A", "B", "C", "D"],
            "links": [["A", "B"], ["B", "D"], ["A", "C"], ["C", "D"]],
        })
        # equal hops: the tree link beats the lexicographic order
        assert shortest_path(net, "A", "D", {"C": "A"}) == ["A", "C", "D"]
        # a dst on the tree gets its tree path back: two tree links beat one
        assert shortest_path(net, "A", "D", {"B": "A", "C": "A", "D": "C"}) == ["A", "C", "D"]
        # equal tree links fall back to names
        assert shortest_path(net, "A", "D", {"B": "A", "C": "A"}) == ["A", "B", "D"]
        # a tree link never buys an extra hop
        tri = load_topology({"nodes": ["A", "B", "C"], "links": [["A", "B"], ["B", "C"], ["A", "C"]]})
        assert shortest_path(tri, "A", "C", {"B": "A"}) == ["A", "C"]

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
            assert Link(a, b) in net.links

    def test_matches_dijkstra_oracle(self):
        # unit costs without parent, spt's E / E + 1 costs with the parent map
        # of a tree grown by spt_join from src around the same avoided links
        nets = [("geant", geant()), ("grid5", grid(5)), ("grid12", grid(12))]
        rng = random.Random(11)
        for i in range(40):
            n = rng.randint(3, 25)
            nets.append((f"rand{i}", rand_connected(rng, n, rng.randint(0, n))))
        unreachable = 0
        for name, net in nets:
            rounds = 1 if name == "grid12" else 3
            for _ in range(rounds):
                avoid = set(rng.sample(sorted(net.links), rng.randint(0, 3)))
                tree = MulticastTree(root=rng.choice(net.nodes), down=frozenset(avoid))
                order = list(net.nodes)
                rng.shuffle(order)
                for v in [None] + order[: rng.randint(1, 8)]:
                    if v is not None:
                        got = spt_join(net, tree, v)
                        if got:
                            apply_path(tree, got)
                    cost = tree_cost(tree)
                    for src in (tree.root, rng.choice(net.nodes)):
                        for dst in net.nodes:
                            want = reference_path(net, src, dst, avoid=avoid)
                            assert shortest_path(net, src, dst, avoid=avoid) == want, (name, src, dst)
                            unreachable += want is None
                        if src != tree.root:
                            continue
                        for dst in net.nodes:
                            want = reference_path(net, src, dst, cost, avoid)
                            got = shortest_path(net, src, dst, tree.parent, avoid)
                            assert got == want, (name, src, dst, tree.parent)
        assert unreachable > 0


class TestNotATree:
    """A parent map the search reads that is not a shortest-path tree of src
    around avoid raises ValueError; no map is answered silently."""

    SQUARE = [("A", "B"), ("B", "C"), ("C", "D"), ("A", "D")]
    CASES = {
        "src has an entry": (SQUARE, "A", "C", {"A": "D"}, ()),
        "dst has an entry": (SQUARE, "A", "C", {"C": "D"}, ()),
        "a key points one layer up": (
            [("S", "A"), ("S", "B"), ("A", "C"), ("B", "C")], "S", "C", {"B": "S", "A": "C"}, (),
        ),
        "the only chain crosses an avoided link": (
            [("S", "P"), ("S", "Q"), ("P", "K"), ("Q", "K"), ("K", "D")], "S", "D",
            {"K": "P", "P": "S"}, [("P", "K")],
        ),
        "the only chain steps to a non-neighbour": (
            [("S", "P"), ("S", "R"), ("P", "K"), ("K", "D")], "S", "D", {"K": "R", "R": "S"}, (),
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_rejected(self, case):
        links, src, dst, parent, avoid = self.CASES[case]
        net = load_topology({"nodes": sorted({n for link in links for n in link}), "links": links})
        with pytest.raises(ValueError, match="not a shortest-path tree of its root around avoid"):
            shortest_path(net, src, dst, parent, {Link(*link) for link in avoid})


class TestReachMemo:
    """Searches that share one network's memoised reach give what a search
    on a fresh copy of the network gives, whatever order they come in."""

    def test_interleaved_searches_match_fresh_network_and_oracle(self):
        rng = random.Random(23)
        nets = [geant(), grid(12)]
        nets += [rand_connected(rng, rng.randint(4, 20), rng.randint(0, 8)) for _ in range(12)]
        checked = unreachable = 0
        for net in nets:
            links = sorted(net.links)
            root = rng.choice(net.nodes)
            joins = rng.sample(net.nodes, min(8, len(net.nodes)))
            cut = rng.choice(net.nodes)
            avoids = [
                frozenset(),
                frozenset(rng.sample(links, rng.randint(1, min(3, len(links))))),
                frozenset(l for l in links if cut in l),  # cut is unreachable
            ]
            # one tree from root per avoid set, grown around it on a copy so
            # the searches below start from an empty memo
            trees = {avoid: grown(Network(net.nodes, net.links), root, avoid, joins) for avoid in avoids}
            queues = []
            for src in {root, rng.choice(net.nodes), rng.choice(net.nodes)}:
                for avoid in avoids:
                    dist = bfs_distances(net, src, avoid)
                    near = sorted(rng.sample(sorted(dist), min(10, len(dist))), key=lambda v: (dist[v], v))
                    lost = [v for v in net.nodes if v not in dist][:2]
                    for tree in (None, trees[avoid]) if src == root else (None,):
                        # near-then-far, or far-then-near; the unreachable
                        # nodes once the reach is exhausted, then near again
                        order = near if rng.random() < 0.5 else near[::-1]
                        dsts = order + lost + lost + near[:2]
                        queues.append([(src, dst, tree, avoid) for dst in dsts])
            while queues:
                queue = rng.choice(queues)
                src, dst, tree, avoid = queue.pop(0)
                if not queue:
                    queues.remove(queue)
                if rng.random() < 0.5:
                    avoid = set(avoid)  # the memo keys by value
                parent = None if tree is None else tree.parent
                got = shortest_path(net, src, dst, parent, avoid)
                assert got == shortest_path(Network(net.nodes, net.links), src, dst, parent, avoid)
                cost = None if tree is None else tree_cost(tree)
                assert got == reference_path(net, src, dst, cost, avoid), (src, dst, parent, avoid)
                checked += 1
                unreachable += got is None
        assert unreachable > 0 and checked > 1000


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
            parent = grown(net, src, avoid, rng.sample(net.nodes, rng.randint(1, len(net.nodes)))).parent
            for dst in net.nodes:
                assert shortest_path(net, src, dst, avoid=avoid) == shortest_path(sub, src, dst)
                assert shortest_path(net, src, dst, parent, avoid) == shortest_path(sub, src, dst, parent)

    def test_bfs_matches_subgraph(self):
        for rng, net, avoid, sub in self.cases():
            src = rng.choice(net.nodes)
            assert bfs_distances(net, src, avoid) == bfs_distances(sub, src)

    def test_nearest_matches_bfs_distances(self):
        # oracle: two searches, the smallest (hops, name) w over the targets
        # a full search labels, then shortest_path from w around avoid
        cases = list(self.cases())
        for seed in range(20):
            rng = random.Random(seed)
            net = geant()
            cases.append((rng, net, set(rng.sample(sorted(net.links), rng.randint(0, 8))), None))
        paths = unreachable = 0
        for rng, net, avoid, _ in cases:
            src = rng.choice(net.nodes)
            dist = bfs_distances(net, src, avoid)
            for i in range(6):
                targets = set(rng.sample(net.nodes, rng.randint(0, len(net.nodes) if i % 2 else 3)))
                w = min(((dist[w], w) for w in targets if w in dist), default=(None, None))[1]
                want = None if w is None else shortest_path(net, w, src, avoid=avoid)
                assert nearest(net, src, targets, avoid) == want, (src, targets, avoid)
                paths += want is not None and len(want) > 2
                unreachable += want is None
        assert paths > 50 and unreachable > 50

    def test_links_in_either_orientation(self):
        net = geant()
        for avoid in ({("AT", "HU")}, {("HU", "AT")}, [("SI", "AT"), ("HU", "AT")]):
            links = {Link(*link) for link in avoid}
            assert shortest_path(net, "AT", "UK", avoid=avoid) == shortest_path(net, "AT", "UK", avoid=links)
            assert bfs_distances(net, "AT", avoid) == bfs_distances(net, "AT", links)
        assert shortest_path(net, "AT", "HU", avoid={("HU", "AT")}) != ["AT", "HU"]
        assert bfs_distances(net, "AT", {("HU", "AT")})["HU"] == 2

    @pytest.mark.parametrize("bad, name", [
        (("AT", "UK"), "AT-UK"),  # two nodes, no link
        (("AT", "XX"), "AT-XX"),
        (("AT", "HU", "SK"), "AT-HU-SK"),
        ("AT-HU", "'AT-HU'"),
    ])
    def test_anything_else_is_rejected(self, bad, name):
        net = geant()
        message = f"link {name} is not in the network"
        with pytest.raises(TopologyError, match=message):
            shortest_path(net, "AT", "UK", avoid={Link("AT", "HU"), bad})
        assert net._reach == {}  # a rejected avoid leaves no reach behind
        with pytest.raises(TopologyError, match=message):
            bfs_distances(net, "AT", [Link("AT", "HU"), bad])
        with pytest.raises(TopologyError, match=message):
            nearest(net, "AT", {"AT"}, [Link("AT", "HU"), bad])
        for strategy in ("spt", "dst"):
            for v in ("AT", "UK"):  # a member and a non-member
                tree = MulticastTree(root="AT", down=frozenset({Link("AT", "HU"), bad}))
                with pytest.raises(TopologyError, match=message):
                    join(net, tree, v, strategy)

    @pytest.mark.parametrize("search", [
        lambda net: shortest_path(net, "XX", "UK"),
        lambda net: shortest_path(net, "AT", "XX"),
        lambda net: bfs_distances(net, "XX"),
        lambda net: nearest(net, "XX", {"AT"}),
    ], ids=["shortest_path-src", "shortest_path-dst", "bfs_distances", "nearest"])
    def test_unknown_node_rejected(self, search):
        with pytest.raises(TopologyError, match="unknown node 'XX'"):
            search(geant())

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
