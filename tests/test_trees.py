import random
from fractions import Fraction

import pytest

from ffmcast.errors import InvalidPathError
from ffmcast.topology import (
    Link,
    bfs_distances,
    complete_graph,
    load_topology,
    shortest_path,
    without_links,
)
from ffmcast.trees import MulticastTree, apply_path, dst_join, join, spt_join
from tests.test_topology import rand_connected


def square():
    return load_topology({
        "nodes": ["A", "B", "C", "D"],
        "links": [["A", "B"], ["B", "C"], ["C", "D"], ["A", "D"]],
    })


class TestApplyPath:
    def test_grows_tree(self):
        t = MulticastTree(root="A")
        apply_path(t, [("A", "B"), ("B", "C")])
        assert t.nodes == {"A", "B", "C"}
        assert t.parent == {"B": "A", "C": "B"}
        assert t.path_to("C") == [("A", "B"), ("B", "C")]

    def test_empty_is_noop(self):
        t = MulticastTree(root="A")
        apply_path(t, [])
        assert t.nodes == {"A"}

    def test_must_start_in_tree(self):
        t = MulticastTree(root="A")
        with pytest.raises(InvalidPathError):
            apply_path(t, [("B", "C")])

    def test_must_chain(self):
        t = MulticastTree(root="A")
        with pytest.raises(InvalidPathError):
            apply_path(t, [("A", "B"), ("C", "D")])

    def test_existing_edges_tolerated(self):
        t = MulticastTree(root="A")
        apply_path(t, [("A", "B")])
        apply_path(t, [("A", "B"), ("B", "C")])
        assert t.parent["C"] == "B"

    def test_second_parent_rejected(self):
        t = MulticastTree(root="A")
        apply_path(t, [("A", "B"), ("B", "C")])
        with pytest.raises(InvalidPathError):
            apply_path(t, [("A", "D"), ("D", "C")])

    def test_path_to_unknown_node(self):
        t = MulticastTree(root="A")
        with pytest.raises(InvalidPathError):
            t.path_to("Z")


class TestSptJoin:
    def test_square_reuses_tree_edge(self):
        net = square()
        t = MulticastTree(root="A")
        apply_path(t, [("A", "B")])
        # A-B-C and A-D-C both take 2 hops; only A-B-C reuses a tree link
        assert spt_join(net, t, "C") == [("B", "C")]

    def test_returns_suffix_only(self):
        net = square()
        t = MulticastTree(root="A")
        apply_path(t, [("A", "B"), ("B", "C")])
        # one fresh hop beats two discounted tree hops plus one
        assert spt_join(net, t, "D") == [("A", "D")]

    def test_fresh_tree_full_path(self):
        net = complete_graph(5)
        t = MulticastTree(root="n0")
        assert spt_join(net, t, "n3") == [("n0", "n3")]

    def test_already_in_tree(self):
        net = square()
        t = MulticastTree(root="A")
        apply_path(t, [("A", "B")])
        assert spt_join(net, t, "B") is None

    def test_unreachable(self):
        net = load_topology({"nodes": ["A", "B", "C"], "links": [["A", "B"]]})
        t = MulticastTree(root="A")
        assert spt_join(net, t, "C") is None

    def test_discount_never_buys_a_hop(self):
        # h hops with k <= E tree links cost h(E + 1) - k: reusing the whole
        # tree still costs more than any path one hop shorter
        for edges in (0, 1, 5, 100, 10_000):
            for hops in (1, 2, 7):
                assert hops * (edges + 1) - edges > (hops - 1) * (edges + 1)

    def test_matches_exact_rational_oracle(self):
        # reference: the rebuilt subgraph, tree links priced 1 - 1/(E + 1) exactly
        def reference(net, t, v):
            eps = Fraction(1, t.edge_count() + 1)
            links = t.tree_links()
            nodes = shortest_path(net, t.root, v, lambda a, b: 1 - eps if Link(a, b) in links else 1)
            if nodes is None:
                return None
            anchor = max(i for i, node in enumerate(nodes) if node in t.nodes)
            return list(zip(nodes[anchor:], nodes[anchor + 1:]))

        for seed in range(80):
            rng = random.Random(seed)
            net = rand_connected(rng, rng.randint(3, 18))
            avoid = set(rng.sample(sorted(net.links), rng.randint(0, 3)))
            sub = without_links(net, avoid)
            t = MulticastTree(root=rng.choice(net.nodes))
            order = [v for v in net.nodes if v != t.root]
            rng.shuffle(order)
            for v in order:
                got = spt_join(net, t, v, avoid)
                assert got == (None if v in t.nodes else reference(sub, t, v))
                if got:
                    apply_path(t, got)

    def test_never_longer_than_bfs(self):
        # the residual tie-break must not cost extra hops
        for seed in range(80):
            rng = random.Random(seed)
            net = rand_connected(rng, rng.randint(3, 18))
            src = rng.choice(net.nodes)
            t = MulticastTree(root=src)
            dist = bfs_distances(net, src)
            order = [v for v in net.nodes if v != src]
            rng.shuffle(order)
            for v in order[: rng.randint(1, len(order))]:
                got = spt_join(net, t, v)
                if got is None:
                    assert v in t.nodes  # absorbed earlier as a transit switch
                else:
                    apply_path(t, got)
                # transit prefixes of discounted-cost paths stay hop-minimal too
                assert len(t.path_to(v)) == dist[v]


class TestDstJoin:
    def test_attaches_to_nearest(self):
        net = load_topology({
            "nodes": ["A", "B", "C", "X"],
            "links": [["A", "B"], ["B", "C"], ["C", "X"], ["A", "X"]],
        })
        t = MulticastTree(root="A")
        apply_path(t, [("A", "B"), ("B", "C")])
        # X is one hop from both A and C; lexicographic pick is A
        assert dst_join(net, t, "X") == [("A", "X")]

    def test_full_path_through_tree(self):
        net = load_topology({
            "nodes": ["A", "B", "C", "D"],
            "links": [["A", "B"], ["B", "C"], ["C", "D"]],
        })
        t = MulticastTree(root="A")
        apply_path(t, [("A", "B"), ("B", "C")])
        assert dst_join(net, t, "D") == [("A", "B"), ("B", "C"), ("C", "D")]

    def test_none_when_present_or_unreachable(self):
        net = load_topology({"nodes": ["A", "B", "C"], "links": [["A", "B"]]})
        t = MulticastTree(root="A")
        assert dst_join(net, t, "A") is None
        assert dst_join(net, t, "C") is None


    def test_avoid_matches_subgraph(self):
        for seed in range(60):
            rng = random.Random(seed)
            net = rand_connected(rng, rng.randint(3, 16))
            avoid = set(rng.sample(sorted(net.links), rng.randint(0, 3)))
            sub = without_links(net, avoid)
            t = MulticastTree(root=rng.choice(net.nodes))
            order = [v for v in net.nodes if v != t.root]
            rng.shuffle(order)
            for v in order:
                got = join(net, t, v, "dst", avoid)
                assert got == dst_join(sub, t, v)
                if got:
                    apply_path(t, got)


class TestDispatch:
    def test_known_strategies(self):
        net = complete_graph(4)
        t = MulticastTree(root="n0")
        assert join(net, t, "n1", "spt") == [("n0", "n1")]
        assert join(net, t, "n1", "dst") == [("n0", "n1")]

    def test_unknown_strategy(self):
        net = complete_graph(4)
        with pytest.raises(ValueError):
            join(net, MulticastTree(root="n0"), "n1", "widest")


class TestTreeQueries:
    def test_tree_links_and_degree(self):
        t = MulticastTree(root="A")
        apply_path(t, [("A", "B"), ("B", "C")])
        apply_path(t, [("A", "D")])
        assert t.edge_count() == 3
        assert t.out_degree("A") == 2
        assert sorted(str(l) for l in t.tree_links()) == ["A-B", "A-D", "B-C"]
