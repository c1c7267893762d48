import random
from fractions import Fraction

import pytest

from ffmcast import protection, trees
from ffmcast.errors import InvalidPathError
from ffmcast.protection import GroupState, ProtectionConfig, protect_join
from ffmcast.topology import (
    Link,
    bfs_distances,
    complete_graph,
    geant,
    load_topology,
    without_links,
)
from ffmcast.trees import MulticastTree, apply_path, dst_join, join, spt_join
from tests import churn_digest
from tests.test_topology import grid, rand_connected, reference_path


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

    def test_existing_edges_rejected(self):
        # a join returns only the edges it adds, so an edge already on the
        # tree means the path was not a join's
        t = MulticastTree(root="A")
        apply_path(t, [("A", "B")])
        with pytest.raises(InvalidPathError, match="path enters 'B', which is already on the tree"):
            apply_path(t, [("A", "B"), ("B", "C")])
        assert t.parent == {"B": "A"}

    def test_second_parent_rejected(self):
        t = MulticastTree(root="A")
        apply_path(t, [("A", "B"), ("B", "C")])
        with pytest.raises(InvalidPathError):
            apply_path(t, [("A", "D"), ("D", "C")])

    @pytest.mark.parametrize("path", [
        [("A", "B"), ("B", "C")],  # C already hangs off D
        [("A", "B"), ("B", "E"), ("E", "B")],  # comes back to a node it added
        [("A", "B"), ("B", "E"), ("E", "F"), ("F", "B")],
        [("A", "B"), ("B", "A")],  # into the root
        [("A", "B"), ("C", "E")],  # breaks after an edge it would add
        [("A", "D"), ("D", "E")],  # re-walks an existing edge
        [("C", "E"), ("E", "D")],  # enters a node already on the tree
    ])
    def test_rejected_path_leaves_the_tree_alone(self, path):
        t = MulticastTree(root="A")
        apply_path(t, [("A", "D"), ("D", "C")])
        nodes, parent = set(t.nodes), dict(t.parent)
        with pytest.raises(InvalidPathError):
            apply_path(t, path)
        assert t.nodes == nodes
        assert t.parent == parent
        assert t.fanout == {"A": 1, "D": 1}

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
        assert spt_join(net, t, "B") == []
        assert spt_join(net, t, "A") == []

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
            eps = Fraction(1, len(t.parent) + 1)
            links = {Link(p, c) for c, p in t.parent.items()}
            nodes = reference_path(net, t.root, v, lambda a, b: 1 - eps if Link(a, b) in links else 1)
            if nodes is None:
                return None
            anchor = max(i for i, node in enumerate(nodes) if node in t.nodes)
            return list(zip(nodes[anchor:], nodes[anchor + 1:]))

        for seed in range(80):
            rng = random.Random(seed)
            net = rand_connected(rng, rng.randint(3, 18))
            avoid = set(rng.sample(sorted(net.links), rng.randint(0, 3)))
            sub = without_links(net, avoid)
            t = MulticastTree(root=rng.choice(net.nodes), down=frozenset(avoid))
            order = [v for v in net.nodes if v != t.root]
            rng.shuffle(order)
            for v in order:
                got = spt_join(net, t, v)
                assert got == ([] if v in t.nodes else reference(sub, t, v))
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
                # [] when v was absorbed earlier as a transit switch
                apply_path(t, spt_join(net, t, v))
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
        # the graft through the tree: only the segment past C is new
        assert dst_join(net, t, "D") == [("C", "D")]

    def test_empty_when_present_none_when_unreachable(self):
        net = load_topology({"nodes": ["A", "B", "C"], "links": [["A", "B"]]})
        t = MulticastTree(root="A")
        assert dst_join(net, t, "A") == []
        assert dst_join(net, t, "C") is None

    def test_avoid_matches_subgraph(self):
        for seed in range(60):
            rng = random.Random(seed)
            net = rand_connected(rng, rng.randint(3, 16))
            avoid = set(rng.sample(sorted(net.links), rng.randint(0, 3)))
            sub = without_links(net, avoid)
            # the same tree twice: around avoid, and on the subgraph without it
            t = MulticastTree(root=rng.choice(net.nodes), down=frozenset(avoid))
            u = MulticastTree(root=t.root)
            order = [v for v in net.nodes if v != t.root]
            rng.shuffle(order)
            for v in order:
                got = join(net, t, v, "dst")
                assert got == dst_join(sub, u, v)
                if got:
                    apply_path(t, got)
                    apply_path(u, got)


class TestJoinContract:
    """Every join returns exactly the edges it adds: a chain from a tree node
    into nodes not yet on the tree, [] when v is on the tree, and None only
    when v is unreachable."""

    @staticmethod
    def check(net, tree, v, got, kinds):
        if got is None:
            assert v not in tree.nodes
            assert bfs_distances(net, tree.root, tree.down).get(v) is None
        elif not got:
            assert v in tree.nodes
        else:
            assert v not in tree.nodes
            assert got[0][0] in tree.nodes
            heads = [b for _, b in got]
            assert heads[-1] == v and len(set(heads)) == len(heads)
            assert not tree.nodes & set(heads)
        kinds.add("unreachable" if got is None else "graft" if got else "member")

    @staticmethod
    def graphs():
        yield "geant", geant(), "AT"
        for seed in range(12):
            rng = random.Random(seed)
            net = rand_connected(rng, rng.randint(4, 14), rng.randint(0, 5))
            yield f"rand{seed}", net, rng.choice(net.nodes)

    @pytest.mark.parametrize("strategy", ["spt", "dst"])
    def test_avoid_is_the_trees_down_set(self, strategy, monkeypatch):
        # every join a group build makes, around its tree's down set,
        # checked before the tree takes it
        kinds = set()
        real = protection.join

        def spy(net, tree, v, strategy):
            got = real(net, tree, v, strategy)
            self.check(net, tree, v, got, kinds)
            return got

        monkeypatch.setattr(protection, "join", spy)
        for name, net, source in self.graphs():
            gs = GroupState(net, source, ProtectionConfig(strategy, 2))
            order = [v for v in net.nodes if v != source]
            random.Random(name).shuffle(order)
            for v in order:
                protect_join(gs, v)
        assert kinds == {"unreachable", "member", "graft"}

    @pytest.mark.parametrize("strategy", ["spt", "dst"])
    def test_arbitrary_avoid(self, strategy):
        # trees that assume any links down, not only those a build draws
        kinds = set()
        for name, net, source in self.graphs():
            rng = random.Random(name)
            links = sorted(net.links)
            for _ in range(3):
                down = frozenset(rng.sample(links, rng.randint(0, min(3, len(links)))))
                t = MulticastTree(root=source, down=down)
                for v in rng.sample(net.nodes, len(net.nodes)):
                    got = join(net, t, v, strategy)
                    self.check(net, t, v, got, kinds)
                    if got:
                        apply_path(t, got)
        assert kinds == {"unreachable", "member", "graft"}


class TestSearchCount:
    """A join makes one path search, looked up as ffmcast.trees.shortest_path.

    The benchmark tracer counts searches by wrapping that name, so a join
    that searched through a private helper would read as zero searches.
    """

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []
        for name in ("shortest_path", "bfs_distances", "nearest"):
            real = getattr(trees, name)
            counted = lambda *a, name=name, real=real, **kw: seen.append(name) or real(*a, **kw)
            monkeypatch.setattr(trees, name, counted)
        return seen

    def test_spt_searches_once(self, calls):
        t = MulticastTree(root="A")
        apply_path(t, [("A", "B")])
        assert join(square(), t, "C", "spt") == [("B", "C")]
        assert calls == ["shortest_path"]
        calls.clear()
        cut = MulticastTree(root="A", down=frozenset({Link("B", "C"), Link("C", "D")}))
        apply_path(cut, [("A", "B")])
        assert join(square(), cut, "C", "spt") is None
        assert calls == ["shortest_path"]

    def test_dst_searches_once_after_bfs(self, calls):
        # the breadth-first search from v stops at the nearest tree node's
        # layer; no search labels the whole network
        t = MulticastTree(root="A")
        apply_path(t, [("A", "B")])
        assert join(square(), t, "C", "dst") == [("B", "C")]
        assert calls == ["nearest", "shortest_path"]

    @pytest.mark.parametrize("strategy", ["spt", "dst"])
    def test_member_join_searches_nothing(self, calls, strategy):
        t = MulticastTree(root="A")
        apply_path(t, [("A", "B")])
        assert join(square(), t, "B", strategy) == []
        assert join(square(), t, "A", strategy) == []
        assert calls == []


class TestReachMemo:
    def test_memo_keys_are_the_searched_root_avoid_pairs(self, monkeypatch):
        # a key that took in the parent map or the tree would hold more entries
        net = grid(12)
        gs = GroupState(net, "g0000", ProtectionConfig("spt", 2))
        searched = []
        real = trees.shortest_path

        def spy(net, src, dst, parent=None, avoid=frozenset()):
            searched.append((src, frozenset(avoid)))
            return real(net, src, dst, parent, avoid)

        monkeypatch.setattr(trees, "shortest_path", spy)
        order = [v for v in net.nodes if v != gs.source]
        random.Random(7).shuffle(order)
        for v in order[:20]:
            assert protect_join(gs, v)
        assert set(net._reach) == set(searched)
        assert len(net._reach) < len(searched)


class TestSearchShortcut:
    """Group builds never need the whole shortest-path DAG ranked: an spt
    tree is a shortest-path tree of its root around its down set, so each
    search stops at the first layer holding a tree node, and a tree that
    broke this would raise ValueError there. dst searches pass no tree."""

    @pytest.mark.parametrize("topo, strategy", [("grid", "spt"), ("geant", "spt"), ("geant", "dst")])
    def test_builds_stop_at_the_first_tree_layer(self, topo, strategy):
        net, source = (grid(12), "g0000") if topo == "grid" else (geant(), "AT")
        gs = GroupState(net, source, ProtectionConfig(strategy, 2))
        order = [v for v in net.nodes if v != source]
        random.Random(7).shuffle(order)
        for v in order:
            assert protect_join(gs, v)


class TestChurnDigest:
    """Seeded join/leave churn on geant, a grid and random graphs, under spt
    and dst at F=0..3, hashes to the pinned digest: a change that alters
    any operation's result, switch state, unprotected entries, join count
    or tag count changes it. An spt tree that broke the shortest-path
    invariant would raise ValueError in its search. The verify stream,
    pinned apart, covers the walks over the same churn."""

    def test_matches_the_pin(self):
        digest = "5134e9af1be9565f6473269d3e3f57974414391108e13c4e4321ae5ff96e6b8c"
        assert churn_digest.run() == (digest, 9480)

    def test_verify_stream_matches_the_pin(self):
        # every 10th operation at F <= 2: the sweep's report, every row it
        # hands on_case with that set's read mask, and one seeded direct walk
        digest = "d3588ab5a1fbb75315ab06384d1e6f32cff224d790eea4959d8ac85faf89c531"
        assert churn_digest.run_verify() == (digest, 720)


class TestSearchAvoid:
    @pytest.mark.parametrize("strategy", ["spt", "dst"])
    def test_each_search_avoids_the_grown_trees_down_set(self, strategy, monkeypatch):
        # the very frozenset the tree holds, so the reach memo hashes it once
        net = grid(6)
        gs = GroupState(net, "g0000", ProtectionConfig(strategy, 2))
        growing = []
        searched = []
        real_join, real_search = protection.join, trees.shortest_path

        def join_spy(net, tree, v, strategy):
            growing.append(tree)
            return real_join(net, tree, v, strategy)

        def search_spy(net, src, dst, parent=None, avoid=frozenset()):
            assert avoid is growing[-1].down
            searched.append(len(avoid))
            return real_search(net, src, dst, parent, avoid)

        monkeypatch.setattr(protection, "join", join_spy)
        monkeypatch.setattr(trees, "shortest_path", search_spy)
        for v in net.nodes[1:]:
            assert protect_join(gs, v)
        assert set(searched) == {0, 1, 2}


class TestDispatch:
    def test_known_strategies(self):
        net = complete_graph(4)
        t = MulticastTree(root="n0")
        assert join(net, t, "n1", "spt") == [("n0", "n1")]
        assert join(net, t, "n1", "dst") == [("n0", "n1")]

    @pytest.mark.parametrize("strategy", ["spt", "dst"])
    def test_avoid_may_be_any_iterable(self, strategy):
        # a tree's down set, read more than once per dst join (nearest tree
        # node, then the segment search), may hold Links or plain pairs
        # either way round in any collection
        def makes(links):
            yield frozenset(links)
            yield list(links)
            yield {(b, a) for a, b in links}

        for down in makes([Link("B", "C")]):
            got = join(square(), MulticastTree(root="A", down=down), "C", strategy)
            assert got == [("A", "D"), ("D", "C")], down
        for seed in range(30):
            rng = random.Random(seed)
            net = rand_connected(rng, rng.randint(3, 14))
            avoid = rng.sample(sorted(net.links), rng.randint(1, 3))
            root = rng.choice(net.nodes)
            ts = [MulticastTree(root=root, down=down) for down in makes(avoid)]
            for v in rng.sample(net.nodes, len(net.nodes)):
                got = [join(net, t, v, strategy) for t in ts]
                assert got[0] == got[1] == got[2], (seed, v)
                if got[0]:
                    for t in ts:
                        apply_path(t, got[0])

    def test_unknown_strategy(self):
        net = complete_graph(4)
        with pytest.raises(ValueError):
            join(net, MulticastTree(root="n0"), "n1", "widest")


class TestTreeQueries:
    def test_tree_links_and_degree(self):
        t = MulticastTree(root="A")
        apply_path(t, [("A", "B"), ("B", "C")])
        apply_path(t, [("A", "D")])
        assert len(t.parent) == 3
        assert {c for c, p in t.parent.items() if p == "A"} == {"B", "D"}
        assert t.fanout == {"A": 2, "B": 1}
        assert sorted(f"{p}-{c}" for c, p in t.parent.items()) == ["A-B", "A-D", "B-C"]
