import collections
import dataclasses
import math
import random
import sys
from itertools import combinations

import pytest

from ffmcast import failsim
from ffmcast.dataplane import SwitchFabric
from ffmcast.errors import BudgetExceeded, DataplaneError, TopologyError
from ffmcast.failsim import (
    FailureCase,
    RecoveryModel,
    ToleranceReport,
    depth_hopcounts,
    expected_deliverable,
    simulate_delivery,
    simulate_recovery,
    verify_tolerance,
)
from ffmcast.protection import GroupState, ProtectionConfig, protect_join, protect_leave
from ffmcast.topology import Link, Network, complete_graph, geant, load_topology
from tests.test_protection import line, triangle
from tests.test_topology import grid, rand_connected


def replace_record(gs, switch, tag, terminal=False, wires=(), groups=()):
    """Make gs's group do something else at (switch, tag): a hand-written
    record in the fabric's view, the level walks read.

    terminal says whether the switch delivers to its host, wires are the
    (peer, outgoing tag) of the static outputs, and groups are FF groups
    as (links their Drop buckets watch, (peer, outgoing tag) members in
    failover order).
    """
    bit = gs.net.bit
    wires = tuple((bit[switch, peer], peer, out_tag) for peer, out_tag in wires)
    groups = tuple(
        (tuple(bit[link] for link in drops),
         tuple((bit[switch, peer], peer, out_tag) for peer, out_tag in members))
        for drops, members in groups
    )
    gs.fabric.view[(gs.installer.group_key, switch, tag)] = (True, terminal, wires, groups)


def geant_f2_all_joined():
    gs = GroupState(geant(), "AT", ProtectionConfig("spt", 2))
    for v in gs.net.nodes:
        if v != "AT":
            protect_join(gs, v)
    return gs


def brute_force(gs, max_failures):
    """Reference sweep: one simulate_delivery per failure set, baseline first.

    Returns the failure sets and their reports in order, and the
    ToleranceReport they add up to.
    """
    links = sorted(gs.net.links)
    sets = [()] + [c for k in range(1, max_failures + 1) for c in combinations(links, k)]
    reports = []
    tol = ToleranceReport()
    for combo in sets:
        rep = simulate_delivery(gs, combo)
        reports.append(rep)
        tol.walks += 1
        tol.duplicates += sum(1 for o in rep.outcomes.values() if o.copies > 1)
        tol.stray += rep.stray
        if gs.primary.terminals:
            tol.unmatched += rep.unmatched
        tol.loop_guard_tripped |= rep.loop_guard_tripped
        if not combo:
            tol.baseline_ok = rep.all_delivered and not rep.loop_guard_tripped
            continue
        tol.sets_checked += 1
        for v, o in rep.outcomes.items():
            if o.delivered:
                continue
            if expected_deliverable(gs, v, combo):
                tol.unexcused.append(FailureCase(tuple(str(l) for l in combo), v))
            else:
                tol.excused += 1
    return sets, reports, tol


def assert_matches_brute_force(gs, max_failures):
    """verify_tolerance's case stream and report equal the brute-force
    sweep's, and the enumerator under it yields each set's own core."""
    seen = []
    fast = verify_tolerance(gs, max_failures=max_failures,
                            on_case=lambda failed, rep: seen.append((failed, rep)))
    sets, reports, slow = brute_force(gs, max_failures)
    assert [failed for failed, _ in seen] == sets
    assert [rep for _, rep in seen] == reports
    assert dataclasses.replace(fast, walks=slow.walks) == slow
    assert 1 <= fast.walks <= slow.walks
    cores = list(failsim._cores(gs, sorted(gs.net.links), max_failures, ToleranceReport()))
    assert [failed for failed, _, _ in cores] == sets
    for failed, mask, w in cores:
        assert mask == gs.net.mask(failed)
        assert w.down == mask & w.report.read
    return fast


def theta():
    # two-hop trunk r-a-b with two independent detours via c and d
    return load_topology({
        "nodes": ["r", "a", "b", "c", "d"],
        "links": [["r", "a"], ["a", "b"], ["r", "c"], ["c", "b"], ["r", "d"], ["d", "b"]],
    })


class TestSimulateDelivery:
    def test_clean_run(self):
        gs = GroupState(triangle(), "A", ProtectionConfig("spt", 1))
        protect_join(gs, "C")
        rep = simulate_delivery(gs)
        assert rep.outcomes["C"].delivered
        assert rep.outcomes["C"].hops == 1
        assert rep.outcomes["C"].copies == 1
        assert rep.unmatched == 0 and rep.stray == 0

    def test_failover_takes_detour(self):
        gs = GroupState(triangle(), "A", ProtectionConfig("spt", 1))
        protect_join(gs, "C")
        rep = simulate_delivery(gs, [Link("A", "C")])
        assert rep.outcomes["C"].delivered
        assert rep.outcomes["C"].hops == 2
        assert rep.outcomes["C"].copies == 1

    def test_unknown_group_reference_raises(self):
        gs = GroupState(triangle(), "A", ProtectionConfig("spt", 1))
        protect_join(gs, "C")
        # A's flow points its edge to C at a group A does not have
        gs.fabric.switches["A"].flows[(gs.installer.group_key, 0)]["C"] = (99,)
        gs.fabric.view.clear()  # a hand edit outside FlowInstaller drops the view
        with pytest.raises(DataplaneError):
            simulate_delivery(gs, [Link("A", "C")])

    def test_consulted_links_decide_the_walk(self):
        gs = GroupState(theta(), "r", ProtectionConfig("spt", 2))
        protect_join(gs, "b")
        rep = simulate_delivery(gs, [Link("r", "a")])
        # r's group watched r-a, then forwarded to c over r-c, then c-b
        assert rep.read == gs.net.mask([Link("r", "a"), Link("r", "c"), Link("b", "c")])
        # a link outside the read set cannot change the outcome
        assert simulate_delivery(gs, [Link("r", "a"), Link("a", "b")]) == rep

    def test_unknown_link_is_an_error(self):
        gs = GroupState(triangle(), "A", ProtectionConfig("spt", 1))
        protect_join(gs, "B")
        protect_join(gs, "C")
        for failed in ([Link("A", "Z")], [("A", "Z")], [Link("A", "B"), ("C", "Q")]):
            with pytest.raises(TopologyError, match="is not in the network"):
                simulate_delivery(gs, failed)
            with pytest.raises(TopologyError, match="is not in the network"):
                expected_deliverable(gs, "B", failed)
        # a plain tuple names its link in either orientation
        assert simulate_delivery(gs, [("B", "A")]) == simulate_delivery(gs, [Link("A", "B")])

    def test_no_subscribers_no_deliveries(self):
        gs = GroupState(triangle(), "A")
        rep = simulate_delivery(gs)
        assert rep.outcomes == {}

    def test_loop_guard_trips_on_cycle(self):
        gs = GroupState(triangle(), "A", ProtectionConfig("spt", 0))
        protect_join(gs, "B")
        assert not simulate_delivery(gs).loop_guard_tripped  # fills the view
        # sabotage: make B bounce the packet back to A forever
        replace_record(gs, "B", 0, wires=[("A", 0)])
        rep = simulate_delivery(gs)
        assert rep.loop_guard_tripped


class TestVerifyTolerance:
    @pytest.mark.parametrize("budget", [{"max_failures": -1}, {"max_sets": -1}])
    def test_negative_budget_rejected(self, budget):
        gs = GroupState(theta(), "r", ProtectionConfig("spt", 2))
        protect_join(gs, "b")
        name = next(iter(budget))
        with pytest.raises(ValueError, match=f"{name} must be >= 0"):
            verify_tolerance(gs, **budget)

    @pytest.mark.parametrize("name", ["max_failures", "max_sets"])
    @pytest.mark.parametrize("value", [1.5, 1.0, True, "1"], ids=["float", "whole-float", "bool", "str"])
    def test_budget_that_is_not_an_int_rejected(self, name, value):
        gs = GroupState(theta(), "r", ProtectionConfig("spt", 2))
        protect_join(gs, "b")
        with pytest.raises(ValueError, match=f"{name} must be an int, not {type(value).__name__}"):
            verify_tolerance(gs, **{name: value})

    def test_budget_beyond_the_links_is_the_links(self):
        # no failure set has more links than the network, so a budget of
        # 10**9 on a 2-link path sweeps what a budget of 2 does, at once
        gs = GroupState(line("A", "B", "C"), "A", ProtectionConfig("spt", 1))
        protect_join(gs, "C")
        rep = verify_tolerance(gs, max_failures=10**9, max_sets=100)
        assert rep == verify_tolerance(gs, max_failures=2)
        assert rep.sets_checked == 3

    def test_theta_f2_fully_covered(self):
        gs = GroupState(theta(), "r", ProtectionConfig("spt", 2))
        protect_join(gs, "b")
        rep = verify_tolerance(gs)
        assert rep.sets_checked == math.comb(6, 1) + math.comb(6, 2) == 21
        assert rep.baseline_ok
        assert rep.unexcused == []
        assert rep.excused == 0
        assert rep.ok

    def test_k5_f2_clean(self):
        net = complete_graph(5)
        gs = GroupState(net, "n4", ProtectionConfig("spt", 2))
        for v in net.nodes[:-1]:
            protect_join(gs, v)
        rep = verify_tolerance(gs)
        assert rep.sets_checked == math.comb(10, 1) + math.comb(10, 2)
        assert rep.ok

    def test_misses_without_backups_are_excused(self):
        gs = GroupState(theta(), "r", ProtectionConfig("spt", 0))
        protect_join(gs, "b")
        rep = verify_tolerance(gs, max_failures=1)
        assert not rep.unexcused
        assert rep.excused == 2  # r-a down, a-b down
        assert rep.ok

    def test_budget_cap(self):
        gs = GroupState(theta(), "r", ProtectionConfig("spt", 2))
        protect_join(gs, "b")
        with pytest.raises(BudgetExceeded):
            verify_tolerance(gs, max_sets=20)
        verify_tolerance(gs, max_sets=21)

    def test_case_callback_sees_baseline_first(self):
        gs = GroupState(triangle(), "A", ProtectionConfig("spt", 1))
        protect_join(gs, "B")
        seen = []
        verify_tolerance(gs, on_case=lambda failed, rep: seen.append(failed))
        assert seen[0] == ()
        assert len(seen) == 4  # baseline plus each single link

    def test_on_case_leaves_the_result_alone(self):
        theta_f0 = GroupState(theta(), "r", ProtectionConfig("spt", 0))
        protect_join(theta_f0, "b")
        for gs, budget in ((geant_f2_all_joined(), 2), (theta_f0, 2)):
            seen = []
            with_cb = verify_tolerance(gs, max_failures=budget,
                                       on_case=lambda failed, rep: seen.append(failed))
            assert with_cb == verify_tolerance(gs, max_failures=budget)
            assert len(seen) == with_cb.sets_checked + 1

    def test_duplicate_copies_fail(self):
        gs = GroupState(triangle(), "A", ProtectionConfig("spt", 1))
        protect_join(gs, "C")
        # A's record gains a second wire into C, beside its group's primary slot
        group_key = gs.installer.group_key
        matched, terminal, wires, groups = gs.fabric.compile("A", group_key, 0)
        wires += ((gs.net.bit["A", "C"], "C", 0),)
        gs.fabric.view[(group_key, "A", 0)] = (matched, terminal, wires, groups)
        rep = assert_matches_brute_force(gs, 1)
        assert rep.duplicates == 3  # baseline, A-B down, B-C down
        assert not rep.unexcused and not rep.loop_guard_tripped
        assert not rep.ok

    def test_stray_deliveries_fail(self):
        gs = GroupState(triangle(), "A", ProtectionConfig("spt", 1))
        protect_join(gs, "C")
        # B relays the backup copy and also hands it to its own host
        replace_record(gs, "B", 1, terminal=True, wires=[("C", 1)])
        rep = assert_matches_brute_force(gs, 1)
        assert rep.stray == 1  # only A-C down takes the backup tree
        assert not rep.unexcused and not rep.ok

    def test_unmatched_packets_fail(self):
        gs = GroupState(triangle(), "A", ProtectionConfig("spt", 1))
        protect_join(gs, "C")
        replace_record(gs, "B", 1, wires=[("C", 7)])  # C knows no tag 7
        rep = assert_matches_brute_force(gs, 1)
        assert rep.unmatched == 1
        assert not rep.ok

    def test_unmatched_copy_goes_with_its_link(self):
        gs = GroupState(triangle(), "A", ProtectionConfig("spt", 1))
        protect_join(gs, "C")
        # A also sends a copy to B on a tag B has no entry for
        replace_record(gs, "A", 0, wires=[("B", 7), ("C", 0)])
        rep = assert_matches_brute_force(gs, 1)
        assert rep.unmatched == 3  # every set but A-B down
        assert not rep.ok

    def test_failed_baseline(self):
        gs = GroupState(triangle(), "A", ProtectionConfig("spt", 1))
        protect_join(gs, "B")
        protect_join(gs, "C")
        # C's primary-tree record no longer hands a copy to its host
        group_key = gs.installer.group_key
        matched, _, wires, groups = gs.fabric.compile("C", group_key, 0)
        gs.fabric.view[(group_key, "C", 0)] = (matched, False, wires, groups)
        rep = assert_matches_brute_force(gs, 1)
        assert not rep.baseline_ok and not rep.ok
        assert rep.unexcused
        assert all(case.failed != () for case in rep.unexcused)

    def test_empty_group_packet_is_not_unmatched(self):
        gs = GroupState(triangle(), "A", ProtectionConfig("spt", 1))
        assert simulate_delivery(gs).unmatched == 1
        rep = verify_tolerance(gs)
        assert rep.unmatched == 0 and rep.ok

    def test_walks_only_cores(self):
        # regression guard: a fallback to one walk per set fails this
        gs = geant_f2_all_joined()
        rep = verify_tolerance(gs)
        assert rep.sets_checked == 65 + math.comb(65, 2)
        assert rep.ok
        assert rep.walks * 2 < rep.sets_checked

    def test_resumes_add_one_link(self, monkeypatch):
        # regression guard: every walk after the baseline resumes from a walk
        # one link smaller; the masks walked are the cores, found here by
        # brute force, plus the candidate cores the sweep rejected: one, of
        # two links, whose walk the chain restarted from the baseline reuses
        # when it reaches that mask
        gs = geant_f2_all_joined()
        links = sorted(gs.net.links)
        cores = {0} | {
            gs.net.mask(failed) & simulate_delivery(gs, failed).read
            for k in (1, 2) for failed in combinations(links, k)
        }
        walk = failsim._walk
        walked = []
        added = []

        def spy(gs, down, base=None, keep=False):
            walked.append(down)
            if base is not None:
                added.append((down & ~base.down).bit_count())
            return walk(gs, down, base, keep)

        monkeypatch.setattr(failsim, "_walk", spy)
        rep = verify_tolerance(gs)
        assert rep.walks == len(walked) == 840
        assert cores <= set(walked) and len(cores) == 839
        assert rep.walks - len(cores) == 1
        assert len(set(walked)) == len(walked)  # no mask is walked twice
        assert added == [1] * (rep.walks - 1)

    def test_sets_start_from_their_prefix(self, monkeypatch):
        # k5 at F=3 meets the three ways a set T finds its core from the walk
        # of its prefix's core C_P (T less its last link b): T shares that
        # walk when it never read b; the candidate C_P | b is accepted after
        # one walk resumed from it; or the candidate is rejected and the
        # fixpoint restarts from the baseline, here for cores that drop a
        # link of C_P, which no chain grown from C_P reaches
        net = complete_graph(5)
        gs = GroupState(net, net.nodes[-1], ProtectionConfig("spt", 3))
        for v in net.nodes[:-1]:
            protect_join(gs, v)
        mask = gs.net.mask
        walk = failsim._walk
        walked = []
        cases = []

        def spy(gs, down, base=None, keep=False):
            w = walk(gs, down, base, keep)
            walked.append((down, base, w))
            return w

        monkeypatch.setattr(failsim, "_walk", spy)
        verify_tolerance(gs, on_case=lambda failed, rep: cases.append((failed, rep, len(walked))))
        reports = {failed: rep for failed, rep, _ in cases}
        kinds = collections.Counter()
        for (_, _, start), (failed, rep, end) in zip(cases, cases[1:]):
            made = walked[start:end]
            prefix = reports[failed[:-1]]
            b = mask(failed[-1:])
            candidate = mask(failed[:-1]) & prefix.read | b
            core = mask(failed) & rep.read
            if not prefix.read & b:
                assert rep is prefix and not made
                kinds["shared"] += 1
            elif made and made[0][0] == candidate:
                assert made[0][1].report is prefix
                if core == candidate:
                    assert len(made) == 1 and made[0][2].report is rep
                    kinds["accepted"] += 1
                elif prefix.read & ~core & mask(failed[:-1]):
                    kinds["rejected"] += 1
        assert kinds["shared"] and kinds["accepted"] and kinds["rejected"]
        assert len({down for down, _, _ in walked}) == len(walked)
        _, slow, _ = brute_force(gs, 3)
        assert [rep for _, rep, _ in cases] == slow

    def test_baseline_resumes_over_several_links(self):
        # the sweep resumes from the baseline over one link only; resume
        # over up to three directly: the index gives the walk a scan gives,
        # copies and their order included, and a walk from the source's report
        net = grid(5)
        gs = GroupState(net, net.nodes[-1], ProtectionConfig("spt", 2))
        for v in net.nodes[:-1]:
            protect_join(gs, v)
        root = failsim._walk(gs, 0, keep=True)
        scan = root._replace(index=None)
        bits = [net.bit[link] for link in sorted(net.links)]
        rng = random.Random(1)
        for _ in range(60):
            down = sum(rng.sample(bits, rng.randint(1, 3)))
            for keep in (False, True):
                w = failsim._walk(gs, down, root, keep)
                assert w == failsim._walk(gs, down, scan, keep)
                assert w.report == failsim._walk(gs, down).report

    @pytest.mark.parametrize("topo", ["k5", "k8", "random"])
    def test_full_budget_resumes_share_a_pass(self, topo, monkeypatch):
        # in the last pass a prefix that is its own core sets its copies
        # aside once, and every resume from it scans only those: each gives
        # the walk a scan of all the base's copies gives
        net = {
            "k5": lambda: complete_graph(5),
            "k8": lambda: complete_graph(8),
            "random": lambda: rand_connected(random.Random(4), 9),
        }[topo]()
        gs = GroupState(net, net.nodes[-1], ProtectionConfig("spt", 3))
        for v in net.nodes[:-1]:
            protect_join(gs, v)
        walk = failsim._walk
        served = {}  # id -> [base, resumes]; holding the base keeps its id unique

        def spy(gs, down, base=None, keep=False):
            w = walk(gs, down, base, keep)
            if base is not None and base.aside is not None:
                assert not keep and (down & ~base.down).bit_count() == 1
                assert w == walk(gs, down, base._replace(aside=None), keep)
                served.setdefault(id(base), [base, 0])[1] += 1
            return w

        monkeypatch.setattr(failsim, "_walk", spy)
        assert_matches_brute_force(gs, 3)
        assert max(n for _, n in served.values()) >= 2


class TestSweepRunsInC:
    def test_no_python_hash_eq_or_is_host(self):
        # regression guard: Link hashing and comparison cost no
        # Python-level call on the forwarding path, and a
        # sweep of an unchanged fabric compiles nothing
        gs = geant_f2_all_joined()
        first = verify_tolerance(gs)  # fills the fabric's view
        seen = collections.Counter()

        def profile(frame, event, arg):
            if event == "call":
                seen[frame.f_code.co_name] += 1

        sys.setprofile(profile)
        try:
            again = verify_tolerance(gs)
        finally:
            sys.setprofile(None)
        assert again == first and again.ok
        assert seen["_walk"] == again.walks > 0
        assert seen["compile"] == 0
        assert {n: seen[n] for n in ("__hash__", "__eq__", "is_host", "link") if seen[n]} == {}


class TestVerifyMatchesBruteForce:
    """The core-walking sweep against one simulate_delivery per failure set."""

    @pytest.mark.parametrize("strategy", ["spt", "dst"])
    @pytest.mark.parametrize("topo, budget", [
        *((topo, budget) for topo in ("theta", "k5", "k8") for budget in (1, 2, 3)),
        # a baseline of many copies, each meeting few links: the baseline
        # index's case; and a sparse graph whose bridges leave misses excused
        ("grid5", 1), ("grid5", 2), ("bridged", 1), ("bridged", 2),
    ])
    def test_named_topologies(self, topo, budget, strategy):
        net = {
            "theta": theta,
            "k5": lambda: complete_graph(5),
            "k8": lambda: complete_graph(8),
            "grid5": lambda: grid(5),
            "bridged": lambda: rand_connected(random.Random(3), 10, 3),
        }[topo]()
        source = net.nodes[-1]
        gs = GroupState(net, source, ProtectionConfig(strategy, budget))
        for v in net.nodes[:-1]:
            protect_join(gs, v)
        rep = assert_matches_brute_force(gs, budget)
        assert rep.ok
        assert rep.excused or topo != "bridged"

    @pytest.mark.parametrize("seed", range(12))
    def test_seeded_random_graphs(self, seed):
        rng = random.Random(seed)
        net = rand_connected(rng, rng.randint(5, 9))
        source = rng.choice(net.nodes)
        budget = rng.randint(1, 3)
        gs = GroupState(net, source, ProtectionConfig(rng.choice(["spt", "dst"]), budget))
        others = [v for v in net.nodes if v != source]
        for v in rng.sample(others, rng.randint(1, len(others))):
            protect_join(gs, v)
        # sweeping past the protected budget gives excused misses too
        assert_matches_brute_force(gs, min(budget + rng.randint(0, 1), 3))

    def test_groups_sharing_a_fabric(self):
        rng = random.Random(99)
        net = rand_connected(rng, 8)
        fabric = SwitchFabric(net)
        config = ProtectionConfig("spt", 2)
        groups = [GroupState(net, s, config, fabric=fabric) for s in ("v00", "v07")]
        for gs in groups:
            for v in rng.sample([v for v in net.nodes if v != gs.source], 4):
                protect_join(gs, v)
        for gs in groups:
            assert assert_matches_brute_force(gs, 2).ok

    def test_loop_guard_trip(self):
        gs = GroupState(theta(), "r", ProtectionConfig("spt", 1))
        protect_join(gs, "b")
        # b bounces tag-1 copies back to c, which sends them to b again: a
        # loop that only the r-a failure (backup tree 1) reaches
        replace_record(gs, "b", 1, wires=[("c", 1)])
        rep = assert_matches_brute_force(gs, 2)
        assert rep.loop_guard_tripped and rep.baseline_ok
        assert not rep.ok

    @pytest.mark.parametrize("strategy", ["spt", "dst"])
    @pytest.mark.parametrize("seed", range(12))
    def test_seeded_churn(self, seed, strategy):
        # leaves prune trees and shrink groups, so walks resume over the
        # state that churn leaves behind, not just a fresh build
        rng = random.Random(seed)
        net = rand_connected(rng, rng.randint(8, 13))
        budget = 1 + seed % 3
        source = rng.choice(net.nodes)
        gs = GroupState(net, source, ProtectionConfig(strategy, budget))
        members = [v for v in net.nodes if v != source]
        rng.shuffle(members)
        for v in members:
            protect_join(gs, v)
        for v in members[: len(members) // 3]:
            protect_leave(gs, v)
        assert_matches_brute_force(gs, budget)

    @pytest.mark.parametrize("strategy", ["spt", "dst"])
    def test_geant_churn(self, strategy):
        # on a graph this size most cores have several memoised subsets one
        # link smaller, so resumes start from bases other than the chain's
        rng = random.Random(5)
        gs = GroupState(geant(), "AT", ProtectionConfig(strategy, 2))
        members = [v for v in gs.net.nodes if v != "AT"]
        rng.shuffle(members)
        for v in members:
            protect_join(gs, v)
        for v in members[: len(members) // 3]:
            protect_leave(gs, v)
        assert_matches_brute_force(gs, 2)

    def test_dead_drop_bucket_lets_a_silent_group_emit(self):
        gs = GroupState(theta(), "r", ProtectionConfig("spt", 2))
        protect_join(gs, "b")
        # r fails over from a to c (on a tag no installed tree uses); c's
        # group holds a Drop bucket watching r-d, so with r-d up it consumes
        # the packet, and only once r-d fails too does it fall through to
        # its member towards b
        replace_record(gs, "r", 0, groups=[((), [("a", 0), ("c", 8)])])
        replace_record(gs, "c", 8, groups=[([("r", "d")], [("b", 8)])])
        replace_record(gs, "b", 8, terminal=True)
        reports = {}
        verify_tolerance(gs, on_case=lambda failed, rep: reports.setdefault(failed, rep))
        assert not reports[(Link("a", "r"),)].outcomes["b"].delivered
        both = reports[(Link("a", "r"), Link("d", "r"))].outcomes["b"]
        assert both.delivered and both.hops == 2
        rep = assert_matches_brute_force(gs, 2)
        assert rep.unexcused and not rep.ok

    def test_read_kept_by_a_copy_the_link_leaves_alone(self):
        # b gets one copy through a and one through c, and each reads b-d
        # at b's group: with r-a down the copy through a is dropped, but
        # the one through c still reads b-d, so b-d stays in the walk's read
        gs = GroupState(theta(), "r", ProtectionConfig("spt", 2))
        protect_join(gs, "b")
        replace_record(gs, "r", 0, wires=[("a", 0), ("c", 0)])
        replace_record(gs, "a", 0, wires=[("b", 0)])
        replace_record(gs, "c", 0, wires=[("b", 0)])
        replace_record(gs, "b", 0, terminal=True, groups=[((), [("d", 0)])])
        replace_record(gs, "d", 0)
        reports = {}
        rep = assert_matches_brute_force(gs, 2)
        verify_tolerance(gs, on_case=lambda failed, rep: reports.setdefault(failed, rep))
        assert reports[(Link("a", "r"),)].read & gs.net.bit["b", "d"]
        assert rep.duplicates and not rep.ok

    def test_loop_guard_trip_two_failures_deep(self):
        gs = GroupState(theta(), "r", ProtectionConfig("spt", 3))
        protect_join(gs, "b")
        # r fails over a -> c -> d, on tags no installed tree uses; only with
        # r-a and r-c both down does the packet reach d, which bounces it
        # with b forever
        replace_record(gs, "r", 0, groups=[((), [("a", 0), ("c", 8), ("d", 9)])])
        replace_record(gs, "c", 8, wires=[("b", 8)])
        replace_record(gs, "b", 8, terminal=True)
        replace_record(gs, "d", 9, wires=[("b", 9)])
        replace_record(gs, "b", 9, wires=[("d", 9)])
        tripped = set()
        verify_tolerance(gs, on_case=lambda failed, rep: rep.loop_guard_tripped and tripped.add(failed))
        ra, rc, bd = Link("a", "r"), Link("c", "r"), Link("b", "d")
        assert (ra, rc) in tripped
        assert all(len(failed) > 1 for failed in tripped)
        # failing the loop's own link as well drops every copy the guard cut
        assert (ra, bd, rc) not in tripped
        rep = assert_matches_brute_force(gs, 3)
        assert rep.loop_guard_tripped and rep.baseline_ok

    def test_duplicates_lose_one_copy(self):
        gs = GroupState(triangle(), "A", ProtectionConfig("spt", 1))
        protect_join(gs, "C")
        # C gets one copy straight from A and one through B, one hop later
        replace_record(gs, "A", 0, wires=[("B", 0), ("C", 0)])
        replace_record(gs, "B", 0, wires=[("C", 0)])
        replace_record(gs, "C", 0, terminal=True)
        reports = {}
        rep = verify_tolerance(gs, on_case=lambda failed, rep: reports.setdefault(failed, rep))
        assert reports[()].outcomes["C"] == ("C", True, 1, 2)
        assert reports[(Link("A", "C"),)].outcomes["C"] == ("C", True, 2, 1)
        assert reports[(Link("A", "B"),)].outcomes["C"] == ("C", True, 1, 1)
        assert reports[(Link("B", "C"),)].outcomes["C"] == ("C", True, 1, 1)
        assert rep.duplicates == 1  # the baseline only
        assert_matches_brute_force(gs, 1)

    def test_filtered_scan_finds_the_nearest_kept_copy(self, monkeypatch):
        # b gets one copy over r-d and b-d, 2 hops, and one over r-a and
        # a-b, 4 hops; b's tag-8 group reads b-c and emits nothing. The
        # prefix {b-c} is its own core, and its pass sets aside only the
        # copies meeting b-d or r-d: with either down the near copy is
        # dropped, and the far one, which the pass did not set aside, is
        # the nearest kept
        gs = GroupState(theta(), "r", ProtectionConfig("spt", 2))
        protect_join(gs, "b")
        replace_record(gs, "r", 0, wires=[("d", 0), ("a", 8)])
        replace_record(gs, "d", 0, wires=[("b", 0)])
        replace_record(gs, "b", 0, terminal=True)
        replace_record(gs, "a", 8, wires=[("b", 8)])
        replace_record(gs, "b", 8, wires=[("a", 9)], groups=[([("b", "c")], [])])
        replace_record(gs, "a", 9, wires=[("b", 9)])
        replace_record(gs, "b", 9, terminal=True)
        walk = failsim._walk
        filtered = []

        def spy(gs, down, base=None, keep=False):
            if base is not None and base.aside is not None:
                filtered.append((down, base))
            return walk(gs, down, base, keep)

        monkeypatch.setattr(failsim, "_walk", spy)
        reports = {}
        verify_tolerance(gs, on_case=lambda failed, rep: reports.setdefault(failed, rep))
        assert reports[()].outcomes["b"] == ("b", True, 2, 2)
        bc, bd, dr = Link("b", "c"), Link("b", "d"), Link("d", "r")
        for failed in ((bc, bd), (bc, dr)):
            assert reports[failed].outcomes["b"] == ("b", True, 4, 1)
        mask = gs.net.mask
        far = ("b", 9, 4, mask([Link("a", "r"), Link("a", "b")]), 0)
        from_bc = [(down, base) for down, base in filtered if base.down == mask([bc])]
        assert [down for down, _ in from_bc] == [mask([bc, bd]), mask([bc, dr])]
        for _, base in from_bc:
            assert far in base.copies and far not in base.aside[0]
        rep = assert_matches_brute_force(gs, 2)
        assert rep.duplicates and not rep.ok


class TestExpectedDeliverable:
    def test_walker_follows_first_failed_edge(self):
        gs = GroupState(theta(), "r", ProtectionConfig("spt", 2))
        protect_join(gs, "b")
        # both trunk links down: the walk reroutes at r, not at a
        assert expected_deliverable(gs, "b", {Link("r", "a"), Link("a", "b")})
        # trunk plus both detour entry links: nothing left
        assert not expected_deliverable(
            gs, "b", {Link("r", "a"), Link("r", "c"), Link("r", "d")}
        )

    def test_non_subscriber_never_deliverable(self):
        gs = GroupState(theta(), "r", ProtectionConfig("spt", 1))
        protect_join(gs, "b")
        assert not expected_deliverable(gs, "c", set())

    def test_matches_simulation_outcomes(self):
        gs = GroupState(theta(), "r", ProtectionConfig("spt", 2))
        protect_join(gs, "b")
        links = sorted(gs.net.links)
        from itertools import combinations

        for k in (1, 2, 3):
            for combo in combinations(links, k):
                sim = simulate_delivery(gs, combo).outcomes["b"].delivered
                walk = expected_deliverable(gs, "b", combo)
                # the walker must never promise more than the dataplane does
                assert sim or not walk, combo


class TestDepthHopcounts:
    def test_theta_oracle(self):
        gs = GroupState(theta(), "r", ProtectionConfig("spt", 2))
        protect_join(gs, "b")
        assert depth_hopcounts(gs) == [2.0, 3.0, 4.0]

    def test_triangle_oracle(self):
        gs = GroupState(triangle(), "A", ProtectionConfig("spt", 1))
        protect_join(gs, "C")
        assert depth_hopcounts(gs) == [1.0, 2.0]

    def test_uncovered_depths_are_nan(self):
        # a bridge has no backup, so no chain reaches depth 1
        gs = GroupState(Network(["A", "B"], [("A", "B")]), "A", ProtectionConfig("spt", 1))
        protect_join(gs, "B")
        depths = depth_hopcounts(gs)
        assert depths[0] == 1.0
        assert math.isnan(depths[1])

    def test_covered_chain_that_does_not_deliver_raises(self):
        gs = GroupState(theta(), "r", ProtectionConfig("spt", 2))
        protect_join(gs, "b")
        backup = gs.primary.backup["r", "a"]
        assert backup.parent["b"] == "c"
        replace_record(gs, "c", backup.tag)  # c now swallows the backup's copies
        with pytest.raises(DataplaneError, match=r"covered chain \{a-r\} did not deliver to b"):
            depth_hopcounts(gs)

    def test_budget_beyond_the_link_count(self):
        # no chain is longer than the link count, so a huge budget sizes nothing
        depths = {}
        for budget in (3, 10**9):
            gs = GroupState(triangle(), "A", ProtectionConfig("spt", budget))
            protect_join(gs, "B")
            protect_join(gs, "C")
            depths[budget] = depth_hopcounts(gs)
        assert len(depths[3]) == 4
        assert repr(depths[10**9]) == repr(depths[3])


class TestRecovery:
    def test_local_failover_ignores_rtt(self):
        for rtt in (0.0, 10.0, 200.0):
            model = RecoveryModel("ff", detection_ms=0.0, rtt_ms=rtt)
            rep = simulate_recovery(model, cuts=3, rate_hz=120.0, duration_ms=1000.0)
            assert rep.packets_lost == 0

    def test_detection_window_costs_packets(self):
        model = RecoveryModel("ff", detection_ms=50.0)
        rep = simulate_recovery(model, cuts=2, rate_hz=120.0, duration_ms=1000.0)
        assert rep.outage_ms == 50.0
        assert rep.packets_lost == 2 * math.floor(50 * 0.12)

    def test_group_retarget_loses_a_couple(self):
        model = RecoveryModel("switch", rtt_ms=20.0)
        rep = simulate_recovery(model, cuts=1, rate_hz=120.0, duration_ms=1000.0)
        assert rep.outage_ms == 21.0
        assert rep.packets_lost == 2
        assert rep.packets_sent == 120

    def test_group_retarget_zero_rtt(self):
        model = RecoveryModel("switch", rtt_ms=0.0)
        rep = simulate_recovery(model, cuts=1, rate_hz=120.0, duration_ms=1000.0)
        assert rep.packets_lost == 0

    def test_full_restore_scales_with_entries(self):
        model = RecoveryModel("restore", rtt_ms=20.0, compute_ms=5.0, flowmod_ms=1.0)
        rep = simulate_recovery(model, cuts=1, entries=40, rate_hz=120.0)
        assert rep.outage_ms == 20.0 + 5.0 + 40.0
        assert rep.packets_lost == math.floor(65 * 0.12)

    def test_loss_monotone_in_rtt(self):
        last = -1
        for rtt in range(0, 200, 10):
            model = RecoveryModel("switch", rtt_ms=float(rtt))
            rep = simulate_recovery(model, cuts=1, rate_hz=120.0, duration_ms=5000.0)
            assert rep.packets_lost >= last
            last = rep.packets_lost

    def test_duration_caps_loss(self):
        model = RecoveryModel("restore", rtt_ms=10_000.0)
        rep = simulate_recovery(model, cuts=5, rate_hz=120.0, duration_ms=100.0)
        assert rep.packets_sent == 12
        assert rep.packets_lost == 12

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            RecoveryModel("magic")

    @pytest.mark.parametrize("mode, counts", [
        ("switch", {"affected_groups": 10**400}),
        ("restore", {"entries": 10**400}),
    ])
    def test_huge_counts_name_the_outage_window(self, mode, counts):
        model = RecoveryModel(mode)
        with pytest.raises(ValueError, match="the outage window must be finite"):
            model.outage_ms(**counts)
        with pytest.raises(ValueError, match="the outage window must be finite"):
            simulate_recovery(model, **counts)

    @pytest.mark.parametrize("mode, counts, message", [
        ("switch", {"affected_groups": -5}, "affected_groups must be >= 0"),
        ("ff", {"affected_groups": -5}, "affected_groups must be >= 0"),
        ("restore", {"entries": -3}, "entries must be >= 0"),
    ])
    def test_negative_counts_are_named(self, mode, counts, message):
        # a negative count used to shorten the window, or to be blamed on it
        model = RecoveryModel(mode, rtt_ms=100)
        with pytest.raises(ValueError, match=message):
            model.outage_ms(**counts)
        with pytest.raises(ValueError, match=message):
            RecoveryModel(mode).outage_ms(**counts)

    def test_negative_cuts(self):
        with pytest.raises(ValueError):
            simulate_recovery(RecoveryModel("ff"), cuts=-1)
