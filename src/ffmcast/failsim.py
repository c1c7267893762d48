"""Failure injection against the compiled dataplane.

simulate_delivery pushes one packet from the source through the emulated
switches with a chosen set of links down and reports who got it; it can also
report which links' state it read. verify_tolerance sweeps every failure set
up to the configured budget, walking one packet per class of sets that
forward alike, and flags subscribers that should have been reachable (per
the installed backup trees) but were not. A failure set is always the
caller's input: neither the fabric nor a DeliveryReport stores it.
depth_hopcounts measures path stretch per failover depth, and the recovery
models turn an outage window into lost packets.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from itertools import combinations
from typing import Callable, Iterable, NamedTuple

from .errors import BudgetExceeded, DataplaneError
from .protection import GroupState
from .topology import HOST, Link
from .trees import MulticastTree, backup_steps


class Delivery(NamedTuple):
    subscriber: str
    delivered: bool
    hops: int | None  # switch hops of the first copy to arrive
    copies: int  # host deliveries seen; more than one means duplicates


# a Delivery from its field tuple, without a Python-level __new__ call per walk
_delivery = partial(tuple.__new__, Delivery)


@dataclass
class DeliveryReport:
    outcomes: dict[str, Delivery]
    unmatched: int  # packets no flow entry wanted
    stray: int  # host deliveries at switches without a subscriber
    loop_guard_tripped: bool = False

    @property
    def all_delivered(self) -> bool:
        return all(o.delivered for o in self.outcomes.values())


def simulate_delivery(
    gs: GroupState,
    failed: Iterable[Link] = (),
    consulted: set[Link] | None = None,
) -> DeliveryReport:
    """Forward one packet from the source with the given links down.

    The walk reads the fabric's compiled records (SwitchFabric.compile,
    cached in `gs.fabric.view`) and the `failed` links only; the report does
    not restate them. When `consulted` is a set, every link whose state the
    walk read is added to it: the watch ports of the groups that ran and the
    wires of the outputs taken. Any failure set that agrees with `failed` on
    those links gives the same walk, and an equal report.
    """
    fabric = gs.fabric
    view = fabric.view
    down = frozenset(failed)
    seen = consulted if consulted is not None else set()
    # generous: one traversal of the topology per failover depth
    max_hops = (gs.config.max_failures + 1) * max(len(gs.net.links), 1) + 2
    group_key = gs.installer.group_key
    arrived: dict[str, list[int]] = {}
    unmatched = 0
    tripped = False
    queue: deque[tuple[str, int | None, int]] = deque([(gs.source, None, 0)])
    while queue:
        switch, tag, hops = queue.popleft()
        key = (group_key, switch, tag)
        record = view.get(key)
        if record is None:
            record = view[key] = fabric.compile(switch, group_key, tag)
        matched, hosts, wires, groups = record
        if not matched:
            unmatched += 1
            continue
        if hosts:
            arrived.setdefault(switch, []).extend([hops] * len(hosts))
        nxt = hops + 1
        for link, peer, out_tag in wires:
            seen.add(link)
            if link in down:
                continue  # plain outputs do not watch liveness; the wire eats it
            if nxt > max_hops:
                tripped = True
                continue
            queue.append((peer, out_tag, nxt))
        for drops, members in groups:
            # first live bucket wins; a live inherited Drop bucket consumes the packet
            for link in drops:
                seen.add(link)
                if link not in down:
                    break
            else:
                for link, peer, out_tag in members:
                    seen.add(link)
                    if link in down:
                        continue
                    if peer == HOST:
                        arrived.setdefault(switch, []).append(hops)
                    elif nxt > max_hops:
                        tripped = True
                    else:
                        queue.append((peer, out_tag, nxt))
                    break
    outcomes = {}
    for v in sorted(gs.primary.terminals):
        hits = arrived.pop(v, None)
        # the queue is FIFO and every hop adds one, so the first copy is the nearest
        outcomes[v] = _delivery((v, True, hits[0], len(hits)) if hits else (v, False, None, 0))
    stray = sum(len(hits) for hits in arrived.values())
    return DeliveryReport(outcomes, unmatched, stray, tripped)


# tolerance sweep ---------------------------------------------------


@dataclass(frozen=True)
class FailureCase:
    failed: tuple[str, ...]
    subscriber: str


@dataclass
class ToleranceReport:
    """Result of a sweep. duplicates, stray, unmatched and walks include the baseline."""

    sets_checked: int = 0
    baseline_ok: bool = True
    unexcused: list[FailureCase] = field(default_factory=list)
    excused: int = 0
    loop_guard_tripped: bool = False
    duplicates: int = 0  # (set, subscriber) pairs that got more than one copy
    stray: int = 0  # host deliveries at switches without a subscriber
    unmatched: int = 0  # packets no flow entry wanted, while the group has subscribers
    walks: int = 0  # dataplane walks simulated

    @property
    def ok(self) -> bool:
        return (self.baseline_ok and not self.unexcused and not self.loop_guard_tripped
                and not self.duplicates and not self.stray and not self.unmatched)


def expected_deliverable(gs: GroupState, v: str, failed: Iterable[Link]) -> bool:
    """Whether the installed trees structurally cover v for this failure set."""
    return _covered(gs.primary, v, frozenset(failed))


def _covered(tree: MulticastTree, v: str, failed: frozenset[Link]) -> bool:
    if v not in tree.terminals:
        return False
    for x, y in tree.path_to(v):
        if Link(x, y) in failed:
            b = tree.backup.get((x, y))
            return b is not None and _covered(b, v, failed)
    return True


def verify_tolerance(
    gs: GroupState,
    max_failures: int | None = None,
    max_sets: int | None = None,
    on_case: Callable[[tuple[Link, ...], DeliveryReport], None] | None = None,
) -> ToleranceReport:
    """Fail every link set up to the budget and check delivery.

    A miss only counts against the result when the backup trees on record
    cover that subscriber for that failure set (expected_deliverable, asked
    per set); gaps protect_join already conceded are tallied as excused.
    Duplicate copies, stray host deliveries and unmatched packets fail the
    result too.

    Sets are taken in `combinations` order over the sorted links, after the
    baseline (no link down). `on_case(failed, report)` is called once per
    set with the set and the DeliveryReport of its core. Sets with the same
    core share that report object, so the callback must treat it as
    read-only. Only cores are walked: a walk under T reads the state of the
    links W(T) only, so T forwards exactly like its core T & W(T). The core
    is found by the fixpoint C <- T & W(C) from C = {}: C stays inside T, so
    the walks under C and T read the same links up to the first link of
    T \\ C they meet, which the next step adds; the steps stop at T & W(T).
    Walks are memoised by link bitmask, each with its duplicate count and
    the subscribers it missed, and the Delivery tuples they hold interned.
    Only sets smaller than the budget are kept (a core as large as the
    budget is the one set it stands for), so the memo holds at most
    sum(comb(links, k) for k < budget) reports.
    """
    if max_failures is None:
        max_failures = gs.config.max_failures
    links = sorted(gs.net.links)
    total = sum(math.comb(len(links), k) for k in range(1, max_failures + 1))
    if max_sets is not None and total > max_sets:
        raise BudgetExceeded(f"{total} failure sets exceed the cap of {max_sets}")
    bit = {link: 1 << i for i, link in enumerate(links)}
    report = ToleranceReport()
    counted = bool(gs.primary.terminals)  # an empty group's packet is unmatched by design
    interned: dict[Delivery, Delivery] = {}
    # mask -> (links consulted, report, duplicates, subscribers missed)
    memo: dict[int, tuple[int, DeliveryReport, int, tuple[str, ...]]] = {}

    def walk(mask: int) -> tuple[int, DeliveryReport, int, tuple[str, ...]]:
        """Memo entry of the walk with the links of mask down."""
        hit = memo.get(mask)
        if hit is not None:
            return hit
        down = []
        rest = mask
        while rest:
            low = rest & -rest
            down.append(links[low.bit_length() - 1])
            rest ^= low
        consulted: set[Link] = set()
        rep = simulate_delivery(gs, down, consulted=consulted)
        report.walks += 1
        seen = 0
        for link in consulted:
            seen |= bit.get(link, 0)
        outcomes = rep.outcomes
        dups = sum(1 for o in outcomes.values() if o.copies > 1)
        missed = tuple(v for v, o in outcomes.items() if not o.delivered)
        entry = (seen, rep, dups, missed)
        if mask.bit_count() < max_failures:
            for v, d in outcomes.items():
                outcomes[v] = interned.setdefault(d, d)
            memo[mask] = entry
        return entry

    def tally(rep: DeliveryReport, dups: int) -> None:
        report.duplicates += dups
        report.stray += rep.stray
        if counted:
            report.unmatched += rep.unmatched
        if rep.loop_guard_tripped:
            report.loop_guard_tripped = True

    _, baseline, dups, _ = walk(0)
    if on_case is not None:
        on_case((), baseline)
    report.baseline_ok = baseline.all_delivered and not baseline.loop_guard_tripped
    tally(baseline, dups)
    for k in range(1, max_failures + 1):
        for combo in combinations(links, k):
            failed = 0
            for link in combo:
                failed |= bit[link]
            core = 0
            while True:
                seen, rep, dups, missed = walk(core)
                nxt = failed & seen
                if nxt == core:
                    break
                core = nxt
            report.sets_checked += 1
            tally(rep, dups)
            if on_case is not None:
                on_case(combo, rep)
            for v in missed:
                if expected_deliverable(gs, v, combo):
                    report.unexcused.append(FailureCase(tuple(str(l) for l in combo), v))
                else:
                    report.excused += 1
    return report


# stretch per failover depth ----------------------------------------


def depth_hopcounts(gs: GroupState, max_depth: int | None = None) -> list[float]:
    """Mean delivery hops at each failover depth 0..max_depth.

    Depth k averages over every chain of k nested failures a subscriber is
    protected against: a link on its primary path, then a link on the backup
    path that covers it, and so on. Chains the trees do not cover are left
    out. Raises when a covered chain fails to deliver.
    """
    if max_depth is None:
        max_depth = gs.config.max_failures
    cache: dict[frozenset[Link], DeliveryReport] = {}

    def hops_for(v: str, failed: frozenset[Link]) -> int:
        rep = cache.get(failed)
        if rep is None:
            rep = cache[failed] = simulate_delivery(gs, failed)
        outcome = rep.outcomes[v]
        if not outcome.delivered:
            names = ";".join(str(l) for l in sorted(failed))
            raise DataplaneError(f"covered chain {{{names}}} did not deliver to {v}")
        return outcome.hops or 0

    # per subscriber, the failure set of each covered chain, depth first
    chains = {
        v: [frozenset()] + [down for b, _, down in backup_steps(gs.primary, v) if v in b.terminals]
        for v in sorted(gs.primary.terminals)
    }
    means: list[float] = []
    for depth in range(max_depth + 1):
        samples = [
            hops_for(v, chain)
            for v, covered in chains.items()
            for chain in covered
            if len(chain) == depth
        ]
        means.append(sum(samples) / len(samples) if samples else float("nan"))
    return means


# recovery time -----------------------------------------------------

RECOVERY_MODES = ("ff", "switch", "restore")


@dataclass(frozen=True)
class RecoveryModel:
    """Analytic outage window per repaired cut.

    ff: local failover, done once the switch detects the dead port.
    switch: controller retargets affected groups after one round trip.
    restore: controller recomputes and reinstalls the affected entries.
    """

    mode: str = "ff"
    detection_ms: float = 0.0
    rtt_ms: float = 0.0
    flowmod_ms: float = 1.0
    compute_ms: float = 0.0

    def __post_init__(self) -> None:
        if self.mode not in RECOVERY_MODES:
            raise ValueError(f"unknown recovery mode {self.mode!r}")
        for name in ("detection_ms", "rtt_ms", "flowmod_ms", "compute_ms"):
            _require_nonnegative(name, getattr(self, name))

    def outage_ms(self, affected_groups: int = 1, entries: int = 1) -> float:
        if self.mode == "ff":
            return self.detection_ms
        if self.mode == "switch":
            return self.detection_ms + self.rtt_ms + self.flowmod_ms * affected_groups
        return self.detection_ms + self.rtt_ms + self.compute_ms + self.flowmod_ms * entries


def _require_nonnegative(name: str, value: float) -> None:
    """Reject a duration or rate that is not a finite number >= 0, naming it."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite")
    if value < 0:
        raise ValueError(f"{name} must be >= 0")


@dataclass(frozen=True)
class RecoveryReport:
    mode: str
    cuts: int
    outage_ms: float  # per cut
    packets_lost: int
    packets_sent: int | None  # None without a fixed send window


def simulate_recovery(
    model: RecoveryModel,
    cuts: int = 1,
    rate_hz: float = 120.0,
    duration_ms: float | None = None,
    affected_groups: int = 1,
    entries: int = 1,
) -> RecoveryReport:
    """Packets lost to the outage windows of `cuts` repaired link failures."""
    if cuts < 0:
        raise ValueError("cuts must be >= 0")
    _require_nonnegative("rate_hz", rate_hz)
    if duration_ms is not None:
        _require_nonnegative("duration_ms", duration_ms)
    if affected_groups < 0:
        raise ValueError("affected_groups must be >= 0")
    if entries < 0:
        raise ValueError("entries must be >= 0")
    outage = model.outage_ms(affected_groups=affected_groups, entries=entries)
    window = outage if duration_ms is None else min(outage, duration_ms)
    lost = cuts * math.floor(window * rate_hz / 1000.0)
    sent = None
    if duration_ms is not None:
        sent = math.floor(duration_ms * rate_hz / 1000.0)
        lost = min(lost, sent)
    return RecoveryReport(model.mode, cuts, outage, lost, sent)
