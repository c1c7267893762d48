"""Failure injection against the compiled dataplane.

simulate_delivery pushes one packet from the source through the emulated
switches with a chosen set of links down and reports who got it and which
links' state it read. verify_tolerance sweeps every failure set up to the
configured budget, walking one packet per class of sets that forward alike,
and flags subscribers that should have been reachable (per the installed
backup trees) but were not. A failure set is always the caller's input:
neither the fabric nor a DeliveryReport stores it; inside, it is a mask of
the network's link bits (Network.bit), from the compiled records through the
walk to the sweep. Within a sweep, each set starts from the walk of its
prefix's core (the set less its last link): a set whose added link that
walk never read shares it, and a walk the sweep does make resumes from the
walk of a smaller failure set, keeping the packet copies the added links
leave alone and re-expanding only those they change. The sweep goes prefix
by prefix, so the walks as large as the budget that resume from one
prefix's walk share one pass that sets aside the copies their links may
touch.
depth_hopcounts measures path stretch per failover depth, and the recovery
models turn an outage window into lost packets.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from itertools import combinations
from typing import Callable, Iterable, Iterator, NamedTuple

from .errors import BudgetExceeded, DataplaneError
from .protection import GroupState, require_count
from .topology import Link
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
    read: int = 0  # mask of the links whose state the walk read

    @property
    def all_delivered(self) -> bool:
        return all(o.delivered for o in self.outcomes.values())


def simulate_delivery(gs: GroupState, failed: Iterable[Link] = ()) -> DeliveryReport:
    """Forward one packet from the source with the given links down.

    The packet starts untagged (tag 0) at the source. The walk reads the
    fabric's compiled records (SwitchFabric.compile, cached in
    `gs.fabric.view`) and the `failed` links only; the report does not
    restate them. A link outside the network raises TopologyError. A
    terminal record hands one copy to the switch's host, wires keep the
    packet's tag and a group's first live member stamps its own. The
    report's `read` is the mask of every link whose state the walk read:
    the watch ports of the groups that ran and the wires of the outputs
    taken. Any failure set that agrees with `failed` on those links gives
    the same walk, and an equal report.
    """
    return _walk(gs, gs.net.mask(failed)).report


class _Walk(NamedTuple):
    """A walk as verify_tolerance keeps it, for walks under supersets to resume from."""

    down: int  # mask of the links that were down
    report: DeliveryReport
    # (switch, tag, hops, path, rd) per packet copy, when kept: path is the
    # mask of the links the copy crossed, rd of the links read at it; a copy
    # the loop guard cut has hops > max_hops and reads nothing
    copies: list[tuple[str, int, int, int, int]] | None
    trips: int  # copies the loop guard cut
    dups: int  # subscribers that got more than one copy
    missed: tuple[str, ...]  # subscribers that got none, in outcome order
    # the baseline's link index, when it keeps its copies: link bit -> the
    # positions in copies of those whose path | rd hold it, and link bit ->
    # how many copies' rd hold it
    index: tuple[dict[int, list[int]], dict[int, int]] | None
    # set by the sweep on a prefix's walk for the resumes from it that keep
    # nothing: the copies whose path | rd meet a link those resumes may add,
    # in order, and the OR of the other copies' rd
    aside: tuple[list[tuple[str, int, int, int, int]], int] | None


_new_walk = partial(tuple.__new__, _Walk)


def _walk(gs: GroupState, down: int, base: _Walk | None = None, keep: bool = False) -> _Walk:
    """simulate_delivery with the links of the mask `down` down.

    Without `base` the packet starts untagged at the source. `base` is a
    walk under a subset B of `down` that kept its copies, and the walk
    resumes from it with delta = down & ~B: a copy whose path crosses delta
    is dropped, and every copy below it with it; a copy that read delta runs
    again (a rerun), and emits only what its groups now do differently, as a
    member or live Drop bucket in delta gives way to the next live member;
    every other copy is kept as it is. The report starts from the base's
    counts and outcomes, less what was dropped and plus what the one
    expansion loop adds, and only the subscribers whose host copies changed
    get a new Delivery. `read` is the OR of the reads of the copies kept,
    rerun or added, so it is exactly what a walk from the source reads.
    With `keep` the walk lists its copies for later walks to resume from.

    A walk from the source that keeps its copies (the sweep's baseline) also
    indexes them by link bit: the copies whose path or reads hold the bit,
    and how many copies read it. A resume from the baseline takes the copies
    delta touches from that index instead of scanning every copy, and its
    `read` is the baseline's, less each bit that only dropped copies read
    (a rerun reads at least what it read before), plus what the loop reads.
    A resume that keeps nothing, from a base the sweep gave `aside`, scans
    only the set-aside copies, with `read` starting from the OR of the
    others' reads: delta lies within the links the pass set aside by, so
    every other copy is kept and reads the same. Other resumes scan every
    copy of their base.
    """
    fabric = gs.fabric
    view = fabric.view
    group_key = gs.installer.group_key
    # generous: one traversal of the topology per failover depth
    max_hops = (gs.config.max_failures + 1) * max(len(gs.net.links), 1) + 2
    copies: list[tuple[str, int, int, int, int]] | None = [] if keep else None
    arrived: dict[str, list[int]] = {}
    # (switch, tag, hops, path, fresh) per copy to run: fresh is 0 for a new
    # copy and delta for a rerun; path is only tracked when copies are kept
    queue: deque[tuple[str, int, int, int, int]] = deque()
    seen = 0
    if base is None:
        unmatched = trips = 0
        queue.append((gs.source, 0, 0, 0, 0))
    else:
        delta = down & ~base.down
        unmatched = base.report.unmatched
        trips = base.trips
        lost: dict[str, int] = {}  # host copies dropped, per switch
        gone: dict[int, int] | None = None  # per link bit, the dropped copies that read it
        touched = base.copies
        if base.index is not None:  # the baseline: look up the copies delta touches
            touches, reads = base.index
            at = set()
            m = delta
            while m:
                b = m & -m
                at.update(touches.get(b, ()))
                m ^= b
            at = sorted(at)
            touched = [base.copies[i] for i in at]
            if keep:
                start = 0
                for i in at:
                    copies += base.copies[start:i]
                    start = i + 1
                copies += base.copies[start:]
            seen = base.report.read
            gone = {}
        elif base.aside is not None:  # a prefix's walk, passed over once by the sweep
            touched, seen = base.aside
        for copy in touched:
            switch, tag, hops, path, rd = copy
            if path & delta:
                if hops > max_hops:
                    trips -= 1
                else:
                    matched, terminal, _, _ = view[group_key, switch, tag]
                    if not matched:
                        unmatched -= 1
                    elif terminal:
                        lost[switch] = lost.get(switch, 0) + 1
                if gone is not None:
                    while rd:
                        b = rd & -rd
                        gone[b] = gone.get(b, 0) + 1
                        rd ^= b
            elif rd & delta:
                queue.append((switch, tag, hops, path, delta))
            else:  # untouched, met only by a scan
                seen |= rd
                if keep:
                    copies.append(copy)
        if gone:
            # a bit only dropped copies read is gone; reruns read at least
            # what they read before, and the loop below adds what they read now
            for b, n in gone.items():
                if reads[b] == n:
                    seen &= ~b
    rd = 0  # links read since the last copy was kept: per copy when keep, else the walk's
    while queue:
        switch, tag, hops, path, fresh = queue.popleft()
        if hops > max_hops:
            trips += 1
            if keep:
                copies.append((switch, tag, hops, path, 0))
            continue
        key = (group_key, switch, tag)
        record = view.get(key)
        if record is None:
            record = view[key] = fabric.compile(switch, group_key, tag)
        matched, terminal, wires, groups = record
        if not matched:
            unmatched += 1
            if keep:
                copies.append((switch, tag, hops, path, 0))
            continue
        if terminal and not fresh:  # a rerun's host copy is already counted
            arrived.setdefault(switch, []).append(hops)
        nxt = hops + 1
        for b, peer, out_tag in wires:
            rd |= b
            # plain outputs do not watch liveness; a dead wire eats the copy
            if not (fresh or b & down):
                queue.append((peer, out_tag, nxt, path | b if keep else 0, 0))
        for drops, members in groups:
            # first live bucket wins; a live inherited Drop bucket consumes the packet.
            # A rerun takes only what a link of `fresh` failed over to.
            new = not fresh
            for b in drops:
                rd |= b
                if not b & down:
                    break
                new = new or b & fresh
            else:
                for b, peer, out_tag in members:
                    rd |= b
                    if b & down:
                        new = new or b & fresh
                        continue
                    if new:
                        queue.append((peer, out_tag, nxt, path | b if keep else 0, 0))
                    break
        if keep:
            copies.append((switch, tag, hops, path, rd))
            seen |= rd
            rd = 0
    seen |= rd
    index = None
    if base is None:
        if keep:
            touches = {}
            reads = {}
            for i, (_, _, _, path, rd) in enumerate(copies):
                m = path | rd
                while m:
                    b = m & -m
                    touches.setdefault(b, []).append(i)
                    m ^= b
                while rd:
                    b = rd & -rd
                    reads[b] = reads.get(b, 0) + 1
                    rd ^= b
            index = (touches, reads)
        outcomes = {}
        missed = []
        hosts = sum(map(len, arrived.values()))
        for v in sorted(gs.primary.terminals):
            hits = arrived.pop(v, None)
            if hits:
                # the queue is FIFO and every hop adds one, so the first copy is the nearest
                outcomes[v] = _delivery((v, True, hits[0], len(hits)))
            else:
                outcomes[v] = _delivery((v, False, None, 0))
                missed.append(v)
        stray = sum(map(len, arrived.values()))
        missed = tuple(missed)
        # every subscriber got at most one copy unless the host copies outnumber those served
        dups = 0
        if hosts - stray > len(outcomes) - len(missed):
            dups = sum(1 for o in outcomes.values() if o.copies > 1)
    else:
        outcomes = dict(base.report.outcomes)
        stray = base.report.stray
        dups = base.dups
        missed = base.missed
        flipped = False
        for v in arrived.keys() | lost:
            hits = arrived.get(v, [])
            dropped = lost.get(v, 0)
            old = outcomes.get(v)
            if old is None:
                stray += len(hits) - dropped
                continue
            count = old.copies - dropped + len(hits)
            if old.copies > dropped:  # the nearest of the base's host copies that are kept
                hits.append(old.hops if not dropped else min(
                    h for s, t, h, p, _ in base.copies
                    if s == v and not p & delta and h <= max_hops and view[group_key, s, t][1]
                ))
            outcomes[v] = _delivery((v, True, min(hits), count) if count else (v, False, None, 0))
            dups += (count > 1) - (old.copies > 1)
            flipped |= bool(count) != old.delivered
        if flipped:
            missed = tuple(v for v, o in outcomes.items() if not o.delivered)
    report = DeliveryReport(outcomes, unmatched, stray, trips > 0, seen)
    return _new_walk((down, report, copies, trips, dups, missed, index, None))


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
    walks: int = 0  # masks walked: every core, plus the candidate cores the sweep rejected

    @property
    def ok(self) -> bool:
        return (self.baseline_ok and not self.unexcused and not self.loop_guard_tripped
                and not self.duplicates and not self.stray and not self.unmatched)


def expected_deliverable(gs: GroupState, v: str, failed: Iterable[Link]) -> bool:
    """Whether the installed trees structurally cover v for this failure set.

    A link outside the network raises TopologyError.
    """
    return _covered(gs.primary, v, gs.net.mask(failed), gs.net.bit)


def _covered(tree: MulticastTree, v: str, down: int, bit: dict[tuple[str, str], int]) -> bool:
    if v not in tree.terminals:
        return False
    for edge in tree.path_to(v):
        if bit[edge] & down:
            b = tree.backup.get(edge)
            return b is not None and _covered(b, v, down, bit)
    return True


def _cores(
    gs: GroupState, links: list[Link], max_failures: int, report: ToleranceReport
) -> Iterator[tuple[tuple[Link, ...], int, _Walk]]:
    """Yield (failed, mask, walk of its core) for the baseline and every set
    of 1..max_failures links, in `combinations` order; count walks in report.

    `links` is sorted(gs.net.links), so bit i of a mask is links[i]
    (Network.bit). The baseline comes first, as ((), 0, its walk); then the
    sets go prefix by prefix: each set of k - 1 links extended by every link
    after its last one. A walk under T reads the state of the links W(T)
    only, so T forwards exactly like its core T & W(T). Any C inside T with
    T & W(C) == C is T's core: the walk under C never reads a link of
    T \\ C, so the walk under T meets the same link states at every step,
    is the walk under C, and reads W(C).
    Each set T is taken from its prefix P, T less its last link b: the pass
    over P's size kept the walk of P's core C_P (the baseline when P is
    empty). Since P & W(C_P) == C_P, T & W(C_P) is C_P plus b if that walk
    read b. If it did not, T shares C_P's walk. Else the candidate
    C = C_P | b is taken from the memo or resumed from C_P's walk, and is
    T's core when T & W(C) == C. When it is not, the fixpoint C <- T & W(C)
    from C = {} finds the core: C stays inside T, so the walks under C and T
    read the same links up to the first link of T \\ C they meet, which the
    next step adds; the steps stop at T & W(T). Each new core of that chain
    resumes from the memoised walk of it less one link with the most
    copies, else from the baseline, and a chain that reaches the rejected
    candidate takes its walk, so no mask is walked twice.
    In the last pass (budget two or more), a prefix that is its own core
    makes one pass over its copies first: it sets aside those whose path or
    reads meet the links its walk read after its last one, and ORs the
    reads of the rest, which none of its extensions touches; each
    extension that resumes from it scans only the set-aside copies.
    Only walks under sets smaller than the budget are memoised (a core as
    large as the budget is the one set it stands for, and nothing resumes
    from it), so the memo holds at most sum(comb(links, k) for k < budget)
    walks.
    """
    memo: dict[int, _Walk] = {}

    def walk(mask: int, base: _Walk | None) -> _Walk:
        """The walk with the links of mask down, resumed from base, memoised."""
        keep = mask.bit_count() < max_failures
        w = _walk(gs, mask, base, keep)
        report.walks += 1
        if keep:
            memo[mask] = w
        return w

    root = walk(0, None)
    yield (), 0, root
    bit = gs.net.bit
    size = lambda m: len(m.copies)
    prefixes = [root]  # the walks of the cores of the sets one link smaller, in combinations order
    for k in range(1, max_failures + 1):
        grown = [] if k < max_failures else None
        for head, wp in zip(combinations(links, k - 1), prefixes):
            prefix = gs.net.mask(head)
            start = prefix.bit_length()  # bit i is link i: the extensions add links start..
            base = wp
            if grown is None and k > 1 and wp.down == prefix:
                # every extension whose link wp read resumes from wp and keeps
                # nothing: set aside, once, the copies such a link may touch
                wide = wp.report.read & -(1 << start)
                aside = []
                rest = 0
                for copy in wp.copies:
                    _, _, _, path, rd = copy
                    if (path | rd) & wide:
                        aside.append(copy)
                    else:
                        rest |= rd
                base = _new_walk((*wp[:-1], (aside, rest)))
            for l in links[start:]:
                b = bit[l]
                failed = prefix | b
                combo = head + (l,)
                w = wp
                if w.report.read & b:
                    core = w.down | b
                    w = memo.get(core) or walk(core, base)
                    if failed & w.report.read != core:
                        # the fixpoint C <- failed & W(C) from the baseline; a new
                        # core resumes from the largest memoised walk one link
                        # smaller, or else from the root, unless it is the candidate
                        rejected, w = w, root
                        while (core := failed & w.report.read) != w.down:
                            w = rejected if core == rejected.down else memo.get(core) or walk(core, max(
                                (m for x in combo if (c := bit[x]) & core and (m := memo.get(core ^ c))),
                                key=size, default=root))
                if grown is not None:
                    grown.append(w)
                yield combo, failed, w
        prefixes = grown


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
    set with the set and the DeliveryReport of its core, the links of the
    set the walk read. Only cores are walked (_cores), and sets with the
    same core share that report object, so the callback must treat it as
    read-only.
    """
    if max_failures is None:
        max_failures = gs.config.max_failures
    require_count("max_failures", max_failures)
    if max_sets is not None:
        require_count("max_sets", max_sets)
    links = sorted(gs.net.links)
    max_failures = min(max_failures, len(links))  # no failure set is larger than the network
    total = sum(math.comb(len(links), k) for k in range(1, max_failures + 1))
    if max_sets is not None and total > max_sets:
        raise BudgetExceeded(f"{total} failure sets exceed the cap of {max_sets}")
    report = ToleranceReport(sets_checked=total)
    bit = gs.net.bit
    duplicates = stray = unmatched = 0
    for combo, failed, w in _cores(gs, links, max_failures, report):
        rep = w.report
        duplicates += w.dups
        stray += rep.stray
        unmatched += rep.unmatched
        if rep.loop_guard_tripped:
            report.loop_guard_tripped = True
        if on_case is not None:
            on_case(combo, rep)
        if not combo:
            report.baseline_ok = rep.all_delivered and not rep.loop_guard_tripped
            continue
        for v in w.missed:
            if _covered(gs.primary, v, failed, bit):
                report.unexcused.append(FailureCase(tuple(str(l) for l in combo), v))
            else:
                report.excused += 1
    report.duplicates = duplicates
    report.stray = stray
    if gs.primary.terminals:  # an empty group's packet is unmatched by design
        report.unmatched = unmatched
    return report


# stretch per failover depth ----------------------------------------


def depth_hopcounts(gs: GroupState) -> list[float]:
    """Mean delivery hops at each failover depth, up to the budget or the link count.

    Depth k averages over every chain of k nested failures a subscriber is
    protected against: a link on its primary path, then a link on the backup
    path that covers it, and so on. Chains the trees do not cover are left
    out; a depth without one is NaN. A tree that reaches the subscriber stands
    for the chain in its down set. Raises at the first covered chain, in
    subscriber order, that fails to deliver.
    """
    cache: dict[frozenset[Link], DeliveryReport] = {}
    samples: list[list[int]] = [[] for _ in range(min(gs.config.max_failures, len(gs.net.links)) + 1)]
    for v in sorted(gs.primary.terminals):
        for t in (gs.primary, *backup_steps(gs.primary, v)):
            if v not in t.terminals:
                continue
            if t.down not in cache:
                cache[t.down] = simulate_delivery(gs, t.down)
            outcome = cache[t.down].outcomes[v]
            if not outcome.delivered:
                names = ";".join(str(l) for l in sorted(t.down))
                raise DataplaneError(f"covered chain {{{names}}} did not deliver to {v}")
            samples[len(t.down)].append(outcome.hops or 0)
    return [sum(s) / len(s) if s else float("nan") for s in samples]


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
        """The outage window of one cut; a negative count or infinite window raises ValueError."""
        if affected_groups < 0:
            raise ValueError("affected_groups must be >= 0")
        if entries < 0:
            raise ValueError("entries must be >= 0")
        try:
            if self.mode == "ff":
                outage = self.detection_ms
            elif self.mode == "switch":
                outage = self.detection_ms + self.rtt_ms + self.flowmod_ms * affected_groups
            else:
                outage = (self.detection_ms + self.rtt_ms + self.compute_ms
                          + self.flowmod_ms * entries)
        except OverflowError:  # an int count too large for a float
            outage = math.inf
        _require_nonnegative("the outage window", outage)
        return outage


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
    """Packets lost to the outage windows of `cuts` repaired link failures.
    An outage window or packet count that is not finite raises ValueError."""
    if cuts < 0:
        raise ValueError("cuts must be >= 0")
    _require_nonnegative("rate_hz", rate_hz)
    if duration_ms is not None:
        _require_nonnegative("duration_ms", duration_ms)
    outage = model.outage_ms(affected_groups=affected_groups, entries=entries)
    window = outage if duration_ms is None else min(outage, duration_ms)
    lost = cuts * _packets(window, rate_hz)
    sent = None
    if duration_ms is not None:
        sent = _packets(duration_ms, rate_hz)
        lost = min(lost, sent)
    return RecoveryReport(model.mode, cuts, outage, lost, sent)


def _packets(ms: float, rate_hz: float) -> int:
    """Whole packets sent at rate_hz in ms milliseconds."""
    count = ms * rate_hz / 1000.0
    _require_nonnegative("the packet count", count)
    return math.floor(count)
