"""One iteration of a benchmark workload, in a process of its own.

    python3 perfbench/workload.py --workload grid-join --seed 7 --trace 0

The process imports ffmcast from the checkout's src/, builds the workload's
topology and operation list from the seed (the set-up), then runs the
operations back to back from a single thread, the way a controller handles
events serially (the timed phase). It prints one JSON object as its last
line of output.

--part setup stops at the first timed operation and --part build before the
first verify, so that short phases can be sampled more often than a whole
iteration fits. --light skips the untimed checks that only need to run once
per seed: on geant-churn, the final sweep of every group, and, for the
default seed, the delivery-row digest that is compared with the pinned one.
The row digest is computed inside verify callbacks, whose time is measured
and subtracted from the timed phase.

Times are reported in reference seconds (see Meter), host seconds beside
them under host_*.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import random
import resource
import statistics
import sys
import time
import traceback
from collections import deque
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("grid-join", "geant-verify", "geant-churn")
DEFAULT_SEED = 7

GRID_SIDE = 12
GRID_FAILURES = 2
GRID_VERIFY_FAILURES = 1
# grid-join's verify is short (264 sets, about 0.4 s against some 9 s of
# joins), so an untraced iteration runs it this many more times on the final
# state after the timed phase: check_sets_per_s then has several samples per
# iteration instead of one, spread over the run.
GRID_VERIFY_REPEATS = 4
GEANT_SOURCE = "AT"
GEANT_FAILURES = 3
CHURN_SOURCES = ("AT", "DE1", "FR1", "UK")
CHURN_FAILURES = 2
CHURN_OPS = 2000
# 45% joins, 35% leaves, 20% injections. Each group draws its operations in
# shuffled blocks of this mix, so its size follows the same course for every
# seed; the seed decides the order, the members and the links. (Independent
# draws let group sizes wander with the seed, and the cost of an injection
# grows with the group.)
CHURN_BLOCK = ("join",) * 9 + ("leave",) * 7 + ("inject",) * 4

CSV_HEADER = ["failure_set", "subscriber", "delivered", "hopcount", "duplicates"]


def import_ffmcast():
    """Import the package from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import ffmcast

    if Path(ffmcast.__file__).resolve().parent != SRC / "ffmcast":
        raise ImportError(f"ffmcast imported from {ffmcast.__file__}, not from {SRC}")
    return ffmcast


def grid_document(side: int) -> dict:
    """side x side grid, switches g0000.. in row-major order."""
    names = [f"g{i:04d}" for i in range(side * side)]
    links = []
    for r in range(side):
        for c in range(side):
            i = r * side + c
            if c + 1 < side:
                links.append([names[i], names[i + 1]])
            if r + 1 < side:
                links.append([names[i], names[i + side]])
    return {"nodes": names, "links": links}


# The reference kernel: a breadth-first walk over (switch, tag) states of a
# REFERENCE_SIDE x REFERENCE_SIDE grid whose switches forward by table
# lookup. It is the same kind of Python work as ffmcast's forwarding and
# path search (tuple-keyed dict lookups, attribute access, isinstance
# dispatch, method calls, a queue) but shares no code with it. On the host
# it was tuned on it tracked the speed of verify and join work about twice
# as closely as a plain breadth-first search over a dict of lists.
REFERENCE_SIDE = 15
REFERENCE_TAGS = 4
# Host seconds per kernel run at the speed reference seconds stand for: a
# round figure near the kernel's median on a quiet 2-vCPU x86-64 cloud host
# with Python 3.11.
REFERENCE_KERNEL_S = 0.001
KERNEL_RUNS_PER_PROBE = 3
WARMUP_KERNEL_RUNS = 20
PROBE_EVERY_S = 0.1


class _Hop:
    __slots__ = ("to", "tag")

    def __init__(self, to: "_Switch", tag: int) -> None:
        self.to = to
        self.tag = tag


class _Drop:
    __slots__ = ()


class _Switch:
    def __init__(self, name: str) -> None:
        self.name = name
        self.table: dict[tuple[str, int], list] = {}

    def step(self, tag: int) -> list[tuple["_Switch", int]]:
        out = []
        for action in self.table.get(("g", tag), ()):
            if isinstance(action, _Hop):
                out.append((action.to, action.tag))
            elif isinstance(action, _Drop):
                return []
        return out


def reference_network(side: int = REFERENCE_SIDE) -> _Switch:
    """Every switch forwards each tag to all its grid neighbours, with the tag
    shifted per port; one table entry in 17 ends in a drop. Returns the middle
    switch, where the walk starts."""
    doc = grid_document(side)
    switches = {v: _Switch(v) for v in doc["nodes"]}
    adj: dict[str, list[str]] = {v: [] for v in doc["nodes"]}
    for a, b in doc["links"]:
        adj[a].append(b)
        adj[b].append(a)
    for i, v in enumerate(doc["nodes"]):
        for t in range(REFERENCE_TAGS):
            actions: list = [_Hop(switches[w], (t + j) % REFERENCE_TAGS) for j, w in enumerate(adj[v])]
            if (i + t) % 17 == 0:
                actions.append(_Drop())
            switches[v].table[("g", t)] = actions
    return switches[doc["nodes"][side * side // 2]]


def reference_kernel(src: _Switch) -> int:
    """Number of (switch, tag) states reachable from (src, 0)."""
    seen = {(src.name, 0)}
    queue = deque([(src, 0)])
    while queue:
        switch, tag = queue.popleft()
        for nxt, t in switch.step(tag):
            key = (nxt.name, t)
            if key not in seen:
                seen.add(key)
                queue.append((nxt, t))
    return len(seen)


class Meter:
    """The timed phase's clock, in host seconds and in reference seconds.

    The shared host's speed swings by half or more within minutes, and CPU
    time swings with it, so host seconds of runs made minutes apart differ
    more than any bound worth setting. Reference seconds take that swing
    out: every stretch of timed work is charged its host seconds times
    REFERENCE_KERNEL_S over the latest probe, a timing of the reference
    kernel. The kernel touches nothing of ffmcast, so a change to the
    program moves reference seconds and a change of host speed does not.
    Probes run while the clock is paused, at most PROBE_EVERY_S of timed
    work apart.
    """

    def __init__(self) -> None:
        self.host_s = 0.0
        self.ref_s = 0.0
        self._source = reference_network()
        for _ in range(WARMUP_KERNEL_RUNS):
            reference_kernel(self._source)
        self.probes: list[float] = []
        self._probe()
        self._start = 0.0

    def _probe(self) -> None:
        """Host seconds of one kernel run, the median of a few."""
        clock = time.perf_counter
        runs = []
        for _ in range(KERNEL_RUNS_PER_PROBE):
            t = clock()
            reference_kernel(self._source)
            runs.append(clock() - t)
        self.probes.append(statistics.median(runs))
        self._scale = REFERENCE_KERNEL_S / self.probes[-1]
        self._since_probe = 0.0

    def resume(self) -> None:
        self._start = time.perf_counter()

    def pause(self) -> None:
        dt = time.perf_counter() - self._start
        self.host_s += dt
        self.ref_s += dt * self._scale
        self._since_probe += dt

    def probe_if_due(self) -> None:
        if self._since_probe >= PROBE_EVERY_S:
            self._probe()


def make_plan(ffm, workload: str, seed: int):
    """Topology, groups and operation list; ops are (kind, group, arg)."""
    from ffmcast.protection import GroupState, ProtectionConfig

    rng = random.Random(seed)
    if workload == "grid-join":
        net = ffm.load_topology(grid_document(GRID_SIDE))
        gs = GroupState(net, "g0000", ProtectionConfig("spt", GRID_FAILURES))
        order = [v for v in net.nodes if v != gs.source]
        rng.shuffle(order)
        ops = [("join", 0, v) for v in order] + [("verify", 0, GRID_VERIFY_FAILURES)]
        return net, [gs], ops
    if workload == "geant-verify":
        net = ffm.geant()
        gs = GroupState(net, GEANT_SOURCE, ProtectionConfig("spt", GEANT_FAILURES))
        order = [v for v in net.nodes if v != gs.source]
        rng.shuffle(order)
        ops = [("join", 0, v) for v in order] + [("verify", 0, GEANT_FAILURES)]
        return net, [gs], ops
    if workload == "geant-churn":
        net = ffm.geant()
        fabric = ffm.SwitchFabric(net)
        config = ProtectionConfig("spt", CHURN_FAILURES)
        groups = [GroupState(net, s, config, fabric=fabric) for s in CHURN_SOURCES]
        per_group = CHURN_OPS // len(groups)
        kinds = []
        for _ in groups:
            stream: list[str] = []
            while len(stream) < per_group:
                block = list(CHURN_BLOCK)
                rng.shuffle(block)
                stream.extend(block)
            kinds.append(iter(stream[:per_group]))
        order = [g for g in range(len(groups)) for _ in range(per_group)]
        rng.shuffle(order)
        members: list[set[str]] = [set() for _ in groups]
        links = sorted(net.links)
        ops = []
        for g in order:
            kind = next(kinds[g])
            outside = sorted(set(net.nodes) - members[g] - {groups[g].source})
            if kind == "join" and not outside or kind == "leave" and not members[g]:
                kind = "leave" if kind == "join" else "join"
            if kind == "join":
                v = rng.choice(outside)
                members[g].add(v)
            elif kind == "leave":
                v = rng.choice(sorted(members[g]))
                members[g].discard(v)
            else:
                v = tuple(sorted(rng.sample(links, rng.randint(1, 2))))
            ops.append((kind, g, v))
        return net, groups, ops
    raise ValueError(f"unknown workload {workload!r}")


class RowsDigest:
    """SHA-256 of the deliveries CSV that `verify --out` / `run` would write."""

    def __init__(self, delivery_rows) -> None:
        self._hash = hashlib.sha256()
        self._rows = delivery_rows
        self._writer = csv.writer(self)
        self._writer.writerow(CSV_HEADER)

    def write(self, text: str) -> None:
        self._hash.update(text.encode("utf-8"))

    def add(self, failed, report) -> None:
        self._writer.writerows(self._rows(failed, report))

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def percentile(samples: list[float], q: int) -> float | None:
    """q-th percentile (inclusive method), None without samples."""
    if not samples:
        return None
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def run_ops(ffm, groups, ops, rows: RowsDigest | None, meter: Meter, tracer=None) -> dict:
    """The timed phase: every operation back to back, failures counted."""
    from ffmcast import failsim, protection

    span = tracer.span if tracer else (lambda op_id, kind: nullcontext())
    hide = tracer.hidden if tracer else nullcontext
    tripped_sets: set[tuple[str, ...]] = set()

    def on_case(failed, report) -> None:
        with hide():
            meter.pause()
            if report.loop_guard_tripped:
                tripped_sets.add(tuple(str(l) for l in failed))
            if rows is not None:
                rows.add(failed, report)
            meter.probe_if_due()
            meter.resume()

    out = {
        "attempted": 0, "failed": 0, "unexcused": 0, "loop_guard_trips": 0,
        "joins": 0, "leaves": 0, "check_sets": 0, "verifies": 0,
        "build_s": 0.0, "check_s": 0.0, "host_build_s": 0.0, "host_check_s": 0.0,
        "tolerance": [], "injections": [], "errors": [], "problems": [],
    }
    join_ms: list[float] = []
    leave_ms: list[float] = []
    for op_id, (kind, g, arg) in enumerate(ops):
        gs = groups[g]
        ok = True
        host_before, ref_before = meter.host_s, meter.ref_s
        with span(op_id, kind):
            meter.resume()
            try:
                if kind == "join":
                    ok = protection.protect_join(gs, arg)
                elif kind == "leave":
                    protection.protect_leave(gs, arg)
                elif kind == "inject":
                    rep = failsim.simulate_delivery(gs, arg)
                    missed = sum(
                        1 for v, o in rep.outcomes.items()
                        if not o.delivered and failsim.expected_deliverable(gs, v, arg)
                    )
                    out["unexcused"] += missed
                    out["loop_guard_trips"] += rep.loop_guard_tripped
                    ok = not missed and not rep.loop_guard_tripped
                    out["injections"].append((arg, rep))
                else:
                    tripped_sets.clear()
                    rep = failsim.verify_tolerance(gs, max_failures=arg, on_case=on_case)
                    bad = tripped_sets | {case.failed for case in rep.unexcused}
                    out["unexcused"] += len(rep.unexcused)
                    out["loop_guard_trips"] += len(tripped_sets)
                    out["attempted"] += rep.sets_checked  # plus the baseline, below
                    out["failed"] += len(bad) + (not rep.baseline_ok)
                    out["check_sets"] += rep.sets_checked
                    out["verifies"] += 1
                    out["tolerance"].append([rep.sets_checked, rep.excused, rep.ok])
            except Exception:  # a failed operation is counted, never fatal
                ok = False
                out["errors"].append(f"op {op_id} {kind} {arg!r}: {traceback.format_exc()}")
            meter.pause()
        meter.probe_if_due()
        dt = meter.ref_s - ref_before
        host_dt = meter.host_s - host_before
        out["attempted"] += 1
        out["failed"] += not ok
        if kind in ("join", "leave"):
            out[f"{kind}s"] += 1
            out["build_s"] += dt
            out["host_build_s"] += host_dt
            if ok:  # a failed update has no latency, it counts in "failed"
                (join_ms if kind == "join" else leave_ms).append(dt * 1000.0)
        else:
            out["check_s"] += dt
            out["host_check_s"] += host_dt
            out["check_sets"] += kind == "inject"
    out["wall_s"] = meter.ref_s
    out["check_rates"] = [out["check_sets"] / out["check_s"]] if out["check_s"] else []
    out["host_wall_s"] = meter.host_s
    out["probes"] = len(meter.probes)
    out["probe_ms"] = statistics.median(meter.probes) * 1000.0
    for name, samples in (("join", join_ms), ("leave", leave_ms)):
        out[f"{name}_samples"] = len(samples)
        out[f"{name}_p50_ms"] = percentile(samples, 50)
        out[f"{name}_p90_ms"] = percentile(samples, 90)
    return out


def verify_again(groups, ops, result: dict, meter: Meter, times: int) -> None:
    """Untimed for wall_s: repeat the verifies of ops on the final state, adding check rates."""
    from ffmcast import failsim

    def on_case(failed, report) -> None:
        meter.pause()
        meter.probe_if_due()
        meter.resume()

    verifies = [(g, arg) for kind, g, arg in ops if kind == "verify"]
    for _ in range(times):
        for (g, arg), first in zip(verifies, result["tolerance"]):
            before = meter.ref_s
            meter.resume()
            rep = failsim.verify_tolerance(groups[g], max_failures=arg, on_case=on_case)
            meter.pause()
            meter.probe_if_due()
            result["check_rates"].append(rep.sets_checked / (meter.ref_s - before))
            if [rep.sets_checked, rep.excused, rep.ok] != first:
                result["problems"].append("a repeated verify differs from the first")


def check_final_state(ffm, groups, result: dict, rows: RowsDigest | None) -> None:
    """Untimed: on churn, every group's final state must survive every failure set up to F."""
    if rows is not None:
        for failed, rep in result["injections"]:
            rows.add(failed, rep)
    if len(groups) == 1:
        return
    for gs in groups:
        rep = ffm.verify_tolerance(gs, on_case=rows.add if rows is not None else None)
        result["tolerance"].append([rep.sets_checked, rep.excused, rep.ok])
        if not rep.ok:
            result["problems"].append(f"final verify of {gs.source}: {len(rep.unexcused)} unexcused misses")


def state_counts(groups, result: dict) -> dict:
    fabric = groups[0].fabric
    joins = result["joins"]
    return {
        "protection.tags": sum(gs.tags_allocated for gs in groups),
        "protection.unprotected": sum(len(gs.unprotected) for gs in groups),
        "protection.attaches_per_join": sum(gs.join_calls for gs in groups) / joins if joins else 0.0,
        "dataplane.flows": fabric.total_flows(),
        "dataplane.groups": fabric.total_groups(),
    }


def layer_metrics(tracer, result: dict) -> dict:
    """Counts, and times in reference seconds at the run's mean host speed."""
    stats = tracer.stats
    scale = result["wall_s"] / result["host_wall_s"]
    out = {}
    for key, (calls, busy, self_s) in stats.items():
        out[f"{key}.calls"] = calls
        out[f"{key}.busy_s"] = busy * scale
        out[f"{key}.self_s"] = self_s * scale
    for layer, self_s in tracer.layer_self_s().items():
        out[f"{layer}.self_s"] = self_s * scale
    joins, applies = stats["trees.join"][0], stats["trees.apply_path"][0]
    out["trees.join.refused"] = joins - applies  # _attach applies every path join returns
    walks = stats["failsim.simulate_delivery"][0]
    # every verify also walks the baseline (no links down)
    out["failsim.walks_per_set"] = walks / (result["check_sets"] + result["verifies"]) if walks else 0.0
    out["dataplane.forward_per_walk"] = stats["dataplane.forward"][0] / walks if walks else 0.0
    return out


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--part", choices=("setup", "build", "all"), default="all")
    p.add_argument("--light", action="store_true", help="skip the once-per-seed checks")
    args = p.parse_args(argv)

    ffm = import_ffmcast()
    from ffmcast.harness import delivery_rows

    net, groups, ops = make_plan(ffm, args.workload, args.seed)
    if args.part == "build":
        ops = [op for op in ops if op[0] != "verify"]
    full = args.part == "all" and not args.light
    # only the default seed has pinned rows to compare with
    rows = RowsDigest(delivery_rows) if full and args.seed == DEFAULT_SEED else None
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    timed_start = time.perf_counter()
    meter = Meter()  # its first probe also times the end of the set-up
    if args.part == "setup":
        print(json.dumps({"part": args.part, "timed_start": timed_start,
                          "setup_probe_s": meter.probes[0]}))
        return 0
    try:
        result = run_ops(ffm, groups, ops, rows, meter, tracer)
    finally:
        if tracer:
            tracer.uninstall()
    if args.workload == "grid-join" and args.part == "all" and not tracer:
        verify_again(groups, ops, result, meter, GRID_VERIFY_REPEATS)
    result["part"] = args.part
    result["timed_start"] = timed_start
    result["setup_probe_s"] = meter.probes[0]
    result["digests"] = {
        "dump": hashlib.sha256(groups[0].fabric.dump().encode("utf-8")).hexdigest(),
    }
    if full:
        check_final_state(ffm, groups, result, rows)
        result["digests"]["tolerance"] = hashlib.sha256(
            json.dumps(result["tolerance"]).encode("utf-8")).hexdigest()
    if rows is not None:
        result["digests"]["rows"] = rows.hexdigest()
    del result["injections"]
    result["state"] = state_counts(groups, result)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        result["layers"] = layer_metrics(tracer, result)
        result["spans"] = tracer.spans
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
