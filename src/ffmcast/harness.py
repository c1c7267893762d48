"""Scenario driver: membership scripts, replayed joins, metrics, CSV output.

A scenario is a JSON object {"source": node, "events": [{"op": ..., "arg": ...}]}
with ops join, leave (arg: node), fail, restore (arg: link "a-b"), inject
(send one packet under the current link state) and wait (accepted, ignored;
the model has no clock). The link state belongs to the run: fail and restore
edit a set of down links that run_scenario keeps, and inject hands it to the
walk. Metrics are snapshotted before the first event and after every
membership change.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

from .errors import TopologyError
from .failsim import DeliveryReport, depth_hopcounts, simulate_delivery
from .protection import GroupState, ProtectionConfig, protect_join, protect_leave
from .topology import Link, Network, complete_graph, geant

EVENT_OPS = ("join", "leave", "fail", "restore", "inject", "wait")


@dataclass(frozen=True)
class Event:
    op: str
    arg: str | None = None


@dataclass(frozen=True)
class Scenario:
    source: str
    events: tuple[Event, ...]


def load_scenario(source: Mapping | str | Path) -> Scenario:
    if isinstance(source, (str, Path)):
        with open(source, encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except ValueError as exc:  # bad JSON or bytes that are not UTF-8
                raise ValueError(f"scenario file is not valid JSON: {exc}") from exc
    else:
        data = source
    if not isinstance(data, Mapping):
        raise ValueError("scenario must be a JSON object")
    extra = set(data) - {"source", "events"}
    if extra:
        raise ValueError(f"unexpected scenario keys: {sorted(extra)}")
    src = data.get("source")
    if not isinstance(src, str) or not src:
        raise ValueError("scenario needs a non-empty 'source'")
    raw_events = data.get("events", [])
    if not isinstance(raw_events, list):
        raise ValueError("scenario 'events' must be a list")
    events = []
    for i, raw in enumerate(raw_events):
        if not isinstance(raw, Mapping) or "op" not in raw:
            raise ValueError(f"event {i} needs an 'op'")
        op = raw["op"]
        if op not in EVENT_OPS:
            raise ValueError(f"event {i}: unknown op {op!r}")
        arg = raw.get("arg")
        if op in ("join", "leave", "fail", "restore") and not isinstance(arg, str):
            raise ValueError(f"event {i}: op {op!r} needs a string 'arg'")
        events.append(Event(op, arg if isinstance(arg, str) else None))
    return Scenario(src, tuple(events))


def parse_link(net: Network, name: str) -> Link:
    """Resolve a link named 'a-b' against the topology."""
    for i, ch in enumerate(name):
        if ch != "-":
            continue
        a, b = name[:i], name[i + 1 :]
        if a and b and a in net and b in net:
            link = Link(a, b)
            if link in net.links:
                return link
    raise TopologyError(f"unknown link {name!r}")


# metrics -----------------------------------------------------------


@dataclass(frozen=True)
class MetricsSnapshot:
    index: int
    event: str
    subscribers: int
    tags: int
    flows_total: int
    groups_total: int
    join_calls: int
    flows_by_switch: tuple[tuple[str, int], ...]
    groups_by_switch: tuple[tuple[str, int], ...]


def take_snapshot(gs: GroupState, index: int, event: str) -> MetricsSnapshot:
    flows = gs.fabric.flow_counts()
    groups = gs.fabric.group_counts()
    return MetricsSnapshot(
        index=index,
        event=event,
        subscribers=len(gs.primary.terminals),
        tags=gs.tags_allocated,
        flows_total=sum(flows.values()),
        groups_total=sum(groups.values()),
        join_calls=gs.join_calls,
        flows_by_switch=tuple((n, c) for n, c in sorted(flows.items()) if c),
        groups_by_switch=tuple((n, c) for n, c in sorted(groups.items()) if c),
    )


@dataclass
class RunResult:
    gs: GroupState
    snapshots: list[MetricsSnapshot] = field(default_factory=list)
    injections: list[tuple[tuple[Link, ...], DeliveryReport]] = field(default_factory=list)
    rejected_joins: list[str] = field(default_factory=list)


def run_scenario(net: Network, scenario: Scenario, config: ProtectionConfig | None = None) -> RunResult:
    gs = GroupState(net, scenario.source, config)
    result = RunResult(gs)
    result.snapshots.append(take_snapshot(gs, 0, "init"))
    down: set[Link] = set()
    for event in scenario.events:
        if event.op == "join":
            if not protect_join(gs, event.arg):
                result.rejected_joins.append(event.arg)
            result.snapshots.append(take_snapshot(gs, len(result.snapshots), f"join:{event.arg}"))
        elif event.op == "leave":
            protect_leave(gs, event.arg)
            result.snapshots.append(take_snapshot(gs, len(result.snapshots), f"leave:{event.arg}"))
        elif event.op == "fail":
            down.add(parse_link(net, event.arg))
        elif event.op == "restore":
            down.discard(parse_link(net, event.arg))
        elif event.op == "inject":
            failed = tuple(sorted(down))
            result.injections.append((failed, simulate_delivery(gs, failed)))
        # wait: nothing to advance
    return result


# replayed join sweeps ----------------------------------------------

PRESETS = ("complete", "geant")


@dataclass(frozen=True)
class GeoreplayResult:
    preset: str
    strategy: str
    max_failures: int
    source: str
    subscribers: int
    repetitions: int
    depths: tuple[tuple[float, ...], ...]  # per repetition, indexed by depth
    mean_depths: tuple[float, ...]
    tags: tuple[int, ...]
    flows_total: tuple[int, ...]
    groups_total: tuple[int, ...]
    max_groups_per_switch: tuple[int, ...]
    join_calls: tuple[int, ...]


def georeplay(
    preset: str,
    strategy: str,
    max_failures: int,
    seed: int = 0,
    repetitions: int = 5,
    n: int | None = None,
    source: str | None = None,
) -> GeoreplayResult:
    """Join every node in shuffled order, once per repetition, and measure.

    Without a source, the complete preset uses the highest node id so tie
    breaks do not pin the source, and the geant preset uses AT. n sizes
    the complete preset only; the geant preset rejects it.
    """
    if preset == "complete":
        net = complete_graph(30 if n is None else n)
        src = max(net.nodes) if source is None else source
    elif preset == "geant":
        if n is not None:
            raise ValueError("n sizes the complete preset; the geant preset has a fixed size")
        net = geant()
        src = "AT" if source is None else source
    else:
        raise ValueError(f"unknown preset {preset!r} (expected one of {PRESETS})")
    config = ProtectionConfig(strategy=strategy, max_failures=max_failures)
    others = [v for v in net.nodes if v != src]
    depths: list[tuple[float, ...]] = []
    tags: list[int] = []
    flows: list[int] = []
    groups: list[int] = []
    max_groups: list[int] = []
    calls: list[int] = []
    for rep in range(repetitions):
        order = list(others)
        random.Random(seed * 10007 + rep).shuffle(order)
        gs = GroupState(net, src, config)
        for v in order:
            protect_join(gs, v)
        depths.append(tuple(depth_hopcounts(gs)))
        tags.append(gs.tags_allocated)
        per_switch = gs.fabric.group_counts().values()
        flows.append(gs.fabric.total_flows())
        groups.append(sum(per_switch))
        max_groups.append(max(per_switch, default=0))
        calls.append(gs.join_calls)
    mean = tuple(sum(col) / len(col) for col in zip(*depths))
    return GeoreplayResult(
        preset=preset,
        strategy=strategy,
        max_failures=max_failures,
        source=src,
        subscribers=len(others),
        repetitions=repetitions,
        depths=tuple(depths),
        mean_depths=mean,
        tags=tuple(tags),
        flows_total=tuple(flows),
        groups_total=tuple(groups),
        max_groups_per_switch=tuple(max_groups),
        join_calls=tuple(calls),
    )


# CSV ---------------------------------------------------------------


def write_metrics_csv(path: str | Path, snapshots: Iterable[MetricsSnapshot]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["snapshot", "event", "metric", "scope", "value"])
        for s in snapshots:
            w.writerow([s.index, s.event, "subscribers", "total", s.subscribers])
            w.writerow([s.index, s.event, "tags", "total", s.tags])
            w.writerow([s.index, s.event, "flows", "total", s.flows_total])
            w.writerow([s.index, s.event, "groups", "total", s.groups_total])
            w.writerow([s.index, s.event, "join_calls", "total", s.join_calls])
            for node, count in s.flows_by_switch:
                w.writerow([s.index, s.event, "flows", node, count])
            for node, count in s.groups_by_switch:
                w.writerow([s.index, s.event, "groups", node, count])


def delivery_rows(failed: tuple[Link, ...], report: DeliveryReport) -> list[list]:
    name = ";".join(str(l) for l in sorted(failed))
    rows = []
    for v in sorted(report.outcomes):
        o = report.outcomes[v]
        rows.append([
            name,
            v,
            1 if o.delivered else 0,
            "" if o.hops is None else o.hops,
            max(o.copies - 1, 0),
        ])
    return rows


def write_deliveries_csv(path: str | Path, rows: Iterable[list]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["failure_set", "subscriber", "delivered", "hopcount", "duplicates"])
        for row in rows:
            w.writerow(row)
