"""Command line front end.

run      replay a membership scenario and dump metrics/delivery CSVs
verify   exhaustively fail link sets and check protected delivery
recover  packets lost for a recovery discipline over an outage window
report   replayed join sweeps on a preset topology (depths, resources)
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import BudgetExceeded, TagSpaceExhausted
from .failsim import RECOVERY_MODES, RecoveryModel, simulate_recovery, verify_tolerance
from .harness import (
    PRESETS,
    delivery_rows,
    georeplay,
    load_scenario,
    run_scenario,
    write_deliveries_csv,
    write_metrics_csv,
)
from .protection import ProtectionConfig
from .topology import complete_graph, geant, load_topology
from .trees import JOIN_STRATEGIES


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        # one line, like every other input error; --help has the usage
        self.exit(2, f"{self.prog}: error: {message}\n")


def _at_least(minimum: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}")
        return value

    return parse


def _add_topology_flags(p: argparse.ArgumentParser) -> None:
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--topology", metavar="FILE", help="topology JSON file")
    g.add_argument("--complete", type=int, metavar="N", help="complete graph on N switches")
    g.add_argument("--geant", action="store_true", help="bundled pan-European reference topology")


def _add_tree_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tree", choices=tuple(JOIN_STRATEGIES), default="spt", help="join strategy")
    p.add_argument("-F", "--max-failures", type=int, default=1, metavar="INT",
                   help="link failures to survive (default 1)")


def _build_net(args):
    if args.topology:
        return load_topology(args.topology)
    if args.complete is not None:
        return complete_graph(args.complete)
    return geant()


def _run_members(args):
    net = _build_net(args)
    scenario = load_scenario(args.scenario)
    config = ProtectionConfig(strategy=args.tree, max_failures=args.max_failures)
    return net, run_scenario(net, scenario, config)


def cmd_run(args) -> int:
    net, result = _run_members(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_metrics_csv(out / "metrics.csv", result.snapshots)
    rows = []
    violations = False
    for failed, rep in result.injections:
        rows.extend(delivery_rows(failed, rep))
        if rep.loop_guard_tripped:
            violations = True
    write_deliveries_csv(out / "deliveries.csv", rows)
    final = result.snapshots[-1]
    print(f"subscribers={final.subscribers} tags={final.tags} "
          f"flows={final.flows_total} groups={final.groups_total}")
    for v in result.rejected_joins:
        print(f"join rejected (unreachable): {v}")
    for failed, rep in result.injections:
        name = ";".join(str(l) for l in failed) or "none"
        got = sum(1 for o in rep.outcomes.values() if o.delivered)
        print(f"inject down=[{name}] delivered {got}/{len(rep.outcomes)}")
    if violations:
        print("loop guard tripped", file=sys.stderr)
        return 1
    return 0


def cmd_verify(args) -> int:
    net, result = _run_members(args)
    gs = result.gs
    rows = []

    def on_case(failed, rep):
        rows.extend(delivery_rows(failed, rep))

    report = verify_tolerance(gs, max_sets=args.max_sets, on_case=on_case if args.out else None)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_deliveries_csv(out / "deliveries.csv", rows)
        write_metrics_csv(out / "metrics.csv", result.snapshots)
    print(f"failure sets checked: {report.sets_checked}")
    print(f"baseline delivery: {'ok' if report.baseline_ok else 'FAILED'}")
    print(f"unexcused misses: {len(report.unexcused)}")
    print(f"excused (no backup on record): {report.excused}")
    print(f"loop guard: {'tripped' if report.loop_guard_tripped else 'clean'}")
    print(f"duplicate copies: {report.duplicates}")
    print(f"stray deliveries: {report.stray}")
    print(f"unmatched packets: {report.unmatched}")
    print(f"dataplane walks: {report.walks}")
    for case in report.unexcused[:20]:
        print(f"  miss: subscriber {case.subscriber} with down [{';'.join(case.failed)}]")
    return 0 if report.ok else 1


def cmd_recover(args) -> int:
    model = RecoveryModel(
        mode=args.model,
        detection_ms=args.detect_ms,
        rtt_ms=args.rtt_ms,
        flowmod_ms=args.flowmod_ms,
        compute_ms=args.compute_ms,
    )
    rep = simulate_recovery(
        model,
        cuts=args.cuts,
        rate_hz=args.rate_hz,
        duration_ms=args.duration_ms,
        affected_groups=args.groups,
        entries=args.entries,
    )
    print(f"model={rep.mode} cuts={rep.cuts} outage_ms={rep.outage_ms:g}")
    if rep.packets_sent is None:
        print(f"packets lost: {rep.packets_lost}")
    else:
        print(f"packets lost: {rep.packets_lost} of {rep.packets_sent}")
    return 0


def cmd_report(args) -> int:
    result = georeplay(
        preset=args.preset,
        strategy=args.tree,
        max_failures=args.max_failures,
        seed=args.seed,
        repetitions=args.reps,
        n=args.n,
        source=args.source,
    )
    print(f"preset={result.preset} source={result.source} strategy={result.strategy} "
          f"F={result.max_failures} reps={result.repetitions}")
    for depth, mean in enumerate(result.mean_depths):
        print(f"depth {depth}: mean hops {mean:.4f}")
    avg = lambda xs: sum(xs) / len(xs)
    print(f"tags: mean {avg(result.tags):.1f} max {max(result.tags)}")
    print(f"flows: mean {avg(result.flows_total):.1f} max {max(result.flows_total)}")
    print(f"groups: mean {avg(result.groups_total):.1f} max {max(result.groups_total)}")
    print(f"groups per switch: worst {max(result.max_groups_per_switch)} (limit {args.limit})")
    print(f"join calls: max {max(result.join_calls)}")
    worst = max(result.max_groups_per_switch)
    if worst > args.limit:
        print(f"over group table limit by {worst - args.limit}", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ffmcast", description="fault-tolerant multicast tree simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="replay a scenario and write CSVs")
    _add_topology_flags(p_run)
    _add_tree_flags(p_run)
    p_run.add_argument("--scenario", required=True, metavar="FILE")
    p_run.add_argument("--out", required=True, metavar="DIR")
    p_run.set_defaults(fn=cmd_run)

    p_ver = sub.add_parser("verify", help="exhaustive failure injection")
    _add_topology_flags(p_ver)
    _add_tree_flags(p_ver)
    p_ver.add_argument("--scenario", required=True, metavar="FILE")
    p_ver.add_argument("--max-sets", type=_at_least(0), default=None, metavar="INT",
                       help="refuse to enumerate more failure sets than this")
    p_ver.add_argument("--out", default=None, metavar="DIR")
    p_ver.set_defaults(fn=cmd_verify)

    p_rec = sub.add_parser("recover", help="outage window to packets lost")
    p_rec.add_argument("--model", choices=RECOVERY_MODES, required=True)
    p_rec.add_argument("--rtt-ms", type=float, default=0.0)
    p_rec.add_argument("--detect-ms", type=float, default=0.0)
    p_rec.add_argument("--rate-hz", type=float, default=120.0)
    p_rec.add_argument("--flowmod-ms", type=float, default=1.0)
    p_rec.add_argument("--compute-ms", type=float, default=0.0)
    p_rec.add_argument("--cuts", type=int, default=1)
    p_rec.add_argument("--groups", type=int, default=1,
                       help="groups touched per cut (switch model)")
    p_rec.add_argument("--entries", type=int, default=1,
                       help="entries reinstalled per cut (restore model)")
    p_rec.add_argument("--duration-ms", type=float, default=None)
    p_rec.set_defaults(fn=cmd_recover)

    p_rep = sub.add_parser("report", help="replayed join sweep on a preset")
    p_rep.add_argument("--preset", choices=PRESETS, default="complete")
    p_rep.add_argument("-n", type=int, default=None, help="complete preset size")
    p_rep.add_argument("--source", default=None)
    _add_tree_flags(p_rep)
    p_rep.add_argument("--seed", type=int, default=0)
    p_rep.add_argument("--reps", type=_at_least(1), default=5)
    p_rep.add_argument("--limit", type=_at_least(0), default=32, help="group table capacity")
    p_rep.set_defaults(fn=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, TagSpaceExhausted, BudgetExceeded) as exc:
        # bad input or a request beyond a limit, not a bug: no traceback
        print(f"ffmcast: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
