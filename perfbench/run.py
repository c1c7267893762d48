"""ffmcast benchmark: one workload, one seed, medians over fresh processes.

    python3 perfbench/run.py --workload grid-join --seed 7 --seconds 45 --trace 0

Each iteration runs in a fresh process (perfbench/workload.py), so import
cost and peak memory do not leak between iterations. Iterations repeat the
same seeded inputs until the next one would end after --seconds; every
metric is the median over iterations. With --trace 0 the last line holds the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of traced
iterations, with untraced iterations run alongside to give the tracing
overhead. The line before it is a report with the run environment, sample
counts, digests and the metrics that only some workloads have.

Exit 0 when every output check passed, 1 when a check failed (the result is
still printed), 2 without a result when the run could not be made at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workload import DEFAULT_SEED, REFERENCE_KERNEL_S, WORKLOADS

STARTED = time.perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD = HERE / "workload.py"
DIGESTS = HERE / "digests.json"
RESULTS = HERE / "results"

HARD_LIMIT_S = 170.0
BUILD_SAMPLES = 9
BUILD_SHARE = 0.4
SETUP_SAMPLES = 40
MIN_SETUP_SAMPLES = 3
ITERATION_MARGIN_S = 1.0
MAX_ERRORS_SHOWN = 20

TIMING_NOTE = ("reference seconds: host wall-clock time (time.perf_counter) on a shared "
               "{nproc}-core machine, no CPU pinning, scaled by the speed of a stdlib reference "
               "kernel timed alongside (see Meter in workload.py); host seconds are under "
               "samples.host_*; medians over fresh-process iterations")

# name -> unit; reported on every workload
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "build_s": "s",
    "check_sets_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# reported (in the report line) only where the workload has at least ten
# samples beyond the percentile
PARTIAL = {
    "join_p50_ms": ("ms", ("grid-join", "geant-churn")),
    "join_p90_ms": ("ms", ("grid-join", "geant-churn")),
    "leave_p50_ms": ("ms", ("geant-churn",)),
    "leave_p90_ms": ("ms", ("geant-churn",)),
}
_CALLS_AND_SELF = (
    "topology.shortest_path", "topology.without_links", "topology.Network",
    "trees.join", "trees.apply_path", "protection.protect_join",
    "dataplane.compile_path", "dataplane.forward", "failsim.simulate_delivery",
)
_CALLS_ONLY = (
    "topology.bfs_distances", "protection.protect_leave", "dataplane.remove_edge",
    "dataplane.remove_terminal", "failsim.expected_deliverable", "failsim.verify_tolerance",
)
# name -> unit. Self times of entry points some workload never calls are
# left to the report line, so that no time here reads 0 on every run.
PER_LAYER = {
    **{f"{n}.calls": "count" for n in _CALLS_AND_SELF + _CALLS_ONLY},
    **{f"{n}.self_s": "s" for n in _CALLS_AND_SELF},
    **{f"{layer}.self_s": "s" for layer in ("topology", "trees", "protection", "dataplane", "failsim")},
    "trees.join.refused": "count",
    "protection.attaches_per_join": "ratio",
    "protection.tags": "count",
    "protection.unprotected": "count",
    "dataplane.flows": "count",
    "dataplane.groups": "count",
    "dataplane.forward_per_walk": "ratio",
    "failsim.walks_per_set": "ratio",
    "trace.overhead": "ratio",
}
# simulated state and work counts: identical in every iteration of one seed
EXACT = ("attempted", "failed", "joins", "leaves", "check_sets", "join_samples",
         "leave_samples", "state")


class RunError(Exception):
    """The benchmark could not be run; no result is printed."""


def child(workload: str, seed: int, trace: bool = False, part: str = "all",
          light: bool = True) -> tuple[dict, float]:
    """One fresh process; returns its result with setup_s, and its duration."""
    cmd = [sys.executable, str(WORKLOAD), "--workload", workload, "--seed", str(seed),
           "--trace", str(int(trace)), "--part", part]
    if light:
        cmd.append("--light")
    left = HARD_LIMIT_S - elapsed()
    if left <= 0:
        raise RunError("out of time")
    spawned = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=left, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise RunError(f"iteration did not finish within {left:.0f} s") from None
    took = time.perf_counter() - spawned
    if proc.returncode != 0:
        raise RunError(f"iteration exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    # CLOCK_MONOTONIC is shared by all processes, so the child's clock
    # reading marks the end of its set-up on the parent's timeline. The
    # child's first probe, right after, gives its reference seconds (a probe
    # in the parent, which has just woken from waiting, reads far noisier).
    host = result.pop("timed_start") - spawned
    result["host_setup_s"] = host
    result["setup_s"] = host * REFERENCE_KERNEL_S / result["setup_probe_s"]
    return result, took


def elapsed() -> float:
    return time.perf_counter() - STARTED


def iterate(workload: str, seed: int, seconds: float, trace: bool):
    """Whole iterations until the next would end after `seconds`, and short-phase samples.

    The first iteration runs the once-per-seed checks. In a traced run,
    traced and untraced iterations alternate, at least one of each. An
    untraced run also samples the build phase with build-only processes,
    up to BUILD_SAMPLES build phases in all. Where those are cheap (less
    than BUILD_SHARE of `seconds`) half of them run right after the first
    iteration and time is kept for the rest, so that the samples are spread
    over the run; otherwise they only fill time that is left. Last come
    set-up-only processes, at least MIN_SETUP_SAMPLES set-ups in all.
    """
    full: list[dict] = []
    traced: list[dict] = []
    builds: list[dict] = []
    setups: list[dict] = []
    guess = 0.0
    reserve = 0.0
    while True:
        want_trace = trace and len(traced) < len(full)
        result, _ = child(workload, seed, trace=want_trace, light=bool(full))
        (traced if want_trace else full).append(result)
        # the next iteration is light: set-up, timed phase and a margin
        guess = max(guess, result["host_setup_s"] + result["host_wall_s"] + ITERATION_MARGIN_S)
        build = result["host_setup_s"] + result["host_build_s"] + ITERATION_MARGIN_S
        if len(full) == 1 and not trace and build * (BUILD_SAMPLES - 1) <= BUILD_SHARE * seconds:
            build = 0.0
            while len(builds) < (BUILD_SAMPLES - 1) // 2:
                built, took = child(workload, seed, part="build")
                builds.append(built)
                build = max(build, took)
            reserve = build * (BUILD_SAMPLES - 1 - len(builds))
        if (traced or not trace) and elapsed() + guess + reserve > seconds:
            break
    if not trace:
        guess = max(r["host_setup_s"] + r["host_build_s"] for r in full)
        while len(full) + len(builds) < BUILD_SAMPLES and elapsed() + guess <= seconds:
            result, took = child(workload, seed, part="build")
            builds.append(result)
            guess = max(guess, took)
        while len(full) + len(builds) + len(setups) < SETUP_SAMPLES:
            if len(full) + len(builds) + len(setups) >= MIN_SETUP_SAMPLES and elapsed() > seconds:
                break
            setups.append(child(workload, seed, part="setup")[0])
    return full, traced, builds, setups


def median_of(results: list[dict], key: str):
    values = [r[key] for r in results if r.get(key) is not None]
    return statistics.median(values) if values else None


def check(workload: str, seed: int, whole: list[dict], builds: list[dict]) -> list[str]:
    """Output checks on whole iterations (the first one full) and build-only ones."""
    problems = []
    first = whole[0]
    for key in EXACT:
        if any(r[key] != first[key] for r in whole[1:]):
            problems.append(f"{key} differs between iterations of the same seed")
    for r in whole + builds:
        for name, digest in r["digests"].items():
            if digest != first["digests"][name]:
                problems.append(f"{name} digest differs between iterations of the same seed")
        problems.extend(r["problems"])
        if r["unexcused"]:
            problems.append(f"{r['unexcused']} unexcused misses")
        if r["loop_guard_trips"]:
            problems.append(f"loop guard tripped {r['loop_guard_trips']} times")
    if seed == DEFAULT_SEED:
        pinned = json.loads(DIGESTS.read_text())[workload]
        for name, digest in pinned.items():
            if first["digests"].get(name) != digest:
                problems.append(f"{name} digest {first['digests'].get(name)} != pinned {digest}")
    return sorted(set(problems))


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(seed: int, seconds: float) -> dict:
    nproc = len(os.sched_getaffinity(0))
    return {
        "seed": seed,
        "seconds": seconds,
        "python": platform.python_version(),
        "nproc": nproc,
        "git_commit": git_commit(),
        "timing": TIMING_NOTE.format(nproc=nproc),
    }


def end_to_end(workload: str, full: list[dict], builds: list[dict],
               setups: list[dict]) -> tuple[dict, dict]:
    """Medians: build phase over whole and build-only iterations, set-up over every
    process, the rest over whole iterations."""
    built = full + builds
    values = {
        "setup_s": median_of(setups, "setup_s"),
        "wall_s": median_of(full, "wall_s"),
        "build_s": median_of(built, "build_s"),
        "check_sets_per_s": statistics.median(rate for r in full for rate in r["check_rates"]),
        "peak_rss_mb": median_of(full, "peak_rss_mb"),
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    partial = {name: {"value": median_of(built, name), "unit": unit}
               for name, (unit, where) in PARTIAL.items() if workload in where}
    samples = {
        "setup_s": [r["setup_s"] for r in setups],
        "wall_s": [r["wall_s"] for r in full],
        "build_s": [r["build_s"] for r in built],
        "check_s": [r["check_s"] for r in full],
        "check_rates": [rate for r in full for rate in r["check_rates"]],
        "host_setup_s": [r["host_setup_s"] for r in setups],
        "host_wall_s": [r["host_wall_s"] for r in full],
        "host_build_s": [r["host_build_s"] for r in built],
        "host_check_s": [r["host_check_s"] for r in full],
        "probe_ms": [r["probe_ms"] for r in built],
        "iterations": len(full),
        "build_phases": len(built),
        "setups": len(setups),
        "joins_per_iteration": full[0]["join_samples"],
        "leaves_per_iteration": full[0]["leave_samples"],
        "check_sets_per_iteration": full[0]["check_sets"],
    }
    return {"metrics": metrics, "partial": partial, "samples": samples}, metrics


def per_layer(untraced: list[dict], traced: list[dict]) -> tuple[dict, dict, list[str]]:
    """Counts from the traced iterations (which must agree), medians of their times."""
    problems = []
    layers = [{**r["layers"], **r["state"]} for r in traced]
    for name, value in layers[0].items():
        if not name.endswith("_s") and any(l[name] != value for l in layers[1:]):
            problems.append(f"traced count {name} differs between iterations")
    merged = {name: statistics.median(l[name] for l in layers) if name.endswith("_s") else value
              for name, value in layers[0].items()}
    merged["trace.overhead"] = median_of(traced, "wall_s") / median_of(untraced, "wall_s")
    metrics = {name: {"value": merged[name], "unit": unit} for name, unit in PER_LAYER.items()}
    return {"layers": merged, "traced_iterations": len(traced)}, metrics, problems


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if not (ROOT / "src" / "ffmcast" / "__init__.py").is_file():
        print(f"run.py: error: no ffmcast sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        full, traced, builds, setups = iterate(args.workload, args.seed, args.seconds,
                                               bool(args.trace))
    except RunError as exc:
        print(f"run.py: error: {exc}", file=sys.stderr)
        return 2

    ran = full + traced + builds
    attempted = sum(r["attempted"] for r in ran)
    failed = sum(r["failed"] for r in ran)
    problems = check(args.workload, args.seed, full + traced, builds)
    report = {"workload": args.workload, "trace": args.trace,
              "env": environment(args.seed, args.seconds),
              "digests": full[0]["digests"], "failed_frac": failed / attempted,
              "errors": full[0]["errors"][:MAX_ERRORS_SHOWN]}
    if args.trace:
        extra, metrics, trace_problems = per_layer(full, traced)
        problems += trace_problems
        report["spans"] = [r["spans"] for r in traced]
    else:
        extra, metrics = end_to_end(args.workload, full, builds, ran + setups)
    report.update(extra)
    report["problems"] = problems

    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    report.pop("spans", None)
    print(json.dumps(report))
    for problem in problems:
        print(f"run.py: check failed: {problem}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
