"""Seeded join/leave churn, hashed after every operation.

Each configuration is one graph, one join strategy and one failure budget F.
It runs a seeded sequence of protect_join and protect_leave calls on one
group and, after every operation, hashes the operation, its result,
fabric.dump(), gs.unprotected, gs.join_calls and gs.tags_allocated into one
SHA-256 per configuration. The graphs are geant, a small grid and seeded
random connected graphs of 5-16 nodes, under spt and dst, at F=0..3. A join
that runs out of tags is rolled back and hashed as such. The total digest
hashes the per-configuration ones in order.

A second stream checks the walks. After every 10th operation of a
configuration with F <= 2 it runs verify_tolerance and hashes the
ToleranceReport, every delivery_rows row and the `read` mask of each set's
report, then one simulate_delivery under a seeded set of up to F links down
(drawn from its own generator, so the churn stream is the same either way).

A change that claims unchanged behaviour runs this on the parent and on the
change and compares the output; a differing configuration line says where
the two diverge. Standard library only, apart from ffmcast itself:

    PYTHONPATH=src python tests/churn_digest.py           # the size tier-1 pins
    PYTHONPATH=src python tests/churn_digest.py --long    # over 50,000 operations
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import random
import sys
import time

from ffmcast.errors import TagSpaceExhausted
from ffmcast.failsim import simulate_delivery, verify_tolerance
from ffmcast.harness import delivery_rows
from ffmcast.protection import GroupState, ProtectionConfig, protect_join, protect_leave
from ffmcast.topology import geant, load_topology


def rand_connected(rng, n, extra=None):
    """A connected graph on n nodes: a random spanning tree plus extra
    random links (n by default; duplicates collapse)."""
    nodes = [f"v{i:02d}" for i in range(n)]
    links = [[nodes[i], nodes[rng.randrange(i)]] for i in range(1, n)]
    for _ in range(n if extra is None else extra):
        a, b = rng.sample(nodes, 2)
        links.append([a, b])
    return load_topology({"nodes": nodes, "links": links})


def grid(side):
    name = lambda r, c: f"g{r:02d}{c:02d}"
    nodes = [name(r, c) for r in range(side) for c in range(side)]
    links = [[name(r, c), name(r, c + 1)] for r in range(side) for c in range(side - 1)]
    links += [[name(r, c), name(r + 1, c)] for r in range(side - 1) for c in range(side)]
    return load_topology({"nodes": nodes, "links": links})


def configs(long):
    """(name, net, strategy, F, operations) in run order."""
    rng = random.Random(2017)
    graphs = [("geant", geant()), ("grid4", grid(4))]
    for i in range(40 if long else 18):
        n = rng.randint(5, 16)
        graphs.append((f"rand{i}", rand_connected(rng, n, rng.randint(0, n))))
    ops = 250 if long else 60
    for name, net in graphs:
        for strategy in ("spt", "dst"):
            for budget in range(4):
                if name == "geant" and budget == 3 and not long:
                    continue
                yield name, net, strategy, budget, ops


def churn(net, strategy, budget, ops, seed):
    """The SHA-256 of one configuration's operation stream, and that of its
    verify stream with the number of verify points (0 and None above F=2)."""
    rng = random.Random(seed)
    probe = random.Random(f"{seed}-verify")
    links = sorted(net.links)
    source = rng.choice(net.nodes)
    others = [v for v in net.nodes if v != source]
    gs = GroupState(net, source, ProtectionConfig(strategy, budget))
    h = hashlib.sha256()
    checks = hashlib.sha256() if budget <= 2 else None
    points = 0
    for i in range(1, ops + 1):
        if gs.subscribers and rng.random() < 0.4:
            v = rng.choice(sorted(gs.subscribers))
            op, result = "leave", protect_leave(gs, v)
        else:
            v = rng.choice(others)
            op = "join"
            try:
                result = protect_join(gs, v)
            except TagSpaceExhausted:  # the join is rolled back
                result = "TagSpaceExhausted"
        state = (op, v, result, gs.fabric.dump(), gs.unprotected, gs.join_calls, gs.tags_allocated)
        h.update(repr(state).encode())
        if checks is not None and i % 10 == 0:
            on_case = lambda failed, rep: checks.update(repr((delivery_rows(failed, rep), rep.read)).encode())
            checks.update(repr(verify_tolerance(gs, on_case=on_case)).encode())
            down = probe.sample(links, probe.randint(0, budget))
            checks.update(repr((down, simulate_delivery(gs, down))).encode())
            points += 1
    return h.hexdigest(), None if checks is None else checks.hexdigest(), points


@functools.cache
def _streams(long):
    """(seed, ops, churn digest, verify digest, verify points) per configuration."""
    streams = []
    for name, net, strategy, budget, ops in configs(long):
        seed = f"{name}-{strategy}-{budget}"
        streams.append((seed, ops, *churn(net, strategy, budget, ops, seed)))
    return tuple(streams)


def run(long=False, out=None):
    """Run every configuration; returns (total digest, operation count)."""
    total = hashlib.sha256()
    count = 0
    for seed, ops, digest, _, _ in _streams(long):
        total.update(digest.encode())
        count += ops
        if out is not None:
            print(f"{seed} {ops} {digest}", file=out)
    return total.hexdigest(), count


def run_verify(long=False, out=None):
    """The verify stream of every configuration with F <= 2; returns
    (total digest, number of verify points). Shares run's churn."""
    total = hashlib.sha256()
    count = 0
    for seed, _, _, digest, points in _streams(long):
        if digest is None:
            continue
        total.update(digest.encode())
        count += points
        if out is not None:
            print(f"{seed} verify {points} {digest}", file=out)
    return total.hexdigest(), count


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--long", action="store_true", help="the large run, over 50,000 operations")
    args = parser.parse_args(argv)
    start = time.perf_counter()
    digest, count = run(args.long, sys.stdout)
    print(f"total {count} {digest}")
    digest, count = run_verify(args.long, sys.stdout)
    print(f"verify total {count} {digest} ({time.perf_counter() - start:.1f} s)")


if __name__ == "__main__":
    main()
