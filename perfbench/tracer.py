"""Per-layer tracing from outside the package.

The tracer replaces each layer's entry points at the attribute where the
caller looks them up (a module global or a class attribute) with a wrapper
that counts calls and keeps a stack, so every call gets busy time (its
whole duration) and self time (busy time minus the busy time of traced
calls it made). Top-level benchmark operations are recorded as spans with
their operation id. Everything stays in memory until the run ends.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

import ffmcast.failsim
import ffmcast.protection
import ffmcast.trees
from ffmcast.dataplane import FlowInstaller, SwitchFabric
from ffmcast.topology import Network

# (layer, owner, attribute, name): owner is where the caller looks the
# entry point up, so wrapping it there intercepts every call.
ENTRY_POINTS = (
    ("topology", ffmcast.trees, "shortest_path", "shortest_path"),
    ("topology", ffmcast.trees, "bfs_distances", "bfs_distances"),
    ("topology", ffmcast.protection, "without_links", "without_links"),
    ("topology", Network, "__init__", "Network"),
    ("trees", ffmcast.protection, "join", "join"),
    ("trees", ffmcast.protection, "apply_path", "apply_path"),
    ("protection", ffmcast.protection, "protect_join", "protect_join"),
    ("protection", ffmcast.protection, "protect_leave", "protect_leave"),
    ("dataplane", FlowInstaller, "compile_path", "compile_path"),
    ("dataplane", FlowInstaller, "remove_edge", "remove_edge"),
    ("dataplane", FlowInstaller, "remove_terminal", "remove_terminal"),
    ("dataplane", SwitchFabric, "forward", "forward"),
    ("failsim", ffmcast.failsim, "simulate_delivery", "simulate_delivery"),
    ("failsim", ffmcast.failsim, "expected_deliverable", "expected_deliverable"),
    ("failsim", ffmcast.failsim, "verify_tolerance", "verify_tolerance"),
)

LAYERS = ("topology", "trees", "protection", "dataplane", "failsim")


class Tracer:
    """Counts and times calls into the wrapped entry points."""

    def __init__(self) -> None:
        # "layer.name" -> [calls, busy_s, self_s]
        self.stats: dict[str, list] = {}
        # (op id, kind, start, end, self_s) per top-level operation
        self.spans: list[tuple[int, str, float, float, float]] = []
        # one child-time accumulator per open call; the bottom one is the root
        self._stack: list[list[float]] = [[0.0]]
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for layer, owner, attr, name in ENTRY_POINTS:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            stat = self.stats.setdefault(f"{layer}.{name}", [0, 0.0, 0.0])
            setattr(owner, attr, self._wrap(original, stat))
            self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, stat: list):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                busy = clock() - start
                stack.pop()
                stack[-1][0] += busy
                stat[0] += 1
                stat[1] += busy
                stat[2] += busy - frame[0]

        return traced

    @contextmanager
    def span(self, op_id: int, kind: str):
        """Record one top-level operation; traced calls inside are its children."""
        frame = [0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._stack[-1][0] += end - start
            self.spans.append((op_id, kind, start, end, end - start - frame[0]))

    @contextmanager
    def hidden(self):
        """Charge the enclosed time to no layer (the benchmark's own bookkeeping)."""
        frame = [0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._stack.pop()
            self._stack[-1][0] += time.perf_counter() - start

    def layer_self_s(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for key, (_, _, self_s) in self.stats.items():
            out[key.split(".", 1)[0]] += self_s
        return out
