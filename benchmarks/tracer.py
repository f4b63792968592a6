"""In-memory span tracer that wraps cyclewalk's public functions from outside.

Every public function of a layer module is replaced, at each module attribute
that holds it, by a wrapper that records a span (name, start, end, parent,
op id).  Rebinding every attribute matters because modules import functions
by name: `cyclewalk.cli.power_deviation` and `cyclewalk.revival.power_deviation`
are two bindings of one function, and callers look up whichever they imported.
Self time is a span's duration minus the durations of its direct children;
for each op the self times of all its spans add up to the op's root span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
import tracemalloc
from collections import Counter, defaultdict

#: the modules of src/cyclewalk, one layer each
LAYERS = ("walk", "spectral", "revival", "solver", "tables", "special", "cli", "exprs")
#: layers that get a call count and no span (argument parsing only)
COUNT_ONLY = frozenset({"exprs"})
#: spans whose peak traced allocation is recorded, on the first call in each
#: op only: tracemalloc slows every allocation it sees, and the repeated calls
#: inside one op (a search certifying thousands of seeds) share their sizes
ALLOC_SPANS = frozenset({"walk.line_walk", "revival.power_deviation"})

ROOT = "bench.op"
MB = 1e6


class Tracer:
    """Spans and counters for one traced run; `install` patches, `uninstall` restores."""

    def __init__(self):
        self.spans: list[tuple] = []  # (span_id, parent_id, op_id, name, start, end, self_s)
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.alloc_peak_mb: defaultdict = defaultdict(float)
        self.op_checks: list[tuple[int, float, float]] = []  # (op_id, root_s, sum_self_s)
        self._stack: list[list] = []  # [span_id, name, start, child_s]
        self._op_id = -1
        self._op_self = 0.0
        self._next_id = 0
        self._alloc_seen: set[str] = set()
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        package = importlib.import_module("cyclewalk")
        modules = [package] + [importlib.import_module(f"cyclewalk.{l}") for l in LAYERS]
        for layer, module in zip(LAYERS, modules[1:]):
            for fname in module.__all__:
                fn = getattr(module, fname)
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{fname}", fn, layer in COUNT_ONLY)
                for holder in modules:
                    for attr, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, attr, wrapper)
                            self._patched.append((holder, attr, fn))

    def uninstall(self) -> None:
        for holder, attr, fn in reversed(self._patched):
            setattr(holder, attr, fn)
        self._patched.clear()

    def _wrap(self, name: str, fn, count_only: bool):
        if count_only:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self.calls[name] += 1
                return fn(*args, **kwargs)

            return counted

        alloc = name in ALLOC_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[name] += 1
            own_alloc = alloc and name not in self._alloc_seen and not tracemalloc.is_tracing()
            if own_alloc:
                tracemalloc.start()
            self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit()
                if own_alloc:
                    peak = tracemalloc.get_traced_memory()[1] / MB
                    tracemalloc.stop()
                    self.alloc_peak_mb[name] = max(self.alloc_peak_mb[name], peak)
                    self._alloc_seen.add(name)

        return traced

    def _enter(self, name: str) -> None:
        self._next_id += 1
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0])

    def _exit(self) -> None:
        end = time.perf_counter()
        span_id, name, start, child_s = self._stack.pop()
        duration = end - start
        self_s = duration - child_s
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.self_s[name] += self_s
        self._op_self += self_s
        self.spans.append(
            (span_id, parent[0] if parent else None, self._op_id, name, start, end, self_s)
        )

    def run_op(self, op_id: int, call):
        """Run `call` inside a root span; returns (result, root span seconds)."""
        self._op_id = op_id
        self._op_self = 0.0
        self._alloc_seen.clear()
        self._enter(ROOT)
        try:
            result = call()
        finally:
            self._exit()
            root = self.spans[-1]
            self.op_checks.append((op_id, root[5] - root[4], self._op_self))
        return result, self.op_checks[-1][1]

    def self_time_mismatches(self, tol: float = 1e-6) -> list[tuple[int, float, float]]:
        """Ops whose spans' self times do not add up to the root span."""
        return [c for c in self.op_checks if abs(c[1] - c[2]) > tol]
