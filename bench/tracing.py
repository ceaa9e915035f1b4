"""Spans recorded from outside the library, and the per-layer numbers built from them.

The tracer replaces public module attributes of ``geojsd`` with thin timing
wrappers while a traced phase runs, and restores the originals afterwards.
Calls made inside the library through a module attribute (for example
``discrete.js_m`` calling ``means.evaluate``) therefore nest, so each span
knows its parent.  Spans stay in memory; they are written out only when the
run ends.

Threads: each thread keeps its own stack of open spans.  A span that opens
on a thread with an empty stack (a Monte Carlo chunk on the estimator's
thread pool) is adopted by the innermost span open on the client thread,
the only thread that submits work, so its time is subtracted from the
submitting call's self time.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import itertools
import json
import threading
import time
from dataclasses import dataclass
from typing import Callable

# The library's layers, in import order.  Public functions are the names in
# each module's ``__all__``; ``cli`` has none, so its public functions are
# the callables it defines without a leading underscore.
LAYERS = ("means", "discrete", "expfam", "gaussian", "estimate",
          "verification", "cli")

# Constructors traced in addition to the public functions: their validation
# is per-call overhead that a cache or a lazier check would move.
CONSTRUCTORS = (("discrete", "DiscreteDensity"), ("gaussian", "GaussianParams"))


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    size: int = 0  # atoms, dimension or elements, depending on the layer

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from wrapped callables; safe to use from many threads."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._client = threading.get_ident()
        self._client_stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._client:
            return self._client_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn: Callable, name: str,
             size: Callable[[tuple, dict], int] | None = None) -> Callable:
        """A callable that behaves like ``fn`` and records one span per call."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                client = tracer._client_stack
                parent = client[-1] if client else None
            sid = next(tracer._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                n = size(args, kwargs) if size is not None else 0
                tracer.spans.append(Span(sid, name, start, end, parent,
                                         threading.get_ident(), n))

        return traced

    # -- installing wrappers on module attributes ---------------------------

    def patch(self, owner: object, attr: str, replacement: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every public function of every layer, and the two constructors."""
        modules = {name: importlib.import_module(f"geojsd.{name}")
                   for name in LAYERS}
        for layer, module in modules.items():
            for attr in public_functions(module):
                self.patch(module, attr,
                           self.wrap(getattr(module, attr), f"{layer}.{attr}",
                                     size_of(layer, attr)))
        for layer, cls_name in CONSTRUCTORS:
            cls = getattr(modules[layer], cls_name)
            self.patch(cls, "__init__",
                       self.wrap(cls.__init__, f"{layer}.{cls_name}"))
        # ``run_suite`` dispatches through this public table, not through the
        # module attributes, so each suite is wrapped where it is looked up.
        suites = modules["verification"].SUITES
        for suite in list(suites):
            self.patch_item(suites, suite,
                            self.wrap(suites[suite], f"verification.{suite}"))

    def patch_item(self, table: dict, key: str, replacement: object) -> None:
        self._patches.append((table, key, table[key]))
        table[key] = replacement

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # -- output -------------------------------------------------------------

    def dump(self, path, header: dict | None = None) -> None:
        """Write the spans out, once the run has ended.

        Gzipped text: the first line is ``header`` as JSON, then one
        tab-separated line per span (id, name, start, end, parent or -,
        thread, size).
        """
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write(json.dumps(header or {}) + "\n")
            handle.writelines(
                f"{s.sid}\t{s.name}\t{s.start!r}\t{s.end!r}\t"
                f"{'-' if s.parent is None else s.parent}\t{s.thread}\t{s.size}\n"
                for s in self.spans)

    def load(self, path, prefix: int) -> dict:
        """Merge the spans a child process dumped; returns its header.

        Ids are offset by ``prefix`` so they stay distinct from this
        process's.  Child and parent clocks are both CLOCK_MONOTONIC, so
        times compare.
        """
        offset = prefix << 32
        with gzip.open(path, "rt", encoding="utf-8") as handle:
            header = json.loads(handle.readline())
            for line in handle:
                sid, name, start, end, parent, thread, size = line.split("\t")
                self.spans.append(Span(
                    int(sid) + offset, name, float(start), float(end),
                    None if parent == "-" else int(parent) + offset,
                    int(thread) + offset, int(size)))
        return header


def public_functions(module) -> list[str]:
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n, v in vars(module).items()
                 if not n.startswith("_") and inspect.isfunction(v)
                 and v.__module__ == module.__name__]
    return [n for n in names if inspect.isfunction(getattr(module, n))]


def size_of(layer: str, attr: str) -> Callable[[tuple, dict], int] | None:
    """How a span records the size of its input, for per-size breakdowns."""
    if layer == "means" and attr in ("evaluate", "log_evaluate"):
        def elements(args, kwargs):
            # imported here: the traced CLI child imports this module before it
            # times the library's import, which brings numpy in
            import numpy as np
            return int(np.broadcast(np.asarray(args[1]), np.asarray(args[2])).size)
        return elements
    if layer == "discrete":
        def atoms(args, kwargs):
            first = args[0] if args else None
            return int(getattr(first, "size", 0) or 0)
        return atoms
    if layer == "gaussian":
        def dim(args, kwargs):
            first = args[0] if args else None
            return int(getattr(first, "dim", 0) or 0)
        return dim
    return None


# ---------------------------------------------------------------------------
# Self time
# ---------------------------------------------------------------------------

def covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, start), min(hi, end)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover.

    Children on other threads overlap each other; only the union of their
    intervals is subtracted, so parallel chunks are not counted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.sid: s.duration - covered(s.start, s.end, children.get(s.sid, []))
            for s in spans}
