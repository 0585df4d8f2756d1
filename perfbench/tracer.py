"""Counting timers around skynav's public entry points, for the traced run.

``Tracer.install`` replaces each listed function or method with a wrapper
that records a span (name, parent span, request, start, end) and adds the
span's length to its name's inclusive and self time.  A module-level
function is replaced under every name that refers to it in any skynav
module, because ``rrt`` and ``drrt`` import ``steer``, ``sample_with_bias``,
``try_finish`` and ``check_endpoints`` by name.  ``restore`` puts every
original back.  Nothing in skynav changes while no tracer is installed.
"""
from __future__ import annotations

import importlib
import json
from collections import Counter
from contextlib import contextmanager
from functools import wraps
from time import perf_counter

import numpy as np

# public entry points per layer; "Class.method" names a method
LAYERS = {
    "env": ("CityMap.point_free", "CityMap.segment_collides", "CityMap.clearance",
            "CityMap.in_bounds"),
    "core": ("SearchTree.nearest", "SearchTree.add", "SearchTree.extract_path",
             "steer", "sample_with_bias"),
    "rrt": ("plan_rrt", "try_finish", "check_endpoints"),
    "drrt": ("plan_drrt", "detour_extend", "classify_step_outcome", "update_step"),
    "smoothing": ("smooth_path", "sample_curve", "clamped_knots"),
    "baselines": ("plan_astar", "plan_aco"),
    "metrics": ("summarize", "path_length", "turn_angles"),
}
MODULES = ("skynav", "skynav.env", "skynav.core", "skynav.rrt", "skynav.drrt",
           "skynav.smoothing", "skynav.baselines", "skynav.metrics", "skynav.bench",
           "skynav.cli")
MARK = "__perfbench_traced__"
# spans kept in memory for the trace file; later spans are only counted
SPAN_CAP = 50_000
ROOT = "<run>"


def _count_hits(counters, args, result):
    counters["hits"] += bool(result)


def _count_tree_size(counters, args, result):
    counters["tree_nodes"] += len(args[0])


def _count_explored(counters, args, result):
    counters["explored"] += result.explored_nodes


def _count_rescue(counters, args, result):
    counters["rescued"] += result is not None


def _count_outcome(counters, args, result):
    counters[result] += 1


def _count_fallback(counters, args, result):
    raw = np.asarray(args[0], dtype=float)
    counters["fallback"] += result.shape == raw.shape and np.array_equal(result, raw)


def _count_samples(counters, args, result):
    counters["samples"] += len(result)


# extra counts read from a call's arguments or result
HOOKS = {
    "env.segment_collides": _count_hits,
    "core.nearest": _count_tree_size,
    "rrt.plan_rrt": _count_explored,
    "drrt.plan_drrt": _count_explored,
    "baselines.plan_astar": _count_explored,
    "baselines.plan_aco": _count_explored,
    "drrt.detour_extend": _count_rescue,
    "drrt.classify_step_outcome": _count_outcome,
    "smoothing.smooth_path": _count_fallback,
    "smoothing.sample_curve": _count_samples,
}


class Stat:
    __slots__ = ("calls", "total", "self_time", "counters")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.counters = Counter()


# stands in for a name that was never called
NEVER_CALLED = Stat()


class Tracer:
    """Spans and per-name totals for one traced pass; spans beyond SPAN_CAP are only counted."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        # (parent name, child name) -> [calls, seconds]
        self.edges: dict[tuple[str, str], list] = {}
        self.spans: list = []
        self.spans_total = 0
        self.request = -1
        # frames: [name, child seconds, span id]
        self._stack = [[ROOT, 0.0, -1]]
        self._patched: list = []

    def stat(self, name: str) -> Stat:
        return self.stats.setdefault(name, Stat())

    # -- spans --------------------------------------------------------------

    def _enter(self, name: str) -> list:
        self.spans_total += 1
        sid = -1
        if len(self.spans) < SPAN_CAP:
            sid = len(self.spans)
            self.spans.append(None)
        frame = [name, 0.0, sid]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, stat: Stat, t0: float, t1: float) -> None:
        self._stack.pop()
        parent = self._stack[-1]
        d = t1 - t0
        parent[1] += d
        stat.calls += 1
        stat.total += d
        stat.self_time += d - frame[1]
        edge = self.edges.get((parent[0], frame[0]))
        if edge is None:
            edge = self.edges[(parent[0], frame[0])] = [0, 0.0]
        edge[0] += 1
        edge[1] += d
        if frame[2] >= 0:
            self.spans[frame[2]] = (frame[0], parent[2], self.request, t0, t1)

    @contextmanager
    def span(self, name: str, request: int):
        """The benchmark's own span around one request; its id tags every span inside."""
        self.request = request
        frame = self._enter(name)
        t0 = perf_counter()
        try:
            yield
        finally:
            self._exit(frame, self.stat(name), t0, perf_counter())

    def _wrap(self, name: str, fn):
        stat = self.stat(name)
        hook = HOOKS.get(name)
        enter, leave, clock = self._enter, self._exit, perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            frame = enter(name)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(frame, stat, t0, clock())
            if hook is not None:
                hook(stat.counters, args, result)
            return result

        setattr(traced, MARK, True)
        return traced

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in MODULES]
        try:
            for layer, entries in LAYERS.items():
                home = importlib.import_module(f"skynav.{layer}")
                for entry in entries:
                    cls_name, _, attr = entry.rpartition(".")
                    name = f"{layer}.{attr}"
                    if cls_name:
                        owner = getattr(home, cls_name)
                        original = owner.__dict__[attr]
                        self._patch(owner, attr, original, self._wrap(name, original))
                        continue
                    original = getattr(home, attr)
                    wrapper = self._wrap(name, original)
                    for mod in modules:
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                self._patch(mod, key, original, wrapper)
        except BaseException:
            self.restore()
            raise

    def _patch(self, owner, key, original, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._patched.append((owner, key, original))

    def restore(self) -> None:
        while self._patched:
            owner, key, original = self._patched.pop()
            setattr(owner, key, original)

    def write(self, path) -> None:
        """Write the kept spans (times in microseconds) and the per-name totals."""
        t_base = self.spans[0][3] if self.spans and self.spans[0] else 0.0
        doc = {
            "fields": ["name", "parent_span", "request", "start_us", "end_us"],
            "spans_total": self.spans_total,
            "spans": [[s[0], s[1], s[2], round((s[3] - t_base) * 1e6, 3),
                       round((s[4] - t_base) * 1e6, 3)] for s in self.spans if s],
            "stats": {n: {"calls": s.calls, "total_s": s.total, "self_s": s.self_time,
                          **s.counters} for n, s in sorted(self.stats.items())},
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


def leftover_wrappers() -> list[str]:
    """Names in skynav's modules and classes that are still wrapped."""
    found = []
    for m in MODULES:
        mod = importlib.import_module(m)
        for key, value in vars(mod).items():
            if getattr(value, MARK, False):
                found.append(f"{m}.{key}")
            if isinstance(value, type) and value.__module__.startswith("skynav"):
                for attr, member in vars(value).items():
                    if getattr(member, MARK, False):
                        found.append(f"{m}.{key}.{attr}")
    return found
