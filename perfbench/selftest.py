"""Self-test of the benchmark: ``python3 perfbench/run.py --self-test``.

Runs every workload at a tiny size untraced and traced, and checks that
both give the same path digest, that the traced run leaves no wrapper
behind, and that every metric BENCHMARK.json names is reported.  Then it
shows that the output check accepts real routes and rejects corrupted
copies of them.  The program under test is not changed.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import time

import numpy as np
import skynav as sk

import run
import workloads
from tracer import leftover_wrappers

TINY_POOLS = {"drrt_city": 3, "rrt_city": 1, "grid_city": 1}
# how long the raising planner of _raise_problems waits before it raises
GIVE_UP_AFTER_S = 0.2


def _benchmark_json_matches() -> list[str]:
    spec = json.loads((run.CHECKOUT / "BENCHMARK.json").read_text())
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        problems.append("workload names differ from workloads.WORKLOADS")
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = [(m["name"], m["unit"]) for m in spec[key]]
        if listed != list(table):
            problems.append(f"{key} in BENCHMARK.json differs from run.py")
    return problems


def _workload_problems(name: str) -> list[str]:
    problems = []
    size = TINY_POOLS[name]
    plain = run.run_workload(name, 7, 0.0, False, pool_size=size, setup_repeats=1)
    traced = run.run_workload(name, 7, 0.0, True, pool_size=size, setup_repeats=1)
    for label, res in (("untraced", plain), ("traced", traced)):
        line = res["line"]
        if not line["correct"] or line["failed"]:
            problems.append(f"{label} run not correct: {res['report']}")
        bad = [k for k, v in line["metrics"].items() if not math.isfinite(v["value"])]
        if bad:
            problems.append(f"{label} run has non-finite metrics {bad}")
    digests = {plain["report"]["paths_digest"], traced["report"]["paths_digest"],
               traced["report"]["traced_digest"]}
    if len(digests) != 1:
        problems.append(f"path digests differ: {sorted(digests)}")
    left = traced["report"]["wrappers_left"] + leftover_wrappers()
    if left:
        problems.append(f"wrappers left after the traced run: {left}")
    return problems


def _check_problems() -> list[str]:
    """The output check passes real routes and fails corrupted copies."""
    wl = workloads.DrrtCity(1)
    r = wl.requests[0]
    out = wl.execute(r)
    checker = wl.checkers[r.map_index]
    raw, smoothed = out.routes

    def rejected(route):
        return bool(checker.violations(route, r.start, r.goal, r.goal_threshold))

    problems = []
    for label, route in (("raw", raw), ("smoothed", smoothed)):
        if rejected(route):
            problems.append(f"check rejects the real {label} route")
    d = wl.maps[r.map_index].to_dict()
    lo = np.array([b["min"] for b in d["buildings"]])
    hi = np.array([b["max"] for b in d["buildings"]])

    def moved(i, point):
        bad = smoothed.copy()
        bad[i] = point
        return bad

    corrupted = {
        "a waypoint inside a building": moved(len(smoothed) // 2, (lo[0] + hi[0]) / 2),
        "an end short of the goal": moved(-1, smoothed[-1] + [0.0, 0.0, 10.0]),
        "a moved start": moved(0, smoothed[0] + [1.0, 0.0, 0.0]),
    }
    for label, bad in corrupted.items():
        if not rejected(bad):
            problems.append(f"check accepts a route with {label}")
    # a straight hop across a building between two free points: only the
    # dense sampling between waypoints can catch it
    for k in range(len(lo)):
        mid = (lo[k] + hi[k]) / 2
        p = np.array([lo[k, 0] - 1.0, mid[1], mid[2]])
        q = np.array([hi[k, 0] + 1.0, mid[1], mid[2]])
        if not (checker.violations(np.array([p, p]), p, p, 0.0)
                or checker.violations(np.array([q, q]), q, q, 0.0)):
            if not checker.violations(np.array([p, q]), p, q, 0.0):
                problems.append("check accepts a segment through a building")
            break
    else:
        problems.append("no building to fly through for the segment test")
    return problems


@contextlib.contextmanager
def _replaced(name: str, fn):
    """skynav's public `name` replaced by fn(original, *args) for the block."""
    original = getattr(sk, name)
    setattr(sk, name, lambda *args: fn(original, *args))
    try:
        yield
    finally:
        setattr(sk, name, original)


def _raise_problems() -> list[str]:
    """A planner that raises after doing its work fails the run, and its time still counts."""
    def plan_then_raise(original, *args):
        original(*args)
        time.sleep(GIVE_UP_AFTER_S)
        raise RuntimeError("planner raised")

    with _replaced("plan_drrt", plan_then_raise), contextlib.redirect_stderr(io.StringIO()):
        raised = run.run_workload("drrt_city", 7, 0.0, False, pool_size=1, setup_repeats=1)
    line = raised["line"]
    problems = []
    if line["correct"] or line["failed"] != line["attempted"]:
        problems.append(f"a raising planner gives correct={line['correct']}, "
                        f"failed={line['failed']} of {line['attempted']}")
    # raw time, as the scaled one moves with the machine; the probes taken
    # during the wait are subtracted from it, hence the margin
    raw_ms = raised["report"]["raw"]["p50_ms"]
    if not raw_ms >= 0.9 * GIVE_UP_AFTER_S * 1e3:
        problems.append(f"a raising request's time is not counted: raw p50_ms {raw_ms:.3f}, "
                        f"but it waited {GIVE_UP_AFTER_S * 1e3:.0f} ms before raising")
    return problems


def _partial_problems() -> list[str]:
    """When ACO finds no route, the A* route it came with is still checked."""
    wl = workloads.GridCity(1)
    r = wl.requests[0]

    def astar_off_by_a_metre(original, *args):
        res = original(*args)
        res.path[0] += [1.0, 0.0, 0.0]
        return res

    def aco_finds_none(original, *args):
        res = original(*args)
        res.success = False
        res.path = res.path[:0]
        return res

    s = run.Samples()
    with _replaced("plan_astar", astar_off_by_a_metre), _replaced("plan_aco", aco_finds_none):
        run.run_request(sk, wl, r, s)
    if s.failed != 1 or r.index not in s.violations:
        return [f"a bad A* route beside a failed ACO passes: failed={s.failed}, "
                f"no_route={s.no_route}"]
    return []


def run_all() -> int:
    sections = [("BENCHMARK.json matches run.py", _benchmark_json_matches)]
    sections += [(f"{name}: tiny run, traced == untraced, no wrapper left",
                  lambda n=name: _workload_problems(n)) for name in workloads.WORKLOADS]
    sections.append(("output check rejects corrupted routes", _check_problems))
    sections.append(("a raising planner fails the run and keeps its time", _raise_problems))
    sections.append(("A* route checked when ACO finds none", _partial_problems))
    failures = 0
    for label, fn in sections:
        problems = fn()
        failures += bool(problems)
        print(f"[{'FAIL' if problems else 'PASS'}] {label}")
        for p in problems:
            print(f"    {p}")
    return 1 if failures else 0
