"""Classic tree planner behaviour: termination, failure, determinism."""
from __future__ import annotations

import importlib
from pathlib import Path

import numpy as np
import pytest

import skynav.core
import skynav.drrt
import skynav.env
from skynav import (Building, CityMap, DrrtParams, PlanRequest, RrtParams, build_city,
                    default_scenario, plan_drrt, plan_rrt)
from skynav.drrt import check_endpoints, try_finish
from skynav.core import SearchTree


def _empty(side=60.0):
    return CityMap((), (0, 0, 0), (side, side, side))


def _goal_vault(goal=(40.0, 40.0, 40.0)):
    """Six wall slabs sealing the goal inside a hollow box."""
    lo, hi, t = 30.0, 50.0, 2.0
    walls = [
        Building((lo, lo, lo), (hi, hi, lo + t)),
        Building((lo, lo, hi - t), (hi, hi, hi)),
        Building((lo, lo, lo), (lo + t, hi, hi)),
        Building((hi - t, lo, lo), (hi, hi, hi)),
        Building((lo, lo, lo), (hi, lo + t, hi)),
        Building((lo, hi - t, lo), (hi, hi, hi)),
    ]
    return CityMap(walls, (0, 0, 0), (60, 60, 60)), goal


def test_goal_within_threshold_succeeds_in_one_extension():
    res = plan_rrt(_empty(), PlanRequest((0, 0, 0), (0, 0, 8)))
    assert res.success
    assert res.explored_nodes == 1
    assert np.array_equal(res.path, [[0, 0, 0], [0, 0, 8]])


def test_start_equals_goal():
    res = plan_rrt(_empty(), PlanRequest((5, 5, 5), (5, 5, 5)))
    assert res.success and res.explored_nodes == 1
    assert np.array_equal(res.path, [[5, 5, 5]])


def test_path_endpoints_and_feasibility_on_obstacle_map():
    city = CityMap([Building((20, 20, 0), (30, 30, 40))], (0, 0, 0), (60, 60, 60))
    req = PlanRequest((5, 5, 5), (55, 55, 30))
    res = plan_rrt(city, req, RrtParams(), seed=3)
    assert res.success
    assert np.array_equal(res.path[0], req.start)
    assert np.linalg.norm(res.path[-1] - req.goal) <= req.goal_threshold
    for a, b in zip(res.path[:-1], res.path[1:]):
        assert not city.segment_collides(a, b)


def test_walled_off_goal_exhausts_the_attempt_budget():
    city, goal = _goal_vault()
    req = PlanRequest((5, 5, 5), goal, max_failed_attempts=300)
    res = plan_rrt(city, req, RrtParams(step_size=5.0), seed=0)
    assert not res.success
    assert res.path.shape == (0, 3)
    assert res.explored_nodes >= 300


def test_same_seed_reproduces_the_path_exactly():
    city = CityMap([Building((20, 20, 0), (30, 30, 40))], (0, 0, 0), (60, 60, 60))
    req = PlanRequest((5, 5, 5), (55, 55, 30))
    a = plan_rrt(city, req, RrtParams(), seed=3)
    b = plan_rrt(city, req, RrtParams(), seed=3)
    assert a.success and b.success
    assert a.path.tobytes() == b.path.tobytes()
    assert a.explored_nodes == b.explored_nodes
    c = plan_rrt(city, req, RrtParams(), seed=4)
    assert not np.array_equal(a.path, c.path)


def test_occupied_endpoints_are_rejected():
    city = CityMap([Building((20, 20, 0), (30, 30, 40))], (0, 0, 0), (60, 60, 60))
    with pytest.raises(ValueError):
        check_endpoints(city, PlanRequest((25, 25, 5), (55, 55, 30)))
    with pytest.raises(ValueError):
        plan_rrt(city, PlanRequest((5, 5, 5), (25, 25, 10)))


def test_try_finish_connects_within_step_and_threshold():
    city = _empty()
    goal = np.array([10.0, 0.0, 0.0])
    # within threshold: goal appended to the path without a new tree node
    tree = SearchTree((6.0, 0.0, 0.0))
    path = try_finish(city, tree, 0, (6.0, 0.0, 0.0), goal, threshold=5.0, step=2.0)
    assert np.array_equal(path, [[6, 0, 0], [10, 0, 0]])
    assert len(tree) == 1
    # beyond threshold but within one step: goal becomes a tree node
    tree = SearchTree((2.0, 0.0, 0.0))
    path = try_finish(city, tree, 0, (2.0, 0.0, 0.0), goal, threshold=5.0, step=10.0)
    assert np.array_equal(path, [[2, 0, 0], [10, 0, 0]])
    assert len(tree) == 2
    # out of reach entirely
    tree = SearchTree((-20.0, 0.0, 0.0))
    wait = try_finish(city, tree, 0, (-20.0, 0.0, 0.0), goal, threshold=5.0, step=10.0)
    assert wait is None


def test_try_finish_respects_blocking_walls():
    city = CityMap([Building((4, -1, -1), (5, 1, 1))], (-10, -10, -10), (10, 10, 10))
    goal = np.array([8.0, 0.0, 0.0])
    tree = SearchTree((0.0, 0.0, 0.0))
    # goal within one step but the connecting segment is blocked
    assert try_finish(city, tree, 0, (0.0, 0.0, 0.0), goal, threshold=1.0, step=10.0) is None
    # inside the goal region the node itself terminates the path even when
    # the direct segment to the goal point is blocked
    tree = SearchTree((0.0, 0.0, 0.0))
    path = try_finish(city, tree, 0, (0.0, 0.0, 0.0), goal, threshold=9.0, step=1.0)
    assert np.array_equal(path, [[0, 0, 0]])


def _count_calls(monkeypatch, owner, name) -> list:
    """Replace owner.name by a wrapper that appends to the returned list per call."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_explored_counts_every_extension_attempt(monkeypatch):
    # every extension attempt asks the tree for its nearest node once
    nearest = _count_calls(monkeypatch, SearchTree, "nearest")
    city = CityMap([Building((20, 20, 0), (30, 30, 40))], (0, 0, 0), (60, 60, 60))
    req = PlanRequest((5, 5, 5), (55, 55, 30))
    res = plan_rrt(city, req, RrtParams(), seed=3)
    assert res.explored_nodes == len(nearest)
    assert res.explored_nodes >= len(res.path) - 2


def test_the_benchmark_tracer_sees_the_tree_loop(monkeypatch):
    # perfbench's tracer wraps the tree loop's helpers by name; a loop call
    # moved to an unwrapped twin would read 0 here, not just in a traced run
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    tracer = importlib.import_module("tracer")
    city = CityMap([Building((20, 20, 0), (30, 30, 40))], (0, 0, 0), (60, 60, 60))
    req = PlanRequest((5, 5, 5), (55, 55, 30))
    # drrt tracks the goal's nearest node instead of asking for it, so its run
    # draws uniform points too, which ask nearest
    for planner, params in ((plan_rrt, RrtParams()), (plan_drrt, DrrtParams(p_target=0.5))):
        traced = tracer.Tracer()
        traced.install()
        try:
            res = planner(city, req, params, seed=3)
        finally:
            traced.restore()
        assert tracer.leftover_wrappers() == []
        assert res.success
        nearest, steer, add = (traced.stat(f"core.{name}").calls
                               for name in ("nearest", "steer", "add"))
        if planner is plan_rrt:
            # no goal draws, so every extension asks for its nearest node
            assert nearest == steer == res.explored_nodes
        assert nearest > 0 and steer > 0
        assert add >= len(res.path) - 1


def test_points_are_validated_once_per_plan_not_per_extension(monkeypatch):
    # the request and the endpoints are checked at the boundary; the tree
    # loop runs on arrays it built itself
    city = CityMap([Building((20, 20, 0), (30, 30, 40)), Building((40, 10, 0), (50, 22, 35))],
                   (0, 0, 0), (80, 80, 80))
    req = PlanRequest((5, 5, 5), (70, 70, 30))
    calls = _count_calls(monkeypatch, skynav.env, "as_point")
    # core imports as_point by name; count its calls there too
    monkeypatch.setattr(skynav.core, "as_point", skynav.env.as_point)
    per_run = {}
    for seed in range(6):
        calls.clear()
        res = plan_rrt(city, req, RrtParams(), seed)
        assert res.success
        per_run[res.explored_nodes] = len(calls)
    assert len(per_run) > 1, "the seeds should need different numbers of extensions"
    assert len(set(per_run.values())) == 1, per_run
    assert max(per_run.values()) < min(per_run)


def test_enhanced_planner_validates_points_once_per_plan(monkeypatch):
    # the step controller's clearance query and the detours run on points
    # the loop built itself, so the count does not grow with the extensions
    scenario = default_scenario()
    city = build_city(scenario)
    req = PlanRequest(scenario.start, scenario.goal)
    calls = _count_calls(monkeypatch, skynav.env, "as_point")
    monkeypatch.setattr(skynav.core, "as_point", skynav.env.as_point)
    per_run = {}
    for seed in (500, 501, 502):
        calls.clear()
        res = plan_drrt(city, req, DrrtParams(), seed)
        assert res.success
        per_run[res.explored_nodes] = len(calls)
    assert len(per_run) > 1, "the seeds should need different numbers of extensions"
    assert len(set(per_run.values())) == 1, per_run
    assert max(per_run.values()) < min(per_run)


def test_fixed_step_runs_no_clearance_query_and_no_detour(monkeypatch):
    # the classic planner's step never changes, so the step controller's
    # clearance query would be pure cost on every extension; the controller
    # asks CityMap's far test
    clearance = _count_calls(monkeypatch, CityMap, "clearance_exceeds")
    detours = _count_calls(monkeypatch, skynav.drrt, "detour_extend")
    city = CityMap([Building((20, 20, 0), (30, 30, 40)), Building((40, 10, 0), (50, 22, 35))],
                   (0, 0, 0), (80, 80, 80))
    req = PlanRequest((5, 5, 5), (70, 70, 30))
    for seed in range(4):
        assert plan_rrt(city, req, RrtParams(), seed).success
    assert len(clearance) == 0 and len(detours) == 0
    # the same counters see the enhanced planner's queries on this map
    plan_drrt(city, req, DrrtParams(), seed=0)
    assert len(clearance) > 0 and len(detours) > 0
