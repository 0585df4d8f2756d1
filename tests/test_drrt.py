"""Enhanced planner tests: step control, detours, bias, reduction to the classic tree."""
from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from test_env import _segment_hits_box_oracle

from skynav import (Building, CityMap, DrrtParams, PlanRequest, RrtParams, SearchTree,
                    build_city, classify_step_outcome, default_scenario, detour_extend,
                    plan_drrt, plan_rrt, update_step)
from skynav.drrt import COLLIDED, FAR, NEUTRAL


def _empty(side=500.0):
    return CityMap((), (0, 0, 0), (side, side, side))


# ----------------------------------------------------------------------
# parameters
# ----------------------------------------------------------------------

def test_params_validation():
    DrrtParams()   # defaults are self-consistent
    with pytest.raises(ValueError):
        DrrtParams(p_target=1.5)
    with pytest.raises(ValueError):
        DrrtParams(step_min=0.0)
    with pytest.raises(ValueError):
        DrrtParams(step_size=20.0)      # above step_max
    with pytest.raises(ValueError):
        DrrtParams(e=1.0)
    with pytest.raises(ValueError):
        DrrtParams(clearance_far=0.0)


# ----------------------------------------------------------------------
# step-size controller
# ----------------------------------------------------------------------

def test_step_grows_by_e_when_far():
    p = DrrtParams(step_size=10.0, e=1.2, step_max=15.0, step_min=1.0)
    assert update_step(10.0, FAR, p) == pytest.approx(12.0, rel=1e-12)
    assert update_step(14.0, FAR, p) == 15.0           # 16.8 clamped


def test_step_shrinks_by_e_after_collision():
    p = DrrtParams(step_size=10.0, e=1.2, step_max=15.0, step_min=1.0)
    assert update_step(10.0, COLLIDED, p) == pytest.approx(10.0 / 1.2, rel=1e-12)
    assert update_step(1.0, COLLIDED, p) == 1.0        # floor saturation


def test_step_resets_when_neutral_and_rejects_unknown_labels():
    p = DrrtParams(step_size=10.0)
    assert update_step(3.0, NEUTRAL, p) == 10.0
    with pytest.raises(ValueError):
        update_step(10.0, "sideways", p)


def test_fuzzed_update_sequences_stay_inside_the_step_bounds():
    rng = np.random.default_rng(6)
    p = DrrtParams(step_size=10.0, e=1.2, step_max=15.0, step_min=1.0)
    outcomes = (FAR, COLLIDED, NEUTRAL)
    for _ in range(50):
        step = p.step_size
        for _ in range(200):
            step = update_step(step, outcomes[rng.integers(0, 3)], p)
            assert p.step_min <= step <= p.step_max


def test_outcome_classification():
    p = DrrtParams()   # clearance_far = 20
    assert classify_step_outcome(_empty(), (5, 5, 5), True, p) == COLLIDED
    assert classify_step_outcome(_empty(), (5, 5, 5), False, p) == FAR
    wall = CityMap([Building((30, 0, 0), (40, 10, 10))], (0, 0, 0), (100, 100, 100))
    assert wall.clearance((10, 5, 5)) == 20.0
    # exactly on the clearance threshold counts as neutral, strictly beyond as far
    assert classify_step_outcome(wall, (10, 5, 5), False, p) == NEUTRAL
    assert classify_step_outcome(wall, (9.9, 5, 5), False, p) == FAR
    assert classify_step_outcome(wall, (9.9, 5, 5), True, p) == COLLIDED


# ----------------------------------------------------------------------
# detours
# ----------------------------------------------------------------------

def test_detour_prefers_the_candidate_closest_to_the_goal():
    out = detour_extend(_empty(), (0, 0, 10), (100, 0, 10), 5.0)
    assert np.array_equal(out, [5, 0, 10])


def test_detour_breaks_symmetric_ties_toward_plus_y():
    # a thin wall blocks +x; the goal sits straight ahead so +y and -y tie
    wall = CityMap([Building((52, 40, 0), (54, 60, 30))], (0, 0, 0), (100, 100, 100))
    out = detour_extend(wall, (50, 50, 10), (60, 50, 10), 5.0)
    assert np.array_equal(out, [50, 55, 10])


def test_detour_falls_back_to_vertical_when_horizontals_are_blocked():
    boxes = [
        Building((52, 45, 5), (54, 55, 15)), Building((46, 45, 5), (48, 55, 15)),
        Building((45, 52, 5), (55, 54, 15)), Building((45, 46, 5), (55, 48, 15)),
    ]
    city = CityMap(boxes, (0, 0, 0), (100, 100, 100))
    up = detour_extend(city, (50, 50, 10), (50, 50, 40), 5.0)
    assert np.array_equal(up, [50, 50, 15])
    down = detour_extend(city, (50, 50, 10), (50, 50, 1), 5.0)
    assert np.array_equal(down, [50, 50, 5])


def test_detour_returns_none_when_fully_caged():
    boxes = [
        Building((52, 45, 5), (54, 55, 15)), Building((46, 45, 5), (48, 55, 15)),
        Building((45, 52, 5), (55, 54, 15)), Building((45, 46, 5), (55, 48, 15)),
        Building((45, 45, 12), (55, 55, 14)), Building((45, 45, 6), (55, 55, 8)),
    ]
    city = CityMap(boxes, (0, 0, 0), (100, 100, 100))
    assert detour_extend(city, (50, 50, 10), (50, 50, 40), 5.0) is None


# ----------------------------------------------------------------------
# planning
# ----------------------------------------------------------------------

def test_goal_bias_keeps_empty_map_paths_near_straight():
    # 625.06 m is the nominal straight-line reference for these endpoints
    req = PlanRequest((10, 10, 1), (470, 420, 50))
    line = float(np.linalg.norm(req.goal - req.start))
    for seed in (1, 2, 3):
        res = plan_drrt(_empty(), req, DrrtParams(), seed)
        assert res.success
        length = float(np.sqrt((np.diff(res.path, axis=0) ** 2).sum(axis=1)).sum())
        assert length >= line - 1e-6
        assert abs(length - 625.06) / 625.06 <= 0.01


def test_plans_through_an_obstacle_course():
    city = CityMap(
        [Building((20, 20, 0), (30, 30, 40)), Building((40, 10, 0), (50, 22, 35))],
        (0, 0, 0), (80, 80, 80),
    )
    req = PlanRequest((5, 5, 5), (70, 70, 30))
    res = plan_drrt(city, req, DrrtParams(), seed=0)
    assert res.success
    assert np.array_equal(res.path[0], req.start)
    assert np.linalg.norm(res.path[-1] - req.goal) <= req.goal_threshold
    for a, b in zip(res.path[:-1], res.path[1:]):
        assert not city.segment_collides(a, b)


def test_same_seed_reproduces_the_path_exactly():
    city = CityMap([Building((20, 20, 0), (30, 30, 40))], (0, 0, 0), (60, 60, 60))
    req = PlanRequest((5, 5, 5), (55, 55, 30))
    a = plan_drrt(city, req, DrrtParams(), seed=9)
    b = plan_drrt(city, req, DrrtParams(), seed=9)
    assert a.path.tobytes() == b.path.tobytes()
    assert a.explored_nodes == b.explored_nodes


def test_goal_within_threshold_succeeds_in_one_extension():
    res = plan_drrt(_empty(60), PlanRequest((0, 0, 0), (0, 0, 8)))
    assert res.success and res.explored_nodes == 1
    assert np.array_equal(res.path, [[0, 0, 0], [0, 0, 8]])


def test_budget_exhaustion_reports_failure():
    # goal sealed inside a hollow box
    lo, hi, t = 30.0, 50.0, 2.0
    walls = [
        Building((lo, lo, lo), (hi, hi, lo + t)), Building((lo, lo, hi - t), (hi, hi, hi)),
        Building((lo, lo, lo), (lo + t, hi, hi)), Building((hi - t, lo, lo), (hi, hi, hi)),
        Building((lo, lo, lo), (hi, lo + t, hi)), Building((lo, hi - t, lo), (hi, hi, hi)),
    ]
    city = CityMap(walls, (0, 0, 0), (60, 60, 60))
    req = PlanRequest((5, 5, 5), (40, 40, 40), max_failed_attempts=200)
    res = plan_drrt(city, req, DrrtParams(step_size=5.0, step_max=5.0, step_min=1.0), seed=0)
    assert not res.success and res.path.shape == (0, 3)


def test_every_edge_the_planner_adds_is_free(monkeypatch):
    """Every edge plan_drrt adds, straight or detour, passes the dense-sampling oracle."""
    edges = []
    add = SearchTree._add

    def recording_add(self, position, parent):
        if parent >= 0:
            edges.append((self.positions[parent].copy(), np.array(position, dtype=float)))
        return add(self, position, parent)

    monkeypatch.setattr(SearchTree, "_add", recording_add)
    # requests that end with a route on the canonical city and two more; the
    # seeds include runs of 1000+ extensions that weave between the towers.
    # The last case lets the step exceed clearance_far.
    cases = (
        (11, (10, 10, 1), (470, 420, 50), (500, 501, 502), DrrtParams()),
        (12, (490, 490, 5), (10, 10, 30), (500, 501, 502), DrrtParams()),
        (13, (10, 10, 1), (470, 420, 50), (500, 502), DrrtParams()),
        (11, (10, 10, 1), (470, 420, 50), (500, 501, 502), DrrtParams(clearance_far=8.0)),
    )
    for map_seed, start, goal, seeds, params in cases:
        scenario = dataclasses.replace(default_scenario(), map_seed=map_seed,
                                       start=start, goal=goal)
        city = build_city(scenario)
        req = PlanRequest(start, goal, max_failed_attempts=5000)
        boxes = [(np.array(b.min_corner), np.array(b.max_corner)) for b in city.buildings]
        for seed in seeds:
            edges.clear()
            plan_drrt(city, req, params, seed)
            assert edges
            for a, b in edges:
                assert city.in_bounds(b)
                # every sample lies in the edge's box (give or take rounding), so a
                # building box clear of it by more than 1e-6 m cannot be hit
                e_lo, e_hi = np.minimum(a, b) - 1e-6, np.maximum(a, b) + 1e-6
                near = [(lo, hi) for lo, hi in boxes
                        if np.all(lo <= e_hi) and np.all(hi >= e_lo)]
                assert not any(_segment_hits_box_oracle(a, b, lo, hi) for lo, hi in near)


def test_disabling_every_enhancement_reproduces_the_classic_planner():
    city = CityMap(
        [Building((20, 20, 0), (30, 30, 40)), Building((40, 10, 0), (50, 22, 35))],
        (0, 0, 0), (80, 80, 80),
    )
    req = PlanRequest((5, 5, 5), (70, 70, 30))
    reduced = DrrtParams(step_size=10.0, p_target=0.0, step_min=10.0, step_max=10.0,
                         use_detour=False)
    for seed in range(5):
        classic = plan_rrt(city, req, RrtParams(step_size=10.0), seed)
        down = plan_drrt(city, req, reduced, seed)
        assert classic.success == down.success
        assert np.array_equal(classic.path, down.path)
        assert classic.explored_nodes == down.explored_nodes


# ----------------------------------------------------------------------
# frozen outputs
# ----------------------------------------------------------------------

TREE_FROZEN = Path(__file__).parent / "data" / "tree_frozen.json"


def _tree_frozen_outputs() -> dict:
    """Path digest and explored count of plan_rrt and plan_drrt, three seeds on two maps."""
    out = {}
    for map_seed, start, goal in ((11, (10, 10, 1), (470, 420, 50)),
                                  (12, (490, 490, 5), (250, 250, 30))):
        scenario = dataclasses.replace(default_scenario(), map_seed=map_seed,
                                       start=start, goal=goal)
        city = build_city(scenario)
        for seed in (500, 501, 502):
            runs = {
                "rrt": plan_rrt(city, PlanRequest(start, goal), RrtParams(), seed),
                "drrt": plan_drrt(city, PlanRequest(start, goal, max_failed_attempts=5000),
                                  DrrtParams(), seed),
            }
            for name, res in runs.items():
                out[f"map{map_seed}/{name}_seed{seed}"] = {
                    "success": res.success,
                    "explored_nodes": res.explored_nodes,
                    "path_sha256": hashlib.sha256(res.path.tobytes()).hexdigest(),
                }
    return out


def test_tree_planners_reproduce_the_frozen_outputs():
    # recorded before the tree loop moved to block draws and trusted twins
    assert _tree_frozen_outputs() == json.loads(TREE_FROZEN.read_text())
