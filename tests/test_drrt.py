"""Enhanced planner tests: step control, detours, bias, reduction to the classic tree."""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from test_env import _segment_hits_box_oracle

import skynav.drrt
from skynav import (Building, CityMap, DrrtParams, PlanRequest, RrtParams, build_city,
                    default_scenario, generate_city, plan_drrt, plan_rrt)
from skynav.core import EMPTY_PATH, SearchTree, samples, steer
from skynav.drrt import (COLLIDED, FAR, NEUTRAL, check_endpoints, classify_step_outcome,
                         detour_extend, try_finish, update_step)


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


@pytest.mark.parametrize("x_new", [(-50.0, 15.0, 10.0), (15.0, 15.0, 101.0), (np.nan, 15.0, 10.0),
                                   np.array([15.0, np.nan, 10.0])])
def test_outcome_classification_rejects_points_outside_the_bounds(x_new):
    wall = CityMap([Building((30, 0, 0), (40, 10, 10))], (0, 0, 0), (100, 100, 100))
    with pytest.raises(ValueError):
        classify_step_outcome(wall, x_new, False, DrrtParams())


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


def _batched_detour_extend(city, x_near, goal, step):
    """detour_extend as it was with its five moves checked in one batched slab test."""
    x_near = np.asarray(x_near, dtype=float)
    goal = np.asarray(goal, dtype=float)
    if not city._inside(x_near.tolist()):
        return None
    dz = step if goal[2] > x_near[2] else -step
    cands = x_near + np.array(((step, 0.0, 0.0), (-step, 0.0, 0.0), (0.0, step, 0.0),
                               (0.0, -step, 0.0), (0.0, 0.0, dz)))
    inside = [city._inside(c) for c in cands.tolist()]
    touched = city._touch_buildings(x_near[None].repeat(5, axis=0), cands).tolist()
    best = None
    best_d = math.inf
    for k in range(4):
        if inside[k] and not touched[k]:
            v = goal - cands[k]
            d = math.sqrt(v.dot(v))
            if d < best_d:
                best, best_d = cands[k], d
    if best is None and inside[4] and not touched[4]:
        return cands[4]
    return best


def _detour_kinds_matching_the_batched_detour(city, near, goals, steps):
    """Assert detour_extend equals the batched copy on every point; return the outcomes seen."""
    kinds = set()
    for x, g, step in zip(near, goals, steps):
        got = detour_extend(city, x, g, step)
        want = _batched_detour_extend(city, x, g, step)
        if want is None:
            assert got is None
            kinds.add("none")
        else:
            assert got.dtype == want.dtype and np.array_equal(got, want)
            kinds.add("vertical" if got[2] != x[2] else "sideways")
    return kinds


def test_detour_matches_the_batched_detour():
    """Random near points, steps of 1-15 m, goals above and below.

    On the canonical map, a third of the points sit exactly one step off a
    building face; on a lattice of thin walls 10 m apart, most points have
    every sideways move blocked.
    """
    city = build_city(default_scenario())
    rng = np.random.default_rng(5)
    n = 2000
    steps = rng.uniform(1.0, 15.0, n)
    near = rng.uniform(0.0, 500.0, (n, 3)) * (1.0, 1.0, 0.6)
    lo, hi = (np.array([getattr(b, c) for b in city.buildings]) for c in ("min_corner", "max_corner"))
    pick = rng.integers(0, len(lo), n)
    axis = rng.integers(0, 3, n)
    below = rng.random(n) < 0.5
    for k in np.nonzero(np.arange(n) % 3 == 0)[0]:
        face = lo[pick[k], axis[k]] - steps[k] if below[k] else hi[pick[k], axis[k]] + steps[k]
        near[k, axis[k]] = min(max(face, 0.0), 500.0)
    goals = near + rng.uniform(-200.0, 200.0, (n, 3))
    goals[:, 2] = np.where(np.arange(n) % 2, near[:, 2] + 40.0, near[:, 2] - 40.0)
    kinds = _detour_kinds_matching_the_batched_detour(city, near, goals, steps)
    assert kinds == {"none", "sideways"}

    walls = [Building((10.0 * k, 0, 0), (10.0 * k + 0.5, 100, 20.0 + 5 * k)) for k in range(1, 10)]
    walls += [Building((0, 10.0 * k, 0), (100, 10.0 * k + 0.5, 70.0 - 5 * k)) for k in range(1, 10)]
    lattice = CityMap(walls, (0, 0, 0), (100, 100, 100))
    n = 1000
    steps = rng.uniform(1.0, 15.0, n)
    near = rng.uniform(0.0, 100.0, (n, 3)) * (1.0, 1.0, 0.8)
    goals = rng.uniform(0.0, 100.0, (n, 3))
    goals[:, 2] = np.where(np.arange(n) % 2, near[:, 2] + 40.0, near[:, 2] - 40.0)
    kinds = _detour_kinds_matching_the_batched_detour(lattice, near, goals, steps)
    assert kinds == {"none", "sideways", "vertical"}


def test_detour_gives_none_from_near_points_outside_the_bounds_or_with_a_nan():
    """Every move from such a point leaves the bounds, as the single-segment query sees
    it, even where the move ends inside them; the batched copy checks the bounds itself."""
    city = build_city(default_scenario())
    below = math.nextafter(0.0, -1.0)
    above = math.nextafter(500.0, 501.0)
    for x in ((below, 250.0, 10.0), (-3.0, 250.0, 10.0), (250.0, above, 10.0),
              (250.0, 250.0, -1.0), (250.0, 250.0, 600.0), (math.nan, 250.0, 10.0),
              (250.0, math.nan, 10.0), (250.0, 250.0, math.nan), (math.inf, 250.0, 10.0)):
        for goal in ((400.0, 250.0, 10.0), (250.0, 250.0, 300.0), (0.0, 0.0, 0.0)):
            for step in (1.0, 5.0, 15.0):
                assert detour_extend(city, x, goal, step) is None
                assert _batched_detour_extend(city, x, goal, step) is None


def test_detour_rejects_points_without_three_coordinates():
    for x_near, goal in (((5, 5), (50, 50, 10)), ((5, 5, 5), (50, 50)), ((5, 5, 5, 5), (1, 1, 1))):
        with pytest.raises(ValueError):
            detour_extend(_empty(), x_near, goal, 5.0)


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
    add = SearchTree.add

    def recording_add(self, position, parent):
        if parent >= 0:
            edges.append((self._pos[parent].copy(), position.copy()))
        return add(self, position, parent)

    monkeypatch.setattr(SearchTree, "add", recording_add)
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


def _grow_tree_recomputing(city, req, params, seed, detours=None):
    """Reference tree loop that recomputes every draw and every detour, for params with
    detours on and an adaptive step: success, path and explored count.  Labels a free
    extension far by the clearance oracle, and appends each detour's (near, step) to
    detours when given."""
    step = params.step_size
    goal = req.goal
    draw = samples(goal, params.p_target, city.bounds_min, city.bounds_max,
                   np.random.default_rng(seed)).__next__
    tree = SearchTree(req.start)
    explored = 0
    check_endpoints(city, req)
    if math.dist(req.start, goal) <= max(step, req.goal_threshold):
        explored = 1
        path = try_finish(city, tree, 0, goal, req.goal_threshold, step)
        if path is not None:
            return True, path, explored
    failed = 0
    while failed < req.max_failed_attempts:
        sample = draw()
        near = tree.nearest(sample)
        near_pos = tree._pos[near]
        new = steer(near_pos, sample, step)
        explored += 1
        blocked = np.array_equal(new, near_pos) or city._segment_collides(near_pos, new)
        node = new
        if blocked:
            failed += 1
            node = detour_extend(city, near_pos, goal, step)
            if detours is not None:
                detours.append((near_pos.tobytes(), step))
        if node is not None:
            path = try_finish(city, tree, tree.add(node, near), goal, req.goal_threshold, step)
            if path is not None:
                return True, path, explored
        outcome = COLLIDED if blocked else (
            FAR if city.clearance(new) > params.clearance_far else NEUTRAL)
        step = update_step(step, outcome, params)
    return False, EMPTY_PATH.copy(), explored


# Requests 12, 15, 19, 20 and 23 of the benchmark's drrt_city pool, where the
# goal bias keeps drawing the goal from one blocked node: (map seed, start,
# goal, seed).  Map 11 is the canonical city; 12 and 13 are generated with its
# parameters.  All run with a budget of 5000 blocked extensions.
TRAPPED_REQUESTS = (
    (11, (486.27103684223374, 241.86700708638912, 1.046562806715413),
     (128.07569644769237, 224.49461533943665, 311.68689071809285), 512),
    (11, (326.2632534236794, 439.32729575876397, 1.0742850576485523),
     (479.57220425761955, 41.36563078542839, 15.231952680131952), 515),
    (12, (78.0634405943256, 352.9026131755906, 18.679152758780482),
     (464.63305103794653, 35.89001661748604, 248.7295490424695), 519),
    (13, (486.8834680712733, 458.87743848310714, 6.188410608969867),
     (274.3424570293298, 231.26565050230474, 396.29574648044047), 520),
    (13, (159.96961871078386, 402.14159083473703, 4.205677760518894),
     (489.99278257483877, 204.0519998860185, 139.17075779587063), 523),
)


@pytest.mark.exact
def test_replayed_goal_draws_reproduce_the_recomputing_loop(monkeypatch):
    """Replaying a repeated blocked goal draw changes no route, and skips its detour."""
    scenario = default_scenario()
    maps = {11: build_city(scenario),
            12: generate_city(12, scenario.map_params),
            13: generate_city(13, scenario.map_params)}
    calls = []
    monkeypatch.setattr(skynav.drrt, "detour_extend",
                        lambda *args: calls.append(1) or detour_extend(*args))
    failures = 0
    for map_seed, start, goal, seed in TRAPPED_REQUESTS:
        city, req = maps[map_seed], PlanRequest(start, goal, max_failed_attempts=5000)
        success, path, explored = _grow_tree_recomputing(city, req, DrrtParams(), seed)
        calls.clear()
        res = plan_drrt(city, req, DrrtParams(), seed)
        assert (res.success, res.explored_nodes) == (success, explored)
        assert res.path.tobytes() == path.tobytes()
        if not success:
            # the recomputing loop calls detour_extend once per budgeted attempt
            failures += 1
            assert len(calls) < 1000
    assert failures == 3


def test_goal_draws_are_told_apart_by_identity_alone(monkeypatch):
    """A goal draw that comes back as a fresh, writable copy of the goal is planned as a
    uniform draw, recomputed in full: with every fifth goal draw copied, a request that
    ends with no route and one that is routed give the same path and explored count."""
    city = build_city(default_scenario())
    requests = (
        # request 15 of the benchmark's drrt_city pool: no route within its budget
        (PlanRequest((326.2632534236794, 439.32729575876397, 1.0742850576485523),
                     (479.57220425761955, 41.36563078542839, 15.231952680131952),
                     max_failed_attempts=5000), 515),
        # request 0: the canonical request
        (PlanRequest((10.0, 10.0, 1.0), (470.0, 420.0, 50.0)), 500),
    )
    expected = [plan_drrt(city, req, DrrtParams(), seed) for req, seed in requests]
    assert [res.success for res in expected] == [False, True]
    copies = []

    def copying_samples(goal, *args):
        goal_draws = 0
        for sample in samples(goal, *args):
            if sample is goal:
                goal_draws += 1
                if goal_draws % 5 == 0:
                    sample = goal.copy()
                    copies.append(sample)
            yield sample

    monkeypatch.setattr(skynav.drrt, "samples", copying_samples)
    for (req, seed), want in zip(requests, expected):
        copies.clear()
        got = plan_drrt(city, req, DrrtParams(), seed)
        assert copies and all(c.flags.writeable for c in copies)
        assert (got.success, got.explored_nodes) == (want.success, want.explored_nodes)
        assert got.path.tobytes() == want.path.tobytes()


# Requests 13 and 17 of the benchmark's drrt_city pool, which find a route after
# detouring many times from the same nodes: (map seed, start, goal, seed), as above.
ROUTED_REQUESTS = (
    (12, (489.7472163717367, 41.00721701354806, 29.09269457822881),
     (144.45671757549403, 136.7632735242585, 113.76671709441845), 513),
    (13, (379.29935244821877, 30.14679262491624, 8.000593151907735),
     (211.08054263047487, 426.67416379826676, 143.96781992248415), 517),
)


@pytest.mark.exact
def test_detour_memo_reproduces_the_recomputing_loop(monkeypatch):
    """One detour per (near, step) per plan changes no route and calls fewer detours."""
    scenario = default_scenario()
    maps = {11: build_city(scenario),
            12: generate_city(12, scenario.map_params),
            13: generate_city(13, scenario.map_params)}
    calls = []
    monkeypatch.setattr(
        skynav.drrt, "detour_extend",
        lambda city, near, goal, step: calls.append((near.tobytes(), step))
        or detour_extend(city, near, goal, step))
    for map_seed, start, goal, seed in TRAPPED_REQUESTS + ROUTED_REQUESTS:
        city, req = maps[map_seed], PlanRequest(start, goal, max_failed_attempts=5000)
        recomputed = []
        success, path, explored = _grow_tree_recomputing(city, req, DrrtParams(), seed,
                                                         recomputed)
        calls.clear()
        res = plan_drrt(city, req, DrrtParams(), seed)
        assert (res.success, res.explored_nodes) == (success, explored)
        assert res.path.tobytes() == path.tobytes()
        # one detour per near position and step, where the reference repeats them
        assert len(set(calls)) == len(calls) < len(recomputed)
        assert set(calls) == set(recomputed)


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


@pytest.mark.exact
def test_tree_planners_reproduce_the_frozen_outputs():
    # recorded before the tree loop moved to block draws and trusted twins
    assert _tree_frozen_outputs() == json.loads(TREE_FROZEN.read_text())
