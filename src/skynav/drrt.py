"""Enhanced RRT planner for urban airspace.

Four add-ons over the classic tree: goal-biased sampling, a self-adjusting
step length, sideways detours when the straight extension is blocked, and
(see smoothing.py) B-spline post-processing of the raw path.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from .core import EMPTY_PATH, PlanRequest, PlanResult, SearchTree, _steer, samples
from .env import CityMap
from .rrt import check_endpoints, try_finish

# step-outcome labels used by classify_step_outcome / update_step
FAR = "far"
COLLIDED = "collided"
NEUTRAL = "neutral"


@dataclass(frozen=True)
class DrrtParams:
    """Tuning for the enhanced planner.

    The step length starts at step_size and is rescaled by factor e: grown
    while the tree is farther than clearance_far from every building, shrunk
    after collisions, and reset to step_size otherwise.  use_detour switches
    the sideways-escape strategy off.
    """

    step_size: float = 10.0
    p_target: float = 0.9
    e: float = 1.2
    step_max: float = 15.0
    step_min: float = 1.0
    clearance_far: float = 20.0
    use_detour: bool = True

    def __post_init__(self):
        if not 0.0 <= self.p_target <= 1.0:
            raise ValueError("p_target must lie in [0, 1]")
        if not 0 < self.step_min <= self.step_size <= self.step_max:
            raise ValueError("need 0 < step_min <= step_size <= step_max")
        if self.e <= 1.0:
            raise ValueError("step growth factor e must exceed 1")
        if self.clearance_far <= 0:
            raise ValueError("clearance_far must be positive")


def classify_step_outcome(city: CityMap, x_new, extension_collided: bool,
                          params: DrrtParams) -> str:
    """Label an iteration for the step controller.

    A collided extension dominates; otherwise the new point is ``far`` when
    its clearance strictly exceeds params.clearance_far, else ``neutral``.
    x_new is a point inside the bounds, such as a node the planner added; it
    goes to CityMap's trusted clearance twin unvalidated.
    """
    if extension_collided:
        return COLLIDED
    if city._clearance(x_new) > params.clearance_far:
        return FAR
    return NEUTRAL


def update_step(current: float, outcome: str, params: DrrtParams) -> float:
    """Next step length: grow when far, shrink after collisions, else reset."""
    if outcome == FAR:
        return min(params.step_max, params.e * current)
    if outcome == COLLIDED:
        return max(params.step_min, current / params.e)
    if outcome == NEUTRAL:
        return params.step_size
    raise ValueError(f"unknown step outcome: {outcome!r}")


def detour_extend(city: CityMap, x_near, goal, step: float) -> np.ndarray | None:
    """Sideways escape when the straight extension is blocked.

    Tries the four horizontal step-length moves (+x, -x, +y, -y) and returns
    the feasible one closest to the goal, earlier direction winning ties.  If
    all four are blocked, steps vertically toward the goal's altitude: up when
    the goal is higher than x_near, down otherwise.  Returns None when every
    candidate is blocked or out of bounds.

    All five moves are checked in one batched call; the bounds are checked
    in Python scalars first.
    """
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


def plan_drrt(city: CityMap, req: PlanRequest, params: DrrtParams = DrrtParams(),
              seed: int = 0) -> PlanResult:
    """Enhanced tree search from start until the tree reaches the goal region.

    Per iteration: draw a goal-biased sample, steer from the nearest node by
    the current step, and on a blocked extension attempt one sideways detour.
    The step length is updated from the iteration outcome before the next
    draw.  Every blocked straight extension counts against the failed-attempt
    budget, detour rescue or not.  Deterministic for a fixed (map, request,
    params, seed).
    """
    return _grow_tree(city, req, params, seed)


def _grow_tree(city: CityMap, req: PlanRequest, params: DrrtParams, seed: int) -> PlanResult:
    """plan_drrt's loop; plan_rrt runs it with p_target 0, no detour and a pinned step.

    A pinned step (step_min == step_max) never changes, so the step
    controller and its clearance query are skipped.

    PlanRequest and check_endpoints validate the endpoints once; the loop
    then calls the trusted twins (SearchTree._nearest and _add, _steer,
    CityMap._segment_collides) on float64 arrays it built itself, and takes
    sample_with_bias's points from the block-built core.samples stream.
    """
    t0 = perf_counter()
    check_endpoints(city, req)
    step = params.step_size
    adapt_step = params.step_min < params.step_max
    goal = req.goal
    draw = samples(goal, params.p_target, city.bounds_min, city.bounds_max,
                   np.random.default_rng(seed)).__next__
    tree = SearchTree(req.start)
    explored = 0

    if math.dist(req.start, goal) <= max(step, req.goal_threshold):
        explored = 1
        path = try_finish(city, tree, 0, goal, req.goal_threshold, step)
        if path is not None:
            return PlanResult(True, path, explored, perf_counter() - t0)

    failed = 0
    while failed < req.max_failed_attempts:
        sample = draw()
        near = tree._nearest(sample)
        near_pos = tree.positions[near]
        new = _steer(near_pos, sample, step)
        explored += 1
        degenerate = new[0] == near_pos[0] and new[1] == near_pos[1] and new[2] == near_pos[2]
        blocked = degenerate or city._segment_collides(near_pos, new)
        node = new
        if blocked:
            # a blocked straight extension spends budget even when a detour
            # rescues it, so the attempt budget always bounds the search
            failed += 1
            node = detour_extend(city, near_pos, goal, step) if params.use_detour else None
        if node is not None:
            path = try_finish(city, tree, tree._add(node, near), goal, req.goal_threshold, step)
            if path is not None:
                return PlanResult(True, path, explored, perf_counter() - t0)
        if adapt_step:
            # the point is read only when the extension was not blocked
            step = update_step(step, classify_step_outcome(city, new, blocked, params), params)
    return PlanResult(False, EMPTY_PATH.copy(), explored, perf_counter() - t0)
