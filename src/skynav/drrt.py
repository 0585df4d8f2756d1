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

from .core import EMPTY_PATH, PlanRequest, PlanResult, SearchTree, sample_with_bias, steer
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
    """
    if extension_collided:
        return COLLIDED
    if city.clearance(x_new) > params.clearance_far:
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
    """
    x_near = np.asarray(x_near, dtype=float)
    goal = np.asarray(goal, dtype=float)
    cands = x_near + np.array([(step, 0.0, 0.0), (-step, 0.0, 0.0),
                               (0.0, step, 0.0), (0.0, -step, 0.0)])
    blocked = city.segments_collide(np.broadcast_to(x_near, cands.shape), cands)
    best = None
    best_d = np.inf
    for cand in cands[~blocked]:
        d = float(np.linalg.norm(goal - cand))
        if d < best_d:
            best, best_d = cand, d
    if best is not None:
        return best
    dz = step if goal[2] > x_near[2] else -step
    cand = x_near + (0.0, 0.0, dz)
    if not city.segment_collides(x_near, cand):
        return cand
    return None


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
    controller and its clearance query are skipped.  A straight extension
    from a node labelled ``far`` skips its collision check when the step is
    below clearance_far and the new point is in bounds: the node is more
    than clearance_far from every building, so no point within one step of
    it touches one (the collision certificate of Bialkowski, Karaman &
    Frazzoli, 2011).  The answer is the same with or without the check.
    """
    t0 = perf_counter()
    check_endpoints(city, req)
    rng = np.random.default_rng(seed)
    step = params.step_size
    adapt_step = params.step_min < params.step_max
    goal = req.goal
    tree = SearchTree(req.start)
    # per node: classify_step_outcome labelled it FAR (the root is never labelled)
    far = [False]
    explored = 0

    if math.dist(req.start, goal) <= max(step, req.goal_threshold):
        explored = 1
        path = try_finish(city, tree, 0, goal, req.goal_threshold, step)
        if path is not None:
            return PlanResult(True, path, explored, perf_counter() - t0)

    failed = 0
    while failed < req.max_failed_attempts:
        sample = sample_with_bias(goal, params.p_target, city.bounds_min, city.bounds_max, rng)
        near = tree.nearest(sample)
        near_pos = tree.positions[near]
        new = steer(near_pos, sample, step)
        explored += 1
        degenerate = new[0] == near_pos[0] and new[1] == near_pos[1] and new[2] == near_pos[2]
        certified = far[near] and step < params.clearance_far and city.in_bounds(new)
        blocked = degenerate or (not certified and city.segment_collides(near_pos, new))
        idx = None
        x_new = new
        if not blocked:
            idx = tree.add(new, near)
        elif params.use_detour:
            detour = detour_extend(city, near_pos, goal, step)
            if detour is not None:
                idx = tree.add(detour, near)
                x_new = detour
        if blocked:
            # a blocked straight extension spends budget even when a detour
            # rescues it, so the attempt budget always bounds the search
            failed += 1
        if idx is not None:
            path = try_finish(city, tree, idx, goal, req.goal_threshold, step)
            if path is not None:
                return PlanResult(True, path, explored, perf_counter() - t0)
        outcome = None
        if adapt_step:
            outcome = classify_step_outcome(city, x_new, blocked, params)
            step = update_step(step, outcome, params)
        if idx is not None:
            far.append(outcome == FAR)
    return PlanResult(False, EMPTY_PATH.copy(), explored, perf_counter() - t0)
