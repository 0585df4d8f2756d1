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

from .core import EMPTY_PATH, PlanRequest, PlanResult, SearchTree, samples, steer
from .env import CityMap

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
        if not 0 < self.step_min <= self.step_size <= self.step_max < math.inf:
            raise ValueError("need 0 < step_min <= step_size <= step_max < inf")
        if not 1.0 < self.e < math.inf:
            raise ValueError("step growth factor e must be finite and exceed 1")
        if not 0.0 < self.clearance_far < math.inf:
            raise ValueError("clearance_far must be positive and finite")


def classify_step_outcome(city: CityMap, x_new, extension_collided: bool,
                          params: DrrtParams) -> str:
    """Label an iteration for the step controller.

    A collided extension dominates; otherwise the new point is ``far`` when
    its clearance strictly exceeds params.clearance_far, else ``neutral``.
    CityMap.clearance_exceeds makes the comparison, exactly and mostly from
    the map's cell index; it raises ValueError when x_new lies outside the
    bounds or has a NaN coordinate.
    """
    if extension_collided:
        return COLLIDED
    if city.clearance_exceeds(x_new, params.clearance_far):
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

    Each move is one single-segment CityMap._segment_collides query from
    x_near.  That query counts a segment with an endpoint outside the bounds,
    or with a NaN coordinate, as blocked, so such an x_near gives None.
    x_near and goal must hold three coordinates each, else ValueError.
    """
    x_near = np.asarray(x_near, dtype=float)
    goal = np.asarray(goal, dtype=float)
    if x_near.shape != (3,) or goal.shape != (3,):
        raise ValueError(f"expected 3 coordinates, got shapes {x_near.shape} and {goal.shape}")
    dz = step if goal[2] > x_near[2] else -step
    cands = x_near + np.array(((step, 0.0, 0.0), (-step, 0.0, 0.0), (0.0, step, 0.0),
                               (0.0, -step, 0.0), (0.0, 0.0, dz)))
    best = None
    best_d = math.inf
    for k in range(4):
        if not city._segment_collides(x_near, cands[k]):
            v = goal - cands[k]
            d = math.sqrt(v.dot(v))
            if d < best_d:
                best, best_d = cands[k], d
    if best is None and not city._segment_collides(x_near, cands[4]):
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


def check_endpoints(city: CityMap, req: PlanRequest) -> None:
    """Planners require collision-free endpoints."""
    if not city.point_free(req.start):
        raise ValueError(f"start is not collision-free: {tuple(req.start)}")
    if not city.point_free(req.goal):
        raise ValueError(f"goal is not collision-free: {tuple(req.goal)}")


def try_finish(city: CityMap, tree: SearchTree, node: int, goal, threshold: float,
               step: float) -> np.ndarray | None:
    """Terminating path through ``node`` if the search can stop here, else None.

    A node inside the goal region ends the search; the goal point itself is
    appended when the connecting segment is free.  A node within one step of
    the goal connects directly when that segment is free.  goal is a finite
    float64 array of shape (3,), as PlanRequest holds it.
    """
    pos = tree._pos[node]
    d = math.dist(pos.tolist(), goal.tolist())
    if d <= threshold:
        path = tree.extract_path(node)
        if d > 0 and not city._segment_collides(pos, goal):
            path = np.vstack([path, goal])
        return path
    if d <= step and not city._segment_collides(pos, goal):
        return tree.extract_path(tree.add(goal, node))
    return None


def _grow_tree(city: CityMap, req: PlanRequest, params: DrrtParams, seed: int) -> PlanResult:
    """plan_drrt's loop; plan_rrt runs it with p_target 0, no detour and a pinned step.

    A pinned step (step_min == step_max) never changes, so the step
    controller and its far test are skipped.

    PlanRequest and check_endpoints validate the endpoints once; the loop
    then runs on float64 arrays it built itself.  SearchTree.nearest and add
    and steer check nothing; CityMap._segment_collides is the trusted twin
    of the public segment query, answered in Python floats from the map's
    cell index for straight extensions and detour moves alike, as is the
    step controller's CityMap.clearance_exceeds.  sample_with_bias's points
    come from the block-built core.samples stream, whose goal draws are all
    one read-only copy of the goal, told apart by identity.

    steer, the collision check and detour_extend are pure functions of the
    near position, goal, step and map, and a node recomputed from the same
    (near, step) pair would be a copy of a node the tree holds, with the same
    parent and a try_finish that returned None.  Equal coordinates score the
    same wherever a node sits and nearest ties go to the lowest index, so
    that copy could never be a nearest node or a parent: dropping it changes
    no route.  Hence:

    - a goal draw from a (near, step) pair whose straight extension was
      blocked before is replayed, not recomputed: it counts an explored and
      a failed attempt, shrinks the step as a collision and adds no node;
    - a blocked extension from a (near, step) pair whose detour already ran
      counts as failed and calls no detour.

    The goal's nearest node is reused while the tree has not grown.  Both
    caches key on pure functions of (near, step), so a uniform draw equal to
    the goal by value, recomputed in full, gives what they would.
    """
    t0 = perf_counter()
    check_endpoints(city, req)
    step = params.step_size
    adapt_step = params.step_min < params.step_max
    goal = req.goal.copy()
    goal.flags.writeable = False
    draw = samples(goal, params.p_target, city.bounds_min, city.bounds_max,
                   np.random.default_rng(seed)).__next__
    tree = SearchTree(req.start)
    explored = 0

    if math.dist(req.start, goal) <= max(step, req.goal_threshold):
        explored = 1
        path = try_finish(city, tree, 0, goal, req.goal_threshold, step)
        if path is not None:
            return PlanResult(True, path, explored, perf_counter() - t0)

    # (near, step) pairs of goal draws whose straight extension was blocked,
    # and of blocked extensions whose detour ran; the tree size and nearest
    # node of the last goal draw
    trapped = set()
    detoured = set()
    goal_size = goal_near = 0
    failed = 0
    while failed < req.max_failed_attempts:
        sample = draw()
        explored += 1
        to_goal = sample is goal
        if to_goal:
            if goal_size != tree._n:
                goal_size, goal_near = tree._n, tree.nearest(sample)
            near = goal_near
            if (near, step) in trapped:
                # an exact repeat: it would block as before, adding at most a
                # copy of a node the tree holds
                failed += 1
                if adapt_step:
                    step = update_step(step, COLLIDED, params)
                continue
        else:
            near = tree.nearest(sample)
        near_pos = tree._pos[near]
        new = steer(near_pos, sample, step)
        degenerate = new[0] == near_pos[0] and new[1] == near_pos[1] and new[2] == near_pos[2]
        blocked = degenerate or city._segment_collides(near_pos, new)
        node = new
        if blocked:
            # a blocked straight extension spends budget even when a detour
            # rescues it, so the attempt budget always bounds the search
            failed += 1
            key = (near, step)
            if to_goal:
                trapped.add(key)
            node = None
            if params.use_detour and key not in detoured:
                detoured.add(key)
                node = detour_extend(city, near_pos, goal, step)
        if node is not None:
            path = try_finish(city, tree, tree.add(node, near), goal, req.goal_threshold, step)
            if path is not None:
                return PlanResult(True, path, explored, perf_counter() - t0)
        if adapt_step:
            # the point is read only when the extension was not blocked
            step = update_step(step, classify_step_outcome(city, new, blocked, params), params)
    return PlanResult(False, EMPTY_PATH.copy(), explored, perf_counter() - t0)
