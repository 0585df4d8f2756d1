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

from .core import EMPTY_PATH, SLAB_SLACK, PlanRequest, PlanResult, SearchTree, samples, steer
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


def detour_extend(city: CityMap, x_near, goal, step: float) -> tuple[float, float, float] | None:
    """Sideways escape when the straight extension is blocked.

    Tries the four horizontal step-length moves (+x, -x, +y, -y) and returns
    the feasible one closest to the goal, earlier direction winning ties.  If
    all four are blocked, steps vertically toward the goal's altitude: up when
    the goal is higher than x_near, down otherwise.  Returns the move as an
    (x, y, z) tuple of floats, or None when every candidate is blocked or out
    of bounds.

    x_near and goal are (x, y, z) sequences of numbers, else ValueError (two
    or four coordinates, a 2-D array).  An x_near outside the bounds, or with
    a NaN coordinate, is blocked in every direction and gives None; it is
    checked once, and each move inside the bounds is one
    CityMap._hits_buildings query from it.  The moves are built in floats as
    x_near plus (step, 0, 0) and so on, which is what numpy would add, and a
    move's goal distance is math.hypot, as steer's distance is.
    """
    try:
        x, y, z = map(float, x_near)
        gx, gy, gz = map(float, goal)
    except (TypeError, ValueError):
        raise ValueError(f"expected 3 coordinates, got {x_near!r:.40} and {goal!r:.40}") from None
    near = (x, y, z)
    if not city._inside(near):
        return None
    y0, z0 = y + 0.0, z + 0.0
    best = None
    best_d = math.inf
    for cand in ((x + step, y0, z0), (x - step, y0, z0), (x + 0.0, y + step, z0),
                 (x + 0.0, y - step, z0)):
        if city._inside(cand) and not city._hits_buildings(near, cand):
            d = math.hypot(gx - cand[0], gy - cand[1], gz - cand[2])
            if d < best_d:
                best, best_d = cand, d
    if best is None:
        cand = (x + 0.0, y0, z + step if gz > z else z - step)
        if city._inside(cand) and not city._hits_buildings(near, cand):
            return cand
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
        raise ValueError(f"start is not collision-free: {tuple(req.start.tolist())}")
    if not city.point_free(req.goal):
        raise ValueError(f"goal is not collision-free: {tuple(req.goal.tolist())}")


def try_finish(city: CityMap, tree: SearchTree, node: int, pos, goal, threshold: float,
               step: float) -> np.ndarray | None:
    """Terminating path through ``node`` if the search can stop here, else None.

    A node inside the goal region ends the search; the goal point itself is
    appended when the connecting segment is free.  A node within one step of
    the goal connects directly when that segment is free.  pos is the node's
    position and goal a finite (x, y, z) of floats, such as
    PlanRequest.goal.tolist().
    """
    d = math.dist(pos, goal)
    if d <= threshold:
        path = tree.extract_path(node)
        if d > 0 and not city._segment_collides(pos, goal):
            path = np.vstack([path, goal])
        return path
    if d <= step and not city._segment_collides(pos, goal):
        return tree.extract_path(tree.add(goal, node))
    return None


def _dist2(p, q) -> float:
    """Squared distance of two (x, y, z) float triples, in Python floats."""
    dx, dy, dz = p[0] - q[0], p[1] - q[1], p[2] - q[2]
    return dx * dx + dy * dy + dz * dz


def _grow_tree(city: CityMap, req: PlanRequest, params: DrrtParams, seed: int) -> PlanResult:
    """plan_drrt's loop; plan_rrt runs it with p_target 0, no detour and a pinned step.

    A pinned step (step_min == step_max) never changes, so the step
    controller and its far test are skipped.  PlanRequest and
    check_endpoints validate the endpoints once; the loop then runs on
    (x, y, z) float triples it built itself, and its helpers check nothing.
    The draws come from core.samples, which yields None for a goal draw.
    A step that returns the near node's own position adds no edge and counts
    as a blocked extension.

    Three shortcuts give the routes of the loop that recomputes every draw
    (README's "Python API" section derives them):

    - a goal draw from a (near, step) pair whose straight extension was
      blocked before is replayed: it counts an explored and a failed attempt,
      shrinks the step as a collision and adds no node;
    - a blocked extension from a (near, step) pair whose detour already ran
      counts as failed and calls no detour;
    - while goals are drawn, the goal's nearest node is tracked as nodes are
      added, and nearest(goal) is asked only on a near-tie.
    """
    t0 = perf_counter()
    check_endpoints(city, req)
    step = params.step_size
    adapt_step = params.step_min < params.step_max
    goal = req.goal.tolist()
    draw = samples(params.p_target, city.bounds_min, city.bounds_max,
                   np.random.default_rng(seed)).__next__
    tree = SearchTree(req.start)
    explored = 0

    if math.dist(req.start, goal) <= max(step, req.goal_threshold):
        explored = 1
        path = try_finish(city, tree, 0, req.start.tolist(), goal, req.goal_threshold, step)
        if path is not None:
            return PlanResult(True, path, explored, perf_counter() - t0)

    # (near, step) pairs of goal draws whose straight extension was blocked,
    # and of blocked extensions whose detour ran
    trapped = set()
    detoured = set()
    # the goal's nearest node, its position and its squared distance to the
    # goal, tracked while goals are drawn; gg is |g|^2
    track_goal = params.p_target > 0.0
    goal_near, goal_pos = 0, req.start.tolist()
    goal_d2 = _dist2(goal_pos, goal)
    gg = _dist2(goal, (0.0, 0.0, 0.0))
    failed = 0
    while failed < req.max_failed_attempts:
        sample = draw()
        explored += 1
        to_goal = sample is None
        if to_goal:
            sample = goal
            near, near_pos = goal_near, goal_pos
            if (near, step) in trapped:
                # an exact repeat: it would block as before, adding at most a
                # copy of a node the tree holds; a collision leaves step_min as is
                failed += 1
                if adapt_step and step > params.step_min:
                    step = update_step(step, COLLIDED, params)
                continue
        else:
            near = tree.nearest(sample)
            near_pos = tree._pos[near].tolist()
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
            added = tree.add(node, near)
            path = try_finish(city, tree, added, node, goal, req.goal_threshold, step)
            if path is not None:
                return PlanResult(True, path, explored, perf_counter() - t0)
            if track_goal:
                # nearest ranks by |x|^2 - 2 x.g, which differs from d^2 - |g|^2
                # by a few 2**-53 of |g|^2 + d^2; outside the margin the new
                # node, the highest index, is the strict nearest or not nearest
                d2 = _dist2(node, goal)
                margin = SLAB_SLACK * (gg + d2 + goal_d2)
                if d2 < goal_d2 - margin:
                    goal_near, goal_pos, goal_d2 = added, node, d2
                elif d2 <= goal_d2 + margin:
                    goal_near = tree.nearest(goal)
                    goal_pos = tree._pos[goal_near].tolist()
                    goal_d2 = _dist2(goal_pos, goal)
        if adapt_step:
            # the point is read only when the extension was not blocked
            step = update_step(step, classify_step_outcome(city, new, blocked, params), params)
    return PlanResult(False, EMPTY_PATH.copy(), explored, perf_counter() - t0)
