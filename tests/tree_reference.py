"""Reference tree loop for the enhanced planner, against which the fast loop is checked.

It recomputes every draw and every detour where the fast loop in skynav.drrt
replays repeated goal draws, memoizes detours and tracks the goal's nearest node.
"""
from __future__ import annotations

import math

import numpy as np

from skynav.core import EMPTY_PATH, SearchTree, samples, steer
from skynav.drrt import (COLLIDED, FAR, NEUTRAL, check_endpoints, detour_extend, try_finish,
                         update_step)


def grow_tree_recomputing(city, req, params, seed, detours=None):
    """Reference tree loop that recomputes every draw and every detour, for params with
    detours on and an adaptive step: success, path and explored count.  Labels a free
    extension far by the clearance oracle, and appends each detour's (near, step) to
    detours when given."""
    step = params.step_size
    goal = req.goal.tolist()
    draw = samples(params.p_target, city.bounds_min, city.bounds_max,
                   np.random.default_rng(seed)).__next__
    tree = SearchTree(req.start)
    explored = 0
    check_endpoints(city, req)
    if math.dist(req.start, goal) <= max(step, req.goal_threshold):
        explored = 1
        path = try_finish(city, tree, 0, req.start.tolist(), goal, req.goal_threshold, step)
        if path is not None:
            return True, path, explored
    failed = 0
    while failed < req.max_failed_attempts:
        sample = draw()
        if sample is None:
            sample = goal
        near = tree.nearest(sample)
        near_pos = tree._pos[near].tolist()
        new = steer(near_pos, sample, step)
        explored += 1
        blocked = np.array_equal(new, near_pos) or city._segment_collides(near_pos, new)
        node = new
        if blocked:
            failed += 1
            node = detour_extend(city, near_pos, goal, step)
            if detours is not None:
                detours.append((np.array(near_pos).tobytes(), step))
        if node is not None:
            path = try_finish(city, tree, tree.add(node, near), node, goal, req.goal_threshold,
                              step)
            if path is not None:
                return True, path, explored
        outcome = COLLIDED if blocked else (
            FAR if city.clearance(new) > params.clearance_far else NEUTRAL)
        step = update_step(step, outcome, params)
    return False, EMPTY_PATH.copy(), explored
