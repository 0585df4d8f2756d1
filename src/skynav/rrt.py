"""Classic rapidly-exploring random tree planner over building maps."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import PlanRequest, PlanResult, SearchTree
from .env import CityMap


@dataclass(frozen=True)
class RrtParams:
    step_size: float = 10.0

    def __post_init__(self):
        if self.step_size <= 0:
            raise ValueError("step_size must be positive")


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
    pos = tree.positions[node]
    d = math.dist(pos.tolist(), goal.tolist())
    if d <= threshold:
        path = tree.extract_path(node)
        if d > 0 and not city._segment_collides(pos, goal):
            path = np.vstack([path, goal])
        return path
    if d <= step and not city._segment_collides(pos, goal):
        leaf = tree._add(goal, node)
        return tree.extract_path(leaf)
    return None


def plan_rrt(city: CityMap, req: PlanRequest, params: RrtParams = RrtParams(),
             seed: int = 0) -> PlanResult:
    """Grow a uniformly sampled tree from start until it reaches the goal region.

    Runs plan_drrt's tree loop with no goal bias, no detour and a fixed step.
    Deterministic for a fixed (map, request, params, seed).  An extension
    that adds no node counts against the request's failed-attempt budget;
    explored_nodes reports all extension attempts.
    """
    from .drrt import DrrtParams, _grow_tree  # drrt imports this module
    s = params.step_size
    return _grow_tree(city, req, DrrtParams(step_size=s, p_target=0.0, step_min=s,
                                            step_max=s, use_detour=False), seed)
