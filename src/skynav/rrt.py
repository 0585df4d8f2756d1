"""Classic rapidly-exploring random tree planner over building maps."""
from __future__ import annotations

import math
from dataclasses import dataclass

from .core import PlanRequest, PlanResult
# plan_rrt runs drrt's tree loop; its endpoint check and finishing step are
# named here too, as parts of the classic planner
from .drrt import DrrtParams, _grow_tree, check_endpoints, try_finish
from .env import CityMap


@dataclass(frozen=True)
class RrtParams:
    step_size: float = 10.0

    def __post_init__(self):
        if not 0.0 < self.step_size < math.inf:
            raise ValueError("step_size must be positive and finite")


def plan_rrt(city: CityMap, req: PlanRequest, params: RrtParams = RrtParams(),
             seed: int = 0) -> PlanResult:
    """Grow a uniformly sampled tree from start until it reaches the goal region.

    Runs plan_drrt's tree loop with no goal bias, no detour and a fixed step.
    Deterministic for a fixed (map, request, params, seed).  An extension
    that adds no node counts against the request's failed-attempt budget;
    explored_nodes reports all extension attempts.
    """
    s = params.step_size
    return _grow_tree(city, req, DrrtParams(step_size=s, p_target=0.0, step_min=s,
                                            step_max=s, use_detour=False), seed)
