"""The benchmark's three closed-loop workloads.

Each workload is a fixed pool of planning requests, built in set-up from the
canonical scenario (``skynav.default_scenario()``: map seed 11, start
(10, 10, 1), goal (470, 420, 50), trial seeds from 500) and from two more
seeded 40-tower maps.  The run seed only orders the pool.  A fixed pool is
deliberate: the tree planners have heavy-tailed run times (plan_rrt on the
canonical request took 0.2 s to 27 s over trial seeds 500-517, and a seeded
drrt stream spent 88% of its time in 4 of 40 requests), so a pool drawn
afresh per seed would move throughput and tail latency by more than any
regression bound.  Pools are sized so that a 36-second run holds about
three rounds.

The planners are looked up on the ``skynav`` package at call time, so the
traced run's wrappers see every call.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from time import perf_counter

import numpy as np
import skynav as sk

from routecheck import RouteChecker

# maps besides the canonical one; all have 40 towers in a 500 m cube
EXTRA_MAP_SEEDS = (12, 13)
# generator seed of the request stream shared by drrt_city and grid_city
REQUEST_SEED = 2508
MIN_ROUTE_M = 300.0
# endpoints keep this distance from every building on each axis, so their
# 5 m voxels are free and the grid planners accept them
CLEAR_MARGIN_M = 6.0
# failed-extension budget of the generated requests.  At the scenario's
# 20000, the two requests that end with no route take 6.6-6.8 s each, three
# quarters of a round; at 5000 a round takes about 8 s and three of the 24
# requests end with no route.
CITY_ATTEMPT_BUDGET = 5000
GRID_RESOLUTION_M = 5.0

POOL_SIZES = {"drrt_city": 24, "rrt_city": 8, "grid_city": 6}


@dataclass(frozen=True)
class Request:
    index: int  # position in the pool; latencies and digests key on it
    map_index: int
    start: tuple
    goal: tuple
    seed: int
    max_failed_attempts: int = 20000
    goal_threshold: float = 5.0  # PlanRequest's default


@dataclass
class Outcome:
    success: bool
    routes: list  # every path the planners returned, for the check and digest
    flown: list  # (raw, smoothed or None) per route flown, for path quality
    phases: dict  # perf_counter() at start and end of each planner call


def city_maps() -> list:
    scenario = sk.default_scenario()
    return [sk.build_city(scenario)] + [
        sk.generate_city(seed, scenario.map_params) for seed in EXTRA_MAP_SEEDS
    ]


def _is_clear(p, lo, hi) -> bool:
    near = (lo - CLEAR_MARGIN_M <= p) & (p <= hi + CLEAR_MARGIN_M)
    return not near.all(axis=1).any()


def city_requests(maps: list, count: int) -> list:
    """The canonical request, then seeded ones cycling over the maps.

    Generated routes span at least MIN_ROUTE_M horizontally; their goals
    alternate between below and above the map's tallest roof, so collision
    checks meet both the box test and the above-the-roof shortcut.
    """
    scenario = sk.default_scenario()
    requests = [Request(0, 0, tuple(scenario.start), tuple(scenario.goal), scenario.base_seed)]
    boxes = []
    for city in maps:
        d = city.to_dict()
        lo = np.array([b["min"] for b in d["buildings"]], dtype=float)
        hi = np.array([b["max"] for b in d["buildings"]], dtype=float)
        boxes.append((lo, hi, float(hi[:, 2].max())))
    rng = np.random.default_rng(REQUEST_SEED)
    while len(requests) < count:
        i = len(requests)
        m = i % len(maps)
        lo, hi, top = boxes[m]
        start = np.array([rng.uniform(10, 490), rng.uniform(10, 490), rng.uniform(1, 30)])
        goal = np.array([rng.uniform(10, 490), rng.uniform(10, 490),
                         rng.uniform(1, top - 1) if i % 2 else rng.uniform(top + 1, 490)])
        if math.dist(start[:2], goal[:2]) < MIN_ROUTE_M:
            continue
        if not (_is_clear(start, lo, hi) and _is_clear(goal, lo, hi)):
            continue
        requests.append(Request(i, m, tuple(start.tolist()), tuple(goal.tolist()),
                                scenario.base_seed + i, CITY_ATTEMPT_BUDGET))
    return requests


def _plan_request(r: Request):
    return sk.PlanRequest(r.start, r.goal, r.goal_threshold, r.max_failed_attempts)


class DrrtCity:
    """plan_drrt then smooth_path, the paper's pipeline; the caller waits for both."""

    name = "drrt_city"

    def __init__(self, pool_size: int):
        self.maps = city_maps()
        self.requests = city_requests(self.maps, pool_size)
        self.checkers = [RouteChecker(c.to_dict()) for c in self.maps]
        self.params = sk.DrrtParams()
        self.setup_layers = {}

    def execute(self, r: Request) -> Outcome:
        city = self.maps[r.map_index]
        t0 = perf_counter()
        res = sk.plan_drrt(city, _plan_request(r), self.params, r.seed)
        t1 = perf_counter()
        smoothed = sk.smooth_path(res.path, city) if res.success else None
        t2 = perf_counter()
        return Outcome(res.success, [res.path, smoothed], [(res.path, smoothed)],
                       {"plan_drrt": (t0, t1), "smooth_path": (t1, t2)})


class RrtCity:
    """plan_rrt on the canonical map and request, one plan per paired trial seed.

    The pool is the first trials of the paper's protocol (seeds 500-507:
    0.2-2.7 s and up to 27k extensions each).  Later trials run far longer
    (511: 10.8 s, 516: 15 s, 517: 27 s with 112k extensions) and would not
    leave room for a second round.
    """

    name = "rrt_city"

    def __init__(self, pool_size: int):
        scenario = sk.default_scenario()
        self.maps = [sk.build_city(scenario)]
        self.requests = [Request(i, 0, tuple(scenario.start), tuple(scenario.goal),
                                 scenario.base_seed + i) for i in range(pool_size)]
        self.checkers = [RouteChecker(self.maps[0].to_dict())]
        self.params = sk.RrtParams()
        self.setup_layers = {}

    def execute(self, r: Request) -> Outcome:
        t0 = perf_counter()
        res = sk.plan_rrt(self.maps[r.map_index], _plan_request(r), self.params, r.seed)
        t1 = perf_counter()
        return Outcome(res.success, [res.path], [(res.path, None)], {"plan_rrt": (t0, t1)})


class GridCity:
    """plan_astar and plan_aco on the 5 m voxel grids of the drrt_city maps.

    Each request asks both grid baselines for a route; the caller waits for
    both.  Voxelizing and building the move table happen in set-up.
    """

    name = "grid_city"

    def __init__(self, pool_size: int):
        self.maps = city_maps()
        self.requests = city_requests(self.maps, pool_size)
        self.checkers = [RouteChecker(c.to_dict()) for c in self.maps]
        self.aco = sk.default_scenario().aco
        self.grids = []
        vox, build, mb = [], [], []
        for city in self.maps:
            t0 = perf_counter()
            grid = sk.voxelize(city, GRID_RESOLUTION_M)
            t1 = perf_counter()
            table = grid.legal_moves
            t2 = perf_counter()
            self.grids.append(grid)
            vox.append(t1 - t0)
            build.append(t2 - t1)
            mb.append(table.nbytes / 1e6)
        self.setup_layers = {"voxelize_s": float(np.median(vox)),
                             "legal_moves_build_s": float(np.median(build)),
                             "move_table_mb": float(np.median(mb))}

    def execute(self, r: Request) -> Outcome:
        grid = self.grids[r.map_index]
        req = _plan_request(r)
        t0 = perf_counter()
        astar = sk.plan_astar(grid, req)
        t1 = perf_counter()
        aco = sk.plan_aco(grid, req, self.aco, r.seed)
        t2 = perf_counter()
        return Outcome(astar.success and aco.success, [astar.path, aco.path],
                       [(astar.path, None), (aco.path, None)],
                       {"plan_astar": (t0, t1), "plan_aco": (t1, t2)})


WORKLOADS = {w.name: w for w in (DrrtCity, RrtCity, GridCity)}
