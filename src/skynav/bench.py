"""Benchmark harness: paired seeded trials per algorithm with report output.

Every algorithm replans the same scenario ``trials`` times; trial i uses seed
``base_seed + i`` for every algorithm so runs are paired.  The map and the
voxel grid are built once, outside the timed regions.
"""
from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from time import perf_counter

import numpy as np

from .baselines import AcoParams, VoxelGrid, plan_aco, plan_astar, voxelize
from .core import PlanRequest
from .drrt import DrrtParams, plan_drrt
from .env import CityMap, GenParams, generate_city, load_map
from .metrics import TrialRecord, summarize
from .rrt import RrtParams, plan_rrt
from .smoothing import smooth_path

# algorithm name -> (city, grid, request, scenario, seed) -> PlanResult
PLANNERS = {
    "rrt": lambda city, grid, req, scenario, seed: plan_rrt(city, req, scenario.rrt, seed),
    "drrt": lambda city, grid, req, scenario, seed: plan_drrt(city, req, scenario.drrt, seed),
    "astar": lambda city, grid, req, scenario, seed: plan_astar(grid, req),
    "aco": lambda city, grid, req, scenario, seed: plan_aco(grid, req, scenario.aco, seed),
}
ALGORITHMS = tuple(PLANNERS)
# the planners that search the scenario's voxel grid instead of the city
GRID_ALGORITHMS = frozenset({"astar", "aco"})


@dataclass
class Scenario:
    """Everything needed to reproduce one benchmark run."""

    start: tuple[float, float, float] = (10.0, 10.0, 1.0)
    goal: tuple[float, float, float] = (470.0, 420.0, 50.0)
    trials: int = 30
    base_seed: int = 0
    goal_threshold: float = 5.0
    max_failed_attempts: int = 20000
    algorithms: tuple[str, ...] = ALGORITHMS
    map_file: str | None = None
    map_seed: int = 0
    map_params: GenParams = field(default_factory=GenParams)
    grid_resolution: float = 5.0
    samples_per_span: int = 8
    rrt: RrtParams = field(default_factory=RrtParams)
    drrt: DrrtParams = field(default_factory=DrrtParams)
    aco: AcoParams = field(default_factory=AcoParams)

    def __post_init__(self):
        unknown = set(self.algorithms) - set(ALGORITHMS)
        if unknown:
            raise ValueError(f"unknown algorithms: {sorted(unknown)}")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")

    def to_dict(self) -> dict:
        data = asdict(self)
        data["start"] = list(self.start)
        data["goal"] = list(self.goal)
        data["algorithms"] = list(self.algorithms)
        return data

    def request(self) -> PlanRequest:
        return PlanRequest(self.start, self.goal, self.goal_threshold,
                           self.max_failed_attempts)

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown scenario keys: {sorted(unknown)}")
        data = dict(data)
        if "map_params" in data:
            mp = dict(data["map_params"])
            for key in ("footprint_range", "height_range", "bounds_min", "bounds_max"):
                if key in mp:
                    mp[key] = tuple(mp[key])
            if "keep_clear" in mp:
                mp["keep_clear"] = tuple(tuple(p) for p in mp["keep_clear"])
            data["map_params"] = GenParams(**mp)
        for key, cls_ in (("rrt", RrtParams), ("drrt", DrrtParams), ("aco", AcoParams)):
            if key in data and isinstance(data[key], dict):
                data[key] = cls_(**data[key])
        for key in ("start", "goal"):
            if key in data:
                data[key] = tuple(data[key])
        if "algorithms" in data:
            data["algorithms"] = tuple(data["algorithms"])
        return cls(**data)


def default_scenario() -> Scenario:
    """The canonical urban benchmark: 40 towers in a 500 m cube, 30 paired trials.

    The ant colony runs a reduced walk budget here purely to keep the full
    benchmark quick; algorithmic defaults are unchanged elsewhere.
    """
    return Scenario(
        map_seed=11,
        base_seed=500,
        aco=AcoParams(ants=15, iterations=25),
    )


def build_city(scenario: Scenario) -> CityMap:
    """Load or generate the scenario map; start and goal are always kept clear."""
    if scenario.map_file is not None:
        return load_map(scenario.map_file)
    params = scenario.map_params
    keep = list(params.keep_clear)
    for p in (scenario.start, scenario.goal):
        if tuple(p) not in {tuple(k) for k in keep}:
            keep.append(tuple(float(v) for v in p))
    if keep != list(params.keep_clear):
        params = GenParams(**{**asdict(params), "keep_clear": tuple(keep)})
    return generate_city(scenario.map_seed, params)


def build_grid(city: CityMap, scenario: Scenario) -> VoxelGrid | None:
    """The scenario's voxel grid with its move table built, or None if no grid planner runs."""
    if GRID_ALGORITHMS.isdisjoint(scenario.algorithms):
        return None
    grid = voxelize(city, scenario.grid_resolution)
    grid.legal_moves  # build the move table before any timed planning
    return grid


def run_trial(algorithm: str, city: CityMap, grid: VoxelGrid | None,
              scenario: Scenario, seed: int) -> TrialRecord:
    """One planner invocation plus metric extraction; drrt's time includes smoothing."""
    if algorithm not in PLANNERS:
        raise ValueError(f"unknown algorithm: {algorithm!r}")
    result = PLANNERS[algorithm](city, grid, scenario.request(), scenario, seed)
    smoothed = None
    if algorithm == "drrt" and result.success:
        t0 = perf_counter()
        smoothed = smooth_path(result.path, city, scenario.samples_per_span)
        result.elapsed += perf_counter() - t0
    metrics = summarize(result.path, smoothed) if result.success else None
    return TrialRecord(algorithm, seed, result.success, result.elapsed,
                       result.explored_nodes, metrics)


@dataclass(frozen=True)
class AggregateRow:
    """Per-algorithm means; short names match the report columns.

    t (s) and m (explored nodes) average over all trials and eta is the
    success fraction; the path columns average over successful trials only.
    Columns stay None when no trial produced them.
    """

    t: float
    l: float | None
    l_smoothed: float | None
    w: float | None
    m: float
    eta: float
    beta: float | None
    beta_smoothed: float | None
    n: float | None
    n_smoothed: float | None


def aggregate(records: list[TrialRecord]) -> AggregateRow:
    if not records:
        raise ValueError("cannot aggregate zero trials")
    t = float(np.mean([r.elapsed_s for r in records]))
    m = float(np.mean([r.explored_nodes for r in records]))
    eta = sum(r.success for r in records) / len(records)
    ok = [r.metrics for r in records if r.success]
    if ok:
        l = float(np.mean([mm.length_m for mm in ok]))
        w = float(np.mean([mm.waypoints for mm in ok]))
        beta = float(np.mean([mm.max_turn_deg for mm in ok]))
        n = float(np.mean([mm.sharp_turns for mm in ok]))
    else:
        l = w = beta = n = None
    smoothed = [mm for mm in ok if mm.smoothed_length_m is not None]
    if smoothed:
        l_s = float(np.mean([mm.smoothed_length_m for mm in smoothed]))
        beta_s = float(np.mean([mm.max_turn_smoothed_deg for mm in smoothed]))
        n_s = float(np.mean([mm.sharp_turns_smoothed for mm in smoothed]))
    else:
        l_s = beta_s = n_s = None
    return AggregateRow(t, l, l_s, w, m, eta, beta, beta_s, n, n_s)


CSV_COLUMNS = ("algorithm", "t", "l", "l_smoothed", "w", "m", "eta",
               "beta", "beta_smoothed", "n", "n_smoothed")


@dataclass
class BenchReport:
    scenario: Scenario
    rows: dict[str, AggregateRow]
    records: dict[str, list[TrialRecord]]

    def to_dict(self, include_timing: bool = True) -> dict:
        results = {}
        for algo in self.scenario.algorithms:
            agg = asdict(self.rows[algo])
            if not include_timing:
                agg.pop("t")
            trials = []
            for rec in self.records[algo]:
                entry = {
                    "algorithm": rec.algorithm,
                    "seed": rec.seed,
                    "success": rec.success,
                    "elapsed_s": rec.elapsed_s,
                    "explored_nodes": rec.explored_nodes,
                    "metrics": None if rec.metrics is None else asdict(rec.metrics),
                }
                if not include_timing:
                    entry.pop("elapsed_s")
                trials.append(entry)
            results[algo] = {"aggregate": agg, "trials": trials}
        return {"scenario": self.scenario.to_dict(), "results": results}

    def to_json(self, include_timing: bool = True) -> str:
        return json.dumps(self.to_dict(include_timing), sort_keys=True, indent=2) + "\n"

    def write_json(self, path) -> None:
        Path(path).write_text(self.to_json())

    def write_csv(self, path) -> None:
        """One aggregate row per algorithm; undefined columns stay blank."""
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(CSV_COLUMNS)
            for algo in self.scenario.algorithms:
                agg = self.rows[algo]
                row = [algo] + [
                    "" if value is None else repr(value)
                    for value in (agg.t, agg.l, agg.l_smoothed, agg.w, agg.m,
                                  agg.eta, agg.beta, agg.beta_smoothed, agg.n,
                                  agg.n_smoothed)
                ]
                out.writerow(row)

    def write_trials_csv(self, path) -> None:
        """Per-trial rows for plotting and debugging."""
        columns = ("algorithm", "trial", "seed", "success", "elapsed_s",
                   "explored_nodes", "length_m", "waypoints", "max_turn_deg",
                   "sharp_turns", "smoothed_length_m", "max_turn_smoothed_deg",
                   "sharp_turns_smoothed")
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(columns)
            for algo in self.scenario.algorithms:
                for i, rec in enumerate(self.records[algo]):
                    mm = rec.metrics
                    vals = [algo, i, rec.seed, int(rec.success), repr(rec.elapsed_s),
                            rec.explored_nodes]
                    if mm is None:
                        vals += [""] * 7
                    else:
                        vals += [repr(mm.length_m), mm.waypoints, repr(mm.max_turn_deg),
                                 mm.sharp_turns,
                                 "" if mm.smoothed_length_m is None else repr(mm.smoothed_length_m),
                                 "" if mm.max_turn_smoothed_deg is None else repr(mm.max_turn_smoothed_deg),
                                 "" if mm.sharp_turns_smoothed is None else mm.sharp_turns_smoothed]
                    out.writerow(vals)


def run_benchmark(scenario: Scenario, city: CityMap | None = None) -> BenchReport:
    """Run every scenario algorithm over the paired trial seeds, one trial at a time."""
    if city is None:
        city = build_city(scenario)
    grid = build_grid(city, scenario)
    records = {algo: [run_trial(algo, city, grid, scenario, scenario.base_seed + i)
                      for i in range(scenario.trials)]
               for algo in scenario.algorithms}
    rows = {algo: aggregate(records[algo]) for algo in scenario.algorithms}
    return BenchReport(scenario, rows, records)
