"""Benchmark harness: paired seeded trials per algorithm with report output.

Every algorithm replans the same scenario ``trials`` times; trial i uses seed
``base_seed + i`` for every algorithm so runs are paired.  The map and the
voxel grid are built once, outside the timed regions.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, astuple, dataclass, field, fields, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from .baselines import AcoParams, VoxelGrid, plan_aco, plan_astar, voxelize
from .core import PlanRequest, PlanResult
from .drrt import DrrtParams, plan_drrt
from .env import CityMap, GenParams, as_point, check_count, generate_city, load_map
from .metrics import PathMetrics, TrialRecord, summarize
from .rrt import RrtParams, plan_rrt
from .smoothing import MAX_SAMPLES_PER_SPAN, smooth_path

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
        if not isinstance(self.algorithms, (tuple, list)):
            raise ValueError(f"algorithms must be a list of names, got {self.algorithms!r}")
        bad = [a for a in self.algorithms if not isinstance(a, str)]
        if bad:
            raise ValueError(f"algorithm names must be strings, got {bad!r}")
        unknown = set(self.algorithms) - set(ALGORITHMS)
        if unknown:
            raise ValueError(f"unknown algorithms: {sorted(unknown)}")
        repeated = sorted({a for a in self.algorithms if self.algorithms.count(a) > 1})
        if repeated:
            raise ValueError(f"algorithms named more than once: {repeated}")
        check_count(self.trials, "trials")
        check_count(self.samples_per_span, "samples_per_span", MAX_SAMPLES_PER_SPAN)
        for name in ("start", "goal"):
            try:
                as_point(getattr(self, name))
            except ValueError as exc:
                raise ValueError(f"scenario.{name}: {exc}") from None
        self.request()   # refuses a bad goal_threshold or max_failed_attempts
        if not 0.0 < self.grid_resolution < math.inf:
            raise ValueError("grid_resolution must be positive and finite, "
                             f"got {self.grid_resolution!r}")
        if self.map_file is not None and not isinstance(self.map_file, str):
            raise ValueError(f"map_file must be a path string, got {self.map_file!r}")

    def to_dict(self) -> dict:
        return asdict(self)

    def request(self) -> PlanRequest:
        return PlanRequest(self.start, self.goal, self.goal_threshold,
                           self.max_failed_attempts)

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        """A JSON object's scenario; unknown keys and wrongly typed values raise ValueError."""
        return _build("scenario", cls, data)


# nested scenario objects and the dataclass each one is read into
_SECTIONS = {"map_params": GenParams, "rrt": RrtParams, "drrt": DrrtParams, "aco": AcoParams}


def _build(name: str, cls_, data: dict):
    """cls_ from a JSON object of its fields; keys are checked first, sections recurse."""
    if not isinstance(data, dict):
        raise ValueError(f"{name} must be an object, got {type(data).__name__}")
    defaults = {f.name: f.default for f in fields(cls_)}
    unknown = set(data) - set(defaults)
    if unknown:
        raise ValueError(f"unknown {name} keys: {sorted(unknown)}")
    return cls_(**{key: _build(key, _SECTIONS[key], value) if key in _SECTIONS
                   else _from_json(f"{name}.{key}", value, defaults[key])
                   for key, value in data.items()})


def _from_json(where: str, value, default):
    """A JSON value, arrays as tuples, of its default's type (an int may be a float)."""
    if isinstance(value, list):
        inner = default[0] if isinstance(default, tuple) and default else None
        value = tuple(_from_json(where, v, inner) for v in value)
    kind = (int, float) if type(default) is float else type(default)
    if default is not None and (isinstance(value, bool) != isinstance(default, bool)
                                or not isinstance(value, kind)):
        raise ValueError(f"{where} must be of the same type as {default!r}, got {value!r}")
    return value


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
    keep = list(scenario.map_params.keep_clear)
    for p in (scenario.start, scenario.goal):
        if tuple(p) not in {tuple(k) for k in keep}:
            keep.append(tuple(float(v) for v in p))
    return generate_city(scenario.map_seed, replace(scenario.map_params, keep_clear=tuple(keep)))


def build_grid(city: CityMap, scenario: Scenario) -> VoxelGrid | None:
    """The scenario's voxel grid with its move table built, or None if no grid planner runs."""
    if GRID_ALGORITHMS.isdisjoint(scenario.algorithms):
        return None
    return voxelize(city, scenario.grid_resolution)


def fly(algorithm: str, city: CityMap, grid: VoxelGrid | None, scenario: Scenario,
        seed: int) -> tuple[PlanResult, np.ndarray | None, float | None]:
    """One planner run and, for a drrt route, its smoothed curve and the seconds it took.

    result.elapsed is the planning time alone; the smoothed curve and its
    time are None when no route was smoothed.
    """
    if algorithm not in PLANNERS:
        raise ValueError(f"unknown algorithm: {algorithm!r}")
    result = PLANNERS[algorithm](city, grid, scenario.request(), scenario, seed)
    smoothed = smooth_s = None
    if algorithm == "drrt" and result.success:
        t0 = perf_counter()
        smoothed = smooth_path(result.path, city, scenario.samples_per_span)
        smooth_s = perf_counter() - t0
    return result, smoothed, smooth_s


def run_trial(algorithm: str, city: CityMap, grid: VoxelGrid | None,
              scenario: Scenario, seed: int) -> TrialRecord:
    """One fly() plus metric extraction."""
    result, smoothed, smooth_s = fly(algorithm, city, grid, scenario, seed)
    metrics = summarize(result.path, smoothed) if result.success else None
    return TrialRecord(algorithm, seed, result.success, result.elapsed, smooth_s,
                       result.explored_nodes, metrics)


@dataclass(frozen=True)
class AggregateRow:
    """Per-algorithm means; short names match the report columns.

    t (s, planning only) and m (explored nodes) average over all trials and
    eta is the success fraction; t_smooth (s) averages over the trials that
    smoothed a route and the path columns over successful trials only.
    Columns stay None when no trial produced them.
    """

    t: float
    t_smooth: float | None
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
    ok = [r.metrics for r in records if r.success]
    smoothed = [mm for mm in ok if mm.smoothed_length_m is not None]
    smoothing = [r for r in records if r.smooth_s is not None]

    def mean(rows, name):
        return float(np.mean([getattr(r, name) for r in rows])) if rows else None

    return AggregateRow(
        t=mean(records, "elapsed_s"), t_smooth=mean(smoothing, "smooth_s"),
        l=mean(ok, "length_m"),
        l_smoothed=mean(smoothed, "smoothed_length_m"), w=mean(ok, "waypoints"),
        m=mean(records, "explored_nodes"), eta=mean(records, "success"),
        beta=mean(ok, "max_turn_deg"), beta_smoothed=mean(smoothed, "max_turn_smoothed_deg"),
        n=mean(ok, "sharp_turns"), n_smoothed=mean(smoothed, "sharp_turns_smoothed"))


CSV_COLUMNS = ("algorithm", *(f.name for f in fields(AggregateRow)))


def _cells(values) -> list:
    """CSV cells: None is blank and a flag is 0 or 1; csv writes floats with repr."""
    return ["" if v is None else int(v) if isinstance(v, bool) else v for v in values]


@dataclass
class BenchReport:
    scenario: Scenario
    rows: dict[str, AggregateRow]
    records: dict[str, list[TrialRecord]]

    def to_dict(self, include_timing: bool = True) -> dict:
        results = {}
        for algo in self.scenario.algorithms:
            agg = asdict(self.rows[algo])
            trials = [asdict(rec) for rec in self.records[algo]]
            if not include_timing:
                agg.pop("t")
                agg.pop("t_smooth")
                for entry in trials:
                    entry.pop("elapsed_s")
                    entry.pop("smooth_s")
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
                out.writerow(_cells((algo, *astuple(self.rows[algo]))))

    def write_trials_csv(self, path) -> None:
        """Per-trial rows for plotting and debugging.

        The columns are the TrialRecord fields with the trial index after the
        algorithm, and the PathMetrics fields (blank for a failed trial) in
        place of metrics.
        """
        names = [f.name for f in fields(TrialRecord) if f.name != "metrics"]
        metric_names = [f.name for f in fields(PathMetrics)]
        blank = (None,) * len(metric_names)
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow([names[0], "trial", *names[1:], *metric_names])
            for algo in self.scenario.algorithms:
                for i, rec in enumerate(self.records[algo]):
                    metrics = blank if rec.metrics is None else astuple(rec.metrics)
                    out.writerow(_cells((rec.algorithm, i, *(getattr(rec, n) for n in names[1:]),
                                         *metrics)))


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
