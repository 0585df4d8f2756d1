"""The frozen outputs in tests/data/: one builder per file, returning its exact text.

tests/test_frozen.py compares every file with its builder byte for byte.  After a
change that moves an output on purpose, rewrite every file from the current code
and read which rows moved:

    PYTHONPATH=src python tests/frozen.py
    git diff --stat tests/data
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import tempfile
from pathlib import Path

from skynav import (AcoParams, DrrtParams, GenParams, PlanRequest, RrtParams, Scenario,
                    build_city, default_scenario, generate_city, plan_aco, plan_astar,
                    plan_drrt, plan_rrt, run_benchmark, voxelize)

DATA = Path(__file__).parent / "data"


# ----------------------------------------------------------------------
# benchmark reports
# ----------------------------------------------------------------------

def small_scenario() -> Scenario:
    """Two trials of every planner on a six-building 120 m map."""
    return Scenario(
        start=(5, 5, 5), goal=(112, 108, 40), trials=2, base_seed=100,
        map_seed=2,
        map_params=GenParams(count=6, footprint_range=(10, 30), height_range=(18, 80),
                             bounds_max=(120.0, 120.0, 120.0)),
        grid_resolution=6.0,
        aco=AcoParams(ants=6, iterations=8),
    )


def starved_scenario() -> Scenario:
    # three failed attempts end most tree searches: rrt fails every trial, drrt some
    return dataclasses.replace(small_scenario(), trials=4, max_failed_attempts=3)


def _blank_column(text: str, column: str) -> str:
    """CSV text with one column's cells emptied; the timing cells differ run to run."""
    lines = text.splitlines()
    k = lines[0].split(",").index(column)
    out = []
    for line in lines:
        cells = line.split(",")
        if out:
            cells[k] = ""
        out.append(",".join(cells))
    return "\n".join(out) + "\n"


def _csv(write, timing: tuple[str, ...]) -> str:
    """The text that write(path) puts in a CSV file, with the timing columns blank."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.csv"
        write(path)
        text = path.read_text()
    for column in timing:
        text = _blank_column(text, column)
    return text


def small_report_json() -> str:
    """The golden report: every aggregate and trial of the small scenario, no timing."""
    return run_benchmark(small_scenario()).to_json(include_timing=False)


def small_report_csv() -> str:
    return _csv(run_benchmark(small_scenario()).write_csv, ("t", "t_smooth"))


def small_trials_csv() -> str:
    return _csv(run_benchmark(small_scenario()).write_trials_csv, ("elapsed_s", "smooth_s"))


def starved_report_csv() -> str:
    return _csv(run_benchmark(starved_scenario()).write_csv, ("t", "t_smooth"))


def starved_trials_csv() -> str:
    return _csv(run_benchmark(starved_scenario()).write_trials_csv, ("elapsed_s", "smooth_s"))


# ----------------------------------------------------------------------
# planner routes
# ----------------------------------------------------------------------

def _json(data: dict) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _entry(res) -> dict:
    return {"success": res.success, "explored_nodes": res.explored_nodes,
            "path_sha256": hashlib.sha256(res.path.tobytes()).hexdigest()}


def tree_frozen_json() -> str:
    """Path digest and explored count of plan_rrt and plan_drrt, three seeds on two maps."""
    out = {}
    for map_seed, start, goal in ((11, (10, 10, 1), (470, 420, 50)),
                                  (12, (490, 490, 5), (250, 250, 30))):
        scenario = dataclasses.replace(default_scenario(), map_seed=map_seed,
                                       start=start, goal=goal)
        city = build_city(scenario)
        for seed in (500, 501, 502):
            runs = {
                "rrt": plan_rrt(city, PlanRequest(start, goal), RrtParams(), seed),
                "drrt": plan_drrt(city, PlanRequest(start, goal, max_failed_attempts=5000),
                                  DrrtParams(), seed),
            }
            for name, res in runs.items():
                out[f"map{map_seed}/{name}_seed{seed}"] = _entry(res)
    return _json(out)


GRID_START, GRID_GOAL = (5.0, 5.0, 5.0), (112.0, 108.0, 40.0)
FROZEN_ACO = {
    "alpha1.5": AcoParams(ants=10, iterations=8, alpha=1.5),
    "q0_0.0": AcoParams(ants=10, iterations=8, q0=0.0),
    "q0_0.6": AcoParams(ants=10, iterations=8, q0=0.6),
}


def frozen_grid(map_seed: int):
    """The 4 m voxel grid of grid_frozen.json's map map_seed (2 or 5)."""
    city = generate_city(map_seed, GenParams(
        count=8, footprint_range=(10, 30), height_range=(18, 80),
        bounds_max=(120.0, 120.0, 120.0), keep_clear=(GRID_START, GRID_GOAL)))
    return voxelize(city, 4.0)


def grid_frozen_json() -> str:
    """Path digest and explored count of A* and three ant colony settings on two maps.

    A*'s entries rest on its octile heuristic's float operation order, which
    decides which of the equal-cost routes it returns.
    """
    out = {}
    for map_seed in (2, 5):
        grid = frozen_grid(map_seed)
        req = PlanRequest(GRID_START, GRID_GOAL, goal_threshold=5.0)
        runs = {"astar": plan_astar(grid, req)}
        for name, params in FROZEN_ACO.items():
            for seed in (3, 4):
                runs[f"aco_{name}_seed{seed}"] = plan_aco(grid, req, params, seed)
        for name, res in runs.items():
            out[f"map{map_seed}/{name}"] = _entry(res)
    return _json(out)


FILES = {
    "small_report.json": small_report_json,
    "small_report.csv": small_report_csv,
    "small_trials.csv": small_trials_csv,
    "starved_report.csv": starved_report_csv,
    "starved_trials.csv": starved_trials_csv,
    "tree_frozen.json": tree_frozen_json,
    "grid_frozen.json": grid_frozen_json,
}


if __name__ == "__main__":
    for name, build in FILES.items():
        (DATA / name).write_bytes(build().encode())
        print(f"wrote {DATA / name}")
