"""Benchmark harness tests: pairing, aggregation, determinism, report formats."""
from __future__ import annotations

import csv
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from skynav import (AcoParams, Building, CityMap, DrrtParams, GenParams, PathMetrics,
                    PlanRequest, RrtParams, Scenario, build_city, default_scenario, plan_drrt,
                    plan_rrt, run_benchmark)
from skynav.bench import ALGORITHMS, CSV_COLUMNS, aggregate, fly, run_trial
from skynav.metrics import TrialRecord

DATA = Path(__file__).parent / "data"


def _small_scenario() -> Scenario:
    return Scenario(
        start=(5, 5, 5), goal=(112, 108, 40), trials=2, base_seed=100,
        map_seed=2,
        map_params=GenParams(count=6, footprint_range=(10, 30), height_range=(18, 80),
                             bounds_max=(120.0, 120.0, 120.0)),
        grid_resolution=6.0,
        aco=AcoParams(ants=6, iterations=8),
    )


def _record(algorithm="drrt", seed=0, success=True, elapsed=0.5, explored=100,
            l=600.0, w=10, beta=30.0, n=2, smoothed=None, smooth_s=None):
    metrics = None
    if success:
        if smoothed is None:
            metrics = PathMetrics(l, w, beta, n)
        else:
            metrics = PathMetrics(l, w, beta, n, *smoothed)
    return TrialRecord(algorithm, seed, success, elapsed, smooth_s, explored, metrics)


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------

def test_aggregate_single_record_echoes_its_values():
    row = aggregate([_record(l=600.0, w=10, beta=30.0, n=2, elapsed=0.5, explored=100)])
    assert (row.t, row.l, row.w, row.m, row.eta) == (0.5, 600.0, 10.0, 100.0, 1.0)
    assert (row.beta, row.n) == (30.0, 2.0)
    assert row.l_smoothed is None and row.n_smoothed is None and row.t_smooth is None


def test_aggregate_averages_path_lengths():
    rows = [_record(l=600.0), _record(l=700.0)]
    assert aggregate(rows).l == 650.0


def test_aggregate_matches_independent_recomputation():
    rng = np.random.default_rng(40)
    records = []
    for i in range(30):
        success = bool(rng.random() < 0.8)
        records.append(_record(
            seed=i, success=success,
            elapsed=float(rng.uniform(0.1, 2.0)), explored=int(rng.integers(10, 999)),
            l=float(rng.uniform(500, 900)), w=int(rng.integers(5, 40)),
            beta=float(rng.uniform(0, 180)), n=int(rng.integers(0, 9)),
            smoothed=(float(rng.uniform(500, 900)), float(rng.uniform(0, 90)),
                      int(rng.integers(0, 5))),
            smooth_s=float(rng.uniform(0.001, 0.01)) if success else None,
        ))
    row = aggregate(records)
    ok = [r for r in records if r.success]
    assert row.t == pytest.approx(sum(r.elapsed_s for r in records) / 30)
    assert row.t_smooth == pytest.approx(sum(r.smooth_s for r in ok) / len(ok))
    assert row.m == pytest.approx(sum(r.explored_nodes for r in records) / 30)
    assert row.eta == pytest.approx(len(ok) / 30)
    assert row.l == pytest.approx(sum(r.metrics.length_m for r in ok) / len(ok))
    assert row.w == pytest.approx(sum(r.metrics.waypoints for r in ok) / len(ok))
    assert row.n_smoothed == pytest.approx(
        sum(r.metrics.sharp_turns_smoothed for r in ok) / len(ok))


def test_aggregate_with_zero_successes_leaves_path_columns_empty():
    row = aggregate([_record(success=False), _record(success=False)])
    assert row.eta == 0.0
    assert row.l is None and row.w is None and row.beta is None and row.n is None
    with pytest.raises(ValueError):
        aggregate([])


# ----------------------------------------------------------------------
# scenario plumbing
# ----------------------------------------------------------------------

def test_scenario_round_trips_through_json():
    scn = _small_scenario()
    clone = Scenario.from_dict(json.loads(json.dumps(scn.to_dict())))
    assert clone == scn


def test_scenario_rejects_unknown_algorithms_and_bad_trials():
    with pytest.raises(ValueError):
        Scenario(algorithms=("drrt", "bfs"))
    with pytest.raises(ValueError):
        Scenario(trials=0)
    # a repeated algorithm would be planned twice and written as two equal rows
    with pytest.raises(ValueError, match=r"more than once: \['drrt'\]"):
        Scenario.from_dict({"trials": 1, "algorithms": ["drrt", "drrt"], "base_seed": 500,
                            "map_seed": 11})
    with pytest.raises(ValueError, match=r"more than once: \['astar', 'rrt'\]"):
        Scenario(algorithms=("rrt", "astar", "drrt", "rrt", "astar"))
    with pytest.raises(ValueError, match="trails"):
        Scenario.from_dict({"trails": 3})
    with pytest.raises(ValueError, match=r"aco keys: \['ant_count'\]"):
        Scenario.from_dict({"trials": 1, "aco": {"ant_count": 3}})
    with pytest.raises(ValueError, match=r"map_params keys: \['towers'\]"):
        Scenario.from_dict({"map_params": {"count": 3, "towers": 3}})
    for section in ("rrt", "drrt"):
        with pytest.raises(ValueError, match=f"{section} keys"):
            Scenario.from_dict({section: {"step_size": 4.0, "stepsize": 4.0}})
    # a section that is not an object is named, not passed through
    with pytest.raises(ValueError, match="aco must be an object"):
        Scenario.from_dict({"aco": 3})
    with pytest.raises(ValueError, match="map_params must be an object"):
        Scenario.from_dict({"map_params": 3})
    with pytest.raises(ValueError, match="scenario must be an object"):
        Scenario.from_dict([1, 2])
    # a wrongly typed value is named, not left to fail inside the run
    for data, named in (({"start": 5}, "scenario.start"),
                        ({"start": None}, "scenario.start"),
                        ({"trials": "3"}, "scenario.trials"),
                        ({"grid_resolution": "5"}, "scenario.grid_resolution"),
                        ({"drrt": {"p_target": "x"}}, "drrt.p_target"),
                        ({"map_params": {"count": "4"}}, "map_params.count"),
                        ({"algorithms": "rrt"}, "scenario.algorithms"),
                        ({"algorithms": [["rrt"]]}, "scenario.algorithms"),
                        ({"drrt": {"use_detour": 0}}, "drrt.use_detour"),
                        ({"aco": {"ants": 2.5}}, "aco.ants"),
                        ({"map_file": 5}, "map_file")):
        with pytest.raises(ValueError, match=named):
            Scenario.from_dict(data)
    for bad in ("rrt", 5, None, {"rrt": 1}):
        with pytest.raises(ValueError, match="algorithms must be a list"):
            Scenario(algorithms=bad)
    # a name that is not a string, hashable or not, is named before the other checks
    with pytest.raises(ValueError, match=r"names must be strings, got \[5\]"):
        Scenario(algorithms=("x", 5))
    with pytest.raises(ValueError, match=r"names must be strings, got \[\['rrt'\]\]"):
        Scenario(algorithms=("rrt", ["rrt"]))
    for bad in ((1, 2), (0, 0, float("nan"))):
        with pytest.raises(ValueError, match="scenario.start: "):
            Scenario(start=bad)
        with pytest.raises(ValueError, match="scenario.goal: "):
            Scenario(goal=bad)
    # an int stands for a float, and a scenario may leave every key out
    assert Scenario.from_dict({"grid_resolution": 5}).grid_resolution == 5
    assert Scenario.from_dict({}) == Scenario()


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("make", [
    lambda: DrrtParams(clearance_far=NAN),
    lambda: DrrtParams(clearance_far=INF),
    lambda: DrrtParams(e=NAN),
    lambda: DrrtParams(e=INF),
    lambda: DrrtParams(step_max=INF),
    lambda: RrtParams(step_size=NAN),
    lambda: RrtParams(step_size=INF),
    lambda: PlanRequest((1, 1, 1), (9, 9, 9), goal_threshold=NAN),
    lambda: PlanRequest((1, 1, 1), (9, 9, 9), goal_threshold=INF),
    lambda: PlanRequest((1, 1, 1), (9, 9, 9), max_failed_attempts=2.5),
    lambda: AcoParams(ants=1.5),
    lambda: AcoParams(iterations=2.5),
    lambda: AcoParams(alpha=NAN),
    lambda: AcoParams(q=INF),
    lambda: Scenario(trials=2.5),
    lambda: GenParams(count=2.5),
    lambda: GenParams(count=-1),
    lambda: GenParams(max_draws_per_building=2.5),
    lambda: GenParams(clear_radius=NAN),
    lambda: GenParams(clear_radius=-1.0),
    lambda: GenParams(clear_radius=INF),
    lambda: Scenario(grid_resolution=NAN),
    lambda: Scenario(grid_resolution=INF),
])
def test_non_finite_and_non_integer_parameters_fail_at_construction(make):
    """Each used to pass construction and fail, or plan silently, later."""
    with pytest.raises(ValueError):
        make()


def test_build_city_always_keeps_the_endpoints_clear():
    scn = _small_scenario()
    city = build_city(scn)
    assert city.point_free(scn.start) and city.point_free(scn.goal)
    assert city.clearance(scn.start) > scn.map_params.clear_radius


def test_default_scenario_shape():
    scn = default_scenario()
    assert scn.trials == 30
    assert scn.algorithms == ALGORITHMS
    assert scn.start == (10.0, 10.0, 1.0) and scn.goal == (470.0, 420.0, 50.0)
    assert scn.map_params.count == 40
    assert scn.map_params.height_range == (18.0, 270.0)


# ----------------------------------------------------------------------
# running trials
# ----------------------------------------------------------------------

def test_single_trial_on_an_empty_map():
    scn = Scenario(trials=1, algorithms=("drrt",), map_params=GenParams(count=0))
    report = run_benchmark(scn)
    assert len(report.records["drrt"]) == 1
    rec = report.records["drrt"][0]
    assert rec.success and rec.seed == scn.base_seed
    assert report.rows["drrt"].eta == 1.0


def test_a_one_waypoint_route_is_flown_and_reported():
    # the start lies inside the goal region with a wall between, so both tree
    # planners stop at the root and return it alone; smoothing keeps it as is
    city = CityMap([Building((10, 0, 0), (11, 20, 20))], (0, 0, 0), (50, 50, 50))
    req = PlanRequest((8, 5, 5), (13, 5, 5))
    for plan, params in ((plan_rrt, RrtParams()), (plan_drrt, DrrtParams())):
        res = plan(city, req, params, 0)
        assert res.success and res.path.tolist() == [[8.0, 5.0, 5.0]]
    scn = Scenario(start=(8, 5, 5), goal=(13, 5, 5), trials=1, algorithms=("rrt", "drrt"))
    result, smoothed, smooth_s = fly("drrt", city, None, scn, 0)
    assert result.success and smoothed.tolist() == [[8.0, 5.0, 5.0]] and smooth_s >= 0
    assert smoothed is not result.path
    report = run_benchmark(scn, city)
    for algo in ("rrt", "drrt"):
        row = report.rows[algo]
        assert (row.eta, row.l, row.w) == (1.0, 0.0, 1.0)
    assert report.rows["drrt"].l_smoothed == 0.0


def test_trials_are_paired_across_algorithms():
    report = run_benchmark(_small_scenario())
    for algo in ALGORITHMS:
        assert [r.seed for r in report.records[algo]] == [100, 101]


def test_smoothing_metrics_attach_to_the_enhanced_planner_only():
    report = run_benchmark(_small_scenario())
    assert report.rows["drrt"].l_smoothed is not None
    for algo in ("rrt", "astar", "aco"):
        assert report.rows[algo].l_smoothed is None


def test_rerun_reports_are_identical():
    scn = _small_scenario()
    a = run_benchmark(scn).to_json(include_timing=False)
    b = run_benchmark(scn).to_json(include_timing=False)
    assert a == b


@pytest.mark.exact
def test_report_matches_the_frozen_golden_file():
    report = run_benchmark(_small_scenario())
    golden = (DATA / "small_report.json").read_text()
    assert report.to_json(include_timing=False) == golden


def test_csv_columns_and_values(tmp_path):
    report = run_benchmark(_small_scenario())
    out = tmp_path / "report.csv"
    report.write_csv(out)
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == CSV_COLUMNS
    assert [r[0] for r in rows[1:]] == list(ALGORITHMS)
    drrt = rows[1 + ALGORITHMS.index("drrt")]
    assert float(drrt[CSV_COLUMNS.index("l")]) == report.rows["drrt"].l
    assert float(drrt[CSV_COLUMNS.index("eta")]) == 1.0
    # per-trial file: one row per (algorithm, trial)
    trials = tmp_path / "trials.csv"
    report.write_trials_csv(trials)
    with open(trials, newline="") as fh:
        trial_rows = list(csv.reader(fh))
    assert len(trial_rows) == 1 + len(ALGORITHMS) * 2
    assert trial_rows[0][0] == "algorithm"


def _starved_scenario() -> Scenario:
    # three failed attempts end most tree searches: rrt fails every trial, drrt some
    return dataclasses.replace(_small_scenario(), trials=4, max_failed_attempts=3)


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


@pytest.mark.parametrize("name, scenario", [("small", _small_scenario),
                                            ("starved", _starved_scenario)])
def test_csv_reports_match_the_frozen_files(tmp_path, name, scenario):
    report = run_benchmark(scenario())
    report.write_csv(tmp_path / "report.csv")
    report.write_trials_csv(tmp_path / "trials.csv")
    for kind, timing in (("report", ("t", "t_smooth")), ("trials", ("elapsed_s", "smooth_s"))):
        written = (tmp_path / f"{kind}.csv").read_text()
        for column in timing:
            written = _blank_column(written, column)
        assert written == (DATA / f"{name}_{kind}.csv").read_text(), kind


def test_json_report_orders_keys_deterministically(tmp_path):
    report = run_benchmark(_small_scenario())
    out = tmp_path / "report.json"
    report.write_json(out)
    data = json.loads(out.read_text())
    assert set(data) == {"scenario", "results"}
    assert set(data["results"]) == set(ALGORITHMS)
    agg = data["results"]["drrt"]["aggregate"]
    assert "t" in agg and agg["eta"] == 1.0
    # timing keys are present in the full report and stripped from the stable one
    stable = json.loads(report.to_json(include_timing=False))
    assert "t_smooth" in agg and agg["t_smooth"] > 0
    assert data["results"]["rrt"]["aggregate"]["t_smooth"] is None
    for key in ("t", "t_smooth"):
        assert key not in stable["results"]["drrt"]["aggregate"]
    for key in ("elapsed_s", "smooth_s"):
        assert key not in stable["results"]["drrt"]["trials"][0]


def test_run_trial_rejects_unknown_algorithm():
    scn = _small_scenario()
    city = build_city(scn)
    with pytest.raises(ValueError):
        run_trial("bfs", city, None, scn, 0)
