"""Benchmark harness tests: pairing, aggregation, determinism, report formats."""
from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np
import pytest

from skynav import (AcoParams, GenParams, PathMetrics, Scenario, TrialRecord,
                    aggregate, build_city, default_scenario, run_benchmark, run_trial)
from skynav.bench import ALGORITHMS, CSV_COLUMNS

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
            l=600.0, w=10, beta=30.0, n=2, smoothed=None):
    metrics = None
    if success:
        if smoothed is None:
            metrics = PathMetrics(l, w, beta, n)
        else:
            metrics = PathMetrics(l, w, beta, n, *smoothed)
    return TrialRecord(algorithm, seed, success, elapsed, explored, metrics)


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------

def test_aggregate_single_record_echoes_its_values():
    row = aggregate([_record(l=600.0, w=10, beta=30.0, n=2, elapsed=0.5, explored=100)])
    assert (row.t, row.l, row.w, row.m, row.eta) == (0.5, 600.0, 10.0, 100.0, 1.0)
    assert (row.beta, row.n) == (30.0, 2.0)
    assert row.l_smoothed is None and row.n_smoothed is None


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
        ))
    row = aggregate(records)
    ok = [r for r in records if r.success]
    assert row.t == pytest.approx(sum(r.elapsed_s for r in records) / 30)
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
    with pytest.raises(ValueError, match="trails"):
        Scenario.from_dict({"trails": 3})


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
    assert "t" not in stable["results"]["drrt"]["aggregate"]
    assert "elapsed_s" not in stable["results"]["drrt"]["trials"][0]


def test_run_trial_rejects_unknown_algorithm():
    scn = _small_scenario()
    city = build_city(scn)
    with pytest.raises(ValueError):
        run_trial("bfs", city, None, scn, 0)
