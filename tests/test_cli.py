"""Command-line interface smoke tests (invoked in-process via main)."""
from __future__ import annotations

import csv
import json
import math
from dataclasses import fields

import pytest

from skynav import AcoParams, DrrtParams, GenParams, RrtParams, Scenario, build_city, load_map
from skynav.bench import AggregateRow, fly
from skynav import cli
from skynav.cli import build_parser, main
from skynav.core import EMPTY_PATH, PlanResult


def test_genmap_writes_a_loadable_map(tmp_path, capsys):
    out = tmp_path / "city.json"
    rc = main(["genmap", "--seed", "7", "--count", "5", "--size", "200",
               "--height-max", "120", "--keep-clear", "5,5,5", "--out", str(out)])
    assert rc == 0
    city = load_map(out)
    assert len(city.buildings) == 5 and city.seed == 7
    assert city.point_free((5, 5, 5))
    assert "5 buildings" in capsys.readouterr().out


def test_plan_drrt_reports_success_and_writes_json(tmp_path, capsys):
    out = tmp_path / "flight.json"
    rc = main(["plan", "--algo", "drrt", "--map-seed", "4", "--count", "8",
               "--start", "5,5,5", "--goal", "460,430,60", "--seed", "1",
               "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["success"] is True
    assert payload["algorithm"] == "drrt"
    assert len(payload["path"]) >= 2
    assert "smoothed" in payload
    assert "length" in capsys.readouterr().out


def test_plan_writes_what_the_bench_trial_step_flies(tmp_path):
    out = tmp_path / "flight.json"
    assert main(["plan", "--algo", "drrt", "--map-seed", "4", "--count", "8",
                 "--start", "5,5,5", "--goal", "460,430,60", "--seed", "1",
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    scenario = Scenario(start=(5.0, 5.0, 5.0), goal=(460.0, 430.0, 60.0), algorithms=("drrt",),
                        map_seed=4, map_params=GenParams(count=8))
    result, smoothed, smooth_s = fly("drrt", build_city(scenario), None, scenario, 1)
    assert payload["path"] == result.path.tolist()
    assert payload["smoothed"] == smoothed.tolist()
    assert smooth_s > 0 and payload["smooth_s"] > 0
    assert payload["explored_nodes"] == result.explored_nodes


def test_option_defaults_are_the_dataclass_defaults():
    parser = build_parser()
    gen = parser.parse_args(["genmap", "--out", "f"])
    assert gen.count == GenParams.count
    assert (gen.size,) * 3 == GenParams.bounds_max
    assert (gen.footprint_min, gen.footprint_max) == GenParams.footprint_range
    assert (gen.height_min, gen.height_max) == GenParams.height_range
    assert gen.clear_radius == GenParams.clear_radius
    assert tuple(gen.keep_clear) == GenParams.keep_clear

    plan = parser.parse_args(["plan"])
    assert plan.map_seed == Scenario.map_seed
    assert plan.count == GenParams.count
    assert plan.start == Scenario.start and plan.goal == Scenario.goal
    # no --step keeps the planner's own step, the same for both tree planners
    assert plan.step is None and DrrtParams.step_size == RrtParams.step_size
    assert plan.goal_threshold == Scenario.goal_threshold
    assert plan.max_failed == Scenario.max_failed_attempts
    assert plan.resolution == Scenario.grid_resolution


def test_plan_astar_on_a_stored_map(tmp_path, capsys):
    city_file = tmp_path / "city.json"
    assert main(["genmap", "--seed", "3", "--count", "6", "--size", "150",
                 "--height-max", "90", "--keep-clear", "5,5,5",
                 "--keep-clear", "140,140,30", "--out", str(city_file)]) == 0
    rc = main(["plan", "--algo", "astar", "--map", str(city_file),
               "--start", "5,5,5", "--goal", "140,140,30", "--resolution", "5"])
    assert rc == 0
    assert "astar" in capsys.readouterr().out


@pytest.mark.parametrize("algo", ["astar", "aco"])
def test_plan_refuses_step_for_grid_planners(algo, capsys):
    rc = main(["plan", "--algo", algo, "--step", "3", "--count", "5"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("skynav: error: --step") and err.count("\n") == 1


def test_plan_step_sets_the_tree_planners_step(monkeypatch):
    flown = []

    def record(algorithm, city, grid, scenario, seed):
        flown.append(getattr(scenario, algorithm).step_size)
        return PlanResult(False, EMPTY_PATH, 0, 0.0), None

    monkeypatch.setattr(cli, "fly", record)
    for algo in ("rrt", "drrt"):
        main(["plan", "--algo", algo, "--count", "5"])
        main(["plan", "--algo", algo, "--count", "5", "--step", "4"])
    assert flown == [RrtParams.step_size, 4.0, DrrtParams.step_size, 4.0]


def test_plan_failure_exit_code(capsys):
    # an unreachable goal inside a tiny attempt budget returns a nonzero code
    rc = main(["plan", "--algo", "rrt", "--map-seed", "5", "--count", "30",
               "--start", "5,5,5", "--goal", "460,430,60", "--max-failed", "1",
               "--seed", "0"])
    assert rc == 1
    assert "no path" in capsys.readouterr().out


def test_metrics_subcommand_reads_plan_output(tmp_path, capsys):
    out = tmp_path / "flight.json"
    main(["plan", "--algo", "drrt", "--map-seed", "4", "--count", "8",
          "--start", "5,5,5", "--goal", "460,430,60", "--out", str(out)])
    capsys.readouterr()
    rc = main(["metrics", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "length" in text and "smoothed" in text


def test_bench_writes_all_three_reports(tmp_path, capsys):
    scenario = Scenario(
        start=(5.0, 5.0, 5.0), goal=(112.0, 108.0, 40.0), trials=1, base_seed=9,
        map_seed=2,
        map_params=GenParams(count=6, footprint_range=(10, 30), height_range=(18, 80),
                             bounds_max=(120.0, 120.0, 120.0)),
        grid_resolution=6.0,
        aco=AcoParams(ants=4, iterations=5),
    )
    scn_file = tmp_path / "scenario.json"
    scn_file.write_text(json.dumps(scenario.to_dict()))
    prefix = tmp_path / "report"
    rc = main(["bench", "--scenario", str(scn_file), "--out", str(prefix)])
    assert rc == 0
    data = json.loads((tmp_path / "report.json").read_text())
    assert set(data["results"]) == {"rrt", "drrt", "astar", "aco"}
    with open(tmp_path / "report.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 5
    with open(tmp_path / "report_trials.csv", newline="") as fh:
        assert len(list(csv.reader(fh))) == 5
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1].startswith("wrote")
    columns = [f.name for f in fields(AggregateRow)]
    assert len(columns) == 11 and "beta_smoothed" in columns
    for algo, line in zip(("rrt", "drrt", "astar", "aco"), lines):
        name, summary = line.split(":")
        assert name.strip() == algo
        assert summary.split()[::2] == columns


@pytest.mark.parametrize("radius", ("nan", "-100", "inf"))
def test_genmap_refuses_a_bad_clear_radius_and_writes_no_file(radius, tmp_path, capsys):
    out = tmp_path / "m.json"
    rc = main(["genmap", "--clear-radius", radius, "--keep-clear", "250,250,10",
               "--count", "200", "--seed", "3", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("skynav: error: clear_radius") and err.count("\n") == 1
    assert not out.exists()


def test_bad_coordinate_syntax_is_rejected():
    with pytest.raises(SystemExit):
        main(["plan", "--start", "1,2"])


def test_invalid_input_exits_with_a_one_line_error(tmp_path, capsys):
    # a 1 m grid over the 500 m cube is over the voxel cell budget, and a
    # 1e-310 m grid's cell count overflows a float
    for resolution in ("1", "1e-310"):
        rc = main(["plan", "--algo", "astar", "--resolution", resolution, "--count", "5",
                   "--start", "10,10,1", "--goal", "470,420,50"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("skynav: error:") and "budget" in err
        assert "Traceback" not in err and err.count("\n") == 1

    scn_file = tmp_path / "scenario.json"
    for scenario, named in (({"trials": 1, "trails": 3}, "trails"),
                            ({"trials": 1, "aco": 3}, "aco"),
                            ({"trials": 1, "map_params": 3}, "map_params"),
                            ({"trials": 1, "start": 5}, "start"),
                            ({"trials": 1, "start": None}, "start"),
                            ({"trials": "3"}, "trials"),
                            ({"trials": 1, "grid_resolution": "5"}, "grid_resolution"),
                            ({"trials": 1, "drrt": {"p_target": "x"}}, "p_target"),
                            ({"trials": 1, "map_params": {"count": "4"}}, "count"),
                            ({"trials": 1, "algorithms": "rrt"}, "algorithms"),
                            ({"trials": 1, "algorithms": ["drrt", "drrt"]}, "drrt"),
                            ({"trials": 1, "map_file": 5}, "map_file")):
        scn_file.write_text(json.dumps(scenario))
        rc = main(["bench", "--scenario", str(scn_file), "--out", str(tmp_path / "report")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("skynav: error:") and named in err
        assert "Traceback" not in err and err.count("\n") == 1

    # malformed map JSON
    map_file = tmp_path / "map.json"
    bounds = {"min": [0, 0, 0], "max": [500, 500, 500]}
    for city, named in (([1, 2], "map data"),
                        ({"bounds": [0, 1], "buildings": []}, "map bounds"),
                        ({"bounds": bounds, "buildings": 5}, "map buildings"),
                        ({"bounds": bounds, "buildings": [5]}, "map building")):
        map_file.write_text(json.dumps(city))
        rc = main(["plan", "--map", str(map_file), "--algo", "astar"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("skynav: error:") and named in err
        assert "Traceback" not in err and err.count("\n") == 1

    # a stored path object with no path, a bad smoothed curve, or a waypoint
    # that is not finite (Python's json writes and reads NaN and Infinity)
    stored = tmp_path / "flight.json"
    for flight, named in (({"foo": 1}, "'path'"),
                          ({"path": [[0, 0, 0], [1, 1, 1]], "smoothed": 7}, "smoothed"),
                          ({"path": [[math.nan, 0, 0], [1, 0, 0], [2, 1, 0]]}, "finite"),
                          ({"path": [[0, 0, 0], [math.inf, 0, 0]]}, "finite")):
        stored.write_text(json.dumps(flight))
        rc = main(["metrics", str(stored)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("skynav: error:") and named in err
        assert "Traceback" not in err and err.count("\n") == 1

    # a missing map or scenario file
    for argv in (["plan", "--map", str(tmp_path / "nope.json")],
                 ["bench", "--scenario", str(tmp_path / "nope.json")]):
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("skynav: error:") and "nope.json" in err
        assert "Traceback" not in err and err.count("\n") == 1
