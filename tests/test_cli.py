"""Command-line interface smoke tests (invoked in-process via main)."""
from __future__ import annotations

import csv
import json

import pytest

from skynav import AcoParams, GenParams, Scenario, load_map
from skynav.cli import main


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


def test_plan_astar_on_a_stored_map(tmp_path, capsys):
    city_file = tmp_path / "city.json"
    assert main(["genmap", "--seed", "3", "--count", "6", "--size", "150",
                 "--height-max", "90", "--keep-clear", "5,5,5",
                 "--keep-clear", "140,140,30", "--out", str(city_file)]) == 0
    rc = main(["plan", "--algo", "astar", "--map", str(city_file),
               "--start", "5,5,5", "--goal", "140,140,30", "--resolution", "5"])
    assert rc == 0
    assert "astar" in capsys.readouterr().out


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
    assert "wrote" in capsys.readouterr().out


def test_bad_coordinate_syntax_is_rejected():
    with pytest.raises(SystemExit):
        main(["plan", "--start", "1,2"])


def test_invalid_input_exits_with_a_one_line_error(tmp_path, capsys):
    # a 1 m grid over the 500 m cube is over the voxel cell budget
    rc = main(["plan", "--algo", "astar", "--resolution", "1", "--count", "5",
               "--start", "10,10,1", "--goal", "470,420,50"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("skynav: error:") and "budget" in err
    assert "Traceback" not in err and err.count("\n") == 1

    scn_file = tmp_path / "scenario.json"
    scn_file.write_text(json.dumps({"trials": 1, "trails": 3}))
    rc = main(["bench", "--scenario", str(scn_file), "--out", str(tmp_path / "report")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("skynav: error:") and "trails" in err
    assert "Traceback" not in err and err.count("\n") == 1
