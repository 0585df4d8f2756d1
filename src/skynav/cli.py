"""Command-line front end: generate maps, plan single flights, run benchmarks."""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace
from pathlib import Path

from .bench import (ALGORITHMS, GRID_ALGORITHMS, Scenario, build_city, build_grid,
                    default_scenario, fly, run_benchmark)
from .env import GenParams, generate_city, save_map
from .metrics import summarize


def _parse_xyz(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected x,y,z but got {text!r}")
    try:
        x, y, z = (float(p) for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return x, y, z


def _cmd_genmap(args) -> int:
    params = GenParams(
        count=args.count,
        footprint_range=(args.footprint_min, args.footprint_max),
        height_range=(args.height_min, args.height_max),
        bounds_max=(args.size, args.size, args.size),
        keep_clear=tuple(args.keep_clear),
        clear_radius=args.clear_radius,
    )
    city = generate_city(args.seed, params)
    save_map(city, args.out)
    print(f"wrote {args.out}: {len(city.buildings)} buildings, seed {args.seed}")
    return 0


def _cmd_plan(args) -> int:
    scenario = Scenario(start=args.start, goal=args.goal, goal_threshold=args.goal_threshold,
                        max_failed_attempts=args.max_failed, algorithms=(args.algo,),
                        map_file=args.map, map_seed=args.map_seed,
                        map_params=GenParams(count=args.count), grid_resolution=args.resolution)
    if args.step is not None:  # --step sets the tree planner's initial step
        if args.algo in GRID_ALGORITHMS:
            raise ValueError(f"--step sets a tree planner's step; {args.algo} has none")
        params = replace(getattr(scenario, args.algo), step_size=args.step)
        scenario = replace(scenario, **{args.algo: params})
    city = build_city(scenario)
    result, smoothed, smooth_s = fly(args.algo, city, build_grid(city, scenario), scenario,
                                     args.seed)
    payload = {
        "algorithm": args.algo,
        "seed": args.seed,
        "success": result.success,
        "explored_nodes": result.explored_nodes,
        "elapsed_s": result.elapsed,
        "path": result.path.tolist(),
    }
    if smoothed is not None:
        payload["smooth_s"] = smooth_s
        payload["smoothed"] = smoothed.tolist()
    if args.out:
        Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    if not result.success:
        print(f"{args.algo}: no path found ({result.explored_nodes} nodes explored)")
        return 1
    smoothing = "" if smooth_s is None else f", {smooth_s:.3f} s smoothing"
    print(f"{args.algo}: {result.explored_nodes} nodes explored, "
          f"{result.elapsed:.3f} s planning{smoothing}")
    print(_columns(summarize(result.path, smoothed)))
    return 0


def _columns(row) -> str:
    """A dataclass row as name-value pairs in field order; None prints as --."""
    def cell(v):
        return "--" if v is None else f"{v:.3f}" if isinstance(v, float) else str(v)

    return "  ".join(f"{f.name} {cell(getattr(row, f.name))}" for f in fields(row))


def _cmd_bench(args) -> int:
    if args.scenario is not None:
        scenario = Scenario.from_dict(json.loads(Path(args.scenario).read_text()))
    else:
        scenario = default_scenario()
    report = run_benchmark(scenario)
    prefix = Path(args.out)
    report.write_json(prefix.with_suffix(".json"))
    report.write_csv(prefix.with_suffix(".csv"))
    report.write_trials_csv(prefix.parent / f"{prefix.stem}_trials.csv")
    for algo in scenario.algorithms:
        print(f"{algo:>6}: {_columns(report.rows[algo])}")
    print(f"wrote {prefix.with_suffix('.json')}, {prefix.with_suffix('.csv')}, "
          f"{prefix.parent / (prefix.stem + '_trials.csv')}")
    return 0


def _cmd_metrics(args) -> int:
    data = json.loads(Path(args.path).read_text())
    path, smoothed = data, None
    if isinstance(data, dict):
        if "path" not in data:
            raise ValueError(f"{args.path}: a path object needs a 'path' key")
        path, smoothed = data["path"], data.get("smoothed")
    print(_columns(summarize(path, smoothed)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="skynav",
                                     description="3D urban flight path planning toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("genmap", help="generate a random building map")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=GenParams.count)
    p.add_argument("--size", type=float, default=GenParams.bounds_max[0])
    p.add_argument("--footprint-min", type=float, default=GenParams.footprint_range[0])
    p.add_argument("--footprint-max", type=float, default=GenParams.footprint_range[1])
    p.add_argument("--height-min", type=float, default=GenParams.height_range[0])
    p.add_argument("--height-max", type=float, default=GenParams.height_range[1])
    p.add_argument("--clear-radius", type=float, default=GenParams.clear_radius)
    p.add_argument("--keep-clear", type=_parse_xyz, action="append", default=[],
                   metavar="X,Y,Z", help="point no building may encroach (repeatable)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_genmap)

    p = sub.add_parser("plan", help="plan a single flight")
    p.add_argument("--algo", choices=ALGORITHMS, default="drrt")
    p.add_argument("--map", help="map JSON produced by genmap")
    p.add_argument("--map-seed", type=int, default=Scenario.map_seed,
                   help="generate a map with this seed when --map is absent")
    p.add_argument("--count", type=int, default=GenParams.count,
                   help="building count for generated maps")
    p.add_argument("--start", type=_parse_xyz, default=Scenario.start, metavar="X,Y,Z")
    p.add_argument("--goal", type=_parse_xyz, default=Scenario.goal, metavar="X,Y,Z")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--step", type=float, help="initial rrt/drrt step (default: the planner's)")
    p.add_argument("--goal-threshold", type=float, default=Scenario.goal_threshold)
    p.add_argument("--max-failed", type=int, default=Scenario.max_failed_attempts)
    p.add_argument("--resolution", type=float, default=Scenario.grid_resolution,
                   help="voxel size for astar/aco")
    p.add_argument("--out", help="write the resulting path as JSON")
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("bench", help="run the comparative benchmark")
    p.add_argument("--scenario", help="scenario JSON; omit for the built-in urban benchmark")
    p.add_argument("--out", default="report", help="output prefix for .json/.csv files")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("metrics", help="summarize a stored path JSON")
    p.add_argument("path")
    p.set_defaults(func=_cmd_metrics)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"skynav: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
