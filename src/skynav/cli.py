"""Command-line front end: generate maps, plan single flights, run benchmarks."""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .bench import (ALGORITHMS, PLANNERS, Scenario, build_city, build_grid, default_scenario,
                    run_benchmark)
from .env import GenParams, generate_city, save_map
from .metrics import summarize
from .smoothing import smooth_path


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
    if args.algo in ("rrt", "drrt"):  # --step sets the tree planner's initial step
        params = replace(getattr(scenario, args.algo), step_size=args.step)
        scenario = replace(scenario, **{args.algo: params})
    city = build_city(scenario)
    result = PLANNERS[args.algo](city, build_grid(city, scenario), scenario.request(),
                                 scenario, args.seed)
    smoothed = None
    if args.algo == "drrt" and result.success and not args.no_smoothing:
        smoothed = smooth_path(result.path, city, scenario.samples_per_span)
    payload = {
        "algorithm": args.algo,
        "seed": args.seed,
        "success": result.success,
        "explored_nodes": result.explored_nodes,
        "elapsed_s": result.elapsed,
        "path": result.path.tolist(),
    }
    if smoothed is not None:
        payload["smoothed"] = smoothed.tolist()
    if args.out:
        Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    if not result.success:
        print(f"{args.algo}: no path found ({result.explored_nodes} nodes explored)")
        return 1
    mm = summarize(result.path, smoothed)
    line = (f"{args.algo}: length {mm.length_m:.1f} m, {mm.waypoints} waypoints, "
            f"{result.explored_nodes} nodes explored, {result.elapsed:.3f} s")
    if mm.smoothed_length_m is not None:
        line += f", smoothed length {mm.smoothed_length_m:.1f} m"
    print(line)
    return 0


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
        agg = report.rows[algo]

        def fmt(v, code=".2f"):
            return "--" if v is None else format(v, code)

        print(f"{algo:>6}: t {agg.t:.4f} s  l {fmt(agg.l)} m  l' {fmt(agg.l_smoothed)} m  "
              f"w {fmt(agg.w, '.1f')}  m {agg.m:.1f}  eta {agg.eta:.2%}  "
              f"beta {fmt(agg.beta, '.1f')}  n {fmt(agg.n, '.1f')}  n' {fmt(agg.n_smoothed, '.1f')}")
    print(f"wrote {prefix.with_suffix('.json')}, {prefix.with_suffix('.csv')}, "
          f"{prefix.parent / (prefix.stem + '_trials.csv')}")
    return 0


def _cmd_metrics(args) -> int:
    data = json.loads(Path(args.path).read_text())
    path = data["path"] if isinstance(data, dict) else data
    smoothed = data.get("smoothed") if isinstance(data, dict) else None
    mm = summarize(path, smoothed)
    print(f"length {mm.length_m:.2f} m over {mm.waypoints} waypoints; "
          f"max turn {mm.max_turn_deg:.1f} deg, {mm.sharp_turns} sharp turns")
    if mm.smoothed_length_m is not None:
        print(f"smoothed: length {mm.smoothed_length_m:.2f} m; "
              f"max turn {mm.max_turn_smoothed_deg:.1f} deg, "
              f"{mm.sharp_turns_smoothed} sharp turns")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="skynav",
                                     description="3D urban flight path planning toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("genmap", help="generate a random building map")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=40)
    p.add_argument("--size", type=float, default=500.0)
    p.add_argument("--footprint-min", type=float, default=20.0)
    p.add_argument("--footprint-max", type=float, default=60.0)
    p.add_argument("--height-min", type=float, default=18.0)
    p.add_argument("--height-max", type=float, default=270.0)
    p.add_argument("--clear-radius", type=float, default=5.0)
    p.add_argument("--keep-clear", type=_parse_xyz, action="append", default=[],
                   metavar="X,Y,Z", help="point no building may encroach (repeatable)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_genmap)

    p = sub.add_parser("plan", help="plan a single flight")
    p.add_argument("--algo", choices=ALGORITHMS, default="drrt")
    p.add_argument("--map", help="map JSON produced by genmap")
    p.add_argument("--map-seed", type=int, default=0,
                   help="generate a map with this seed when --map is absent")
    p.add_argument("--count", type=int, default=40, help="building count for generated maps")
    p.add_argument("--start", type=_parse_xyz, default=(10.0, 10.0, 1.0), metavar="X,Y,Z")
    p.add_argument("--goal", type=_parse_xyz, default=(470.0, 420.0, 50.0), metavar="X,Y,Z")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--step", type=float, default=10.0)
    p.add_argument("--goal-threshold", type=float, default=5.0)
    p.add_argument("--max-failed", type=int, default=20000)
    p.add_argument("--resolution", type=float, default=5.0, help="voxel size for astar/aco")
    p.add_argument("--no-smoothing", action="store_true")
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
    except ValueError as exc:
        print(f"skynav: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
