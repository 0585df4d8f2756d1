"""Acceptance gate: the full urban benchmark plus always-on planner properties.

Criteria 1-7 share one run of the canonical 30-trial benchmark (about two
minutes); 8-13 are standalone property checks.  Every test prints a single
[PASS]/[FAIL] line directly on the terminal before asserting, so the gate
reads as a checklist even mid-run.
"""
from __future__ import annotations

import math

import numpy as np
import pytest
from grid_reference import dijkstra_cost
from spline_reference import basis, de_boor, evaluate

from skynav import (AcoParams, Building, CityMap, DrrtParams, GenParams,
                    PlanRequest, RrtParams, Scenario, VoxelGrid, generate_city,
                    plan_astar, plan_drrt, plan_rrt, run_benchmark, smooth_path)
from skynav.bench import PLANNERS, build_city, build_grid, default_scenario
from skynav.core import SLAB_FROM, SearchTree
from skynav.drrt import COLLIDED, FAR, NEUTRAL, update_step
from skynav.env import MapGenerationError
from skynav.metrics import dedupe, path_length
from skynav.smoothing import clamped_knots, sample_curve


def _criterion(capsys, num: int, label: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d} ({label}): {detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def scenario():
    return default_scenario()


@pytest.fixture(scope="module")
def city(scenario):
    return build_city(scenario)


@pytest.fixture(scope="module")
def grid(scenario, city):
    return build_grid(city, scenario)


@pytest.fixture(scope="module")
def report(scenario, city):
    return run_benchmark(scenario, city=city)


def _plan_once(algo, scenario, city, grid, seed):
    return PLANNERS[algo](city, grid, scenario.request(), scenario, seed)


@pytest.fixture(scope="module")
def paired_runs(scenario, city, grid):
    """Each planner run twice on the benchmark map with the first paired seed."""
    out = {}
    for algo in scenario.algorithms:
        first = _plan_once(algo, scenario, city, grid, scenario.base_seed)
        second = _plan_once(algo, scenario, city, grid, scenario.base_seed)
        out[algo] = (first, second)
    return out


# ----------------------------------------------------------------------
# benchmark outcome criteria (1-7)
# ----------------------------------------------------------------------

def test_criterion_01_success_rates(report, capsys):
    eta_d = report.rows["drrt"].eta
    eta_r = report.rows["rrt"].eta
    ok = eta_d == 1.0 and eta_r >= 0.90
    _criterion(capsys, 1, "success rates", ok,
               f"enhanced planner eta={eta_d:.1%} (need 100%), "
               f"baseline tree eta={eta_r:.1%} (need >= 90%)")


def test_criterion_02_path_length_band(report, capsys):
    l_d = report.rows["drrt"].l
    l_r = report.rows["rrt"].l
    ok = l_d < l_r and 560.0 <= l_d <= 780.0
    _criterion(capsys, 2, "path length", ok,
               f"mean length {l_d:.1f} m vs baseline {l_r:.1f} m, "
               f"band [560, 780] m")


def test_criterion_03_exploration_ratio(report, capsys):
    ratio = report.rows["drrt"].m / report.rows["rrt"].m
    ok = ratio < 0.25
    _criterion(capsys, 3, "explored-node ratio", ok,
               f"{report.rows['drrt'].m:.1f} / {report.rows['rrt'].m:.1f} "
               f"= {ratio:.4f} (need < 0.25)")


def test_criterion_04_smoothing_effect(report, capsys):
    row = report.rows["drrt"]
    rel = abs(row.l_smoothed - row.l) / row.l
    ok = row.n_smoothed < row.n and rel < 0.05
    _criterion(capsys, 4, "smoothing", ok,
               f"sharp turns {row.n:.2f} -> {row.n_smoothed:.2f}, "
               f"length drift {rel:.2%} (need < 5%)")


def test_criterion_05_runtime_ordering(report, capsys):
    med = {a: float(np.median([r.elapsed_s for r in report.records[a]]))
           for a in ("drrt", "astar", "aco")}
    ok = med["drrt"] < med["astar"] < med["aco"]
    _criterion(capsys, 5, "median runtime order", ok,
               f"{med['drrt']:.4f} s < {med['astar']:.4f} s < {med['aco']:.4f} s")


def test_criterion_06_grid_search_length_agreement(report, capsys):
    l_d = report.rows["drrt"].l
    l_a = report.rows["astar"].l
    rel = abs(l_a - l_d) / l_d
    ok = rel <= 0.15
    _criterion(capsys, 6, "grid-search length agreement", ok,
               f"grid search {l_a:.1f} m vs {l_d:.1f} m, gap {rel:.2%} (need <= 15%)")


def test_criterion_07_waypoint_halving(report, capsys):
    w_d = report.rows["drrt"].w
    w_a = report.rows["astar"].w
    w_c = report.rows["aco"].w
    ok = w_d < 0.5 * w_a and w_d < 0.5 * w_c
    floor = report.rows["drrt"].l / 15.0 + 2
    _criterion(capsys, 7, "waypoint halving", ok,
               f"{w_d:.1f} waypoints vs halves {0.5 * w_a:.1f} (grid) and "
               f"{0.5 * w_c:.1f} (ant colony); a {report.rows['drrt'].l:.0f} m "
               f"route at the 15 m step cap cannot use fewer than ~{floor:.0f} "
               f"waypoints, so the grid half is out of reach at 5 m resolution")


# ----------------------------------------------------------------------
# always-on property criteria (8-13)
# ----------------------------------------------------------------------

def _check_path_free(city, path):
    for p in path:
        assert city.in_bounds(p)
    for a, b in zip(path[:-1], path[1:]):
        assert not city.segment_collides(a, b)


def test_criterion_08_collision_free_paths(scenario, city, paired_runs, capsys):
    for algo, (res, _) in paired_runs.items():
        assert res.success, f"{algo} failed on the benchmark map"
        _check_path_free(city, res.path)
    smoothed = smooth_path(paired_runs["drrt"][0].path, city)
    _check_path_free(city, smoothed)

    rng = np.random.default_rng(2026)
    successes = {a: 0 for a in scenario.algorithms}
    runs = 0
    for k in range(200):
        algo = scenario.algorithms[k % 4]
        size = float(rng.uniform(80.0, 140.0))
        start = (float(rng.uniform(3, 10)), float(rng.uniform(3, 10)),
                 float(rng.uniform(3, 10)))
        goal = (float(rng.uniform(size - 20, size - 10)),
                float(rng.uniform(size - 20, size - 10)),
                float(rng.uniform(10, size - 10)))
        # keep-clear covers the whole 6 m voxel around either endpoint
        params = GenParams(count=int(rng.integers(3, 9)),
                           footprint_range=(8.0, 25.0),
                           height_range=(10.0, 0.5 * size),
                           bounds_max=(size, size, size),
                           keep_clear=(start, goal), clear_radius=11.0)
        fuzz_city = None
        for bump in range(3):
            try:
                fuzz_city = generate_city(int(k + 1000 * bump), params)
                break
            except MapGenerationError:
                continue
        assert fuzz_city is not None
        fuzz = Scenario(start=start, goal=goal, goal_threshold=3.0,
                        max_failed_attempts=2000, algorithms=(algo,), grid_resolution=6.0,
                        rrt=RrtParams(step_size=8.0), drrt=DrrtParams(step_size=8.0),
                        aco=AcoParams(ants=5, iterations=6))
        res = _plan_once(algo, fuzz, fuzz_city, build_grid(fuzz_city, fuzz), k)
        runs += 1
        if res.success:
            successes[algo] += 1
            _check_path_free(fuzz_city, res.path)
            if algo == "drrt":
                _check_path_free(fuzz_city, smooth_path(res.path, fuzz_city))
    assert runs == 200
    assert all(v >= 25 for v in successes.values()), successes
    _criterion(capsys, 8, "collision-free paths", True,
               f"benchmark paths clean; 200 fuzz runs, "
               f"{sum(successes.values())} successes, zero violations")


def test_criterion_09_oracle_equivalence(capsys):
    # nearest neighbour against a plain linear scan, on a tree that scans its
    # one slab and on one past SLAB_FROM nodes that searches its x-slabs
    rng = np.random.default_rng(71)
    for n in (500, 9000):
        pts = rng.uniform(0, 500, (n, 3))
        tree = SearchTree(pts[0])
        for i in range(1, n):
            tree.add(pts[i], parent=rng.integers(0, i))
        assert (n > SLAB_FROM) == (len(tree._slabs) > 1)
        for q in rng.uniform(0, 500, (100, 3)):
            d2 = ((pts - q) ** 2).sum(axis=1)
            want = min(range(n), key=lambda i: (d2[i], i))
            assert tree.nearest(q) == want

    # grid search cost against uniform-cost search
    rng = np.random.default_rng(31)
    solved = 0
    for _ in range(20):
        occ = rng.random((5, 5, 3)) < 0.25
        occ[0, 0, 0] = occ[4, 4, 2] = False
        g = VoxelGrid(occ, 2.0)
        req = PlanRequest(g.center_of((0, 0, 0)), g.center_of((4, 4, 2)),
                          goal_threshold=0.5)
        oracle = dijkstra_cost(g, g.flat((0, 0, 0)), g.flat((4, 4, 2)))
        res = plan_astar(g, req)
        if math.isinf(oracle):
            assert not res.success
        else:
            solved += 1
            assert res.success
            assert path_length(dedupe(res.path)) == pytest.approx(oracle, abs=1e-9)
    assert solved >= 10

    # spline evaluation against the triangular recursion
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(4, 10))
        degree = int(rng.integers(1, min(4, n)))
        control = rng.uniform(-50, 50, (n, 3))
        knots = clamped_knots(n, degree)
        u = float(rng.uniform(0.0, 1.0))
        assert np.allclose(evaluate(control, degree, knots, u),
                           de_boor(control, degree, knots, u), atol=1e-10)

    # segment collision against dense sampling, skipping tangent cases
    boxes = [Building((20, 20, 0), (45, 40, 60)), Building((60, 55, 0), (80, 85, 35))]
    seg_city = CityMap(boxes, (0, 0, 0), (100, 100, 100))
    rng = np.random.default_rng(44)
    checked = 0
    for _ in range(300):
        a = rng.uniform(0, 100, 3)
        b = rng.uniform(0, 100, 3)
        ts = np.linspace(0.0, 1.0, 400)[:, None]
        samples = a + ts * (b - a)
        hit_fat = hit_thin = False
        for box in boxes:
            lo, hi = np.asarray(box.min_corner), np.asarray(box.max_corner)
            inside_fat = np.all((samples >= lo - 0.05) & (samples <= hi + 0.05), axis=1)
            inside_thin = np.all((samples >= lo + 0.05) & (samples <= hi - 0.05), axis=1)
            hit_fat = hit_fat or bool(inside_fat.any())
            hit_thin = hit_thin or bool(inside_thin.any())
        if hit_fat != hit_thin:
            continue                      # grazing segment, verdict tolerance-bound
        checked += 1
        assert seg_city.segment_collides(a, b) == hit_fat
    assert checked >= 200
    _criterion(capsys, 9, "oracle equivalence", True,
               f"nearest scan 200/200 (500 and 9,000 nodes), grid costs {solved}/20 solvable, "
               f"spline 100/100, segments {checked} non-tangent cases")


def test_criterion_10_spline_properties(capsys):
    rng = np.random.default_rng(12)
    knots = clamped_knots(9, 3)
    for u in np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, 1000)]):
        total = sum(basis(i, 3, float(u), knots) for i in range(9))
        assert abs(total - 1.0) <= 1e-12

    control = rng.uniform(-10, 10, (7, 3))
    knots7 = clamped_knots(7, 3)
    assert np.array_equal(evaluate(control, 3, knots7, 0.0), control[0])
    assert np.array_equal(evaluate(control, 3, knots7, 1.0), control[-1])
    curve = sample_curve(control, 3, 6)
    assert np.array_equal(curve[0], control[0])
    assert np.array_equal(curve[-1], control[-1])

    theta = 0.7
    rot = np.array([[np.cos(theta), -np.sin(theta), 0],
                    [np.sin(theta), np.cos(theta), 0], [0, 0, 1.0]])
    shift = np.array([5.0, -2.0, 11.0])
    direct = sample_curve(control @ rot.T + shift, 3, 6)
    mapped = sample_curve(control, 3, 6) @ rot.T + shift
    assert np.allclose(direct, mapped, atol=1e-9)
    _criterion(capsys, 10, "spline properties", True,
               "unity within 1e-12 over 1002 parameters, exact endpoints, "
               "affine invariance within 1e-9")


def test_criterion_11_determinism(scenario, paired_runs, capsys):
    for algo, (first, second) in paired_runs.items():
        assert first.success == second.success, algo
        assert first.path.tobytes() == second.path.tobytes(), algo
        assert first.explored_nodes == second.explored_nodes, algo

    small = Scenario(
        start=(5.0, 5.0, 5.0), goal=(112.0, 108.0, 40.0), trials=2, base_seed=100,
        map_seed=2,
        map_params=GenParams(count=6, footprint_range=(10, 30), height_range=(18, 80),
                             bounds_max=(120.0, 120.0, 120.0)),
        grid_resolution=6.0, aco=AcoParams(ants=6, iterations=8),
    )
    first = run_benchmark(small).to_json(include_timing=False)
    second = run_benchmark(small).to_json(include_timing=False)
    assert first == second
    _criterion(capsys, 11, "determinism", True,
               "byte-identical paths across reruns for all four planners; "
               "a rerun benchmark report is identical")


def test_criterion_12_step_bounds_under_fuzz(capsys):
    rng = np.random.default_rng(9)
    for _ in range(50):
        lo = float(rng.uniform(0.5, 4.0))
        hi = float(rng.uniform(lo + 1.0, lo + 20.0))
        start = float(rng.uniform(lo, hi))
        params = DrrtParams(step_size=start, step_min=lo, step_max=hi,
                            e=float(rng.uniform(1.05, 3.0)))
        step = params.step_size
        for outcome in rng.choice([FAR, COLLIDED, NEUTRAL], size=200):
            step = update_step(step, str(outcome), params)
            assert params.step_min <= step <= params.step_max
    _criterion(capsys, 12, "dynamic step bounds", True,
               "50 fuzzed 200-update sequences stayed inside [step_min, step_max]")


def test_criterion_13_reduction_to_baseline(scenario, city, capsys):
    reduced = DrrtParams(step_size=10.0, p_target=0.0, step_min=10.0,
                         step_max=10.0, use_detour=False)
    small_city = generate_city(3, GenParams(
        count=2, footprint_range=(15, 25), height_range=(15, 40),
        bounds_max=(80.0, 80.0, 80.0), keep_clear=((5, 5, 5), (70, 70, 30))))
    small_req = PlanRequest((5, 5, 5), (70, 70, 30), goal_threshold=5.0,
                            max_failed_attempts=2000)
    cases = [(small_city, small_req, seed) for seed in range(5)]
    cases.append((city, scenario.request(), scenario.base_seed))
    for case_city, req, seed in cases:
        a = plan_rrt(case_city, req, RrtParams(step_size=10.0), seed)
        b = plan_drrt(case_city, req, reduced, seed)
        assert a.success == b.success
        assert a.path.tobytes() == b.path.tobytes()
        assert a.explored_nodes == b.explored_nodes
    _criterion(capsys, 13, "reduction to baseline", True,
               "bias, detour and step adaptation disabled reproduces the "
               "baseline tree exactly on 6 seeded cases")
