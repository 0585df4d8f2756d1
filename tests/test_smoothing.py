"""Spline basis and path smoothing tests against an independent de Boor oracle."""
from __future__ import annotations

import time
import tracemalloc

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from spline_reference import basis, evaluate

from skynav import CityMap, Building, Scenario, smooth_path
from skynav.metrics import turn_angles, SHARP_TURN_DEG
from skynav.smoothing import (MAX_CURVE_SAMPLES, MAX_SAMPLES_PER_SPAN, MEMO_MAX_SAMPLES, _basis,
                              clamped_knots, sample_curve)


def _de_boor_oracle(control, degree, knots, u):
    """Triangular de Boor recursion, independent of the basis-sum evaluator."""
    control = np.asarray(control, dtype=float)
    n = len(control)
    k = int(np.searchsorted(knots, u, side="right")) - 1
    k = min(max(k, degree), n - 1)
    d = [control[j + k - degree].copy() for j in range(degree + 1)]
    for r in range(1, degree + 1):
        for j in range(degree, r - 1, -1):
            i = j + k - degree
            den = knots[i + degree - r + 1] - knots[i]
            alpha = 0.0 if den == 0.0 else (u - knots[i]) / den
            d[j] = (1.0 - alpha) * d[j - 1] + alpha * d[j]
    return d[degree]


# ----------------------------------------------------------------------
# knots and basis functions
# ----------------------------------------------------------------------

def test_clamped_knots_shape_and_end_repeats():
    knots = clamped_knots(6, 3)
    assert len(knots) == 6 + 3 + 1
    assert np.all(knots[:4] == 0.0) and np.all(knots[-4:] == 1.0)
    assert np.all(np.diff(knots) >= 0)
    with pytest.raises(ValueError):
        clamped_knots(3, 3)
    with pytest.raises(ValueError):
        clamped_knots(5, 0)


def test_clamped_knots_rejects_bad_and_huge_counts_before_allocating():
    # the most spans a curve under the sample cap can have is accepted
    assert len(clamped_knots(MAX_SAMPLES_PER_SPAN + 1, 1)) == MAX_SAMPLES_PER_SPAN + 3
    # degrees above the cubic: the basis takes time quadratic in the degree, 0.7 s at
    # 2,000 and hours near MAX_SAMPLES_PER_SPAN
    high = [4, 2000, MAX_SAMPLES_PER_SPAN]
    controls = {d: np.zeros((d + 2, 3)) for d in high}
    calls = [lambda n=n, d=d: clamped_knots(n, d)
             for n, d in ((10**9, 3), (10**9, 10**9 - 1), (MAX_SAMPLES_PER_SPAN + 4, 3),
                          (6.0, 3), (6, 3.0), (True, 1), (6, True), ("6", 3),
                          (6, None), (0, 3), (-5, 3), (3, 3), (6, 0), (6, -1))]
    calls += [lambda d=d: clamped_knots(d + 2, d) for d in high]
    calls += [lambda d=d: sample_curve(controls[d], d, 1) for d in high]
    tracemalloc.start()
    try:
        for call in calls:
            tracemalloc.reset_peak()
            t0 = time.perf_counter()
            with pytest.raises(ValueError):
                call()
            assert time.perf_counter() - t0 < 0.05
            assert tracemalloc.get_traced_memory()[1] < 100_000
    finally:
        tracemalloc.stop()


def test_degree_zero_basis_is_a_span_indicator():
    knots = clamped_knots(5, 1)   # [0, 0, .25, .5, .75, 1, 1]
    u = 0.3
    values = [basis(i, 0, u, knots) for i in range(len(knots) - 1)]
    assert values == [1.0 if knots[i] <= u < knots[i + 1] else 0.0
                      for i in range(len(knots) - 1)]
    assert sum(values) == 1.0


def test_basis_partition_of_unity():
    rng = np.random.default_rng(12)
    for n, degree in ((4, 3), (6, 3), (9, 3), (5, 2), (7, 1)):
        knots = clamped_knots(n, degree)
        us = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, 1000)])
        for u in us:
            total = sum(basis(i, degree, float(u), knots) for i in range(n))
            assert abs(total - 1.0) <= 1e-12


def test_evaluate_matches_de_boor_oracle():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(4, 10))
        degree = int(rng.integers(1, min(4, n)))
        control = rng.uniform(-50, 50, (n, 3))
        knots = clamped_knots(n, degree)
        u = float(rng.uniform(0.0, 1.0))
        ours = evaluate(control, degree, knots, u)
        oracle = _de_boor_oracle(control, degree, knots, u)
        assert np.allclose(ours, oracle, atol=1e-10)


@pytest.mark.parametrize("degree", (1, 2, 3))
@pytest.mark.parametrize("n_extra", (0, 1, 4, 37))
@pytest.mark.parametrize("samples_per_span", (1, 3, 8))
def test_sample_curve_equals_the_evaluate_loop_bit_for_bit(degree, n_extra, samples_per_span):
    n = degree + 1 + n_extra
    control = np.random.default_rng(n * 10 + degree).uniform(-500, 500, (n, 3))
    knots = clamped_knots(n, degree)
    us = np.linspace(0.0, 1.0, samples_per_span * (n - degree) + 1)
    reference = np.array([evaluate(control, degree, knots, u) for u in us])
    curve = sample_curve(control, degree, samples_per_span)
    assert curve.shape == reference.shape
    assert curve.tobytes() == reference.tobytes()


def test_memoized_basis_equals_the_evaluate_loop_bit_for_bit_cold_and_warm():
    """Every n from 2 to 120 at degrees 1-3: a fresh basis, then the memo's copy."""
    rng = np.random.default_rng(16)
    for degree in (1, 2, 3):
        for n in range(max(2, degree + 1), 121):
            samples_per_span = 1 + n % 5
            control = rng.uniform(-500, 500, (n, 3))
            knots = clamped_knots(n, degree)
            us = np.linspace(0.0, 1.0, samples_per_span * (n - degree) + 1)
            reference = np.array([evaluate(control, degree, knots, u) for u in us]).tobytes()
            _basis.cache_clear()
            assert sample_curve(control, degree, samples_per_span).tobytes() == reference
            hits = _basis.cache_info().hits
            assert sample_curve(control, degree, samples_per_span).tobytes() == reference
            assert _basis.cache_info().hits == hits + 1


def test_memo_arrays_are_read_only_and_curves_are_fresh():
    control = np.random.default_rng(4).uniform(0, 50, (9, 3))
    idx, weights = _basis(9, 3, 8)
    assert idx.shape == weights.shape == (8 * 6 + 1, 4)
    for memo in (idx, weights):
        with pytest.raises(ValueError):
            memo[0, 0] = 1
    first = sample_curve(control, 3, 8)
    expected = first.copy()
    assert first.flags.writeable and first.flags.owndata
    first[:] = 123.0
    second = sample_curve(control, 3, 8)
    assert second is not first and second.tobytes() == expected.tobytes()
    assert _basis(9, 3, 8)[1] is weights


def test_non_integer_degree_and_samples_per_span_raise_value_error():
    control = np.random.default_rng(6).uniform(0, 50, (6, 3))
    city = CityMap((), (0, 0, 0), (100, 100, 100))
    sample_curve(control, 3, 8)   # 8.0 hashes as 8: a warm memo must still refuse it
    for degree, samples_per_span in ((3.0, 8), (3, 8.0), (True, 8), (3, True), (3, "8"), (3, None)):
        with pytest.raises(ValueError, match="must be an integer"):
            sample_curve(control, degree, samples_per_span)
    for samples_per_span in (8.0, True, np.float64(8)):
        with pytest.raises(ValueError, match="samples_per_span must be an integer"):
            smooth_path(control, city, samples_per_span)
    for degree in (0, -1):
        with pytest.raises(ValueError, match="degree must be between 1 and 3"):
            sample_curve(control, degree, 8)
    # numpy integers are integers
    assert sample_curve(control, np.int64(3), np.int32(8)).tobytes() == \
        sample_curve(control, 3, 8).tobytes()


def test_curves_over_the_cap_and_flat_control_points_raise_before_allocating():
    control = np.random.default_rng(7).uniform(0, 50, (6, 3))
    city = CityMap((), (0, 0, 0), (100, 100, 100))
    tracemalloc.start()
    try:
        for call in (lambda: smooth_path(control, city, samples_per_span=10**9),
                     lambda: smooth_path(control, city, MAX_SAMPLES_PER_SPAN + 1),
                     lambda: sample_curve(control, 3, 10**12),
                     lambda: sample_curve(control[:2], 1, MAX_SAMPLES_PER_SPAN + 1),
                     lambda: sample_curve(control, 3, MAX_CURVE_SAMPLES // 3 + 1),
                     # flat control points once broadcast to (samples, samples)
                     lambda: sample_curve(np.arange(400.0), 3, 8)):
            tracemalloc.reset_peak()
            with pytest.raises(ValueError):
                call()
            assert tracemalloc.get_traced_memory()[1] < 100_000
    finally:
        tracemalloc.stop()


def test_long_routes_are_smoothed_past_the_memo_and_returned_raw_past_the_cap():
    rng = np.random.default_rng(17)
    city = CityMap((), (-1e5, -1e5, -1e5), (1e5, 1e5, 1e5))
    # a cubic route of n waypoints has 8 * (n - 3) + 1 samples at the default
    # samples per span: 515 is the fewest the memo does not keep
    for n in (514, 515):
        control = np.cumsum(rng.uniform(-5, 5, (n, 3)), axis=0)
        knots = clamped_knots(n, 3)
        us = np.linspace(0.0, 1.0, 8 * (n - 3) + 1)
        reference = np.array([evaluate(control, 3, knots, u) for u in us]).tobytes()
        _basis.cache_clear()
        assert smooth_path(control, city).tobytes() == reference
        assert _basis.cache_info().currsize == (len(us) <= MEMO_MAX_SAMPLES)
    route = np.cumsum(rng.uniform(-5, 5, (5000, 3)), axis=0)
    smoothed = smooth_path(route, city)
    assert smoothed.shape == (8 * 4997 + 1, 3)
    assert smoothed[[0, -1]].tobytes() == route[[0, -1]].tobytes()
    assert _basis.cache_info().currsize == 0
    # a curve longer than the cap: the raw route, with nothing allocated for it
    short = route[:40]
    tracemalloc.start()
    try:
        raw = smooth_path(short, city, MAX_SAMPLES_PER_SPAN // 2)
        assert tracemalloc.get_traced_memory()[1] < 100_000
    finally:
        tracemalloc.stop()
    assert raw is not short and raw.tobytes() == short.tobytes()
    # the most samples per span that Scenario allows still smooth a one-span line
    line = smooth_path(route[:2], city, MAX_SAMPLES_PER_SPAN)
    assert len(line) == MAX_CURVE_SAMPLES
    assert _basis.cache_info().currsize == 0


def test_scenario_refuses_a_bad_samples_per_span_when_parsed():
    for bad in (0, -3, MAX_SAMPLES_PER_SPAN + 1, 10**12):
        with pytest.raises(ValueError, match="samples_per_span must be between 1 and"):
            Scenario.from_dict({"samples_per_span": bad})
    for bad in (8.0, True):
        with pytest.raises(ValueError, match="samples_per_span"):
            Scenario(samples_per_span=bad)
    assert Scenario.from_dict({"samples_per_span": MAX_SAMPLES_PER_SPAN}).samples_per_span == \
        MAX_SAMPLES_PER_SPAN


def test_endpoint_interpolation_is_exact():
    rng = np.random.default_rng(2)
    control = rng.uniform(-10, 10, (7, 3))
    knots = clamped_knots(7, 3)
    assert np.array_equal(evaluate(control, 3, knots, 0.0), control[0])
    assert np.array_equal(evaluate(control, 3, knots, 1.0), control[-1])
    curve = sample_curve(control, 3, 5)
    assert np.array_equal(curve[0], control[0])
    assert np.array_equal(curve[-1], control[-1])


def test_curve_is_affine_invariant():
    rng = np.random.default_rng(3)
    control = rng.uniform(0, 10, (8, 3))
    theta = 0.7
    rot = np.array([[np.cos(theta), -np.sin(theta), 0],
                    [np.sin(theta), np.cos(theta), 0],
                    [0, 0, 1.0]])
    shift = np.array([5.0, -2.0, 11.0])
    direct = sample_curve(control @ rot.T + shift, 3, 6)
    mapped = sample_curve(control, 3, 6) @ rot.T + shift
    assert np.allclose(direct, mapped, atol=1e-9)


def test_curve_stays_inside_the_control_hull():
    rng = np.random.default_rng(9)
    control = rng.uniform(0, 20, (10, 3))
    hull = ConvexHull(control)
    curve = sample_curve(control, 3, 10)
    homog = np.hstack([curve, np.ones((len(curve), 1))])
    assert np.all(homog @ hull.equations.T <= 1e-9)


# ----------------------------------------------------------------------
# path smoothing
# ----------------------------------------------------------------------

def test_two_waypoints_resample_the_straight_segment():
    city = CityMap((), (0, 0, 0), (100, 100, 100))
    out = smooth_path(np.array([[0.0, 0.0, 0.0], [30.0, 40.0, 0.0]]), city, 4)
    assert np.array_equal(out[0], [0, 0, 0]) and np.array_equal(out[-1], [30, 40, 0])
    line_dir = np.array([30.0, 40.0, 0.0])
    for p in out:
        assert np.linalg.norm(np.cross(p, line_dir)) <= 1e-9


def test_collinear_waypoints_stay_collinear():
    city = CityMap((), (0, 0, 0), (100, 100, 100))
    path = np.array([[0, 0, 0], [1, 1, 1], [2, 2, 2], [3, 3, 3]], dtype=float)
    out = smooth_path(path, city, 8)
    direction = np.array([1.0, 1.0, 1.0])
    for p in out:
        assert np.linalg.norm(np.cross(p, direction)) <= 1e-9


def test_zigzag_smoothing_reduces_sharp_turns():
    city = CityMap((), (0, 0, 0), (100, 100, 100))
    xs = np.arange(10, dtype=float) * 5
    ys = np.where(np.arange(10) % 2 == 0, 0.0, 5.0)
    path = np.column_stack([xs, ys, np.full(10, 20.0)])
    smoothed = smooth_path(path, city, 8)
    raw_sharp = int((turn_angles(path) > SHARP_TURN_DEG).sum())
    new_sharp = int((turn_angles(smoothed) > SHARP_TURN_DEG).sum())
    assert raw_sharp > 0
    assert new_sharp < raw_sharp


def test_smoothing_that_would_collide_returns_the_raw_path():
    wall = CityMap([Building((4, 0, 0), (6, 9, 10))], (0, 0, 0), (15, 15, 15))
    path = np.array([[0, 4, 5], [5, 12, 5], [10, 4, 5]], dtype=float)
    for a, b in zip(path[:-1], path[1:]):
        assert not wall.segment_collides(a, b)
    out = smooth_path(path, wall, 8)
    assert np.array_equal(out, path)
    assert out is not path   # caller gets an independent copy


def test_smoothed_path_is_collision_checked_segmentwise():
    city = CityMap([Building((20, 20, 0), (30, 30, 40))], (0, 0, 0), (60, 60, 60))
    path = np.array([[5, 5, 5], [15, 35, 10], [35, 45, 20], [55, 55, 30]], dtype=float)
    out = smooth_path(path, city, 8)
    for a, b in zip(out[:-1], out[1:]):
        assert not city.segment_collides(a, b)


def test_smooth_path_validation():
    city = CityMap((), (0, 0, 0), (10, 10, 10))
    with pytest.raises(ValueError):
        smooth_path(np.zeros((1, 3)), city)
    with pytest.raises(ValueError):
        smooth_path(np.zeros((4, 2)), city)
    with pytest.raises(ValueError):
        smooth_path(np.zeros((4, 3)), city, samples_per_span=0)
    with pytest.raises(ValueError):   # a NaN waypoint reaches the collision check
        smooth_path(np.array([[1, 1, 1], [2, np.nan, 2], [3, 3, 3], [4, 4, 4.0]]), city)
