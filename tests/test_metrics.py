"""Path measurement tests: length, turning angles, sharp-turn counting."""
from __future__ import annotations

import math

import numpy as np
import pytest

from skynav import PathMetrics, summarize
from skynav.metrics import dedupe, path_length, turn_angles


def test_length_of_a_3_4_5_leg():
    assert path_length([(0, 0, 0), (3, 4, 0)]) == 5.0


def test_length_of_single_point_is_zero():
    assert path_length([(7, 7, 7)]) == 0.0


def test_length_matches_pairwise_summation_oracle():
    rng = np.random.default_rng(18)
    pts = rng.uniform(-100, 100, (20, 3))
    expected = sum(math.dist(a, b) for a, b in zip(pts[:-1], pts[1:]))
    assert path_length(pts) == pytest.approx(expected, abs=1e-9)


def test_dedupe_merges_exact_repeats_only():
    path = [(0, 0, 0), (0, 0, 0), (1, 0, 0), (1, 0, 0), (1, 0, 0), (2, 0, 0)]
    assert np.array_equal(dedupe(path), [[0, 0, 0], [1, 0, 0], [2, 0, 0]])
    near = [(0, 0, 0), (1e-12, 0, 0)]
    assert len(dedupe(near)) == 2


def test_collinear_and_right_angle_turns():
    straight = [(0, 0, 0), (1, 0, 0), (2, 0, 0)]
    assert np.allclose(turn_angles(straight), [0.0], atol=1e-7)
    corner = [(0, 0, 0), (1, 0, 0), (1, 1, 0)]
    assert np.allclose(turn_angles(corner), [90.0])


def test_diagonal_turn_is_ninety_degrees():
    # directions (1,0,0) then (0,1,1)/sqrt(2) are orthogonal
    angles = turn_angles([(0, 0, 0), (1, 0, 0), (1, 1, 1)])
    assert np.allclose(angles, [90.0])


def test_full_reversal_reads_180():
    angles = turn_angles([(0, 0, 0), (5, 0, 0), (0, 0, 0)])
    assert np.allclose(angles, [180.0])


def test_duplicate_waypoints_do_not_break_angles():
    angles = turn_angles([(0, 0, 0), (1, 0, 0), (1, 0, 0), (1, 1, 0)])
    assert np.allclose(angles, [90.0])
    assert len(turn_angles([(2, 2, 2), (2, 2, 2)])) == 0


def test_square_wave_counts_four_sharp_turns():
    path = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (2, 1, 0), (2, 0, 0), (3, 0, 0)]
    angles = turn_angles(path)
    assert np.allclose(angles, [90.0] * 4)
    m = summarize(path)
    assert m.sharp_turns == 4 and m.max_turn_deg == pytest.approx(90.0)


def test_angles_are_invariant_under_rigid_motion():
    rng = np.random.default_rng(21)
    pts = rng.uniform(0, 50, (12, 3))
    theta = 1.1
    rot = np.array([[np.cos(theta), 0, np.sin(theta)],
                    [0, 1, 0],
                    [-np.sin(theta), 0, np.cos(theta)]])
    moved = pts @ rot.T + np.array([3.0, -8.0, 2.0])
    assert np.allclose(turn_angles(pts), turn_angles(moved), atol=1e-7)
    assert path_length(pts) == pytest.approx(path_length(moved), rel=1e-12)


def test_angles_clip_rounding_noise_to_the_valid_range():
    # nearly exactly parallel segments can push the dot product past 1
    path = [(0, 0, 0), (1 / 3, 1 / 7, 1 / 11), (2 / 3, 2 / 7, 2 / 11)]
    angles = turn_angles(path)
    assert np.all(np.isfinite(angles))
    assert np.all((angles >= 0) & (angles <= 180))


def test_summarize_without_a_smoothed_path():
    m = summarize([(0, 0, 0), (1, 0, 0), (1, 1, 0)])
    assert m == PathMetrics(length_m=2.0, waypoints=3, max_turn_deg=90.0, sharp_turns=1)
    assert m.smoothed_length_m is None
    assert m.max_turn_smoothed_deg is None
    assert m.sharp_turns_smoothed is None


def test_summarize_with_a_smoothed_companion():
    raw = [(0, 0, 0), (1, 0, 0), (1, 1, 0)]
    smoothed = [(0, 0, 0), (0.5, 0.1, 0), (1, 1, 0)]
    m = summarize(raw, smoothed)
    assert m.length_m == 2.0 and m.waypoints == 3
    assert m.smoothed_length_m == pytest.approx(path_length(smoothed))
    assert m.sharp_turns_smoothed == int((turn_angles(smoothed) > 45.0).sum())


def test_short_paths_have_no_angles():
    m = summarize([(0, 0, 0), (9, 9, 9)])
    assert m.max_turn_deg == 0.0 and m.sharp_turns == 0


def test_input_validation():
    with pytest.raises(ValueError):
        path_length(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        turn_angles([(1, 2), (3, 4)])
    for bad in (math.nan, math.inf, -math.inf):
        broken = [(bad, 0.0, 0.0), (1.0, 0.0, 0.0), (2.0, 1.0, 0.0)]
        with pytest.raises(ValueError, match="path must be .* finite waypoints"):
            summarize(broken)
        with pytest.raises(ValueError, match="smoothed must be .* finite waypoints"):
            summarize(broken[1:], broken)
    # numpy raises TypeError on a JSON object; the CLI reports a ValueError as a one-line error
    with pytest.raises(ValueError, match="path must be .* finite waypoints"):
        summarize({"x": 1})
    with pytest.raises(ValueError, match="path must be .* finite waypoints"):
        summarize([[1, 2, {"a": 1}]])
    with pytest.raises(ValueError, match="smoothed must be .* finite waypoints"):
        summarize([[0, 0, 0], [1, 1, 1]], {"a": 1})
