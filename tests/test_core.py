"""Search tree, steering and biased sampling tests."""
from __future__ import annotations

import numpy as np
import pytest

from skynav import CityMap, PlanRequest, SearchTree, sample_with_bias, steer
from skynav.core import uniforms


# ----------------------------------------------------------------------
# requests
# ----------------------------------------------------------------------

def test_plan_request_coerces_and_validates():
    req = PlanRequest((1, 2, 3), (4, 5, 6))
    assert isinstance(req.start, np.ndarray) and req.start.dtype == np.float64
    assert req.goal_threshold == 5.0 and req.max_failed_attempts == 20000
    with pytest.raises(ValueError):
        PlanRequest((0, 0, 0), (1, 1, 1), goal_threshold=0.0)
    with pytest.raises(ValueError):
        PlanRequest((0, 0, 0), (1, 1, 1), max_failed_attempts=0)
    with pytest.raises(ValueError):
        PlanRequest((0, 0), (1, 1, 1))


# ----------------------------------------------------------------------
# search tree
# ----------------------------------------------------------------------

def test_tree_root_and_parent_links():
    tree = SearchTree((1, 2, 3))
    assert len(tree) == 1
    assert tree.parent(0) == -1
    assert np.array_equal(tree.positions[0], [1, 2, 3])
    i = tree.add((4, 5, 6), 0)
    j = tree.add((7, 8, 9), i)
    assert (i, j) == (1, 2)
    assert tree.parent(j) == i and tree.parent(i) == 0
    with pytest.raises(ValueError):
        tree.add((0, 0, 0), 99)
    with pytest.raises(IndexError):
        tree.extract_path(99)


def test_public_queries_validate_before_their_trusted_twins():
    tree = SearchTree((0, 0, 0))
    city = CityMap((), (0, 0, 0), (10, 10, 10))
    for bad in ((1, 2), (1.0, np.nan, 0.0), (np.inf, 0.0, 0.0)):
        with pytest.raises(ValueError):
            tree.add(bad, 0)
        with pytest.raises(ValueError):
            tree.nearest(bad)
        with pytest.raises(ValueError):
            steer((0, 0, 0), bad, 1.0)
        with pytest.raises(ValueError):
            city.segment_collides((1, 1, 1), bad)
    assert len(tree) == 1


def test_tree_single_node_nearest():
    tree = SearchTree((0, 0, 0))
    assert tree.nearest((40, 2, 7)) == 0


def test_tree_nearest_two_nodes():
    tree = SearchTree((0, 0, 0))
    tree.add((10, 0, 0), 0)
    assert tree.nearest((4, 0, 0)) == 0
    assert tree.nearest((6.001, 0, 0)) == 1


def test_tree_nearest_prefers_lowest_index_on_duplicates():
    tree = SearchTree((5, 5, 5))
    tree.add((5, 5, 5), 0)
    tree.add((5, 5, 5), 1)
    assert tree.nearest((5.2, 5, 5)) == 0


def test_tree_nearest_matches_linear_scan_oracle():
    rng = np.random.default_rng(17)
    tree = SearchTree(rng.uniform(0, 500, 3), capacity=1)   # force several regrowths
    pts = [tree.positions[0].copy()]
    for _ in range(499):
        p = rng.uniform(0, 500, 3)
        tree.add(p, rng.integers(0, len(tree)))
        pts.append(p)
    for _ in range(100):
        q = rng.uniform(0, 500, 3)
        best = min(
            range(len(pts)),
            key=lambda i: ((pts[i][0] - q[0]) ** 2 + (pts[i][1] - q[1]) ** 2
                           + (pts[i][2] - q[2]) ** 2, i),
        )
        assert tree.nearest(q) == best


def test_prescaled_nearest_matches_the_unscaled_scores_bit_for_bit():
    # the tree scores with stored -2x; the same scores unscaled are
    # dot(x, p) * -2 + |x|^2, and scaling by -2 is exact, so every score
    # (not only the winner) must agree to the bit, with duplicates present
    rng = np.random.default_rng(29)
    for n in (1, 5, 7, 1000, 8001):
        pts = rng.uniform(-100, 550, (n, 3))
        dup = rng.integers(0, n, n // 4)
        pts[dup] = pts[rng.integers(0, n, dup.size)]
        tree = SearchTree(pts[0], capacity=2)
        for i in range(1, n):
            tree.add(pts[i], int(rng.integers(0, i)))
        sqn = np.array([p @ p for p in pts])
        queries = np.vstack([rng.uniform(-100, 550, (40, 3)), pts[rng.integers(0, n, 10)]])
        for q in queries:
            want = pts @ q
            want *= -2.0
            want += sqn
            got = tree.nearest(q)
            assert got == int(np.argmin(want))
            assert tree._scratch[:n].tobytes() == want.tobytes()   # the scores nearest ranked


def test_tree_positions_survive_capacity_growth():
    rng = np.random.default_rng(4)
    pts = rng.uniform(-50, 50, (200, 3))
    tree = SearchTree(pts[0], capacity=2)
    for p in pts[1:]:
        tree.add(p, 0)
    assert np.array_equal(tree.positions, pts)


def test_tree_extract_path_follows_parent_chain():
    tree = SearchTree((0, 0, 0))
    a = tree.add((1, 0, 0), 0)
    b = tree.add((2, 0, 0), a)
    tree.add((9, 9, 9), 0)   # unrelated branch
    path = tree.extract_path(b)
    assert np.array_equal(path, [[0, 0, 0], [1, 0, 0], [2, 0, 0]])
    assert np.array_equal(tree.extract_path(0), [[0, 0, 0]])


def test_tree_extract_path_matches_parent_walk_oracle():
    rng = np.random.default_rng(23)
    tree = SearchTree(rng.uniform(0, 10, 3))
    parents = [-1]
    for _ in range(99):
        parent = int(rng.integers(0, len(tree)))
        tree.add(rng.uniform(0, 10, 3), parent)
        parents.append(parent)
    leaf = len(tree) - 1
    chain = []
    i = leaf
    while i != -1:
        chain.append(i)
        i = parents[i]
    expected = np.array([tree.positions[k].copy() for k in reversed(chain)])
    assert np.array_equal(tree.extract_path(leaf), expected)


# ----------------------------------------------------------------------
# steering
# ----------------------------------------------------------------------

def test_steer_within_reach_returns_target():
    out = steer((0, 0, 0), (3, 4, 0), 10.0)
    assert np.array_equal(out, [3, 4, 0])


def test_steer_truncates_to_step_along_the_line():
    out = steer((0, 0, 0), (30, 40, 0), 10.0)
    assert np.allclose(out, [6, 8, 0], atol=1e-12)
    assert np.linalg.norm(out) == pytest.approx(10.0, rel=1e-12)


def test_steer_zero_length_and_validation():
    assert np.array_equal(steer((2, 2, 2), (2, 2, 2), 5.0), [2, 2, 2])
    with pytest.raises(ValueError):
        steer((0, 0, 0), (1, 1, 1), 0.0)


def test_steer_returns_a_fresh_array():
    target = np.array([1.0, 2.0, 3.0])
    out = steer((0, 0, 0), target, 10.0)
    out[0] = 99.0
    assert target[0] == 1.0


def test_steer_never_moves_farther_than_step():
    rng = np.random.default_rng(8)
    for _ in range(300):
        a = rng.uniform(-100, 100, 3)
        b = rng.uniform(-100, 100, 3)
        step = float(rng.uniform(0.1, 50))
        out = steer(a, b, step)
        assert np.linalg.norm(out - a) <= step + 1e-9
        # result stays on the segment toward the target
        d_total = np.linalg.norm(b - a)
        assert np.linalg.norm(out - b) <= d_total + 1e-9


# ----------------------------------------------------------------------
# goal-biased sampling
# ----------------------------------------------------------------------

def test_sample_bias_degenerate_probabilities():
    draw = uniforms(np.random.default_rng(1)).__next__
    goal = np.array([7.0, 8.0, 9.0])
    for _ in range(200):
        assert np.array_equal(sample_with_bias(goal, 1.0, (0, 0, 0), (10, 10, 10), draw), goal)
    draw = uniforms(np.random.default_rng(1)).__next__
    for _ in range(200):
        s = sample_with_bias(goal, 0.0, (0, 0, 0), (10, 10, 10), draw)
        assert not np.array_equal(s, goal)
        assert np.all(s >= 0) and np.all(s <= 10)


def test_sample_bias_fraction_near_target_probability():
    draw = uniforms(np.random.default_rng(0)).__next__
    goal = np.array([1.0, 2.0, 3.0])
    draws = 100000
    hits = sum(
        bool(np.array_equal(sample_with_bias(goal, 0.9, (0, 0, 0), (10, 10, 10), draw), goal))
        for _ in range(draws)
    )
    assert 0.885 <= hits / draws <= 0.915


def test_sample_bias_is_deterministic_per_seed():
    goal = (5.0, 5.0, 5.0)
    a = [sample_with_bias(goal, 0.5, (0, 0, 0), (10, 10, 10),
                          uniforms(np.random.default_rng(33)).__next__) for _ in range(1)]
    b = [sample_with_bias(goal, 0.5, (0, 0, 0), (10, 10, 10),
                          uniforms(np.random.default_rng(33)).__next__) for _ in range(1)]
    assert np.array_equal(a[0], b[0])


def test_block_draw_sampling_matches_the_generator_sequence():
    # rng.random() for the bias, then rng.uniform(lo, hi) on the uniform
    # branch: the sequence the planners drew before block draws
    lo = np.array([-100.0, 5.0, 3.0])
    hi = np.array([400.0, 505.0, 503.0])
    goal = np.array([470.0, 420.0, 50.0])
    for p_target in (0.0, 0.5, 0.9):
        for seed in range(200):
            rng = np.random.default_rng(seed)
            want = [goal.copy() if rng.random() < p_target else rng.uniform(lo, hi)
                    for _ in range(500)]
            draw = uniforms(np.random.default_rng(seed)).__next__
            got = [sample_with_bias(goal, p_target, lo, hi, draw) for _ in range(500)]
            assert np.array(got).tobytes() == np.array(want).tobytes()


def test_sample_bias_returned_goal_is_a_copy():
    draw = uniforms(np.random.default_rng(2)).__next__
    goal = np.array([1.0, 1.0, 1.0])
    out = sample_with_bias(goal, 1.0, (0, 0, 0), (10, 10, 10), draw)
    out[0] = 42.0
    assert goal[0] == 1.0
