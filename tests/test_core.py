"""Search tree, steering and biased sampling tests."""
from __future__ import annotations

import numpy as np
import pytest

import skynav.core
from skynav import CityMap, PlanRequest
from skynav.core import BLOCK, SearchTree, sample_with_bias, samples, steer, uniforms


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

def _p(*xyz) -> np.ndarray:
    """A point as the tree loop passes it: a float64 array of shape (3,)."""
    return np.array(xyz, dtype=float)


def test_tree_root_and_parent_links():
    tree = SearchTree((1, 2, 3))
    assert len(tree) == 1
    assert np.array_equal(tree.extract_path(0), [[1, 2, 3]])
    i = tree.add(_p(4, 5, 6), 0)
    j = tree.add(_p(7, 8, 9), i)
    assert (i, j) == (1, 2)
    assert np.array_equal(tree.extract_path(j), [[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    with pytest.raises(IndexError):
        tree.extract_path(99)


def test_public_queries_validate_before_their_trusted_twins():
    city = CityMap((), (0, 0, 0), (10, 10, 10))
    for bad in ((1, 2), (1.0, np.nan, 0.0), (np.inf, 0.0, 0.0)):
        with pytest.raises(ValueError):
            SearchTree(bad)
        with pytest.raises(ValueError):
            city.segment_collides((1, 1, 1), bad)


def test_tree_single_node_nearest():
    tree = SearchTree((0, 0, 0))
    assert tree.nearest(_p(40, 2, 7)) == 0


def test_tree_nearest_two_nodes():
    tree = SearchTree((0, 0, 0))
    tree.add(_p(10, 0, 0), 0)
    assert tree.nearest(_p(4, 0, 0)) == 0
    assert tree.nearest(_p(6.001, 0, 0)) == 1


def test_tree_nearest_prefers_lowest_index_on_duplicates():
    tree = SearchTree((5, 5, 5))
    tree.add(_p(5, 5, 5), 0)
    tree.add(_p(5, 5, 5), 1)
    assert tree.nearest(_p(5.2, 5, 5)) == 0


def test_tree_nearest_matches_linear_scan_oracle(monkeypatch):
    monkeypatch.setattr(skynav.core, "FIRST_BLOCKS", 1)   # force a regrowth
    rng = np.random.default_rng(17)
    pts = [rng.uniform(0, 500, 3)]
    tree = SearchTree(pts[0])
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


@pytest.mark.exact
def test_prescaled_nearest_matches_the_unscaled_scores_bit_for_bit():
    # the tree scores with one matvec per block of stored rows (-2x, |x|^2)
    # and query (p, 1); the same scores unscaled are dot(x, p) * -2 + |x|^2,
    # and scaling by -2 is exact, so every score (not only the winner) must
    # agree to the bit, with duplicates present.  n covers tails of 1-3 and
    # 5-7 columns past a 4- or 16-column block, more than one tree block, and
    # a tree large enough that OpenBLAS would split one matvec over all of it
    # across threads (it does from 115,200 columns of 4 rows).  numpy takes a
    # one-row pts @ q as a dot product, which rounds apart from a matvec;
    # stacking pts twice keeps the oracle a matvec
    rng = np.random.default_rng(29)
    for n in (1, 2, 3, 5, 7, 15, 17, 1023, 1025, 8001, 131071):
        pts = rng.uniform(-100, 550, (n, 3))
        dup = rng.integers(0, n, n // 4)
        pts[dup] = pts[rng.integers(0, n, dup.size)]
        tree = SearchTree(pts[0])
        for i in range(1, n):
            tree.add(pts[i], int(rng.integers(0, i)))
        sqn = np.array([p @ p for p in pts])
        queries = np.vstack([rng.uniform(-100, 550, (40, 3)), pts[rng.integers(0, n, 10)]])
        for q in queries:
            want = (np.vstack([pts, pts]) @ q)[:n]
            want *= -2.0
            want += sqn
            got = tree.nearest(q)
            assert got == int(np.argmin(want))
            scores = tree._scores(q).ravel()   # the scores nearest ranked
            assert len(scores) % BLOCK == 0 and np.all(scores[n:] == np.inf)
            assert scores[:n].tobytes() == want.tobytes()


@pytest.mark.parametrize("n, first, second", [(7, 3, 6), (BLOCK + 9, BLOCK - 1, BLOCK)])
def test_tree_nearest_duplicates_across_the_block_tail_take_the_lowest_index(n, first, second):
    # 3 and 6 would lie on either side of BLAS's 4-column kernel block if the
    # tree scored only its 7 columns; BLOCK - 1 and BLOCK lie in two tree blocks
    rng = np.random.default_rng(41)
    pts = rng.uniform(0, 500, (n, 3))
    pts[second] = pts[first]
    tree = SearchTree(pts[0])
    for p in pts[1:]:
        tree.add(p, 0)
    for q in np.vstack([pts[first], pts[first] + rng.normal(0, 1e-3, (50, 3))]):
        assert tree.nearest(q) == first


@pytest.mark.parametrize("seed", [1, 2])
def test_tree_nearest_stays_exact_across_capacity_doubling(monkeypatch, seed):
    monkeypatch.setattr(skynav.core, "FIRST_BLOCKS", 1)
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0, 500, (2 * BLOCK + 50, 3))   # the tree doubles twice
    tree = SearchTree(pts[0])
    for n in range(1, len(pts)):
        q = rng.uniform(0, 500, 3)
        d = ((pts[:n] - q) ** 2).sum(axis=1)
        assert tree.nearest(q) == int(np.argmin(d))
        assert tree.nearest(pts[n - 1]) == n - 1
        tree.add(pts[n], 0)


def test_tree_positions_survive_capacity_growth(monkeypatch):
    monkeypatch.setattr(skynav.core, "FIRST_BLOCKS", 1)
    rng = np.random.default_rng(4)
    pts = rng.uniform(-50, 50, (2 * BLOCK + 50, 3))   # the tree doubles twice
    tree = SearchTree(pts[0])
    for p in pts[1:]:
        tree.add(p, 0)
    assert len(tree._rows) == 4
    for k in range(1, len(pts)):
        assert np.array_equal(tree.extract_path(k), pts[[0, k]])


def test_tree_extract_path_follows_parent_chain():
    tree = SearchTree((0, 0, 0))
    a = tree.add(_p(1, 0, 0), 0)
    b = tree.add(_p(2, 0, 0), a)
    tree.add(_p(9, 9, 9), 0)   # unrelated branch
    path = tree.extract_path(b)
    assert np.array_equal(path, [[0, 0, 0], [1, 0, 0], [2, 0, 0]])
    assert np.array_equal(tree.extract_path(0), [[0, 0, 0]])


def test_tree_extract_path_matches_parent_walk_oracle():
    rng = np.random.default_rng(23)
    pts = [rng.uniform(0, 10, 3)]
    tree = SearchTree(pts[0])
    parents = [-1]
    for _ in range(99):
        parent = int(rng.integers(0, len(tree)))
        pts.append(rng.uniform(0, 10, 3))
        tree.add(pts[-1], parent)
        parents.append(parent)
    leaf = len(tree) - 1
    chain = []
    i = leaf
    while i != -1:
        chain.append(i)
        i = parents[i]
    expected = np.array([pts[k] for k in reversed(chain)])
    assert np.array_equal(tree.extract_path(leaf), expected)


# ----------------------------------------------------------------------
# steering
# ----------------------------------------------------------------------

def test_steer_within_reach_returns_target():
    out = steer(_p(0, 0, 0), _p(3, 4, 0), 10.0)
    assert np.array_equal(out, [3, 4, 0])


def test_steer_truncates_to_step_along_the_line():
    out = steer(_p(0, 0, 0), _p(30, 40, 0), 10.0)
    assert np.allclose(out, [6, 8, 0], atol=1e-12)
    assert np.linalg.norm(out) == pytest.approx(10.0, rel=1e-12)


def test_steer_zero_length_returns_the_start():
    assert np.array_equal(steer(_p(2, 2, 2), _p(2, 2, 2), 5.0), [2, 2, 2])


def test_steer_returns_a_fresh_array():
    target = _p(1.0, 2.0, 3.0)
    out = steer(_p(0, 0, 0), target, 10.0)
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


@pytest.mark.parametrize("block", [5, 7, 1024])
@pytest.mark.parametrize("p_target", [0.0, 0.5, 0.9, 1.0])
def test_sample_stream_matches_sample_with_bias(p_target, block):
    # block 5 and 7 cut draws at block ends; 3,000 draws cross many of them
    lo = np.array([-100.0, 5.0, 3.0])
    hi = np.array([400.0, 505.0, 503.0])
    goal = np.array([470.0, 420.0, 50.0])
    for seed in range(3):
        draw = uniforms(np.random.default_rng(seed)).__next__
        want = [sample_with_bias(goal, p_target, lo, hi, draw) for _ in range(3000)]
        stream = samples(goal, p_target, lo, hi, np.random.default_rng(seed), block)
        got = [next(stream) for _ in range(3000)]
        assert np.array(got).tobytes() == np.array(want).tobytes()
    # every goal draw is one read-only array, and the caller's goal stays its own
    stream = samples(goal, 1.0, lo, hi, np.random.default_rng(0), block)
    out = next(stream)
    assert next(stream) is out and out is not goal
    with pytest.raises(ValueError):
        out[0] = 42.0
    goal[0] = 1.0
    assert out[0] == 470.0


def test_sample_bias_returned_goal_is_a_copy():
    draw = uniforms(np.random.default_rng(2)).__next__
    goal = np.array([1.0, 1.0, 1.0])
    out = sample_with_bias(goal, 1.0, (0, 0, 0), (10, 10, 10), draw)
    out[0] = 42.0
    assert goal[0] == 1.0
