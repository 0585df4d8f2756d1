"""Search tree, steering and biased sampling tests."""
from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

import skynav.core
from skynav import CityMap, PlanRequest
from skynav.core import (BLOCK, FILLER, SLAB_FROM, SLABS, SearchTree, sample_with_bias, samples,
                         steer, uniforms)


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

def _p(*xyz) -> tuple:
    """A point as the tree loop passes it: an (x, y, z) tuple of floats."""
    return tuple(float(v) for v in xyz)


def _scan_rows(tree) -> np.ndarray:
    """The block-scan score array of tree, rebuilt from its positions with add's arithmetic.

    Node i is column i % BLOCK of block i // BLOCK, holding (-2x, -2y, -2z,
    |x|^2) with |x|^2 the Python sum x*x + y*y + z*z, as add takes it; unused
    columns hold FILLER.  Scored by _scan_scores, it gives the scores the
    unslabbed tree ranks, and the scores every slab reads for its nodes.
    """
    n = len(tree)
    pos = tree._pos[:n]
    blocks = -(-n // BLOCK)
    flat = np.empty((4, blocks * BLOCK))
    flat[:] = FILLER
    flat[:3, :n] = -2.0 * pos.T
    flat[3, :n] = [x * x + y * y + z * z for x, y, z in pos.tolist()]
    return np.ascontiguousarray(flat.reshape(4, blocks, BLOCK).transpose(1, 0, 2))


def _columns(rows: np.ndarray, n: int) -> np.ndarray:
    """The first n columns of a (blocks, 4, BLOCK) score array, as one (4, n) array."""
    return rows.transpose(1, 0, 2).reshape(4, -1)[:, :n]


def _stored_columns(tree) -> np.ndarray:
    """The score columns tree holds, node by node: from _rows, or once slabbed from the slabs."""
    n = len(tree)
    if tree._rows is not None:
        return _columns(tree._rows, n)
    cols = np.full((4, n), np.nan)
    for stack, ids in tree._slabs:
        cols[:, ids] = _columns(stack, len(ids))
    return cols


def _scan_scores(rows: np.ndarray, q) -> np.ndarray:
    """Scores of a _scan_rows array against q, shape (blocks, BLOCK): one matvec per block."""
    return np.append(np.asarray(q, dtype=float), 1.0) @ rows


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
    # with |x|^2 the Python sum of squares the tree stores,
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
        sqn = np.array([x * x + y * y + z * z for x, y, z in pts.tolist()])
        queries = np.vstack([rng.uniform(-100, 550, (40, 3)), pts[rng.integers(0, n, 10)]])
        rows = _scan_rows(tree)
        assert _stored_columns(tree).tobytes() == _columns(rows, n).tobytes()
        for q in queries:
            want = (np.vstack([pts, pts]) @ q)[:n]
            want *= -2.0
            want += sqn
            got = tree.nearest(q)
            assert got == int(np.argmin(want))
            scores = _scan_scores(rows, q).ravel()   # the scores nearest ranks
            assert len(scores) % BLOCK == 0 and np.all(scores[n:] == np.inf)
            assert scores[:n].tobytes() == want.tobytes()


@pytest.mark.exact
def test_slab_nearest_returns_the_block_scan_node():
    # from SLAB_FROM nodes on, nearest scores only the x-slabs that can hold the
    # answer, and must still return argmin of the scan's block scores, ties to
    # the lowest index.  Integer coordinates over x in [0, 500] put the slab
    # edges at 20, 40, ..., 480 exactly, with many nodes, duplicates and
    # queries on them
    rng = np.random.default_rng(53)
    pts = rng.integers(0, 501, (SLAB_FROM + 600, 3)).astype(float)
    dup = rng.integers(0, len(pts), 800)
    pts[dup] = pts[rng.integers(0, len(pts), dup.size)]
    pts[:2, 0] = 0.0, 500.0
    tree = SearchTree(pts[0])

    def check(queries):
        rows = _scan_rows(tree)
        assert _stored_columns(tree).tobytes() == _columns(rows, len(tree)).tobytes()
        for q in queries:
            assert tree.nearest(q) == int(_scan_scores(rows, q).argmin())

    def queries():
        edge_x = 20.0 * rng.integers(0, 26, 100)
        return np.vstack([rng.uniform(-50, 550, (200, 3)),   # some outside the x span
                          np.column_stack([edge_x, rng.uniform(0, 500, (100, 2))]),
                          tree._pos[rng.integers(0, len(tree), 100)],   # on nodes
                          [(-1e4, 250, 250), (1e4, 0, 0), (500, 500, 500)]])

    for p in pts[1:SLAB_FROM]:   # the tree crosses the threshold
        tree.add(p, 0)
    assert tree._edges == [20.0 * k for k in range(1, SLABS)]
    assert tree._rows is None   # the slabs hold the only copy of the score columns
    check(queries())

    # later nodes join their slabs one by one; slab 5 ([100, 120)) doubles its stack
    full = len(tree._slabs[5][0])
    for p in np.vstack([pts[SLAB_FROM:], rng.uniform((100, 0, 0), (120, 500, 500), (300, 3))]):
        tree.add(p, 0)
        if len(tree) % 100 == 0:
            check(queries()[::10])
    assert len(tree._slabs[5][0]) == 2 * full
    check(queries())

    # equal scores across an edge, the lower index in the slab visited second:
    # q at x = e lies in the slab right of e, q at e - 0.5 in the one left of it
    far = []
    for k, e in enumerate(tree._edges):
        y, z = 700.0 + 4 * k, 650.0
        first, second = ((e - 1, y, z), (e + 1, y, z)) if k % 2 else ((e + 0.5, y, z), (e - 1.5, y, z))
        low = tree.add(_p(*first), 0)
        tree.add(_p(*second), 0)
        q = _p(e if k % 2 else e - 0.5, y, z)
        assert tree.nearest(q) == low
        far.append(q)
    # a node exactly on an edge and one just left of it, at distances that
    # differ by less than the scores round: q's own slab holds the one on the
    # edge, so only the margin keeps the other from being skipped
    for k in range(120):
        e = tree._edges[k % (SLABS - 1)]
        y, z = rng.uniform(0, 500), 900.0 + 4 * k
        tree.add(_p(np.nextafter(e, -np.inf), y, z), 0)
        tree.add(_p(e, y, z), 0)
        far.append(_p(e + rng.uniform(0.2, 1.0), y, z))
    check(far)


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
    # the loop may pass a node read as a list; the point it gets back is a
    # new tuple, so no write through it reaches the target
    target = [1.0, 2.0, 3.0]
    out = steer([0.0, 0.0, 0.0], target, 10.0)
    assert type(out) is tuple and out is not target
    with pytest.raises(TypeError):
        out[0] = 99.0
    assert target[0] == 1.0


def test_steer_never_moves_farther_than_step():
    rng = np.random.default_rng(8)
    for _ in range(300):
        a = rng.uniform(-100, 100, 3)
        b = rng.uniform(-100, 100, 3)
        step = float(rng.uniform(0.1, 50))
        out = np.array(steer(a.tolist(), b.tolist(), step))
        assert np.linalg.norm(out - a) <= step + 1e-9
        # result stays on the segment toward the target
        d_total = np.linalg.norm(b - a)
        assert np.linalg.norm(out - b) <= d_total + 1e-9


@pytest.mark.exact
def test_tree_loop_distances_are_python_float_arithmetic():
    # add stores a node's |x|^2 as x*x + y*y + z*z and steer's distance is
    # math.hypot, in Python floats, whatever BLAS kernel numpy loaded; a
    # BLAS dot rounds about a fifth of these triples apart.  The tree crosses
    # SLAB_FROM, so both of add's branches store columns
    rng = np.random.default_rng(61)
    pts = [tuple(p) for p in rng.uniform(-500, 500, (SLAB_FROM + 500, 3)).tolist()]
    tree = SearchTree(pts[0])
    for p in pts[1:]:
        tree.add(p, 0)
    assert tree._rows is None
    want = np.array([x * x + y * y + z * z for x, y, z in pts])
    assert _stored_columns(tree)[3].tobytes() == want.tobytes()

    def reference(a, b, step):
        v = [q - p for p, q in zip(a, b)]
        dist = math.hypot(*v)
        if dist <= step:
            return tuple(b)
        return tuple(p + step / dist * d for p, d in zip(a, v))

    steps = rng.uniform(0.1, 1000, len(pts) - 1).tolist()
    reached = 0
    for a, b, step in zip(pts, pts[1:], steps):
        out = steer(a, b, step)
        reached += out == b
        assert np.array(out).tobytes() == np.array(reference(a, b, step)).tobytes()
    assert 0 < reached < len(steps)   # both branches ran


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


@pytest.mark.exact
@pytest.mark.parametrize("block", [5, 7, 1024])
@pytest.mark.parametrize("p_target", [0.0, 0.5, 0.9, 1.0])
def test_sample_stream_matches_sample_with_bias(p_target, block, monkeypatch):
    # blocks of 1 to 7 cut draws at block ends; 3,000 draws cross many of them,
    # and the stream's first blocks grow from FIRST_DRAWS up to DRAW_BLOCK
    monkeypatch.setattr(skynav.core, "DRAW_BLOCK", block)
    lo = np.array([-100.0, 5.0, 3.0])
    hi = np.array([400.0, 505.0, 503.0])
    goal = np.array([470.0, 420.0, 50.0])
    for seed, first in itertools.product(range(3), (1, 3, 64)):
        monkeypatch.setattr(skynav.core, "FIRST_DRAWS", first)
        draw = uniforms(np.random.default_rng(seed)).__next__
        want = [sample_with_bias(goal, p_target, lo, hi, draw) for _ in range(3000)]
        stream = samples(p_target, lo, hi, np.random.default_rng(seed))
        got = [next(stream) for _ in range(3000)]
        # every goal draw is None, and no yield is the caller's goal
        assert all((s is None) == (w.tobytes() == goal.tobytes()) and s is not goal
                   for s, w in zip(got, want))
        got = [goal if s is None else s for s in got]
        assert np.array(got).tobytes() == np.array(want).tobytes()


def test_sample_bias_returned_goal_is_a_copy():
    draw = uniforms(np.random.default_rng(2)).__next__
    goal = np.array([1.0, 1.0, 1.0])
    out = sample_with_bias(goal, 1.0, (0, 0, 0), (10, 10, 10), draw)
    out[0] = 42.0
    assert goal[0] == 1.0
