"""Map generation and collision geometry tests."""
from __future__ import annotations

import itertools
import math
import sys
import time
import tracemalloc

import numpy as np
import pytest

from skynav import (Building, CityMap, DrrtParams, GenParams, MapGenerationError, build_city,
                    default_scenario, generate_city, load_map, save_map)
from skynav import env
from skynav.env import CELL_REACH, CELL_REFS, CELLS_MAX, as_point


def _box(lo, hi):
    return Building(tuple(lo), tuple(hi))


def _unit_box_map():
    return CityMap([_box((0, 0, 0), (1, 1, 1))], (0, 0, 0), (10, 10, 10))


# ----------------------------------------------------------------------
# point coercion
# ----------------------------------------------------------------------

def test_as_point_accepts_tuples_lists_arrays():
    for raw in ((1, 2, 3), [1.0, 2.0, 3.0], np.array([1, 2, 3])):
        p = as_point(raw)
        assert p.shape == (3,) and p.dtype == np.float64
        assert np.array_equal(p, [1.0, 2.0, 3.0])


def test_as_point_rejects_bad_shapes_and_nonfinite():
    for raw in ((1, 2), (1, 2, 3, 4), [[1, 2, 3]], (1.0, np.nan, 0.0), (np.inf, 0.0, 0.0)):
        with pytest.raises(ValueError):
            as_point(raw)


def test_building_validates_corner_order():
    with pytest.raises(ValueError):
        _box((0, 0, 0), (0, 1, 1))
    with pytest.raises(ValueError):
        _box((5, 5, 5), (4, 6, 6))
    with pytest.raises(ValueError, match="beyond the map bounds"):
        CityMap([_box((8, 8, 0), (12, 9, 1))], (0, 0, 0), (10, 10, 10))
    with pytest.raises(ValueError, match="finite extent"):
        CityMap((), (-1e308, 0, 0), (1e308, 10, 10))


# ----------------------------------------------------------------------
# point queries
# ----------------------------------------------------------------------

def test_point_free_empty_map_and_bounds():
    city = CityMap((), (0, 0, 0), (500, 500, 500))
    assert city.point_free((250, 250, 250))
    assert city.point_free((0, 0, 0))          # boundary of the map itself is flyable
    assert city.point_free((500, 500, 500))
    assert not city.point_free((-1, 0, 0))
    assert not city.point_free((0, 0, 500.001))


def test_point_free_treats_building_surface_as_collision():
    city = _unit_box_map()
    assert not city.point_free((0.5, 0.5, 0.5))    # interior
    assert not city.point_free((1.0, 0.5, 0.5))    # face center
    assert not city.point_free((1.0, 1.0, 1.0))    # corner
    assert city.point_free((1.0 + 1e-9, 0.5, 0.5))
    assert city.point_free((5, 5, 5))


def test_clearance_known_values():
    city = _unit_box_map()
    assert city.clearance((3, 0.5, 0.5)) == pytest.approx(2.0, abs=0)
    assert city.clearance((2, 2, 2)) == pytest.approx(math.sqrt(3), rel=1e-12)
    assert city.clearance((0.5, 0.5, 0.5)) == 0.0
    assert city.clearance((1.0, 0.5, 0.5)) == 0.0


def test_clearance_empty_map_is_infinite_and_outside_raises():
    empty = CityMap((), (0, 0, 0), (10, 10, 10))
    assert math.isinf(empty.clearance((5, 5, 5)))
    with pytest.raises(ValueError):
        _unit_box_map().clearance((11, 0, 0))


def test_point_errors_print_plain_floats():
    # numpy 2 prints a float64 scalar as np.float64(...); the messages give floats
    with pytest.raises(ValueError) as exc:
        _unit_box_map().clearance(np.array([11.0, 0.0, 0.0]))
    assert str(exc.value) == "clearance queried outside map bounds: (11.0, 0.0, 0.0)"
    with pytest.raises(ValueError) as exc:
        generate_city(0, GenParams(keep_clear=((-5, 0, 0),)))
    assert str(exc.value) == "keep-clear point outside bounds: (-5.0, 0.0, 0.0)"
    with pytest.raises(ValueError) as exc:
        Building((np.float64(1), 0, 0), (np.float64(1), 1, 1))
    assert str(exc.value) == "degenerate building: (1.0, 0.0, 0.0) .. (1.0, 1.0, 1.0)"


def test_clearance_matches_nearest_among_buildings():
    rng = np.random.default_rng(7)
    boxes = []
    for _ in range(6):
        lo = rng.uniform(0, 80, 3)
        hi = lo + rng.uniform(1, 15, 3)
        boxes.append(_box(lo, hi))
    city = CityMap(boxes, (0, 0, 0), (100, 100, 100))
    for _ in range(200):
        p = rng.uniform(0, 100, 3)
        per_box = []
        for b in boxes:
            d = [max(lo - x, x - hi, 0.0) for x, lo, hi in zip(p, b.min_corner, b.max_corner)]
            per_box.append(math.sqrt(sum(v * v for v in d)))
        assert city.clearance(p) == pytest.approx(min(per_box), abs=1e-12)


# ----------------------------------------------------------------------
# segment queries
# ----------------------------------------------------------------------

def test_segment_out_of_bounds_collides():
    empty = CityMap((), (0, 0, 0), (10, 10, 10))
    assert empty.segment_collides((5, 5, 5), (5, 5, 11))
    assert empty.segment_collides((-1, 5, 5), (5, 5, 5))
    assert not empty.segment_collides((0, 0, 0), (10, 10, 10))


def test_segment_through_face_and_grazing_count_as_hits():
    city = CityMap([_box((2, 2, 2), (4, 4, 4))], (0, 0, 0), (10, 10, 10))
    assert city.segment_collides((0, 3, 3), (6, 3, 3))        # straight through
    assert city.segment_collides((3, 3, 6), (3, 3, 3))        # ends inside
    assert city.segment_collides((4.0, 3, 6), (4.0, 3, 0))    # slides along the x=4 face
    assert city.segment_collides((0, 0, 0), (2, 2, 2))        # touches a corner only
    assert not city.segment_collides((5, 3, 3), (9, 3, 3))
    assert not city.segment_collides((4.001, 3, 6), (4.001, 3, 0))


def test_segment_axis_parallel_cases():
    city = CityMap([_box((2, 2, 2), (4, 4, 4))], (0, 0, 0), (10, 10, 10))
    # parallel to x, inside the y/z slabs, crossing in x
    assert city.segment_collides((0, 3, 3), (9, 3, 3))
    # parallel to x, less than one unit inside the y and z slabs: the slab
    # distances on the parallel axes must not clip the crossing parameter
    assert city.segment_collides((0, 3.9, 3.9), (9, 3.9, 3.9))
    assert city.segment_collides((0, 2.1, 2.1), (9, 2.1, 2.1))
    # parallel to x but outside the y slab entirely
    assert not city.segment_collides((0, 6, 3), (9, 6, 3))
    # degenerate zero-length segment inside / outside
    assert city.segment_collides((3, 3, 3), (3, 3, 3))
    assert not city.segment_collides((8, 8, 8), (8, 8, 8))


def _segment_hits_box_oracle(a, b, lo, hi, steps=4000):
    """Dense sampling: any sampled point inside the closed box counts."""
    ts = np.linspace(0.0, 1.0, steps)
    pts = a[None, :] + ts[:, None] * (b - a)[None, :]
    inside = np.all((pts >= lo) & (pts <= hi), axis=1)
    return bool(inside.any())


def test_segment_collides_agrees_with_dense_sampling_oracle():
    rng = np.random.default_rng(3)
    boxes = []
    for _ in range(5):
        lo = rng.uniform(5, 60, 3)
        hi = lo + rng.uniform(4, 20, 3)
        boxes.append((lo, hi))
    city = CityMap([_box(lo, hi) for lo, hi in boxes], (0, 0, 0), (100, 100, 100))
    checked = 0
    for _ in range(400):
        a = rng.uniform(0, 100, 3)
        b = rng.uniform(0, 100, 3)
        # distance from the segment to each box face decides tangency; skip
        # near-grazing segments where a sampling oracle is unreliable
        oracle_hits = [_segment_hits_box_oracle(a, b, lo, hi) for lo, hi in boxes]
        grazing = False
        for (lo, hi), hit in zip(boxes, oracle_hits):
            inflated = _segment_hits_box_oracle(a, b, lo - 0.05, hi + 0.05)
            if inflated != hit:
                grazing = True
        if grazing:
            continue
        checked += 1
        assert city.segment_collides(a, b) == any(oracle_hits)
    assert checked > 300


def _random_boxes(rng, count):
    boxes = []
    for _ in range(count):
        lo = rng.uniform(5, 60, 3)
        hi = lo + rng.uniform(4, 20, 3)
        boxes.append((lo, hi))
    return boxes


def _mixed_segments(rng, n, top):
    """Random segments mixed with the cases a batch must also get right.

    Endpoints range a little past the 100 m bounds, so some segments leave
    the map; a quarter each are axis-parallel (like every detour move),
    zero-length, or flown above the top roof height.
    """
    a = rng.uniform(-3, 103, (n, 3))
    b = rng.uniform(-3, 103, (n, 3))
    kind = np.arange(n) % 4
    par = kind == 1
    axis = rng.integers(0, 3, n)
    b[par] = a[par]
    b[par, axis[par]] += rng.uniform(-30, 30, par.sum())
    b[kind == 2] = a[kind == 2]
    above = kind == 3
    a[above, 2] = rng.uniform(top + 1e-9, 100, above.sum())
    b[above, 2] = rng.uniform(top + 1e-9, 100, above.sum())
    return a, b


def _batch_agrees_with_the_oracles(city, boxes, a, b):
    """segments_collide's flags for a-b, checked against both oracles; returns (flags, checked).

    Every flag must equal the single-segment query, a segment leaving the
    bounds must be flagged, and each segment that is not near-grazing must be
    flagged iff dense sampling finds it in a box; checked counts those.
    """
    flags = city.segments_collide(a, b)
    assert flags.shape == (len(a),) and flags.dtype == bool
    assert flags.tolist() == [city.segment_collides(p, q) for p, q in zip(a, b)]
    checked = 0
    for p, q, flag in zip(a, b, flags):
        if not (city.in_bounds(p) and city.in_bounds(q)):
            assert flag
            continue
        oracle_hits = [_segment_hits_box_oracle(p, q, lo, hi) for lo, hi in boxes]
        if any(_segment_hits_box_oracle(p, q, lo - 0.05, hi + 0.05) != hit
               for (lo, hi), hit in zip(boxes, oracle_hits)):
            continue   # near-grazing: the sampling oracle is unreliable
        checked += 1
        assert flag == any(oracle_hits)
    return flags, checked


def _boxes_meeting(boxes, a, b):
    """How many boxes meet the bounding box of the whole batch a-b."""
    lo, hi = np.minimum(a, b).min(axis=0), np.maximum(a, b).max(axis=0)
    return sum(bool(np.all(blo <= hi) and np.all(lo <= bhi)) for blo, bhi in boxes)


@pytest.mark.exact
@pytest.mark.parametrize("box_count", (0, 1, 5, 40))
def test_segments_collide_agrees_with_the_single_segment_query_and_dense_sampling(box_count):
    """Random mixed batches, and batches for each way the broad phase can prune.

    box_count 0 is the empty map.  The other maps also get a batch whose
    bounding box meets no building, one whose box meets exactly one (straddling
    the tallest roof), and batches of segments that end exactly on a face of
    one of the first five buildings: closed boxes, so each is a hit, though too
    close to grazing for dense sampling to say.
    """
    rng = np.random.default_rng(box_count)
    boxes = _random_boxes(rng, box_count)
    city = CityMap([_box(lo, hi) for lo, hi in boxes], (0, 0, 0), (100, 100, 100))
    top = max((hi[2] for _, hi in boxes), default=0.0)
    a, b = _mixed_segments(rng, 400, top)
    flags, checked = _batch_agrees_with_the_oracles(city, boxes, a, b)
    assert checked > 200
    assert not flags[(np.arange(400) % 4 == 3) & ((a >= 0) & (a <= 100) & (b >= 0)
                                                    & (b <= 100)).all(axis=1)].any()
    if not boxes:
        return
    # boxes end below 80 m on every axis
    a, b = rng.uniform(85, 100, (2, 30, 3))
    assert _boxes_meeting(boxes, a, b) == 0
    flags, checked = _batch_agrees_with_the_oracles(city, boxes, a, b)
    assert checked == 30 and not flags.any()
    lo, hi = boxes[int(np.argmax([hi[2] for _, hi in boxes]))]
    roof = np.array([(lo[0] + hi[0]) / 2, (lo[1] + hi[1]) / 2, hi[2]])
    a, b = roof + rng.uniform(-1, 1, (2, 40, 3))
    assert _boxes_meeting(boxes, a, b) == 1
    flags, checked = _batch_agrees_with_the_oracles(city, boxes, a, b)
    assert checked > 20 and flags.any() and not flags.all()
    for lo, hi in boxes[:5]:
        for axis, side, out in ((0, lo, -4.0), (1, hi, 4.0), (2, hi, 3.0)):
            end = rng.uniform(lo, hi)
            end[axis] = side[axis]
            start = end.copy()
            start[axis] += out
            # one axis-parallel approach, like a detour move, and one oblique,
            # as a batch of their own, whose box meets the building only on the face
            starts = [start, start + np.where(np.arange(3) == axis, 0.0, rng.uniform(-3, 3, 3))]
            flags, _ = _batch_agrees_with_the_oracles(city, boxes, np.array(starts),
                                                      np.array([end, end]))
            assert flags.all()


def test_segments_collide_handles_empty_batches_and_rejects_bad_input():
    city = _unit_box_map()
    assert city.segments_collide(np.empty((0, 3)), np.empty((0, 3))).shape == (0,)
    good = np.array([[5.0, 5.0, 5.0]])
    for a, b in ((good, np.array([[5.0, np.nan, 5.0]])), (np.array([[np.inf, 5, 5]]), good),
                 (good, np.zeros((2, 3))), (good[0], good[0]), (np.zeros((1, 2)), np.zeros((1, 2)))):
        with pytest.raises(ValueError):
            city.segments_collide(a, b)


def test_segment_symmetry():
    city = _unit_box_map()
    rng = np.random.default_rng(11)
    for _ in range(200):
        a = rng.uniform(0, 10, 3)
        b = rng.uniform(0, 10, 3)
        assert city.segment_collides(a, b) == city.segment_collides(b, a)


def test_segment_above_all_roofs_is_free():
    city = CityMap([_box((10, 10, 0), (40, 40, 30))], (0, 0, 0), (100, 100, 100))
    assert not city.segment_collides((0, 0, 31), (100, 100, 30.5))
    # descending into the footprint still registers
    assert city.segment_collides((0, 0, 31), (30, 30, 29))
    # starting on the roof, or climbing out through it, touches the building
    assert city.segment_collides((20, 20, 30), (20, 20, 35))
    assert city.segment_collides((15, 15, 29.5), (35, 35, 31))
    assert city.segments_collide([(20, 20, 30), (15, 15, 29.5), (0, 0, 31)],
                                 [(20, 20, 35), (35, 35, 31), (100, 100, 30.5)]).tolist() == [
        True, True, False]


# ----------------------------------------------------------------------
# cell index of single-segment queries
# ----------------------------------------------------------------------

def _corners(city):
    """The buildings' min and max corners as two (N, 3) arrays."""
    n = len(city.buildings)
    return (np.array([b.min_corner for b in city.buildings], dtype=float).reshape(n, 3),
            np.array([b.max_corner for b in city.buildings], dtype=float).reshape(n, 3))


def _oracle_collides(city, a, b, steps=4000):
    """Dense sampling with both endpoints included; exact for axis-parallel segments.

    Samples are clipped to the segment's bounding box, so along an
    axis-parallel segment every sample is a point of the segment.  The
    segment's points in a closed box then form an interval that either holds
    an endpoint or spans the box, which is far wider than the sample spacing.
    """
    if not (city.in_bounds(a) and city.in_bounds(b)):
        return True
    ts = np.linspace(0.0, 1.0, steps)[:, None]
    pts = np.clip(np.vstack([a, b, a + ts * (b - a)]), np.minimum(a, b), np.maximum(a, b))
    mins, maxs = _corners(city)
    return bool(((pts[:, None, :] >= mins) & (pts[:, None, :] <= maxs)).all(axis=2).any())


def _aligned_city(origin):
    """Buildings whose faces sit on 10 m boundaries, one flush with the bounds.

    Returns the map and, per axis, the coordinates a query should hit
    exactly: cell boundaries, faces and roofs, the floats next to them and
    the bounds.
    """
    ox, oy, oz = origin
    lo, hi = np.array(origin), np.array(origin) + (250.0, 250.0, 120.0)
    boxes = [
        ((ox, oy, oz), (ox + 30.0, oy + 20.0, oz + 40.0)),             # flush with the low bounds
        ((ox + 20.0, oy + 40.0, oz), (ox + 50.0, oy + 60.0, oz + 70.0)),
        ((ox + 60.0, oy + 60.0, oz), (ox + 70.0, oy + 90.0, oz + 70.0)),  # same roof height
        ((ox + 100.0, oy + 100.0, oz + 30.0), (ox + 130.0, oy + 110.0, oz + 55.5)),
        ((ox + 200.0, oy + 225.0, oz), (hi[0], hi[1], oz + 90.0)),      # flush with the high bounds
    ]
    city = CityMap([_box(b_lo, b_hi) for b_lo, b_hi in boxes], lo, hi)
    special = []
    for axis in range(3):
        base = {lo[axis], hi[axis]}
        base.update(origin[axis] + 10.0 * k for k in range(26))
        for b_lo, b_hi in boxes:
            base.update((b_lo[axis], b_hi[axis]))
        vals = set()
        for v in base:
            vals.update((v, np.nextafter(v, -np.inf), np.nextafter(v, np.inf), v + 5.0))
        special.append(np.array(sorted(v for v in vals if lo[axis] <= v <= hi[axis])))
    return city, special


def _adversarial_segments(rng, special, n):
    """Axis-parallel and degenerate segments with every coordinate drawn from special."""
    a = np.column_stack([rng.choice(v, n) for v in special])
    b = a.copy()
    axis = rng.integers(0, 4, n)           # 3: a single point
    for k in range(3):
        moved = axis == k
        b[moved, k] = rng.choice(special[k], moved.sum())
    return a, b


def _check_against_oracle(city, a, b):
    expected = [_oracle_collides(city, p, q) for p, q in zip(a, b)]
    assert [city.segment_collides(p, q) for p, q in zip(a, b)] == expected
    # single segments are answered in Python floats from the cell index,
    # batches by the numpy slab test: one large batch and batches of five
    assert city.segments_collide(a, b).tolist() == expected
    small = np.concatenate([city.segments_collide(a[k:k + 5], b[k:k + 5])
                            for k in range(0, len(a), 5)])
    assert small.tolist() == expected
    points = [k for k in range(len(a)) if np.array_equal(a[k], b[k])]
    assert [not city.point_free(a[k]) for k in points] == [expected[k] for k in points]
    return expected


@pytest.mark.parametrize("origin", [(0.0, 0.0, 0.0), (-37.3, 1234.567, 15.25)])
def test_cell_index_is_exact_on_adversarial_segments(origin):
    """Cell boundaries, z exactly on a roof, many-cell spans, a nonzero origin, flush buildings."""
    city, special = _aligned_city(origin)
    rng = np.random.default_rng(8)
    a, b = _adversarial_segments(rng, special, 1500)
    # horizontal segments exactly at, and just above, each roof, across its building
    roofs = []
    for lo, hi in zip(*_corners(city)):
        mid = (lo + hi) / 2
        for z in (hi[2], np.nextafter(hi[2], np.inf)):
            roofs.append(((lo[0], mid[1], z), (hi[0], mid[1], z)))
            roofs.append(((mid[0], lo[1] - 3.0, z), (mid[0], hi[1], z)))
    ra, rb = (np.clip(np.array(v), city.bounds_min, city.bounds_max) for v in zip(*roofs))
    expected = _check_against_oracle(city, np.vstack([a, ra]), np.vstack([b, rb]))
    # a segment exactly on a roof touches its building, one a float above clears it
    n = len(city.buildings)
    assert expected[1500::4] == expected[1501::4] == [True] * n
    assert expected[1502::4] == expected[1503::4] == [False] * n
    assert sum(expected) > 100 and len(expected) - sum(expected) > 100


@pytest.mark.exact
def test_cell_index_is_exact_on_random_segments_and_empty_maps():
    rng = np.random.default_rng(21)
    boxes = _random_boxes(rng, 12)
    origin = np.array([-512.75, 33.1, -4.0])
    city = CityMap([_box(lo + origin, hi + origin) for lo, hi in boxes], origin, origin + 100.0)
    a = rng.uniform(origin, origin + 100.0, (400, 3))
    # short steps like a tree's, and long ones across many cells
    b = np.clip(a + rng.normal(0.0, 1.0, (400, 3)) * np.where(np.arange(400) % 2, 6.0, 60.0)[:, None],
                origin, origin + 100.0)
    # skip near-grazing segments, where a sampling oracle is unreliable
    ts = np.linspace(0.0, 1.0, 2000)[:, None, None]
    mins, maxs = _corners(city)
    keep = []
    for k in range(400):
        pts = (a[k] + ts * (b[k] - a[k]))
        thin = ((pts >= mins) & (pts <= maxs)).all(axis=2).any(axis=0)
        fat = ((pts >= mins - 0.05) & (pts <= maxs + 0.05)).all(axis=2).any(axis=0)
        if (thin == fat).all():
            keep.append(k)
    assert len(keep) > 250
    _check_against_oracle(city, a[keep], b[keep])
    empty, special = CityMap((), origin, origin + 100.0), [np.linspace(v, v + 100.0, 21)
                                                           for v in origin]
    a, b = _adversarial_segments(rng, special, 100)
    assert not any(_check_against_oracle(empty, a, b))
    inv, last_i, last_j, cells = empty._cell_index
    assert (last_i, last_j) == (9, 9) and len(cells) == 100
    assert all(top == -math.inf and boxes == () for top, boxes in cells)


def test_cell_index_answers_every_short_segment_on_a_generated_map(monkeypatch):
    """No short single segment reaches the batched slab test, and all agree with it."""
    city = generate_city(11)
    segments_collide = CityMap.segments_collide
    narrow = []

    def counting_segments_collide(self, a, b):
        narrow.append(len(a))
        return segments_collide(self, a, b)

    rng = np.random.default_rng(4)
    a = rng.uniform(0.0, 500.0, (400, 3)) * (1.0, 1.0, 0.5)
    b = np.clip(a + rng.uniform(-8.0, 8.0, (400, 3)), 0.0, 500.0)
    flags = city.segments_collide(a, b)
    monkeypatch.setattr(CityMap, "segments_collide", counting_segments_collide)
    assert [city.segment_collides(p, q) for p, q in zip(a, b)] == flags.tolist()
    assert narrow == []
    assert 0 < flags.sum() < 400


def test_huge_bounds_build_a_bounded_cell_index_quickly():
    """Bounds of 1e7 m widen the cells instead of allocating a huge index; the first query builds it."""
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        city = CityMap([_box((0, 0, 0), (30, 30, 50)), _box((9.9e6, 5e6, 0), (1e7, 5.1e6, 70))],
                       (0, 0, 0), (1e7, 1e7, 1e7))
        assert city._cell_index is None
        assert city.segment_collides((10, 10, 1), (10, 10, 60))
        elapsed = time.perf_counter() - t0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert elapsed < 0.5
    assert peak < 2_000_000
    assert len(city._cell_index[3]) == CELLS_MAX * CELLS_MAX
    assert not city.segment_collides((10, 10, 51), (5e6, 5e6, 51))
    assert city.segment_collides((9.95e6, 4e6, 10), (9.95e6, 6e6, 10))
    assert not city.point_free((9.95e6, 5.05e6, 70))
    assert city.point_free((9.95e6, 5.05e6, 70.5))


def test_batched_check_runs_slab_only_on_the_pairs_its_broad_phase_keeps(monkeypatch):
    """segments_collide's narrow phase is _slab, on no more pairs than the broad phase keeps."""
    slab, calls = env._slab, []

    def counting_slab(a, b, box):
        calls.append(box)
        return slab(a, b, box)

    monkeypatch.setattr(env, "_slab", counting_slab)
    city = CityMap([_box((100, 100, 0), (150, 150, 80)), _box((300, 300, 0), (350, 350, 120))])
    # no building box meets the batch's box
    assert not city.segments_collide([(10, 10, 10), (20, 20, 10)],
                                     [(40, 40, 20), (50, 60, 30)]).any()
    assert calls == []
    # the batch's box meets the first building, but no segment's box does
    assert not city.segments_collide([(10, 10, 10), (10, 180, 10)],
                                     [(200, 20, 10), (20, 200, 10)]).any()
    assert calls == []

    city = generate_city(11)
    rng = np.random.default_rng(8)
    a = rng.uniform(0.0, 500.0, (300, 3)) * (1.0, 1.0, 0.5)
    b = np.clip(a + rng.uniform(-40.0, 40.0, (300, 3)), 0.0, 500.0)
    flags = city.segments_collide(a, b)
    seg_lo, seg_hi = np.minimum(a, b), np.maximum(a, b)
    pairs = sum(bool(np.all(bld.min_corner <= hi) and np.all(lo <= bld.max_corner))
                for lo, hi in zip(seg_lo, seg_hi) for bld in city.buildings)
    assert 0 < flags.sum() <= len(calls) <= pairs
    calls.clear()
    assert [city.segment_collides(p, q) for p, q in zip(a, b)] == flags.tolist()


# lengths d whose rounded reciprocal gives d * (1 / d) == 1 - 2**-53, and two
# whose product is exactly 1
INEXACT_LENGTHS = (49.0, 98.0, 103.0, 107.0, 161.0)
EXACT_LENGTHS = (50.0, 100.0)


def test_scalar_slab_matches_the_batched_slab_on_segments_ending_on_a_face():
    """Axis-parallel and diagonal segments with an endpoint exactly on the building's surface.

    Checks the batch and single-segment broad phases end to end, each in
    front of the one narrow phase, _slab.  Every axis a segment moves along spans one of the lengths above, toward
    or away from the box, so the slab parameters round to just below 1 or to
    exactly 1 and the answer at the contact point rests on the last bit.
    """
    assert all(d * (1.0 / d) != 1.0 for d in INEXACT_LENGTHS)
    assert all(d * (1.0 / d) == 1.0 for d in EXACT_LENGTHS)
    lo, hi = np.array([170.0, 170.0, 170.0]), np.array([330.0, 330.0, 330.0])
    city = CityMap([_box(lo, hi)], (0, 0, 0), (500, 500, 500))
    levels = np.array([lo, (lo + hi) / 2, hi]).T
    # the 26 corners, edge midpoints and face centres of the box
    surface = np.array([p for p in itertools.product(*levels) if not np.array_equal(p, levels[:, 1])])
    steps = (0.0,) + tuple(s * d for d in INEXACT_LENGTHS + EXACT_LENGTHS for s in (1.0, -1.0))
    # moving along one axis or two
    offsets = np.array([v for v in itertools.product(steps, repeat=3) if 0 < np.count_nonzero(v) < 3])
    on = np.repeat(surface, len(offsets), axis=0)
    off = on + np.tile(offsets, (len(surface), 1))
    hits = []
    for a, b in ((off, on), (on, off)):
        flags = city.segments_collide(a, b).tolist()
        assert [city.segment_collides(p, q) for p, q in zip(a, b)] == flags
        hits.append(sum(flags))
    # every segment starting on the surface touches it at t = 0; some ending
    # on it miss where one axis' exit rounds to just below 1 and another's
    # entry to exactly 1
    assert hits[1] == len(on) and 0 < len(on) - hits[0] < len(on) // 2


@pytest.mark.filterwarnings("error")
def test_scalar_slab_matches_the_batched_slab_on_subnormal_lengths():
    """A move shorter than the smallest normal float counts as none, batched or single.

    Its reciprocal can overflow, and a zero times inf is a NaN parameter that
    used to miss the box, so a segment inside a building read as free.  Checks
    the batch and single-segment broad phases end to end, each in front of
    the one narrow phase, _slab.  Runs with warnings as errors: no
    RuntimeWarning on the way.
    """
    probe = CityMap([_box((0, 0, 0), (10, 10, 10))], (0, 0, 0), (100, 100, 100))
    tiny = 5e-324
    assert not probe.point_free((0.0, 5.0, 5.0))
    assert probe.segments_collide([(0.0, 5.0, 5.0)], [(tiny, 5.0, 5.0)]).tolist() == [True]
    assert probe.segment_collides((0.0, 5.0, 5.0), (tiny, 5.0, 5.0))
    a = [(0.0, 5.0, 5.0), (0.0, 5.0, 5.0), (20.0, 5.0, 5.0), (1.0, 1.0, 0.0), (10.0, 5.0, 5.0)]
    b = [(tiny, 5.0, 5.0), (tiny, 5.0, 20.0), (20.0, 5.0, tiny), (1.0, 1.0, tiny), (10.0, 5.0, tiny)]
    assert probe.segments_collide(a, b).tolist() == [True, True, False, True, True]
    assert [probe.segment_collides(p, q) for p, q in zip(a, b)] == [True, True, False, True, True]

    # subnormal moves along every set of axes, from starts inside, on and off
    # a box around the origin; on their own, and beside a 15 m move
    city = CityMap([_box((-10, -10, -10), (10, 10, 10))], (-100, -100, -100), (100, 100, 100))
    starts = [(0.0, 0.0, 0.0), (0.0, 10.0, 0.0), (0.0, 0.0, -10.0), (0.0, 50.0, 0.0),
              (0.0, 0.0, 20.0), (-50.0, 0.0, 0.0)]
    lengths = (tiny, -tiny, 1e-310, -1e-315, sys.float_info.min / 2)
    moves = [v for d in lengths for v in itertools.product((0.0, d), repeat=3) if any(v)]
    # beside a 15 m move, only the one from above the roof down into it enters the box
    long = [(0.0, 0.0, -15.0), (15.0, 0.0, 0.0)]
    enters = ((0.0, 0.0, 20.0), (0.0, 0.0, -15.0))
    seg_a, seg_b, expected = [], [], []
    for p in starts:
        # every segment below stays within 1e-307 m of p or of its 15 m move
        hit = not city.point_free(p)
        for v in moves:
            q = np.add(p, v)
            seg_a.append(p)
            seg_b.append(q)
            expected.append(hit)
            for w in long:
                seg_a.append(p)
                seg_b.append(q + w)
                expected.append(hit or (p, w) == enters)
    flags = city.segments_collide(seg_a, seg_b).tolist()
    assert flags == expected
    assert [city.segment_collides(p, q) for p, q in zip(seg_a, seg_b)] == flags


def _check_spanning_map_index(first):
    """2,000 overlapping buildings across the full x extent: the first query, first(city, a, b,
    side), builds a bounded index quickly, and segment queries and far tests are then exact."""
    rng = np.random.default_rng(13)
    n, side = 2000, 1e5
    y0 = rng.uniform(0.0, side - 50.0, n)
    z1 = rng.uniform(1.0, 300.0, n)
    boxes = [_box((0.0, y, 0.0), (side, y + 50.0, z)) for y, z in zip(y0, z1)]
    a = rng.uniform((0.0, 0.0, 0.0), (side, side, 500.0), (200, 3))
    b = np.clip(a + rng.uniform(-15.0, 15.0, (200, 3)), 0.0, (side, side, 500.0))
    points = rng.uniform((0.0, 0.0, 0.0), (side, side, 500.0), (300, 3)) * (1.0, 1.0, 0.7)
    t0 = time.perf_counter()
    city = CityMap(boxes, (0, 0, 0), (side, side, 500.0))
    first(city, a, b, side)
    assert time.perf_counter() - t0 < 0.5
    cells = city._cell_index[3]
    assert len(cells) <= CELLS_MAX * CELLS_MAX
    assert sum(len(c) for _, c in cells) <= CELL_REFS * n
    flags = city.segments_collide(a, b).tolist()
    assert [city.segment_collides(p, q) for p, q in zip(a, b)] == flags
    assert 0 < sum(flags) < 200
    assert _far_mismatches(city, points, 20.0) == []


def test_cell_index_stays_bounded_on_buildings_spanning_the_whole_map():
    """Built by a segment query, the index stays bounded and exact."""
    _check_spanning_map_index(lambda city, a, b, side: city.segment_collides(a[0], b[0]))


def test_far_index_stays_bounded_on_buildings_spanning_the_whole_map():
    """Built by a far test, the shared index stays bounded and exact, and later radii reuse it."""
    def first(city, a, b, side):
        assert city.clearance_exceeds((side / 2, side / 2, 499.0), 20.0)
        index = city._cell_index
        for r in (1.0, 2.0, 3.0, 4.0, 5.0, 6.0):
            city.clearance_exceeds((1.0, 1.0, 499.0), r)
            assert city._cell_index is index
    _check_spanning_map_index(first)


def _edge_floats(city, axis, edge):
    """The two adjacent floats either side of the computed cell edge within 1 m of edge, and edge."""
    inv, origin = city._cell_index[0], (city._bx0, city._by0)[axis]
    lo, hi = edge - 1.0, edge + 1.0
    upper = int((hi - origin) * inv)
    assert int((lo - origin) * inv) == upper - 1
    while math.nextafter(lo, math.inf) != hi:
        mid = min(max(lo + (hi - lo) * 0.5, math.nextafter(lo, math.inf)), math.nextafter(hi, -math.inf))
        if int((mid - origin) * inv) == upper:
            hi = mid
        else:
            lo = mid
    return lo, hi, edge


@pytest.mark.exact
def test_cell_index_is_exact_at_cell_edges_and_the_width_limit(monkeypatch):
    """Midpoints one ulp either side of a cell edge, and widths of exactly 2h and one ulp over.

    On 10 m cells from -100 m, h = CELL_REACH, each test edge gets two
    buildings: one whose low face is where a segment 2h wide centred on the
    last float below the computed edge ends, and one whose high face is
    where such a segment centred on the first float above it starts.
    Segments run along x or y, 2h wide, centred on those two floats and on
    the edge, so each end lands on or next to a face; they fly at heights
    inside the buildings, on their roof and one ulp above it.  Every answer
    must equal segments_collide, the batched slab test, which uses no index;
    a segment exactly 2h wide must take the cell lookup, and one a float
    wider the batched test.
    """
    h, w = CELL_REACH, 2.0 * CELL_REACH
    edges = (-30.0, 0.0, 20.0)
    probe = CityMap((), (-100.0, -100.0, 0.0), (100.0, 100.0, 50.0))
    probe.point_free((0.0, 0.0, 45.0))   # builds the index
    boxes = []
    for axis, band in ((0, (-45.0, -35.0)), (1, (25.0, 45.0))):
        for e in edges:
            below, above, _ = _edge_floats(probe, axis, e)
            for lo, hi in ((below + h, below + h + 5.0), (above - h - 5.0, above - h)):
                corner_lo, corner_hi = [band[0]] * 2 + [0.0], [band[1]] * 2 + [30.0]
                corner_lo[axis], corner_hi[axis] = lo, hi
                boxes.append(_box(corner_lo, corner_hi))
    city = CityMap(boxes, probe.bounds_min, probe.bounds_max)
    city.point_free((0.0, 0.0, 45.0))
    mid, exact, over = [], [], []
    for axis, other in ((0, -40.0), (1, 35.0)):
        for e in edges:
            for m in _edge_floats(city, axis, e):
                for z in (5.0, 15.0, 30.0, math.nextafter(30.0, math.inf)):
                    start, end = [other, other, z], [other, other, z]
                    start[axis], end[axis] = m - h, m + h
                    width = end[axis] - start[axis]
                    if width <= w and start[axis] + width * 0.5 == m:
                        mid.append((tuple(start), tuple(end)))
                    for s0 in (m - h, m + h - w):
                        s1 = s0 + w
                        while s1 - s0 > w:
                            s1 = math.nextafter(s1, -math.inf)
                        while s1 - s0 < w:
                            s1 = math.nextafter(s1, math.inf)
                        if s1 - s0 != w:
                            continue
                        start[axis], end[axis] = s0, s1
                        exact.append((tuple(start), tuple(end)))
                        while end[axis] - s0 <= w:
                            end[axis] = math.nextafter(end[axis], math.inf)
                        over.append((tuple(start), tuple(end)))
    assert len(mid) > 20 and len(exact) > 20
    segments_collide = CityMap.segments_collide
    for segments in (mid, exact, over):
        a, b = (np.array(v) for v in zip(*segments))
        expected = city.segments_collide(a, b).tolist()
        assert 0 < sum(expected) < len(expected)
        calls = []
        monkeypatch.setattr(CityMap, "segments_collide",
                            lambda self, p, q: calls.append(len(p)) or segments_collide(self, p, q))
        # both directions: the midpoint is computed from the first end
        assert [city.segment_collides(p, q) for p, q in zip(a, b)] == expected
        assert [city.segment_collides(q, p) for p, q in zip(a, b)] == expected
        monkeypatch.setattr(CityMap, "segments_collide", segments_collide)
        assert len(calls) == (2 * len(a) if segments is over else 0)


def _floats_around(v, n):
    """The 2n + 1 floats nearest v, v in the middle."""
    down, up = [v], [v]
    for _ in range(n):
        down.append(math.nextafter(down[-1], -math.inf))
        up.append(math.nextafter(up[-1], math.inf))
    return down[:0:-1] + up


@pytest.mark.exact
def test_cell_index_margin_covers_the_midpoint_and_width_rounding(monkeypatch):
    """Segments that touch a face farther than h from their rounded midpoint, across a cell edge.

    Such a segment passes the width test, as its width rounds down to at
    most 2h, and its rounded midpoint falls in the cell before (or after)
    the one that its far end, less (or plus) h, maps to: without the pad's
    margin the midpoint's cell would not list the building it ends on.  The
    search runs over ends and starts within 40 floats of the extreme case
    at every cell edge from -70 m to 70 m of a 200 m map with 10 m cells
    from -100 m.
    """
    h, w = CELL_REACH, 2.0 * CELL_REACH
    origin, inv = -100.0, 0.1

    def cell(v):
        return int((v - origin) * inv)

    found = []   # (start, end, face): the segment ends on the face
    for e in np.arange(-70.0, 80.0, 10.0).tolist():
        for sign in (1.0, -1.0):
            for end in _floats_around(e + sign * h, 40):
                for start in _floats_around(end - sign * w, 40):
                    d = end - start
                    if abs(d) <= w and (cell(start + d * 0.5) - cell(end - sign * h)) * sign < 0:
                        found.append((start, end, sign))
    assert 0 < len(found) <= 20
    # one building per segment, each in a 2 m band of y of its own
    boxes = [_box((min(end, end + 5.0 * sign), -95.0 + 4 * k, 0.0),
                  (max(end, end + 5.0 * sign), -93.0 + 4 * k, 30.0))
             for k, (_, end, sign) in enumerate(found)]
    city = CityMap(boxes, (origin, origin, 0.0), (100.0, 100.0, 50.0))
    a = np.array([(start, -94.0 + 4 * k, 10.0) for k, (start, _, _) in enumerate(found)])
    b = np.array([(end, -94.0 + 4 * k, 10.0) for k, (_, end, _) in enumerate(found)])
    assert city.segments_collide(a, b).all()
    calls = []
    segments_collide = CityMap.segments_collide
    monkeypatch.setattr(CityMap, "segments_collide",
                        lambda self, p, q: calls.append(len(p)) or segments_collide(self, p, q))
    assert all(city.segment_collides(p, q) for p, q in zip(a, b))
    assert calls == [] and city._cell_index[:3] == (inv, 19, 19)


# ----------------------------------------------------------------------
# far test
# ----------------------------------------------------------------------

def _far_mismatches(city, points, r):
    """Points where clearance_exceeds disagrees with the clearance(p) > r oracle."""
    return [tuple(p) for p in points if city.clearance_exceeds(p, r) != (city.clearance(p) > r)]


def _points_at_distance(box, r):
    """Points at distance r from a face, an edge, a corner and the roof of box, and one ulp
    either side along each axis."""
    (x0, y0, z0), (x1, y1, z1) = box.min_corner, box.max_corner
    mx, my, mz = (x0 + x1) / 2, (y0 + y1) / 2, (z0 + z1) / 2
    base = [
        (x1 + r, my, mz), (x0 - r, my, mz), (mx, y0 - r, mz), (mx, y1 + r, mz),   # faces
        (x1 + 0.6 * r, y1 + 0.8 * r, mz), (x0 - 0.8 * r, y0 - 0.6 * r, mz),       # edges
        (x1 + 2 / 7 * r, y0 - 3 / 7 * r, z1 + 6 / 7 * r),                        # corner
        (mx, my, z1 + r), (x0, y0, z1 + r), (x1, y1, z1 + r),                      # roof
    ]
    out = []
    for p in base:
        for k in range(3):
            for toward in (-np.inf, np.inf):
                q = list(p)
                q[k] = float(np.nextafter(q[k], toward))
                out.append(q)
        out.append(list(p))
    return np.array(out)


def _benchmark_maps():
    scenario = default_scenario()
    return [build_city(scenario)] + [generate_city(s, scenario.map_params) for s in (12, 13)]


@pytest.mark.exact
def test_far_test_matches_the_clearance_oracle():
    """clearance_exceeds equals clearance(p) > r on random points of the benchmark maps, on
    points r from each building's face, edge, corner and roof, and one ulp off them."""
    rng = np.random.default_rng(21)
    for city in _benchmark_maps():
        for r in (20.0, 5.0, 0.5):
            random = rng.uniform(city.bounds_min, city.bounds_max, (3000, 3)) * (1.0, 1.0, 0.6)
            assert _far_mismatches(city, random, r) == []
            for b in city.buildings:
                near = _points_at_distance(b, r)
                inside = [p for p in near if city._inside(p.tolist())]
                assert _far_mismatches(city, inside, r) == []
    # exact distances: a face point r away is not far, one ulp farther out is
    wall = CityMap([_box((30, 0, 0), (40, 10, 10))], (0, 0, 0), (100, 100, 100))
    assert not wall.clearance_exceeds((20.0, 5.0, 5.0), 10.0)
    assert wall.clearance_exceeds((math.nextafter(20.0, 0.0), 5.0, 5.0), 10.0)
    assert not wall.clearance_exceeds((35.0, 5.0, 15.0), 5.0)
    assert wall.clearance_exceeds((35.0, 5.0, math.nextafter(15.0, 99.0)), 5.0)


def test_far_test_on_an_empty_map_and_buildings_touching_the_bounds():
    rng = np.random.default_rng(22)
    empty = CityMap((), (0, 0, 0), (100, 100, 100))
    assert all(empty.clearance_exceeds(p, 20.0) for p in rng.uniform(0.0, 100.0, (200, 3)))
    assert empty.clearance_exceeds((0.0, 0.0, 0.0), 0.0)
    edge = CityMap([_box((0, 0, 0), (30, 100, 40)), _box((70, 70, 0), (100, 100, 100)),
                    _box((40, 0, 60), (60, 20, 100))], (0, 0, 0), (100, 100, 100))
    points = np.vstack([rng.uniform(0.0, 100.0, (2000, 3)),
                        np.clip(rng.normal(0.0, 3.0, (500, 3)) + [100.0, 100.0, 100.0], 0, 100),
                        np.clip(rng.normal(0.0, 3.0, (500, 3)) + [30.0, 50.0, 40.0], 0, 100)])
    for r in (20.0, 5.0, 0.5, 0.0):
        assert _far_mismatches(edge, points, r) == []
        for b in edge.buildings:
            near = [p for p in _points_at_distance(b, r) if edge._inside(p.tolist())]
            assert _far_mismatches(edge, near, r) == []


def test_far_test_rejects_points_outside_the_bounds_and_bad_radii():
    city = _unit_box_map()
    for p in ((-5.0, 1.0, 1.0), (1.0, 11.0, 1.0), (np.nan, 1.0, 1.0), np.array([1.0, 1.0, np.inf])):
        with pytest.raises(ValueError):
            city.clearance_exceeds(p, 2.0)
    for r in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            city.clearance_exceeds((5.0, 5.0, 5.0), r)


@pytest.mark.exact
def test_far_test_above_the_cell_reach_matches_the_clearance_oracle():
    """Radii above CELL_REACH are answered by clearance, on the same points as the test of
    radii below it; one cell index serves both queries at every radius."""
    rng = np.random.default_rng(24)
    for city in _benchmark_maps():
        for r in (25.0, 60.0, 1000.0):
            random = rng.uniform(city.bounds_min, city.bounds_max, (1000, 3)) * (1.0, 1.0, 0.6)
            assert _far_mismatches(city, random, r) == []
            for b in city.buildings:
                near = _points_at_distance(b, r)
                inside = [p for p in near if city._inside(p.tolist())]
                assert _far_mismatches(city, inside, r) == []
    city = generate_city(11)
    city.point_free((250.0, 250.0, 400.0))
    index = city._cell_index
    for r in (0.0, 5.0, CELL_REACH, math.nextafter(CELL_REACH, math.inf), 60.0, 1.0):
        assert city.clearance_exceeds((250.0, 250.0, 400.0), r)
        city.segment_collides((100.0, 100.0, 5.0), (130.0, 90.0, 8.0))
        assert city._cell_index is index


def test_drrt_defaults_stay_within_the_cell_reach():
    """The default far test and steps take the cell lookup, not clearance or the slab test."""
    assert DrrtParams().clearance_far <= CELL_REACH
    assert DrrtParams().step_max <= 2 * CELL_REACH


# ----------------------------------------------------------------------
# generation
# ----------------------------------------------------------------------

def test_generate_city_is_deterministic():
    a = generate_city(42)
    b = generate_city(42)
    assert len(a.buildings) == 40
    assert a.buildings == b.buildings
    c = generate_city(43)
    assert a.buildings != c.buildings


def test_generate_city_respects_ranges_and_bounds():
    params = GenParams(count=25, footprint_range=(20, 60), height_range=(18, 270))
    city = generate_city(5, params)
    assert len(city.buildings) == 25
    for b in city.buildings:
        lo, hi = np.array(b.min_corner), np.array(b.max_corner)
        assert lo[2] == 0.0
        assert np.all(lo >= city.bounds_min) and np.all(hi <= city.bounds_max)
        assert 20 <= hi[0] - lo[0] <= 60
        assert 20 <= hi[1] - lo[1] <= 60
        assert 18 <= hi[2] - lo[2] <= 270


def test_generate_city_keeps_designated_points_clear():
    keep = ((10, 10, 1), (470, 420, 50))
    city = generate_city(3, GenParams(keep_clear=keep, clear_radius=5.0))
    for p in keep:
        q = np.asarray(p, dtype=float)
        for b in city.buildings:
            inflated_contains = bool(
                np.all(np.array(b.min_corner) - 5.0 <= q)
                and np.all(q <= np.array(b.max_corner) + 5.0)
            )
            assert not inflated_contains
        assert city.point_free(p)
        assert city.clearance(p) > 5.0


def test_generate_city_zero_count_and_validation():
    empty = generate_city(7, GenParams(count=0))
    assert empty.buildings == ()
    with pytest.raises(ValueError):
        generate_city(0, GenParams(count=-1))
    with pytest.raises(ValueError):
        generate_city(0, GenParams(footprint_range=(0, 10)))
    with pytest.raises(ValueError):
        generate_city(0, GenParams(keep_clear=((-5, 0, 0),)))


def test_generate_city_reports_impossible_layouts():
    # a clearance radius covering the whole map leaves nowhere to build
    params = GenParams(count=1, keep_clear=((250, 250, 250),), clear_radius=600.0,
                       max_draws_per_building=50)
    with pytest.raises(MapGenerationError):
        generate_city(0, params)


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------

def test_map_round_trips_through_json(tmp_path):
    city = generate_city(9, GenParams(count=12))
    path = tmp_path / "map.json"
    save_map(city, path)
    loaded = load_map(path)
    assert loaded.buildings == city.buildings
    assert loaded.seed == 9
    assert np.array_equal(loaded.bounds_min, city.bounds_min)
    assert np.array_equal(loaded.bounds_max, city.bounds_max)


def test_map_dict_round_trip_preserves_queries():
    city = generate_city(2, GenParams(count=8))
    clone = CityMap.from_dict(city.to_dict())
    rng = np.random.default_rng(0)
    for _ in range(100):
        p = rng.uniform(0, 500, 3)
        q = rng.uniform(0, 500, 3)
        assert city.point_free(p) == clone.point_free(p)
        assert city.segment_collides(p, q) == clone.segment_collides(p, q)
    good = city.to_dict()
    for key, broken in (("bounds", {"buildings": []}),
                        ("buildings", {"bounds": good["bounds"]}),
                        ("min", {**good, "bounds": {"max": [1, 1, 1]}}),
                        ("max", {**good, "buildings": [{"min": [0, 0, 0]}]})):
        with pytest.raises(ValueError, match=repr(key)):
            CityMap.from_dict(broken)
    for part, broken in (("map data", [1, 2]),
                         ("map bounds", {**good, "bounds": [0, 1]}),
                         ("map buildings", {**good, "buildings": 5}),
                         ("map building", {**good, "buildings": [5]}),
                         ("3 coordinates", {**good, "buildings": [{"min": {}, "max": [1, 1, 1]}]})):
        with pytest.raises(ValueError, match=part):
            CityMap.from_dict(broken)
