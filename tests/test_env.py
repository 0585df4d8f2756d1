"""Map generation and collision geometry tests."""
from __future__ import annotations

import math

import numpy as np
import pytest

from skynav import Building, CityMap, GenParams, MapGenerationError, generate_city, load_map, save_map
from skynav.env import as_point


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


@pytest.mark.parametrize("box_count", (0, 1, 5, 40))
def test_segments_collide_agrees_with_the_single_segment_query_and_dense_sampling(box_count):
    rng = np.random.default_rng(box_count)
    boxes = _random_boxes(rng, box_count)
    city = CityMap([_box(lo, hi) for lo, hi in boxes], (0, 0, 0), (100, 100, 100))
    top = max((hi[2] for _, hi in boxes), default=0.0)
    a, b = _mixed_segments(rng, 400, top)
    flags = city.segments_collide(a, b)
    assert flags.shape == (400,) and flags.dtype == bool
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
    assert checked > 200
    assert not flags[(np.arange(400) % 4 == 3) & ((a >= 0) & (a <= 100) & (b >= 0)
                                                    & (b <= 100)).all(axis=1)].any()


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
