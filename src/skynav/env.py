"""Urban world model: procedural building layouts and collision queries.

The map is an axis-aligned box of airspace over a flat ground plane populated
with box-shaped buildings.  All geometry is treated as closed sets: touching a
building surface, or leaving the map bounds, counts as a collision.
"""
from __future__ import annotations

import json
import math
import operator
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np


# smallest normal float64; the slab test treats a smaller move as none
TINY = sys.float_info.min
# The cell index (see CityMap._build_cell_index): CELL_M square cells, wider
# on a map that would need more than CELLS_MAX a side or CELL_REFS box
# references per building, each listing the boxes within CELL_REACH, the
# default clearance_far, plus a relative CELL_SLACK margin.
CELL_M = 10.0
CELLS_MAX = 64
CELL_REFS = 256
CELL_SLACK = 1e-9
CELL_REACH = 20.0


class MapGenerationError(RuntimeError):
    """Raised when a building layout cannot be placed within the draw budget."""


def as_point(p) -> np.ndarray:
    """Coerce an (x, y, z) array-like to a finite float64 vector of shape (3,)."""
    try:
        a = np.asarray(p, dtype=float)
    except TypeError:
        raise ValueError(f"expected 3 coordinates, got {p!r:.40}") from None
    if a.shape != (3,):
        raise ValueError(f"expected 3 coordinates, got shape {a.shape}")
    if not (math.isfinite(a[0]) and math.isfinite(a[1]) and math.isfinite(a[2])):
        raise ValueError(f"point has non-finite coordinates: {p!r}")
    return a


def check_count(value, name: str, high: int | None = None, low: int = 1) -> int:
    """value as a Python int from low to high; a bool, a float or a value out of range raises ValueError.

    A float is refused even when integral: 8.0 hashes as 8 does, so a cache
    keyed on the value would answer for an argument the check refuses.
    """
    try:
        if isinstance(value, bool):
            raise TypeError
        count = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r:.40}") from None
    if count < low or (high is not None and count > high):
        bound = f"at least {low}" if high is None else f"between {low} and {high:,}"
        raise ValueError(f"{name} must be {bound}, got {count:,}")
    return count


@dataclass(frozen=True)
class Building:
    """Closed axis-aligned prism. Generated buildings sit on the ground (min z = 0)."""

    min_corner: tuple[float, float, float]
    max_corner: tuple[float, float, float]

    def __post_init__(self):
        lo = as_point(self.min_corner)
        hi = as_point(self.max_corner)
        if not np.all(lo < hi):
            raise ValueError(f"degenerate building: {self.min_corner} .. {self.max_corner}")
        object.__setattr__(self, "min_corner", tuple(float(v) for v in lo))
        object.__setattr__(self, "max_corner", tuple(float(v) for v in hi))


@dataclass(frozen=True)
class GenParams:
    """Knobs for the procedural city generator."""

    count: int = 40
    footprint_range: tuple[float, float] = (20.0, 60.0)
    height_range: tuple[float, float] = (18.0, 270.0)
    bounds_min: tuple[float, float, float] = (0.0, 0.0, 0.0)
    bounds_max: tuple[float, float, float] = (500.0, 500.0, 500.0)
    keep_clear: tuple[tuple[float, float, float], ...] = ()
    clear_radius: float = 5.0
    max_draws_per_building: int = 1000

    def __post_init__(self):
        check_count(self.count, "building count", low=0)
        check_count(self.max_draws_per_building, "max_draws_per_building", low=0)
        if not 0.0 <= self.clear_radius < math.inf:
            raise ValueError("clear_radius must be finite and non-negative, "
                             f"got {self.clear_radius!r}")


class CityMap:
    """Immutable collection of buildings inside a bounding box.

    A building that extends beyond the box is refused with ValueError.

    All collision queries are pure functions of the stored geometry, so a map
    can be shared freely between planners and threads.
    """

    def __init__(self, buildings: Sequence[Building] = (),
                 bounds_min=(0.0, 0.0, 0.0), bounds_max=(500.0, 500.0, 500.0),
                 seed: int | None = None):
        self.bounds_min = as_point(bounds_min)
        self.bounds_max = as_point(bounds_max)
        # a finite extent keeps every difference of two coordinates finite
        if not all(0.0 < hi - lo < math.inf for lo, hi in zip(self.bounds_min.tolist(),
                                                               self.bounds_max.tolist())):
            raise ValueError("map bounds must have a positive, finite extent on every axis")
        self.buildings = tuple(buildings)
        self.seed = seed
        # building boxes as contiguous (3, N) arrays, one row per axis, for
        # the batched queries
        n = len(self.buildings)
        self._lo = np.array([b.min_corner for b in self.buildings], float).reshape(n, 3).T.copy()
        self._hi = np.array([b.max_corner for b in self.buildings], float).reshape(n, 3).T.copy()
        outside = ((self._lo.T < self.bounds_min) | (self._hi.T > self.bounds_max)).any(axis=1)
        if outside.any():
            b = self.buildings[int(np.argmax(outside))]
            raise ValueError(f"{b} extends beyond the map bounds")
        # plain-float copies of the bounds; the planners hammer these queries,
        # and scalar compares beat tiny-array reductions
        self._bx0, self._by0, self._bz0 = (float(v) for v in self.bounds_min)
        self._bx1, self._by1, self._bz1 = (float(v) for v in self.bounds_max)
        # one (x0, y0, z0, x1, y1, z1) tuple per building, for _slab and the cell index
        self._boxes = tuple(b.min_corner + b.max_corner for b in self.buildings)
        self._cell_index = None

    # ------------------------------------------------------------------
    # collision queries
    # ------------------------------------------------------------------

    def _inside(self, p) -> bool:
        return (self._bx0 <= p[0] <= self._bx1
                and self._by0 <= p[1] <= self._by1
                and self._bz0 <= p[2] <= self._bz1)

    def in_bounds(self, p) -> bool:
        return self._inside(as_point(p))

    def point_free(self, p) -> bool:
        """True iff p lies inside the bounds and outside every building.

        Buildings are closed boxes, so a point exactly on a face is not free.
        A point is the degenerate segment p-p.
        """
        p = as_point(p).tolist()
        return not self._segment_collides(p, p)

    def segment_collides(self, a, b) -> bool:
        """True iff segment a-b touches any building or leaves the bounds.

        The one-segment case of segments_collide, answered in Python floats
        from the map's cell index: for one segment against a few boxes,
        numpy's per-call overhead costs more than the arithmetic.
        """
        return self._segment_collides(as_point(a).tolist(), as_point(b).tolist())

    def _segment_collides(self, a, b) -> bool:
        """segment_collides for two (x, y, z) float sequences the caller has validated.

        Checks the bounds in Python scalars, then asks _hits_buildings.
        """
        if not self._inside(a) or not self._inside(b):
            return True
        return self._hits_buildings(a, b)

    def _hits_buildings(self, a, b) -> bool:
        """True iff segment a-b, two float triples inside the bounds, touches a building.

        A segment at most 2 * CELL_REACH wide on x and on y is answered from
        its midpoint's cell (see _build_cell_index): free above the cell's
        top, else by the closed box-overlap test and _slab on its boxes.  A
        wider segment goes to the batched slab test.
        """
        (ax, ay, az), (bx, by, bz) = a, b
        dx, dy, w = bx - ax, by - ay, 2.0 * CELL_REACH
        if not (-w <= dx <= w and -w <= dy <= w):
            return bool(self._touch_buildings(np.array((a,)), np.array((b,)))[0])
        # ax + dx / 2 cannot overflow, and lies between ax and bx
        top, boxes = self._cell(ax + dx * 0.5, ay + dy * 0.5)
        z0, z1 = (az, bz) if az <= bz else (bz, az)
        if z0 > top:
            return False
        x0, x1 = (ax, bx) if ax <= bx else (bx, ax)
        y0, y1 = (ay, by) if ay <= by else (by, ay)
        for box in boxes:
            if (box[0] <= x1 and x0 <= box[3] and box[1] <= y1 and y0 <= box[4]
                    and box[2] <= z1 and z0 <= box[5] and _slab(a, b, box)):
                return True
        return False

    def segments_collide(self, starts, ends) -> np.ndarray:
        """One flag per segment starts[k]-ends[k]: True iff it touches a building or leaves the bounds.

        Takes two (S, 3) arrays of finite coordinates.  Runs the slab method
        per building, with the intersection parameter clipped to [0, 1].
        Leaving the bounds and boundary grazing count as collisions
        (closed-set convention).
        """
        a = np.asarray(starts, dtype=float)
        b = np.asarray(ends, dtype=float)
        if a.ndim != 2 or a.shape[1] != 3 or a.shape != b.shape:
            raise ValueError(f"expected two (S, 3) arrays, got shapes {a.shape} and {b.shape}")
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise ValueError("segment endpoints have non-finite coordinates")
        # bounds are convex: a segment leaves them iff an endpoint is outside
        lo_b, hi_b = self.bounds_min, self.bounds_max
        outside = ~((lo_b <= a) & (a <= hi_b) & (lo_b <= b) & (b <= hi_b)).all(axis=1)
        return outside | self._touch_buildings(a, b)

    def _touch_buildings(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Per segment a[k]-b[k] of an (S, 3) pair of float64 arrays: True iff it touches a building.

        A segment can only touch a building whose closed box overlaps the
        segment's own bounding box; only those pairs reach the narrow phase,
        _slab, until the segment hits.  The broad phase first keeps the K
        buildings whose box meets the whole batch's bounding box, which holds
        every segment's box, then compares them with the segment boxes axis by
        axis in one (K, S) mask over (3, S) rows.
        """
        hit = np.zeros(len(a), dtype=bool)
        if not len(a):
            return hit
        at, bt = a.T.copy(), b.T.copy()
        seg_lo, seg_hi = np.minimum(at, bt), np.maximum(at, bt)
        batch_lo, batch_hi = seg_lo.min(axis=1)[:, None], seg_hi.max(axis=1)[:, None]
        kept = np.flatnonzero(((self._lo <= batch_hi) & (batch_lo <= self._hi)).all(axis=0))
        if kept.size == 0:
            return hit
        lo, hi = self._lo[:, kept, None], self._hi[:, kept, None]
        near = (lo[0] <= seg_hi[0]) & (seg_lo[0] <= hi[0])
        for k in (1, 2):
            near &= lo[k] <= seg_hi[k]
            near &= seg_lo[k] <= hi[k]
        if not near.any():
            return hit
        for bld, seg in zip(*np.nonzero(near)):
            if not hit[seg] and _slab(a[seg].tolist(), b[seg].tolist(), self._boxes[kept[bld]]):
                hit[seg] = True
        return hit

    def clearance(self, p) -> float:
        """Euclidean distance from p to the nearest building surface.

        Returns 0 for points inside a building and +inf on an empty map.  The
        bounding walls of the map do not count as obstacles here.  Takes one
        square root, of the smallest squared distance: the root is monotone and
        correctly rounded, so that equals the smallest root.
        """
        p = as_point(p)
        if not self._inside(p):
            raise ValueError(f"clearance queried outside map bounds: {tuple(p)}")
        if not self.buildings:
            return math.inf
        p = p[:, None]
        delta = np.maximum(np.maximum(self._lo - p, p - self._hi), 0.0)
        return math.sqrt((delta * delta).sum(axis=0).min())

    def clearance_exceeds(self, p, r: float) -> bool:
        """True iff clearance(p) > r, computed exactly as clearance computes it, for r >= 0.

        p is an (x, y, z) float sequence or float64 array inside the bounds,
        and r is finite and at least 0; else ValueError.  An r above
        CELL_REACH is answered by clearance, a smaller one from p's cell: a
        point above its top is far, else the root of the smallest distance
        to its boxes, computed in Python floats with clearance's operations
        in its order, is compared with r.  A box the cell does not list lies
        farther than CELL_REACH from p even after rounding, so it cannot
        decide the comparison, though it may hold clearance's minimum.
        """
        if isinstance(p, np.ndarray):
            p = p.tolist()
        x, y, z = p
        if not self._inside(p):
            raise ValueError(f"far test queried outside map bounds: {(x, y, z)}")
        if not 0.0 <= r <= CELL_REACH:
            if not 0.0 <= r < math.inf:
                raise ValueError(f"far-test radius must be finite and non-negative, got {r!r}")
            return self.clearance(p) > r
        top, boxes = self._cell(x, y)
        if z > top:
            return True
        best = math.inf
        for x0, y0, z0, x1, y1, z1 in boxes:
            # np.maximum(np.maximum(lo - p, p - hi), 0.0) per axis
            dx, dy, dz = x0 - x, y0 - y, z0 - z
            if x - x1 > dx:
                dx = x - x1
            if y - y1 > dy:
                dy = y - y1
            if z - z1 > dz:
                dz = z - z1
            if dx < 0.0:
                dx = 0.0
            if dy < 0.0:
                dy = 0.0
            if dz < 0.0:
                dz = 0.0
            d = (dx * dx + dy * dy) + dz * dz
            if d < best:
                best = d
        return math.sqrt(best) > r

    def _cell(self, x: float, y: float) -> tuple:
        """(top, boxes) of the cell holding (x, y); the index is built on first use and
        assigned whole, so threads sharing the map at worst each build it."""
        index = self._cell_index
        if index is None:
            index = self._cell_index = self._build_cell_index()
        inv, last_i, last_j, cells = index
        i = int((x - self._bx0) * inv)
        j = int((y - self._by0) * inv)
        return cells[(i if i < last_i else last_i) * (last_j + 1)
                     + (j if j < last_j else last_j)]

    def _build_cell_index(self) -> tuple:
        """The cell index: (1 / cell side, last cell i, last cell j, cells).

        cells[i * (last j + 1) + j] is (top, boxes) for the x-y cell (i, j):
        boxes lists the (x0, y0, z0, x1, y1, z1) tuples of every building
        whose footprint, inflated by pad = CELL_REACH plus a CELL_SLACK
        margin, meets the cell, and top is the tallest of their roofs plus
        pad, -inf when there are none; equal box lists share one entry.
        Buildings and queries map x and y to cells with the same monotone
        truncation, clamped to the grid, so a point within CELL_REACH of a
        box on x and on y, up to rounding, lies in a cell that lists the box,
        as does the midpoint of a segment that touches the box and is at most
        2 * CELL_REACH wide on x and on y; and a point above top lies farther
        than CELL_REACH above every box the cell lists.  The roundings on the way
        each move a value by a relative 2**-53: in clearance_exceeds'
        distances, and in _hits_buildings' extent test (a segment that
        passes it may be wider than 2 * CELL_REACH by a relative 2**-53) and
        its midpoint ax + dx / 2 (off the exact midpoint by at most 2**-53
        times half the width plus the coordinates' scale).  pad covers them
        with a margin of CELL_SLACK times the radius plus the coordinates'
        scale.
        """
        scale = max(abs(v) for v in (self._bx0, self._by0, self._bz0,
                                     self._bx1, self._by1, self._bz1))
        pad = CELL_REACH + CELL_SLACK * (CELL_REACH + scale)
        bx, by = self._bx0, self._by0
        boxes = self._boxes
        side = max(CELL_M, (self._bx1 - bx) / CELLS_MAX, (self._by1 - by) / CELLS_MAX)
        while True:
            inv = 1.0 / side
            last_i = min(CELLS_MAX, max(1, math.ceil((self._bx1 - bx) * inv))) - 1
            last_j = min(CELLS_MAX, max(1, math.ceil((self._by1 - by) * inv))) - 1
            spans = [(max(0, min(last_i, int((box[0] - pad - bx) * inv))),
                      min(last_i, int((box[3] + pad - bx) * inv)),
                      max(0, min(last_j, int((box[1] - pad - by) * inv))),
                      min(last_j, int((box[4] + pad - by) * inv))) for box in boxes]
            refs = sum((i1 - i0 + 1) * (j1 - j0 + 1) for i0, i1, j0, j1 in spans)
            if refs <= CELL_REFS * len(boxes) or last_i == last_j == 0:
                break
            side *= 2.0
        listed = [[] for _ in range((last_i + 1) * (last_j + 1))]
        for k, (i0, i1, j0, j1) in enumerate(spans):
            for i in range(i0, i1 + 1):
                for j in range(j0, j1 + 1):
                    listed[i * (last_j + 1) + j].append(k)
        shared = {}
        for ks in map(tuple, listed):
            if ks not in shared:
                shared[ks] = (max((boxes[k][5] for k in ks), default=-math.inf) + pad,
                              tuple(boxes[k] for k in ks))
        return inv, last_i, last_j, [shared[tuple(ks)] for ks in listed]

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "bounds": {"min": self.bounds_min.tolist(), "max": self.bounds_max.tolist()},
            "seed": self.seed,
            "buildings": [
                {"min": list(b.min_corner), "max": list(b.max_corner)} for b in self.buildings
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CityMap":
        """The map of a JSON object; a missing key or a wrongly typed part raises ValueError."""
        _json_part(data, dict, "map data")
        try:
            bounds = _json_part(data["bounds"], dict, "map bounds")
            lo, hi = bounds["min"], bounds["max"]
            buildings = []
            for b in _json_part(data["buildings"], list, "map buildings"):
                _json_part(b, dict, "map building")
                buildings.append(Building(b["min"], b["max"]))
        except KeyError as exc:
            raise ValueError(f"map data is missing the {exc.args[0]!r} key") from None
        return cls(buildings, lo, hi, seed=data.get("seed"))


def _slab(a: Sequence[float], b: Sequence[float], box: tuple) -> bool:
    """True iff segment a-b meets the closed box (x0, y0, z0, x1, y1, z1): the slab test.

    The narrow phase of every segment query, for one pair whose closed boxes
    overlap, with the intersection parameter clipped to [0, 1].  An axis the
    segment does not move along is skipped: the box-overlap test already put
    the whole line inside that axis' slab.  A move shorter than the smallest
    normal float counts as none, because its reciprocal can overflow and a
    zero times inf is a NaN parameter; skipping it errs toward a hit by less
    than that float.  A NaN parameter misses.
    """
    tmin, tmax = 0.0, 1.0
    for k in range(3):
        d = b[k] - a[k]
        if -TINY < d < TINY:
            continue
        inv = 1.0 / d
        t1 = (box[k] - a[k]) * inv
        t2 = (box[k + 3] - a[k]) * inv
        if t1 > t2:
            t1, t2 = t2, t1
        elif not t1 <= t2:
            return False
        if t1 > tmin:
            tmin = t1
        if t2 < tmax:
            tmax = t2
    return tmin <= tmax


def _json_part(value, kind: type, name: str):
    """value, if it is of the JSON kind (dict or list) that name needs; else ValueError."""
    if not isinstance(value, kind):
        what = "an object" if kind is dict else "an array"
        raise ValueError(f"{name} must be {what}, got {value!r:.40}")
    return value


def save_map(city: CityMap, path) -> None:
    Path(path).write_text(json.dumps(city.to_dict(), indent=2) + "\n")


def load_map(path) -> CityMap:
    return CityMap.from_dict(json.loads(Path(path).read_text()))


def generate_city(seed: int, params: GenParams = GenParams()) -> CityMap:
    """Draw a random building layout. Identical (seed, params) give identical maps.

    Buildings are rejected and redrawn while their box, inflated by
    ``clear_radius`` on every side, contains a keep-clear point.  Raises
    MapGenerationError if a building cannot be placed within
    ``max_draws_per_building`` draws.
    """
    lo_fp, hi_fp = params.footprint_range
    lo_h, hi_h = params.height_range
    if not (0 < lo_fp <= hi_fp) or not (0 < lo_h <= hi_h):
        raise ValueError("footprint and height ranges must be positive and ordered")
    bmin = as_point(params.bounds_min)
    bmax = as_point(params.bounds_max)
    extent = bmax - bmin
    if hi_fp > extent[0] or hi_fp > extent[1]:
        raise ValueError("footprint range exceeds map extent")
    if hi_h > extent[2]:
        raise ValueError("height range exceeds map extent")
    keep = [as_point(p) for p in params.keep_clear]
    for p in keep:
        if np.any(p < bmin) or np.any(p > bmax):
            raise ValueError(f"keep-clear point outside bounds: {tuple(p)}")

    rng = np.random.default_rng(seed)
    r = params.clear_radius
    buildings: list[Building] = []
    for _ in range(params.count):
        for _attempt in range(params.max_draws_per_building):
            sx = rng.uniform(lo_fp, hi_fp)
            sy = rng.uniform(lo_fp, hi_fp)
            h = rng.uniform(lo_h, hi_h)
            x0 = rng.uniform(bmin[0], bmax[0] - sx)
            y0 = rng.uniform(bmin[1], bmax[1] - sy)
            lo = np.array([x0, y0, bmin[2]])
            hi = np.array([x0 + sx, y0 + sy, bmin[2] + h])
            if not any(np.all(lo - r <= p) and np.all(p <= hi + r) for p in keep):
                buildings.append(Building(tuple(lo), tuple(hi)))
                break
        else:
            raise MapGenerationError(
                f"could not place building {len(buildings) + 1}/{params.count} "
                f"after {params.max_draws_per_building} draws"
            )
    return CityMap(buildings, tuple(bmin), tuple(bmax), seed=seed)
