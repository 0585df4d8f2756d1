"""Urban world model: procedural building layouts and collision queries.

The map is an axis-aligned box of airspace over a flat ground plane populated
with box-shaped buildings.  All geometry is treated as closed sets: touching a
building surface, or leaving the map bounds, counts as a collision.
"""
from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np


# Column index (see CityMap._build_columns).  Columns cut the x extent into
# strips COLUMN_M wide, and wider on a map that would otherwise need more than
# COLUMN_MAX of them, so the index holds at most COLUMN_MAX references per
# building.  A segment whose x-range spans up to COLUMN_WINDOW columns is
# checked box by box in Python floats; a wider one, never a tree step of at
# most 15 m, goes to the batched slab test.
COLUMN_M = 10.0
COLUMN_MAX = 256
COLUMN_WINDOW = 3
# smallest normal float64; the slab tests treat a smaller move as none
TINY = sys.float_info.min


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
        if not np.all(self.bounds_min < self.bounds_max):
            raise ValueError("map bounds must have positive extent on every axis")
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
        self._build_columns()

    def _build_columns(self) -> None:
        """Per x-column of the bounds, the boxes of the buildings that reach into it.

        self._columns[i] lists the (x0, y0, z0, x1, y1, z1) float tuples of
        every building whose closed x-range meets column i.  Columns are
        COLUMN_M wide, or wider on a map whose x extent would need more than
        COLUMN_MAX of them.  Buildings and queries map x to a column with the
        one monotone _column_span, so a point shared by a segment's x-range
        and a building's falls in a column of both: a segment touches only
        buildings listed in the columns its x-range spans.
        """
        wx = self._bx1 - self._bx0
        self._inv_col = 1.0 / max(COLUMN_M, wx / COLUMN_MAX)
        self._last_col = min(COLUMN_MAX, max(1, math.ceil(wx * self._inv_col))) - 1
        self._columns = [[] for _ in range(self._last_col + 1)]
        for b in self.buildings:
            box = b.min_corner + b.max_corner
            i0, i1 = self._column_span(box[0], box[3])
            for i in range(i0, i1 + 1):
                self._columns[i].append(box)

    def _column_span(self, x0: float, x1: float) -> tuple[int, int]:
        """Columns (i0, i1) of the x-range [x0, x1] inside the bounds; needs x0 <= x1.

        Truncates, then clamps to the last column, which a coordinate on the
        high bound can overrun; inside the bounds no index is negative.
        """
        inv, bx = self._inv_col, self._bx0
        i0, i1 = int((x0 - bx) * inv), int((x1 - bx) * inv)
        if i1 > self._last_col:
            i1 = self._last_col
            i0 = min(i0, i1)
        return i0, i1

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
        p = as_point(p)
        return not self._segment_collides(p, p)

    def segment_collides(self, a, b) -> bool:
        """True iff segment a-b touches any building or leaves the bounds.

        The one-segment case of segments_collide, answered in Python floats
        over the column index: for one segment against a few boxes, numpy's
        per-call overhead costs more than the arithmetic.
        """
        return self._segment_collides(as_point(a), as_point(b))

    def _segment_collides(self, a: np.ndarray, b: np.ndarray) -> bool:
        """segment_collides for two float64 points the caller has validated.

        Scans the boxes listed in the columns the segment's x-range spans,
        with the closed box-overlap test and then _slab; a segment spanning
        more than COLUMN_WINDOW columns goes to the batched slab test.
        """
        pa, pb = a.tolist(), b.tolist()
        if not self._inside(pa) or not self._inside(pb):
            return True
        (ax, ay, az), (bx, by, bz) = pa, pb
        x0, x1 = (ax, bx) if ax <= bx else (bx, ax)
        i0, i1 = self._column_span(x0, x1)
        if i1 - i0 >= COLUMN_WINDOW:
            return bool(self._touch_buildings(a[None], b[None])[0])
        y0, y1 = (ay, by) if ay <= by else (by, ay)
        z0, z1 = (az, bz) if az <= bz else (bz, az)
        for column in self._columns[i0:i1 + 1]:
            for box in column:
                if (box[0] <= x1 and x0 <= box[3] and box[1] <= y1 and y0 <= box[4]
                        and box[2] <= z1 and z0 <= box[5] and _slab(pa, pb, box)):
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

        The slab test.  A segment can only touch a building whose closed box
        overlaps the segment's own bounding box; only those pairs reach the
        narrow phase, computed with one row per axis.
        """
        hit = np.zeros(len(a), dtype=bool)
        seg_lo = np.minimum(a, b)[:, :, None]
        seg_hi = np.maximum(a, b)[:, :, None]
        near = ((self._lo <= seg_hi) & (seg_lo <= self._hi)).all(axis=1)
        seg, bld = np.nonzero(near)
        if seg.size == 0:
            return hit
        a = a[seg].T
        d = b[seg].T - a
        # axis-parallel segments never cross that axis' slab planes: either the
        # whole line is inside the slab or it misses the box outright.  The
        # broad phase kept only pairs whose boxes overlap on every axis, which
        # on a parallel axis means the line lies inside the slab.  A subnormal
        # move counts as parallel too: its reciprocal can overflow, and a zero
        # times inf is a NaN parameter that would miss the box; as parallel it
        # errs toward a hit by less than the smallest normal float.
        parallel = np.abs(d) < TINY
        inv = 1.0 / np.where(parallel, 1.0, d)
        t1 = (self._lo[:, bld] - a) * inv
        t2 = (self._hi[:, bld] - a) * inv
        lo = np.where(parallel, -np.inf, np.minimum(t1, t2))
        hi = np.where(parallel, np.inf, np.maximum(t1, t2))
        tmin = np.maximum(lo.max(axis=0), 0.0)
        tmax = np.minimum(hi.min(axis=0), 1.0)
        hit[seg[tmin <= tmax]] = True
        return hit

    def clearance(self, p) -> float:
        """Euclidean distance from p to the nearest building surface.

        Returns 0 for points inside a building and +inf on an empty map.  The
        bounding walls of the map do not count as obstacles here.
        """
        p = as_point(p)
        if not self._inside(p):
            raise ValueError(f"clearance queried outside map bounds: {tuple(p)}")
        return self._clearance(p)

    def _clearance(self, p: np.ndarray) -> float:
        """clearance for a finite point inside the bounds that the caller has validated.

        p may be any (x, y, z) array-like.  Takes one square root, of the
        smallest squared distance: the root is monotone and correctly
        rounded, so that equals the smallest root.
        """
        if not self.buildings:
            return math.inf
        p = np.asarray(p)[:, None]
        delta = np.maximum(np.maximum(self._lo - p, p - self._hi), 0.0)
        return math.sqrt((delta * delta).sum(axis=0).min())

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


def _slab(a: list, b: list, box: tuple) -> bool:
    """True iff segment a-b meets the closed box (x0, y0, z0, x1, y1, z1): the slab test.

    A scalar copy of CityMap._touch_buildings' narrow phase for one pair
    whose boxes overlap: the same IEEE operations in the same order, which
    Python floats round as float64 ufuncs do, so the two answers match bit
    for bit.  An axis the segment does not move along, or moves along by less
    than the smallest normal float, is skipped, as it is there, and a NaN
    parameter misses, as it does in numpy.
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
    if params.count < 0:
        raise ValueError("building count must be non-negative")
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
            blocked = any(
                np.all(lo - r <= p) and np.all(p <= hi + r) for p in keep
            )
            if not blocked:
                buildings.append(Building(tuple(lo), tuple(hi)))
                break
        else:
            raise MapGenerationError(
                f"could not place building {len(buildings) + 1}/{params.count} "
                f"after {params.max_draws_per_building} draws"
            )
    return CityMap(buildings, tuple(bmin), tuple(bmax), seed=seed)
