"""Urban world model: procedural building layouts and collision queries.

The map is an axis-aligned box of airspace over a flat ground plane populated
with box-shaped buildings.  All geometry is treated as closed sets: touching a
building surface, or leaving the map bounds, counts as a collision.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np


class MapGenerationError(RuntimeError):
    """Raised when a building layout cannot be placed within the draw budget."""


def as_point(p) -> np.ndarray:
    """Coerce an (x, y, z) array-like to a finite float64 vector of shape (3,)."""
    a = np.asarray(p, dtype=float)
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
        # stacked corners for vectorised queries
        n = len(self.buildings)
        self._mins = np.array([b.min_corner for b in self.buildings], dtype=float).reshape(n, 3)
        self._maxs = np.array([b.max_corner for b in self.buildings], dtype=float).reshape(n, 3)
        outside = ((self._mins < self.bounds_min) | (self._maxs > self.bounds_max)).any(axis=1)
        if outside.any():
            b = self.buildings[int(np.argmax(outside))]
            raise ValueError(f"{b} extends beyond the map bounds")
        # plain-float copies of the bounds and the tallest roof; the planners
        # hammer these queries, and scalar compares beat tiny-array reductions
        self._bx0, self._by0, self._bz0 = (float(v) for v in self.bounds_min)
        self._bx1, self._by1, self._bz1 = (float(v) for v in self.bounds_max)
        self._top_z = float(self._maxs[:, 2].max()) if n else -math.inf

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
        """
        p = as_point(p)
        if not self._inside(p):
            return False
        if not self.buildings or p[2] > self._top_z:
            return True
        inside = np.all((self._mins <= p) & (p <= self._maxs), axis=1)
        return not bool(inside.any())

    def segment_collides(self, a, b) -> bool:
        """True iff segment a-b touches any building or leaves the bounds.

        The one-segment case of segments_collide.  Its bounds and
        above-the-roof answers come from scalar compares first: a tree
        planner's segments often end there, and for one segment numpy's
        per-call overhead costs more than the arithmetic.
        """
        a = as_point(a)
        b = as_point(b)
        if not self._inside(a) or not self._inside(b):
            return True
        if a[2] > self._top_z and b[2] > self._top_z:
            return False
        return bool(self._touch_buildings(a[None], b[None])[0])

    def segments_collide(self, starts, ends) -> np.ndarray:
        """One flag per segment starts[k]-ends[k]: True iff it touches a building or leaves the bounds.

        Takes two (S, 3) arrays of finite coordinates.  Uses the slab method
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
        """Per segment a[k]-b[k] of an (S, 3) pair: True iff it touches a building."""
        hit = np.zeros(len(a), dtype=bool)
        # broad phase: a segment can only touch a building whose closed box
        # overlaps the segment's own bounding box.  This also clears every
        # segment flown strictly above the tallest roof, since a segment never
        # dips below the lower of its endpoints.
        seg_lo = np.minimum(a, b)[:, None, :]
        seg_hi = np.maximum(a, b)[:, None, :]
        near = ((self._mins <= seg_hi) & (seg_lo <= self._maxs)).all(axis=2)
        seg, bld = np.nonzero(near)
        if seg.size == 0:
            return hit
        a = a[seg]
        d = b[seg] - a
        mins = self._mins[bld]
        maxs = self._maxs[bld]
        # axis-parallel segments never cross that axis' slab planes: either the
        # whole line is inside the slab or it misses the box outright.  The
        # broad phase kept only pairs whose boxes overlap on every axis, which
        # on a parallel axis means the line lies inside the slab.
        parallel = d == 0.0
        inv = 1.0 / np.where(parallel, 1.0, d)
        t1 = (mins - a) * inv
        t2 = (maxs - a) * inv
        lo = np.where(parallel, -np.inf, np.minimum(t1, t2))
        hi = np.where(parallel, np.inf, np.maximum(t1, t2))
        tmin = np.maximum(lo.max(axis=1), 0.0)
        tmax = np.minimum(hi.min(axis=1), 1.0)
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
        if not self.buildings:
            return math.inf
        delta = np.maximum(np.maximum(self._mins - p, p - self._maxs), 0.0)
        return float(np.sqrt((delta * delta).sum(axis=1)).min())

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
        try:
            lo, hi = data["bounds"]["min"], data["bounds"]["max"]
            buildings = [Building(tuple(b["min"]), tuple(b["max"])) for b in data["buildings"]]
        except KeyError as exc:
            raise ValueError(f"map data is missing the {exc.args[0]!r} key") from None
        return cls(buildings, lo, hi, seed=data.get("seed"))


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
