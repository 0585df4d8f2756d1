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


# Roof grid (see CityMap._build_roof_grid).  Cells are ROOF_CELL_M wide, and
# wider on a map that would otherwise need more than ROOF_GRID_MAX cells along
# an axis, so the grid never holds more than ROOF_GRID_MAX**2 floats.  A
# segment's bounding box that spans up to ROOF_WINDOW cells per axis is read
# cell by cell; a wider one is read as one slice in the scalar query and left
# to the slab test in the batched one.  Batches of up to ROOF_BATCH segments
# read the grid in Python scalars, larger ones in numpy.
ROOF_CELL_M = 10.0
ROOF_GRID_MAX = 256
ROOF_WINDOW = 3
ROOF_BATCH = 16
# cell offsets (di, dj) of a ROOF_WINDOW-square window, row by row
_WINDOW_DI = np.repeat(np.arange(ROOF_WINDOW), ROOF_WINDOW)
_WINDOW_DJ = np.tile(np.arange(ROOF_WINDOW), ROOF_WINDOW)


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
        # plain-float copies of the bounds; the planners hammer these queries,
        # and scalar compares beat tiny-array reductions
        self._bx0, self._by0, self._bz0 = (float(v) for v in self.bounds_min)
        self._bx1, self._by1, self._bz1 = (float(v) for v in self.bounds_max)
        self._build_roof_grid()

    def _build_roof_grid(self) -> None:
        """Highest roof per square xy cell over the bounds, -inf where no building stands.

        A cell holds the tallest building whose closed footprint touches it.
        Cells are ROOF_CELL_M wide, or wider on a map whose extent would need
        more than ROOF_GRID_MAX cells along an axis.  Buildings and queries map
        coordinates to cells with the same monotone function (_cells and
        _roof_clears), so a point shared by a segment's bounding box and a
        building's footprint falls in a cell of both: a segment whose lowest
        z is strictly above every cell its box meets touches no building.
        """
        wx, wy = self._bx1 - self._bx0, self._by1 - self._by0
        self._inv_cell = 1.0 / max(ROOF_CELL_M, wx / ROOF_GRID_MAX, wy / ROOF_GRID_MAX)
        self._last_i = min(ROOF_GRID_MAX, max(1, math.ceil(wx * self._inv_cell))) - 1
        self._last_j = min(ROOF_GRID_MAX, max(1, math.ceil(wy * self._inv_cell))) - 1
        self._roof_origin = np.array([self._bx0, self._by0] * 2)
        self._roof_last = np.array([self._last_i, self._last_j] * 2, dtype=float)
        self._roof = np.full((self._last_i + 1, self._last_j + 1), -math.inf)
        cells = self._cells(self._mins, self._maxs).tolist()
        top = self._maxs[:, 2].tolist()
        # tallest last, so each cell keeps its highest roof
        for k in sorted(range(len(top)), key=top.__getitem__):
            i0, j0, i1, j1 = cells[k]
            self._roof[i0:i1 + 1, j0:j1 + 1] = top[k]

    def _cells(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Roof-grid cells (i0, j0, i1, j1) of the xy boxes lo[k]..hi[k] of two (N, 3) arrays.

        Coordinates outside the bounds clamp to the edge cells.  Clamping the
        float and then truncating gives the same cells as _roof_clears'
        truncating and then clamping.
        """
        c = np.concatenate((lo[:, :2], hi[:, :2]), axis=1)
        c -= self._roof_origin
        c *= self._inv_cell
        np.maximum(c, 0.0, out=c)
        np.minimum(c, self._roof_last, out=c)
        return c.astype(np.intp)

    def _roof_clears(self, p, q) -> bool:
        """True when the roof grid proves segment p-q (two (x, y, z) lists) free of buildings.

        Computes _cells' cells in Python scalars: for one segment, numpy's
        per-call overhead costs more than the arithmetic.
        """
        inv, x0, y0 = self._inv_cell, self._bx0, self._by0
        px, py, pz = p
        qx, qy, qz = q
        if px > qx:
            px, qx = qx, px
        if py > qy:
            py, qy = qy, py
        i0, i1 = int((px - x0) * inv), int((qx - x0) * inv)
        j0, j1 = int((py - y0) * inv), int((qy - y0) * inv)
        # clamp to the grid; i0 <= i1 and j0 <= j1 already
        if i0 < 0:
            i0 = 0
            i1 = max(i1, 0)
        if i1 > self._last_i:
            i1 = self._last_i
            i0 = min(i0, i1)
        if j0 < 0:
            j0 = 0
            j1 = max(j1, 0)
        if j1 > self._last_j:
            j1 = self._last_j
            j0 = min(j0, j1)
        z = pz if pz < qz else qz
        if i1 - i0 >= ROOF_WINDOW or j1 - j0 >= ROOF_WINDOW:
            return z > self._roof[i0:i1 + 1, j0:j1 + 1].max()
        roof = self._roof.item
        for i in range(i0, i1 + 1):
            for j in range(j0, j1 + 1):
                if roof(i, j) >= z:
                    return False
        return True

    def _roof_open(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Per box lo[k]..hi[k]: False when the roof grid proves its segment free.

        Reads a ROOF_WINDOW-square window of cells from each box's low
        corner, each index clamped to the box's high cell, so the window
        covers exactly the box's cells when the box spans at most
        ROOF_WINDOW cells per axis.  A wider box is left open.
        """
        c = self._cells(lo, hi)
        ii = np.minimum(c[:, 0:1] + _WINDOW_DI, c[:, 2:3])
        jj = np.minimum(c[:, 1:2] + _WINDOW_DJ, c[:, 3:4])
        wide = (c[:, 2:] - c[:, :2] >= ROOF_WINDOW).any(axis=1)
        return wide | (lo[:, 2] <= self._roof[ii, jj].max(axis=1))

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
        q = p.tolist()
        if self._roof_clears(q, q):
            return True
        inside = np.all((self._mins <= p) & (p <= self._maxs), axis=1)
        return not bool(inside.any())

    def segment_collides(self, a, b) -> bool:
        """True iff segment a-b touches any building or leaves the bounds.

        The one-segment case of segments_collide, answered in Python scalars
        up to the slab test: a tree planner's segments often end at the
        bounds or the roof grid, and for one segment numpy's per-call overhead
        costs more than the arithmetic.
        """
        return self._segment_collides(as_point(a), as_point(b))

    def _segment_collides(self, a: np.ndarray, b: np.ndarray) -> bool:
        """segment_collides for two float64 points the caller has validated."""
        pa, pb = a.tolist(), b.tolist()
        if not self._inside(pa) or not self._inside(pb):
            return True
        if self._roof_clears(pa, pb):
            return False
        return bool(self._slab_hits(a[None], b[None])[0])

    def segments_collide(self, starts, ends) -> np.ndarray:
        """One flag per segment starts[k]-ends[k]: True iff it touches a building or leaves the bounds.

        Takes two (S, 3) arrays of finite coordinates.  The roof grid clears
        the segments it can; the rest go to the slab method per building,
        with the intersection parameter clipped to [0, 1].  Leaving the
        bounds and boundary grazing count as collisions (closed-set
        convention).
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

        Only the segments the roof grid does not clear reach the slab test.
        A batch of up to ROOF_BATCH segments reads the grid in Python
        scalars, a larger one in numpy, whose per-call overhead a few
        segments do not repay.
        """
        if len(a) > ROOF_BATCH:
            k = np.flatnonzero(self._roof_open(np.minimum(a, b), np.maximum(a, b)))
        else:
            k = [s for s, (p, q) in enumerate(zip(a.tolist(), b.tolist()))
                 if not self._roof_clears(p, q)]
        hit = np.zeros(len(a), dtype=bool)
        if len(k):
            hit[k] = self._slab_hits(a[k], b[k])
        return hit

    def _slab_hits(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The narrow phase of _touch_buildings: the slab test against every nearby building."""
        hit = np.zeros(len(a), dtype=bool)
        # a segment can only touch a building whose closed box overlaps the
        # segment's own bounding box
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
        return self._clearance(p)

    def _clearance(self, p: np.ndarray) -> float:
        """clearance for a float64 point inside the bounds that the caller has validated.

        Takes one square root, of the smallest squared distance: the root is
        monotone and correctly rounded, so that equals the smallest root.
        """
        if not self.buildings:
            return math.inf
        delta = np.maximum(np.maximum(self._mins - p, p - self._maxs), 0.0)
        return math.sqrt((delta * delta).sum(axis=1).min())

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
