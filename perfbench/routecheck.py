"""Output check for routes, independent of skynav's own collision code.

A route is checked against the building boxes and bounds read from
``CityMap.to_dict()`` by sampling every segment densely; it never calls
``CityMap.segment_collides`` or ``point_free``.  Buildings and bounds are
closed sets, as in skynav: a sample on a building face is a collision.
"""
from __future__ import annotations

import hashlib
import math

import numpy as np

# sample spacing along each segment, in metres
SPACING = 0.2
# start must match exactly up to rounding; the end may stop inside the goal region
ENDPOINT_TOL = 1e-6


class RouteChecker:
    """Checks routes flown over one map."""

    def __init__(self, city_dict: dict):
        boxes = city_dict["buildings"]
        self.lo = np.array([b["min"] for b in boxes], dtype=float).reshape(len(boxes), 3)
        self.hi = np.array([b["max"] for b in boxes], dtype=float).reshape(len(boxes), 3)
        self.bounds_lo = np.array(city_dict["bounds"]["min"], dtype=float)
        self.bounds_hi = np.array(city_dict["bounds"]["max"], dtype=float)

    def violations(self, route, start, goal, goal_tol: float) -> list[str]:
        """Reasons the route is not a valid flight from start to goal; empty if valid."""
        r = np.asarray(route, dtype=float)
        if r.ndim != 2 or r.shape[1] != 3 or len(r) < 2:
            return [f"route has shape {r.shape}, need (N>=2, 3)"]
        if not np.isfinite(r).all():
            return ["route has non-finite coordinates"]
        problems = []
        if math.dist(r[0], start) > ENDPOINT_TOL:
            problems.append(f"starts at {r[0].tolist()}, not at {list(start)}")
        if math.dist(r[-1], goal) > goal_tol + ENDPOINT_TOL:
            problems.append(f"ends {math.dist(r[-1], goal):.3f} m from the goal")
        pts = dense_samples(r)
        outside = ((pts < self.bounds_lo) | (pts > self.bounds_hi)).any(axis=1)
        if outside.any():
            problems.append(f"leaves the map at {pts[outside][0].tolist()}")
        for k in range(0, len(pts), 4096):
            chunk = pts[k:k + 4096, None, :]
            hit = ((self.lo <= chunk) & (chunk <= self.hi)).all(axis=2)
            if hit.any():
                i, b = np.argwhere(hit)[0]
                problems.append(f"touches building {b} at {pts[k + i].tolist()}")
                break
        return problems


def dense_samples(route: np.ndarray) -> np.ndarray:
    """Points along every segment at most SPACING apart, endpoints included."""
    a, b = route[:-1], route[1:]
    n = np.maximum(np.ceil(np.linalg.norm(b - a, axis=1) / SPACING), 1).astype(int)
    seg = np.repeat(np.arange(len(a)), n)
    # parameter of each sample within its segment: 0, 1/n, ..., (n-1)/n
    first = np.cumsum(n) - n
    t = (np.arange(n.sum()) - np.repeat(first, n)) / np.repeat(n, n)
    pts = a[seg] + t[:, None] * (b - a)[seg]
    return np.vstack([pts, route[-1:]])


def route_digest(routes) -> str:
    """sha256 over the exact bytes and shapes of a request's routes (None allowed)."""
    h = hashlib.sha256()
    for r in routes:
        if r is None:
            h.update(b"none;")
            continue
        a = np.ascontiguousarray(r, dtype=np.float64)
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()
