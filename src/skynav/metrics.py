"""Path quality measures: length, turning angles, sharp-turn counts."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# a turn is "sharp" when the heading changes by strictly more than this
SHARP_TURN_DEG = 45.0


def _as_path(path, name: str = "path") -> np.ndarray:
    message = f"{name} must be a non-empty (N, 3) array of finite waypoints"
    try:
        p = np.asarray(path, dtype=float)
    except TypeError:
        raise ValueError(message) from None
    if p.ndim != 2 or p.shape[1] != 3 or len(p) < 1 or not np.isfinite(p).all():
        raise ValueError(message)
    return p


def dedupe(path) -> np.ndarray:
    """Drop consecutive waypoints that repeat exactly."""
    p = _as_path(path)
    if len(p) == 1:
        return p.copy()
    keep = np.ones(len(p), dtype=bool)
    keep[1:] = np.any(p[1:] != p[:-1], axis=1)
    return p[keep]


def path_length(path) -> float:
    """Total Euclidean length along the waypoints, in meters."""
    p = _as_path(path)
    if len(p) < 2:
        return 0.0
    steps = np.diff(p, axis=0)
    return float(np.sqrt((steps * steps).sum(axis=1)).sum())


def turn_angles(path) -> np.ndarray:
    """Heading change at each interior waypoint, in degrees within [0, 180].

    Exact duplicate waypoints are merged first so every segment has a defined
    direction.
    """
    p = dedupe(path)
    if len(p) < 3:
        return np.empty(0)
    v = np.diff(p, axis=0)
    units = v / np.linalg.norm(v, axis=1, keepdims=True)
    cos = np.clip((units[:-1] * units[1:]).sum(axis=1), -1.0, 1.0)
    return np.degrees(np.arccos(cos))


@dataclass(frozen=True)
class PathMetrics:
    """Per-path summary; smoothed fields stay None when no smoothing ran."""

    length_m: float
    waypoints: int
    max_turn_deg: float
    sharp_turns: int
    smoothed_length_m: float | None = None
    max_turn_smoothed_deg: float | None = None
    sharp_turns_smoothed: int | None = None


@dataclass(frozen=True)
class TrialRecord:
    """One planner run inside a benchmark.

    elapsed_s is the planner's own time; smooth_s is the time spent
    smoothing its route, None when no route was smoothed.
    """

    algorithm: str
    seed: int
    success: bool
    elapsed_s: float
    smooth_s: float | None
    explored_nodes: int
    metrics: PathMetrics | None


def _turns(path: np.ndarray) -> tuple[float, int]:
    """Largest turn angle (0 without an interior waypoint) and the sharp-turn count."""
    angles = turn_angles(path)
    return (float(angles.max()) if len(angles) else 0.0), int((angles > SHARP_TURN_DEG).sum())


def summarize(path, smoothed=None) -> PathMetrics:
    """Metrics for a raw path and, optionally, its smoothed counterpart."""
    p = _as_path(path)
    raw = (path_length(p), len(p), *_turns(p))
    if smoothed is None:
        return PathMetrics(*raw)
    s = _as_path(smoothed, "smoothed")
    return PathMetrics(*raw, path_length(s), *_turns(s))
