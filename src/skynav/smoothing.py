"""Clamped B-spline smoothing of planner paths with a collision-checked fallback."""
from __future__ import annotations

import numpy as np

from .env import CityMap


def clamped_knots(n_control: int, degree: int) -> np.ndarray:
    """Clamped uniform knot vector on [0, 1] with degree+1 repeats at each end."""
    if degree < 1:
        raise ValueError("degree must be at least 1")
    if n_control <= degree:
        raise ValueError("need more control points than the degree")
    interior = np.linspace(0.0, 1.0, n_control - degree + 1)[1:-1]
    return np.concatenate([np.zeros(degree + 1), interior, np.ones(degree + 1)])


def sample_curve(control_points, degree: int, samples_per_span: int) -> np.ndarray:
    """Evaluate the clamped spline at uniform parameters.

    The sample count is samples_per_span per knot span plus the final
    endpoint, so the polyline always starts and ends on the curve endpoints.
    Each sample weighs only the degree+1 control points of its knot span.
    The weights come from the Cox-de Boor recursion, run for all samples at
    once.  0/0 terms are taken as zero, and the parameter range is closed on
    the right: u equal to the final knot belongs to the last non-empty span,
    so the curve interpolates the last control point exactly.
    """
    control_points = np.asarray(control_points, dtype=float)
    n = len(control_points)
    knots = clamped_knots(n, degree)
    spans = n - degree
    us = np.linspace(0.0, 1.0, samples_per_span * spans + 1)
    u = us[:, None]
    span = np.searchsorted(knots, us, side="right") - 1
    span = np.clip(span, degree, n - 1)
    # N_{i,0} for i = span-degree .. span+degree: every degree-0 function that
    # the degree-p functions of the span's control window recurse into
    idx = span[:, None] + np.arange(-degree, degree + 1)
    k0, k1 = knots[idx], knots[idx + 1]
    last = knots[-1]
    weights = ((k0 <= u) & (u < k1)
               | (u == last) & (k0 < k1) & (k1 == last)).astype(float)
    for q in range(1, degree + 1):
        i = idx[:, : weights.shape[1] - 1]
        left_den = knots[i + q] - knots[i]
        right_den = knots[i + q + 1] - knots[i + 1]
        left_on = left_den > 0.0
        right_on = right_den > 0.0
        # terms with a zero denominator are skipped
        left = (u - knots[i]) / np.where(left_on, left_den, 1.0) * weights[:, :-1]
        right = (knots[i + q + 1] - u) / np.where(right_on, right_den, 1.0) * weights[:, 1:]
        weights = 0.0 + np.where(left_on, left, 0.0)
        weights = weights + np.where(right_on, right, 0.0)
    points = np.zeros((len(us), 3))
    for j in range(degree + 1):
        w = weights[:, j, None]
        points = points + np.where(w != 0.0, w * control_points[idx[:, j]], 0.0)
    return points


def smooth_path(path, city: CityMap, samples_per_span: int = 8) -> np.ndarray:
    """Resample a waypoint path through a cubic clamped B-spline.

    The raw waypoints act as the control polygon; the degree drops to
    len(path) - 1 for very short paths.  If any segment of the smoothed
    polyline collides with the map, the raw path is returned unchanged so a
    feasible plan never gets worse.
    """
    path = np.asarray(path, dtype=float)
    if path.ndim != 2 or path.shape[1] != 3 or len(path) < 2:
        raise ValueError("path must contain at least two 3D waypoints")
    if samples_per_span < 1:
        raise ValueError("samples_per_span must be at least 1")
    degree = min(3, len(path) - 1)
    smoothed = sample_curve(path, degree, samples_per_span)
    if city.segments_collide(smoothed[:-1], smoothed[1:]).any():
        return path.copy()
    return smoothed
