"""Clamped B-spline smoothing of planner paths with a collision-checked fallback."""
from __future__ import annotations

import functools

import numpy as np

from .env import CityMap, check_count

# Bounds of sample_curve and of the basis memo (see _basis).  The degree is
# at most MAX_DEGREE, the paper's cubic; the basis takes time quadratic in
# it.  A curve may have at most MAX_CURVE_SAMPLES samples: computing its
# basis peaks near 550 B a sample at degree 3, about 150 MB at the cap.
# smooth_path returns a route whose curve would be longer unsmoothed, and
# refuses a samples_per_span above MAX_SAMPLES_PER_SPAN, which no route, not
# even a one-span line, could be smoothed at.  Only curves of at most
# MEMO_MAX_SAMPLES samples are memoized; an entry holds an int64 index and a
# float64 weight per sample and control point of its span, at most 256 kB at
# degree 3, so the memo of BASIS_MEMO entries holds at most 64 MB.
MAX_DEGREE = 3
MAX_CURVE_SAMPLES = 2**18
MAX_SAMPLES_PER_SPAN = MAX_CURVE_SAMPLES - 1
MEMO_MAX_SAMPLES = 2**12
BASIS_MEMO = 256


def clamped_knots(n_control: int, degree: int) -> np.ndarray:
    """Clamped uniform knot vector on [0, 1] with degree+1 repeats at each end.

    degree must be an integer from 1 to MAX_DEGREE, and n_control an
    integer that exceeds it by 1 to MAX_SAMPLES_PER_SPAN, the most knot
    spans a curve of MAX_CURVE_SAMPLES samples can have; else ValueError,
    raised before anything is allocated.
    """
    n_control = check_count(n_control, "n_control")
    degree = check_count(degree, "degree", MAX_DEGREE)
    if n_control <= degree:
        raise ValueError("need more control points than the degree")
    if n_control - degree > MAX_SAMPLES_PER_SPAN:
        raise ValueError(f"{n_control - degree:,} knot spans are more than a curve of "
                         f"{MAX_CURVE_SAMPLES:,} samples can have")
    interior = np.linspace(0.0, 1.0, n_control - degree + 1)[1:-1]
    return np.concatenate([np.zeros(degree + 1), interior, np.ones(degree + 1)])


def sample_curve(control_points, degree: int, samples_per_span: int) -> np.ndarray:
    """Evaluate the clamped spline at uniform parameters.

    The sample count is samples_per_span per knot span plus the final
    endpoint, so the polyline always starts and ends on the curve endpoints.
    Each sample weighs only the degree+1 control points of its knot span,
    with weights from _basis, memoized for curves of at most
    MEMO_MAX_SAMPLES samples.  A curve of more than MAX_CURVE_SAMPLES samples
    raises ValueError before any is computed, as do a degree that is not an
    integer from 1 to MAX_DEGREE and control points that are not an (n, 3)
    array of finite numbers.  Returns a fresh array.

    A sample is the sum of its weighted control points in window order,
    started as the first term plus 0.0.  That sum is never -0.0, so adding a
    term of zero weight (a signed zero, as the points are finite) changes
    nothing: the same bits as skipping it.
    """
    control_points = np.asarray(control_points, dtype=float)
    if control_points.ndim != 2 or control_points.shape[1] != 3:
        # a flat array would broadcast each term to (samples, samples)
        raise ValueError(f"control points must be an (n, 3) array, got shape {control_points.shape}")
    n = len(control_points)
    degree = check_count(degree, "degree", MAX_DEGREE)
    samples_per_span = check_count(samples_per_span, "samples_per_span")
    samples = samples_per_span * (n - degree) + 1
    if samples > MAX_CURVE_SAMPLES:
        raise ValueError(f"a curve of {samples:,} samples is longer than "
                         f"{MAX_CURVE_SAMPLES:,}; use fewer samples per span")
    if not np.isfinite(control_points).all():
        raise ValueError("control points must be finite")
    basis = _basis if samples <= MEMO_MAX_SAMPLES else _basis.__wrapped__
    idx, weights = basis(n, degree, samples_per_span)
    terms = weights[:, :, None] * control_points[idx]
    points = terms[:, 0] + 0.0
    for j in range(1, degree + 1):
        points += terms[:, j]
    return points


@functools.lru_cache(maxsize=BASIS_MEMO)
def _basis(n: int, degree: int, samples_per_span: int) -> tuple[np.ndarray, np.ndarray]:
    """(idx, weights): sample s weighs control point idx[s, j] by weights[s, j].

    Both are read-only (samples, degree + 1) arrays, memoized: the knots and
    the sample parameters, and so the basis, depend only on the arguments
    (Piegl & Tiller, The NURBS Book, ch. 2).  sample_curve memoizes only
    curves of at most MEMO_MAX_SAMPLES samples, so the BASIS_MEMO entries
    hold at most 64 MB; _basis.__wrapped__ computes longer ones.  The
    weights come from the Cox-de Boor recursion, run for all samples at
    once.  0/0 terms are taken as zero, and the parameter range is closed on
    the right: u equal to the final knot belongs to the last non-empty span,
    so the curve interpolates the last control point exactly.
    """
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
    # the accumulation reads only the span's own degree + 1 control points
    idx = idx[:, : degree + 1].copy()
    idx.flags.writeable = False
    weights.flags.writeable = False
    return idx, weights


def smooth_path(path, city: CityMap, samples_per_span: int = 8) -> np.ndarray:
    """Resample a waypoint path through a cubic clamped B-spline.

    The raw waypoints act as the control polygon; the degree drops to
    len(path) - 1 for very short paths.  If any segment of the smoothed
    polyline collides with the map, the raw path is returned unchanged so a
    feasible plan never gets worse; so is a route whose curve would have
    more than MAX_CURVE_SAMPLES samples, and a one-waypoint route, which the
    tree planners return when the start lies inside the goal region.  path
    must be a finite (N, 3) array with N >= 1 and samples_per_span an integer
    from 1 to MAX_SAMPLES_PER_SPAN, else ValueError.
    """
    path = np.asarray(path, dtype=float)
    if path.ndim != 2 or path.shape[1] != 3 or len(path) < 1:
        raise ValueError("path must contain at least one 3D waypoint")
    if not np.isfinite(path).all():
        raise ValueError("path waypoints must be finite")
    samples_per_span = check_count(samples_per_span, "samples_per_span", MAX_SAMPLES_PER_SPAN)
    degree = min(MAX_DEGREE, len(path) - 1)
    if degree == 0 or samples_per_span * (len(path) - degree) + 1 > MAX_CURVE_SAMPLES:
        return path.copy()
    smoothed = sample_curve(path, degree, samples_per_span)
    if city.segments_collide(smoothed[:-1], smoothed[1:]).any():
        return path.copy()
    return smoothed
