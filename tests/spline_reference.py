"""Scalar Cox-de Boor reference for skynav.smoothing.sample_curve.

sample_curve runs this recursion for all samples at once with the same
operations in the same order, so each of its samples equals ``evaluate`` at
that parameter bit for bit.  The tests compare the two, and check both against
``de_boor``, an independent triangular de Boor recursion.
"""
from __future__ import annotations

import numpy as np


def basis(i: int, degree: int, u: float, knots: np.ndarray) -> float:
    """Cox-de Boor basis value N_{i,degree}(u).  0/0 terms are taken as zero.

    The parameter range is closed on the right: u equal to the final knot
    belongs to the last non-empty span, so clamped curves interpolate the
    last control point exactly.
    """
    if degree == 0:
        if knots[i] <= u < knots[i + 1]:
            return 1.0
        if u == knots[-1] and knots[i] < knots[i + 1] and knots[i + 1] == knots[-1]:
            return 1.0
        return 0.0
    total = 0.0
    left_den = knots[i + degree] - knots[i]
    if left_den > 0.0:
        total += (u - knots[i]) / left_den * basis(i, degree - 1, u, knots)
    right_den = knots[i + degree + 1] - knots[i + 1]
    if right_den > 0.0:
        total += (knots[i + degree + 1] - u) / right_den * basis(i + 1, degree - 1, u, knots)
    return total


def evaluate(control_points: np.ndarray, degree: int, knots: np.ndarray, u: float) -> np.ndarray:
    """Curve point sum(N_{i,degree}(u) * P_i) over the active control window."""
    n = len(control_points)
    span = int(np.searchsorted(knots, u, side="right")) - 1
    span = min(max(span, degree), n - 1)
    point = np.zeros(3)
    for i in range(span - degree, span + 1):
        w = basis(i, degree, u, knots)
        if w != 0.0:
            point = point + w * control_points[i]
    return point


def de_boor(control, degree, knots, u):
    """Triangular de Boor recursion, independent of the basis-sum evaluator."""
    control = np.asarray(control, dtype=float)
    n = len(control)
    k = int(np.searchsorted(knots, u, side="right")) - 1
    k = min(max(k, degree), n - 1)
    d = [control[j + k - degree].copy() for j in range(degree + 1)]
    for r in range(1, degree + 1):
        for j in range(degree, r - 1, -1):
            i = j + k - degree
            den = knots[i + degree - r + 1] - knots[i]
            alpha = 0.0 if den == 0.0 else (u - knots[i]) / den
            d[j] = (1.0 - alpha) * d[j - 1] + alpha * d[j]
    return d[degree]
