"""Positivity-preserving compression of reconstructed polynomials.

A polynomial whose value dips below the floor at any relevant quadrature
point is pulled affinely toward its (positive) cell average, which keeps
the average exact while bounding the quadrature-point values from below.
Combined with positive quadrature weights this makes every intersection
integral, and hence every remapped average, non-negative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .integrate import Poly2

# the positivity floor: limited values at the quadrature points stay >= it
POSITIVITY_FLOOR = 1e-14


class LimiterError(ValueError):
    """Contract violation: the cell average is below the positivity floor."""


@dataclass
class QuadPointGroup:
    """Quadrature points of all intersections of one source cell."""

    cell: int
    points: np.ndarray  # (m, 2) physical coordinates

    def __post_init__(self):
        self.points = np.asarray(self.points, float).reshape(-1, 2)


def positivity_limit(p: Poly2, cell_avg: float,
                     points: QuadPointGroup | np.ndarray) -> Poly2:
    """Compress p toward its cell average until all point values clear
    POSITIVITY_FLOOR.

    Returns p unchanged when the minimum over the point group already
    clears the floor. The compressed polynomial theta*p + (1-theta)*avg has
    the same cell average (affine combination).
    """
    eps = POSITIVITY_FLOOR
    if cell_avg < eps:
        raise LimiterError(
            f"cell average {cell_avg!r} below the positivity floor {eps!r}")
    pts = points.points if isinstance(points, QuadPointGroup) else \
        np.asarray(points, float).reshape(-1, 2)
    if len(pts) == 0:
        return p
    m = float(p.eval(pts[:, 0], pts[:, 1]).min())
    if m >= eps:
        return p
    theta = min(1.0, abs(cell_avg - eps) / abs(cell_avg - m))
    # shave one part in 1e15 so evaluation round-off cannot dip below the
    # floor; the average is preserved exactly for any theta
    theta *= 1.0 - 1e-15
    coeffs = p.coeffs * theta
    coeffs[0, 0] += (1.0 - theta) * cell_avg
    return Poly2(coeffs, p.cx, p.cy, p.h)
