"""Positivity-preserving compression of reconstructed polynomials.

A polynomial whose value dips below the floor at any relevant quadrature
point is pulled affinely toward its (positive) cell average, which keeps
the average exact while bounding the quadrature-point values from below.
Combined with positive quadrature weights this makes every intersection
integral, and hence every remapped average, non-negative.
"""

from __future__ import annotations

import numpy as np

# the positivity floor: limited values at the quadrature points stay >= it
POSITIVITY_FLOOR = 1e-14


class LimiterError(ValueError):
    """Contract violation: the cell average is below the positivity floor."""


def positivity_limit(coeffs: np.ndarray, frames: np.ndarray, averages,
                     chunks) -> np.ndarray:
    """Compress every cell's polynomial toward its cell average until all
    its point values clear POSITIVITY_FLOOR.

    coeffs (C, na, nb) holds c[a, b] of X^a Y^b with X = (x - cx) / h,
    Y = (y - cy) / h, and frames (C, 3) each cell's (cx, cy, h). chunks
    yields (cells, counts, x, y): the points of some loops, each loop's
    points together, with the loop's cell and its point count. Each cell's
    minimum over its points decides theta, and the compressed polynomial
    theta*p + (1-theta)*avg has the same cell average (affine combination).
    Returns coeffs itself when every cell's minimum clears the floor, and
    a new array otherwise.
    """
    eps = POSITIVITY_FLOOR
    avg = np.asarray(averages, float)
    low = np.flatnonzero(avg < eps)
    if len(low):
        raise LimiterError(
            f"cell {low[0]} average {avg[low[0]]!r} below the positivity "
            f"floor {eps!r}")
    na, nb = coeffs.shape[1:]
    m = np.full(len(coeffs), np.inf)
    for cells, counts, x, y in chunks:
        owner = np.repeat(cells, counts)
        X = (x - frames[owner, 0]) / frames[owner, 2]
        Y = (y - frames[owner, 1]) / frames[owner, 2]
        # Horner's rule in X, then in Y: numpy's polyval2d order
        val = None
        for b in range(nb - 1, -1, -1):
            vb = coeffs[owner, na - 1, b]
            for a in range(na - 2, -1, -1):
                vb = coeffs[owner, a, b] + vb * X
            val = vb if val is None else vb + val * Y
        np.minimum.at(m, cells,
                      np.minimum.reduceat(val, np.cumsum(counts) - counts))
    active = np.flatnonzero(m < eps)
    if len(active) == 0:
        return coeffs
    cell_avg = avg[active]
    theta = np.minimum(1.0, np.abs(cell_avg - eps)
                       / np.abs(cell_avg - m[active]))
    # shave one part in 1e15 so evaluation round-off cannot dip below the
    # floor; the average is preserved exactly for any theta
    theta *= 1.0 - 1e-15
    out = coeffs.copy()
    out[active] *= theta[:, None, None]
    out[active, 0, 0] += (1.0 - theta) * cell_avg
    return out
