"""Frozen per-cell positivity limiter: the bitwise oracle of the array pass.

`reference_limit` groups a plan's Approach B points by source cell and
limits one `Poly2` at a time, as `apply_plan` did before the limiter ran
as one array pass over all cells. The package's `positivity_limit` must
give the same coefficients bit for bit.
"""

from __future__ import annotations

import numpy as np

from reference_integrate import Poly2

EPS = 1e-14


def limit_one(p: Poly2, cell_avg: float, pts: np.ndarray) -> Poly2:
    """Compress p toward cell_avg until its values at pts clear EPS."""
    if cell_avg < EPS:
        raise ValueError("cell average below the positivity floor")
    if len(pts) == 0:
        return p
    m = float(p.eval(pts[:, 0], pts[:, 1]).min())
    if m >= EPS:
        return p
    theta = min(1.0, abs(cell_avg - EPS) / abs(cell_avg - m))
    theta *= 1.0 - 1e-15
    coeffs = p.coeffs * theta
    coeffs[0, 0] += (1.0 - theta) * cell_avg
    return Poly2(coeffs, p.cx, p.cy, p.h)


def reference_limit(plan, coeffs: np.ndarray, frames: np.ndarray,
                    averages: np.ndarray) -> tuple[np.ndarray, int]:
    """(limited coefficients, number of cells changed), cell by cell."""
    groups: list[list[np.ndarray]] = [[] for _ in range(plan.source.n_cells)]
    for per in plan.per_target:
        for pg in per:
            for lp in pg.loops:
                groups[pg.src].append(lp.bpts)
    out = coeffs.copy()
    active = 0
    for i, group in enumerate(groups):
        if group:
            p = Poly2(coeffs[i], *frames[i])
            q = limit_one(p, float(averages[i]), np.vstack(group))
            out[i] = q.coeffs
            active += q is not p
    return out, active
