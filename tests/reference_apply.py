"""Frozen apply sweep: the bitwise oracle of the table-slice sweep.

`reference_apply` integrates a plan as `apply_plan` did before the plan
held its samples in tables: every call lists the plan's loops from
`per_target`, and the limiter and both integration approaches gather the
loops' own sample arrays 64 loops at a time (`gather`), concatenating
each chunk's columns. It shares the package's reconstruction and limiter,
so it checks what the tables change: which samples a loop's terms and
minimum come from, in which order its terms are summed, and the
per-target sums of mass and area. `apply_plan` must give the same report
bit for bit.
"""

from __future__ import annotations

import numpy as np

from curveremap.limiter import POSITIVITY_FLOOR, positivity_limit
from curveremap.reconstruct import weno_reconstruct

LOOPS_PER_CHUNK = 64


def gather(loops: list, src: np.ndarray, samples):
    """Per chunk of LOOPS_PER_CHUNK loops: (cells, counts, *columns), each
    column the concatenation of samples(loop) over the chunk's loops."""
    for lo in range(0, len(loops), LOOPS_PER_CHUNK):
        sl = slice(lo, lo + LOOPS_PER_CHUNK)
        cols = list(zip(*(samples(lp) for _, _, lp in loops[sl])))
        counts = np.array([len(x) for x in cols[0]])
        yield (src[sl], counts, *(np.concatenate(c) for c in cols))


def loop_integrals(coeffs, frames, chunks) -> np.ndarray:
    """Per loop, the weighted sum of its source polynomial at its samples,
    term by term over each chunk's gathered coefficients."""
    out = [np.zeros(0)]
    for cells, counts, x, y, w in chunks:
        owner = np.repeat(cells, counts)
        X = (x - frames[owner, 0]) / frames[owner, 2]
        Y = (y - frames[owner, 1]) / frames[owner, 2]
        vals = np.zeros(len(X))
        Yb = np.ones(len(X))
        for b in range(coeffs.shape[2]):
            Xa = Yb.copy()
            for a in range(coeffs.shape[1]):
                if coeffs[:, a, b].any():
                    vals += coeffs[owner, a, b] * Xa
                Xa *= X
            Yb *= Y
        vals *= w
        out.append(np.add.reduceat(vals, np.cumsum(counts) - counts))
    return np.concatenate(out)


def reference_apply(plan, averages, order=3, positivity=False,
                    approach="A"):
    """(averages, e_cons, min_average, max_ab_gap, warnings) of the plan
    applied to the source averages, by the gathered sweep."""
    avg = np.asarray(averages, float)
    source, target = plan.source, plan.target
    warnings = list(plan.warnings)
    recon = weno_reconstruct(source, avg, order)
    warnings += [f"reconstruct: {w}" for w in recon.warnings[:4]]
    if len(recon.warnings) > 4:
        warnings.append(f"reconstruct: {len(recon.warnings)} reduced fits")
    coeffs, frames = recon.coeffs, recon.frames
    loops = [(ct, pg.src, lp) for ct, per in enumerate(plan.per_target)
             for pg in per for lp in pg.loops]
    tgt = np.array([ct for ct, _, _ in loops], dtype=int)
    src = np.array([s for _, s, _ in loops], dtype=int)
    if positivity:
        if avg.min() < POSITIVITY_FLOOR:
            warnings.append(
                f"positivity requested but min average {avg.min():.3e} is "
                f"below the floor; limiter skipped")
        else:
            coeffs = positivity_limit(
                coeffs, frames, avg,
                gather(loops, src, lambda lp: (lp.bpts[:, 0], lp.bpts[:, 1])))
    if approach in ("A", "both"):
        na = coeffs.shape[1]
        anti = np.zeros((len(coeffs), na + 1, coeffs.shape[2]))
        anti[:, 1:] = (frames[:, 2, None, None] * coeffs
                       / np.arange(1, na + 1)[None, :, None])
        val_a = loop_integrals(anti, frames, gather(
            loops, src, lambda lp: (lp.ax, lp.ay, lp.awdy)))
    if approach in ("B", "both"):
        val_b = loop_integrals(coeffs, frames, gather(
            loops, src, lambda lp: (lp.bpts[:, 0], lp.bpts[:, 1], lp.bjw)))
    max_gap = 0.0
    if approach == "both" and loops:
        max_gap = float(np.max(np.abs(val_a - val_b)
                               / np.maximum(1.0, np.abs(val_a))))
    vals = val_b if approach == "B" else val_a
    mass = np.bincount(tgt, weights=vals, minlength=target.n_cells)
    clip_area = np.bincount(tgt, weights=[lp.area for _, _, lp in loops],
                            minlength=target.n_cells)
    area_t = target.cell_areas()
    covered = clip_area > 1e-14 * area_t
    out = np.where(covered, mass / np.where(covered, clip_area, 1.0), 0.0)
    for ct in np.flatnonzero(~covered):
        if plan.per_target[ct] or clip_area[ct] > 0.0:
            warnings.append(f"target cell {ct} has near-zero coverage")
    total_in = float(np.dot(avg, source.cell_areas()))
    total_out = float(np.dot(out, clip_area))
    return (out, abs(total_out - total_in), float(out.min()), max_gap,
            warnings)
