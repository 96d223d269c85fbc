"""End-to-end conservative remap between two curvilinear meshes.

Pipeline: candidate-pair culling by array tests of the cell boxes, the
crossings of every candidate pair of edges as one table from one
intersect_curves call, exact clipping of every overlapping cell pair on
its slice of that table, optional positivity
limiting of the reconstructed polynomials, exact integration over the
pieces, and assembly of the new cell averages together with conservation
diagnostics.

The geometry phase (clipping, triangulation, quadrature samples) depends
only on the two meshes; RemapPlan captures it so several reconstructions
(orders, limiter settings) can reuse one plan.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .clipping import (ClipTopologyError, Crossings, event_rows,
                       intersect_curves, kept_loops, wa_clip)
from .geometry import (CurvedPolygon, CurveSpan, GeometryError, by_degree,
                       fill_areas, span_gauss)
from .integrate import TriangulationError, triangulate
from .limiter import POSITIVITY_FLOOR, positivity_limit
from .mesh import CurvilinearMesh, Field
from .reconstruct import _order_degree, weno_reconstruct

_APPROACHES = ("A", "B", "both")
# clipped loops evaluated together in build_plan's loop areas and Approach A
# samples and in apply_plan's integration sweep
_LOOPS_PER_CHUNK = 64
# target cells whose boxes candidate_pairs tests together
_TARGETS_PER_BLOCK = 64


@dataclass
class RemapRequest:
    source_mesh: CurvilinearMesh
    source_field: Field | np.ndarray
    target_mesh: CurvilinearMesh
    order: int = 3
    positivity: bool = False
    approach: str = "A"

    def averages(self) -> np.ndarray:
        if isinstance(self.source_field, Field):
            return self.source_field.averages
        return np.asarray(self.source_field, float)


@dataclass
class RemapReport:
    field: Field
    e_area_c: float
    e_cons: float
    min_average: float
    max_ab_gap: float
    n_candidates: int
    n_pairs: int
    split_loops: int
    grid_seeded_pairs: int
    timings: dict[str, float]
    warnings: list[str] = field(default_factory=list)

    def to_text(self) -> str:
        lines = [
            f"cells={len(self.field.averages)}",
            f"e_area_c={self.e_area_c:.17g}",
            f"e_cons={self.e_cons:.17g}",
            f"min_average={self.min_average:.17g}",
            f"max_ab_gap={self.max_ab_gap:.17g}",
            f"candidate_pairs={self.n_candidates}",
            f"clipped_pairs={self.n_pairs}",
            f"split_loops={self.split_loops}",
            f"grid_seeded_pairs={self.grid_seeded_pairs}",
        ]
        lines += [f"time_{k}={v:.6f}" for k, v in sorted(self.timings.items())]
        lines += [f"warning={w}" for w in self.warnings]
        return "\n".join(lines) + "\n"


def _overlaps(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Closed-interval overlap of the boxes a and b (..., 4), broadcast."""
    return ((a[..., 0] <= b[..., 2]) & (b[..., 0] <= a[..., 2])
            & (a[..., 1] <= b[..., 3]) & (b[..., 1] <= a[..., 3]))


def candidate_pairs(source: CurvilinearMesh,
                    target: CurvilinearMesh) -> list[tuple[int, int]]:
    """All (source, target) cell pairs whose cell boxes overlap, by target
    and then by source: a superset of the truly overlapping pairs (hull
    boxes cannot miss an intersection) for the exact clipper. Targets are
    tested _TARGETS_PER_BLOCK at a time, against the source boxes that meet
    the box around the block."""
    bs, bt = source.cell_boxes, target.cell_boxes
    pairs = []
    for lo in range(0, len(bt), _TARGETS_PER_BLOCK):
        b = bt[lo:lo + _TARGETS_PER_BLOCK]
        near = np.flatnonzero(_overlaps(bs, np.concatenate(
            [b[:, :2].min(axis=0), b[:, 2:].max(axis=0)])))
        t, s = np.nonzero(_overlaps(bs[near], b[:, None]))
        pairs += zip(near[s].tolist(), (t + lo).tolist())
    return pairs


# --------------------------------------------------------------------------
# batched edge-pair intersection

def _edge_crossings(source: CurvilinearMesh, target: CurvilinearMesh,
                    cells: np.ndarray):
    """Crossings of every (source edge, target edge) pair of the cell pairs
    cells (P, 2), from one intersect_curves call over whole edge spans:
    (es, et, found, slot), the edge pairs in first-seen order (the Newton
    chunks, and so the roots, depend on it), their Crossings, and the edge
    pair of every cell pair's (subject edge, clip edge) slot, (P * 16,)."""
    es = np.repeat(source.cell_edges[cells[:, 0]], 4, axis=1).ravel()
    et = np.tile(target.cell_edges[cells[:, 1]], (1, 4)).ravel()
    _, first, inv = np.unique(es * target.n_edges + et, return_index=True,
                              return_inverse=True)
    order = np.argsort(first)
    es, et = es[first[order]], et[first[order]]
    spans_s = [CurveSpan(source.edge_curve(e)) for e in range(source.n_edges)]
    spans_t = [CurveSpan(target.edge_curve(e)) for e in range(target.n_edges)]
    found = intersect_curves(spans_s, spans_t, es, et)
    return es, et, found, np.argsort(order)[inv]


def _pair_rows(source: CurvilinearMesh, target: CurvilinearMesh,
               cells: np.ndarray) -> tuple[list[list[tuple]], int]:
    """The event_rows of each cell pair of cells (P, 2), a list per pair
    in (subject edge, clip edge) order and then in table order, and the
    table's count of grid-seeded edge pairs. Every cell pair that meets an
    edge pair reads the same rows, so neighbouring cells cut a shared edge
    at the same floats and their pieces tile exactly."""
    es, _, found, slot = _edge_crossings(source, target, cells)
    bounds = np.searchsorted(found.pair, np.arange(len(es) + 1))
    start, count = bounds[slot], np.diff(bounds)[slot]
    # each slot's table rows start, start + 1, ..., slot after slot
    rows = (np.repeat(start - np.cumsum(count) + count, count)
            + np.arange(count.sum()))
    pair, k = np.divmod(np.repeat(np.arange(len(slot)), count), 16)
    ks, kc = np.divmod(k, 4)
    # the row columns, all but the trailing grid count
    raw = event_rows(Crossings(*(col[rows] for col in found[:-1])), ks, kc,
                     source.cell_dirs[cells[pair, 0], ks],
                     target.cell_dirs[cells[pair, 1], kc])
    cut = np.searchsorted(pair, np.arange(len(cells) + 1)).tolist()
    return ([raw[lo:hi] for lo, hi in zip(cut[:-1], cut[1:])],
            found.grid_seeded)


# --------------------------------------------------------------------------
# plan construction

@dataclass
class _LoopGeom:
    poly: CurvedPolygon
    area: float
    ax: np.ndarray
    ay: np.ndarray
    awdy: np.ndarray
    bpts: np.ndarray | None = None
    bjw: np.ndarray | None = None


@dataclass
class _PairGeom:
    src: int
    loops: list[_LoopGeom]


@dataclass
class RemapPlan:
    source: CurvilinearMesh
    target: CurvilinearMesh
    per_target: list[list[_PairGeom]]
    k_max: int
    with_tris: bool
    n_candidates: int
    timings: dict[str, float]
    warnings: list[str]
    split_loops: int  # loops whose own fan was not certified
    grid_seeded_pairs: int  # edge pairs whose Newton seeds were the grid

    @property
    def n_pairs(self) -> int:
        return sum(len(p) for p in self.per_target)


def _a_samples(polys: list[CurvedPolygon], k_max: int):
    """Approach A samples (x, y, w dy) of each polygon, in span order: the
    Gauss points of each span, enough for degree k_max + 1 integrands along
    it. The polygons are sampled _LOOPS_PER_CHUNK at a time, one stacked
    pass per span degree: work arrays the size of a whole plan's samples
    raised the traced memory peak of an n=32 accuracy plan by 5.5 MiB."""
    for lo in range(0, len(polys), _LOOPS_PER_CHUNK):
        chunk = polys[lo:lo + _LOOPS_PER_CHUNK]
        spans = [s for p in chunk for s in p.spans]
        npts = [max(1, math.ceil(((k_max + 2) * s.degree) / 2)) for s in spans]
        start = np.cumsum([0] + npts)
        x, y, wdy = (np.empty(start[-1]) for _ in range(3))
        for _d, ids in by_degree(spans):
            n = npts[ids[0]]
            p, dp, w, h = span_gauss([spans[i] for i in ids], n)
            at = start[ids][:, None] + np.arange(n)
            x[at], y[at] = p[..., 0], p[..., 1]
            wdy[at] = dp[..., 1] * w * h[:, None]
        cut = start[np.cumsum([len(p.spans) for p in chunk])[:-1]]
        yield from zip(np.split(x, cut), np.split(y, cut), np.split(wdy, cut))


def build_plan(source: CurvilinearMesh, target: CurvilinearMesh,
               k_max: int = 4, with_tris: bool = False) -> RemapPlan:
    """Clip every overlapping cell pair and precompute quadrature samples.

    k_max bounds the polynomial degree later integrations may use;
    with_tris additionally gives every piece Approach B samples (needed
    for Approach B and for the positivity limiter's quadrature points):
    those of the certified fans of it or of its pieces (triangulate).
    """
    warnings: list[str] = []
    timings: dict[str, float] = {}
    t0 = time.monotonic()
    area_s = source.cell_areas()
    area_t = target.cell_areas()
    tot_s, tot_t = float(area_s.sum()), float(area_t.sum())
    if abs(tot_s - tot_t) > 1e-8 * max(abs(tot_s), abs(tot_t)):
        warnings.append(
            f"meshes cover different total areas: {tot_s!r} vs {tot_t!r}")
    pairs = candidate_pairs(source, target)
    timings["pairs"] = time.monotonic() - t0

    t0 = time.monotonic()
    raws, grid_seeded = _pair_rows(source, target,
                                   np.array(pairs, int).reshape(-1, 2))
    timings["newton"] = time.monotonic() - t0

    t0 = time.monotonic()
    traced = []  # (source cell, target cell, loops traced)
    ci = ct = -1  # the cell pair a failure names
    try:
        for (ci, ct), raw in zip(pairs, raws):
            res = wa_clip(source.cell_polygon(ci), target.cell_polygon(ct),
                          raw=raw)
            if res.loops:
                traced.append((ci, ct, res.loops))
        polys = [lp for _, _, loops in traced for lp in loops]
        for lo in range(0, len(polys), _LOOPS_PER_CHUNK):
            fill_areas(polys[lo:lo + _LOOPS_PER_CHUNK])
        clipped = []  # (source cell, target cell, loops kept)
        for ci, ct, loops in traced:
            loops = kept_loops(loops, source.cell_polygon(ci),
                               target.cell_polygon(ct))
            if loops:
                clipped.append((ci, ct, loops))
    except (ClipTopologyError, GeometryError) as exc:
        raise type(exc)(
            f"clipping failed for source cell {ci} vs target cell {ct}: "
            f"{exc}") from exc
    polys = [lp for _, _, loops in clipped for lp in loops]
    samples = _a_samples(polys, k_max)
    s0 = time.monotonic()
    try:
        fans = iter(triangulate(polys, k_max) if with_tris else ())
    except TriangulationError as exc:
        owners = [(ci, ct) for ci, ct, loops in clipped for _ in loops]
        ci, ct = owners[exc.loop]
        raise TriangulationError(
            f"triangulation failed for source cell {ci} vs target cell {ct}: "
            f"{exc}") from exc
    t_tri = time.monotonic() - s0
    split_loops = 0
    per_target: list[list[_PairGeom]] = [[] for _ in range(target.n_cells)]
    for (ci, ct, loops) in clipped:
        geoms = []
        for lp, (ax, ay, awdy) in zip(loops, samples):
            geom = _LoopGeom(lp, lp.signed_area(), ax, ay, awdy)
            if with_tris:
                geom.bpts, geom.bjw, pieces = next(fans)
                split_loops += len(pieces) > 1
            geoms.append(geom)
        per_target[ct].append(_PairGeom(ci, geoms))
    timings["clip"] = time.monotonic() - t0 - t_tri
    if with_tris:
        timings["triangulate"] = t_tri
    return RemapPlan(source, target, per_target, k_max, with_tris,
                     len(pairs), timings, warnings, split_loops, grid_seeded)


def apply_plan(plan: RemapPlan, averages, order: int = 3,
               positivity: bool = False, approach: str = "A") -> RemapReport:
    """Reconstruct, optionally limit, and integrate over a prepared plan."""
    if approach not in _APPROACHES:
        raise ValueError(f"approach must be one of {_APPROACHES}")
    if approach in ("B", "both") and not plan.with_tris:
        raise ValueError("plan was built without triangulations")
    if positivity and not plan.with_tris:
        raise ValueError("positivity limiting needs a plan with triangulations")
    if _order_degree(order) > plan.k_max:
        raise ValueError(f"plan was built for degree <= {plan.k_max}")
    avg = np.asarray(averages, float)
    source, target = plan.source, plan.target
    if len(avg) != source.n_cells:
        raise ValueError("field length does not match the source mesh")
    warnings = list(plan.warnings)
    timings = dict(plan.timings)

    t0 = time.monotonic()
    recon = weno_reconstruct(source, avg, order)
    warnings += [f"reconstruct: {w}" for w in recon.warnings[:4]]
    if len(recon.warnings) > 4:
        warnings.append(f"reconstruct: {len(recon.warnings)} reduced fits")
    timings["reconstruct"] = time.monotonic() - t0

    t0 = time.monotonic()
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
                _gather(loops, src, lambda lp: (lp.bpts[:, 0], lp.bpts[:, 1])))
    timings["limit"] = time.monotonic() - t0

    t0 = time.monotonic()
    if approach in ("A", "both"):
        # the x-antiderivative from x = cx, in the same scaled frame
        na = coeffs.shape[1]
        anti = np.zeros((len(coeffs), na + 1, coeffs.shape[2]))
        anti[:, 1:] = (frames[:, 2, None, None] * coeffs
                       / np.arange(1, na + 1)[None, :, None])
        val_a = _loop_integrals(anti, frames, _gather(
            loops, src, lambda lp: (lp.ax, lp.ay, lp.awdy)))
    if approach in ("B", "both"):
        val_b = _loop_integrals(coeffs, frames, _gather(
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
    timings["integrate"] = time.monotonic() - t0
    timings["total"] = sum(v for k, v in timings.items() if k != "total")

    e_area = float(np.abs(clip_area - area_t).sum())
    total_in = float(np.dot(avg, source.cell_areas()))
    total_out = float(np.dot(out, clip_area))
    e_cons = abs(total_out - total_in)
    return RemapReport(Field(out, target), e_area, e_cons,
                       float(out.min()), max_gap, plan.n_candidates,
                       plan.n_pairs, plan.split_loops, plan.grid_seeded_pairs,
                       timings, warnings)


def _gather(loops: list, src: np.ndarray, samples):
    """Per chunk of _LOOPS_PER_CHUNK loops: (cells, counts, *columns).

    samples(loop) gives a tuple of per-sample arrays of the loop; each
    column is their concatenation over the chunk's loops, whose source
    cells and sample counts come first. The chunks bound the per-sample
    arrays of the limiter and the integration sweep.
    """
    for lo in range(0, len(loops), _LOOPS_PER_CHUNK):
        sl = slice(lo, lo + _LOOPS_PER_CHUNK)
        cols = list(zip(*(samples(lp) for _, _, lp in loops[sl])))
        counts = np.array([len(x) for x in cols[0]])
        yield (src[sl], counts, *(np.concatenate(c) for c in cols))


def _loop_integrals(coeffs: np.ndarray, frames: np.ndarray,
                    chunks) -> np.ndarray:
    """Per loop, the weighted sum of its source polynomial at its samples.

    chunks yields _gather's (cells, counts, x, y, weights). The samples of
    a chunk are evaluated together, term by term over the gathered
    coefficients, and summed per loop.
    """
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


def remap(request: RemapRequest) -> RemapReport:
    """Run the full remap pipeline for a single request."""
    need_tris = request.positivity or request.approach in ("B", "both")
    plan = build_plan(request.source_mesh, request.target_mesh,
                      k_max=_order_degree(request.order), with_tris=need_tris)
    return apply_plan(plan, request.averages(), request.order,
                      request.positivity, request.approach)
