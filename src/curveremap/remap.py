"""End-to-end conservative remap between two curvilinear meshes.

Pipeline: candidate-pair culling by bounding boxes, the crossings of every
candidate pair of edges in one intersect_curves call, exact clipping of
every overlapping cell pair on those crossings, optional positivity
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

from .clipping import (ClipTopologyError, CurveIntersection, intersect_curves,
                       kept_loops, wa_clip)
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
        ]
        lines += [f"time_{k}={v:.6f}" for k, v in sorted(self.timings.items())]
        lines += [f"warning={w}" for w in self.warnings]
        return "\n".join(lines) + "\n"


class PairIndex:
    """Uniform background grid over the source cells' bounding boxes."""

    def __init__(self, mesh: CurvilinearMesh):
        n = mesh.n_cells
        self.boxes = [mesh.cell_polygon(i).bbox() for i in range(n)]
        xmin = min(b.xmin for b in self.boxes)
        xmax = max(b.xmax for b in self.boxes)
        ymin = min(b.ymin for b in self.boxes)
        ymax = max(b.ymax for b in self.boxes)
        self.origin = (xmin, ymin)
        g = max(1, int(math.sqrt(n)))
        self.shape = (g, g)
        self.dx = max((xmax - xmin) / g, 1e-300)
        self.dy = max((ymax - ymin) / g, 1e-300)
        self.buckets: dict[tuple[int, int], list[int]] = {}
        for i, b in enumerate(self.boxes):
            for gx, gy in self._cover(b):
                self.buckets.setdefault((gx, gy), []).append(i)

    def _cover(self, box):
        g = self.shape[0]
        x0 = min(max(int((box.xmin - self.origin[0]) / self.dx), 0), g - 1)
        x1 = min(max(int((box.xmax - self.origin[0]) / self.dx), 0), g - 1)
        y0 = min(max(int((box.ymin - self.origin[1]) / self.dy), 0), g - 1)
        y1 = min(max(int((box.ymax - self.origin[1]) / self.dy), 0), g - 1)
        return [(gx, gy) for gx in range(x0, x1 + 1) for gy in range(y0, y1 + 1)]

    def query(self, box) -> list[int]:
        seen: set[int] = set()
        for key in self._cover(box):
            seen.update(self.buckets.get(key, ()))
        return sorted(i for i in seen if self.boxes[i].overlaps(box))


def candidate_pairs(source: CurvilinearMesh,
                    target: CurvilinearMesh) -> list[tuple[int, int]]:
    """All (source, target) cell pairs whose bounding boxes overlap.

    A superset of the truly overlapping pairs (hull boxes cannot miss an
    intersection), suitable for feeding the exact clipper.
    """
    index = PairIndex(source)
    pairs = []
    for t in range(target.n_cells):
        box = target.cell_polygon(t).bbox()
        pairs.extend((s, t) for s in index.query(box))
    return pairs


# --------------------------------------------------------------------------
# batched edge-pair intersection

def _edge_pair_roots(source: CurvilinearMesh, target: CurvilinearMesh,
                     pairs: list[tuple[int, int]]):
    """Crossings of every (source edge, target edge) pair of the cell pairs.

    Returns {(es, et): [CurveIntersection]} of the pairs that cross or
    touch, in the edges' own parameters, from one intersect_curves call
    over the whole forward edge spans.
    Every cell pair that meets an edge pair reads its crossings here, so
    neighbouring cells cut a shared edge at the same floats and the
    clipped pieces tile each source cell exactly.
    """
    if not pairs:
        return {}
    # every edge pair of the cell pairs, in first-seen order (the Newton
    # chunks, and so the roots, depend on it)
    cells = np.array(pairs)
    ce_s = source.cell_edges[cells[:, 0]]
    ce_t = target.cell_edges[cells[:, 1]]
    es = np.repeat(ce_s, ce_t.shape[1], axis=1).ravel()
    et = np.tile(ce_t, (1, ce_s.shape[1])).ravel()
    first = np.sort(np.unique(es * target.n_edges + et, return_index=True)[1])
    es, et = es[first], et[first]
    spans_s = [CurveSpan(source.edge_curve(e)) for e in range(source.n_edges)]
    spans_t = [CurveSpan(target.edge_curve(e)) for e in range(target.n_edges)]
    found = intersect_curves(spans_s, spans_t, es, et)
    return {(int(es[k]), int(et[k])): f for k, f in enumerate(found) if f}


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

    @property
    def area(self) -> float:
        return sum(lp.area for lp in self.loops)


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
    roots = _edge_pair_roots(source, target, pairs)
    timings["newton"] = time.monotonic() - t0

    t0 = time.monotonic()
    traced = []  # (source cell, target cell, loops traced)
    edges_s = list(zip(source.cell_edges.tolist(), source.cell_dirs.tolist()))
    edges_t = list(zip(target.cell_edges.tolist(), target.cell_dirs.tolist()))
    ci = ct = -1  # the cell pair a failure names
    try:
        for (ci, ct) in pairs:
            raw: list[CurveIntersection] = []
            for ks, (es, ds) in enumerate(zip(*edges_s[ci])):
                for kc, (et, dt_) in enumerate(zip(*edges_t[ct])):
                    for r in roots.get((es, et), ()):
                        u = r.t if ds > 0 else 1.0 - r.t
                        v = r.s if dt_ > 0 else 1.0 - r.s
                        raw.append(CurveIntersection(
                            r.point, u, v, ks, kc, transversal=r.transversal,
                            cross=r.cross * ds * dt_))
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
                     len(pairs), timings, warnings, split_loops)


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
                       plan.n_pairs, plan.split_loops, timings, warnings)


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
