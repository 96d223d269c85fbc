"""End-to-end conservative remap between two curvilinear meshes.

Pipeline: candidate-pair culling by bounding boxes, exact clipping of every
overlapping cell pair, optional positivity limiting of the reconstructed
polynomials, exact integration over the pieces, and assembly of the new
cell averages together with conservation diagnostics.

The geometry phase (clipping, triangulation, quadrature samples) depends
only on the two meshes; RemapPlan captures it so several reconstructions
(orders, limiter settings) can reuse one plan.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .clipping import (DEDUP_PARAM, ClipTopologyError, CurveIntersection,
                       curve_flip, intersect_curves, newton_roots,
                       transversal, wa_clip)
from .geometry import SNAP_TOL, CurvedPolygon, GeometryError, gauss_rule_01
from .integrate import (IntegrationError, Poly2, make_tri_rule,
                        rule_degree_for, triangulate)
from .limiter import LimiterParams, QuadPointGroup, positivity_limit
from .mesh import CurvilinearMesh, Field
from .reconstruct import WenoConfig, weno_reconstruct

_APPROACHES = ("A", "B", "both")
# clipped loops evaluated together in apply_plan's integration sweep
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
        ]
        lines += [f"time_{k}={v:.6f}" for k, v in sorted(self.timings.items())]
        lines += [f"warning={w}" for w in self.warnings]
        return "\n".join(lines) + "\n"

    CSV_HEADER = ("cells,e_area_c,e_cons,min_average,max_ab_gap,"
                  "candidate_pairs,clipped_pairs,time_total")

    def to_csv_row(self) -> str:
        return (f"{len(self.field.averages)},{self.e_area_c:.6e},"
                f"{self.e_cons:.6e},{self.min_average:.17g},"
                f"{self.max_ab_gap:.6e},{self.n_candidates},{self.n_pairs},"
                f"{self.timings.get('total', 0.0):.3f}")


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
    """Roots of every candidate (source edge, target edge) pair.

    Returns dict (es, et) -> list of (t, s, x, y, transversal), or None for
    pairs flagged as overlapping (same geometric curve), which the per-pair
    clipper resolves locally. Computing at the edge level (not per cell
    pair) makes shared cut parameters bitwise consistent across neighboring
    cells, so clipped pieces tile each source cell exactly.
    """
    d_s, d_t = source.edge_degree, target.edge_degree
    if d_s == 1 or d_t == 1:
        return {}, True  # local exact line paths are cheap and complete
    seen: set[tuple[int, int]] = set()
    order: list[tuple[int, int]] = []
    sbox = [source.edge_curve(e).bbox().inflate(SNAP_TOL)
            for e in range(source.n_edges)]
    tbox = [target.edge_curve(e).bbox().inflate(SNAP_TOL)
            for e in range(target.n_edges)]
    for (ci, ct) in pairs:
        for es in source.cell_edges[ci]:
            for et in target.cell_edges[ct]:
                key = (int(es), int(et))
                if key in seen:
                    continue
                seen.add(key)
                if sbox[key[0]].overlaps(tbox[key[1]]):
                    order.append(key)
    result: dict[tuple[int, int], list | None] = {}
    tol = SNAP_TOL * max(1.0, float(np.max(np.abs(source.points))),
                         float(np.max(np.abs(target.points))))
    todo = []
    for (es, et) in order:
        if curve_flip(source.points[source.edges[es]],
                      target.points[target.edges[et]], tol) is not None:
            result[(es, et)] = None  # same curve: overlap handled locally
        else:
            todo.append((es, et))
    if not todo:
        return result, False
    coefa = np.stack([source.edge_curve(e).power_coeffs for (e, _) in todo])
    coefb = np.stack([target.edge_curve(e).power_coeffs for (_, e) in todo])
    whole = np.tile([0.0, 1.0], (len(todo), 1))
    pair, tt, ss, _res = newton_roots(coefa, coefb, whole, whole)
    bounds = np.searchsorted(pair, np.arange(len(todo) + 1))
    for key, lo, hi in zip(todo, bounds[:-1], bounds[1:]):
        # keep the first of close roots (intersect_curves says why it
        # keeps another)
        dedup: list[tuple[float, float]] = []
        for (t, s) in sorted(zip(tt[lo:hi].tolist(), ss[lo:hi].tolist())):
            if any(abs(t - t2) <= DEDUP_PARAM and abs(s - s2) <= DEDUP_PARAM
                   for (t2, s2) in dedup):
                continue
            dedup.append((t, s))
        es, et = key
        ca = source.edge_curve(es)
        cb = target.edge_curve(et)
        entries = []
        for (t, s) in dedup:
            p = ca.eval(t)
            entries.append((t, s, float(p[0]), float(p[1]),
                            transversal(ca.deriv(t), cb.deriv(s))))
        result[key] = entries
    return result, False


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

    @property
    def n_pairs(self) -> int:
        return sum(len(p) for p in self.per_target)


def _loop_a_samples(poly: CurvedPolygon, k_max: int):
    xs, ys, wdy = [], [], []
    for span in poly.spans:
        d = span.degree
        n = max(1, math.ceil(((k_max + 2) * d) / 2))
        xi, w = gauss_rule_01(n)
        t = span.t0 + xi * (span.t1 - span.t0)
        p = span.curve.eval(t)
        dv = span.curve.deriv(t)
        xs.append(p[:, 0])
        ys.append(p[:, 1])
        wdy.append(dv[:, 1] * w * (span.t1 - span.t0))
    return np.concatenate(xs), np.concatenate(ys), np.concatenate(wdy)


def build_plan(source: CurvilinearMesh, target: CurvilinearMesh,
               k_max: int = 4, with_tris: bool = False) -> RemapPlan:
    """Clip every overlapping cell pair and precompute quadrature samples.

    k_max bounds the polynomial degree later integrations may use;
    with_tris additionally triangulates every piece (needed for Approach B
    and for the positivity limiter's quadrature point groups).
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
    roots, local_only = _edge_pair_roots(source, target, pairs)
    timings["newton"] = time.monotonic() - t0

    t0 = time.monotonic()
    t_tri = 0.0
    per_target: list[list[_PairGeom]] = [[] for _ in range(target.n_cells)]
    for (ci, ct) in pairs:
        sub = source.cell_polygon(ci)
        clp = target.cell_polygon(ct)
        raw: list[CurveIntersection] = []
        for ks, (es, ds) in enumerate(zip(source.cell_edges[ci],
                                          source.cell_dirs[ci])):
            for kc, (et, dt_) in enumerate(zip(target.cell_edges[ct],
                                               target.cell_dirs[ct])):
                entry = roots.get((int(es), int(et)), [])
                if local_only or entry is None:
                    for inter in intersect_curves(sub.spans[ks], clp.spans[kc]):
                        inter.subject_span = ks
                        inter.clip_span = kc
                        raw.append(inter)
                    continue
                for (t, s, x, y, tv) in entry:
                    u = t if ds > 0 else 1.0 - t
                    v = s if dt_ > 0 else 1.0 - s
                    raw.append(CurveIntersection((x, y), u, v, ks, kc,
                                                 transversal=tv))
        try:
            res = wa_clip(sub, clp, raw=raw)
        except (ClipTopologyError, GeometryError) as exc:
            raise type(exc)(
                f"clipping failed for source cell {ci} vs target cell {ct}: "
                f"{exc}") from exc
        if not res.loops:
            continue
        drop = 1e-14 * min(area_s[ci], area_t[ct])
        loops = []
        for lp in res.loops:
            area = lp.signed_area()
            if area <= drop:
                continue
            ax, ay, awdy = _loop_a_samples(lp, k_max)
            geom = _LoopGeom(lp, area, ax, ay, awdy)
            if with_tris:
                s0 = time.monotonic()
                bp, bw = [], []
                try:
                    for tri in triangulate(lp):
                        rule = make_tri_rule(rule_degree_for(k_max, tri.degree))
                        pts, jw = tri.quad_samples(rule)
                        bp.append(pts)
                        bw.append(jw)
                except IntegrationError as exc:
                    raise type(exc)(
                        f"triangulation failed for source cell {ci} vs "
                        f"target cell {ct}: {exc}") from exc
                geom.bpts = np.vstack(bp)
                geom.bjw = np.concatenate(bw)
                t_tri += time.monotonic() - s0
            loops.append(geom)
        if loops:
            per_target[ct].append(_PairGeom(ci, loops))
    timings["clip"] = time.monotonic() - t0 - t_tri
    if with_tris:
        timings["triangulate"] = t_tri
    return RemapPlan(source, target, per_target, k_max, with_tris,
                     len(pairs), timings, warnings)


def apply_plan(plan: RemapPlan, averages, order: int = 3,
               positivity: bool = False, approach: str = "A",
               limiter_params: LimiterParams = LimiterParams()) -> RemapReport:
    """Reconstruct, optionally limit, and integrate over a prepared plan."""
    if approach not in _APPROACHES:
        raise ValueError(f"approach must be one of {_APPROACHES}")
    if approach in ("B", "both") and not plan.with_tris:
        raise ValueError("plan was built without triangulations")
    kdeg = {1: 0, 3: 2, 5: 4}[order]
    if kdeg > plan.k_max:
        raise ValueError(f"plan was built for degree <= {plan.k_max}")
    avg = np.asarray(averages, float)
    source, target = plan.source, plan.target
    if len(avg) != source.n_cells:
        raise ValueError("field length does not match the source mesh")
    warnings = list(plan.warnings)
    timings = dict(plan.timings)

    t0 = time.monotonic()
    recon = weno_reconstruct(source, avg, WenoConfig(order=order))
    warnings += [f"reconstruct: {w}" for w in recon.warnings[:4]]
    if len(recon.warnings) > 4:
        warnings.append(f"reconstruct: {len(recon.warnings)} reduced fits")
    timings["reconstruct"] = time.monotonic() - t0

    polys = recon.polys
    t0 = time.monotonic()
    if positivity:
        if not plan.with_tris:
            raise ValueError("positivity limiting needs a plan with triangulations")
        if avg.min() < limiter_params.eps:
            warnings.append(
                f"positivity requested but min average {avg.min():.3e} is "
                f"below the floor; limiter skipped")
        else:
            groups: list[list[np.ndarray]] = [[] for _ in range(source.n_cells)]
            for per in plan.per_target:
                for pg in per:
                    for lp in pg.loops:
                        groups[pg.src].append(lp.bpts)
            polys = list(polys)
            for i in range(source.n_cells):
                if groups[i]:
                    pts = QuadPointGroup(i, np.vstack(groups[i]))
                    polys[i] = positivity_limit(polys[i], float(avg[i]), pts,
                                                limiter_params)
    timings["limit"] = time.monotonic() - t0

    t0 = time.monotonic()
    loops = [(ct, pg.src, lp) for ct, per in enumerate(plan.per_target)
             for pg in per for lp in pg.loops]
    tgt = np.array([ct for ct, _, _ in loops], dtype=int)
    src = np.array([s for _, s, _ in loops], dtype=int)
    coeffs, frames = _stack_polys(polys)
    if approach in ("A", "both"):
        # the x-antiderivative from x = cx, in the same scaled frame
        na = coeffs.shape[1]
        anti = np.zeros((len(polys), na + 1, coeffs.shape[2]))
        anti[:, 1:] = (frames[:, 2, None, None] * coeffs
                       / np.arange(1, na + 1)[None, :, None])
        val_a = _loop_integrals(anti, frames, src, loops,
                                lambda lp: (lp.ax, lp.ay, lp.awdy))
    if approach in ("B", "both"):
        val_b = _loop_integrals(coeffs, frames, src, loops,
                                lambda lp: (lp.bpts[:, 0], lp.bpts[:, 1], lp.bjw))
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
                       plan.n_pairs, timings, warnings)


def _stack_polys(polys: list[Poly2]) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients (C, na, nb), zero-padded, and frames (C, 3) of (cx, cy, h)."""
    na = max(p.coeffs.shape[0] for p in polys)
    nb = max(p.coeffs.shape[1] for p in polys)
    coeffs = np.zeros((len(polys), na, nb))
    for i, p in enumerate(polys):
        coeffs[i, :p.coeffs.shape[0], :p.coeffs.shape[1]] = p.coeffs
    frames = np.array([(p.cx, p.cy, p.h) for p in polys]).reshape(-1, 3)
    return coeffs, frames


def _loop_integrals(coeffs: np.ndarray, frames: np.ndarray, src: np.ndarray,
                    loops: list, samples) -> np.ndarray:
    """Per loop, the weighted sum of its source polynomial at its samples.

    samples(loop) gives the loop's sample x, y and weights. The samples of
    a chunk of loops are evaluated together, term by term over the
    gathered coefficients, and summed per loop. The chunks bound the
    per-sample arrays.
    """
    out = np.zeros(len(loops))
    for lo in range(0, len(loops), _LOOPS_PER_CHUNK):
        sl = slice(lo, lo + _LOOPS_PER_CHUNK)
        xs, ys, ws = zip(*(samples(lp) for _, _, lp in loops[sl]))
        counts = np.array([len(x) for x in xs])
        owner = np.repeat(src[sl], counts)
        X = (np.concatenate(xs) - frames[owner, 0]) / frames[owner, 2]
        Y = (np.concatenate(ys) - frames[owner, 1]) / frames[owner, 2]
        vals = np.zeros(len(X))
        Yb = np.ones(len(X))
        for b in range(coeffs.shape[2]):
            Xa = Yb.copy()
            for a in range(coeffs.shape[1]):
                if coeffs[:, a, b].any():
                    vals += coeffs[owner, a, b] * Xa
                Xa *= X
            Yb *= Y
        vals *= np.concatenate(ws)
        out[sl] = np.add.reduceat(vals, np.cumsum(counts) - counts)
    return out


def remap(request: RemapRequest) -> RemapReport:
    """Run the full remap pipeline for a single request."""
    kdeg = {1: 0, 3: 2, 5: 4}[request.order]
    need_tris = request.positivity or request.approach in ("B", "both")
    plan = build_plan(request.source_mesh, request.target_mesh,
                      k_max=kdeg, with_tris=need_tris)
    return apply_plan(plan, request.averages(), request.order,
                      request.positivity, request.approach)
