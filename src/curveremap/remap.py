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
(orders, limiter settings) can reuse one plan. The plan keeps its clipped
loops in one order, by target cell and then by source cell, with a source
cell, target cell and area column, and the loops' Approach A and Approach
B samples in one SampleTable each, in that order. apply_plan reads these
arrays: the limiter and the integration sweep walk slices of whole loops
of the tables.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .clipping import (ClipTopologyError, Crossings, EventRows,
                       PolygonTable, clip_table, event_rows,
                       intersect_curves, kept_mask, wa_clip)
from .geometry import (CurvedPolygon, CurveSpan, GeometryError,
                       contour_terms, gauss_rule_01, window_samples)
from .integrate import SampleTable, TriangulationError, triangulate
from .limiter import POSITIVITY_FLOOR, positivity_limit
from .mesh import CurvilinearMesh, Field
from .reconstruct import _order_degree, weno_reconstruct

_APPROACHES = ("A", "B", "both")
# clipped loops evaluated together in build_plan's loop areas and Approach A
# samples; the samples go straight into the plan's table
_LOOPS_PER_CHUNK = 64
# samples per slice of apply_plan's limiter and integration sweeps over a
# sample table: a slice starts at the first loop at or after each multiple,
# which bounds the sweeps' per-sample arrays. On the pi/4 disk step (n=16)
# 2 ** 13 keeps an apply's traced peak at its reconstruction's, 0.68 MiB;
# 2 ** 14 raised it to 1.08 MiB, and both ran at the same speed
_SWEEP_POINTS = 2 ** 13
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
    arc_probes: int
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
            f"arc_probes={self.arc_probes}",
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
               cells: np.ndarray) -> tuple[EventRows, int]:
    """The EventRows of the cell pairs cells (P, 2), pair p for cells[p],
    each pair's rows in (subject edge, clip edge) order and then in table
    order, and the table's count of grid-seeded edge pairs. Every cell
    pair that meets an edge pair reads the same rows, so neighbouring
    cells cut a shared edge at the same floats and their pieces tile
    exactly."""
    es, _, found, slot = _edge_crossings(source, target, cells)
    bounds = np.searchsorted(found.pair, np.arange(len(es) + 1))
    start, count = bounds[slot], np.diff(bounds)[slot]
    # each slot's table rows start, start + 1, ..., slot after slot
    rows = (np.repeat(start - np.cumsum(count) + count, count)
            + np.arange(count.sum()))
    pair, k = np.divmod(np.repeat(np.arange(len(slot)), count), 16)
    ks, kc = np.divmod(k, 4)
    # the row columns, all but the trailing grid count
    return (event_rows(Crossings(*(col[rows] for col in found[:-1])), pair,
                       ks, kc, source.cell_dirs[cells[pair, 0], ks],
                       target.cell_dirs[cells[pair, 1], kc]),
            found.grid_seeded)


def _cell_table(mesh: CurvilinearMesh, cells: np.ndarray) -> PolygonTable:
    """The PolygonTable of the mesh's cells cells, from its arrays: a
    span runs over its whole edge, forward or reversed."""
    back = (mesh.cell_dirs[cells] < 0).astype(float)
    return PolygonTable([mesh.cell_polygon(i) for i in cells.tolist()],
                        mesh.cell_corners[cells],
                        np.stack([back, 1.0 - back], axis=-1),
                        mesh.cell_boxes[cells])


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
    # per loop, in per_target's order: source cell, target cell, area
    loop_src: np.ndarray
    loop_tgt: np.ndarray
    loop_area: np.ndarray
    a_samples: SampleTable  # the _LoopGeom arrays are views of these tables
    b_samples: SampleTable | None
    k_max: int
    with_tris: bool
    n_candidates: int
    timings: dict[str, float]
    warnings: list[str]
    split_loops: int  # loops whose own fan was not certified
    grid_seeded_pairs: int  # edge pairs whose Newton seeds were the grid
    arc_probes: int  # arcs whose state a point probe gave (_arc_state)

    @property
    def n_pairs(self) -> int:
        return sum(len(p) for p in self.per_target)


class LoopWindows(NamedTuple):
    """Loops as windows on curves: window w is the stretch (t0[w], t1[w])
    of the curve through nodes[group[w]][row[w]], one stack of nodes
    (k, d+1, 2) per group, and loop i's windows are cut[i]:cut[i + 1]."""

    nodes: list[np.ndarray]
    group: np.ndarray
    row: np.ndarray
    t0: np.ndarray
    t1: np.ndarray
    cut: np.ndarray


def _by_group(windows: LoopWindows, win: np.ndarray):
    """(group, positions, nodes) of the windows win in each group: the
    positions in win of the group's windows and their curves' nodes."""
    for g, stack in enumerate(windows.nodes):
        at = np.flatnonzero(windows.group[win] == g)
        if len(at):
            yield g, at, stack[windows.row[win[at]]]


def _loop_areas(windows: LoopWindows) -> np.ndarray:
    """The signed area of every loop, bitwise fill_areas on its polygon:
    the contour terms come from one stacked pass per group and chunk of
    _LOOPS_PER_CHUNK loops, and each loop sums its terms in window order,
    a slot at a time for all loops (a pairwise sum would round
    differently)."""
    cut = windows.cut
    terms = np.empty(len(windows.group))
    for lo in range(0, len(cut) - 1, _LOOPS_PER_CHUNK):
        win = np.arange(cut[lo], cut[min(lo + _LOOPS_PER_CHUNK, len(cut) - 1)])
        for _, at, nodes in _by_group(windows, win):
            xi, w = gauss_rule_01(nodes.shape[1])
            p, dp, h = window_samples(nodes, windows.t0[win[at]],
                                      windows.t1[win[at]], xi)
            terms[win[at]] = contour_terms(p, dp, w, h)
    count = np.diff(cut)
    total = np.zeros(len(count))
    for slot in range(count.max(initial=0)):
        on = np.flatnonzero(count > slot)
        total[on] += terms[cut[on] + slot]
    return 0.5 * total


def _a_samples(windows: LoopWindows, loops: np.ndarray,
               k_max: int) -> SampleTable:
    """Approach A samples of the loops given, as one SampleTable with the
    weights w dy: the Gauss points of each window, in window order, enough
    for degree k_max + 1 integrands along it. The loops are sampled
    _LOOPS_PER_CHUNK at a time, one stacked pass per group, straight into
    the table: work arrays the size of a whole plan's samples raised the
    traced memory peak of an n=32 accuracy plan by 5.5 MiB."""
    npts = np.array([max(1, math.ceil((k_max + 2) * (stack.shape[1] - 1) / 2))
                     for stack in windows.nodes], int)
    cut = windows.cut
    count = cut[loops + 1] - cut[loops]
    # the loops' windows in order, and where each window's samples start
    win = (np.repeat(cut[loops] - np.cumsum(count) + count, count)
           + np.arange(count.sum()))
    start = np.concatenate([[0], np.cumsum(npts[windows.group[win]])])
    first = np.concatenate([[0], np.cumsum(count)])
    pts, wdy = np.empty((start[-1], 2)), np.empty(start[-1])
    for lo in range(0, len(loops), _LOOPS_PER_CHUNK):
        ws = np.arange(first[lo], first[min(lo + _LOOPS_PER_CHUNK,
                                            len(loops))])
        for g, at, nodes in _by_group(windows, win[ws]):
            n = int(npts[g])
            xi, w = gauss_rule_01(n)
            p, dp, h = window_samples(nodes, windows.t0[win[ws[at]]],
                                      windows.t1[win[ws[at]]], xi)
            pos = start[ws[at]][:, None] + np.arange(n)
            pts[pos] = p
            wdy[pos] = dp[..., 1] * w * h[:, None]
    return SampleTable(pts, wdy, start[first])


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
    cells = np.array(pairs, int).reshape(-1, 2)
    rows, grid_seeded = _pair_rows(source, target, cells)
    timings["newton"] = time.monotonic() - t0

    t0 = time.monotonic()
    subjects = _cell_table(source, cells[:, 0])
    clips = _cell_table(target, cells[:, 1])
    table = clip_table(rows, subjects, clips)
    loop_cells = cells[table.loop_pair]
    # each window lies on the edge of its side's cell: a group per mesh
    cell = loop_cells[np.repeat(np.arange(len(loop_cells)),
                                np.diff(table.win_cut))]
    windows = LoopWindows(
        [source.points[source.edges], target.points[target.edges]],
        table.side, np.where(table.side == 0,
                             source.cell_edges[cell[:, 0], table.span],
                             target.cell_edges[cell[:, 1], table.span]),
        table.t0, table.t1, table.win_cut)
    traced = []  # (source cell, target cell, loops traced)
    ci = ct = -1  # the cell pair a failure names
    try:
        for p, (ci, ct) in enumerate(pairs):
            res = wa_clip(subjects.polys[p], clips.polys[p], raw=table[p])
            if res.loops:
                traced.append((ci, ct, res.loops))
        # the per-pair slices are built: free their lists before the area
        # and sample passes
        probes, table = table.probes, None
        area = _loop_areas(windows)
        keep = kept_mask(area, np.minimum(np.abs(area_s[loop_cells[:, 0]]),
                                          np.abs(area_t[loop_cells[:, 1]])))
    except (ClipTopologyError, GeometryError) as exc:
        if getattr(exc, "loop", None) is not None:
            ci, ct = loop_cells[exc.loop].tolist()
        raise type(exc)(
            f"clipping failed for source cell {ci} vs target cell {ct}: "
            f"{exc}") from exc
    kept = iter(keep.tolist())
    clipped = []  # (source cell, target cell, loops kept)
    for ci, ct, loops in traced:
        loops = [lp for lp in loops if next(kept)]
        if loops:
            clipped.append((ci, ct, loops))
    # the kept loops in clipped's order, which is per_target's
    (loop_src, loop_tgt), loop_area = loop_cells[keep].T, area[keep]
    s0 = time.monotonic()
    b_samples, split_loops = None, 0
    if with_tris:
        try:
            tris = triangulate([lp for _, _, loops in clipped
                                for lp in loops], k_max)
        except TriangulationError as exc:
            ci, ct = loop_src[exc.loop], loop_tgt[exc.loop]
            raise TriangulationError(
                f"triangulation failed for source cell {ci} vs target cell "
                f"{ct}: {exc}") from exc
        # the plan keeps the samples, not the fan records
        split_loops = sum(len(pieces) > 1 for pieces in tris.fans)
        b_samples = SampleTable(tris.pts, tris.w, tris.cut)
    t_tri = time.monotonic() - s0
    # after triangulate, whose work arrays would otherwise come on top
    a_samples = _a_samples(windows, np.flatnonzero(keep), k_max)
    areas, a_rows = iter(loop_area.tolist()), iter(a_samples)
    b_rows = iter(b_samples if with_tris else ())
    per_target: list[list[_PairGeom]] = [[] for _ in range(target.n_cells)]
    for (ci, ct, loops) in clipped:
        geoms = []
        for lp in loops:
            a_pts, awdy, _ = next(a_rows)
            geom = _LoopGeom(lp, next(areas), a_pts[:, 0], a_pts[:, 1], awdy)
            if with_tris:
                geom.bpts, geom.bjw, _ = next(b_rows)
            geoms.append(geom)
        per_target[ct].append(_PairGeom(ci, geoms))
    timings["clip"] = time.monotonic() - t0 - t_tri
    if with_tris:
        timings["triangulate"] = t_tri
    return RemapPlan(source, target, per_target, loop_src, loop_tgt,
                     loop_area, a_samples, b_samples, k_max, with_tris,
                     len(pairs), timings, warnings, split_loops, grid_seeded,
                     probes)


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
    src, tgt = plan.loop_src, plan.loop_tgt
    if positivity:
        if avg.min() < POSITIVITY_FLOOR:
            warnings.append(
                f"positivity requested but min average {avg.min():.3e} is "
                f"below the floor; limiter skipped")
        else:
            coeffs = positivity_limit(
                coeffs, frames, avg,
                (sl[:4] for sl in _slices(plan.b_samples, src)))
    timings["limit"] = time.monotonic() - t0

    t0 = time.monotonic()
    if approach in ("A", "both"):
        # the x-antiderivative from x = cx, in the same scaled frame
        na = coeffs.shape[1]
        anti = np.zeros((len(coeffs), na + 1, coeffs.shape[2]))
        anti[:, 1:] = (frames[:, 2, None, None] * coeffs
                       / np.arange(1, na + 1)[None, :, None])
        val_a = _loop_integrals(anti, frames, _slices(plan.a_samples, src))
    if approach in ("B", "both"):
        val_b = _loop_integrals(coeffs, frames, _slices(plan.b_samples, src))
    max_gap = 0.0
    if approach == "both" and len(src):
        max_gap = float(np.max(np.abs(val_a - val_b)
                               / np.maximum(1.0, np.abs(val_a))))
    vals = val_b if approach == "B" else val_a
    mass = np.bincount(tgt, weights=vals, minlength=target.n_cells)
    clip_area = np.bincount(tgt, weights=plan.loop_area,
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
                       plan.arc_probes, timings, warnings)


def _slices(table: SampleTable, cells: np.ndarray):
    """The samples of table in slices of whole loops, a slice from the
    first loop at or after each multiple of _SWEEP_POINTS samples: per
    slice (cells, counts, x, y, weights), the source cells and sample
    counts of its loops and views of its rows."""
    cut = table.cut
    at = np.unique(np.append(
        np.searchsorted(cut, np.arange(0, cut[-1], _SWEEP_POINTS)),
        len(cut) - 1)).tolist()
    for lo, hi in zip(at[:-1], at[1:]):
        a, b = cut[lo], cut[hi]
        yield (cells[lo:hi], np.diff(cut[lo:hi + 1]), table.pts[a:b, 0],
               table.pts[a:b, 1], table.w[a:b])


def _loop_integrals(coeffs: np.ndarray, frames: np.ndarray,
                    chunks) -> np.ndarray:
    """Per loop, the weighted sum of its source polynomial at its samples.

    chunks yields (cells, counts, x, y, weights) as _slices does: some
    loops' samples, each loop's together, with the loop's cell and its
    sample count. The samples of a chunk are evaluated together, term by
    term over the gathered coefficients, and summed per loop.
    """
    live = coeffs.any(axis=0).tolist()
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
                if live[a][b]:
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
