"""Frozen per-record crossings: the oracle of the plan's crossing table.

`reference_intersect_curves` returns a list of `CurveIntersection` records
per span pair, each cross product taken from its own two tangents in plain
floats, as `clipping.intersect_curves` did before it returned one table.
`reference_edge_pair_roots` keeps the plan's `{(es, et): [record]}` dict,
and `reference_pair_rows` the plan's loop that re-wrapped the records of
each cell pair's 16 edge pairs in the cells' own span indices and
directions, as the rows (ks, t, kc, s, point, transversal, cross) that
`clipping._build_events` reads. The root passes are the clipping module's
own helpers, `_curved_roots` among them, which the table did not change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from curveremap.clipping import (CROSS_TOL, _box_hits, _collinear_overlap,
                                 _curve_rows, _curved_roots,
                                 _line_span_roots, _points_and_tangents,
                                 _same_curve_overlap, curve_flip)
from curveremap.geometry import SNAP_TOL, CurveSpan


@dataclass
class CurveIntersection:
    point: tuple[float, float]
    t: float
    s: float
    subject_span: int
    clip_span: int
    transversal: bool = True
    cross: float = 0.0


def _unit(vec) -> tuple[float, float]:
    n = math.hypot(vec[0], vec[1])
    if n == 0.0:
        return 0.0, 0.0
    return vec[0] / n, vec[1] / n


def unit_cross(da, db) -> float:
    """Cross product of the unit tangents along da and db."""
    ua, ub = _unit(da), _unit(db)
    return ua[0] * ub[1] - ua[1] * ub[0]


def reference_intersect_curves(spans_a, spans_b, ia, ib):
    ia, ib = np.asarray(ia, int), np.asarray(ib, int)
    live = _box_hits(spans_a, spans_b, ia, ib)
    deg_a, deg_b = (np.array([s.degree for s in sp], int)
                    for sp in (spans_a, spans_b))
    win_a, win_b = (np.array([(s.t0, s.t1 - s.t0) for s in sp]).reshape(-1, 2)
                    for sp in (spans_a, spans_b))
    da, db = deg_a[ia[live]], deg_b[ib[live]]
    rest = np.ones(len(live), dtype=bool)
    roots = []
    for d in sorted(set(da[da == db].tolist())):
        at = np.flatnonzero((da == d) & (db == d))
        na = _curve_rows(spans_a, ia[live[at]], "nodes")
        same, rev = curve_flip(
            na, _curve_rows(spans_b, ib[live[at]], "nodes"),
            SNAP_TOL * np.maximum(1.0, np.abs(na).max(axis=(1, 2))))
        for j, flip in zip(at[same | rev].tolist(), rev[same | rev].tolist()):
            k = int(live[j])
            ends = _same_curve_overlap(spans_a[ia[k]], spans_b[ib[k]], flip)
            if ends is not None:
                rest[j] = False
                roots += [(k, u, v, True) for u, v in ends]
    for k in live[rest & ((da == 1) | (db == 1))].tolist():
        a, b = spans_a[ia[k]], spans_b[ib[k]]
        ends = _collinear_overlap(a, b)
        if ends is not None:
            roots += [(k, u, v, True) for u, v in ends]
        elif a.degree == 1:
            roots += [(k, u, v, False) for u, v in _line_span_roots(a, b)]
        else:
            roots += [(k, u, v, False) for v, u in _line_span_roots(b, a)]
    curved = rest & (da > 1) & (db > 1)
    for pa, pb in sorted(set(zip(da[curved].tolist(), db[curved].tolist()))):
        k = live[curved & (da == pa) & (db == pb)]
        pair, u, v, _grid = _curved_roots(
            _curve_rows(spans_a, ia[k], "power_coeffs"),
            _curve_rows(spans_b, ib[k], "power_coeffs"),
            win_a[ia[k]], win_b[ib[k]])
        roots += zip(k[pair].tolist(), u.tolist(), v.tolist(),
                     [False] * len(pair))
    found = [[] for _ in range(len(ia))]
    if not roots:
        return found
    pair, u, v, ends = (np.array(col) for col in zip(*roots))
    pts, tan_a = _points_and_tangents(spans_a, deg_a, win_a, ia[pair], u)
    _, tan_b = _points_and_tangents(spans_b, deg_b, win_b, ib[pair], v)
    for k, p, uk, vk, end, ta, tb in zip(
            pair.tolist(), pts.tolist(), u.tolist(), v.tolist(),
            ends.tolist(), tan_a.tolist(), tan_b.tolist()):
        cross = unit_cross(ta, tb)
        found[k].append(CurveIntersection(
            tuple(p), uk, vk, int(ia[k]), int(ib[k]),
            transversal=not end and abs(cross) > CROSS_TOL, cross=cross))
    return found


def reference_edge_pair_roots(source, target, pairs):
    """{(es, et): [CurveIntersection]} of the edge pairs that cross."""
    if not pairs:
        return {}
    cells = np.array(pairs)
    ce_s = source.cell_edges[cells[:, 0]]
    ce_t = target.cell_edges[cells[:, 1]]
    es = np.repeat(ce_s, ce_t.shape[1], axis=1).ravel()
    et = np.tile(ce_t, (1, ce_s.shape[1])).ravel()
    first = np.sort(np.unique(es * target.n_edges + et, return_index=True)[1])
    es, et = es[first], et[first]
    spans_s = [CurveSpan(source.edge_curve(e)) for e in range(source.n_edges)]
    spans_t = [CurveSpan(target.edge_curve(e)) for e in range(target.n_edges)]
    found = reference_intersect_curves(spans_s, spans_t, es, et)
    return {(int(es[k]), int(et[k])): f for k, f in enumerate(found) if f}


def reference_pair_rows(source, target, pairs):
    """Per cell pair, its rows (ks, t, kc, s, point, transversal, cross)."""
    roots = reference_edge_pair_roots(source, target, pairs)
    edges_s = list(zip(source.cell_edges.tolist(), source.cell_dirs.tolist()))
    edges_t = list(zip(target.cell_edges.tolist(), target.cell_dirs.tolist()))
    out = []
    for ci, ct in pairs:
        raw = []
        for ks, (es, ds) in enumerate(zip(*edges_s[ci])):
            for kc, (et, dt_) in enumerate(zip(*edges_t[ct])):
                for r in roots.get((es, et), ()):
                    u = r.t if ds > 0 else 1.0 - r.t
                    v = r.s if dt_ > 0 else 1.0 - r.s
                    raw.append((ks, u, kc, v, r.point, r.transversal,
                                r.cross * ds * dt_))
        out.append(raw)
    return out
