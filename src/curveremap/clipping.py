"""Weiler-Atherton clipping of curved polygons.

Every curve-curve intersection comes from intersect_curves, over span
pairs given as index arrays: the remap plan passes every candidate pair of
whole mesh edges in one call, a single clip the span pairs of its two
polygons. It returns one Crossings table of arrays, a row per crossing,
ordered by pair; event_rows alone turns table rows into the EventRows that
the clip pass reads, in a polygon's own span indices and directions.
Curved pairs go to one seeded Newton kernel, newton_roots, on the 2x2
parametric system x_a(t) = x_b(s), y_a(t) = y_b(s), which iterates a
batch of span pairs at once, each with its own parameter window, in chunks
of whole pairs. Its seeds come from a batched Bezier subdivision of each
pair's parameter square (_subdivision_seeds): the centres of the leaves
whose control-point boxes still overlap, and the square's corners where
such a leaf lies; a pair whose survivors crowd a near-coincident stretch
takes a uniform grid of seeds instead. A seed stops at an exact fixed
point of its step, and only the moving seeds are iterated, so the roots
are those of running every seed to the end.

clip_table clips many polygon pairs at once, in array passes over all
their event rows: it snaps the events to corners, sorts and merges each
pair's events, labels them, walks the loops and emits each loop as a
table of piece windows (polygon side, span, t0, t1). Entry/exit labels
follow one rule (Weiler & Atherton 1977; Greiner & Hormann 1998): each
subject arc between consecutive events is in, out or on the clip
boundary, and an event is an entry or exit where the state passes into or
out of "in". A clean crossing at either end of an arc, transversal and
away from the corners of both polygons, gives the arc its state from the
sign of the cross product of the two tangents, which intersect_curves
records on each crossing. Point probes (_arc_state) give the other arcs
theirs, and every arc of a pair with a tangency or an overlap end: they
resolve corners, tangencies and shared or overlapping edges. A pair whose
events change no state is nested or disjoint; a corner outside the other
polygon's hull box settles it, and otherwise the same probe, run on the
whole boundary as one arc, does. The probes are the pass's only per-pair
work.

wa_clip builds one pair's loops, as CurveSpan and CurvedPolygon objects,
from its slice of the table; kept_mask checks loop areas, which the remap
plan takes for all its loops at once from the windows.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .geometry import (SNAP_TOL, CurvedPolygon, CurveSpan, GeometryError,
                       _bezier_conversion, _hypot, _lagrange_basis,
                       _lagrange_dbasis, eval_rows, real_roots_in)

NEWTON_TOL = 1e-12     # accepted residual for curve-curve roots
DEDUP_PARAM = 1e-8     # parameter radius separating distinct roots
CROSS_TOL = 1e-8       # |unit tangent cross| below this is tangential
_SIG_TOL = 1e-7        # boundary-coordinate radius when merging events
_SEED_LANES = 400_000  # Newton seeds iterated together
_NEWTON_STEPS = 30     # most Newton steps of a chunk of seeds


class ClipTopologyError(RuntimeError):
    """Inconsistent intersection topology (reported, never silent); loop
    is the index of the loop at fault in kept_mask's input, if any."""

    def __init__(self, message: str, loop: int | None = None):
        super().__init__(message)
        self.loop = loop


class Crossings(NamedTuple):
    """Crossings of span pairs, a row each, ordered by pair: the local
    parameters u and v (in [0, 1]) on the pair's two spans, the point
    (n, 2), and the cross product of the unit tangents there, first span
    first: negative where the first enters the second. grid_seeded counts
    the curved pairs that took the grid seeds (_subdivision_seeds)."""

    pair: np.ndarray
    u: np.ndarray
    v: np.ndarray
    point: np.ndarray
    transversal: np.ndarray
    cross: np.ndarray
    grid_seeded: int = 0


@dataclass
class ClipResult:
    # the loops traced, before kept_mask checks their areas
    loops: list[CurvedPolygon] = field(default_factory=list)
    containment: str = "none"  # none | subject_in_clip | clip_in_subject
    # the labelled crossings, in subject boundary order
    crossings: list[Crossing] = field(default_factory=list)

    @property
    def total_area(self) -> float:
        return sum(lp.signed_area() for lp in self.loops)


def _horner(c: np.ndarray, w: np.ndarray,
            at=np.s_[:, None]) -> tuple[np.ndarray, np.ndarray]:
    """(x, y) of power-basis curves c (P, d+1, 2) at parameters w.

    By default w is (P, n), a row of parameters per curve. With at=(rows,)
    w is (M,), and rows (M,) names the curve of each parameter; each term's
    coefficients are gathered by row, never copied per parameter.
    """
    x, y = c[(*at, -1, 0)], c[(*at, -1, 1)]
    for k in range(c.shape[1] - 2, -1, -1):
        x = x * w + c[(*at, k, 0)]
        y = y * w + c[(*at, k, 1)]
    return x, y


def _bezier_cols(c: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Bernstein control points (d+1, 2, P), in the local parameter, of
    power-basis curves c (P, d+1, 2) on windows w (P, 2) of (t0, t1 - t0):
    a column per curve, so that array passes over many curves run along
    the last axis."""
    d = c.shape[1] - 1
    x, y = _horner(c, w[:, :1] + np.linspace(0.0, 1.0, d + 1) * w[:, 1:])
    bez = _bezier_conversion(d) @ np.stack([x, y], axis=-1)
    return bez.transpose(1, 2, 0)


def _bezier_halves(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The control points of the two halves of Bezier curves b (d+1, 2, S),
    split at 1/2 by de Casteljau."""
    left, right = [b[0]], [b[-1]]
    for _ in range(b.shape[0] - 1):
        b = 0.5 * (b[:-1] + b[1:])
        left.append(b[0])
        right.append(b[-1])
    return np.stack(left), np.stack(right[::-1])


def _grid_seeds(pairs: np.ndarray, da: int, db: int):
    """Seeds (pair, u, v) of a uniform (da*db + 2)^2 grid over the local
    parameter square of each pair, more points than the composed system
    has crossings."""
    g = np.linspace(0.0, 1.0, da * db + 2)
    u0, v0 = (w.ravel() for w in np.meshgrid(g, g))
    return (np.repeat(pairs, len(u0)), np.tile(u0, len(pairs)),
            np.tile(v0, len(pairs)))


def _subdivision_seeds(ca: np.ndarray, cb: np.ndarray, wa: np.ndarray,
                       wb: np.ndarray):
    """Newton seeds (pair, u, v), ordered by pair, for P pairs of spans of
    degrees da and db given as in newton_roots, and the number of pairs
    seeded from the grid.

    Both spans' Bernstein control points are halved, level by level, and
    of the four sub-pairs of every surviving sub-pair only those whose
    control-point boxes overlap, inflated by SNAP_TOL times the pair's
    size, survive (Lane & Riesenfeld 1980): a pair whose boxes part gets no
    seed. After ceil(log2(8 da db)) levels each surviving leaf seeds its
    centre, and a leaf at a corner of the square seeds that corner too: a
    shared vertex can have a singular Jacobian, which only an exact corner
    seed finds. A pair with more than 4 da db survivors at a level is a
    near-coincident stretch that boxes cannot isolate; it leaves the
    subdivision and takes the grid seeds (_grid_seeds).
    """
    P, da, db = ca.shape[0], ca.shape[1] - 1, cb.shape[1] - 1
    depth, cap = (8 * da * db - 1).bit_length(), 4 * da * db
    a, b = _bezier_cols(ca, wa), _bezier_cols(cb, wb)
    pad = SNAP_TOL * np.maximum(1.0, np.maximum(np.abs(a).max(axis=(0, 1)),
                                                np.abs(b).max(axis=(0, 1))))
    pair, iu, iv = np.arange(P), np.zeros(P, int), np.zeros(P, int)
    grid = np.zeros(P, dtype=bool)
    for level in range(depth + 1):
        if level:
            (al, ar), (bl, br) = _bezier_halves(a), _bezier_halves(b)
            a = np.concatenate([al, al, ar, ar], axis=-1)
            b = np.concatenate([bl, br, bl, br], axis=-1)
            iu = np.concatenate([2 * iu, 2 * iu, 2 * iu + 1, 2 * iu + 1])
            iv = np.concatenate([2 * iv, 2 * iv + 1, 2 * iv, 2 * iv + 1])
            pair = np.tile(pair, 4)
        p = pad[pair]
        hit = ((a.min(axis=0) <= b.max(axis=0) + p)
               & (b.min(axis=0) <= a.max(axis=0) + p)).all(axis=0)
        crowd = np.bincount(pair[hit], minlength=P) > cap
        grid |= crowd
        hit &= ~crowd[pair]
        pair, iu, iv = pair[hit], iu[hit], iv[hit]
        a, b = a[..., hit], b[..., hit]
    last = 2 ** depth - 1
    corner = ((iu == 0) | (iu == last)) & ((iv == 0) | (iv == last))
    seeds = [(pair, (iu + 0.5) / 2 ** depth, (iv + 0.5) / 2 ** depth),
             (pair[corner], (iu[corner] > 0).astype(float),
              (iv[corner] > 0).astype(float)),
             _grid_seeds(np.flatnonzero(grid), da, db)]
    pair, u, v = (np.concatenate(col) for col in zip(*seeds))
    order = np.argsort(pair, kind="stable")
    return (pair[order], u[order], v[order]), int(grid.sum())


def newton_roots(ca: np.ndarray, cb: np.ndarray, wa: np.ndarray,
                 wb: np.ndarray, pair: np.ndarray, u: np.ndarray,
                 v: np.ndarray):
    """Newton roots of a_p(u) = b_p(v) for P pairs of spans at once.

    ca (P, da+1, 2) and cb (P, db+1, 2) hold power coefficients, wa and wb
    (P, 2) the span windows (t0, t1 - t0): a local parameter u sits at
    curve parameter t0 + u (t1 - t0). The seeds are flat arrays: seed i
    starts pair[i] at local parameters (u[i], v[i]), ordered by pair
    (_subdivision_seeds or _grid_seeds). Seeds are iterated in chunks of
    whole pairs, at most _SEED_LANES seeds or one pair, each chunk until
    all of its live seeds converge. Seeds whose Jacobian turns singular or
    that leave the square are abandoned, not errors.

    A seed whose step leaves its (u, v, alive) unchanged is at a fixed
    point: every later step would repeat that step, so it stops, and the
    result is the same as if it had run on. Only the moving seeds are
    iterated. A chunk ends once no seed moves; a flag keeps a stopped seed
    that is alive but not converged in the convergence test.

    Returns arrays (pair, u, v, residual) of every accepted seed, ordered
    by pair and then by unclamped u, with u and v clamped to [0, 1].
    Duplicate roots are the caller's to remove.
    """
    da, db = ca.shape[1] - 1, cb.shape[1] - 1
    dca = ca[:, 1:] * np.arange(1, da + 1)[None, :, None]
    dcb = cb[:, 1:] * np.arange(1, db + 1)[None, :, None]
    u, v = np.array(u, float), np.array(v, float)
    # chunk ends: pair boundaries, the last within _SEED_LANES seeds
    cuts = np.append(np.flatnonzero(pair[1:] != pair[:-1]) + 1, len(pair))
    lo = 0
    while lo < len(pair):
        hi = cuts[max(np.searchsorted(cuts, lo + _SEED_LANES, "right") - 1,
                      np.searchsorted(cuts, lo, "right"))]
        # the seeds iterated, by flat index
        idx = np.arange(lo, hi)
        uk, vk, alive = u[idx], v[idx], True
        held_open = False  # a stopped seed is alive and not converged
        for _ in range(_NEWTON_STEPS):
            at = (pair[idx],)
            ta, la = wa[(*at, 0)], wa[(*at, 1)]
            tb, lb = wb[(*at, 0)], wb[(*at, 1)]
            t, s = ta + uk * la, tb + vk * lb
            ax, ay = _horner(ca, t, at)
            bx, by = _horner(cb, s, at)
            rx, ry = ax - bx, ay - by
            dax, day = _horner(dca, t, at)
            dbx, dby = _horner(dcb, s, at)
            # arrays are dropped once dead, so that a chunk's memory stays
            # near one step's live arrays
            del t, s, ax, ay, bx, by
            dax, day, dbx, dby = dax * la, day * la, dbx * lb, dby * lb
            det = dbx * day - dax * dby
            ok = alive & (np.abs(det) > 1e-300)
            saf = np.where(ok, det, 1.0)
            du = np.where(ok, (rx * dby - dbx * ry) / saf, 0.0)
            dv = np.where(ok, (rx * day - dax * ry) / saf, 0.0)
            del det, saf, dax, day, dbx, dby
            # limit the step so wild seeds cannot shoot to infinity
            mag = np.maximum(np.abs(du), np.abs(dv))
            lim = np.where(mag > 0.5, 0.5 / np.maximum(mag, 1e-300), 1.0)
            un = uk + du * lim * ok
            vn = vk + dv * lim * ok
            del du, dv, mag, lim
            alive = ok & (np.abs(un - 0.5) < 1.2) & (np.abs(vn - 0.5) < 1.2)
            moving = alive & ((un != uk) | (vn != vk))
            u[idx], v[idx] = un, vn
            conv = np.hypot(rx, ry) < 1e-15
            if not held_open and bool(np.all(~alive | conv)):
                break
            if not moving.any():
                break
            held_open = held_open or bool((alive & ~moving & ~conv).any())
            idx, uk, vk, alive = idx[moving], un[moving], vn[moving], True
        lo = hi
    ax, ay = _horner(ca, wa[pair, 0] + u * wa[pair, 1], (pair,))
    bx, by = _horner(cb, wb[pair, 0] + v * wb[pair, 1], (pair,))
    res = np.hypot(ax - bx, ay - by)
    slack = 1e-9
    good = (res <= NEWTON_TOL) & (u > -slack) & (u < 1 + slack) & \
        (v > -slack) & (v < 1 + slack)
    order = np.lexsort((u[good], pair[good]))
    pair, u, v, res = (col[good][order] for col in (pair, u, v, res))
    return pair, np.clip(u, 0.0, 1.0), np.clip(v, 0.0, 1.0), res


def _curved_roots(ca: np.ndarray, cb: np.ndarray, wa: np.ndarray,
                  wb: np.ndarray):
    """Roots (pair, u, v) of P curved span pairs of one pair of degrees,
    given as in newton_roots, ordered by (pair, u, v), of close roots the
    first (_first_of_close); and the number of pairs seeded from the grid.
    """
    seeds, n_grid = _subdivision_seeds(ca, cb, wa, wb)
    pair, u, v, _res = newton_roots(ca, cb, wa, wb, *seeds)
    order = np.lexsort((v, u, pair))
    pair, u, v = pair[order], u[order], v[order]
    keep = _first_of_close(pair, u, v)
    return pair[keep], u[keep], v[keep], n_grid


def _unit_cross(da, db) -> np.ndarray:
    """Cross products of the unit tangents along the rows of da and db
    (..., 2), each length rounded as math.hypot rounds it; a zero tangent
    has a zero unit tangent."""
    ua, ub = np.asarray(da, float), np.asarray(db, float)
    na, nb = _hypot(ua)[..., None], _hypot(ub)[..., None]
    ua = np.divide(ua, na, out=np.zeros_like(ua), where=na > 0.0)
    ub = np.divide(ub, nb, out=np.zeros_like(ub), where=nb > 0.0)
    return ua[..., 0] * ub[..., 1] - ua[..., 1] * ub[..., 0]


def curve_flip(na: np.ndarray, nb: np.ndarray,
               tol) -> tuple[np.ndarray, np.ndarray]:
    """Whether the rows of stacked node arrays na and nb (P, d+1, 2) trace
    the same curve within tol, a scalar or (P,): two (P,) masks, (same
    direction, reversed). A row in neither is not one curve."""
    same = np.abs(na - nb).max(axis=(1, 2)) <= tol
    rev = ~same & (np.abs(na - nb[:, ::-1]).max(axis=(1, 2)) <= tol)
    return same, rev


def _same_curve_overlap(a: CurveSpan, b: CurveSpan, flip: bool):
    """Overlap interval of spans on the same geometric curve, b reversed
    against a when flip, or None.

    Returns ((u0, v0), (u1, v1)) local-parameter pairs of the overlap
    endpoints, or one pair where the spans share a single point.
    """
    # express b's window in a's curve parameter
    bt0, bt1 = (1.0 - b.t0, 1.0 - b.t1) if flip else (b.t0, b.t1)
    lo_a, hi_a = min(a.t0, a.t1), max(a.t0, a.t1)
    lo_b, hi_b = min(bt0, bt1), max(bt0, bt1)
    lo, hi = max(lo_a, lo_b), min(hi_a, hi_b)
    if hi < lo - 1e-12:
        return None

    def u_of(tc):
        return (tc - a.t0) / (a.t1 - a.t0)

    def v_of(tc):
        tb = (1.0 - tc) if flip else tc
        return (tb - b.t0) / (b.t1 - b.t0)

    if hi - lo <= 1e-12:   # single shared point
        tmid = 0.5 * (lo + hi)
        return ((u_of(tmid), v_of(tmid)),)
    return ((u_of(lo), v_of(lo)), (u_of(hi), v_of(hi)))


def _collinear_overlap(a: CurveSpan, b: CurveSpan):
    """Overlap endpoints for two straight collinear spans, or None."""
    if a.curve.degree != 1 or b.curve.degree != 1:
        return None
    pa0, pa1 = a.start, a.end
    pb0, pb1 = b.start, b.end
    da = pa1 - pa0
    la = math.hypot(da[0], da[1])
    if la == 0.0:
        return None
    # both b endpoints on the line through a, and directions parallel
    for p in (pb0, pb1):
        if abs((p[0] - pa0[0]) * da[1] - (p[1] - pa0[1]) * da[0]) > SNAP_TOL * la:
            return None
    ua0 = ((pb0[0] - pa0[0]) * da[0] + (pb0[1] - pa0[1]) * da[1]) / (la * la)
    ua1 = ((pb1[0] - pa0[0]) * da[0] + (pb1[1] - pa0[1]) * da[1]) / (la * la)
    lo, hi = max(0.0, min(ua0, ua1)), min(1.0, max(ua0, ua1))
    if hi <= lo + 1e-12:
        return None

    def v_of(u):
        if ua1 == ua0:
            return 0.0
        return min(max((u - ua0) / (ua1 - ua0), 0.0), 1.0)

    return ((lo, v_of(lo)), (hi, v_of(hi)))


def _line_span_roots(line: CurveSpan, span: CurveSpan) -> list[tuple[float, float]]:
    """Exact (u_line, v_span) roots when one span is straight.

    The straight span defines a line; crossings of the other span with that
    line are polynomial roots, which avoids any chance of a missed seed.
    """
    p0, p1 = line.start, line.end
    dx, dy = p1[0] - p0[0], p1[1] - p0[1]
    length2 = dx * dx + dy * dy
    if length2 == 0.0:
        return []
    pc = span.curve.power_coeffs
    wx, wy = pc[:, 0].copy(), pc[:, 1].copy()
    wx[0] -= p0[0]
    wy[0] -= p0[1]
    w = wx * dy - wy * dx
    lo, hi = min(span.t0, span.t1), max(span.t0, span.t1)
    roots = []
    slack = 1e-9
    for t in real_roots_in(w, lo, hi):
        p = span.curve.eval(t)
        u = ((p[0] - p0[0]) * dx + (p[1] - p0[1]) * dy) / length2
        if -slack <= u <= 1.0 + slack:
            v = (t - span.t0) / (span.t1 - span.t0)
            roots.append((min(max(u, 0.0), 1.0), min(max(v, 0.0), 1.0)))
    return roots


def _merged_into(pair: np.ndarray, close) -> np.ndarray:
    """For rows sorted by pair, the row each merges into: the first kept
    row of its pair for which close(rows, kept rows) holds, or itself,
    kept, where there is none.

    Runs in rounds: each keeps every pair's first remaining row and merges
    the remaining rows of that pair close to it into it. A row before the
    one kept merged into an earlier kept row, so this is the greedy rule.
    """
    into = np.arange(len(pair))
    rem = np.arange(len(pair))
    while len(rem):
        p = pair[rem]
        head = np.ones(len(rem), dtype=bool)
        head[1:] = p[1:] != p[:-1]
        h = rem[head][np.cumsum(head) - 1]
        near = close(rem, h)
        into[rem[near]] = h[near]
        rem = rem[~near]
    return into


def _first_of_close(pair: np.ndarray, t: np.ndarray,
                    s: np.ndarray) -> np.ndarray:
    """Mask of the roots kept of seeds sorted by (pair, t, s): a seed is
    kept unless it lies within DEDUP_PARAM in both t and s of a kept seed
    of its pair (_merged_into)."""
    into = _merged_into(pair, lambda i, h: (
        (np.abs(t[i] - t[h]) <= DEDUP_PARAM)
        & (np.abs(s[i] - s[h]) <= DEDUP_PARAM)))
    return into == np.arange(len(pair))


def _box_hits(spans_a, spans_b, ia: np.ndarray,
              ib: np.ndarray) -> np.ndarray:
    """Indices k of the pairs (spans_a[ia[k]], spans_b[ib[k]]) whose hull
    boxes, inflated by SNAP_TOL, overlap; each span's box is taken once."""
    ba, bb = (np.array([(b.xmin - SNAP_TOL, b.ymin - SNAP_TOL,
                         b.xmax + SNAP_TOL, b.ymax + SNAP_TOL)
                        for b in (s.bbox() for s in spans)]).reshape(-1, 4)[i]
              for spans, i in ((spans_a, ia), (spans_b, ib)))
    return np.flatnonzero((ba[:, 0] <= bb[:, 2]) & (bb[:, 0] <= ba[:, 2])
                          & (ba[:, 1] <= bb[:, 3]) & (bb[:, 1] <= ba[:, 3]))


def _curve_rows(spans, idx: np.ndarray, attr: str) -> np.ndarray:
    """The curve array attr ('nodes' or 'power_coeffs') of spans[idx[k]]
    for each k, spans of one degree; each distinct span is read once."""
    uniq, inv = np.unique(idx, return_inverse=True)
    return np.array([getattr(spans[i].curve, attr)
                     for i in uniq.tolist()])[inv]


def _points_and_tangents(spans, deg, win, idx, u):
    """Points and local tangents (n, 2) of spans[idx[k]] at local u[k],
    given the degree and (t0, t1 - t0) window of every span: one stacked
    product per degree, each row rounded as curve.eval and deriv round
    one parameter."""
    pts, tan = np.empty((len(idx), 2)), np.empty((len(idx), 2))
    for d in sorted(set(deg[idx].tolist())):
        m = deg[idx] == d
        t = win[idx[m], 0] + u[m] * win[idx[m], 1]
        nodes = _curve_rows(spans, idx[m], "nodes")
        pts[m] = eval_rows(_lagrange_basis(d, t), nodes)
        tan[m] = eval_rows(_lagrange_dbasis(d, t), nodes) * win[idx[m], 1:]
    return pts, tan


def intersect_curves(spans_a, spans_b, ia, ib) -> Crossings:
    """All intersections (unlabeled) of the span pairs (spans_a[ia[k]],
    spans_b[ib[k]]), as one Crossings table whose pair column is k, in the
    spans' local parameters.

    Pairs whose hull boxes, inflated by SNAP_TOL, miss each other are
    culled in one array test. Spans on one curve (curve_flip within
    SNAP_TOL of the nodes' size, one pass per degree) and collinear
    straight spans report the ends of their overlap, not transversal: its
    interior is a continuum, not isolated roots. Other pairs with a
    straight span take exact polynomial roots (_line_span_roots). The
    curved pairs of each pair of degrees go through one _curved_roots call,
    in input order: Newton from subdivision seeds, or from the grid where
    a pair nearly coincides with its partner, and of close roots the first
    (_first_of_close); a pair's rows keep the order of these passes, and
    the table counts the grid-seeded pairs. Each root records the cross
    product of the unit tangents, and is transversal when they are not
    parallel.
    """
    ia, ib = np.asarray(ia, int), np.asarray(ib, int)
    live = _box_hits(spans_a, spans_b, ia, ib)
    deg_a, deg_b = (np.array([s.degree for s in sp], int)
                    for sp in (spans_a, spans_b))
    win_a, win_b = (np.array([(s.t0, s.t1 - s.t0) for s in sp]).reshape(-1, 2)
                    for sp in (spans_a, spans_b))
    da, db = deg_a[ia[live]], deg_b[ib[live]]
    rest = np.ones(len(live), dtype=bool)  # pairs without an overlap
    roots = []  # (pair, u, v, an overlap end)
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
    grid_seeded = 0
    for pa, pb in sorted(set(zip(da[curved].tolist(), db[curved].tolist()))):
        k = live[curved & (da == pa) & (db == pb)]
        pair, u, v, n_grid = _curved_roots(
            _curve_rows(spans_a, ia[k], "power_coeffs"),
            _curve_rows(spans_b, ib[k], "power_coeffs"),
            win_a[ia[k]], win_b[ib[k]])
        grid_seeded += n_grid
        roots += zip(k[pair].tolist(), u.tolist(), v.tolist(),
                     [False] * len(pair))
    cols = list(zip(*roots)) or [()] * 4
    pair, u, v, ends = (np.array(col, dtype=t) for col, t in
                        zip(cols, (int, float, float, bool)))
    order = np.argsort(pair, kind="stable")
    pair, u, v, ends = pair[order], u[order], v[order], ends[order]
    pts, tan_a = _points_and_tangents(spans_a, deg_a, win_a, ia[pair], u)
    _, tan_b = _points_and_tangents(spans_b, deg_b, win_b, ib[pair], v)
    cross = _unit_cross(tan_a, tan_b)
    return Crossings(pair, u, v, pts, ~ends & (np.abs(cross) > CROSS_TOL),
                     cross, grid_seeded)


class EventRows(NamedTuple):
    """Crossings as the clip pass reads them, a row each, grouped by the
    polygon pair they belong to (pair, ascending): the subject span ks and
    its local parameter t, the clip span kc and its s, both in the
    polygons' own traversal directions, the point (n, 2), the transversal
    flag and the cross product, signed for those directions."""

    pair: np.ndarray
    ks: np.ndarray
    t: np.ndarray
    kc: np.ndarray
    s: np.ndarray
    point: np.ndarray
    transversal: np.ndarray
    cross: np.ndarray


def event_rows(found: Crossings, pair, ks, kc, ds, dt) -> EventRows:
    """The EventRows of the crossings found, of polygon pair pair, on
    subject span ks and clip span kc (a value per row), which run as
    intersect_curves saw them (+1) or reversed (-1) as ds and dt say: a
    reversed span's parameter u is 1 - u, and the cross product takes the
    sign of both directions."""
    return EventRows(np.asarray(pair, int), np.asarray(ks, int),
                     np.where(ds > 0, found.u, 1.0 - found.u),
                     np.asarray(kc, int),
                     np.where(dt > 0, found.v, 1.0 - found.v),
                     found.point, found.transversal, found.cross * ds * dt)


def _raw_intersections(subject: CurvedPolygon,
                       clip: CurvedPolygon) -> EventRows:
    """Event rows of every span pair of two polygons, subject major, as
    pair 0."""
    ns, nc = len(subject.spans), len(clip.spans)
    ia, ib = np.divmod(np.arange(ns * nc), nc)
    found = intersect_curves(subject.spans, clip.spans, ia, ib)
    return event_rows(found, np.zeros(len(found.pair), int), ia[found.pair],
                      ib[found.pair], 1, 1)


class PolygonTable(NamedTuple):
    """The subject or the clip polygon of each pair of a clip pass, all
    with the same number n of spans: the polygons, in which the probes
    locate points, their corners (P, n, 2), their span windows (P, n, 2)
    as (t0, t1) and their hull boxes (P, 4) as (xmin, ymin, xmax, ymax)."""

    polys: list
    corners: np.ndarray
    windows: np.ndarray
    boxes: np.ndarray


def polygon_table(polys) -> PolygonTable:
    """The PolygonTable of polygons with one span count."""
    boxes = [p.bbox() for p in polys]
    return PolygonTable(
        list(polys), np.array([p.corners for p in polys], float),
        np.array([[(s.t0, s.t1) for s in p.spans] for p in polys], float),
        np.array([(b.xmin, b.ymin, b.xmax, b.ymax) for b in boxes], float))


class Crossing(NamedTuple):
    """A labelled crossing of a clip: its point and "entry" or "exit"."""

    point: tuple[float, float]
    kind: str


class PairClip(NamedTuple):
    """One pair's slice of a ClipTable, all wa_clip builds its result
    from: the containment, the error the pair's clip raises or None, the
    labelled crossings in subject order, and each loop's windows (side,
    span, t0, t1), side 0 for a subject span and 1 for a clip span."""

    containment: str
    error: Exception | None
    crossings: list[Crossing]
    loops: list[list[tuple[int, int, float, float]]]


@dataclass
class ClipTable:
    """The clips of many polygon pairs, from clip_table.

    Events, a row per event left after snapping and merging, grouped by
    pair and in subject boundary order: pair, point (m, 2), the boundary
    coordinates sig_s and sig_c, and kind, 1 for an entry, -1 for an exit
    and 0 for an event that changes no state. Per pair, containment and,
    in errors, the exception of each pair whose clip failed. Loops, by
    pair: loop_pair, and win_cut (L + 1,), where each loop's windows
    start. Windows, a row per piece of a loop, in walk order: the polygon
    side (0 the subject, 1 the clip), the span, and the piece's window
    (t0, t1) on the span's curve. probes counts the _arc_state calls.
    table[p] is pair p's PairClip.
    """

    pair: np.ndarray
    point: np.ndarray
    sig_s: np.ndarray
    sig_c: np.ndarray
    kind: np.ndarray
    containment: list[str]
    errors: dict[int, Exception]
    loop_pair: np.ndarray
    win_cut: np.ndarray
    side: np.ndarray
    span: np.ndarray
    t0: np.ndarray
    t1: np.ndarray
    probes: int

    def __post_init__(self):
        # plain lists, which the per-pair slices cut
        n = len(self.containment)
        kept = np.flatnonzero(self.kind)
        self._crossings = [
            Crossing(tuple(pt), "entry" if k > 0 else "exit")
            for pt, k in zip(self.point[kept].tolist(),
                             self.kind[kept].tolist())]
        self._crossing_cut = np.searchsorted(
            self.pair[kept], np.arange(n + 1)).tolist()
        self._loop_cut = np.searchsorted(self.loop_pair,
                                         np.arange(n + 1)).tolist()
        self._windows = list(zip(self.side.tolist(), self.span.tolist(),
                                 self.t0.tolist(), self.t1.tolist()))
        self._win_cut = self.win_cut.tolist()

    def __getitem__(self, p: int) -> PairClip:
        cut = self._win_cut
        return PairClip(
            self.containment[p], self.errors.get(p),
            self._crossings[self._crossing_cut[p]:self._crossing_cut[p + 1]],
            [self._windows[cut[i]:cut[i + 1]]
             for i in range(self._loop_cut[p], self._loop_cut[p + 1])])


# --------------------------------------------------------------------------
# the clip pass: boundary coordinates, labels, walk and windows

def _sigma_point(poly: CurvedPolygon, sig: float) -> np.ndarray:
    n = len(poly.spans)
    sig = sig % n
    k = int(sig)
    if k == n:
        k, frac = 0, 0.0
    else:
        frac = sig - k
    return poly.spans[k].point_at(frac)


def _snapped(pair: np.ndarray, k: np.ndarray, u: np.ndarray,
             point: np.ndarray, corners: np.ndarray) -> np.ndarray:
    """Boundary coordinates (k + u) mod n of rows at local parameter u of
    span k of the polygons with corners (P, n, 2), each snapped to the
    nearest corner (rounding half to even) where the row's point lies
    within SNAP_TOL of it, measured as math.hypot rounds it."""
    n = corners.shape[1]
    sig = (k + u) % n
    near = np.round(sig)
    off = point - corners[pair, near.astype(int) % n]
    # a length is at least its largest component: only rows within
    # SNAP_TOL in both components need the rounded length
    at = np.flatnonzero(np.abs(off).max(axis=1) <= SNAP_TOL)
    at = at[_hypot(off[at]) <= SNAP_TOL]
    sig[at] = near[at] % n
    return sig


def _close(x: np.ndarray, y: np.ndarray, n: int) -> np.ndarray:
    """Whether boundary coordinates x and y lie within _SIG_TOL of each
    other, cyclically on n spans."""
    d = np.abs(x - y) % n
    return np.minimum(d, n - d) <= _SIG_TOL


def _cyclic_next(group: np.ndarray) -> np.ndarray:
    """Index of the next row of the same group, cyclically, for rows
    sorted by group."""
    i = np.arange(len(group))
    return np.where(i + 1 == np.searchsorted(group, group, "right"),
                    np.searchsorted(group, group, "left"), i + 1)


def _near_corner(sig: np.ndarray) -> np.ndarray:
    """Whether boundary coordinates sig lie within _SIG_TOL of a corner."""
    u = sig - np.trunc(sig)
    return (u <= _SIG_TOL) | (1.0 - u <= _SIG_TOL)


def _arc_state(poly: CurvedPolygon, other: CurvedPolygon, sig_a: float,
               sig_b: float) -> str:
    """State (in/out/bdry) of the boundary arc (sig_a, sig_b) of poly with
    respect to other, by point location at the arc's middle, and at its
    quarters when the middle lies on other's boundary."""
    n = len(poly.spans)
    if sig_b <= sig_a + 1e-12:
        sig_b += n
    votes = {"inside": 0, "outside": 0}
    boundary = 0
    for frac in (0.5, 0.25, 0.75):
        p = _sigma_point(poly, sig_a + frac * (sig_b - sig_a))
        loc = other.locate(float(p[0]), float(p[1]))
        if loc == "boundary":
            boundary += 1
            continue
        votes[loc] += 1
        if frac == 0.5 and votes[loc] == 1 and boundary == 0:
            break  # unambiguous midpoint
    if votes["inside"] == 0 and votes["outside"] == 0:
        return "bdry"
    return "in" if votes["inside"] >= votes["outside"] else "out"


def _kinds(pair, sig_s, sig_c, transversal, cross, sub: PolygonTable,
           clp: PolygonTable, state, errors: dict) -> np.ndarray:
    """Entry/exit kinds (1, -1, or 0 for none) of events sorted by pair
    and subject boundary coordinate.

    Each subject arc between consecutive events is in, out or bdry, and an
    event is an entry or exit where the state passes into or out of "in".
    An arc meets the clip only at its ends, so a clean crossing at either
    end (transversal, |cross| > CROSS_TOL, away from both polygons'
    corners) gives it its state: the subject enters the counterclockwise
    clip where cross < 0. state(subject, clip, sig_a, sig_b), _arc_state,
    probes the arcs with no clean end or with clean ends that disagree,
    and every arc of a pair with a tangential event or an overlap end; a
    probe that fails gives its pair the error.
    """
    nxt = _cyclic_next(pair)
    tangential = np.zeros(len(sub.polys), dtype=bool)
    tangential[pair[~transversal | (np.abs(cross) <= CROSS_TOL)]] = True
    clean = ~tangential[pair] & ~_near_corner(sig_s) & ~_near_corner(sig_c)
    enters = cross < 0.0
    # whether the arc from each event to the next is in: after a clean
    # crossing that enters, or before one that leaves
    arc_in = np.where(clean, enters, ~enters[nxt])
    probe = (~(clean | clean[nxt])
             | (clean & clean[nxt] & (enters == enters[nxt])))
    at = np.flatnonzero(probe)
    for i, p, a, b in zip(at.tolist(), pair[at].tolist(),
                          sig_s[at].tolist(), sig_s[nxt[at]].tolist()):
        if p in errors:
            continue
        try:
            arc_in[i] = state(sub.polys[p], clp.polys[p], a, b) == "in"
        except GeometryError as exc:
            errors[p] = exc
    before = np.empty_like(arc_in)
    before[nxt] = arc_in
    return np.where(before != arc_in, np.where(arc_in, 1, -1), 0)


def _hull_holds(inner: PolygonTable, outer: PolygonTable) -> np.ndarray:
    """Whether every corner of each inner polygon lies in its outer
    polygon's hull box, inflated by SNAP_TOL. Corners lie on inner's
    boundary and the hull box contains outer, so inner cannot lie inside
    outer otherwise."""
    lo = outer.boxes[:, None, :2] - SNAP_TOL
    hi = outer.boxes[:, None, 2:] + SNAP_TOL
    return ((lo <= inner.corners) & (inner.corners <= hi)).all(axis=(1, 2))


def _containment(pairs, sub: PolygonTable, clp: PolygonTable, state,
                 errors: dict) -> list[tuple[int, str]]:
    """(pair, containment) of the pairs given, whose events change no
    state, where one polygon lies inside the other.

    One lies inside the other when its corners lie in the other's hull
    box and state, probing its whole boundary as one arc, does not read
    "out". An arc on the other's boundary counts as held, so polygons that
    share the probed points, identical ones among them, nest both ways,
    and then the smaller comes back, the subject on a tie.
    """
    out = []
    hull_s = _hull_holds(sub, clp).tolist()
    hull_c = _hull_holds(clp, sub).tolist()
    for p in pairs:
        s, c = sub.polys[p], clp.polys[p]
        try:
            sub_in = hull_s[p] and state(s, c, 0.5, 0.5) != "out"
            clip_in = hull_c[p] and state(c, s, 0.5, 0.5) != "out"
        except GeometryError as exc:
            errors[p] = exc
            continue
        if sub_in and (not clip_in or s.signed_area() <= c.signed_area()):
            out.append((p, "subject_in_clip"))
        elif clip_in:
            out.append((p, "clip_in_subject"))
    return out


def _point(point: np.ndarray, i: int) -> tuple[float, float]:
    return tuple(point[i].tolist())


def _points(point: np.ndarray, mask: np.ndarray) -> list[tuple]:
    return [tuple(pt) for pt in point[mask].tolist()]


def _walk(pair, sig_s, sig_c, entry, point, errors: dict):
    """The loops of the entries and exits of each pair (arrays sorted by
    pair and subject boundary coordinate), walked as Weiler and Atherton
    walk them: from each entry not yet visited, in subject order, along
    the subject boundary to the next exit, then along the clip boundary to
    the next entry, until the loop closes.

    Returns the pair of each loop and the walk's boundary segments in walk
    order: (loop, side, sig_a, sig_b), side 0 from an entry to its exit on
    the subject, 1 from an exit to the next entry on the clip. A pair with
    unequal numbers of entries and exits, or whose walk meets an entry
    where it needs an exit or the reverse, gets its ClipTopologyError, with
    the message of the first failure the sequential walk would meet.

    Within a pair, the step from an entry to the entry after its exit is
    one-to-one, so the walk from an entry either closes or reaches an
    entry whose step fails. The first entry, in subject order, whose walk
    fails names the pair's error; otherwise every loop is a cycle of the
    step, traced from its first entry in subject order, all loops at once.
    """
    count = np.bincount(pair)
    n_in = np.bincount(pair, weights=entry, minlength=len(count)).astype(int)
    for p in np.flatnonzero(count != 2 * n_in).tolist():
        errors[p] = ClipTopologyError(
            f"unbalanced entry/exit events: {n_in[p]} entries, "
            f"{count[p] - n_in[p]} exits (points "
            f"{_points(point, pair == p)})")
    ok = (count == 2 * n_in)[pair]
    pair, sig_s, sig_c, entry, point = (a[ok] for a in
                                        (pair, sig_s, sig_c, entry, point))
    next_s = _cyclic_next(pair)
    by_c = np.lexsort((sig_c, pair))  # stable: ties keep subject order
    next_c = np.empty(len(pair), int)
    next_c[by_c] = by_c[_cyclic_next(pair[by_c])]
    ent = np.flatnonzero(entry)
    ex = next_s[ent]
    back = next_c[ex]
    fails = entry[ex] | ~entry[back]
    step = np.arange(len(pair))
    step[ent] = np.where(fails, ent, back)
    failed = np.zeros(len(pair), dtype=bool)
    failed[ent] = fails
    # by doubling: where each entry's walk ends (an entry whose step
    # fails, or a point of its cycle), and the first event of its cycle
    end, first = step.copy(), np.arange(len(pair))
    for _ in range(int(np.bincount(pair[ent]).max(initial=0)).bit_length()):
        first = np.minimum(first, first[end])
        end = end[end]
    stuck = ent[failed[end[ent]]]
    _, at = np.unique(pair[stuck], return_index=True)
    for e in end[stuck[at]].tolist():
        x = next_s[e]
        if entry[x]:
            msg = (f"expected exit after entry at {_point(point, e)}, "
                   f"got entry at {_point(point, x)}")
        else:
            msg = (f"expected entry after exit at {_point(point, x)} on "
                   f"clip walk, got exit at {_point(point, next_c[x])}")
        errors[int(pair[e])] = ClipTopologyError(msg)
    good = ~np.isin(pair, pair[stuck])
    start = ent[(first[ent] == ent) & good[ent]]
    # every loop at once, a step each round; the bound is the sequential
    # walk's, which a cycle of the step never reaches
    limit = 4 * np.bincount(pair)[pair] + 8
    loop, cur, segs = np.arange(len(start)), start, []
    seen = np.zeros(len(pair), dtype=bool)
    for n in itertools.count():
        if not len(loop):
            break
        ex = next_s[cur]
        back = next_c[ex]
        seen[cur] = seen[ex] = True
        segs.append((loop, np.full(len(loop), n), cur, ex, back))
        go = back != start[loop]
        over = go & (n + 1 >= limit[cur])
        for p in np.unique(pair[cur[over]]).tolist():
            errors[p] = ClipTopologyError("clip traversal did not close")
        loop, cur = loop[go & ~over], back[go & ~over]
    # once the walk's checks pass every event is visited: the step is
    # then a permutation of the entries, and the subject successor maps
    # them onto the exits; kept as a check
    unused = good & ~seen
    for p in np.unique(pair[unused]).tolist():
        errors[p] = ClipTopologyError(
            f"unused intersection points after traversal: "
            f"{_points(point, unused & (pair == p))}")
    loop, n, e, x, y = (np.concatenate(c) for c in
                        zip((np.zeros(0, int),) * 5, *segs))
    order = np.lexsort((n, loop))
    loop, e, x, y = loop[order], e[order], x[order], y[order]
    loop_pair = pair[start]
    live = ~np.isin(loop_pair, list(errors))
    renum = np.cumsum(live) - 1
    keep = live[loop]
    loop, e, x, y = renum[loop[keep]], e[keep], x[keep], y[keep]
    return (loop_pair[live], np.repeat(loop, 2),
            np.tile([0, 1], len(loop)),
            np.stack([sig_s[e], sig_c[x]], axis=1).ravel(),
            np.stack([sig_s[x], sig_c[y]], axis=1).ravel())


def _pieces(a: np.ndarray, b: np.ndarray, n: np.ndarray):
    """The pieces of boundary segments from boundary coordinate a forward
    to b, cyclically, on polygons of n spans (a value per segment): each
    stretch of a span between local parameters u0 < u1 more than 1e-12
    apart, as (segment, span, u0, u1), in segment order."""
    a, b = a % n, b % n
    b = np.where(b <= a + 1e-12, b + n, b)
    k0 = np.floor(a)
    count = (np.ceil(b) - k0).astype(int)
    seg = np.repeat(np.arange(len(a)), count)
    k = k0[seg] + (np.arange(len(seg))
                   - np.repeat(np.cumsum(count) - count, count))
    u0 = np.maximum(a[seg] - k, 0.0)
    u1 = np.minimum(b[seg] - k, 1.0)
    keep = u1 - u0 > 1e-12
    seg = seg[keep]
    return seg, (k[keep] % n[seg]).astype(int), u0[keep], u1[keep]


def clip_table(rows: EventRows, sub: PolygonTable,
               clp: PolygonTable) -> ClipTable:
    """The Weiler-Atherton clip of every polygon pair (sub.polys[p],
    clp.polys[p]) on its rows, in array passes over all pairs at once.

    1. Each row's boundary coordinates, its span index plus its local
       parameter, snap to the corner its point lies within SNAP_TOL of
       (_snapped).
    2. Each pair's events are sorted by (sig_s, sig_c), stably, and each
       merges into the first kept event within _SIG_TOL of it in both
       cyclic coordinates, which is transversal if either was
       (_merged_into).
    3. Events are labelled entry or exit from the states of the arcs
       between them (_kinds); only arcs that no clean crossing settles are
       probed. A pair without entries or exits is nested or disjoint
       (_containment).
    4. Entries and exits are walked into loops (_walk).
    5. Each loop becomes its windows: the pieces of its boundary segments
       (_pieces), sub-spans of the polygons' own spans; a nested pair's
       loop is the inner polygon's whole boundary.
    A pair whose clip fails keeps its error, which wa_clip raises.
    """
    n_pairs = len(sub.polys)
    ns, nc = sub.corners.shape[1], clp.corners.shape[1]
    errors: dict[int, Exception] = {}
    probes = 0

    def state(poly, other, sig_a, sig_b):
        nonlocal probes
        probes += 1
        return _arc_state(poly, other, sig_a, sig_b)

    sig_s = _snapped(rows.pair, rows.ks, rows.t, rows.point, sub.corners)
    sig_c = _snapped(rows.pair, rows.kc, rows.s, rows.point, clp.corners)
    order = np.lexsort((sig_c, sig_s, rows.pair))
    sig_s, sig_c = sig_s[order], sig_c[order]
    into = _merged_into(rows.pair[order], lambda i, h: (
        _close(sig_s[i], sig_s[h], ns) & _close(sig_c[i], sig_c[h], nc)))
    head = into == np.arange(len(into))
    transversal = np.bincount(into, weights=rows.transversal[order],
                              minlength=len(into))[head] > 0
    ev = order[head]
    pair, point, cross = rows.pair[ev], rows.point[ev], rows.cross[ev]
    sig_s, sig_c = sig_s[head], sig_c[head]
    kind = _kinds(pair, sig_s, sig_c, transversal, cross, sub, clp, state,
                  errors)
    moved = np.zeros(n_pairs, dtype=bool)
    moved[pair[kind != 0]] = True
    nested = _containment(
        [p for p in np.flatnonzero(~moved).tolist() if p not in errors],
        sub, clp, state, errors)
    at = np.flatnonzero((kind != 0) & ~np.isin(pair, list(errors)))
    walked, seg_loop, seg_side, a, b = _walk(
        pair[at], sig_s[at], sig_c[at], kind[at] > 0, point[at], errors)
    # a nested pair's loop is the inner polygon's whole boundary: one
    # segment from its first corner round to itself
    c_side = np.array([c == "clip_in_subject" for _, c in nested], int)
    loop_pair = np.concatenate([walked, [p for p, _ in nested]]).astype(int)
    seg_loop = np.concatenate([seg_loop, len(walked) + np.arange(len(nested))])
    seg_side = np.concatenate([seg_side, c_side])
    a, b = (np.concatenate([x, np.zeros(len(nested))]) for x in (a, b))
    # the loops by pair, each one's segments in walk order
    rank = np.empty(len(loop_pair), int)
    rank[np.argsort(loop_pair, kind="stable")] = np.arange(len(loop_pair))
    by_loop = np.argsort(rank[seg_loop], kind="stable")
    seg_loop, seg_side = rank[seg_loop][by_loop], seg_side[by_loop]
    seg, span, u0, u1 = _pieces(a[by_loop], b[by_loop],
                                np.where(seg_side == 0, ns, nc))
    loop, side = seg_loop[seg], seg_side[seg]
    loop_pair = np.sort(loop_pair)
    t0, t1 = np.empty(len(seg)), np.empty(len(seg))
    for k, tab in enumerate((sub, clp)):
        on = side == k
        w0, w1 = tab.windows[loop_pair[loop[on]], span[on]].T
        t0[on], t1[on] = w0 + u0[on] * (w1 - w0), w0 + u1[on] * (w1 - w0)
    containment = ["none"] * n_pairs
    for p, c in nested:
        containment[p] = c
    return ClipTable(pair, point, sig_s, sig_c, kind, containment, errors,
                     loop_pair,
                     np.searchsorted(loop, np.arange(len(loop_pair) + 1)),
                     side, span, t0, t1, probes)


def wa_clip(subject: CurvedPolygon, clip: CurvedPolygon,
            raw: PairClip | None = None) -> ClipResult:
    """Intersection of two curved polygons by Weiler-Atherton traversal.

    raw is the pair's slice of a ClipTable, in which clip_table labelled
    the crossings, walked the loops and cut their windows; by default the
    pass runs on this pair alone, on _raw_intersections. This builds the
    loops: each window is a sub-span of the subject's or the clip's own
    edge curve, never a re-approximation. A nested pair gives back its
    inner polygon itself, and a pair whose clip failed raises its error.
    The result holds every loop traced, without looking at its area: the
    intersection is kept_loops(result.loops, subject, clip).
    """
    if raw is None:
        raw = clip_table(_raw_intersections(subject, clip),
                         polygon_table([subject]), polygon_table([clip]))[0]
    if raw.error is not None:
        raise raw.error
    if raw.containment == "subject_in_clip":
        return ClipResult([subject], raw.containment)
    if raw.containment == "clip_in_subject":
        return ClipResult([clip], raw.containment)
    spans = (subject.spans, clip.spans)
    return ClipResult([CurvedPolygon([CurveSpan(spans[side][k].curve, t0, t1)
                                      for side, k, t0, t1 in lp])
                       for lp in raw.loops], crossings=raw.crossings)


def kept_mask(area, scale) -> np.ndarray:
    """Which loops of the given areas bound area, each measured against
    scale, the area of the smaller polygon of its clip (a value per loop
    or one for all): a loop below -1e-9 of it raises ClipTopologyError
    naming the loop, and one at or below 1e-12 of it is dropped, a sliver
    of boundaries that touch."""
    area, scale = np.asarray(area, float), np.asarray(scale, float)
    bad = np.flatnonzero(area < -1e-9 * scale)
    if len(bad):
        raise ClipTopologyError(
            f"negative-area loop ({area[bad[0]]:.3e}) emitted", int(bad[0]))
    return area > 1e-12 * np.maximum(scale, 1e-30)


def kept_loops(loops: list[CurvedPolygon], subject: CurvedPolygon,
               clip: CurvedPolygon) -> list[CurvedPolygon]:
    """The loops of a clip of subject by clip that bound area, by
    kept_mask against the smaller polygon's area. A loop without a cached
    area gets it on its own; the remap plan takes the areas of all its
    loops from its window table and applies kept_mask to them at once."""
    scale = min(abs(subject.signed_area()), abs(clip.signed_area()))
    keep = kept_mask([lp.signed_area() for lp in loops], scale)
    return [lp for lp, k in zip(loops, keep.tolist()) if k]
