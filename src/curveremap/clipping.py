"""Weiler-Atherton clipping of curved polygons.

Every curve-curve intersection comes from intersect_curves, over span
pairs given as index arrays: the remap plan passes every candidate pair of
whole mesh edges in one call, a single clip the span pairs of its two
polygons. Curved pairs go to one seeded Newton kernel, newton_roots, on
the 2x2 parametric system x_a(t) = x_b(s), y_a(t) = y_b(s), which iterates
a batch of span pairs at once, each with its own parameter window. A seed
stops at an exact fixed point of its step, and once few seeds move only
those are iterated, so the roots are those of running every seed to the
end.

Entry/exit labels follow one rule (Weiler & Atherton 1977; Greiner &
Hormann 1998): each subject arc between consecutive events is in, out or
on the clip boundary, and an event is an entry or exit where the state
passes into or out of "in". A clean crossing at either end of an arc,
transversal and away from the corners of both polygons, gives the arc its
state from the sign of the cross product of the two tangents, which
intersect_curves records on each crossing. Point probes give the other
arcs theirs, and every arc of a list with a tangency or an overlap end:
they resolve corners, tangencies and shared or overlapping edges. A pair
whose events change no state is nested or disjoint; a corner outside the
other polygon's hull box settles it, and otherwise the same probe, run on
the whole boundary as one arc, does.

wa_clip traces the loops; kept_loops checks their areas, which the remap
plan fills for all its loops at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (SNAP_TOL, CurvedPolygon, CurveSpan, _lagrange_basis,
                       _lagrange_dbasis, eval_rows, real_roots_in)

NEWTON_TOL = 1e-12     # accepted residual for curve-curve roots
DEDUP_PARAM = 1e-8     # parameter radius separating distinct roots
CROSS_TOL = 1e-8       # |unit tangent cross| below this is tangential
_SIG_TOL = 1e-7        # boundary-coordinate radius when merging events
_SEED_LANES = 400_000  # Newton seeds iterated together
_NEWTON_STEPS = 30     # most Newton steps of a chunk of seeds


class ClipTopologyError(RuntimeError):
    """Inconsistent intersection topology (reported, never silent)."""


@dataclass
class CurveIntersection:
    """One intersection of a subject span and a clip span.

    t and s are local parameters (in [0, 1]) on the subject and clip spans.
    cross is the cross product of the spans' unit tangents there, subject
    first, in their traversal directions: negative where the subject
    enters the clip.
    """

    point: tuple[float, float]
    t: float
    s: float
    subject_span: int
    clip_span: int
    transversal: bool = True
    cross: float = 0.0


@dataclass
class ClipResult:
    # the loops traced, before kept_loops checks their areas
    loops: list[CurvedPolygon] = field(default_factory=list)
    containment: str = "none"  # none | subject_in_clip | clip_in_subject
    # the labelled crossings, sorted by subject boundary coordinate
    crossings: list[_Event] = field(default_factory=list)

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


def newton_roots(ca: np.ndarray, cb: np.ndarray, wa: np.ndarray,
                 wb: np.ndarray):
    """Newton roots of a_p(u) = b_p(v) for P pairs of spans at once.

    ca (P, da+1, 2) and cb (P, db+1, 2) hold power coefficients, wa and wb
    (P, 2) the span windows (t0, t1 - t0): a local parameter u sits at
    curve parameter t0 + u (t1 - t0). Seeds form a uniform (da*db + 2)^2
    grid over each pair's local parameter square, which exceeds the
    crossing-count bound for the composed system. Pairs are iterated in
    chunks of at most _SEED_LANES seeds, each chunk until all of its live
    seeds converge. Seeds whose Jacobian turns singular or that leave the
    square are abandoned, not errors.

    A seed whose step leaves its (u, v, alive) unchanged is at a fixed
    point: every later step would repeat that step, so it stops, and the
    result is the same as if it had run on. A chunk's seeds are iterated
    as a rectangle, a row of seeds per pair, until fewer than a quarter of
    them move; from then on only the moving seeds are, one per row. A
    chunk ends once no seed moves; a flag keeps a stopped seed that is
    alive but not converged in the convergence test.

    Returns arrays (pair, u, v, residual) of every accepted seed, ordered
    by pair and then by unclamped u, with u and v clamped to [0, 1].
    Duplicate roots are the caller's to remove.
    """
    P, da, db = ca.shape[0], ca.shape[1] - 1, cb.shape[1] - 1
    m = da * db + 2
    g = np.linspace(0.0, 1.0, m)
    u0, v0 = (w.ravel() for w in np.meshgrid(g, g))
    dca = ca[:, 1:] * np.arange(1, da + 1)[None, :, None]
    dcb = cb[:, 1:] * np.arange(1, db + 1)[None, :, None]
    chunk = max(1, _SEED_LANES // (m * m))
    out = [(np.zeros(0, int), np.zeros(0), np.zeros(0), np.zeros(0))]
    for lo in range(0, P, chunk):
        sl = slice(lo, lo + chunk)
        a, b, ad, bd = ca[sl], cb[sl], dca[sl], dcb[sl]
        wac, wbc = wa[sl], wb[sl]
        u, v = np.tile(u0, (len(a), 1)), np.tile(v0, (len(a), 1))
        # the seeds iterated: all of u, v, or those at flat indices idx
        at, idx = np.s_[:, None], None
        uk, vk, alive = u, v, np.ones(u.shape, dtype=bool)
        held_open = False  # a stopped seed is alive and not converged
        for _ in range(_NEWTON_STEPS):
            ta, la = wac[(*at, 0)], wac[(*at, 1)]
            tb, lb = wbc[(*at, 0)], wbc[(*at, 1)]
            t, s = ta + uk * la, tb + vk * lb
            ax, ay = _horner(a, t, at)
            bx, by = _horner(b, s, at)
            rx, ry = ax - bx, ay - by
            dax, day = _horner(ad, t, at)
            dbx, dby = _horner(bd, s, at)
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
            if idx is None:
                u, v = un, vn
            else:
                uf[idx], vf[idx] = un, vn
            conv = np.hypot(rx, ry) < 1e-15
            if not held_open and bool(np.all(~alive | conv)):
                break
            n_moving = np.count_nonzero(moving)
            if n_moving == 0:
                break
            if idx is None and 4 * n_moving >= u.size:
                uk, vk = u, v
                continue
            held_open = held_open or bool((alive & ~moving & ~conv).any())
            if idx is None:
                uf, vf = u.reshape(-1), v.reshape(-1)
                idx = np.flatnonzero(moving)
            else:
                idx = idx[moving]
            at, uk, vk, alive = (idx // (m * m),), un[moving], vn[moving], True
        ta, la = wac[:, 0, None], wac[:, 1, None]
        tb, lb = wbc[:, 0, None], wbc[:, 1, None]
        ax, ay = _horner(a, ta + u * la)
        bx, by = _horner(b, tb + v * lb)
        res = np.hypot(ax - bx, ay - by)
        slack = 1e-9
        good = (res <= NEWTON_TOL) & (u > -slack) & (u < 1 + slack) & \
            (v > -slack) & (v < 1 + slack)
        pair = np.nonzero(good)[0]
        order = np.lexsort((u[good], pair))
        out.append((lo + pair[order], u[good][order], v[good][order],
                    res[good][order]))
    pair, u, v, res = (np.concatenate(col) for col in zip(*out))
    return pair, np.clip(u, 0.0, 1.0), np.clip(v, 0.0, 1.0), res


def _unit(vec) -> tuple[float, float]:
    n = math.hypot(vec[0], vec[1])
    if n == 0.0:
        return 0.0, 0.0
    return vec[0] / n, vec[1] / n


def _unit_cross(da, db) -> float:
    """Cross product of the unit tangents along da and db."""
    ua, ub = _unit(da), _unit(db)
    return ua[0] * ub[1] - ua[1] * ub[0]


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


def _first_of_close(pair: np.ndarray, t: np.ndarray,
                    s: np.ndarray) -> np.ndarray:
    """Mask of the roots kept of seeds sorted by (pair, t, s): a seed is
    kept unless it lies within DEDUP_PARAM in both t and s of a kept seed
    of its pair.

    Runs in rounds: each keeps every pair's first remaining seed and drops
    the remaining seeds of that pair close to it. A seed before the one
    kept was dropped by an earlier kept seed, so this is the greedy rule.
    """
    keep = np.zeros(len(pair), dtype=bool)
    rem = np.arange(len(pair))
    while len(rem):
        p = pair[rem]
        head = np.ones(len(rem), dtype=bool)
        head[1:] = p[1:] != p[:-1]
        keep[rem[head]] = True
        h = rem[head][np.cumsum(head) - 1]
        rem = rem[(np.abs(t[rem] - t[h]) > DEDUP_PARAM)
                  | (np.abs(s[rem] - s[h]) > DEDUP_PARAM)]
    return keep


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


def intersect_curves(spans_a, spans_b, ia,
                     ib) -> list[list[CurveIntersection]]:
    """All intersections (unlabeled) of the span pairs (spans_a[ia[k]],
    spans_b[ib[k]]): a list per pair, in the spans' local parameters, with
    subject_span ia[k] and clip_span ib[k].

    Pairs whose hull boxes, inflated by SNAP_TOL, miss each other are
    culled in one array test. Spans on one curve (curve_flip within
    SNAP_TOL of the nodes' size, one pass per degree) and collinear
    straight spans report the ends of their overlap, not transversal: its
    interior is a continuum, not isolated roots. Other pairs with a
    straight span take exact polynomial roots (_line_span_roots). The
    curved pairs of each pair of degrees go through one newton_roots call,
    in input order, and of close roots the first is kept
    (_first_of_close). Each root records the cross product of the unit
    tangents, and is transversal when they are not parallel.
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
    for pa, pb in sorted(set(zip(da[curved].tolist(), db[curved].tolist()))):
        k = live[curved & (da == pa) & (db == pb)]
        pair, u, v, _res = newton_roots(
            _curve_rows(spans_a, ia[k], "power_coeffs"),
            _curve_rows(spans_b, ib[k], "power_coeffs"),
            win_a[ia[k]], win_b[ib[k]])
        order = np.lexsort((v, u, pair))
        pair, u, v = pair[order], u[order], v[order]
        keep = _first_of_close(pair, u, v)
        roots += zip(k[pair[keep]].tolist(), u[keep].tolist(),
                     v[keep].tolist(), [False] * int(keep.sum()))
    found: list[list[CurveIntersection]] = [[] for _ in range(len(ia))]
    if not roots:
        return found
    pair, u, v, ends = (np.array(col) for col in zip(*roots))
    pts, tan_a = _points_and_tangents(spans_a, deg_a, win_a, ia[pair], u)
    _, tan_b = _points_and_tangents(spans_b, deg_b, win_b, ib[pair], v)
    for k, p, uk, vk, end, ta, tb in zip(
            pair.tolist(), pts.tolist(), u.tolist(), v.tolist(),
            ends.tolist(), tan_a.tolist(), tan_b.tolist()):
        cross = _unit_cross(ta, tb)
        found[k].append(CurveIntersection(
            tuple(p), uk, vk, int(ia[k]), int(ib[k]),
            transversal=not end and abs(cross) > CROSS_TOL, cross=cross))
    return found


def _raw_intersections(subject: CurvedPolygon,
                       clip: CurvedPolygon) -> list[CurveIntersection]:
    """Intersections of every span pair of two polygons, subject major."""
    ns, nc = len(subject.spans), len(clip.spans)
    ia, ib = np.divmod(np.arange(ns * nc), nc)
    return [r for rs in intersect_curves(subject.spans, clip.spans, ia, ib)
            for r in rs]


# --------------------------------------------------------------------------
# boundary coordinates and event cleaning

def _sigma_point(poly: CurvedPolygon, sig: float) -> np.ndarray:
    n = len(poly.spans)
    sig = sig % n
    k = int(sig)
    if k == n:
        k, frac = 0, 0.0
    else:
        frac = sig - k
    return poly.spans[k].point_at(frac)


def _snap_sigma(poly: CurvedPolygon, sig: float, point) -> float:
    """Snap a boundary coordinate to the nearest corner within SNAP_TOL."""
    n = len(poly.spans)
    cx, cy = poly.corners[int(round(sig)) % n]
    if math.hypot(point[0] - cx, point[1] - cy) <= SNAP_TOL:
        return float(round(sig) % n)
    return sig % n


@dataclass
class _Event:
    point: tuple[float, float]
    sig_s: float
    sig_c: float
    transversal: bool
    kind: str | None = None
    visited: bool = False
    cross: float = 0.0  # CurveIntersection.cross of the crossing


def _build_events(subject: CurvedPolygon, clip: CurvedPolygon,
                  raw: list[CurveIntersection]) -> list[_Event]:
    ns, nc = len(subject.spans), len(clip.spans)
    events = []
    for r in raw:
        sig_s = (r.subject_span + r.t) % ns
        sig_c = (r.clip_span + r.s) % nc
        sig_s = _snap_sigma(subject, sig_s, r.point)
        sig_c = _snap_sigma(clip, sig_c, r.point)
        events.append(_Event(r.point, sig_s, sig_c, r.transversal,
                             cross=r.cross))
    events.sort(key=lambda e: (e.sig_s, e.sig_c))
    merged: list[_Event] = []

    def close(x, y, n):
        d = abs(x - y) % n
        return min(d, n - d) <= _SIG_TOL

    for e in events:
        dup = None
        for m in merged:
            if close(e.sig_s, m.sig_s, ns) and close(e.sig_c, m.sig_c, nc):
                dup = m
                break
        if dup is None:
            merged.append(e)
        else:
            dup.transversal = dup.transversal or e.transversal
    return merged


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


def _near_corner(sig: float) -> bool:
    """Whether boundary coordinate sig lies within _SIG_TOL of a corner."""
    u = sig - int(sig)
    return u <= _SIG_TOL or 1.0 - u <= _SIG_TOL


def _label_events(subject: CurvedPolygon, clip: CurvedPolygon,
                  events: list[_Event]) -> list[_Event]:
    """Entry/exit labels of the events, sorted by subject boundary
    coordinate; events with no state change are dropped.

    Each subject arc between consecutive events is in, out or bdry, and an
    event is an entry or exit where the state passes into or out of "in".
    An arc meets the clip only at its ends, so a clean crossing at either
    end (transversal, |cross| > CROSS_TOL, away from both polygons'
    corners) gives it its state: the subject enters the counterclockwise
    clip where cross < 0. _arc_state probes the arcs with no clean end or
    with ends that disagree, and every arc of a list with a tangential
    event or an overlap end.
    """
    if not events:
        return []
    events = sorted(events, key=lambda e: e.sig_s)
    tangential = any(not e.transversal or abs(e.cross) <= CROSS_TOL
                     for e in events)
    # the states (before, after) that a clean crossing gives its two arcs
    sides = [(None, None) if tangential or _near_corner(e.sig_s)
             or _near_corner(e.sig_c)
             else ("out", "in") if e.cross < 0.0 else ("in", "out")
             for e in events]
    states = []
    for i, (a, b) in enumerate(zip(events, events[1:] + events[:1])):
        ends = {sides[i][1], sides[(i + 1) % len(events)][0]} - {None}
        states.append(ends.pop() if len(ends) == 1
                      else _arc_state(subject, clip, a.sig_s, b.sig_s))
    kept = []
    for e, before, after in zip(events, states[-1:] + states[:-1], states):
        if (before == "in") != (after == "in"):
            e.kind = "entry" if after == "in" else "exit"
            kept.append(e)
    return kept


def _pieces_between(poly: CurvedPolygon, sig_a: float, sig_b: float) -> list[CurveSpan]:
    """Boundary pieces walking forward from sig_a to sig_b (cyclic)."""
    n = len(poly.spans)
    sig_a = sig_a % n
    sig_b = sig_b % n
    if sig_b <= sig_a + 1e-12:
        sig_b += n
    pieces = []
    k = math.floor(sig_a)
    while k < sig_b:
        u0 = max(sig_a - k, 0.0)
        u1 = min(sig_b - k, 1.0)
        if u1 - u0 > 1e-12:
            pieces.append(poly.spans[k % n].sub(u0, u1))
        k += 1
    return pieces


def _corners_in_hull(inner: CurvedPolygon, outer: CurvedPolygon) -> bool:
    """Whether every corner of inner lies in outer's hull box, inflated by
    SNAP_TOL. Corners lie on inner's boundary and the hull box contains
    outer, so inner cannot lie inside outer otherwise."""
    box = outer.bbox().inflate(SNAP_TOL)
    return all(box.contains(x, y) for x, y in inner.corners)


def wa_clip(subject: CurvedPolygon, clip: CurvedPolygon,
            raw: list[CurveIntersection] | None = None) -> ClipResult:
    """Intersection of two curved polygons by Weiler-Atherton traversal.

    Without entry/exit events the polygons are nested or disjoint. One
    lies inside the other when its corners lie in the other's hull box and
    _arc_state, probing its whole boundary as one arc, does not read "out";
    when both do, the smaller comes back, the subject on a tie. Otherwise
    entry/exit events are placed in two circular lists and loops are traced
    by walking the subject list from each entry to the next exit, then the
    clip list to the next entry, until the loop closes; unused entries seed
    further loops. Loop geometry reuses sub-spans of the original edges,
    never a re-approximation.

    The result holds every loop traced, without looking at its area: the
    intersection is kept_loops(result.loops, subject, clip).
    """
    if raw is None:
        raw = _raw_intersections(subject, clip)
    events = _label_events(subject, clip, _build_events(subject, clip, raw))

    if not events:
        # No state changes: the cells are nested or disjoint. Each
        # direction probes the whole boundary of the would-be inner cell
        # as one arc. An arc on the other's boundary counts as held, so
        # cells that share the probed points, identical ones among them,
        # nest both ways and the smaller comes back.
        sub_in = (_corners_in_hull(subject, clip)
                  and _arc_state(subject, clip, 0.5, 0.5) != "out")
        clip_in = (_corners_in_hull(clip, subject)
                   and _arc_state(clip, subject, 0.5, 0.5) != "out")
        if sub_in and clip_in:
            if subject.signed_area() <= clip.signed_area():
                return ClipResult([subject], "subject_in_clip")
            return ClipResult([clip], "clip_in_subject")
        if sub_in:
            return ClipResult([subject], "subject_in_clip")
        if clip_in:
            return ClipResult([clip], "clip_in_subject")
        return ClipResult()

    n_entry = sum(1 for e in events if e.kind == "entry")
    n_exit = len(events) - n_entry
    if n_entry != n_exit:
        raise ClipTopologyError(
            f"unbalanced entry/exit events: {n_entry} entries, {n_exit} exits "
            f"(points {[e.point for e in events]})")

    order_s = sorted(events, key=lambda e: e.sig_s)
    order_c = sorted(events, key=lambda e: e.sig_c)
    next_s = {id(e): order_s[(i + 1) % len(order_s)] for i, e in enumerate(order_s)}
    next_c = {id(e): order_c[(i + 1) % len(order_c)] for i, e in enumerate(order_c)}

    loops = []
    max_steps = 4 * len(events) + 8
    for start in order_s:
        if start.kind != "entry" or start.visited:
            continue
        pieces: list[CurveSpan] = []
        cur = start
        start.visited = True
        for _ in range(max_steps):
            nxt = next_s[id(cur)]
            if nxt.kind != "exit":
                raise ClipTopologyError(
                    f"expected exit after entry at {cur.point}, got "
                    f"{nxt.kind} at {nxt.point}")
            pieces += _pieces_between(subject, cur.sig_s, nxt.sig_s)
            nxt.visited = True
            cur = nxt
            nxt = next_c[id(cur)]
            if nxt.kind != "entry":
                raise ClipTopologyError(
                    f"expected entry after exit at {cur.point} on clip walk, "
                    f"got {nxt.kind} at {nxt.point}")
            pieces += _pieces_between(clip, cur.sig_c, nxt.sig_c)
            cur = nxt
            if cur is start:
                break
            cur.visited = True
        else:
            raise ClipTopologyError("clip traversal did not close")
        loops.append(CurvedPolygon(pieces))

    if any(not e.visited for e in events):
        raise ClipTopologyError(
            f"unused intersection points after traversal: "
            f"{[e.point for e in events if not e.visited]}")
    return ClipResult(loops, crossings=events)


def kept_loops(loops: list[CurvedPolygon], subject: CurvedPolygon,
               clip: CurvedPolygon) -> list[CurvedPolygon]:
    """The loops of a clip of subject by clip that bound area.

    Relative to the smaller polygon's area, a loop below -1e-9 of it
    raises ClipTopologyError, and one at or below 1e-12 of it is dropped:
    a sliver of boundaries that touch. A loop without a cached area gets
    it on its own; fill_areas gives many loops theirs in one pass.
    """
    scale = min(abs(subject.signed_area()), abs(clip.signed_area()))
    drop_tol = 1e-12 * max(scale, 1e-30)
    kept = []
    for lp in loops:
        area = lp.signed_area()
        if area < -1e-9 * scale:
            raise ClipTopologyError(f"negative-area loop ({area:.3e}) emitted")
        if area > drop_tol:
            kept.append(lp)
    return kept
