"""Ear-clipping triangulation, kept as the reference for the package's one.

This is the triangulation that `curveremap.integrate.ear_clip` computes
with plain-float chord tests and cached reference matrices: every chord
test calls `intersect_curves` once per piece, the containment samples of
every piece are evaluated again for every candidate ear, and every curved
triangle fills its control net and probe points afresh. Tests compare the
package's triangles against it loop by loop: the same number of triangles,
the same span parameter windows and the same control nodes.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from curveremap.clipping import intersect_curves
from curveremap.geometry import (SNAP_TOL, CurvedPolygon, CurveSpan,
                                 straight_span)


class ReferenceTriangulationError(RuntimeError):
    """Ear clipping exhausted its refinement rounds."""


class _MapError(ValueError):
    """No isoparametric map for these spans."""


@lru_cache(maxsize=None)
def _tri_lattice(degree: int):
    """Reference lattice (i/d, j/d), i + j <= d, and its nodal inverse."""
    pts = []
    for j in range(degree + 1):
        for i in range(degree + 1 - j):
            pts.append((i / degree, j / degree))
    pts = np.array(pts)
    mono = _tri_monomials(degree, pts[:, 0], pts[:, 1])
    return pts, np.linalg.inv(mono)


def _tri_monomials(degree: int, xi, eta) -> np.ndarray:
    xi = np.asarray(xi, float)
    cols = []
    for j in range(degree + 1):
        for i in range(degree + 1 - j):
            cols.append(xi ** i * np.asarray(eta, float) ** j)
    return np.column_stack(cols)


def _tri_monomials_grad(degree: int, xi, eta):
    xi = np.asarray(xi, float)
    eta = np.asarray(eta, float)
    dxi, deta = [], []
    for j in range(degree + 1):
        for i in range(degree + 1 - j):
            dxi.append(i * xi ** max(i - 1, 0) * eta ** j if i else np.zeros_like(xi))
            deta.append(j * xi ** i * eta ** max(j - 1, 0) if j else np.zeros_like(xi))
    return np.column_stack(dxi), np.column_stack(deta)


class RefTriangle:
    """Curved triangle with an isoparametric polynomial map from T0."""

    def __init__(self, spans):
        spans = tuple(spans)
        if len(spans) != 3:
            raise _MapError("curved triangle needs exactly 3 spans")
        d = max(2, max(s.degree for s in spans))
        if d > 3:
            raise _MapError(
                "isoparametric triangle maps implemented for degree <= 3")
        self.spans = spans
        self.degree = d
        self.nodes = self._control_net(spans, d)
        _, inv = _tri_lattice(d)
        self._coeff = inv @ self.nodes

    @staticmethod
    def _control_net(spans, d: int) -> np.ndarray:
        lattice, _ = _tri_lattice(d)
        nodes = np.zeros((len(lattice), 2))
        seen = np.zeros(len(lattice), dtype=bool)

        def set_node(i, j, p):
            idx = 0
            for jj in range(d + 1):
                for ii in range(d + 1 - jj):
                    if ii == i and jj == j:
                        nodes[idx] = p
                        seen[idx] = True
                        return
                    idx += 1

        for k in range(d + 1):
            u = k / d
            set_node(k, 0, spans[0].point_at(u))          # edge v0 -> v1
            set_node(d - k, k, spans[1].point_at(u))      # edge v1 -> v2
            set_node(0, d - k, spans[2].point_at(u))      # edge v2 -> v0
        if d == 3:
            edge_sum = np.zeros(2)
            vert_sum = np.zeros(2)
            for k in range(1, d):
                u = k / d
                edge_sum += spans[0].point_at(u) + spans[1].point_at(u) \
                    + spans[2].point_at(u)
            for s in spans:
                vert_sum += s.start
            set_node(1, 1, edge_sum / 4.0 - vert_sum / 6.0)
        if not seen.all():
            raise _MapError("incomplete triangle control net")
        return nodes

    def jacobian(self, xi, eta) -> np.ndarray:
        gx, ge = _tri_monomials_grad(self.degree, xi, eta)
        dxy_dxi = gx @ self._coeff
        dxy_deta = ge @ self._coeff
        return (dxy_dxi[:, 0] * dxy_deta[:, 1]
                - dxy_dxi[:, 1] * dxy_deta[:, 0])

    def min_jacobian_probe(self, n: int = 5) -> float:
        pts = []
        for j in range(n + 1):
            for i in range(n + 1 - j):
                pts.append((i / n, j / n))
        pts = np.array(pts)
        return float(self.jacobian(pts[:, 0], pts[:, 1]).min())


def _winding_inside(polyline: np.ndarray, pts: np.ndarray,
                    margin: float) -> np.ndarray:
    """Strictly-inside test of points vs a closed sampled polyline."""
    a = polyline
    b = np.roll(polyline, -1, axis=0)
    px = pts[:, 0][:, None]
    py = pts[:, 1][:, None]
    ax, ay = a[:, 0][None, :], a[:, 1][None, :]
    bx, by = b[:, 0][None, :], b[:, 1][None, :]
    cond = (ay > py) != (by > py)
    with np.errstate(divide="ignore", invalid="ignore"):
        xint = ax + (py - ay) * (bx - ax) / np.where(by == ay, 1.0, by - ay)
    crossing = cond & (xint > px)
    inside = (crossing.sum(axis=1) % 2) == 1
    dx, dy = bx - ax, by - ay
    L2 = dx * dx + dy * dy
    tpar = ((px - ax) * dx + (py - ay) * dy) / np.where(L2 == 0.0, 1.0, L2)
    tpar = np.clip(tpar, 0.0, 1.0)
    d2 = (ax + tpar * dx - px) ** 2 + (ay + tpar * dy - py) ** 2
    near = d2.min(axis=1) <= margin * margin
    return inside | near


def _chord_blocked(chord: CurveSpan, pieces, skip_touch_at) -> bool:
    """Does the chord touch any piece away from its own endpoints?"""
    p_from, p_to = chord.start, chord.end
    for piece in pieces:
        for inter in intersect_curves(chord, piece):
            px, py = inter.point
            da = math.hypot(px - p_from[0], py - p_from[1])
            db = math.hypot(px - p_to[0], py - p_to[1])
            if min(da, db) > skip_touch_at:
                return True
    return False


def _subdivided_loop(poly: CurvedPolygon, level: int):
    pieces: list[CurveSpan] = []
    for span in poly.spans:
        if span.degree == 1 and level == 0:
            parts = 1
        elif span.degree == 1:
            parts = 2 ** level
        else:
            parts = 2 ** (level + 1)
        cuts = np.linspace(0.0, 1.0, parts + 1)
        for a, b in zip(cuts[:-1], cuts[1:]):
            pieces.append(span.sub(float(a), float(b)))
    nodes = [p.start.copy() for p in pieces]
    return nodes, pieces


def _single_triangle(poly: CurvedPolygon) -> RefTriangle | None:
    if len(poly.spans) != 3:
        return None
    try:
        tri = RefTriangle(poly.spans)
    except _MapError:
        return None
    if tri.min_jacobian_probe() <= 0.0:
        return None
    return tri


def _ear_pass(nodes, pieces, scale: float):
    nodes = list(nodes)
    pieces = list(pieces)
    tris: list[RefTriangle] = []
    touch_tol = 1e-7 * scale
    guard = 4 * len(nodes) + 16
    while len(nodes) > 3 and guard > 0:
        guard -= 1
        n = len(nodes)
        cut = None
        for i in range(n):
            ia, ib, ic = (i - 1) % n, i, (i + 1) % n
            A, B, C = nodes[ia], nodes[ib], nodes[ic]
            area2 = (B[0] - A[0]) * (C[1] - A[1]) - (B[1] - A[1]) * (C[0] - A[0])
            if area2 <= 1e-14 * scale * scale:
                continue
            chord = straight_span(C, A)
            others = [pieces[j] for j in range(n) if j not in (ia, ib)]
            if _chord_blocked(chord, others + [pieces[ia], pieces[ib]], touch_tol):
                continue
            cand = CurvedPolygon([pieces[ia], pieces[ib], chord])
            if cand.signed_area() <= 0.0:
                continue
            probes = [nodes[j] for j in range(n) if j not in (ia, ib, ic)]
            uu = np.array([0.25, 0.5, 0.75])
            for j in range(n):
                if j in (ia, ib):
                    continue
                probes.extend(pieces[j].point_at(uu))
            if probes:
                boundary = cand.boundary_points(per_span=12)
                hit = _winding_inside(boundary, np.asarray(probes),
                                      margin=10.0 * SNAP_TOL)
                if hit.any():
                    continue
            tri = _single_triangle(cand)
            if tri is None:
                continue
            cut = (ia, ib, ic, tri, chord)
            break
        if cut is None:
            return None
        ia, ib, ic, tri, chord = cut
        tris.append(tri)
        pieces[ia] = chord.flipped()
        del pieces[ib]
        del nodes[ib]
    if guard <= 0:
        return None
    final = _single_triangle(CurvedPolygon(pieces))
    if final is None:
        return None
    tris.append(final)
    return tris


def _tiles_exactly(tris, area: float) -> bool:
    total = sum(CurvedPolygon(t.spans).signed_area() for t in tris)
    return abs(total - area) <= 1e-10 * max(abs(area), 1e-300)


def _split_quad(poly: CurvedPolygon) -> list[RefTriangle] | None:
    s = poly.spans
    area = poly.signed_area()
    touch = 1e-7 * max(poly.bbox().diag, 1e-30)
    for k in (0, 1):
        a, b = s[k], s[k + 1]
        c, d = s[(k + 2) % 4], s[(k + 3) % 4]
        chord = straight_span(b.end, a.start)
        if _chord_blocked(chord, s, touch):
            continue
        t1 = _single_triangle(CurvedPolygon([a, b, chord]))
        t2 = _single_triangle(CurvedPolygon([c, d, chord.flipped()]))
        if t1 is None or t2 is None:
            continue
        if _tiles_exactly([t1, t2], area):
            return [t1, t2]
    return None


def reference_triangulate(poly: CurvedPolygon) -> list[RefTriangle]:
    """Tile a curved polygon with curved triangles by ear clipping."""
    single = _single_triangle(poly)
    if single is not None:
        return [single]
    if len(poly.spans) == 4:
        quick = _split_quad(poly)
        if quick is not None:
            return quick
    scale = max(poly.bbox().diag, 1e-30)
    area = poly.signed_area()
    for level in range(9):
        nodes, pieces = _subdivided_loop(poly, level)
        tris = _ear_pass(nodes, pieces, scale)
        if tris is not None and _tiles_exactly(tris, area):
            return tris
    raise ReferenceTriangulationError(
        f"ear clipping failed after 8 refinement rounds on {poly!r}")
