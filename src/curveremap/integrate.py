"""Approach B's geometry: fans and curved triangles, and their rules.

The remap integrates each clipped piece in two independent ways, both exact
for polynomial integrands, which is what makes it conservative. Approach A
is Green's-theorem contour quadrature; its samples and sums live in
`remap._a_samples` and `remap._loop_integrals`. Approach B, built here,
tiles each piece by a fan of curved triangles from its centroid and gives
collapsed-coordinate Gauss samples on them (`triangulate`, all pieces of a
plan at once). Where the fan's positivity is not certified, the piece is
ear-clipped into isoparametrically mapped curved triangles with
positive-weight rule samples on each (`ear_clip`,
`CurvedTriangle.quad_samples`). `remap._loop_integrals` sums either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .clipping import intersect_curves
from .geometry import (SNAP_TOL, CurvedPolygon, CurveSpan, by_degree,
                       gauss_rule_01, real_roots_in_many, span_gauss,
                       span_samples, straight_span)


class IntegrationError(RuntimeError):
    """Quadrature construction or mapping failure."""


class TriangulationError(IntegrationError):
    """Ear clipping exhausted its refinement rounds."""


@dataclass(frozen=True)
class TriRule:
    """Positive-weight quadrature on the reference triangle T0."""

    degree: int
    points: np.ndarray   # (M, 2)
    weights: np.ndarray  # (M,), all > 0, sum = 1/2
    # per map degree: the map's monomials and their gradients at the points
    _bases: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def __post_init__(self):
        if np.any(self.weights <= 0.0):
            raise IntegrationError("triangle rule has non-positive weights")

    def basis(self, map_degree: int):
        """Monomials of a degree-d map and their xi and eta derivatives at
        the rule's points, computed once per map degree."""
        out = self._bases.get(map_degree)
        if out is None:
            xi, eta = self.points[:, 0], self.points[:, 1]
            out = (_tri_monomials(map_degree, xi, eta),
                   *_tri_monomials_grad(map_degree, xi, eta))
            self._bases[map_degree] = out
        return out


_TRI_TABLE_DEGREES = (1, 2, 4, 6, 8, 10, 12)


@lru_cache(maxsize=None)
def make_tri_rule(exact_degree: int) -> TriRule:
    """Positive-weight rule on T0 of at least the requested exactness.

    Degrees 1 and 2 are the classical symmetric rules; higher table entries
    are conical-product rules (Gauss-Legendre crossed with a (1-x)-weighted
    Gauss factor), which keeps every weight structurally positive and the
    moments exact to machine precision.
    """
    if exact_degree < 1 or exact_degree > _TRI_TABLE_DEGREES[-1]:
        raise IntegrationError(
            f"no tabulated triangle rule of degree {exact_degree} "
            f"(supported: 1..{_TRI_TABLE_DEGREES[-1]})")
    degree = next(d for d in _TRI_TABLE_DEGREES if d >= exact_degree)
    if degree == 1:
        return TriRule(1, np.array([[1.0 / 3.0, 1.0 / 3.0]]), np.array([0.5]))
    if degree == 2:
        pts = np.array([[1 / 6, 1 / 6], [2 / 3, 1 / 6], [1 / 6, 2 / 3]])
        return TriRule(2, pts, np.full(3, 1 / 6))
    # conical product: x-factor carries the (1 - xi) Jacobian of the
    # substitution eta = (1 - xi) * u
    m = (degree + 3) // 2
    xi, wx = gauss_rule_01(m)
    u, wu = gauss_rule_01(m)
    P, U = np.meshgrid(xi, u, indexing="ij")
    pts = np.column_stack([P.ravel(), ((1.0 - P) * U).ravel()])
    wts = ((wx * (1.0 - xi))[:, None] * wu[None, :]).ravel()
    return TriRule(degree, pts, wts)


def rule_degree_for(f_degree: int, map_degree: int) -> int:
    """Rule exactness needed to integrate degree-k polynomials exactly over
    a degree-d isoparametric triangle: k*d + 2*(d - 1) (= 2k + 2 at d=2)."""
    return max(1, f_degree * map_degree + 2 * (map_degree - 1))


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


@lru_cache(maxsize=None)
def _edge_slots(degree: int) -> np.ndarray:
    """Lattice slots of the nodes u = k/d, k = 1..d, along the edges
    v0 -> v1, v1 -> v2 and v2 -> v0 (each vertex is the u = 1 node of the
    edge that ends there)."""
    d = degree

    def slot(i, j):
        return j * (d + 1) - j * (j - 1) // 2 + i

    ks = range(1, d + 1)
    return np.array([[slot(k, 0) for k in ks], [slot(d - k, k) for k in ks],
                     [slot(0, d - k) for k in ks]])


@lru_cache(maxsize=None)
def _probe_grads(degree: int):
    """Map-monomial gradients at the probe lattice (i/5, j/5), i + j <= 5."""
    n = 5
    pts = np.array([(i / n, j / n) for j in range(n + 1)
                    for i in range(n + 1 - j)])
    return _tri_monomials_grad(degree, pts[:, 0], pts[:, 1])


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


def _map_degree(spans) -> int:
    """Degree of the isoparametric map of a triangle on these spans: the
    highest span degree, with a floor of 2."""
    d = max(2, max(s.degree for s in spans))
    if d > 3:
        raise IntegrationError(
            f"isoparametric triangle maps implemented for degree <= 3, "
            f"not {d}")
    return d


class CurvedTriangle:
    """Curved triangle with an isoparametric polynomial map from T0.

    Boundary spans are attached exactly; the map's edge nodes sample each
    span at uniform local parameters, so the mapped edge coincides with the
    span (polynomial interpolation uniqueness). Map degree follows the
    highest span degree, with a floor of 2 (the 6-node quadratic triangle).
    """

    __slots__ = ("spans", "degree", "nodes", "_coeff")

    def __init__(self, spans):
        spans = tuple(spans)
        if len(spans) != 3:
            raise IntegrationError("curved triangle needs exactly 3 spans")
        d = _map_degree(spans)
        self.spans = spans
        self.degree = d
        self.nodes = self._control_net(spans, d)
        _, inv = _tri_lattice(d)
        self._coeff = inv @ self.nodes

    @staticmethod
    def _control_net(spans, d: int) -> np.ndarray:
        u = np.arange(d + 1) / d
        edges = [s.curve.eval_pointwise(s.t_of(u)) for s in spans]
        nodes = np.empty(((d + 1) * (d + 2) // 2, 2))
        for slots, pts in zip(_edge_slots(d), edges):
            nodes[slots] = pts[1:]
        if d == 3:
            # bubble-free interior node (slot of (1, 1)): affine barycenter
            # lifted by edges
            e0, e1, e2 = edges
            edge_sum = (e0[1] + e1[1] + e2[1]) + (e0[2] + e1[2] + e2[2])
            vert_sum = e0[0] + e1[0] + e2[0]
            nodes[d + 2] = edge_sum / 4.0 - vert_sum / 6.0
        return nodes

    def _det(self, gx: np.ndarray, ge: np.ndarray) -> np.ndarray:
        """Jacobian determinant from monomial gradients at some points."""
        dxy_dxi = gx @ self._coeff
        dxy_deta = ge @ self._coeff
        return (dxy_dxi[:, 0] * dxy_deta[:, 1]
                - dxy_dxi[:, 1] * dxy_deta[:, 0])

    def quad_samples(self, rule: TriRule):
        """Physical quadrature points and J-scaled weights for a rule."""
        mono, gx, ge = rule.basis(self.degree)
        pts = mono @ self._coeff
        jac = self._det(gx, ge)
        if np.any(jac <= 0.0):
            raise IntegrationError(
                f"inverted triangle map (min J = {jac.min():.3e})")
        return pts, jac * rule.weights

    def min_jacobian_probe(self) -> float:
        return float(self._det(*_probe_grads(self.degree)).min())


# --------------------------------------------------------------------------
# fan rule: one curved triangle per span from an apex inside the loop

# a fan is certified when every Bernstein coefficient of every span's g
# exceeds this share of the largest coefficient magnitude of its loop
FAN_MARGIN = 1e-12


@lru_cache(maxsize=None)
def _bernstein_nodes(degree: int):
    """Nodes u_j = j / degree and the matrix that maps the values there of
    a polynomial of that degree to its Bernstein coefficients on [0, 1]."""
    u = np.linspace(0.0, 1.0, degree + 1)
    k = np.arange(degree + 1)
    comb = np.array([math.comb(degree, j) for j in k], float)
    vals = comb * u[:, None] ** k * (1.0 - u[:, None]) ** (degree - k)
    return u, np.linalg.inv(vals)


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def triangulate(polys: list[CurvedPolygon], k_max: int) -> list:
    """Fan-rule samples of each loop: (points (m, 2), weights (m,)), or
    None where the fan is not certified.

    The fan's apex c is the loop's area centroid. Each span S(u), u in
    [0, 1], spans the curved triangle X(r, u) = c + r (S(u) - c), whose
    Jacobian is r g(u) with g = (S - c) x S', a polynomial of degree
    2d - 1 (Duffy's collapsed coordinates). Gauss-Legendre points,
    ceil((k + 2) / 2) in r and ceil((k + 2) d / 2) in u, integrate
    degree-k polynomials exactly over the sum of a closed loop's fan
    triangles, which is the loop, whatever the sign of g. A fan is certified when
    every Bernstein coefficient of every span's g is positive, by
    FAN_MARGIN of the loop's largest: then every weight is positive and
    the loop is star-shaped from c, so every point lies inside it.

    All loops go through together, one stacked pass per span degree for
    the centroids, the samples and the certificates.
    """
    if not polys:
        return []
    spans = [s for p in polys for s in p.spans]
    counts = [len(p.spans) for p in polys]
    first = np.cumsum([0] + counts[:-1])
    owner = np.repeat(np.arange(len(polys)), counts)
    # contour moments of x dy: the area and the first moments
    mom = np.empty((len(spans), 3))
    for d, ids in by_degree(spans):
        p, dp, w, h = span_gauss([spans[i] for i in ids],
                                 math.ceil(3 * d / 2))
        x, y = p[..., 0], p[..., 1]
        wdy = dp[..., 1] * w * h[:, None]
        mom[ids] = (np.stack([x, 0.5 * x * x, x * y], axis=-1)
                    * wdy[..., None]).sum(axis=1)
    mom = np.add.reduceat(mom, first)
    apex = mom[:, 1:] / mom[:, :1]

    n_r = math.ceil((k_max + 2) / 2)
    r, wr = gauss_rule_01(n_r)
    n_u = [math.ceil((k_max + 2) * s.degree / 2) for s in spans]
    start = np.cumsum([0] + [n_r * n for n in n_u])
    pts, jw = np.empty((start[-1], 2)), np.empty(start[-1])
    low, top = np.empty(len(spans)), np.empty(len(spans))
    for d, ids in by_degree(spans):
        group = [spans[i] for i in ids]
        c = apex[owner[ids]][:, None, :]
        n = n_u[ids[0]]
        p, dp, w, h = span_gauss(group, n)
        rel = p - c
        g = _cross(rel, dp) * h[:, None]
        at = start[ids][:, None] + np.arange(n * n_r)
        pts[at] = (c[:, :, None, :] + r[:, None] * rel[:, :, None, :]).reshape(
            len(ids), -1, 2)
        jw[at] = ((w * g)[:, :, None] * (wr * r)).reshape(len(ids), -1)
        u, to_bernstein = _bernstein_nodes(2 * d - 1)
        pb, dpb, hb = span_samples(group, u)
        bern = (_cross(pb - c, dpb) * hb[:, None]) @ to_bernstein.T
        low[ids] = bern.min(axis=1)
        top[ids] = np.abs(bern).max(axis=1)
    ok = (np.minimum.reduceat(low, first)
          > FAN_MARGIN * np.maximum.reduceat(top, first))
    cut = start[first[1:]]
    return [(p, w) if good else None for p, w, good in
            zip(np.split(pts, cut), np.split(jw, cut), ok.tolist())]


# --------------------------------------------------------------------------
# ear-clipping triangulation of curved polygons

_PROBE_U = np.array([0.25, 0.5, 0.75])    # containment samples of a piece
_OUTLINE_U = np.linspace(0.0, 1.0, 12, endpoint=False)  # an ear's outline


def _holds_any(polyline: np.ndarray, pts: np.ndarray, margin: float) -> bool:
    """Is any point strictly inside a closed sampled polyline, or closer
    than margin to it?

    A point near the polyline counts as inside, which is the conservative
    direction for ear rejection.
    """
    ax, ay = polyline[:, 0], polyline[:, 1]
    bx, by = np.roll(ax, -1), np.roll(ay, -1)
    dx, dy = bx - ax, by - ay
    px = pts[:, 0][:, None]
    py = pts[:, 1][:, None]
    # crossing-number parity with a +x ray
    rel_y = py - ay
    xint = ax + rel_y * dx / np.where(dy == 0.0, 1.0, dy)
    crossing = ((ay > py) != (by > py)) & (xint > px)
    if (crossing.sum(axis=1) % 2 == 1).any():
        return True
    # distance to segments
    L2 = dx * dx + dy * dy
    tpar = ((px - ax) * dx + rel_y * dy) / np.where(L2 == 0.0, 1.0, L2)
    tpar = np.minimum(np.maximum(tpar, 0.0), 1.0)
    d2 = (ax + tpar * dx - px) ** 2 + (ay + tpar * dy - py) ** 2
    return bool(d2.min() <= margin * margin)


class _Piece:
    """One boundary piece of an ear pass, as its tests read it.

    Built once when the piece enters the pass: the span's Bezier box
    inflated by SNAP_TOL, its curve's power coefficients and their
    magnitude, its parameter window and its start point (the pass's node).
    Its containment samples at u = 1/4, 1/2, 3/4, its outline points and
    its term of the contour area are computed on first use.
    """

    def __init__(self, span: CurveSpan, start: tuple | None = None):
        box = span.bbox().inflate(SNAP_TOL)
        self.span = span
        self.degree = span.degree
        self.box = (box.xmin, box.ymin, box.xmax, box.ymax)
        self.coeffs = span.curve.power_coeffs.tolist()
        self.mag = sum(abs(x) + abs(y) for x, y in self.coeffs)
        self.lo, self.hi = min(span.t0, span.t1), max(span.t0, span.t1)
        self.start = tuple(span.start.tolist()) if start is None else start

    @cached_property
    def probes(self) -> np.ndarray:
        return self.span.point_at(_PROBE_U)

    @cached_property
    def outline(self) -> np.ndarray:
        return self.span.point_at(_OUTLINE_U)

    @cached_property
    def term(self) -> float:
        return self.span.contour_term()


def _chord_blocked(c, a, pieces: list[_Piece], touch: float) -> bool:
    """Does the straight chord from c to a touch any piece away from its
    own ends by more than touch?

    Decides what intersect_curves on every piece decides, in plain floats
    on the piece table. The same inflated boxes reject a piece. The
    crossings with the rest are the roots in their windows of
    w(t) = (p(t) - c) x (a - c), by real_roots_in_many: the same roots as
    intersect_curves finds. A root's point is projected on the chord and
    clamped to it, and blocks when it lies farther than touch from both
    chord ends. That point differs from intersect_curves' by a few ulps of
    the coefficients, so a distance within 1e-12 of their size from touch
    is left undecided, as is a straight piece that may lie along the chord
    (intersect_curves reports overlap ends there, not roots). Undecided
    pieces go through intersect_curves itself.
    """
    cx, cy = c
    ax, ay = a
    xmin, xmax = min(cx, ax) - SNAP_TOL, max(cx, ax) + SNAP_TOL
    ymin, ymax = min(cy, ay) - SNAP_TOL, max(cy, ay) + SNAP_TOL
    dx, dy = ax - cx, ay - cy
    length2 = dx * dx + dy * dy
    chord_size = 1.0 + abs(cx) + abs(cy) + abs(ax) + abs(ay)
    crossed, polys, undecided = [], [], []
    for p in pieces:
        pxmin, pymin, pxmax, pymax = p.box
        if not (xmin <= pxmax and pxmin <= xmax
                and ymin <= pymax and pymin <= ymax):
            continue
        (x0, y0), *rest = p.coeffs
        w = [(x0 - cx) * dy - (y0 - cy) * dx] + [x * dy - y * dx
                                                 for x, y in rest]
        near = 1e-8 * (chord_size + p.mag) * math.sqrt(length2)
        if length2 == 0.0 or (p.degree == 1
                              and abs(w[0] + w[1] * p.lo) <= near
                              and abs(w[0] + w[1] * p.hi) <= near):
            undecided.append(p)
        else:
            crossed.append(p)
            polys.append(w)
    roots = real_roots_in_many(polys, [(p.lo, p.hi) for p in crossed])
    for p, ts in zip(crossed, roots):
        margin = 1e-12 * (chord_size + p.mag)
        for t in ts:
            px = py = 0.0
            for x, y in reversed(p.coeffs):
                px = px * t + x
                py = py * t + y
            u = ((px - cx) * dx + (py - cy) * dy) / length2
            u = min(max(u, 0.0), 1.0)
            qx, qy = (1.0 - u) * cx + u * ax, (1.0 - u) * cy + u * ay
            gap = min(math.hypot(qx - cx, qy - cy),
                      math.hypot(qx - ax, qy - ay))
            if abs(gap - touch) <= margin:
                undecided.append(p)
                break
            if gap > touch:
                return True
    if undecided:
        chord = straight_span(c, a)
        for p in undecided:
            for inter in intersect_curves(chord, p.span):
                x, y = inter.point
                if min(math.hypot(x - cx, y - cy),
                       math.hypot(x - ax, y - ay)) > touch:
                    return True
    return False


def _subdivided_loop(poly: CurvedPolygon, level: int) -> list[_Piece]:
    """The piece table of an ear-clipping pass.

    Curved spans contribute 2^(level+1) pieces (one midpoint at level 0),
    straight spans stay whole until the first refinement round.
    """
    pieces: list[_Piece] = []
    for span in poly.spans:
        if span.degree == 1 and level == 0:
            parts = 1
        elif span.degree == 1:
            parts = 2 ** level
        else:
            parts = 2 ** (level + 1)
        cuts = np.linspace(0.0, 1.0, parts + 1)
        subs = [span.sub(float(a), float(b))
                for a, b in zip(cuts[:-1], cuts[1:])]
        starts = span.curve.eval_pointwise(np.array([s.t0 for s in subs]))
        pieces += [_Piece(s, start=tuple(p))
                   for s, p in zip(subs, starts.tolist())]
    return pieces


def _single_triangle(spans) -> CurvedTriangle | None:
    if len(spans) != 3:
        return None
    try:
        tri = CurvedTriangle(spans)
    except IntegrationError:
        return None
    if tri.min_jacobian_probe() <= 0.0:
        return None
    return tri


def _ear_holds_probe(pa: _Piece, pb: _Piece, chord: CurveSpan,
                     pieces: list[_Piece], ib: int) -> bool:
    """Containment test of the ear pa, pb, chord (pb = pieces[ib]; the
    chord runs from the end of pb to the start of pa).

    The probes are the nodes of the pieces other than pa, pb and the one
    after pb, and the samples of the pieces other than pa and pb. Only
    probes within twice the test's margin of the ear's box are tested: a
    probe farther out is neither near the outline nor inside it, as the
    outline lies in that box.
    """
    margin = 10.0 * SNAP_TOL
    (cx, cy), (ax, ay) = pieces[(ib + 1) % len(pieces)].start, pa.start
    xmin = min(pa.box[0], pb.box[0], cx, ax) - 2.0 * margin
    ymin = min(pa.box[1], pb.box[1], cy, ay) - 2.0 * margin
    xmax = max(pa.box[2], pb.box[2], cx, ax) + 2.0 * margin
    ymax = max(pa.box[3], pb.box[3], cy, ay) + 2.0 * margin
    n = len(pieces)
    nodes, samples = [], []
    for k in range(1, n - 1):
        p = pieces[(ib + k) % n]
        bx0, by0, bx1, by1 = p.box
        if bx0 <= xmax and xmin <= bx1 and by0 <= ymax and ymin <= by1:
            if k > 1:
                nodes.append(p.start)
            samples.append(p.probes)
    if not samples:
        return False
    probes = np.concatenate([np.array(nodes).reshape(-1, 2)] + samples)
    x, y = probes[:, 0], probes[:, 1]
    probes = probes[(x >= xmin) & (x <= xmax) & (y >= ymin) & (y <= ymax)]
    if not len(probes):
        return False
    outline = np.concatenate([pa.outline, pb.outline,
                              chord.point_at(_OUTLINE_U)])
    return _holds_any(outline, probes, margin)


def _ear_pass(pieces: list[_Piece], scale: float):
    """One full ear-clipping pass over a piece table.

    Returns the triangles and their areas, or None on failure.
    """
    pieces = list(pieces)
    tris: list[CurvedTriangle] = []
    areas: list[float] = []
    touch_tol = 1e-7 * scale
    guard = 4 * len(pieces) + 16
    while len(pieces) > 3 and guard > 0:
        guard -= 1
        n = len(pieces)
        cut = None
        for i in range(n):
            ia, ib, ic = (i - 1) % n, i, (i + 1) % n
            pa, pb = pieces[ia], pieces[ib]
            A, B, C = pa.start, pb.start, pieces[ic].start
            area2 = (B[0] - A[0]) * (C[1] - A[1]) - (B[1] - A[1]) * (C[0] - A[0])
            if area2 <= 1e-14 * scale * scale:
                continue
            if _chord_blocked(C, A, pieces, touch_tol):
                continue
            chord = straight_span(C, A)
            area = 0.5 * (pa.term + pb.term + chord.contour_term())
            if area <= 0.0:
                continue
            if _ear_holds_probe(pa, pb, chord, pieces, ib):
                continue
            tri = _single_triangle((pa.span, pb.span, chord))
            if tri is None:
                continue
            cut = (ia, ib, tri, chord, area)
            break
        if cut is None:
            return None
        ia, ib, tri, chord, area = cut
        tris.append(tri)
        areas.append(area)
        pieces[ia] = _Piece(chord.flipped(), start=pieces[ia].start)
        del pieces[ib]
    if guard <= 0:
        return None
    final = _single_triangle([p.span for p in pieces])
    if final is None:
        return None
    tris.append(final)
    areas.append(0.5 * (pieces[0].term + pieces[1].term + pieces[2].term))
    return tris, areas


def _tiles_exactly(areas: list[float], area: float) -> bool:
    return abs(sum(areas) - area) <= 1e-10 * max(abs(area), 1e-300)


def _split_quad(poly: CurvedPolygon) -> list[CurvedTriangle] | None:
    """Diagonal split of a 4-span loop into two curved triangles.

    Safe without containment probes: a diagonal that leaves the region
    either crosses the boundary (rejected by the exact chord test) or
    produces triangles whose areas cannot sum to the loop area.
    """
    table = [_Piece(s) for s in poly.spans]
    area = poly.signed_area()
    touch = 1e-7 * max(poly.bbox().diag, 1e-30)
    for k in (0, 1):
        a, b = table[k], table[k + 1]
        c, d = table[(k + 2) % 4], table[(k + 3) % 4]
        end = tuple(b.span.end.tolist())
        if _chord_blocked(end, a.start, table, touch):
            continue
        chord = straight_span(end, a.start)
        back = chord.flipped()
        t1 = _single_triangle((a.span, b.span, chord))
        t2 = _single_triangle((c.span, d.span, back))
        if t1 is None or t2 is None:
            continue
        if _tiles_exactly([0.5 * (a.term + b.term + chord.contour_term()),
                           0.5 * (c.term + d.term + back.contour_term())],
                          area):
            return [t1, t2]
    return None


def ear_clip(poly: CurvedPolygon) -> list[CurvedTriangle]:
    """Tile a curved polygon with curved triangles by ear clipping.

    Interior edges are straight chords; boundary edges carry the original
    spans (split as needed). Loops that are already triangles (or quads
    splittable along a diagonal) take a fast path; otherwise nodes are
    seeded at span endpoints plus one midpoint per curved span, and when no
    valid ear exists every span is bisected and the pass restarts, up to 8
    refinement rounds. A span degree that no triangle map supports raises
    at once: no subdivision lowers it.
    """
    _map_degree(poly.spans)
    single = _single_triangle(poly.spans)
    if single is not None:
        return [single]
    if len(poly.spans) == 4:
        quick = _split_quad(poly)
        if quick is not None:
            return quick
    scale = max(poly.bbox().diag, 1e-30)
    area = poly.signed_area()
    for level in range(9):
        found = _ear_pass(_subdivided_loop(poly, level), scale)
        if found is not None and _tiles_exactly(found[1], area):
            return found[0]
    raise TriangulationError(
        f"ear clipping failed after 8 refinement rounds on {poly!r}; "
        f"bbox={poly.bbox()}, area={poly.signed_area():.6e}")
