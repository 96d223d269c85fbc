"""Parametric Lagrange curves, curve spans, and curved polygons.

Everything downstream (meshes, clipping, quadrature) is built on three
primitives: ParamCurve (a degree-d Lagrange curve), CurveSpan (an oriented
sub-interval of a curve) and CurvedPolygon (a closed counterclockwise loop
of spans).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import polynomial as npoly

SNAP_TOL = 1e-10  # world-space coincidence tolerance
PARAM_TOL = 1e-9  # slack when accepting parameters on [0, 1]

# Deterministic ray directions for point-in-polygon retries (radians).
_RAY_ANGLES = (0.0, 0.7391, 1.8473, 2.9517, 3.8621, 4.7137, 5.5309,
               0.3313, 1.2179, 2.5081, 4.1001, 5.9003)


class GeometryError(ValueError):
    """Invalid geometric object or operation."""


@dataclass(frozen=True, slots=True)
class Aabb:
    """Axis-aligned bounding box."""

    xmin: float
    ymin: float
    xmax: float
    ymax: float

    def __post_init__(self):
        if self.xmin > self.xmax or self.ymin > self.ymax:
            raise GeometryError("inverted bounding box")

    def overlaps(self, other: "Aabb") -> bool:
        return (self.xmin <= other.xmax and other.xmin <= self.xmax
                and self.ymin <= other.ymax and other.ymin <= self.ymax)

    def contains(self, x: float, y: float) -> bool:
        return self.xmin <= x <= self.xmax and self.ymin <= y <= self.ymax

    def inflate(self, pad: float) -> "Aabb":
        return Aabb(self.xmin - pad, self.ymin - pad,
                    self.xmax + pad, self.ymax + pad)

    def union(self, other: "Aabb") -> "Aabb":
        return Aabb(min(self.xmin, other.xmin), min(self.ymin, other.ymin),
                    max(self.xmax, other.xmax), max(self.ymax, other.ymax))

    @property
    def diag(self) -> float:
        return math.hypot(self.xmax - self.xmin, self.ymax - self.ymin)

    @staticmethod
    def of_points(pts: np.ndarray) -> "Aabb":
        return Aabb(float(pts[:, 0].min()), float(pts[:, 1].min()),
                    float(pts[:, 0].max()), float(pts[:, 1].max()))


def _hypot(v: np.ndarray) -> np.ndarray:
    """Lengths of the vectors v (..., 2), each rounded as math.hypot rounds
    it (np.hypot may differ in the last bit)."""
    return np.array([math.hypot(x, y) for x, y in v.reshape(-1, 2).tolist()]
                    ).reshape(v.shape[:-1])


@lru_cache(maxsize=None)
def _uniform_params(degree: int) -> np.ndarray:
    return np.arange(degree + 1) / degree


@lru_cache(maxsize=None)
def _lagrange_denoms(degree: int) -> np.ndarray:
    u = _uniform_params(degree)
    den = np.ones(degree + 1)
    for j in range(degree + 1):
        for m in range(degree + 1):
            if m != j:
                den[j] *= u[j] - u[m]
    return den


def _lagrange_basis(degree: int, t: np.ndarray) -> np.ndarray:
    """Values of the d+1 Lagrange basis polynomials at t, shape (..., d+1).

    Degrees 1-3 use factored closed forms (each factor vanishes exactly at
    its node, so interpolation is bit-exact there); higher degrees use the
    generic product form.
    """
    t = np.asarray(t, float)
    out = np.empty(t.shape + (degree + 1,))
    if degree == 1:
        out[..., 0] = 1.0 - t
        out[..., 1] = t
        return out
    if degree == 2:
        omt = 1.0 - t
        out[..., 0] = (1.0 - 2.0 * t) * omt
        out[..., 1] = 4.0 * t * omt
        out[..., 2] = (2.0 * t - 1.0) * t
        return out
    if degree == 3:
        a = t - 1.0 / 3.0
        b = t - 2.0 / 3.0
        c = t - 1.0
        out[..., 0] = -4.5 * a * b * c
        out[..., 1] = 13.5 * t * b * c
        out[..., 2] = -13.5 * t * a * c
        out[..., 3] = 4.5 * t * a * b
        return out
    u = _uniform_params(degree)
    den = _lagrange_denoms(degree)
    diffs = t[..., None] - u  # (..., d+1)
    for j in range(degree + 1):
        prod = np.ones_like(t)
        for m in range(degree + 1):
            if m != j:
                prod = prod * diffs[..., m]
        out[..., j] = prod / den[j]
    return out


def _lagrange_dbasis(degree: int, t: np.ndarray) -> np.ndarray:
    """Derivatives of the Lagrange basis at t, shape (..., d+1)."""
    t = np.asarray(t, float)
    out = np.empty(t.shape + (degree + 1,))
    if degree == 1:
        out[..., 0] = -1.0
        out[..., 1] = 1.0
        return out
    if degree == 2:
        out[..., 0] = 4.0 * t - 3.0
        out[..., 1] = 4.0 - 8.0 * t
        out[..., 2] = 4.0 * t - 1.0
        return out
    if degree == 3:
        t2 = t * t
        out[..., 0] = -13.5 * t2 + 18.0 * t - 5.5
        out[..., 1] = 40.5 * t2 - 45.0 * t + 9.0
        out[..., 2] = -40.5 * t2 + 36.0 * t - 4.5
        out[..., 3] = 13.5 * t2 - 9.0 * t + 1.0
        return out
    u = _uniform_params(degree)
    den = _lagrange_denoms(degree)
    diffs = t[..., None] - u
    out.fill(0.0)
    for j in range(degree + 1):
        acc = np.zeros_like(t)
        for m in range(degree + 1):
            if m == j:
                continue
            prod = np.ones_like(t)
            for k in range(degree + 1):
                if k != j and k != m:
                    prod = prod * diffs[..., k]
            acc = acc + prod
        out[..., j] = acc / den[j]
    return out


def eval_rows(basis: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Rows (k, 2) of basis (k, d+1) times nodes, (k, d+1, 2) or one
    (d+1, 2) for all rows, each rounded as ParamCurve.eval or deriv rounds
    one parameter: one vector-matrix product per row."""
    return (basis[:, None, :] @ nodes)[:, 0, :]


@lru_cache(maxsize=None)
def _bezier_conversion(degree: int) -> np.ndarray:
    """Matrix mapping uniform Lagrange nodes to Bezier control points."""
    u = _uniform_params(degree)
    bern = np.empty((degree + 1, degree + 1))
    for j in range(degree + 1):
        bern[:, j] = (math.comb(degree, j) * u ** j * (1.0 - u) ** (degree - j))
    return np.linalg.inv(bern)


def _decasteljau_split(ctrl: list, t: float) -> tuple[list, list]:
    """Split a Bezier control polygon, a list of (x, y) pairs, at parameter
    t; returns (left, right)."""
    s = 1.0 - t
    work = ctrl
    left = [work[0]]
    right = [work[-1]]
    for _ in range(1, len(ctrl)):
        work = [(s * x0 + t * x1, s * y0 + t * y1)
                for (x0, y0), (x1, y1) in zip(work[:-1], work[1:])]
        left.append(work[0])
        right.append(work[-1])
    right.reverse()
    return left, right


def _bezier_segment(ctrl: np.ndarray, a: float, b: float) -> list:
    """Control points, as (x, y) pairs, of the Bezier restricted to [a, b]
    (a < b assumed)."""
    ctrl = [tuple(p) for p in ctrl.tolist()]
    if a > b:
        a, b = b, a
    if a > 0.0:
        ctrl = _decasteljau_split(ctrl, a)[1]
        b = (b - a) / (1.0 - a)
    if b < 1.0:
        ctrl = _decasteljau_split(ctrl, b)[0]
    return ctrl


def _poly_deriv(c) -> tuple:
    """Derivative of a power-basis polynomial given as a sequence."""
    return tuple(k * a for k, a in enumerate(c))[1:]


def _poly_at(c, t: float) -> float:
    """Value at t of a power-basis polynomial given as a sequence."""
    v = 0.0
    for a in reversed(c):
        v = v * t + a
    return v


def power_rows(nodes: np.ndarray) -> np.ndarray:
    """Power-basis coefficients (k, d+1, 2), low order first, of the
    degree-d curves through the nodes (k, d+1, 2): one solve for the whole
    stack, each row bitwise the solve of its curve alone."""
    d = nodes.shape[1] - 1
    if d == 1:
        # what the solve gives: its LU factors are exact here
        return np.stack([nodes[:, 0], nodes[:, 1] - nodes[:, 0]], axis=1)
    vand = np.vander(_uniform_params(d), d + 1, increasing=True)
    return np.linalg.solve(vand, nodes)


class ParamCurve:
    """Degree-d Lagrange parametric curve through d+1 nodes at t = j/d.

    Evaluation outside [0, 1] is permitted (Newton iterates need it);
    clamping is the caller's responsibility.
    """

    __slots__ = ("degree", "nodes", "_power", "_plain", "_bezier", "_bbox")

    def __init__(self, nodes):
        nodes = np.ascontiguousarray(nodes, dtype=float)
        if nodes.ndim != 2 or nodes.shape[1] != 2 or nodes.shape[0] < 2:
            raise GeometryError("curve nodes must be an (d+1, 2) array with d >= 1")
        if not np.all(np.isfinite(nodes)):
            raise GeometryError("curve nodes must be finite")
        self._set_nodes(nodes)

    @classmethod
    def _of_checked(cls, nodes: np.ndarray) -> "ParamCurve":
        """The curve through nodes, a float (d+1, 2) array, d >= 1, of
        finite values, without checking them again (a mesh checks all its
        points at once)."""
        curve = cls.__new__(cls)
        curve._set_nodes(nodes)
        return curve

    def _set_nodes(self, nodes: np.ndarray) -> None:
        self.nodes = nodes
        self.degree = nodes.shape[0] - 1
        self._power = None
        self._plain = None
        self._bezier = None
        self._bbox = None

    def eval(self, t) -> np.ndarray:
        """Point(s) on the curve; shape (..., 2)."""
        basis = _lagrange_basis(self.degree, t)
        return basis @ self.nodes

    def deriv(self, t) -> np.ndarray:
        """Exact derivative of the Lagrange interpolant; shape (..., 2)."""
        dbasis = _lagrange_dbasis(self.degree, t)
        return dbasis @ self.nodes

    @property
    def power_coeffs(self) -> np.ndarray:
        """Power-basis coefficients, shape (d+1, 2), low order first."""
        if self._power is None:
            self._power = power_rows(self.nodes[None])[0]
        return self._power

    @property
    def plain_coeffs(self) -> tuple[tuple, tuple, tuple, tuple]:
        """Power coefficients of x and y and of their derivatives, as
        tuples of Python floats (low order first), for Horner evaluation
        in plain floats where a value only feeds a decision. Tuples of
        floats drop out of the cyclic collector's tracking; lists would
        add five tracked objects per curve."""
        if self._plain is None:
            px, py = map(tuple, self.power_coeffs.T.tolist())
            self._plain = (px, py, _poly_deriv(px), _poly_deriv(py))
        return self._plain

    @property
    def bezier_points(self) -> np.ndarray:
        if self._bezier is None:
            self._bezier = _bezier_conversion(self.degree) @ self.nodes
        return self._bezier

    def bbox(self) -> Aabb:
        """A box guaranteed to contain the curve over [0, 1] (Bezier hull)."""
        if self._bbox is None:
            self._bbox = Aabb.of_points(self.bezier_points)
        return self._bbox

    def __repr__(self):
        return f"ParamCurve(degree={self.degree})"


def _straddles(line: np.ndarray, seg: np.ndarray) -> np.ndarray:
    """Whether the two ends of the segments seg lie strictly on both sides
    of the lines of the segments line, elementwise. Each is a stack
    (ax, ay, dx, dy, ex, ey) of starts a, directions d and ends e = a + d."""
    ax, ay, dx, dy = line[:4]
    ca = dx * (seg[1] - ay) - dy * (seg[0] - ax)
    cb = dx * (seg[5] - ay) - dy * (seg[4] - ax)
    return ca * cb < 0


def _crossings(i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Proper crossings of the segments i and j (stacks as _straddles
    takes them): the ends of each straddle the other's line. The second
    test runs only where the first holds."""
    hit = _straddles(i, j)
    at = (slice(None),) + np.nonzero(hit)
    hit[at[1:]] = _straddles(j[at], i[at])
    return hit


def _polyline_self_intersects(pts: np.ndarray) -> np.ndarray:
    """Proper-crossing test on closed sampled polylines, one per row of pts
    (B, m, 2); returns (B,) bools. A polyline has m segments, the last one
    from pts[:, -1] back to pts[:, 0]; adjacent segments are not compared.

    The segments form groups of 4 consecutive ones. Pairs less than 8
    segments apart (cyclic offsets 2 to 7) are tested for every polyline
    as rolled (B, m) arrays. Pairs further apart lie in groups at least
    two groups apart both ways round, and are tested only where the two
    groups' closed boxes overlap: in exact arithmetic a proper crossing
    implies that. (Rounding can make two segments on one line with
    disjoint boxes test as crossed; such a pair counts only where it is
    tested.)
    """
    b, m = pts.shape[:2]
    crossed = np.zeros(b, bool)
    if m < 4:  # every pair is adjacent
        return crossed
    g = 4
    start = np.moveaxis(pts, -1, 0)
    step = np.roll(start, -1, axis=2) - start
    seg = np.concatenate([start, step, start + step])  # (6, B, m)
    # extended cyclically, so that each near offset is a slice
    ext = np.concatenate([seg, seg[:, :, :2 * g]], axis=2)
    for off in range(2, min(2 * g, m - 1)):
        crossed |= _crossings(seg, ext[:, :, off:off + m]).any(axis=1)
    n_groups = -(-m // g)
    # group pairs (p, q), p < q, at least two groups apart both ways round
    p, q = np.nonzero(np.triu(np.ones((n_groups, n_groups), bool), 2))
    keep = n_groups - (q - p) >= 2
    p, q = p[keep], q[keep]
    if not len(p):
        return crossed
    # group k holds segments k g ... k g + g - 1, the last group padded
    # with repeats of segment m - 1; its box is the union of theirs
    members = np.minimum(np.arange(n_groups)[:, None] * g + np.arange(g),
                         m - 1)
    lo = np.minimum(seg[:2], seg[4:])[:, :, members].min(axis=3)
    hi = np.maximum(seg[:2], seg[4:])[:, :, members].max(axis=3)
    row, k = np.nonzero(((lo[:, :, p] <= hi[:, :, q])
                         & (lo[:, :, q] <= hi[:, :, p])).all(axis=0))
    if len(row):
        rows = row[:, None, None]
        i = seg[:, rows, members[p[k]][:, :, None]]
        j = seg[:, rows, members[q[k]][:, None, :]]
        i, j = np.broadcast_arrays(i, j)
        crossed[row[_crossings(i, j).any(axis=(1, 2))]] = True
    return crossed


def _trim_leading(coeffs) -> list[float]:
    """Power coefficients (low order first) without their nearly-zero
    leading terms, |c_k| <= 1e-14 max |c|, so that degenerate (e.g.
    straight stored-as-quadratic) curves keep their true degree."""
    c = np.asarray(coeffs, float).tolist()
    scale = max(map(abs, c), default=0.0)
    if scale == 0.0:
        return []
    k = len(c) - 1
    while k > 0 and abs(c[k]) <= 1e-14 * scale:
        k -= 1
    return c[:k + 1]


def _closed_form_roots(c: list[float]) -> list[float]:
    """Real roots of a trimmed polynomial of degree 1 or 2."""
    if len(c) == 2:
        return [-c[0] / c[1]]
    a2, a1, a0 = c[2], c[1], c[0]
    disc = a1 * a1 - 4.0 * a2 * a0
    if disc < 0.0:
        return []
    sq = math.sqrt(disc)
    # Citardauq form for the small root avoids cancellation.
    q = -0.5 * (a1 + math.copysign(sq, a1))
    return [q / a2] if q == 0.0 else [q / a2, a0 / q]


def _real_parts(eigenvalues) -> list[float]:
    return [float(r.real) for r in eigenvalues
            if abs(r.imag) <= 1e-9 * (1.0 + abs(r.real))]


def _in_window(roots: list[float], lo: float, hi: float,
               tol: float) -> list[float]:
    """Sorted roots in [lo - tol, hi + tol], clamped to [lo, hi], without
    duplicates closer than 1e-12."""
    lo2, hi2 = min(lo, hi) - tol, max(lo, hi) + tol
    found = sorted(r for r in roots if lo2 <= r <= hi2)
    out: list[float] = []
    for r in found:
        r = min(max(r, min(lo, hi)), max(lo, hi))
        if not out or abs(r - out[-1]) > 1e-12:
            out.append(r)
    return out


def real_roots_in(coeffs: np.ndarray, lo: float, hi: float,
                  tol: float = PARAM_TOL) -> list[float]:
    """Real roots of a power-basis polynomial (low order first) in [lo, hi].

    Degrees 1 and 2 use closed forms; higher degrees go through numpy's
    polyroots (the companion matrix). Nearly-zero leading coefficients are
    trimmed so that degenerate (e.g. straight stored-as-quadratic) curves
    are handled.
    """
    c = _trim_leading(coeffs)
    roots = (_closed_form_roots(c) if 2 <= len(c) <= 3
             else _real_parts(npoly.polyroots(c)) if len(c) > 3 else [])
    return _in_window(roots, lo, hi, tol)


@dataclass(frozen=True, slots=True)
class CurveSpan:
    """Oriented sub-interval [t0, t1] of a ParamCurve.

    The span is traversed from t0 to t1; a reversed traversal of the
    underlying curve simply has t1 < t0. A local parameter u in [0, 1]
    always runs in traversal order.
    """

    curve: ParamCurve
    t0: float = 0.0
    t1: float = 1.0

    def __post_init__(self):
        if self.t0 == self.t1:
            raise GeometryError("degenerate span: t0 == t1")

    @property
    def reversed(self) -> bool:
        return self.t1 < self.t0

    @property
    def degree(self) -> int:
        return self.curve.degree

    def t_of(self, u):
        return self.t0 + np.asarray(u, float) * (self.t1 - self.t0)

    def point_at(self, u) -> np.ndarray:
        return self.curve.eval(self.t_of(u))

    def tangent_at(self, u) -> np.ndarray:
        """Derivative with respect to the local parameter u."""
        return self.curve.deriv(self.t_of(u)) * (self.t1 - self.t0)

    @property
    def start(self) -> np.ndarray:
        return self.curve.eval(self.t0)

    @property
    def end(self) -> np.ndarray:
        return self.curve.eval(self.t1)

    def sub(self, ua: float, ub: float) -> "CurveSpan":
        """Sub-span between local parameters ua < ub (traversal order kept)."""
        t0, h = float(self.t0), float(self.t1 - self.t0)
        return CurveSpan(self.curve, t0 + float(ua) * h, t0 + float(ub) * h)

    def bbox(self) -> Aabb:
        if self.t0 == 0.0 and self.t1 == 1.0:
            return self.curve.bbox()
        xs, ys = zip(*_bezier_segment(self.curve.bezier_points,
                                      min(self.t0, self.t1),
                                      max(self.t0, self.t1)))
        return Aabb(min(xs), min(ys), max(xs), max(ys))

    def flipped(self) -> "CurveSpan":
        return CurveSpan(self.curve, self.t1, self.t0)

    def contour_term(self) -> float:
        """This span's part of the contour integral of x dy - y dx, which
        is exact with degree + 1 Gauss points."""
        xi, w = gauss_rule_01(self.degree + 1)
        t = self.t0 + xi * (self.t1 - self.t0)
        p = self.curve.eval(t)
        d = self.curve.deriv(t)
        return (self.t1 - self.t0) * float(
            np.dot(w, p[:, 0] * d[:, 1] - p[:, 1] * d[:, 0]))


def straight_span(a, b) -> CurveSpan:
    """A degree-1 span from point a to point b."""
    return CurveSpan(ParamCurve(np.array([a, b], float)))


def _span_closest(span: CurveSpan, x: float, y: float) -> tuple[float, float]:
    """(distance, local parameter) of the closest point of a span to (x, y).

    The candidates are the roots of g = d/dt |c(t) - p|^2 / 2 in the
    span's window, then the window's ends. Each root is polished by two
    Newton steps on the untrimmed g: a straight edge stored as a cubic has
    power terms of round-off size that leave g a tiny leading coefficient,
    and its companion root can sit 1e-9 off.
    """
    px, py, dx, dy = span.curve.plain_coeffs
    cx = (px[0] - x, *px[1:])
    cy = (py[0] - y, *py[1:])
    g = [0.0] * (len(cx) + len(dx) - 1)
    for i, (ax, ay) in enumerate(zip(cx, cy)):
        for j, (bx, by) in enumerate(zip(dx, dy)):
            g[i + j] += ax * bx + ay * by
    dg = _poly_deriv(g)
    lo, hi = min(span.t0, span.t1), max(span.t0, span.t1)
    cand = []
    for t in real_roots_in(g, lo, hi):
        for _ in range(2):
            slope = _poly_at(dg, t)
            if slope == 0.0:
                break
            t = min(max(t - _poly_at(g, t) / slope, lo), hi)
        cand.append(t)
    best = (math.inf, 0.0)
    for t in cand + [lo, hi]:
        d = math.hypot(_poly_at(cx, t), _poly_at(cy, t))
        if d < best[0]:
            best = (d, t)
    u = (best[1] - span.t0) / (span.t1 - span.t0)
    return best[0], min(max(u, 0.0), 1.0)


_GAUSS_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def gauss_rule_01(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre points and weights on [0, 1]."""
    if n not in _GAUSS_CACHE:
        x, w = np.polynomial.legendre.leggauss(n)
        _GAUSS_CACHE[n] = (0.5 * (x + 1.0), 0.5 * w)
    return _GAUSS_CACHE[n]


def by_degree(spans):
    """(degree, indices) of each group of the spans with one degree."""
    groups: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        groups.setdefault(s.degree, []).append(i)
    return groups.items()


def span_samples(spans, u: np.ndarray):
    """Samples of spans of one degree at local parameters u (m,): points
    and curve derivatives (k, m, 2) and the window lengths t1 - t0 (k,).

    One stacked (m, d+1) @ (d+1, 2) product per span, so every span's
    samples are bitwise those of curve.eval and curve.deriv on its own
    parameters.
    """
    win = np.array([(s.t0, s.t1 - s.t0) for s in spans])
    h = win[:, 1]
    t = win[:, :1] + u * win[:, 1:]
    nodes = np.array([s.curve.nodes for s in spans])
    d = spans[0].degree
    return _lagrange_basis(d, t) @ nodes, _lagrange_dbasis(d, t) @ nodes, h


def span_gauss(spans, npts: int):
    """span_samples at the npts-point Gauss rule of the spans' windows,
    with its weights (npts,): points, derivatives, weights, lengths."""
    xi, w = gauss_rule_01(npts)
    p, dp, h = span_samples(spans, xi)
    return p, dp, w, h


def fill_areas(polys) -> None:
    """Cache the signed area of every polygon that has none yet.

    The contour terms of all their spans come from one stacked pass per
    degree, each bitwise CurveSpan.contour_term: its weight dot is a
    (1, q) @ (q, 1) product, as np.dot of two vectors computes it. Each
    area sums its terms in span order.
    """
    todo = [p for p in polys if p._area is None]
    spans = [s for p in todo for s in p.spans]
    terms = np.empty(len(spans))
    for d, ids in by_degree(spans):
        pt, dp, w, h = span_gauss([spans[i] for i in ids], d + 1)
        f = pt[..., 0] * dp[..., 1] - pt[..., 1] * dp[..., 0]
        terms[ids] = h * (w[None, :] @ f[:, :, None])[:, 0, 0]
    it = iter(terms.tolist())
    for p in todo:
        total = 0.0
        for _ in p.spans:
            total += next(it)
        p._area = 0.5 * total


class CurvedPolygon:
    """Closed counterclockwise loop of curve spans.

    Invariants (enforced by validate): consecutive span endpoints coincide
    within SNAP_TOL, signed area is positive, and the boundary does not
    self-intersect (sampling check).
    """

    __slots__ = ("spans", "_bbox", "_area", "_corners")

    def __init__(self, spans):
        self.spans = tuple(spans)
        if len(self.spans) < 2:
            raise GeometryError("polygon needs at least 2 spans")
        self._bbox = None
        self._area = None
        self._corners = None

    def bbox(self) -> Aabb:
        if self._bbox is None:
            box = self.spans[0].bbox()
            for s in self.spans[1:]:
                box = box.union(s.bbox())
            self._bbox = box
        return self._bbox

    def signed_area(self) -> float:
        """Area via the symmetric contour form 1/2 * integral(x y' - y x')."""
        if self._area is None:
            fill_areas([self])
        return self._area

    @property
    def corners(self) -> tuple[tuple[float, float], ...]:
        """Start points of the spans as float tuples. They come from the
        Lagrange evaluation (CurveSpan.start), not from nodes[0]: at t=0 a
        cubic's basis is not exactly (1, 0, 0, 0)."""
        if self._corners is None:
            self._corners = tuple(tuple(s.start.tolist()) for s in self.spans)
        return self._corners

    def boundary_points(self, per_span: int = 16) -> np.ndarray:
        """per_span points of each span, at u = k / per_span, k < per_span."""
        u = np.linspace(0.0, 1.0, per_span, endpoint=False)
        return np.vstack([s.point_at(u) for s in self.spans])

    def closure_gap(self) -> float:
        gap = 0.0
        for a, b in zip(self.spans, self.spans[1:] + (self.spans[0],)):
            e, s = a.end, b.start
            gap = max(gap, math.hypot(e[0] - s[0], e[1] - s[1]))
        return gap

    def validate(self) -> None:
        scale = max(self.bbox().diag, 1.0)
        if self.closure_gap() > 10.0 * SNAP_TOL * scale:
            raise GeometryError(
                f"polygon not closed: max endpoint gap {self.closure_gap():.3e}")
        if self.signed_area() <= 0.0:
            raise GeometryError(
                f"polygon not counterclockwise: signed area {self.signed_area():.3e}")
        if _polyline_self_intersects(self.boundary_points()[None])[0]:
            raise GeometryError("polygon boundary self-intersects (sampled)")

    def locate(self, x: float, y: float) -> str:
        """Classify a point: 'inside', 'outside' or 'boundary'.

        Crossing-number test with a horizontal ray; the ray direction is
        re-randomized (deterministic angle sequence) whenever a crossing is
        tangential or too close to a span endpoint.
        """
        box = self.bbox().inflate(SNAP_TOL)
        if not box.contains(x, y):
            return "outside"
        for s in self.spans:
            if s.bbox().inflate(SNAP_TOL).contains(x, y):
                d, _ = _span_closest(s, x, y)
                if d <= SNAP_TOL:
                    return "boundary"
        if not self.bbox().contains(x, y):
            # the box is a Bezier hull: the point is outside for certain,
            # where near a corner every ray could meet a span end
            return "outside"
        for ang in _RAY_ANGLES:
            parity = self._ray_parity(x, y, math.cos(ang), math.sin(ang))
            if parity is not None:
                return "inside" if parity % 2 else "outside"
        raise GeometryError(f"point location failed at ({x}, {y})")

    def _ray_parity(self, x: float, y: float, ex: float, ey: float) -> int | None:
        count = 0
        for s in self.spans:
            px, py, _dx, _dy = s.curve.plain_coeffs
            # perpendicular component along the ray direction
            w = [a * ey - b * ex for a, b in zip(px, py)]
            w[0] = (px[0] - x) * ey - (py[0] - y) * ex
            wscale = max(map(abs, w))
            if wscale == 0.0:
                return None  # span lies on the ray line: retry
            dw = _poly_deriv(w)
            lo, hi = min(s.t0, s.t1), max(s.t0, s.t1)
            for r in real_roots_in(w, lo, hi):
                span_len = hi - lo
                if r - lo < 1e-9 * span_len or hi - r < 1e-9 * span_len:
                    return None  # crossing at a span endpoint: retry
                if abs(_poly_at(dw, r)) <= 1e-8 * wscale:
                    return None  # tangential crossing: retry
                fwd = (_poly_at(px, r) - x) * ex + (_poly_at(py, r) - y) * ey
                if abs(fwd) <= SNAP_TOL:
                    return None
                if fwd > 0.0:
                    count += 1
        return count

    def __repr__(self):
        return f"CurvedPolygon({len(self.spans)} spans)"


def polygon_from_points(points) -> CurvedPolygon:
    """Straight-edge polygon (degree-1 spans) through the given points."""
    pts = np.asarray(points, float)
    spans = [straight_span(pts[i], pts[(i + 1) % len(pts)])
             for i in range(len(pts))]
    return CurvedPolygon(spans)
