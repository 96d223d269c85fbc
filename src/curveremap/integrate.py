"""Approach B's geometry: certified fans of curved triangles.

The remap integrates each clipped piece in two independent ways, both exact
for polynomial integrands, which is what makes it conservative. Approach A
is Green's-theorem contour quadrature; its samples and sums live in
`remap._a_samples` and `remap._loop_integrals`. Approach B, built here,
tiles each piece by a fan of curved triangles from one apex and gives
collapsed-coordinate Gauss samples on them (`triangulate`, all pieces of a
plan at once). A piece whose fan is not certified positive is cut in two
by the exact clipper, along the line that halves its bounding box, and
each half is fanned again. `remap._loop_integrals` sums the samples.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .clipping import ClipTopologyError, kept_loops, wa_clip
from .geometry import (CurvedPolygon, GeometryError, by_degree, gauss_rule_01,
                       polygon_from_points, span_gauss, span_samples)


class IntegrationError(RuntimeError):
    """Quadrature construction failure."""


class TriangulationError(IntegrationError):
    """A loop got no certified fan within MAX_SPLITS rounds of cuts; loop
    is its index in triangulate's input."""

    def __init__(self, message: str, loop: int | None = None):
        super().__init__(message)
        self.loop = loop


# a fan is certified when every Bernstein coefficient of every span's g
# exceeds this share of the largest coefficient magnitude of its loop
FAN_MARGIN = 1e-12
# rounds of halving a loop whose fan is not certified
MAX_SPLITS = 8


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
    """Approach B samples of each loop: (points (m, 2), weights (m,),
    fans), where fans lists the (piece, apex) of each certified fan the
    samples come from: [(loop, apex)] where the loop's own fan serves.

    A loop whose own fan (`_fans`) is not certified is cut in two by
    `_halves`, and each piece is fanned again; pieces still declined are
    cut again, up to MAX_SPLITS rounds, loop by loop in input order. The
    pieces tile the loop as chains of its spans and of cut segments that
    cancel in pairs, so their fans together integrate degree-k_max
    polynomials exactly over the loop, and each certified fan has
    positive weights and points inside its piece. A loop still declined
    after MAX_SPLITS rounds, or a cut the clipper cannot make, raises
    TriangulationError naming the loop's index.
    """
    out = _fans(polys, k_max)
    for i, fan in enumerate(out):
        if fan is None:
            out[i] = _split_fans(polys[i], k_max, i)
    return out


def _split_fans(poly: CurvedPolygon, k_max: int, loop: int):
    """Samples of the certified fans of the pieces that cutting poly by
    `_halves` leaves, round by round."""
    done, pieces = [], [poly]
    for _ in range(MAX_SPLITS):
        try:
            pieces = [h for p in pieces for h in _halves(p)]
        except (ClipTopologyError, GeometryError) as exc:
            raise TriangulationError(f"cutting the loop failed: {exc}",
                                     loop) from exc
        fans = _fans(pieces, k_max)
        done += [f for f in fans if f is not None]
        pieces = [p for p, f in zip(pieces, fans) if f is None]
        if not pieces:
            pts, wts, fans = zip(*done)
            return np.vstack(pts), np.concatenate(wts), sum(fans, [])
    raise TriangulationError(
        f"{len(pieces)} pieces of the loop have no certified fan after "
        f"{MAX_SPLITS} rounds of cuts", loop)


def _halves(poly: CurvedPolygon) -> list[CurvedPolygon]:
    """The loops of poly on either side of the line that halves the longer
    side of its bounding box, clipped by wa_clip against the two half
    boxes. The half boxes reach past the box by its size on their other
    three sides, so that only the cut line meets poly."""
    b = poly.bbox()
    w, h = b.xmax - b.xmin, b.ymax - b.ymin
    pad = w + h
    x0, y0, x1, y1 = b.xmin - pad, b.ymin - pad, b.xmax + pad, b.ymax + pad
    if w >= h:
        m = 0.5 * (b.xmin + b.xmax)
        boxes = [(x0, y0, m, y1), (m, y0, x1, y1)]
    else:
        m = 0.5 * (b.ymin + b.ymax)
        boxes = [(x0, y0, x1, m), (x0, m, x1, y1)]
    loops = []
    for xa, ya, xb, yb in boxes:
        half = polygon_from_points([(xa, ya), (xb, ya), (xb, yb), (xa, yb)])
        loops += kept_loops(wa_clip(poly, half).loops, poly, half)
    if not loops:
        raise GeometryError("the cut left no piece of the loop")
    return loops


def _fans(polys: list[CurvedPolygon], k_max: int) -> list:
    """Fan-rule samples of each loop: (points (m, 2), weights (m,),
    [(loop, apex)]), or None where the fan is not certified.

    The fan's apex c is the loop's area centroid, from contour moments
    taken relative to its first span's start, so that a small loop far
    from the origin keeps its digits. Each span S(u), u in [0, 1], spans
    the curved triangle X(r, u) = c + r (S(u) - c), whose Jacobian is
    r g(u) with g = (S - c) x S', a polynomial of degree 2d - 1 (Duffy's
    collapsed coordinates). Gauss-Legendre points, ceil((k + 2) / 2) in r
    and ceil((k + 2) d / 2) in u, integrate degree-k polynomials exactly
    over the sum of a closed loop's fan triangles, which is the loop,
    whatever the sign of g. A fan is certified when every Bernstein
    coefficient of every span's g is positive, by FAN_MARGIN of the loop's
    largest: then every weight is positive and the loop is star-shaped
    from c, so every point lies inside it.

    All loops go through together, one stacked pass per span degree for
    the centroids, the samples and the certificates.
    """
    if not polys:
        return []
    spans = [s for p in polys for s in p.spans]
    counts = [len(p.spans) for p in polys]
    first = np.cumsum([0] + counts[:-1])
    owner = np.repeat(np.arange(len(polys)), counts)
    origin = np.array([p.spans[0].start for p in polys])
    # contour moments of x dy about the origin: the area and the first
    # moments
    mom = np.empty((len(spans), 3))
    for d, ids in by_degree(spans):
        p, dp, w, h = span_gauss([spans[i] for i in ids],
                                 math.ceil(3 * d / 2))
        p = p - origin[owner[ids]][:, None, :]
        x, y = p[..., 0], p[..., 1]
        wdy = dp[..., 1] * w * h[:, None]
        mom[ids] = (np.stack([x, 0.5 * x * x, x * y], axis=-1)
                    * wdy[..., None]).sum(axis=1)
    mom = np.add.reduceat(mom, first)
    apex = origin + mom[:, 1:] / mom[:, :1]

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
    return [(p, w, [(poly, c)]) if good else None for p, w, poly, c, good in
            zip(np.split(pts, cut), np.split(jw, cut), polys, apex,
                ok.tolist())]
