import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from curveremap.experiments import accuracy_meshes
from curveremap.geometry import (SNAP_TOL, Aabb, CurvedPolygon, CurveSpan,
                                 GeometryError, ParamCurve,
                                 _polyline_self_intersects, _span_closest,
                                 polygon_from_points, real_roots_in,
                                 straight_span)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_curve_nodes_must_be_finite(bad):
    with pytest.raises(GeometryError, match="finite"):
        ParamCurve([(0.0, 0.0), (0.5, bad), (1.0, 0.0)])


def test_quadratic_midpoint_matches_control_point():
    # edge of the worked-example quad: nodes at t = 0, 0.5, 1
    c = ParamCurve([(-1.5, -2.0), (0.1, -0.1), (1.0, -1.0)])
    assert c.eval(0.5).tolist() == [0.1, -0.1]


def test_curve_endpoints_interpolate():
    q = ParamCurve([(0.3, 1.2), (2.0, -0.5), (4.0, 4.0)])
    assert q.eval(0.0).tolist() == [0.3, 1.2]  # bit-exact at degree 2
    assert q.eval(1.0).tolist() == [4.0, 4.0]
    c = ParamCurve([(0.3, 1.2), (2.0, -0.5), (1.0, 0.25), (4.0, 4.0)])
    assert math.dist(c.eval(0.0), (0.3, 1.2)) <= 2e-15 * 4
    assert math.dist(c.eval(1.0), (4.0, 4.0)) <= 2e-15 * 4


def test_linear_interpolation():
    c = ParamCurve([(0, 0), (2, 4)])
    assert c.eval(0.25).tolist() == [0.5, 1.0]
    assert c.deriv(0.77).tolist() == [2.0, 4.0]


def test_node_reproduction_tolerance():
    rng = np.random.default_rng(7)
    for d in (1, 2, 3, 4):
        nodes = rng.uniform(-10, 10, (d + 1, 2))
        c = ParamCurve(nodes)
        ts = np.arange(d + 1) / d
        err = np.abs(c.eval(ts) - nodes).max()
        assert err <= 1e-14 * np.abs(nodes).max()


def test_quadratic_derivative_blend():
    nodes = np.array([(-1.5, -2.0), (0.1, -0.1), (1.0, -1.0)])
    c = ParamCurve(nodes)
    for t in (0.0, 0.3, 0.5, 0.9, 1.0):
        expected = ((4 * t - 3) * nodes[0] + (4 - 8 * t) * nodes[1]
                    + (4 * t - 1) * nodes[2])
        assert np.allclose(c.deriv(t), expected, atol=1e-14)


def test_derivative_finite_difference_oracle():
    rng = np.random.default_rng(3)
    h = 1e-6
    for d in (1, 2, 3):
        nodes = rng.uniform(-10, 10, (d + 1, 2))
        c = ParamCurve(nodes)
        for t in (0.1, 0.42, 0.87):
            fd = (c.eval(t + h) - c.eval(t - h)) / (2 * h)
            assert np.abs(c.deriv(t) - fd).max() <= 1e-8 * 10


def test_bbox_segment():
    c = ParamCurve([(0, 0), (1, 1)])
    assert c.bbox() == Aabb(0, 0, 1, 1)


def test_bbox_parabola_control_hull():
    c = ParamCurve([(0, 0), (0.5, 1.0), (1, 0)])
    # Lagrange -> Bezier: middle control point (4*mid - p0 - p1)/2 = (0.5, 2)
    assert np.allclose(c.bezier_points[1], [0.5, 2.0])
    box = c.bbox()
    assert (box.xmin, box.ymin, box.xmax, box.ymax) == (0.0, 0.0, 1.0, 2.0)


def test_bbox_contains_dense_samples():
    rng = np.random.default_rng(11)
    for d in (2, 3, 4):
        c = ParamCurve(rng.uniform(-3, 3, (d + 1, 2)))
        box = c.bbox()
        pts = c.eval(np.linspace(0, 1, 1000))
        assert pts[:, 0].min() >= box.xmin and pts[:, 0].max() <= box.xmax
        assert pts[:, 1].min() >= box.ymin and pts[:, 1].max() <= box.ymax


def test_point_in_unit_square(unit_square):
    assert unit_square.locate(0.5, 0.5) == "inside"
    assert unit_square.locate(2.0, 2.0) == "outside"
    assert unit_square.locate(1.0, 0.5) == "boundary"
    assert unit_square.locate(0.25, 1.0) == "boundary"


def _winding_oracle(poly, x, y, per_span=512):
    pts = poly.boundary_points(per_span=per_span)
    dx = pts[:, 0] - x
    dy = pts[:, 1] - y
    ang = np.arctan2(dy, dx)
    turns = np.diff(np.concatenate([ang, ang[:1]]))
    turns = (turns + np.pi) % (2 * np.pi) - np.pi
    return abs(turns.sum()) > np.pi


def test_point_in_curved_quad_matches_winding_oracle(quad_pair):
    qp, _ = quad_pair
    assert (qp.locate(0.0, 0.0) == "inside") == _winding_oracle(qp, 0.0, 0.0)
    rng = np.random.default_rng(5)
    for _ in range(40):
        x, y = rng.uniform(-2, 2, 2)
        loc = qp.locate(x, y)
        if loc == "boundary":
            continue
        assert (loc == "inside") == _winding_oracle(qp, x, y), (x, y)


def test_point_in_convex_polygon_halfplane_property():
    # random convex straight polygons vs the half-plane test, 1e4 points
    rng = np.random.default_rng(23)
    ang = np.sort(rng.uniform(0, 2 * np.pi, 7))
    verts = np.column_stack([np.cos(ang), np.sin(ang)]) * rng.uniform(0.5, 1.5)
    poly = polygon_from_points(verts)
    pts = rng.uniform(-2, 2, (10_000, 2))
    inside_hp = np.ones(len(pts), dtype=bool)
    near_edge = np.zeros(len(pts), dtype=bool)
    for k in range(len(verts)):
        a, b = verts[k], verts[(k + 1) % len(verts)]
        cross = ((b[0] - a[0]) * (pts[:, 1] - a[1])
                 - (b[1] - a[1]) * (pts[:, 0] - a[0]))
        inside_hp &= cross > 0
        near_edge |= np.abs(cross) < 1e-9
    for p, want, skip in zip(pts, inside_hp, near_edge):
        if skip:
            continue
        got = poly.locate(float(p[0]), float(p[1]))
        if got == "boundary":
            continue
        assert (got == "inside") == bool(want)


def test_span_orientation_and_subdivision():
    c = ParamCurve([(0, 0), (0.5, 1.0), (1, 0)])
    fwd = CurveSpan(c, 0.0, 1.0)
    rev = fwd.flipped()
    assert rev.reversed
    assert np.allclose(fwd.start, rev.end)
    sub = fwd.sub(0.25, 0.75)
    assert np.allclose(sub.start, c.eval(0.25))
    assert np.allclose(sub.end, c.eval(0.75))
    # sub-span bbox still bounds dense samples
    box = sub.bbox()
    pts = c.eval(np.linspace(0.25, 0.75, 500))
    assert pts[:, 1].max() <= box.ymax + 1e-15


def test_polygon_validation_catches_clockwise(unit_square):
    cw = polygon_from_points([(0, 0), (0, 1), (1, 1), (1, 0)])
    with pytest.raises(GeometryError):
        cw.validate()
    unit_square.validate()


def test_polygon_validation_tests_the_closing_segment():
    # sides p1 -> p2 and p3 -> p0 cross on the sampled polyline's closing
    # segment, from its last point back to p0; the signed area is positive,
    # so only the crossing test can catch it
    bow = polygon_from_points([(-0.236, -0.375), (-0.839, 0.566),
                               (0.144, -0.845), (0.954, -0.779)])
    assert bow.signed_area() > 0.0
    with pytest.raises(GeometryError, match="self-intersects"):
        bow.validate()
    pts = bow.boundary_points(per_span=16)
    assert _polyline_self_intersects(pts[None])[0]


def test_batched_crossing_test_equals_one_polyline_at_a_time():
    rng = np.random.default_rng(5)
    ang = np.linspace(0, 2 * np.pi, 24, endpoint=False)
    loops = (np.column_stack([np.cos(ang), np.sin(ang)])
             + rng.normal(scale=0.12, size=(40, 24, 2)))
    got = _polyline_self_intersects(loops)
    one = [_polyline_self_intersects(p[None])[0] for p in loops]
    assert got.tolist() == one
    assert 0 < got.sum() < len(loops)


def test_sub_span_parameters_equal_t_of():
    c = ParamCurve([(0, 0), (0.5, 1.0), (1, 0)])
    rng = np.random.default_rng(8)
    for t0, t1 in [(0.0, 1.0), (1.0, 0.0), (0.3, 0.71), (0.9, 0.125)]:
        span = CurveSpan(c, t0, t1)
        for ua, ub in rng.uniform(size=(20, 2)):
            sub = span.sub(ua, np.float64(ub))
            assert type(sub.t0) is float and type(sub.t1) is float
            assert (sub.t0, sub.t1) == (float(span.t_of(ua)),
                                        float(span.t_of(ub)))


@settings(max_examples=60, deadline=None)
@given(st.floats(-0.2, 1.2), st.floats(-0.2, 1.2))
# just outside a corner, beyond SNAP_TOL: every ray meets a span end
@example(-7.449158996730917e-11, -7.449158996730917e-11)
@example(-1e-10, -1e-10)
def test_square_locate_never_crashes(x, y):
    sq = polygon_from_points([(0, 0), (1, 0), (1, 1), (0, 1)])
    assert sq.locate(x, y) in ("inside", "outside", "boundary")


def test_signed_area_triangle():
    tri = polygon_from_points([(0, 0), (2, 0), (0, 2)])
    assert math.isclose(tri.signed_area(), 2.0, rel_tol=1e-14)


def test_interior_point_is_inside(quad_pair):
    for poly in quad_pair:
        x, y = poly.interior_point()
        assert poly.locate(x, y) == "inside"


def _roots_one_by_one(coeffs, lo, hi, tol=1e-9):
    """The per-polynomial root finder real_roots_in must match:
    trim, closed forms below degree 3, numpy's polyroots from degree 3."""
    c = list(map(float, coeffs))
    scale = max(map(abs, c))
    k = len(c) - 1
    while k > 0 and abs(c[k]) <= 1e-14 * scale:
        k -= 1
    if k == 0:
        return []
    if k == 1:
        roots = [-c[0] / c[1]]
    elif k == 2:
        disc = c[1] * c[1] - 4.0 * c[2] * c[0]
        if disc < 0.0:
            return []
        q = -0.5 * (c[1] + math.copysign(math.sqrt(disc), c[1]))
        roots = [q / c[2]] if q == 0.0 else [q / c[2], c[0] / q]
    else:
        roots = [float(r.real) for r in np.polynomial.polynomial.polyroots(
            c[:k + 1]) if abs(r.imag) <= 1e-9 * (1.0 + abs(r.real))]
    out = []
    for r in sorted(r for r in roots if lo - tol <= r <= hi + tol):
        r = min(max(r, lo), hi)
        if not out or abs(r - out[-1]) > 1e-12:
            out.append(r)
    return out


def test_batched_roots_equal_one_by_one_roots():
    rng = np.random.default_rng(12)
    P = np.polynomial.polynomial
    polys = [rng.normal(size=rng.integers(2, 6)) * 10.0 ** rng.uniform(-6, 3)
             for _ in range(400)]
    polys += [P.polyfromroots([r, r + 1e-9 * rng.normal(), rng.normal()])
              for r in rng.uniform(0.0, 1.0, 100)]
    polys += [np.array([1e-3, -2.0, 1.0, 1e-17])]  # trimmed to a quadratic
    windows = [tuple(sorted(rng.uniform(-1.5, 1.5, 2))) for _ in polys]
    got = [real_roots_in(c, lo, hi) for c, (lo, hi) in zip(polys, windows)]
    assert any(len(r) > 1 for r in got)
    for c, (lo, hi), roots in zip(polys, windows, got):
        assert roots == _roots_one_by_one(c, lo, hi)


def _closest_cases():
    """Spans of degrees 1-3, straight edges stored as cubics among them,
    each in a forward and a reversed window, with points near them."""
    rng = np.random.default_rng(31)
    curves = [ParamCurve(rng.uniform(-1.0, 1.0, (d + 1, 2)))
              for d in (1, 2, 3) for _ in range(6)]
    for _ in range(6):
        a, b = rng.uniform(-1.0, 1.0, (2, 2))
        curves.append(ParamCurve([a + k / 3.0 * (b - a) for k in range(4)]))
    curves.append(ParamCurve([(k / 3.0, 0.0) for k in range(4)]))
    for c in curves:
        t0, t1 = sorted(rng.uniform(0.0, 1.0, 2))
        for span in (CurveSpan(c, t0, t1), CurveSpan(c, t1, t0),
                     CurveSpan(c, 1.0, 0.0)):
            for _ in range(4):
                p = span.point_at(rng.uniform(-0.2, 1.2))
                yield span, p + rng.normal(scale=0.1, size=2)
            yield span, span.point_at(rng.uniform(0.0, 1.0))


def test_span_closest_matches_dense_sampling():
    u = np.linspace(0.0, 1.0, 20001)
    for span, (x, y) in _closest_cases():
        d, uc = _span_closest(span, float(x), float(y))
        pts = span.point_at(u)
        dense = float(np.min(np.hypot(pts[:, 0] - x, pts[:, 1] - y)))
        # every point of the span lies within half a sample step of a sample
        step = float(np.max(np.hypot(*np.diff(pts, axis=0).T)))
        assert dense - 0.51 * step <= d <= dense + 1e-13
        q = span.point_at(uc)
        assert math.isclose(math.hypot(q[0] - x, q[1] - y), d,
                            rel_tol=1e-9, abs_tol=1e-13)


@pytest.mark.parametrize("n", (5, 7))
def test_span_closest_on_a_straight_boundary_edge_stored_as_a_cubic(n):
    # the companion root of the distance polynomial sat 9e-10 off on
    # accuracy_meshes(5, degree=3), so a point of the edge read 1.9e-10
    # away, above SNAP_TOL, and every probe ray hit the edge
    src, _ = accuracy_meshes(n, degree=3)
    edges = [e for e in range(src.n_edges)
             if np.all(src.points[src.edges[e], 1] == 0.0)
             and src.points[src.edges[e], 0].min() < 0.5
             < src.points[src.edges[e], 0].max()]
    assert edges
    for e in edges:
        c = src.edge_curve(e)
        for span in (CurveSpan(c, 0.0, 1.0), CurveSpan(c, 1.0, 0.0)):
            d, _u = _span_closest(span, 0.5000000000000001, 0.0)
            assert d <= 1e-15 < SNAP_TOL
