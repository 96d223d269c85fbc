import numpy as np
import pytest

from curveremap.clipping import wa_clip
from curveremap.geometry import CurvedPolygon, CurveSpan, ParamCurve, \
    straight_span
from curveremap.integrate import _halves, triangulate
from curveremap.experiments import (REFERENCE_AREA, _centroid,
                                    accuracy_meshes, run_clipdemo)
from curveremap.mesh import gen_disk_mesh

from conftest import sample_curved_quads
from reference_integrate import Poly2, green_integral


def fan_integral(f: Poly2, poly: CurvedPolygon) -> float:
    """Integral of f over poly by triangulate's samples."""
    [(pts, jw, _)] = triangulate([poly], f.degree)
    return float(np.dot(f.eval(pts[:, 0], pts[:, 1]), jw))


def test_unit_square_monomials_exact(unit_square):
    for a in range(7):
        for b in range(7 - a):
            got = green_integral(Poly2.monomial(a, b), unit_square)
            exact = 1.0 / ((a + 1) * (b + 1))
            assert abs(got - exact) <= 1e-14


def test_signed_area_equals_unit_integral(quad_pair):
    for poly in quad_pair:
        a = poly.signed_area()
        b = green_integral(Poly2.constant(1.0), poly)
        assert abs(a - b) <= 1e-13 * abs(a)


def test_worked_example_areas_both_ways(quad_pair):
    qp, qq = quad_pair
    res = wa_clip(qp, qq)
    area_a = sum(green_integral(Poly2.constant(1.0), lp) for lp in res.loops)
    assert abs(area_a - REFERENCE_AREA) <= 1e-13
    assert abs(sum(lp.signed_area() for lp in res.loops)
               - 0.723453730359014) <= 1e-13
    area_b = sum(fan_integral(Poly2.constant(1.0), lp) for lp in res.loops)
    assert abs(area_b - REFERENCE_AREA) <= 1e-13
    assert abs(area_a - area_b) <= 2e-14


def test_triangulate_straight_square(unit_square):
    # one fan from the centre, four triangles of area 1/4
    [(_, jw, fans)] = triangulate([unit_square], 2)
    [(poly, apex)] = fans
    assert poly is unit_square
    assert np.allclose(apex, [0.5, 0.5], atol=1e-15)
    assert np.all(jw > 0.0)
    assert abs(jw.sum() - 1.0) <= 1e-15
    areas = [CurvedPolygon([straight_span(apex, s.start), s,
                            straight_span(s.end, apex)]).signed_area()
             for s in unit_square.spans]
    assert np.allclose(areas, 0.25, atol=1e-15)


def test_convex_curved_triangle_returned_whole():
    spans = [CurveSpan(ParamCurve([(0, 0), (0.5, -0.08), (1, 0)])),
             CurveSpan(ParamCurve([(1, 0), (0.55, 0.55), (0, 1)])),
             CurveSpan(ParamCurve([(0, 1), (-0.08, 0.5), (0, 0)]))]
    poly = CurvedPolygon(spans)
    poly.validate()
    [(_, jw, fans)] = triangulate([poly], 2)
    assert len(fans) == 1
    assert abs(jw.sum() - poly.signed_area()) <= 1e-15


def test_cross_method_on_curved_triangle():
    # the fan triangles (apex, span, apex) of the clip demo's loops, each
    # fanned again as a loop of its own
    f = Poly2.monomial(2, 1)
    for tri in run_clipdemo(2).triangles:
        a = green_integral(f, tri)
        b = fan_integral(f, tri)
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


def test_green_integral_cell_basics(quad_pair, unit_square):
    from curveremap.mesh import gen_deformed_square_mesh
    m = gen_deformed_square_mesh(4, "identity", degree=2)
    got = green_integral(Poly2.constant(1.0), m.cell_polygon(0))
    assert abs(got - 1 / 16) <= 1e-15
    assert abs(green_integral(Poly2.monomial(1, 0), unit_square)
               - 0.5) <= 1e-15
    # Quad P, f = y^2, Green vs triangulation
    qp, _ = quad_pair
    f = Poly2.monomial(0, 2)
    a = green_integral(f, qp)
    b = fan_integral(f, qp)
    assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


def test_additivity_over_triangulation():
    # the halves of a cut tile the loop: their fans add up to its integral
    for poly in sample_curved_quads(41, 6):
        halves = _halves(poly)
        assert len(halves) >= 2
        for (a, b) in ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2),
                       (3, 1), (2, 2), (4, 0)):
            f = Poly2.monomial(a, b)
            whole = green_integral(f, poly)
            parts = sum(fan_integral(f, h) for h in halves)
            assert abs(whole - parts) <= 1e-11 * max(1.0, abs(whole))


def green_centroid(poly):
    area = poly.signed_area()
    return (green_integral(Poly2.monomial(1, 0), poly) / area,
            green_integral(Poly2.monomial(0, 1), poly) / area)


@pytest.mark.parametrize("case", ["disk_n8", "accuracy_target_n8",
                                  "cubic_source_n8"])
def test_centroids_match_green_integral_bitwise(case):
    # the centroid CSVs print what green_integral gave them
    mesh = {"disk_n8": lambda: gen_disk_mesh(8),
            "accuracy_target_n8": lambda: accuracy_meshes(8)[1],
            "cubic_source_n8": lambda: accuracy_meshes(8, degree=3)[0]}[case]()
    for i in range(mesh.n_cells):
        poly = mesh.cell_polygon(i)
        assert _centroid(poly) == green_centroid(poly), i


@pytest.mark.parametrize("degree", [2, 3])
def test_clipdemo_areas_match_per_polygon_integrals(degree):
    # area A as green_integral summed loop by loop, area B as each loop's
    # own triangulate weights summed, and the loops' centroids, bit for bit
    res = run_clipdemo(degree)
    one = Poly2.constant(1.0)
    area_b = 0.0
    for lp in res.loops:
        assert _centroid(lp) == green_centroid(lp)
        area_b += fan_integral(one, lp)
    assert res.area_a == sum(green_integral(one, lp) for lp in res.loops)
    assert res.area_b == area_b


def test_poly2_arithmetic_and_eval():
    p = Poly2(np.array([[1.0, 2.0], [3.0, 0.0]]), cx=0.5, cy=-0.5, h=2.0)
    x, y = 1.1, 0.3
    X, Y = (x - 0.5) / 2.0, (y + 0.5) / 2.0
    assert abs(p.eval(x, y) - (1 + 2 * Y + 3 * X)) <= 1e-15
    q = p * p
    assert abs(q.eval(x, y) - p.eval(x, y) ** 2) <= 1e-14
    s = p + p
    assert abs(s.eval(x, y) - 2 * p.eval(x, y)) <= 1e-14
    dx = p.deriv(1, 0)
    assert abs(dx.eval(x, y) - 3 / 2.0) <= 1e-15
    with pytest.raises(ValueError):
        p + Poly2.constant(1.0)


def test_antideriv_x_property():
    rng = np.random.default_rng(9)
    c = np.triu(rng.normal(size=(3, 3)))[::-1].T  # arbitrary small poly
    p = Poly2(np.abs(c), cx=0.2, cy=0.1, h=0.7)
    f2 = p.antideriv_x()
    x, y = 0.37, -0.21
    h = 1e-6
    fd = (f2.eval(x + h, y) - f2.eval(x - h, y)) / (2 * h)
    assert abs(fd - p.eval(x, y)) <= 1e-8
