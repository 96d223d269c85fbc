import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curveremap.geometry import polygon_from_points
from curveremap.integrate import Poly2, green_integral
from curveremap.limiter import (LimiterError, QuadPointGroup,
                                positivity_limit)

EPS = 1e-14


def line_poly(avg, slope):
    """p(x, y) = avg + slope*(x - 1/2) on the unit square (average avg)."""
    return Poly2(np.array([[avg], [slope]]), cx=0.5, cy=0.0, h=1.0)


def test_compliant_polynomial_unchanged():
    p = Poly2.constant(5.0)
    pts = QuadPointGroup(0, np.array([[0.1, 0.1], [0.9, 0.4]]))
    out = positivity_limit(p, 5.0, pts)
    assert out is p


def test_average_at_floor_flattens():
    p = line_poly(EPS, 2.0)
    pts = QuadPointGroup(0, np.array([[0.0, 0.5]]))
    out = positivity_limit(p, EPS, pts)
    vals = out.eval(np.array([0.0, 0.3, 1.0]), np.zeros(3))
    assert np.allclose(vals, EPS, atol=1e-28)


def test_zero_touching_line_scaled_to_floor():
    # p = 1 + 2(x - 1/2): p(0) = 0, average 1, theta = (1 - eps)/1
    p = line_poly(1.0, 2.0)
    pts = QuadPointGroup(0, np.array([[0.0, 0.0]]))
    out = positivity_limit(p, 1.0, pts)
    floor = out.eval(0.0, 0.0)
    assert EPS <= floor <= 1.2 * EPS
    assert abs(out.coeffs[1, 0] - 2.0 * (1.0 - EPS)) <= 1e-14


def test_contract_violation():
    p = Poly2.constant(0.0)
    with pytest.raises(LimiterError):
        positivity_limit(p, 0.0, QuadPointGroup(0, np.array([[0.0, 0.0]])))


def test_empty_point_group_passthrough():
    p = line_poly(1.0, 2.0)
    assert positivity_limit(p, 1.0, QuadPointGroup(0, np.empty((0, 2)))) is p


def test_average_preserved_and_floor_random():
    rng = np.random.default_rng(77)
    square = polygon_from_points([(0, 0), (1, 0), (1, 1), (0, 1)])
    checked = 0
    for _ in range(200):
        if checked >= 60:
            break
        coeffs = np.zeros((3, 3))
        for a in range(3):
            for b in range(3 - a):
                coeffs[a, b] = rng.normal(scale=1.0)
        coeffs[0, 0] = abs(coeffs[0, 0]) + 0.2
        p = Poly2(coeffs, cx=0.5, cy=0.5, h=0.6)
        avg = green_integral(p, square)  # area is 1
        if avg < EPS:
            continue
        pts = rng.uniform(0, 1, (25, 2))
        out = positivity_limit(p, avg, QuadPointGroup(0, pts))
        vals = out.eval(pts[:, 0], pts[:, 1])
        assert vals.min() >= EPS - 1e-16
        new_avg = green_integral(out, square)
        assert abs(new_avg - avg) <= 1e-13 * max(1.0, abs(avg))
        # idempotence
        again = positivity_limit(out, avg, QuadPointGroup(0, pts))
        assert np.abs(again.coeffs - out.coeffs).max() <= 1e-15
        checked += 1
    assert checked >= 50


@settings(max_examples=60, deadline=None)
@given(st.floats(1e-12, 10.0), st.floats(-50.0, 50.0))
def test_theta_formula_floor(avg, slope):
    p = line_poly(avg, slope)
    pts = QuadPointGroup(0, np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.0]]))
    out = positivity_limit(p, avg, pts)
    vals = out.eval(pts.points[:, 0], pts.points[:, 1])
    assert vals.min() >= EPS - 1e-16 - 1e-12 * abs(avg)
