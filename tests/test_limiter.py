import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curveremap.experiments import (accuracy_meshes, composite_disk_field,
                                    cylinder_field)
from curveremap.geometry import polygon_from_points
from curveremap.limiter import LimiterError, positivity_limit
from curveremap.mesh import exact_cell_averages, gen_disk_mesh, rotate_mesh
from curveremap.reconstruct import weno_reconstruct
from curveremap.remap import _gather, build_plan

from reference_integrate import Poly2, green_integral
from reference_limiter import limit_one, reference_limit

EPS = 1e-14


def limit(p: Poly2, avg: float, pts) -> np.ndarray:
    """positivity_limit on one cell whose points form one loop."""
    pts = np.asarray(pts, float).reshape(-1, 2)
    chunks = [(np.array([0]), np.array([len(pts)]), pts[:, 0], pts[:, 1])]
    return positivity_limit(p.coeffs[None], np.array([[p.cx, p.cy, p.h]]),
                            [avg], chunks)


def as_poly(coeffs: np.ndarray, p: Poly2) -> Poly2:
    return Poly2(coeffs[0], p.cx, p.cy, p.h)


def line_poly(avg, slope):
    """p(x, y) = avg + slope*(x - 1/2) on the unit square (average avg)."""
    return Poly2(np.array([[avg], [slope]]), cx=0.5, cy=0.0, h=1.0)


def test_compliant_polynomial_unchanged():
    p = Poly2.constant(5.0)
    coeffs = p.coeffs[None]
    chunks = [(np.array([0]), np.array([2]), np.array([0.1, 0.9]),
               np.array([0.1, 0.4]))]
    out = positivity_limit(coeffs, np.array([[0.0, 0.0, 1.0]]), [5.0], chunks)
    assert out is coeffs


def test_average_at_floor_flattens():
    p = line_poly(EPS, 2.0)
    out = as_poly(limit(p, EPS, [[0.0, 0.5]]), p)
    vals = out.eval(np.array([0.0, 0.3, 1.0]), np.zeros(3))
    assert np.allclose(vals, EPS, atol=1e-28)


def test_zero_touching_line_scaled_to_floor():
    # p = 1 + 2(x - 1/2): p(0) = 0, average 1, theta = (1 - eps)/1
    p = line_poly(1.0, 2.0)
    out = as_poly(limit(p, 1.0, [[0.0, 0.0]]), p)
    floor = out.eval(0.0, 0.0)
    assert EPS <= floor <= 1.2 * EPS
    assert abs(out.coeffs[1, 0] - 2.0 * (1.0 - EPS)) <= 1e-14


def test_contract_violation():
    p = Poly2.constant(0.0)
    with pytest.raises(LimiterError):
        limit(p, 0.0, [[0.0, 0.0]])


def test_empty_point_group_passthrough():
    p = line_poly(1.0, 2.0)
    coeffs = p.coeffs[None]
    assert positivity_limit(coeffs, np.array([[0.5, 0.0, 1.0]]), [1.0],
                            []) is coeffs


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
        out = as_poly(limit(p, avg, pts), p)
        vals = out.eval(pts[:, 0], pts[:, 1])
        assert vals.min() >= EPS - 1e-16
        new_avg = green_integral(out, square)
        assert abs(new_avg - avg) <= 1e-13 * max(1.0, abs(avg))
        # idempotence
        again = limit(out, avg, pts)[0]
        assert np.abs(again - out.coeffs).max() <= 1e-15
        checked += 1
    assert checked >= 50


@settings(max_examples=60, deadline=None)
@given(st.floats(1e-12, 10.0), st.floats(-50.0, 50.0))
def test_theta_formula_floor(avg, slope):
    p = line_poly(avg, slope)
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.0]])
    out = as_poly(limit(p, avg, pts), p)
    vals = out.eval(pts[:, 0], pts[:, 1])
    assert vals.min() >= EPS - 1e-16 - 1e-12 * abs(avg)


def test_cells_limited_together_match_one_at_a_time():
    # cell 0 dips below the floor, cell 1 clears it, cell 2 has no points
    # and cell 3 dips at points of two loops in different chunks
    polys = [line_poly(1.0, 3.0), Poly2.constant(2.0, 0.5, 0.0),
             line_poly(0.5, 9.0), line_poly(0.2, -1.0)]
    coeffs = np.zeros((4, 2, 2))
    for i, p in enumerate(polys):
        coeffs[i, :p.coeffs.shape[0], :p.coeffs.shape[1]] = p.coeffs
    frames = np.array([[p.cx, p.cy, p.h] for p in polys])
    avg = [1.0, 2.0, 0.5, 0.2]
    pts = {0: [[0.0, 0.0], [1.0, 0.0]], 1: [[0.0, 0.0]],
           3: [[0.2, 0.0], [1.0, 0.3]]}
    chunks = [(np.array([0, 3, 1]), np.array([2, 1, 1]),
               np.array([0.0, 1.0, 0.2, 0.0]), np.array([0.0, 0.0, 0.0, 0.0])),
              (np.array([3]), np.array([1]), np.array([1.0]), np.array([0.3]))]
    out = positivity_limit(coeffs, frames, avg, chunks)
    assert out is not coeffs
    for i in (1, 2):
        assert np.array_equal(out[i], coeffs[i])
    for i in (0, 3):
        p = Poly2(coeffs[i], *frames[i])
        want = limit_one(p, avg[i], np.array(pts[i]))
        assert want is not p
        assert np.array_equal(out[i], want.coeffs)


def _oracle_case(name):
    if name == "disk_n8":
        src = gen_disk_mesh(8)
        tgt = rotate_mesh(src, math.pi / 4)
        field = composite_disk_field
    else:
        src, tgt = accuracy_meshes(8, degree=3)
        field = cylinder_field
    f = exact_cell_averages(src, field, strict=False, max_levels=5)
    return build_plan(src, tgt, k_max=2, with_tris=True), f.averages


@pytest.mark.parametrize("name", ["disk_n8", "cubic_cylinder_n8"])
def test_limited_coefficients_equal_the_per_cell_oracle(name):
    plan, avg = _oracle_case(name)
    recon = weno_reconstruct(plan.source, avg, order=3)
    loops = [(ct, pg.src, lp) for ct, per in enumerate(plan.per_target)
             for pg in per for lp in pg.loops]
    src = np.array([s for _, s, _ in loops])
    got = positivity_limit(recon.coeffs, recon.frames, avg, _gather(
        loops, src, lambda lp: (lp.bpts[:, 0], lp.bpts[:, 1])))
    want, active = reference_limit(plan, recon.coeffs, recon.frames, avg)
    assert active > 0
    assert got.tobytes() == want.tobytes()
