import math

import numpy as np
import pytest

from curveremap.geometry import polygon_from_points
from curveremap.mesh import exact_cell_averages, gen_deformed_square_mesh
from curveremap.reconstruct import (GAMMAS, ReconstructionError,
                                    _exponents, _geometry,
                                    _indicator_matrices, _moments,
                                    _quadratic_form, build_stencil,
                                    weno_reconstruct)
from curveremap.experiments import accuracy_meshes, cylinder_field, sin_field

from reference_integrate import (Poly2, constrained_lsq_fit, green_integral,
                                 smoothness)


def test_stencil_sizes_structured():
    m = gen_deformed_square_mesh(8, "identity", degree=2)
    center = 8 * 3 + 3
    assert len(build_stencil(m, center, 3)[1]) == 9
    assert len(build_stencil(m, center, 5)[2]) == 25
    assert len(build_stencil(m, 0, 3)[1]) == 4
    st = build_stencil(m, center, 3)
    assert st[0] == [center]
    assert set(st[0]) <= set(st[1])


def test_weno_config_validation():
    m = gen_deformed_square_mesh(3, "identity", degree=2)
    with pytest.raises(ValueError):
        weno_reconstruct(m, np.zeros(m.n_cells), order=2)
    for order, g in GAMMAS.items():
        assert len(g) == (order + 1) // 2 and min(g) > 0
    assert abs(sum(GAMMAS[5]) - 1.0) <= 1e-15


def test_constant_averages_give_constant_fit():
    m = gen_deformed_square_mesh(6, "gresho_like", 0.4, 2)
    avg = np.full(m.n_cells, 3.25)
    i = 6 * 2 + 3
    st = build_stencil(m, i, 3)
    q, k = constrained_lsq_fit(m, avg, i, st[1], 2)
    nonconst = q.coeffs.copy()
    nonconst[0, 0] = 0.0
    assert np.abs(nonconst).max() <= 1e-12 * 3.25
    assert k == 2


def test_linear_field_fit_reproduces():
    m = gen_deformed_square_mesh(6, "taylor_green_like", 0.05, 2)
    avg = exact_cell_averages(m, lambda x, y: x).averages
    i = 6 * 3 + 2
    st = build_stencil(m, i, 3)
    q, _ = constrained_lsq_fit(m, avg, i, st[1], 2)
    assert abs(q.eval(q.cx, q.cy) - q.cx) <= 1e-10


def test_quadratic_field_fit_exact_on_identity():
    m = gen_deformed_square_mesh(8, "identity", degree=2)
    avg = exact_cell_averages(m, lambda x, y: x * x).averages
    i = 8 * 3 + 3
    st = build_stencil(m, i, 3)
    q, _ = constrained_lsq_fit(m, avg, i, st[1], 2)
    for (x, y) in ((q.cx, q.cy), (q.cx + 0.05, q.cy - 0.03)):
        assert abs(q.eval(x, y) - x * x) <= 1e-10


def test_smoothness_examples(unit_square):
    assert smoothness(Poly2.constant(7.0), unit_square) == 0.0
    assert abs(smoothness(Poly2.monomial(1, 0), unit_square) - 1.0) <= 1e-13
    # p = x^2 on [0,1]^2: first-derivative term 4/3, second-derivative term 4
    got = smoothness(Poly2.monomial(2, 0), unit_square)
    assert abs(got - (4.0 / 3.0 + 4.0)) <= 1e-13


def beta0(m, avg, i):
    """The smallest squared difference of cell i's average to a one-ring
    neighbour's, one cell at a time."""
    return min((avg[i] - avg[j]) ** 2 for j in build_stencil(m, i, 3)[1]
               if j != i)


def test_beta0_examples():
    m = gen_deformed_square_mesh(3, "identity", degree=2)
    avg = np.array([5.0, 0.9, 5.0, 1.2, 1.0, 1.05, 5.0, 2.0, 5.0])
    for order in (3, 5):
        got = weno_reconstruct(m, avg, order=order).betas[:, 0]
        assert got.tolist() == [beta0(m, avg, i) for i in range(9)]
    assert abs(got[4] - 0.0025) <= 1e-15
    avg = np.full(9, 1.0)
    assert weno_reconstruct(m, avg, order=3).betas[4, 0] == 0.0


def test_beta0_step_field_tiny_for_same_side_neighbor():
    m = gen_deformed_square_mesh(8, "identity", degree=2)
    avg = exact_cell_averages(m, cylinder_field, strict=False,
                              max_levels=4).averages
    # a cell outside the disk whose whole neighborhood is background
    corner = 0
    assert weno_reconstruct(m, avg, order=3).betas[corner, 0] <= 1e-20


def test_constant_field_weights_collapse_to_linear():
    m = gen_deformed_square_mesh(5, "gresho_like", 0.3, 2)
    avg = np.full(m.n_cells, 2.0)
    for order in (3, 5):
        rf = weno_reconstruct(m, avg, order=order)
        w, betas = rf.weights[7], rf.betas[7]
        assert np.allclose(w, GAMMAS[order], atol=0, rtol=0)
        assert all(b == 0.0 for b in betas)
        p = Poly2(rf.coeffs[7], *rf.frames[7])
        assert abs(p.eval(0.41, 0.52) - 2.0) <= 1e-13


def test_linear_field_reconstruction_interior():
    # The quadratic fit reproduces linear fields exactly. So does the
    # nonlinear blend: the fit has no curvature, tau vanishes, the weights
    # equal the linear weights and the blend is the fit itself; assert
    # both to round-off.
    errs = {}
    for n in (8, 16):
        m = gen_deformed_square_mesh(n, "taylor_green_like", 0.05, 2)
        avg = exact_cell_averages(m, lambda x, y: x + 2 * y).averages
        adj = m.adjacency
        interior = [i for i in range(m.n_cells)
                    if len(adj.edge_neighbors[i]) == 4
                    and len(adj.vertex_neighbors[i]) == 4]
        i = interior[len(interior) // 2]
        st = build_stencil(m, i, 3)
        q, _ = constrained_lsq_fit(m, avg, i, st[1], 2)
        x, y = q.cx + 0.01, q.cy - 0.02
        assert abs(q.eval(x, y) - (x + 2 * y)) <= 1e-10
        rf = weno_reconstruct(m, avg, order=3)

        def off_centroid_err(j):
            p = Poly2(rf.coeffs[j], *rf.frames[j])
            x, y = p.cx + 0.31 * p.h, p.cy - 0.22 * p.h
            return abs(p.eval(x, y) - (x + 2 * y))

        errs[n] = max(off_centroid_err(j) for j in interior)
    assert errs[8] <= 1e-12 and errs[16] <= 1e-12, errs


def test_smooth_field_weights_near_linear():
    # On the sine field every cell of the n=16 accuracy source mesh keeps
    # the order-3 constant weight near its linear weight; an indicator tau
    # driven by beta0 held it at up to ~14 gamma0 and steepened the order-3
    # convergence slope.
    src, _tgt = accuracy_meshes(16)
    avg = exact_cell_averages(src, sin_field).averages
    worst = weno_reconstruct(src, avg, order=3).weights[:, 0].max()
    assert worst <= 2.0 * GAMMAS[3][0], worst / GAMMAS[3][0]


def test_conservation_invariant_all_orders():
    m = gen_deformed_square_mesh(6, "gresho_like", 0.45, 2, roughen=0.1)
    avg = exact_cell_averages(
        m, lambda x, y: np.sin(np.pi * x) + np.sin(np.pi * y)).averages
    areas = m.cell_areas()
    for order in (1, 3, 5):
        rf = weno_reconstruct(m, avg, order=order)
        for i in range(m.n_cells):
            got = green_integral(Poly2(rf.coeffs[i], *rf.frames[i]),
                                 m.cell_polygon(i))
            want = avg[i] * areas[i]
            assert abs(got - want) <= 1e-12 * max(abs(want), 1e-6)


def test_weight_normalization_and_positivity():
    m = gen_deformed_square_mesh(6, "gresho_like", 0.4, 2)
    avg = exact_cell_averages(m, cylinder_field, strict=False,
                              max_levels=4).averages
    for order in (3, 5):
        weights = weno_reconstruct(m, avg, order=order).weights
        for i in (0, 7, 14, 21):
            w = weights[i]
            assert all(x >= 0 for x in w)
            assert abs(sum(w) - 1.0) <= 1e-14


def test_discontinuity_pushes_weight_to_constant():
    # Cells at the jump with a same-side neighbor have beta0 ~ 0 while the
    # quadratic candidate's indicator is large, so the constant candidate's
    # weight is boosted far beyond its linear weight (gamma0 = 1/101) and
    # the smooth-region collapse omega ~ gamma is abandoned.
    m = gen_deformed_square_mesh(16, "identity", degree=2)
    avg = exact_cell_averages(m, cylinder_field, strict=False,
                              max_levels=4).averages
    rf = weno_reconstruct(m, avg, order=3)
    checked = 0
    for i in range(m.n_cells):
        w, betas = rf.weights[i], rf.betas[i]
        b0 = betas[0]
        if b0 <= 1e-16 and betas[1] >= 0.1:
            assert w[0] >= 20.0 * GAMMAS[3][0], (i, w, betas)
            assert w[0] >= 0.2, (i, w, betas)
            checked += 1
    assert checked >= 4


def test_field_length_mismatch():
    m = gen_deformed_square_mesh(3, "identity", degree=2)
    with pytest.raises(ReconstructionError):
        weno_reconstruct(m, np.zeros(5), order=3)


def test_non_finite_averages_raise():
    m = gen_deformed_square_mesh(3, "identity", degree=2)
    avg = np.ones(m.n_cells)
    avg[4] = np.nan
    with pytest.raises(ReconstructionError, match="finite"):
        weno_reconstruct(m, avg, order=3)


@pytest.mark.parametrize("degree", [2, 3])
def test_indicator_quadratic_form_matches_green_route(degree):
    # beta = c^T B c, with B from the batched self-moments, against the
    # Green contour integrals of the squared derivatives on curved cells
    m = gen_deformed_square_mesh(4, "gresho_like", 0.4, degree, roughen=0.1)
    K = 4
    geo = _geometry(m, 2 * K - 2)
    cells = np.arange(m.n_cells)
    B = _indicator_matrices(_moments(geo, cells, cells, 2 * K - 2),
                            geo.h, geo.area, K)
    rng = np.random.default_rng(7 + degree)
    ea, eb = _exponents(K, first=0)
    for k in range(1, K + 1):
        coeffs = np.zeros((m.n_cells, K + 1, K + 1))
        keep = ea + eb <= k
        coeffs[:, ea[keep], eb[keep]] = rng.normal(size=(m.n_cells, keep.sum()))
        got = _quadratic_form(B, coeffs, K)
        for i in cells:
            p = Poly2(coeffs[i, :k + 1, :k + 1], geo.cx[i], geo.cy[i], geo.h[i])
            want = smoothness(p, m.cell_polygon(i))
            assert abs(got[i] - want) <= 1e-12 * want, (k, i, got[i], want)
