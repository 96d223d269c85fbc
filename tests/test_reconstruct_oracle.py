"""The package's WENO reconstruction against the per-cell reference.

`reference_reconstruct` fits, weighs and blends one cell at a time. The
package must give the same polynomials: to 1e-14 on cells whose stencils
are complete, and to 1e-12 everywhere, both relative to the field's size
and measured at points off the centroid. Boundary cells with truncated
stencils solve nearly square systems, where two LAPACK least-squares
drivers differ in the last digits more than elsewhere. The reduced-fit
warnings must be identical. The stencil tables must hold the reference's
stencils exactly, and the moments must not depend on their block size.
"""

import numpy as np
import pytest

from curveremap.experiments import (accuracy_meshes, composite_disk_field,
                                    cylinder_field, sin_field)
from curveremap import reconstruct
from curveremap.mesh import (exact_cell_averages, gen_deformed_square_mesh,
                             gen_disk_mesh, rotate_mesh)
from curveremap.reconstruct import (_geometry, _grow, _moments, _rings,
                                    build_stencil, weno_reconstruct)

from reference_integrate import Poly2
from reference_reconstruct import (one_ring, reference_reconstruct,
                                   stencil_levels)

OFFSETS = ((0.31, -0.22), (-0.27, 0.18), (0.05, 0.33))


def _case(name):
    if name == "sine_n16":
        mesh = accuracy_meshes(16)[0]
        return mesh, exact_cell_averages(mesh, sin_field).averages
    if name == "disk_n8":
        mesh = gen_disk_mesh(8)
        return mesh, exact_cell_averages(mesh, composite_disk_field,
                                         strict=False, max_levels=3).averages
    if name == "cubic_cylinder_n8":
        mesh = accuracy_meshes(8, degree=3)[0]
        return mesh, exact_cell_averages(mesh, cylinder_field, strict=False,
                                         max_levels=3).averages
    mesh = gen_deformed_square_mesh(3, "gresho_like", 0.3, 2)
    return mesh, exact_cell_averages(mesh, sin_field).averages


@pytest.fixture(scope="module", params=["sine_n16", "disk_n8",
                                        "cubic_cylinder_n8", "three_by_three"])
def case(request):
    return request.param, *_case(request.param)


@pytest.mark.parametrize("order", [3, 5])
def test_batched_matches_per_cell_reference(case, order):
    name, mesh, avg = case
    got = weno_reconstruct(mesh, avg, order=order)
    ref_polys, ref_w, ref_b, ref_warn = reference_reconstruct(mesh, avg, order)
    assert got.warnings == ref_warn
    scale = max(1.0, float(np.abs(avg).max()))
    full = 9 if order == 3 else 25
    errs, interior = [], []
    for i, (c, fr, q) in enumerate(zip(got.coeffs, got.frames, ref_polys)):
        p = Poly2(c, *fr)
        assert (p.cx, p.cy, p.h) == pytest.approx((q.cx, q.cy, q.h), rel=1e-14)
        x = np.array([q.cx + a * q.h for a, _ in OFFSETS])
        y = np.array([q.cy + b * q.h for _, b in OFFSETS])
        errs.append(float(np.abs(p.eval(x, y) - q.eval(x, y)).max()) / scale)
        interior.append(len(stencil_levels(mesh, i, order)[-1]) == full
                        and f"cell {i}:" not in " ".join(ref_warn))
    errs = np.array(errs)
    interior = np.array(interior)
    assert errs.max() <= 1e-12, (name, int(errs.argmax()), errs.max())
    if interior.any():
        assert errs[interior].max() <= 1e-14, (name, errs[interior].max())
    np.testing.assert_allclose(got.weights, ref_w, rtol=0, atol=1e-12)
    np.testing.assert_allclose(got.betas, ref_b, rtol=1e-9, atol=1e-13)


def test_three_by_three_runs_growth_and_reduction():
    # the oracle's smallest mesh is there for the fallback paths: corner
    # stencils are too small for a quadratic and grow, and the order-5 top
    # level cannot get a cubic from nine cells and drops a degree
    mesh, avg = _case("three_by_three")
    warn = weno_reconstruct(mesh, avg, order=5).warnings
    assert warn and all("top-level fit reduced to degree 2" in w for w in warn)
    assert weno_reconstruct(mesh, avg, order=3).warnings == []
    rows = len(stencil_levels(mesh, 0, 3)[1]) - 1
    assert rows < 5  # fewer rows than quadratic unknowns: growth ran


RING_MESHES = {
    "gresho_n32": lambda: [accuracy_meshes(32)[0]],
    "disk_n4": lambda: [gen_disk_mesh(4)],
    "disk_n16": lambda: [gen_disk_mesh(16)],
    "disk_n16_turned_0.7": lambda: [rotate_mesh(gen_disk_mesh(16), 0.7)],
    "cubic_n16": lambda: list(accuracy_meshes(16, degree=3)),
    "two_by_two_degree1": lambda: [gen_deformed_square_mesh(2, "identity",
                                                            degree=1)],
    "three_by_three": lambda: [_case("three_by_three")[0]],
}


def _rows(table, n):
    """The cells of each of the first n rows of a padded table."""
    return [[j for j in row if j < n] for row in table[:n].tolist()]


@pytest.mark.parametrize("name", RING_MESHES)
def test_ring_tables_equal_the_per_cell_stencils(name):
    for mesh in RING_MESHES[name]():
        C = mesh.n_cells
        one, two = _rings(mesh, 5)
        [one3] = _rings(mesh, 3)
        assert one3.tobytes() == one.tobytes()
        for table in (one, two):
            # sorted rows put the padding last; row C is all padding
            assert np.all(np.diff(table, axis=1) >= 0)
            assert table[C].tolist() == [C] * table.shape[1]
            assert table.shape[1] == max(len(r) for r in _rows(table, C))
        levels = [stencil_levels(mesh, i, 5) for i in range(C)]
        assert _rows(one, C) == [lv[1] for lv in levels]
        assert _rows(two, C) == [lv[2] for lv in levels]
        for i in (0, C // 2, C - 1):
            assert build_stencil(mesh, i, 5) == levels[i]
        # a stencil grows by a ring as the per-cell sets grow it
        adj = mesh.adjacency
        assert _rows(_grow(one, two[:C]), C) == [
            sorted(one_ring(adj, set(lv[2]))) for lv in levels]


def test_moments_do_not_depend_on_the_block_size(monkeypatch):
    mesh = accuracy_meshes(8)[0]
    geo = _geometry(mesh, 6)
    two = _rings(mesh, 5)[1][:mesh.n_cells]
    i, at = np.nonzero(two < mesh.n_cells)
    j = two[i, at]
    got = {}
    for block in (1, 128, len(j)):
        monkeypatch.setattr(reconstruct, "_PAIRS_PER_BLOCK", block)
        got[block] = [_moments(geo, j, i, q).tobytes() for q in (2, 4, 6)]
    assert got[1] == got[128] == got[len(j)]
