"""The package's WENO reconstruction against the per-cell reference.

`reference_reconstruct` fits, weighs and blends one cell at a time. The
package must give the same polynomials: to 1e-14 on cells whose stencils
are complete, and to 1e-12 everywhere, both relative to the field's size
and measured at points off the centroid. Boundary cells with truncated
stencils solve nearly square systems, where two LAPACK least-squares
drivers differ in the last digits more than elsewhere. The reduced-fit
warnings must be identical.
"""

import numpy as np
import pytest

from curveremap.experiments import (accuracy_meshes, composite_disk_field,
                                    cylinder_field, sin_field)
from curveremap.mesh import (exact_cell_averages, gen_deformed_square_mesh,
                             gen_disk_mesh)
from curveremap.reconstruct import weno_reconstruct

from reference_integrate import Poly2
from reference_reconstruct import reference_reconstruct, stencil_levels

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
