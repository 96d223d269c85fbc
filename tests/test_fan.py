"""The fan rule of Approach B (`integrate.triangulate`) and its splits.

Each clipped loop gets one curved triangle per span from its area
centroid. Its samples integrate degree-k polynomials exactly whether or
not the fan is certified; a certified fan has positive weights and points
inside the loop. A loop whose own fan is not certified is cut in halves by
the exact clipper until every piece's fan is, which
`RemapPlan.split_loops` counts.
"""

import importlib
import math

import numpy as np
import pytest

from curveremap import integrate
from curveremap.clipping import wa_clip
from curveremap.experiments import _centroid, accuracy_meshes, cylinder_field
from curveremap.geometry import CurvedPolygon, CurveSpan, ParamCurve
from curveremap.integrate import _fans, _halves, triangulate
from curveremap.mesh import exact_cell_averages, gen_disk_mesh, rotate_mesh
from curveremap.remap import _a_samples, _loop_integrals, apply_plan, \
    build_plan

# the package attribute curveremap.remap is the function
remap_module = importlib.import_module("curveremap.remap")


def _cells(name, degree):
    if name == "disk":
        meshes = [gen_disk_mesh(4, degree=degree)]
    else:
        meshes = accuracy_meshes(4, degree=degree)
    return [m.cell_polygon(i) for m in meshes for i in range(m.n_cells)]


def _plan_loops(plan):
    return [(pg.src, ct, lp) for ct, per in enumerate(plan.per_target)
            for pg in per for lp in pg.loops]


@pytest.mark.parametrize("name,degree", [("disk", 1), ("disk", 2),
                                         ("disk", 3), ("accuracy", 4),
                                         ("accuracy", 5)])
@pytest.mark.parametrize("k", [0, 2, 4])
def test_fan_integrates_monomials_as_approach_a(name, degree, k):
    # every X^a Y^b, a + b <= k, in each cell's frame (its box centre and
    # half diagonal), by Approach A's contour samples and by the fan,
    # which needs no triangle map and so serves degrees 4 and 5
    polys = _cells(name, degree)
    fans = triangulate(polys, k)
    assert all(len(pieces) == 1 for _, _, pieces in fans)
    boxes = [p.bbox() for p in polys]
    frames = np.array([[0.5 * (b.xmin + b.xmax), 0.5 * (b.ymin + b.ymax),
                        0.5 * b.diag] for b in boxes])
    cells = np.arange(len(polys))
    a_cols = [np.concatenate(c) for c in zip(*_a_samples(polys, k))]
    a_counts = np.array([len(x) for x, _, _ in _a_samples(polys, k)])
    b_counts = np.array([len(w) for _, w, _ in fans])
    bx, by = np.vstack([p for p, _, _ in fans]).T
    bw = np.concatenate([w for _, w, _ in fans])
    area = np.array([p.signed_area() for p in polys])
    for a in range(k + 1):
        for b in range(k + 1 - a):
            coeffs = np.zeros((len(polys), k + 1, k + 1))
            coeffs[:, a, b] = 1.0
            anti = np.zeros((len(polys), k + 2, k + 1))
            anti[:, 1:] = (frames[:, 2, None, None] * coeffs
                           / np.arange(1, k + 2)[None, :, None])
            va = _loop_integrals(anti, frames, [(cells, a_counts, *a_cols)])
            vb = _loop_integrals(coeffs, frames,
                                 [(cells, b_counts, bx, by, bw)])
            # |X|, |Y| <= 1 on the cell: relative to its largest integral
            assert np.all(np.abs(va - vb) <= 1e-14 * area), (a, b)


@pytest.mark.parametrize("case", ["rotation_n8", "cubic_n8"])
def test_certified_fans_have_positive_weights_and_inner_points(case):
    if case == "rotation_n8":
        base = gen_disk_mesh(8)
        src, tgt, split = base, rotate_mesh(base, math.pi / 4.0), 0
    else:
        (src, tgt), split = accuracy_meshes(8, degree=3), 7
    plan = build_plan(src, tgt, k_max=2)
    loops = _plan_loops(plan)
    fans = triangulate([lp.poly for _, _, lp in loops], 2)
    assert len(fans) == len(loops)
    assert sum(len(pieces) > 1 for _, _, pieces in fans) == split
    for (ci, ct, lp), (pts, jw, pieces) in zip(loops, fans):
        assert np.all(jw > 0.0), (ci, ct)
        # the contour area sums x dy - y dx at coordinates of size up to 1,
        # so both areas carry round-off of that size, not of the loop's;
        # the cut segments of a split loop add their own
        assert abs(jw.sum() - lp.area) <= 1e-15 * len(pieces), (ci, ct)
        for x, y in pts.tolist():
            assert lp.poly.locate(x, y) != "outside", (ci, ct, x, y)
    # the plan with triangles counts the same split loops and reports them
    plan = build_plan(src, tgt, k_max=2, with_tris=True)
    assert plan.split_loops == split
    rep = apply_plan(plan, np.ones(src.n_cells), order=1, approach="B")
    assert f"split_loops={split}\n" in rep.to_text()


def test_crescent_fan_is_declined():
    # source cell 27 vs target cell 35 of the cubic n=8 pair clips to a
    # crescent: its centroid lies outside it, so no fan from there tiles it
    src, tgt = accuracy_meshes(8, degree=3)
    plan = build_plan(src, tgt, k_max=2)
    [lp] = [lp for ci, ct, lp in _plan_loops(plan) if (ci, ct) == (27, 35)]
    assert lp.poly.locate(*_centroid(lp.poly)) == "outside"
    assert _fans([lp.poly], 2) == [None]
    [(_, jw, pieces)] = triangulate([lp.poly], 2)
    assert 1 < len(pieces) <= 5
    assert abs(jw.sum() - lp.area) <= 1e-15 * len(pieces)


def test_small_loop_far_from_the_origin_is_fanned_whole():
    # source cell 211 vs target cell 177 of accuracy_meshes(32) clips to a
    # loop of area 9.6e-12 at x = 0.6: moments in absolute coordinates
    # put its apex 6e-7 off, its own width, and the fan was declined
    src, tgt = accuracy_meshes(32)
    [poly] = wa_clip(src.cell_polygon(211), tgt.cell_polygon(177)).loops
    assert 9e-12 < poly.signed_area() < 1e-11
    [fan] = _fans([poly], 2)
    assert fan is not None
    assert np.all(fan[1] > 0.0)
    for x, y in fan[0].tolist():
        assert poly.locate(x, y) != "outside"


def test_halves_drop_a_sliver_piece(monkeypatch):
    # a D whose bulge reaches 5e-9 past the middle of its hull box: the
    # cut leaves a cap of area 2.4e-13 beyond it, below 1e-12 of the D
    d = CurvedPolygon([CurveSpan(ParamCurve([(0, 0), (1, 0.5), (0, 1)])),
                       CurveSpan(ParamCurve([(0, 1), (-5e-9, 0.5), (0, 0)]))])
    traced = []

    def spy(subject, clip):
        res = wa_clip(subject, clip)
        traced.extend(res.loops)
        return res

    monkeypatch.setattr(integrate, "wa_clip", spy)
    [piece] = _halves(d)
    assert len(traced) == 2 and piece in traced
    [cap] = [lp for lp in traced if lp is not piece]
    assert 0.0 < cap.signed_area() <= 1e-12 * d.signed_area()
    assert abs(piece.signed_area() + cap.signed_area()
               - d.signed_area()) <= 1e-15


def test_one_triangulate_call_per_plan_with_triangles(monkeypatch):
    # the benchmark times remap.triangulate as the triangulation layer
    calls = []

    def counted(polys, k_max):
        calls.append(len(polys))
        return triangulate(polys, k_max)

    monkeypatch.setattr(remap_module, "triangulate", counted)
    base = gen_disk_mesh(4)
    tgt = rotate_mesh(base, 0.3)
    build_plan(base, tgt, k_max=2)
    assert calls == []
    plan = build_plan(base, tgt, k_max=2, with_tris=True)
    assert calls == [len(_plan_loops(plan))]


@pytest.mark.parametrize("degree", [3, 4, 5])
def test_plans_with_triangles_keep_a_constant_at_edge_degree(degree):
    # the split needs no triangle map, so every edge degree plans
    src, tgt = accuracy_meshes(8, degree=degree)
    plan = build_plan(src, tgt, k_max=2, with_tris=True)
    assert plan.split_loops > 0
    rep = apply_plan(plan, np.full(src.n_cells, 2.5), order=3,
                     approach="both")
    assert np.abs(rep.field.averages - 2.5).max() <= 1e-12
    assert rep.max_ab_gap <= 1e-14


def test_order5_limiter_keeps_the_cubic_cylinder_positive():
    # k_max 4 on cubic edges, which the triangle rules could not reach
    src, tgt = accuracy_meshes(8, degree=3)
    f = exact_cell_averages(src, cylinder_field, strict=False, max_levels=5)
    plan = build_plan(src, tgt, k_max=4, with_tris=True)
    rep = apply_plan(plan, f.averages, order=5, positivity=True,
                     approach="both")
    assert rep.min_average > 0.0
    assert rep.e_cons <= 1e-15 * float(np.abs(f.averages) @ src.cell_areas())
