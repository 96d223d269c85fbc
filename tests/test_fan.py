"""The fan rule of Approach B (`integrate.triangulate`) and its fallback.

Each clipped loop gets one curved triangle per span from its area
centroid. Its samples integrate degree-k polynomials exactly whether or
not the fan is certified; a certified fan has positive weights and points
inside the loop, and a loop whose fan is not certified goes to the ear
clipper, which `RemapPlan.ear_clipped` counts.
"""

import importlib
import math

import numpy as np
import pytest

from curveremap.experiments import _centroid, accuracy_meshes
from curveremap.integrate import IntegrationError, triangulate
from curveremap.mesh import gen_disk_mesh, rotate_mesh
from curveremap.remap import _a_samples, _loop_integrals, apply_plan, \
    build_plan

# the package attribute curveremap.remap is the function
remap_module = importlib.import_module("curveremap.remap")
integrate_module = importlib.import_module("curveremap.integrate")


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
    assert all(f is not None for f in fans)
    boxes = [p.bbox() for p in polys]
    frames = np.array([[0.5 * (b.xmin + b.xmax), 0.5 * (b.ymin + b.ymax),
                        0.5 * b.diag] for b in boxes])
    cells = np.arange(len(polys))
    a_cols = [np.concatenate(c) for c in zip(*_a_samples(polys, k))]
    a_counts = np.array([len(x) for x, _, _ in _a_samples(polys, k)])
    b_counts = np.array([len(w) for _, w in fans])
    bx, by = np.vstack([p for p, _ in fans]).T
    bw = np.concatenate([w for _, w in fans])
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
        src, tgt, clipped = base, rotate_mesh(base, math.pi / 4.0), 0
    else:
        (src, tgt), clipped = accuracy_meshes(8, degree=3), 7
    plan = build_plan(src, tgt, k_max=2)
    loops = _plan_loops(plan)
    fans = triangulate([lp.poly for _, _, lp in loops], 2)
    assert sum(f is None for f in fans) == clipped
    for (ci, ct, lp), fan in zip(loops, fans):
        if fan is None:
            continue
        pts, jw = fan
        assert np.all(jw > 0.0), (ci, ct)
        # the contour area sums x dy - y dx at coordinates of size up to 1,
        # so both areas carry round-off of that size, not of the loop's
        assert abs(jw.sum() - lp.area) <= 1e-15, (ci, ct)
        for x, y in pts.tolist():
            assert lp.poly.locate(x, y) != "outside", (ci, ct, x, y)
    # the plan with triangles counts the same declined loops and reports
    # them
    plan = build_plan(src, tgt, k_max=2, with_tris=True)
    assert plan.ear_clipped == clipped
    rep = apply_plan(plan, np.ones(src.n_cells), order=1, approach="B")
    assert f"ear_clipped_loops={clipped}\n" in rep.to_text()


def test_crescent_fan_is_declined():
    # source cell 27 vs target cell 35 of the cubic n=8 pair clips to a
    # crescent: its centroid lies outside it, so no fan from there tiles it
    src, tgt = accuracy_meshes(8, degree=3)
    plan = build_plan(src, tgt, k_max=2)
    [lp] = [lp for ci, ct, lp in _plan_loops(plan) if (ci, ct) == (27, 35)]
    assert lp.poly.locate(*_centroid(lp.poly)) == "outside"
    assert triangulate([lp.poly], 2) == [None]


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


def test_ear_clip_fails_fast_on_a_degree_it_cannot_map(monkeypatch):
    # the fan serves degree 4 but declines the thin loop of source cell
    # 20 vs target cell 19; the ear clipper raises its triangle map's own
    # error before any pass
    def no_pass(pieces, scale):
        raise AssertionError("ear pass called")

    monkeypatch.setattr(integrate_module, "_ear_pass", no_pass)
    with pytest.raises(IntegrationError) as info:
        build_plan(*accuracy_meshes(8, degree=4), k_max=2, with_tris=True)
    msg = str(info.value)
    assert "source cell 20 vs target cell 19" in msg
    assert "degree <= 3, not 4" in msg
    assert type(info.value.__cause__) is IntegrationError
