"""apply_plan on the plan's sample tables against the gathered sweep.

The plan holds its Approach A and Approach B samples in one table each,
loop by loop in `per_target`'s order, and every `_LoopGeom` array is a view
of its table. `apply_plan` walks slices of whole loops of the tables;
`reference_apply.py` keeps the sweep that gathered the loops' own arrays
64 loops at a time. The reports must agree bit for bit, whatever the
slices.
"""

import importlib
import math

import numpy as np
import pytest

from curveremap.experiments import (accuracy_meshes, composite_disk_field,
                                    cylinder_field, sin_field)
from curveremap.limiter import positivity_limit
from curveremap.mesh import (CurvilinearMesh, exact_cell_averages,
                             gen_disk_mesh, rotate_mesh)
from curveremap.reconstruct import weno_reconstruct

from reference_apply import reference_apply

# the package attribute curveremap.remap is the function
remap = importlib.import_module("curveremap.remap")


def _disjoint():
    src, _ = accuracy_meshes(4)
    tgt = CurvilinearMesh(src.points + np.array([5.0, 0.0]), src.edges,
                          src.cell_edges, src.cell_dirs)
    return remap.build_plan(src, tgt, k_max=4, with_tris=True), \
        np.full(src.n_cells, 2.5)


def _case(name):
    """(plan, source averages, apply_plan settings) of a case."""
    if name == "accuracy_n8":
        src, tgt = accuracy_meshes(8)
        avg = exact_cell_averages(src, sin_field).averages
        return (remap.build_plan(src, tgt, k_max=4), avg,
                [dict(order=o) for o in (1, 3, 5)])
    if name == "disk_n8_pi4":
        src = gen_disk_mesh(8)
        avg = exact_cell_averages(src, composite_disk_field, strict=False,
                                  max_levels=3).averages
        plan = remap.build_plan(src, rotate_mesh(src, math.pi / 4.0),
                                k_max=2, with_tris=True)
        return plan, avg, [dict(order=3, positivity=True)]
    if name == "cubic_n16":
        src, tgt = accuracy_meshes(16, degree=3)
        avg = exact_cell_averages(src, cylinder_field, strict=False,
                                  max_levels=3).averages
        plan = remap.build_plan(src, tgt, k_max=2, with_tris=True)
        return plan, avg, [dict(order=3, positivity=True, approach="both")]
    plan, avg = _disjoint()
    return plan, avg, [dict(order=5, positivity=True, approach="both")]


@pytest.fixture(scope="module",
                params=["accuracy_n8", "disk_n8_pi4", "cubic_n16", "disjoint"])
def case(request):
    return request.param, *_case(request.param)


def _fields(rep):
    return ([float.hex(v) for v in rep.field.averages.tolist()], rep.e_cons,
            rep.min_average, rep.max_ab_gap, rep.warnings)


def test_apply_matches_the_gathered_sweep(case):
    name, plan, avg, settings = case
    for kw in settings:
        out, e_cons, low, gap, warnings = reference_apply(plan, avg, **kw)
        want = ([float.hex(v) for v in out.tolist()], e_cons, low, gap,
                warnings)
        assert _fields(remap.apply_plan(plan, avg, **kw)) == want, (name, kw)


def test_the_cases_reach_the_limiter_and_the_split_loops(case):
    name, plan, avg, settings = case
    assert plan.split_loops == (3 if name == "cubic_n16" else 0)
    if name in ("disk_n8_pi4", "cubic_n16"):
        recon = weno_reconstruct(plan.source, avg, order=3)
        limited = positivity_limit(
            recon.coeffs, recon.frames, avg,
            (sl[:4] for sl in remap._slices(plan.b_samples, plan.loop_src)))
        assert limited is not recon.coeffs


def test_loop_arrays_are_views_of_the_tables(case):
    _, plan, _, _ = case
    loops = [(ct, pg.src, lp) for ct, per in enumerate(plan.per_target)
             for pg in per for lp in pg.loops]
    assert plan.loop_tgt.tolist() == [ct for ct, _, _ in loops]
    assert plan.loop_src.tolist() == [s for _, s, _ in loops]
    assert plan.loop_area.tolist() == [lp.area for _, _, lp in loops]
    tables = [plan.a_samples] + ([plan.b_samples] if plan.with_tris else [])
    for table in tables:
        assert len(table) == len(loops)
        assert table.cut[0] == 0 and table.cut[-1] == len(table.pts)
        assert len(table.w) == len(table.pts)
    a, b = plan.a_samples, plan.b_samples
    for i, (_, _, lp) in enumerate(loops):
        rows = slice(a.cut[i], a.cut[i + 1])
        for got, col in ((lp.ax, a.pts[rows, 0]), (lp.ay, a.pts[rows, 1]),
                         (lp.awdy, a.w[rows])):
            assert got.base is not None and np.shares_memory(got, col)
            assert got.tobytes() == col.tobytes()
        if plan.with_tris:
            rows = slice(b.cut[i], b.cut[i + 1])
            assert np.shares_memory(lp.bpts, b.pts[rows])
            assert lp.bpts.tobytes() == b.pts[rows].tobytes()
            assert np.shares_memory(lp.bjw, b.w[rows])
            assert lp.bjw.tobytes() == b.w[rows].tobytes()
        else:
            assert lp.bpts is None and lp.bjw is None


def test_one_loop_per_slice_gives_the_same_bits(case, monkeypatch):
    _, plan, avg, settings = case
    want = [_fields(remap.apply_plan(plan, avg, **kw)) for kw in settings]
    monkeypatch.setattr(remap, "_SWEEP_POINTS", 1)
    slices = list(remap._slices(plan.a_samples, plan.loop_src))
    assert len(slices) == len(plan.loop_src)
    assert all(len(cells) == 1 for cells, *_ in slices)
    assert [_fields(remap.apply_plan(plan, avg, **kw))
            for kw in settings] == want


def test_slices_cut_at_the_first_loop_after_each_multiple(monkeypatch):
    table = remap.SampleTable(np.zeros((10, 2)), np.arange(10.0),
                              np.array([0, 3, 4, 8, 10]))
    cells = np.array([7, 8, 9, 6])
    monkeypatch.setattr(remap, "_SWEEP_POINTS", 4)
    got = [(c.tolist(), n.tolist(), w.tolist())
           for c, n, _, _, w in remap._slices(table, cells)]
    # the loops start at rows 0, 3, 4 and 8: multiples 0, 4 and 8 of 4
    # start loops 0, 2 and 3
    assert got == [([7, 8], [3, 1], [0.0, 1.0, 2.0, 3.0]),
                   ([9], [4], [4.0, 5.0, 6.0, 7.0]),
                   ([6], [2], [8.0, 9.0])]
