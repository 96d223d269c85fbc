import gc
import math
import weakref

import numpy as np
import pytest

from curveremap.clipping import wa_clip
from curveremap.integrate import TriangulationError, triangulate
from curveremap.mesh import (CurvilinearMesh, Field, exact_cell_averages,
                             gen_deformed_square_mesh)
from curveremap.remap import (RemapRequest, _a_samples, _loop_integrals,
                              apply_plan, build_plan, candidate_pairs, remap)
from curveremap.experiments import sin_field, cone_field

from conftest import polygon_windows
from reference_integrate import Poly2


def test_identity_self_remap_reproduces_field():
    m = gen_deformed_square_mesh(4, "identity", degree=2)
    f = exact_cell_averages(m, sin_field)
    for order in (1, 3, 5):
        rep = remap(RemapRequest(m, f, m, order=order))
        assert np.abs(rep.field.averages - f.averages).max() <= 1e-12
        assert rep.e_cons <= 1e-13 * abs(f.averages @ m.cell_areas())
    assert rep.e_area_c <= 1e-12


def test_deformed_self_remap():
    m = gen_deformed_square_mesh(5, "gresho_like", 0.4, 2)
    f = exact_cell_averages(m, sin_field)
    rep = remap(RemapRequest(m, f, m, order=3))
    assert np.abs(rep.field.averages - f.averages).max() <= 1e-12


def test_constant_preservation_any_order():
    src = gen_deformed_square_mesh(6, "gresho_like", 0.45, 2, roughen=0.1)
    tgt = gen_deformed_square_mesh(6, "taylor_green_like", 0.05, 2, roughen=0.1)
    fc = Field(np.full(src.n_cells, 2.5), src)
    for order in (1, 3, 5):
        rep = remap(RemapRequest(src, fc, tgt, order=order))
        assert np.abs(rep.field.averages - 2.5).max() <= 1e-12


def test_candidate_pairs_identity_contains_self():
    m = gen_deformed_square_mesh(4, "identity", degree=2)
    pairs = set(candidate_pairs(m, m))
    for i in range(m.n_cells):
        assert (i, i) in pairs


def test_candidate_pairs_disjoint_domains_empty():
    a = gen_deformed_square_mesh(3, "identity", degree=2)
    shifted = CurvilinearMesh(a.points + np.array([10.0, 0.0]), a.edges,
                              a.cell_edges, a.cell_dirs)
    assert candidate_pairs(a, shifted) == []


def test_candidate_pairs_superset_of_true_overlaps():
    src = gen_deformed_square_mesh(8, "gresho_like", 0.35, 2, roughen=0.12)
    tgt = gen_deformed_square_mesh(8, "taylor_green_like", 0.04, 2, roughen=0.12)
    cands = set(candidate_pairs(src, tgt))
    drop = 1e-14 * min(src.cell_areas().min(), tgt.cell_areas().min())
    for i in range(src.n_cells):
        for t in range(tgt.n_cells):
            res = wa_clip(src.cell_polygon(i), tgt.cell_polygon(t))
            if res.total_area > drop:
                assert (i, t) in cands, (i, t)


def test_conservation_and_partition_small_pair():
    src = gen_deformed_square_mesh(6, "gresho_like", 0.35, 2, roughen=0.12)
    tgt = gen_deformed_square_mesh(6, "taylor_green_like", 0.04, 2, roughen=0.12)
    f = exact_cell_averages(src, sin_field)
    for order in (1, 3, 5):
        rep = remap(RemapRequest(src, f, tgt, order=order))
        total = abs(f.averages @ src.cell_areas())
        assert rep.e_cons <= 1e-12 * total
        assert rep.e_area_c <= 1e-10


def test_approach_cross_check_mode():
    src = gen_deformed_square_mesh(4, "gresho_like", 0.3, 2)
    tgt = gen_deformed_square_mesh(4, "taylor_green_like", 0.04, 2)
    f = exact_cell_averages(src, sin_field)
    rep = remap(RemapRequest(src, f, tgt, order=3, approach="both"))
    assert rep.max_ab_gap <= 1e-11
    rep_b = remap(RemapRequest(src, f, tgt, order=3, approach="B"))
    rep_a = remap(RemapRequest(src, f, tgt, order=3, approach="A"))
    assert np.abs(rep_a.field.averages - rep_b.field.averages).max() <= 1e-10


def test_per_intersection_ab_agreement_monomials():
    src = gen_deformed_square_mesh(5, "gresho_like", 0.35, 2, roughen=0.1)
    tgt = gen_deformed_square_mesh(5, "taylor_green_like", 0.04, 2, roughen=0.1)
    plan = build_plan(src, tgt, k_max=4, with_tris=True)
    worst = 0.0
    for per in plan.per_target:
        for pg in per:
            for lp in pg.loops:
                for (a, b) in ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1),
                               (0, 2), (2, 1), (2, 2), (4, 0), (0, 4)):
                    f = Poly2.monomial(a, b)
                    f2 = f.antideriv_x()
                    va = float(np.dot(f2.eval(lp.ax, lp.ay), lp.awdy))
                    vb = float(np.dot(f.eval(lp.bpts[:, 0], lp.bpts[:, 1]),
                                      lp.bjw))
                    worst = max(worst, abs(va - vb) / max(1.0, abs(va)))
    assert worst <= 1e-11


def test_plan_kernels_integrate_monomials_exactly(unit_square):
    # Approach A (_a_samples, then _loop_integrals of the x-antiderivative)
    # and Approach B (triangulate, then _loop_integrals) integrate each
    # X^a Y^b, a + b <= 4, in the frame (cx, cy, h) = (0.5, 0.5, 0.5) over
    # the unit square, where X = 2x - 1 and Y = 2y - 1 span [-1, 1]
    frames = np.array([[0.5, 0.5, 0.5]])
    a_table = _a_samples(*polygon_windows([unit_square]), 4)
    (ax, ay), awdy = a_table.pts.T, a_table.w
    [(bp, bw, _)] = triangulate([unit_square], 4)
    bx, by = bp.T
    cell = np.array([0])
    for a in range(5):
        for b in range(5 - a):
            coeffs = np.zeros((1, 5, 5))
            coeffs[0, a, b] = 1.0
            anti = np.zeros((1, 6, 5))
            anti[0, a + 1, b] = 0.5 / (a + 1)  # h X^(a+1) / (a+1)
            [va] = _loop_integrals(anti, frames, [(cell, np.array([len(ax)]),
                                                   ax, ay, awdy)])
            [vb] = _loop_integrals(coeffs, frames, [(cell, np.array([len(bx)]),
                                                     bx, by, bw)])
            exact = ((1 + (-1) ** a) / (2 * (a + 1))
                     * (1 + (-1) ** b) / (2 * (b + 1)))
            assert abs(va - exact) <= 1e-14, (a, b, va, exact)
            assert abs(vb - exact) <= 1e-14, (a, b, vb, exact)


def test_positivity_limited_remap_floor():
    src = gen_deformed_square_mesh(8, "gresho_like", 0.35, 2, roughen=0.12)
    tgt = gen_deformed_square_mesh(8, "taylor_green_like", 0.04, 2, roughen=0.12)
    f = exact_cell_averages(src, cone_field, strict=False, max_levels=4)
    rep = remap(RemapRequest(src, f, tgt, order=3, positivity=True))
    assert rep.min_average >= 1e-14 * (1 - 1e-3)
    total = abs(f.averages @ src.cell_areas())
    assert rep.e_cons <= 1e-12 * total


def test_positivity_with_negative_field_warns_and_skips():
    src = gen_deformed_square_mesh(4, "identity", degree=2)
    tgt = gen_deformed_square_mesh(4, "taylor_green_like", 0.03, 2)
    avg = np.linspace(-1.0, 1.0, src.n_cells)
    rep = remap(RemapRequest(src, Field(avg, src), tgt, order=3,
                             positivity=True))
    assert any("limiter skipped" in w for w in rep.warnings)


def test_report_serialization():
    src = gen_deformed_square_mesh(3, "identity", degree=2)
    f = exact_cell_averages(src, sin_field)
    rep = remap(RemapRequest(src, f, src, order=1))
    text = rep.to_text()
    assert "e_cons=" in text and "min_average=" in text


def test_plan_rejects_mismatched_orders():
    src = gen_deformed_square_mesh(3, "identity", degree=2)
    plan = build_plan(src, src, k_max=0)
    f = exact_cell_averages(src, sin_field)
    with pytest.raises(ValueError):
        apply_plan(plan, f.averages, order=5)
    with pytest.raises(ValueError):
        apply_plan(plan, f.averages, order=1, approach="B")


def test_unknown_order_is_a_value_error():
    src = gen_deformed_square_mesh(3, "identity", degree=2)
    plan = build_plan(src, src, k_max=4)
    avg = np.ones(src.n_cells)
    for order in (2, 4):
        with pytest.raises(ValueError, match="order must be 1, 3 or 5"):
            apply_plan(plan, avg, order=order)
        with pytest.raises(ValueError, match="order must be 1, 3 or 5"):
            remap(RemapRequest(src, avg, src, order=order))


@pytest.mark.parametrize("kwargs, n_avg, match", [
    ({"approach": "C"}, 9, "approach must be one of"),
    ({"approach": "B"}, 9, "plan was built without triangulations"),
    ({"approach": "both"}, 9, "plan was built without triangulations"),
    ({"order": 5}, 9, r"plan was built for degree <= 2"),
    ({}, 8, "field length does not match the source mesh"),
    ({"positivity": True}, 9,
     "positivity limiting needs a plan with triangulations"),
], ids=["approach", "B", "both", "order", "length", "positivity"])
def test_apply_plan_checks_its_arguments_before_reconstructing(
        kwargs, n_avg, match, monkeypatch):
    import importlib
    remap_module = importlib.import_module("curveremap.remap")
    src = gen_deformed_square_mesh(3, "identity", degree=2)
    plan = build_plan(src, src, k_max=2)
    calls = []
    monkeypatch.setattr(remap_module, "weno_reconstruct",
                        lambda *args: calls.append(args))
    with pytest.raises(ValueError, match=match):
        apply_plan(plan, np.ones(n_avg), **kwargs)
    assert calls == []


def test_degree3_mesh_remap_end_to_end():
    src = gen_deformed_square_mesh(4, "gresho_like", 0.3, degree=3)
    tgt = gen_deformed_square_mesh(4, "taylor_green_like", 0.04, degree=3)
    f = exact_cell_averages(src, sin_field)
    rep = remap(RemapRequest(src, f, tgt, order=3, approach="both",
                             positivity=True))
    total = abs(f.averages @ src.cell_areas())
    assert rep.e_cons <= 1e-12 * total
    assert rep.e_area_c <= 1e-10
    assert rep.max_ab_gap <= 1e-11
    assert rep.min_average >= 1e-14


def test_apply_leaves_no_reference_cycle_on_the_source_mesh():
    # with the cyclic collector off, the source mesh must be freed as soon
    # as the plan and report are dropped: reconstruction keeps no state
    # that points back at it
    src = gen_deformed_square_mesh(4, "gresho_like", 0.3, 2)
    tgt = gen_deformed_square_mesh(4, "taylor_green_like", 0.04, 2)
    avg = exact_cell_averages(src, sin_field).averages
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        ref = weakref.ref(src)
        rep = apply_plan(build_plan(src, tgt), avg, order=5)
        del src, rep
        assert ref() is None
    finally:
        if was_enabled:
            gc.enable()


def test_reduced_fits_are_counted_beyond_the_four_listed():
    # every cell of a 3x3 mesh drops its order-5 top level a degree; the
    # report lists four of them and counts all nine
    m = gen_deformed_square_mesh(3, "identity", degree=2)
    f = exact_cell_averages(m, sin_field)
    rep = remap(RemapRequest(m, f, m, order=5))
    recon = [w for w in rep.warnings if w.startswith("reconstruct: ")]
    assert len(recon) == 5
    assert all("reduced to degree" in w for w in recon[:4])
    assert recon[4] == "reconstruct: 9 reduced fits"


def test_plan_failure_names_the_cell_pair(monkeypatch):
    import importlib
    from curveremap import ClipTopologyError, GeometryError
    # the package attribute curveremap.remap is the function
    remap_module = importlib.import_module("curveremap.remap")
    m = gen_deformed_square_mesh(2, "identity", degree=2)
    for error in (GeometryError, ClipTopologyError):
        def fail(subject, clip, raw=None, error=error):
            raise error("no label")

        monkeypatch.setattr(remap_module, "wa_clip", fail)
        with pytest.raises(error, match=r"source cell \d+ vs target cell "
                                        r"\d+: no label") as info:
            build_plan(m, m, k_max=2)
        assert type(info.value) is error
        assert isinstance(info.value.__cause__, error)
        assert str(info.value.__cause__) == "no label"


def test_plan_refuses_a_clockwise_loop_and_names_the_cell_pair(monkeypatch):
    import dataclasses
    import importlib
    from curveremap import ClipTopologyError
    remap_module = importlib.import_module("curveremap.remap")
    m = gen_deformed_square_mesh(2, "identity", degree=2)
    clip_table = remap_module.clip_table

    def clockwise(*args):
        # the plan's first loop, cell 0 in itself, walked backwards: its
        # windows in reverse order, each from its end to its start
        table = clip_table(*args)
        lo, hi = table.win_cut[:2]
        at = np.r_[hi - 1:lo - 1:-1, hi:len(table.side)]
        return dataclasses.replace(table, side=table.side[at],
                                   span=table.span[at], t0=table.t1[at],
                                   t1=table.t0[at])

    monkeypatch.setattr(remap_module, "clip_table", clockwise)
    with pytest.raises(ClipTopologyError,
                       match=r"^clipping failed for source cell 0 vs target "
                             r"cell 0: negative-area loop") as info:
        build_plan(m, m, k_max=2)
    assert type(info.value.__cause__) is ClipTopologyError
    assert str(info.value.__cause__).startswith("negative-area loop")


@pytest.mark.parametrize("degrees", [(1, 1), (2, 1)])
def test_straight_edged_plan_shares_every_crossing(degrees, monkeypatch):
    # each cell pair that meets a (source edge, target edge) pair must cut
    # it at the same floats, or neighbouring pieces leave gaps
    import importlib
    remap_module = importlib.import_module("curveremap.remap")
    src = gen_deformed_square_mesh(8, "gresho_like", 0.3, degrees[0],
                                   roughen=0.1)
    tgt = gen_deformed_square_mesh(8, "taylor_green_like", 0.04, degrees[1],
                                   roughen=0.1)
    calls = []
    clip_table = remap_module.clip_table

    def spy(rows, subjects, clips):
        calls.append((rows, subjects.polys, clips.polys))
        return clip_table(rows, subjects, clips)

    monkeypatch.setattr(remap_module, "clip_table", spy)
    plan = build_plan(src, tgt, k_max=2)
    [(rows, subjects, clips)] = calls
    cell_s = {id(src.cell_polygon(i)): i for i in range(src.n_cells)}
    cell_t = {id(tgt.cell_polygon(i)): i for i in range(tgt.n_cells)}
    seen = {}
    for p, (subject, clip) in enumerate(zip(subjects, clips)):
        ci, ct = cell_s[id(subject)], cell_t[id(clip)]
        per_edges = {}
        mine = rows.pair == p
        for ks, kc, point, transversal in zip(
                rows.ks[mine].tolist(), rows.kc[mine].tolist(),
                map(tuple, rows.point[mine].tolist()),
                rows.transversal[mine].tolist()):
            key = (src.cell_edges[ci, ks], tgt.cell_edges[ct, kc])
            per_edges.setdefault(key, []).append((point, transversal))
        for key, found in per_edges.items():
            seen.setdefault(key, set()).add(tuple(sorted(found)))
    assert len(seen) > 100
    assert all(len(reports) == 1 for reports in seen.values())
    area_t = tgt.cell_areas()
    cover = np.array([sum(lp.area for pg in per for lp in pg.loops)
                      for per in plan.per_target])
    assert np.max(np.abs(cover - area_t) / area_t) <= 1e-14


@pytest.mark.parametrize("n", (5, 7))
def test_degree3_plans_with_triangles_at_odd_sizes(n):
    # both plans raised GeometryError from a point probe on the straight
    # boundary edge y = 0 (stored as a cubic); see
    # test_span_closest_on_a_straight_boundary_edge_stored_as_a_cubic
    from curveremap.experiments import accuracy_meshes, cylinder_field
    src, tgt = accuracy_meshes(n, degree=3)
    plan = build_plan(src, tgt, k_max=2, with_tris=True)
    area_t = tgt.cell_areas()
    cover = np.array([sum(lp.area for pg in per for lp in pg.loops)
                      for per in plan.per_target])
    assert np.max(np.abs(cover - area_t) / area_t) <= 1e-13
    f = exact_cell_averages(src, cylinder_field, strict=False, max_levels=5)
    rep = apply_plan(plan, f.averages, order=3, positivity=True,
                     approach="both")
    assert rep.e_cons <= 1e-15 * float(np.abs(f.averages) @ src.cell_areas())
    assert rep.max_ab_gap <= 1e-15
    assert rep.min_average > 0.0


def test_triangulation_failure_keeps_its_type_and_names_the_pair(monkeypatch):
    import importlib
    integrate_module = importlib.import_module("curveremap.integrate")
    # no fan is certified, so every loop is cut until the cap
    monkeypatch.setattr(integrate_module, "FAN_MARGIN", 2.0)
    monkeypatch.setattr(integrate_module, "MAX_SPLITS", 2)
    m = gen_deformed_square_mesh(2, "identity", degree=2)
    with pytest.raises(TriangulationError,
                       match=r"source cell 0 vs target cell 0: 4 pieces of "
                             r"the loop have no certified fan after 2 "
                             r"rounds of cuts") as info:
        build_plan(m, m, k_max=2, with_tris=True)
    assert isinstance(info.value.__cause__, TriangulationError)
    assert info.value.__cause__.loop == 0


def test_traced_benchmark_finds_every_name_it_wraps(monkeypatch):
    # the traced benchmark run wraps owner.__dict__[attr] for each target,
    # so a refactor that drops one of these bindings must fail here
    import importlib.util
    import sys
    from pathlib import Path
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    targets = spans._targets()
    assert targets
    for owner, attr, _name, _count in targets:
        assert attr in owner.__dict__, f"{owner.__name__}.{attr}"


def test_limiter_returns_its_coefficients_when_no_cell_is_active():
    # the traced benchmark counts an apply as limiter-active when
    # positivity_limit returns anything but the array it was given
    import importlib
    remap_module = importlib.import_module("curveremap.remap")
    coeffs = np.zeros((2, 2, 1))
    coeffs[:, 0, 0] = 1.0
    coeffs[1, 1, 0] = 4.0  # cell 1 is 1 + 4 X: -1 at X = -1/2
    frames = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])

    def limit(x1):  # one point per cell, cell 1's at X = x1
        chunks = [(np.array([0, 1]), np.array([1, 1]), np.array([0.5, x1]),
                   np.zeros(2))]
        return remap_module.positivity_limit(coeffs, frames, [1.0, 1.0],
                                             chunks)

    assert limit(0.5) is coeffs
    out = limit(-0.5)
    assert out is not coeffs and not np.shares_memory(out, coeffs)
    assert np.array_equal(out[0], coeffs[0])
    assert not np.array_equal(out[1], coeffs[1])


def _sliver_pair(angle):
    # the disk mesh onto a copy turned by a tiny angle: every cell pair
    # along an interior edge clips to a sliver loop
    from curveremap.mesh import gen_disk_mesh, rotate_mesh
    base = gen_disk_mesh(8)
    return base, rotate_mesh(base, angle)


@pytest.mark.xfail(strict=True, raises=TriangulationError,
                   reason="FOUND in CHANGES.md: a sliver loop keeps a piece "
                          "without a certified fan past the split cap, "
                          "integrate.MAX_SPLITS")
def test_sliver_plan_with_triangles():
    src, tgt = _sliver_pair(1e-9)
    try:
        plan = build_plan(src, tgt, k_max=2, with_tris=True)
    except TriangulationError as exc:
        assert "source cell 1 vs target cell 0" in str(exc)
        raise
    rep = apply_plan(plan, np.full(src.n_cells, 2.5), order=3,
                     positivity=True, approach="both")
    assert np.abs(rep.field.averages - 2.5).max() <= 1e-12


def test_sliver_plan_with_triangles_at_1e_3_keeps_a_constant():
    # 72 of the loops are split, most of them 4-span crescents whose
    # centroid lies outside them
    src, tgt = _sliver_pair(1e-3)
    plan = build_plan(src, tgt, k_max=2, with_tris=True)
    assert plan.split_loops > 0
    rep = apply_plan(plan, np.full(src.n_cells, 2.5), order=3,
                     positivity=True, approach="both")
    cover = np.array([sum(lp.area for pg in per for lp in pg.loops)
                      for per in plan.per_target])
    covered = cover > 1e-14 * tgt.cell_areas()
    assert covered.any()
    assert np.abs(rep.field.averages[covered] - 2.5).max() <= 1e-12


@pytest.mark.parametrize("angle", [
    pytest.param(1e-9, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="FOUND in CHANGES.md: the loops of a 1e-9 sliver plan do "
               "not tile the target cells")),
    1e-12])
def test_sliver_plan_without_triangles_keeps_a_constant(angle):
    src, tgt = _sliver_pair(angle)
    plan = build_plan(src, tgt, k_max=2)
    rep = apply_plan(plan, np.full(src.n_cells, 2.5), order=3)
    cover = np.array([sum(lp.area for pg in per for lp in pg.loops)
                      for per in plan.per_target])
    covered = cover > 1e-14 * tgt.cell_areas()
    assert covered.any()
    assert np.abs(rep.field.averages[covered] - 2.5).max() <= 1e-12
