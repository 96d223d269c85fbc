"""The plan's batched passes against the per-element code they replace.

The Newton kernel stops seeds at fixed points and iterates only the moving
ones; `reference_newton.py` keeps the kernel that stepped every seed of a
uniform grid, and the kernel given the grid seeds must return its arrays. The
edge roots are deduplicated in rounds and evaluated in stacked products;
the cell pairs read their crossings from one table, where
`reference_crossings.py` keeps the per-record loop; loop areas, cell areas
and Approach A samples come from one stacked pass per span degree. Every
output must be bitwise the per-element one. Candidate cell pairs come
from array box tests, against a plain all-pairs loop.
"""

import importlib
import math

import numpy as np
import pytest

from curveremap import clipping
from curveremap.clipping import CROSS_TOL, DEDUP_PARAM, _unit_cross
from curveremap.experiments import accuracy_meshes
from curveremap.geometry import CurveSpan, ParamCurve, gauss_rule_01
from curveremap.mesh import (CurvilinearMesh, gen_deformed_square_mesh,
                             gen_disk_mesh, rotate_mesh)

import reference_newton
from reference_crossings import reference_pair_rows
from reference_newton import reference_newton_roots

remap = importlib.import_module("curveremap.remap")


def _mesh_pair(name):
    if name.startswith("straight"):
        ds, dt = map(int, name[-2:])
        return (gen_deformed_square_mesh(8, "gresho_like", 0.3, ds,
                                         roughen=0.1),
                gen_deformed_square_mesh(8, "taylor_green_like", 0.04, dt,
                                         roughen=0.1))
    if name == "accuracy":
        return accuracy_meshes(8)
    if name == "cubic":
        return accuracy_meshes(8, degree=3)
    if name == "disk_chords_pi4":
        # straight chords against arcs: an edge pair's rows are in the
        # order of the arc's parameter, not of the chord's
        return gen_disk_mesh(6, 1), rotate_mesh(gen_disk_mesh(6), math.pi / 4)
    base = gen_disk_mesh(8)
    if name == "identity":
        return base, base
    angle = {"disk_pi4": math.pi / 4.0, "disk_1e-9": 1e-9}[name]
    return base, rotate_mesh(base, angle)


def _cells(src, tgt):
    """The plan's candidate cell pairs as an array (P, 2)."""
    return np.array(remap.candidate_pairs(src, tgt), int).reshape(-1, 2)


_KERNEL_ARGS = {}


def _kernel_args(name, monkeypatch):
    """The span pairs (ca, cb, wa, wb) the plan passes to newton_roots on a
    mesh pair."""
    if name not in _KERNEL_ARGS:
        calls = []
        kernel = clipping.newton_roots
        with monkeypatch.context() as mp:
            mp.setattr(clipping, "newton_roots",
                       lambda *args: calls.append(args[:4]) or kernel(*args))
            src, tgt = _mesh_pair(name)
            remap._edge_crossings(src, tgt, _cells(src, tgt))
        [_KERNEL_ARGS[name]] = calls
    return _KERNEL_ARGS[name]


def _with_grid_seeds(ca, cb, wa, wb):
    """newton_roots' arguments with the reference's grid seeds."""
    seeds = clipping._grid_seeds(np.arange(len(ca)), ca.shape[1] - 1,
                                 cb.shape[1] - 1)
    return ca, cb, wa, wb, *seeds


@pytest.mark.parametrize("lanes", [400_000, 5_000, 37])
@pytest.mark.parametrize("name", ["accuracy", "cubic", "disk_pi4",
                                  "disk_1e-9", "identity"])
def test_newton_roots_equal_the_reference_bitwise(name, lanes, monkeypatch):
    args = _kernel_args(name, monkeypatch)
    monkeypatch.setattr(clipping, "_SEED_LANES", lanes)
    monkeypatch.setattr(reference_newton, "_SEED_LANES", lanes)
    got = clipping.newton_roots(*_with_grid_seeds(*args))
    ref = reference_newton_roots(*args)
    assert len(ref[0]) > 0
    for g, r in zip(got, ref):
        assert g.dtype == r.dtype and g.shape == r.shape
        assert g.tobytes() == r.tobytes()


def test_stopped_unconverged_seeds_keep_their_chunk_running(monkeypatch):
    # Scaled by 100, accuracy edge pair 12 has seeds whose step rounds to
    # zero with a residual above the 1e-15 convergence test; pair 20 has
    # converged seeds that still move in the last ulp. In one chunk the
    # first must keep the second stepping, as the reference does.
    ca, cb, wa, _wb = _kernel_args("accuracy", monkeypatch)
    a = np.stack([ca[20], 100.0 * ca[12]])
    b = np.stack([cb[20], 100.0 * cb[12]])
    got = clipping.newton_roots(*_with_grid_seeds(a, b, wa[:2], wa[:2]))
    ref = reference_newton_roots(a, b, wa[:2], wa[:2])
    assert len(ref[0]) > 0
    for g, r in zip(got, ref):
        assert g.tobytes() == r.tobytes()


def _grid_only(ca, cb, wa, wb):
    """_subdivision_seeds' result if every pair took the grid seeds."""
    pairs = np.arange(len(ca))
    return clipping._grid_seeds(pairs, ca.shape[1] - 1,
                                cb.shape[1] - 1), len(pairs)


def _curve(f, degree):
    """The degree-d curve through f(t) at the d + 1 uniform parameters."""
    return ParamCurve([f(t) for t in np.linspace(0.0, 1.0, degree + 1)])


def _t3(z):
    """The Chebyshev cubic, which sweeps [-1, 1] three times on [-1, 1]."""
    return 4.0 * z ** 3 - 3.0 * z


# constructed span pairs (a, b) and the rows (count, grid-seeded pairs)
# that both seedings must find
_SPAN_PAIRS = {
    # y = p(x) and x = p(y) with p of three monotone branches that each
    # sweep past the unit square: every branch of one crosses every branch
    # of the other
    "cubics_in_9_points": (
        lambda: (CurveSpan(_curve(lambda t: (t, 0.5 + 0.6 * _t3(2 * t - 1)),
                                  3)),
                 CurveSpan(_curve(lambda s: (0.5 + 0.6 * _t3(2 * s - 1), s),
                                  3))),
        (9, 0)),
    "shared_start": (
        lambda: (CurveSpan(_curve(lambda t: (t, 0.3 * t * (1 - t)), 2)),
                 CurveSpan(_curve(lambda s: (0.2 * s * (1 - s), s), 2))),
        (1, 0)),
    "start_on_the_other": (
        lambda: (CurveSpan(_curve(lambda t: (0.5 + 0.1 * t * t, 0.05 + t),
                                  2)),
                 CurveSpan(_curve(lambda s: (s, 0.2 * s * (1 - s)), 2))),
        (1, 0)),
    # tangent at their common start, where both seedings have an exact
    # corner seed; at an interior tangency both return clusters of rows
    # that depend on the seeds
    "tangent_parabolas": (
        lambda: (CurveSpan(_curve(lambda t: (t, t * t), 2)),
                 CurveSpan(_curve(lambda s: (s, -s * s), 2))),
        (1, 0)),
    "shifted_by_1e-10": (
        lambda: (CurveSpan(_curve(lambda t: (t, t * t), 2)),
                 CurveSpan(_curve(lambda s: (s + 1e-10, s * s), 2))),
        (1, 1)),
    "lifted_by_1e-10": (
        lambda: (CurveSpan(_curve(lambda t: (t, t * t), 2)),
                 CurveSpan(_curve(lambda s: (s, s * s + 1e-10), 2))),
        (0, 1)),
    "reversed_window": (
        lambda: (CurveSpan(_curve(lambda t: (t, t * t), 3), 0.9, 0.05),
                 CurveSpan(_curve(lambda s: (s, 0.8 - 0.7 * s + 0.3 * s ** 3),
                                  3))),
        (1, 0)),
}


def _seeding_case(name):
    """The mesh pairs of the seeding comparison: the three benchmark
    workloads' meshes, slivers and disks of higher edge degree."""
    if name == "accuracy_n32":
        return accuracy_meshes(32)
    if name == "cubic_n16":
        return accuracy_meshes(16, degree=3)
    if name == "rotation_n16":
        base = gen_disk_mesh(16)
        return base, rotate_mesh(base, math.pi / 4.0)
    if name.startswith("disk_d"):
        degree = int(name[-1])
        base = gen_disk_mesh(4 if degree == 6 else 8, degree=degree)
        return base, rotate_mesh(base, 0.3)
    if name.startswith("sliver_"):
        base = gen_disk_mesh(8)
        return base, rotate_mesh(base, float(name[7:]))
    return _mesh_pair(name)


@pytest.mark.parametrize("name", [
    "accuracy_n32", "rotation_n16", "cubic_n16", "cubic", "identity",
    "disk_pi4", "sliver_1e-12", "sliver_1e-9", "sliver_1e-6", "sliver_1e-3",
    "disk_d3", "disk_d4", "disk_d5", "disk_d6", *_SPAN_PAIRS])
def test_subdivision_seeds_find_the_grid_rows(name, monkeypatch):
    if name in _SPAN_PAIRS:
        make, (rows, grid) = _SPAN_PAIRS[name]
        a, b = make()

        def table():
            return clipping.intersect_curves([a], [b], [0], [0])
    else:
        src, tgt = _seeding_case(name)
        cells = _cells(src, tgt)

        def table():
            return remap._edge_crossings(src, tgt, cells)[2]
    got = table()
    with monkeypatch.context() as mp:
        mp.setattr(clipping, "_subdivision_seeds", _grid_only)
        ref = table()
    assert got.pair.tolist() == ref.pair.tolist()
    assert got.transversal.tolist() == ref.transversal.tolist()
    assert np.abs(got.u - ref.u).max(initial=0.0) <= 1e-10
    assert np.abs(got.v - ref.v).max(initial=0.0) <= 1e-10
    assert np.abs(got.point - ref.point).max(initial=0.0) <= 1e-11
    if name in _SPAN_PAIRS:
        assert (len(got.pair), got.grid_seeded) == (rows, grid)
        if name == "shared_start":
            assert (got.u.tolist(), got.v.tolist()) == ([0.0], [0.0])
    else:
        assert len(got.pair) > 0
        assert got.grid_seeded < ref.grid_seeded


@pytest.mark.parametrize("angle, grid", [(1e-3, 32), (math.pi / 4.0, 0)])
def test_plan_counts_the_grid_seeded_pairs(angle, grid):
    # turned by 1e-3, each of the 16 boundary arcs nearly coincides with
    # the two turned arcs it overlaps; turned by pi/4 no edges do
    base = gen_disk_mesh(4)
    plan = remap.build_plan(base, rotate_mesh(base, angle), k_max=1)
    assert plan.grid_seeded_pairs == grid
    rep = remap.apply_plan(plan, np.ones(base.n_cells), order=1)
    assert f"split_loops=0\ngrid_seeded_pairs={grid}\n" in rep.to_text()


def _greedy(pair, t, s):
    """The plain keep-first rule over seeds sorted by (pair, t, s)."""
    kept = []
    for i in range(len(pair)):
        if not any(pair[j] == pair[i] and abs(t[i] - t[j]) <= DEDUP_PARAM
                   and abs(s[i] - s[j]) <= DEDUP_PARAM for j in kept):
            kept.append(i)
    return kept


def test_round_dedup_keeps_the_first_and_third_of_a_chain():
    # 0.6e-8 apart: the second is close to both others, the third only to
    # the second, which is dropped
    t = np.array([0.0, 0.6e-8, 1.2e-8])
    keep = clipping._first_of_close(np.zeros(3, int), t, np.zeros(3))
    assert np.flatnonzero(keep).tolist() == [0, 2]


@pytest.mark.parametrize("seed", range(4))
def test_round_dedup_is_the_greedy_rule(seed):
    rng = np.random.default_rng(seed)
    pair, t, s = [], [], []
    for p in range(12):
        for _ in range(rng.integers(0, 4)):
            ct, cs = rng.uniform(0.0, 1.0, 2)
            k = int(rng.integers(1, 12))
            pair += [p] * k
            t += (ct + rng.uniform(-3e-8, 3e-8, k)).tolist()
            s += (cs + rng.uniform(-3e-8, 3e-8, k)).tolist()
    pair, t, s = np.array(pair), np.array(t), np.array(s)
    order = np.lexsort((s, t, pair))
    pair, t, s = pair[order], t[order], s[order]
    keep = clipping._first_of_close(pair, t, s)
    assert np.flatnonzero(keep).tolist() == _greedy(pair, t, s)
    assert keep.sum() < len(pair)


@pytest.mark.parametrize("name", ["accuracy", "cubic"])
def test_edge_roots_are_the_curves_own_points_and_tangents(name):
    src, tgt = _mesh_pair(name)
    es, et, found, _slot = remap._edge_crossings(src, tgt, _cells(src, tgt))
    checked = 0
    for k, t, s, point, transversal, cross_k in zip(
            found.pair.tolist(), found.u.tolist(), found.v.tolist(),
            found.point.tolist(), found.transversal.tolist(),
            found.cross.tolist()):
        ca, cb = src.edge_curve(es[k]), tgt.edge_curve(et[k])
        assert point == ca.eval(t).tolist()
        cross = _unit_cross(ca.deriv(t), cb.deriv(s))
        assert transversal == (abs(cross) > CROSS_TOL)
        assert cross_k == cross
        checked += 1
    assert checked > 100


def _bits(rows):
    """The rows (ks, t, kc, s, point, transversal, cross) with every float
    written out bit for bit, and the type of every field."""
    return [(ks, t.hex(), kc, s.hex(), tuple(x.hex() for x in point),
             transversal, cross.hex(),
             tuple(type(f).__name__ for f in (ks, t, kc, s, *point,
                                              transversal, cross)))
            for ks, t, kc, s, point, transversal, cross in rows]


@pytest.mark.parametrize("name", ["accuracy", "cubic", "disk_pi4",
                                  "disk_1e-9", "identity", "straight11",
                                  "straight21", "disk_chords_pi4"])
def test_pair_rows_equal_the_record_loop_bitwise(name):
    src, tgt = _mesh_pair(name)
    pairs = remap.candidate_pairs(src, tgt)
    got, _grid = remap._pair_rows(src, tgt, _cells(src, tgt))
    ref = reference_pair_rows(src, tgt, pairs)
    assert len(got) == len(ref) == len(pairs)
    assert sum(map(len, ref)) > len(pairs)
    for g, r in zip(got, ref):
        assert _bits(g) == _bits(r)


def _shifted(mesh, dx):
    return CurvilinearMesh(mesh.points + np.array([dx, 0.0]), mesh.edges,
                           mesh.cell_edges, mesh.cell_dirs)


def _all_box_pairs(src, tgt):
    """Every (source, target) pair whose polygon boxes overlap, by target
    and then by source, one Aabb.overlaps call each."""
    sb = [src.cell_polygon(i).bbox() for i in range(src.n_cells)]
    tb = [tgt.cell_polygon(i).bbox() for i in range(tgt.n_cells)]
    return [(s, t) for t in range(tgt.n_cells) for s in range(src.n_cells)
            if sb[s].overlaps(tb[t])]


def _box_case(name):
    """A mesh pair for the candidate-pair tests; all but the identity pair
    have more target cells than one block."""
    square = gen_deformed_square_mesh(9, "gresho_like", 0.3, 2)
    if name == "accuracy":
        return accuracy_meshes(9)
    if name == "identity":
        return _mesh_pair(name)
    if name == "disjoint":
        return square, _shifted(square, 5.0)
    if name == "square_on_disk":
        return gen_deformed_square_mesh(5, "gresho_like", 0.3, 2), \
            gen_disk_mesh(9)
    if name == "disk_on_square":
        return gen_disk_mesh(5), square
    # closed boxes: the copy shifted by one side meets it along a line
    straight = gen_deformed_square_mesh(9, "identity", degree=1)
    return straight, _shifted(straight, 1.0)


@pytest.mark.parametrize("name", ["accuracy", "identity", "disjoint",
                                  "square_on_disk", "disk_on_square",
                                  "touching"])
def test_candidate_pairs_equal_all_pairs_box_tests(name):
    src, tgt = _box_case(name)
    ref = _all_box_pairs(src, tgt)
    assert remap.candidate_pairs(src, tgt) == ref
    assert (len(ref) == 0) == (name == "disjoint")


def test_disjoint_meshes_plan_and_apply_to_an_empty_cover():
    src, _ = accuracy_meshes(4)
    tgt = _shifted(src, 5.0)
    assert len(remap._edge_crossings(src, tgt, _cells(src, tgt))[2].pair) == 0
    plan = remap.build_plan(src, tgt, k_max=4, with_tris=True)
    assert plan.n_candidates == plan.n_pairs == plan.split_loops == 0
    assert plan.warnings == []
    rep = remap.apply_plan(plan, np.full(src.n_cells, 2.5), order=5,
                           positivity=True, approach="both")
    assert rep.field.averages.tolist() == [0.0] * tgt.n_cells
    assert rep.e_area_c == pytest.approx(1.0, rel=1e-14)
    assert rep.max_ab_gap == 0.0 and rep.warnings == []


def _mixed_plan():
    """A degree-2 to degree-3 plan: its loops mix span degrees."""
    src, _ = accuracy_meshes(8)
    _, tgt = accuracy_meshes(8, degree=3)
    return remap.build_plan(src, tgt, k_max=4)


def _area_by_span(poly):
    total = 0.0
    for span in poly.spans:
        total += span.contour_term()
    return 0.5 * total


def test_batched_areas_and_samples_equal_per_span_evaluation():
    plan = _mixed_plan()
    loops = [lp for per in plan.per_target for pg in per for lp in pg.loops]
    mixed = sum(len({s.degree for s in lp.poly.spans}) > 1 for lp in loops)
    assert mixed > len(loops) // 2
    for lp in loops:
        poly = lp.poly
        assert lp.area == poly.signed_area() == _area_by_span(poly)
        assert poly.corners == tuple(tuple(s.start.tolist())
                                     for s in poly.spans)
        xs, ys, wdy = [], [], []
        for span in poly.spans:
            n = max(1, math.ceil(((plan.k_max + 2) * span.degree) / 2))
            xi, w = gauss_rule_01(n)
            t = span.t0 + xi * (span.t1 - span.t0)
            p, dv = span.curve.eval(t), span.curve.deriv(t)
            xs.append(p[:, 0])
            ys.append(p[:, 1])
            wdy.append(dv[:, 1] * w * (span.t1 - span.t0))
        assert lp.ax.tobytes() == np.concatenate(xs).tobytes()
        assert lp.ay.tobytes() == np.concatenate(ys).tobytes()
        assert lp.awdy.tobytes() == np.concatenate(wdy).tobytes()
    for mesh in (plan.source, plan.target):
        assert mesh.cell_areas().tolist() == [
            _area_by_span(mesh.cell_polygon(i)) for i in range(mesh.n_cells)]
