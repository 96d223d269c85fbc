"""Mesh set-up against frozen copies of its earlier forms.

The sampled crossing test against the all-pairs kernel
(`reference_crossing`); the factored Coons map, the structured-mesh
generator and the adjacency against the blend form and the loops they
replaced (`reference_mesh`).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_mesh
from reference_crossing import all_pairs_self_intersects, crossing_pairs

from curveremap import mesh as mesh_mod
from curveremap.experiments import (GRESHO_AMPLITUDE, ROUGHEN, TG_AMPLITUDE,
                                    accuracy_meshes, composite_disk_field,
                                    cylinder_field, sin_field)
from curveremap.geometry import _polyline_self_intersects
from curveremap.mesh import (CurvilinearMesh, MeshError, _cell_samples,
                             _phi_gresho, _phi_identity, _phi_taylor_green,
                             _structured_mesh, build_adjacency,
                             exact_cell_averages, gen_deformed_square_mesh,
                             gen_disk_mesh, rotate_mesh)


# --------------------------------------------------------------------------
# the sampled crossing test

def _segment_boxes_disjoint(loop, i, j) -> bool:
    """Whether the closed boxes of segments i and j of a closed polyline
    are disjoint."""
    ends = np.concatenate([loop, loop[:1]])
    a, b = ends[[i, i + 1]], ends[[j, j + 1]]
    return bool(np.any((a.max(axis=0) < b.min(axis=0))
                       | (b.max(axis=0) < a.min(axis=0))))


def _assert_same_verdicts(loops):
    """The pruned kernel's verdicts equal the all-pairs kernel's, except
    where every pair the all-pairs kernel flags is two segments with
    disjoint boxes: a crossing that rounding alone makes."""
    got = _polyline_self_intersects(loops)
    want = all_pairs_self_intersects(loops)
    for loop, g, w in zip(loops, got.tolist(), want.tolist()):
        if g != w:
            assert w and not g
            pairs = crossing_pairs(loop)
            assert all(_segment_boxes_disjoint(loop, i, j) for i, j in pairs)
    return got, want


def _loop(kind: str, m: int, scale: float, seed: int) -> np.ndarray:
    """A closed polyline of m points.

    circle   -- a circle with angles and radii jittered by scale;
    bowtie   -- a figure eight, whose two lobes cross at the origin;
    line     -- out along a line and back on a parallel one scale away
                (scale 0: back on the same points' line);
    tangent  -- a dumbbell whose sides meet at its waist, 0.5 scale apart
                (negative: they cross)."""
    rng = np.random.default_rng(seed)
    t = 2.0 * np.pi * np.arange(m) / m
    if kind == "circle":
        t = t + 3.0 * scale * rng.normal(size=m)
        r = 1.0 + scale * rng.uniform(-1.0, 1.0, m)
        return np.column_stack([r * np.cos(t), r * np.sin(t)])
    if kind == "bowtie":
        return (np.column_stack([np.sin(t), np.sin(t) * np.cos(t)])
                + 1e-3 * scale * rng.normal(size=(m, 2)))
    p, d = rng.uniform(-1.0, 1.0, 2), rng.uniform(-1.0, 1.0, 2)
    out = (m + 1) // 2
    u = np.sort(rng.uniform(0.0, 1.0, out))
    if kind == "line":
        back = np.sort(rng.uniform(0.0, 1.0, m - out))[::-1]
        nrm = np.array([-d[1], d[0]])
        return np.vstack([p + u[:, None] * d,
                          p + back[:, None] * d + scale * nrm])
    x = np.linspace(0.0, 1.0, out)
    x_back = np.linspace(1.0, 0.0, m - out)
    return np.vstack([np.column_stack([x, -0.5 * scale - (x - 0.5) ** 2]),
                      np.column_stack([x_back,
                                       0.5 * scale + (x_back - 0.5) ** 2])])


@settings(max_examples=300)
@given(st.sampled_from(["circle", "bowtie", "line", "tangent"]),
       st.integers(3, 100),
       st.sampled_from([0.0, 1e-12, 1e-6, 1e-3, 0.05, 0.3, -1e-3]),
       st.integers(0, 2 ** 32 - 1))
def test_pruned_crossing_test_equals_all_pairs(kind, m, scale, seed):
    loops = np.stack([_loop(kind, m, scale, seed + k) for k in range(4)])
    _assert_same_verdicts(loops)


def test_rounding_only_crossing_of_far_collinear_segments():
    # 18 points on one line and an apex off it: the all-pairs kernel's
    # rounding reads segments 6 and 15, which lie on the line with
    # disjoint boxes, as crossed; the pruned kernel never pairs them
    p = np.array([0.10035117438770857, -0.8392139807554073])
    d = np.array([-0.5347069645511064, -0.6847767913266327])
    side = p + (np.arange(18) / 17)[:, None] * d
    loop = np.vstack([side, p + 0.5 * d + np.array([-d[1], d[0]])])
    assert crossing_pairs(loop) == [(6, 15)]
    assert _segment_boxes_disjoint(loop, 6, 15)
    assert all_pairs_self_intersects(loop[None]).tolist() == [True]
    assert _polyline_self_intersects(loop[None]).tolist() == [False]


def _workload_meshes(name):
    """The benchmark's meshes of a workload at seed 1, or the tangled
    n=4 Taylor-Green mesh."""
    if name == "accuracy":
        rng = np.random.default_rng(1)
        rng.uniform(0.5, 2.0)  # the run's constant field
        amp = rng.uniform(0.99, 1.01, size=2)
        return [gen_deformed_square_mesh(32, "gresho_like",
                                         GRESHO_AMPLITUDE * amp[0], 2,
                                         roughen=ROUGHEN),
                gen_deformed_square_mesh(32, "taylor_green_like",
                                         TG_AMPLITUDE * amp[1], 2,
                                         roughen=ROUGHEN)]
    if name == "rotation":
        base = gen_disk_mesh(16)
        return [base] + [rotate_mesh(base, k * math.pi / 4.0) for k in (1, 2)]
    if name == "cubic":
        return list(accuracy_meshes(16, degree=3))
    return [_structured_mesh(4, 2, _phi_taylor_green(0.9), 0.0, 1.0,
                             validate=False)]


@pytest.mark.parametrize("name", ["accuracy", "rotation", "cubic",
                                  "tg-0.9-n4"])
def test_pruned_crossing_test_on_every_cell_loop(name):
    for m in _workload_meshes(name):
        loops = _cell_samples(m)[:, :, :16].reshape(-1, 64, 2)
        got, want = _assert_same_verdicts(loops)
        assert got.tolist() == want.tolist()
        assert got.any() == (name == "tg-0.9-n4")


# --------------------------------------------------------------------------
# the Coons map

_AVERAGE_CASES = {
    "sine": (lambda: accuracy_meshes(8)[0], sin_field, {}),
    "disk": (lambda: gen_disk_mesh(8), composite_disk_field,
             {"strict": False, "max_levels": 5}),
    "cylinder": (lambda: accuracy_meshes(8, degree=3)[0], cylinder_field,
                 {"strict": False, "max_levels": 5}),
}


@pytest.mark.parametrize("case", sorted(_AVERAGE_CASES))
def test_factored_coons_map_equals_blend_form(case):
    m = _AVERAGE_CASES[case][0]()
    nodes, rev = m.points[m.edges][m.cell_edges], m.cell_dirs < 0
    rng = np.random.default_rng(4)
    k = len(nodes)
    h = rng.uniform(0.05, 0.5, k)[:, None]
    xs = rng.uniform(0.0, 0.5, k)[:, None] + h * np.sort(rng.uniform(size=16))
    ys = rng.uniform(0.0, 0.5, k)[:, None] + h * np.sort(rng.uniform(size=16))
    x, y, jac = mesh_mod._coons_map(nodes, rev, xs, ys)
    F, J = reference_mesh.coons_map(nodes, rev, xs, ys)
    scale = np.abs(F).max(axis=(1, 2, 3))[:, None, None]
    assert np.all(np.abs(x - F[..., 0]) <= 1e-14 * scale)
    assert np.all(np.abs(y - F[..., 1]) <= 1e-14 * scale)
    jscale = np.abs(J).max(axis=(1, 2))[:, None, None]
    assert np.all(np.abs(jac - J) <= 1e-14 * jscale)


def _averages_and_panels(monkeypatch, m, field, opts, kernel):
    """exact_cell_averages with the given Coons kernel, and every panel
    table the kernel was called on."""
    calls = []

    def spy(nodes, rev, func, panels, x0, y0, h):
        calls.append((panels, nodes.copy(), x0.copy(), y0.copy(), h.copy()))
        return kernel(nodes, rev, func, panels, x0, y0, h)

    with monkeypatch.context() as mp:
        mp.setattr(mesh_mod, "_coons_integrals", spy)
        return exact_cell_averages(m, field, **opts), calls


@pytest.mark.parametrize("case", sorted(_AVERAGE_CASES))
def test_factored_averages_equal_blend_form_averages(case, monkeypatch):
    make, field, opts = _AVERAGE_CASES[case]
    m = make()
    deeper = {**opts, "max_levels": opts.get("max_levels", 10) + 1}
    runs = []
    for kernel in (mesh_mod._coons_integrals, reference_mesh.coons_integrals):
        fld, calls = _averages_and_panels(monkeypatch, m, field, opts, kernel)
        more, _ = _averages_and_panels(monkeypatch, m, field, deeper, kernel)
        runs.append((fld, calls, more))
    (got, panels, got_deeper), (want, ref_panels, want_deeper) = runs
    assert np.all(np.abs(got.averages - want.averages)
                  <= 1e-13 * np.abs(want.averages))
    assert got.nonconverged == want.nonconverged == (case != "sine")
    # the same panels are split in every round
    assert len(panels) == len(ref_panels)
    for a, b in zip(panels, ref_panels):
        assert a[0] == b[0]
        assert all(np.array_equal(u, v) for u, v in zip(a[1:], b[1:]))
    # a cell left open at max_levels takes a new value one level deeper
    open_cells = np.flatnonzero(got.averages != got_deeper.averages)
    ref_open = np.flatnonzero(want.averages != want_deeper.averages)
    assert np.array_equal(open_cells, ref_open)
    assert bool(len(open_cells)) == got.nonconverged


# --------------------------------------------------------------------------
# the structured-mesh generator and the adjacency

def _disk_phi(p):
    x, y = p[:, 0], p[:, 1]
    return np.column_stack([x * np.sqrt(1.0 - 0.5 * y * y),
                            y * np.sqrt(1.0 - 0.5 * x * x)])


_SQUARE_PHIS = {"identity": _phi_identity,
                "taylor_green_like": _phi_taylor_green(0.05),
                "gresho_like": _phi_gresho(0.35)}


def _tables(m):
    return m.points, m.edges, m.cell_edges, m.cell_dirs


def _assert_bitwise(got, want):
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(a, b)


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
@pytest.mark.parametrize("roughen", [0.0, 0.12])
@pytest.mark.parametrize("kind", sorted(_SQUARE_PHIS))
def test_structured_mesh_equals_loop_form(kind, roughen, degree):
    salt = mesh_mod._SQUARE_KINDS.index(kind)
    for n in (2, 5):
        m = _structured_mesh(n, degree, _SQUARE_PHIS[kind], 0.0, 1.0,
                             roughen=roughen, salt=salt, validate=False)
        want = reference_mesh.structured_arrays(
            n, degree, _SQUARE_PHIS[kind], 0.0, 1.0, roughen=roughen,
            salt=salt)
        _assert_bitwise(_tables(m), want)


@pytest.mark.parametrize("degree", [1, 2, 3])
@pytest.mark.parametrize("n", [4, 8])
def test_disk_mesh_equals_loop_form(n, degree):
    ref = CurvilinearMesh(*reference_mesh.structured_arrays(
        n, degree, _disk_phi, -1.0, 1.0), validate=False)
    mesh_mod._uniformize_disk_boundary(ref)
    _assert_bitwise(_tables(gen_disk_mesh(n, degree)), _tables(ref))


def _one_cell():
    return CurvilinearMesh([(0, 0), (1, 0), (1, 1), (0, 1)],
                           [[0, 1], [1, 2], [3, 2], [0, 3]], [[0, 1, 2, 3]],
                           [[1, 1, -1, -1]])


@pytest.mark.parametrize("make", [
    lambda: gen_deformed_square_mesh(2, "identity", degree=1),
    lambda: gen_deformed_square_mesh(5, "taylor_green_like", 0.05,
                                     roughen=0.12),
    lambda: gen_deformed_square_mesh(6, "gresho_like", 0.35, degree=3),
    lambda: gen_disk_mesh(4, 1),
    lambda: gen_disk_mesh(8, 3),
    lambda: rotate_mesh(gen_disk_mesh(8), 0.3),
    lambda: rotate_mesh(gen_deformed_square_mesh(4, "identity"), 1.0),
    _one_cell,
], ids=["identity-2", "tg-5", "gresho-6-d3", "disk-4-d1", "disk-8-d3",
        "disk-turned", "square-turned", "one-cell"])
def test_adjacency_equals_dict_form(make):
    m = make()
    adj = build_adjacency(m)
    want_e, want_v = reference_mesh.adjacency(m)
    assert adj.edge_neighbors == want_e
    assert adj.vertex_neighbors == want_v
    assert all(type(c) is int for row in adj.edge_neighbors
               + adj.vertex_neighbors for c in row)


def test_non_manifold_error_equals_dict_form():
    # cell 0 twice: its two interior edges are used by three cells
    m = gen_deformed_square_mesh(2, "identity", degree=1)
    bad = CurvilinearMesh(m.points, m.edges,
                          np.vstack([m.cell_edges, m.cell_edges[:1]]),
                          np.vstack([m.cell_dirs, m.cell_dirs[:1]]),
                          validate=False)
    with pytest.raises(MeshError) as ref:
        reference_mesh.adjacency(bad)
    with pytest.raises(MeshError) as got:
        build_adjacency(bad)
    assert str(got.value) == str(ref.value)
    assert str(got.value) == "non-manifold edges (used by >2 cells): [2, 7]"
