import functools
import hashlib
import itertools
import math
import os

import numpy as np
import pytest

from curveremap.geometry import CurvedPolygon, GeometryError
from curveremap.mesh import (CurvilinearMesh, Field, MeshError, MeshParseError,
                             boundary_loop, build_adjacency,
                             exact_cell_averages, gen_deformed_square_mesh,
                             gen_disk_mesh, read_field, read_mesh, rotate_mesh,
                             validate_mesh, write_field, write_mesh)
from curveremap.experiments import QUAD_P


def one_cell_quad_p() -> CurvilinearMesh:
    pts = np.array([QUAD_P[k] for k in
                    ("P1", "P2", "P3", "P4", "P5", "P6", "P7", "P8")])
    edges = np.array([[0, 4, 1], [1, 5, 2], [2, 6, 3], [3, 7, 0]])
    return CurvilinearMesh(pts, edges, [[0, 1, 2, 3]], [[1, 1, 1, 1]])


def unit_square_mesh_1cell() -> CurvilinearMesh:
    pts = np.array([[0, 0], [1, 0], [1, 1], [0, 1],
                    [0.5, 0], [1, 0.5], [0.5, 1], [0, 0.5]], float)
    edges = np.array([[0, 4, 1], [1, 5, 2], [2, 6, 3], [3, 7, 0]])
    return CurvilinearMesh(pts, edges, [[0, 1, 2, 3]], [[1, 1, 1, 1]])


def test_cell_polygon_unit_square():
    m = unit_square_mesh_1cell()
    poly = m.cell_polygon(0)
    assert len(poly.spans) == 4
    assert math.isclose(poly.signed_area(), 1.0, rel_tol=1e-14)


def test_quad_p_area_against_polygonal_oracle():
    m = one_cell_quad_p()
    poly = m.cell_polygon(0)

    def shoelace(per_span):
        pts = poly.boundary_points(per_span=per_span)
        x, y = pts[:, 0], pts[:, 1]
        return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))

    area = poly.signed_area()
    assert area > 0
    assert abs(area - shoelace(512)) <= 1e-5 * area
    # Richardson-extrapolated 2048-gon oracle (inscribed polygons gain m^-2)
    rich = (4.0 * shoelace(512) - shoelace(256)) / 3.0
    assert abs(area - rich) <= 1e-8 * area


def test_mesh_points_must_be_finite():
    m = unit_square_mesh_1cell()
    pts = m.points.copy()
    pts[5, 1] = math.nan
    with pytest.raises(MeshError, match="finite"):
        CurvilinearMesh(pts, m.edges, m.cell_edges, m.cell_dirs)


def test_all_generated_cells_ccw():
    m = gen_deformed_square_mesh(5, "taylor_green_like", 0.05, 2)
    assert (m.cell_areas() > 0).all()


def test_adjacency_counts_structured():
    m3 = gen_deformed_square_mesh(3, "identity", degree=2)
    adj = build_adjacency(m3)
    assert len(adj.edge_neighbors[4]) == 4
    assert len(adj.vertex_neighbors[4]) == 4
    m2 = gen_deformed_square_mesh(2, "identity", degree=2)
    adj2 = build_adjacency(m2)
    assert len(adj2.edge_neighbors[0]) == 2
    assert len(adj2.vertex_neighbors[0]) == 1


def test_adjacency_symmetry():
    m = gen_deformed_square_mesh(4, "gresho_like", 0.3, 2)
    adj = m.adjacency
    for i in range(m.n_cells):
        for j in adj.edge_neighbors[i]:
            assert i in adj.edge_neighbors[j]
        for j in adj.vertex_neighbors[i]:
            assert i in adj.vertex_neighbors[j]


def test_disk_mesh_edges_manifold():
    m = gen_disk_mesh(6, 2)
    counts = {}
    for i in range(m.n_cells):
        for e in m.cell_edges[i]:
            counts[int(e)] = counts.get(int(e), 0) + 1
    assert max(counts.values()) <= 2


def test_identity_mesh_cell_areas():
    m = gen_deformed_square_mesh(4, "identity", degree=2)
    assert m.n_cells == 16
    assert np.allclose(m.cell_areas(), 1 / 16, rtol=0, atol=1e-15)


def test_taylor_green_total_area_is_one():
    m = gen_deformed_square_mesh(32, "taylor_green_like", 0.05, 2)
    assert abs(m.cell_areas().sum() - 1.0) <= 1e-10


def test_generator_rejects_tangling_amplitude():
    with pytest.raises(MeshError):
        gen_deformed_square_mesh(4, "taylor_green_like", 0.9, 2)
    with pytest.raises(MeshError):
        gen_deformed_square_mesh(4, "unknown_kind", 0.1, 2)


def test_disk_mesh_area_and_boundary():
    m = gen_disk_mesh(30, 2)
    area = m.cell_areas().sum()
    assert abs(area - math.pi) / math.pi <= 1e-4
    for span in boundary_loop(m).spans:
        for p in (span.start, span.end):
            assert abs(math.hypot(p[0], p[1]) - 1.0) <= 1e-14


# SHA-256 of gen_disk_mesh(n, d).points as little-endian float64 bytes,
# recorded from the generator before its boundary walk was shared with
# boundary_loop
_DISK_POINTS_SHA256 = {
    (4, 1): "53ccd765b74314380cf4f514721c417832565ed25722058d4a9d8e1ec99b07df",
    (4, 2): "86b4e3e8e6bcfc43212863d7c5f7c9382358e84ba3f83b1358f905ce332ec2c1",
    (4, 3): "917039a6f95d21ebfd290f24949394b024a2b0cd82751f45d81cb472a0827836",
    (8, 1): "26225642271860a275c02beaaceb22a4db9a52cdfa603f1c5cbaf4ce2c766931",
    (8, 2): "be84d1d56d6a588ac98654918747bf0d03b5df0e944fe062489a4b01bd6a6f44",
    (8, 3): "0bc0eca3d938fa77336b8d66b05e0abd7c6b3555b70a6b901db894dbc9883630",
    (16, 1): "b6db4dfff3e722c635f565e9230c11a3fb61c298ed1d45e28f7ba055867a5bff",
    (16, 2): "036db184e2904e0b78397ff0337442f9dc77463aeca46aa84d5032be2f540278",
    (16, 3): "b948f1c39a0a80a5e46e4c74964d07ab0f565c4c56d037efd673c59f0903e5a6",
}


@pytest.mark.parametrize("n, d", sorted(_DISK_POINTS_SHA256))
def test_disk_mesh_points_are_unchanged(n, d):
    pts = np.ascontiguousarray(gen_disk_mesh(n, d).points, "<f8")
    assert hashlib.sha256(pts.tobytes()).hexdigest() == _DISK_POINTS_SHA256[n, d]


def test_partition_property():
    for m in (gen_deformed_square_mesh(6, "gresho_like", 0.4, 2),
              gen_disk_mesh(6, 2)):
        total = m.cell_areas().sum()
        domain = boundary_loop(m).signed_area()
        assert abs(total - domain) <= 1e-10 * domain


def test_rotation_identity_and_full_turn():
    m = gen_disk_mesh(6, 2)
    r0 = rotate_mesh(m, 0.0)
    assert np.array_equal(r0.points, m.points)
    r2 = rotate_mesh(m, 2 * math.pi)
    assert np.abs(r2.points - m.points).max() <= 1e-12
    # the centre vertex stays at +0.0, as in a rotation about (0, 0)
    centre = np.flatnonzero(~m.points.any(axis=1))
    assert len(centre) == 1
    assert not np.signbit(rotate_mesh(m, math.pi).points[centre]).any()


def test_rotation_preserves_areas_and_distances():
    m = gen_disk_mesh(8, 2)
    r = rotate_mesh(m, math.pi / 4)
    assert abs(r.cell_areas().sum() - m.cell_areas().sum()) <= 1e-12
    rng = np.random.default_rng(2)
    idx = rng.integers(0, m.n_points, (64, 2))
    d0 = np.hypot(*(m.points[idx[:, 0]] - m.points[idx[:, 1]]).T)
    d1 = np.hypot(*(r.points[idx[:, 0]] - r.points[idx[:, 1]]).T)
    mask = d0 > 0
    assert np.abs(d1[mask] - d0[mask]).max() <= 1e-12 * max(1.0, d0.max())


def test_mesh_roundtrip_bitwise(tmp_path):
    m = gen_deformed_square_mesh(5, "gresho_like", 0.45, 3)
    path = tmp_path / "m.curvemesh"
    write_mesh(m, path)
    back = read_mesh(path)
    assert np.array_equal(back.points, m.points)
    assert np.array_equal(back.edges, m.edges)
    assert np.array_equal(back.cell_edges, m.cell_edges)
    assert np.array_equal(back.cell_dirs, m.cell_dirs)


def test_truncated_file_is_parse_error(tmp_path):
    m = gen_deformed_square_mesh(2, "identity", degree=2)
    path = tmp_path / "m.curvemesh"
    write_mesh(m, path)
    text = path.read_text().splitlines()
    path.write_text("\n".join(text[: len(text) // 2]))
    with pytest.raises(MeshParseError):
        read_mesh(path)


def test_malformed_tokens_are_parse_errors(tmp_path):
    path = tmp_path / "bad.curvemesh"
    path.write_text("curvemesh 1 2\npoints 1\n0 zero\n")
    with pytest.raises(MeshParseError) as err:
        read_mesh(path)
    assert "3" in str(err.value)  # line number reported


@pytest.mark.parametrize("reader, text, line", [
    (read_mesh, "curvemesh 1 0\n", 1),
    (read_mesh, "curvemesh 1 -2\n", 1),
    (read_mesh, "curvemesh 1 2\npoints -3\n", 2),
    (read_mesh, "curvemesh 1 1\npoints 0\nedges -1\n", 3),
    (read_mesh, "curvemesh 1 1\npoints 0\nedges 0\ncells -5\n", 4),
    (read_field, "field 1 -4\n", 1),
], ids=["degree-0", "degree-minus-2", "points", "edges", "cells", "field"])
def test_negative_sizes_are_parse_errors(tmp_path, reader, text, line):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(MeshParseError) as err:
        reader(path)
    assert str(err.value).startswith(f"{path}:{line}: bad ")


@pytest.mark.parametrize("n_points, n_edges, cells, message", [
    (0, 0, [], "mesh has no cells"),
    (4, 4, [], "mesh has no cells"),
    (4, 0, [[0, 1, 2, 3]], "cell edge index out of range"),
], ids=["nothing", "no-cells", "no-edges"])
def test_empty_mesh_is_a_mesh_error(n_points, n_edges, cells, message):
    pts = [(0, 0), (1, 0), (1, 1), (0, 1)][:n_points]
    edges = [[0, 1], [1, 2], [2, 3], [3, 0]][:n_edges]
    with pytest.raises(MeshError) as err:
        CurvilinearMesh(np.reshape(pts, (-1, 2)), np.reshape(edges, (-1, 2)),
                        np.reshape(cells, (-1, 4)),
                        np.ones((len(cells), 4), int))
    assert str(err.value) == message


def test_empty_mesh_file_is_a_mesh_error_naming_the_path(tmp_path):
    path = tmp_path / "empty.curvemesh"
    path.write_text("curvemesh 1 1\npoints 0\nedges 0\ncells 0\n")
    with pytest.raises(MeshError) as err:
        read_mesh(path)
    assert str(err.value) == (f"{path}: mesh failed validation: "
                              "mesh has no cells")


def test_handwritten_quad_p_file_matches_memory(tmp_path):
    mem = one_cell_quad_p()
    path = tmp_path / "quadp.curvemesh"
    lines = ["# worked example quad", "curvemesh 1 2", "points 8"]
    for key in ("P1", "P2", "P3", "P4", "P5", "P6", "P7", "P8"):
        x, y = QUAD_P[key]
        lines.append(f"{x} {y}")
    lines += ["edges 4", "0 4 1", "1 5 2", "2 6 3", "3 7 0",
              "cells 1", "+0 +1 +2 +3"]
    path.write_text("\n".join(lines) + "\n")
    loaded = read_mesh(path)
    a = loaded.cell_polygon(0).signed_area()
    b = mem.cell_polygon(0).signed_area()
    assert math.isclose(a, b, rel_tol=1e-15)


def test_field_roundtrip_and_length_check(tmp_path):
    m = gen_deformed_square_mesh(3, "identity", degree=2)
    fld = Field(np.linspace(0, 1, m.n_cells), m)
    path = tmp_path / "f.field"
    write_field(fld, path)
    back = read_field(path, m)
    assert np.array_equal(back.averages, fld.averages)
    with pytest.raises(MeshError):
        Field(np.zeros(5), m)


def test_exact_averages_constant_and_linear():
    m = gen_deformed_square_mesh(2, "identity", degree=2)
    ones = exact_cell_averages(m, lambda x, y: np.ones_like(x))
    assert np.allclose(ones.averages, 1.0, atol=1e-14)
    fx = exact_cell_averages(m, lambda x, y: x)
    assert np.allclose(fx.averages, [0.25, 0.75, 0.25, 0.75], atol=1e-13)


def test_exact_average_sine_single_cell():
    m = unit_square_mesh_1cell()
    f = exact_cell_averages(m, lambda x, y: np.sin(np.pi * x) + np.sin(np.pi * y))
    assert abs(f.averages[0] - 4.0 / math.pi) <= 1e-13


def test_exact_averages_nonsmooth_needs_relaxed_mode():
    m = gen_deformed_square_mesh(4, "identity", degree=2)
    jump = lambda x, y: np.where(x + y < 0.77, 1.0, 0.0)
    with pytest.raises(MeshError):
        exact_cell_averages(m, jump, max_levels=4)
    best = exact_cell_averages(m, jump, max_levels=4, strict=False)
    assert best.nonconverged
    total = float(best.averages @ m.cell_areas())
    assert abs(total - 0.77 ** 2 / 2) < 1e-3


def _per_point_integrate(poly, func, panels: int, order: int = 8,
                         square=(0.0, 0.0, 1.0)):
    """The Coons-map quadrature of one 4-span cell on the sub-square
    (x0, y0, h) of its unit square, evaluated point by point on the full
    grid: every boundary curve at all n^2 points. Returns the integral and
    the panel integrals, panel (a, b) at a * panels + b with a along xi."""
    from curveremap.geometry import gauss_rule_01
    x0, y0, h = square
    xi1, w1 = gauss_rule_01(order)
    offs = np.arange(panels) / panels
    x = (offs[:, None] + xi1[None, :] / panels).ravel()
    w = np.tile(w1 / panels, panels) * h
    X, Y = np.meshgrid(x0 + h * x, y0 + h * x, indexing="ij")
    WX, WY = np.meshgrid(w, w, indexing="ij")
    xi, eta = X.ravel(), Y.ravel()
    s0, s1, s2, s3 = poly.spans
    p00, p10, p11, p01 = s0.start, s0.end, s1.end, s2.end
    cb, ct = s0.point_at(xi), s2.point_at(1.0 - xi)
    cl, cr = s3.point_at(1.0 - eta), s1.point_at(eta)
    dcb, dct = s0.tangent_at(xi), -s2.tangent_at(1.0 - xi)
    dcl, dcr = -s3.tangent_at(1.0 - eta), s1.tangent_at(eta)
    xi_, eta_ = xi[:, None], eta[:, None]
    # mesh._coons_map's factored form, at every point
    b = cb - (p00 + xi_ * (p10 - p00))
    tb = (ct - (p01 + xi_ * (p11 - p01))) - b
    db = dcb - (p10 - p00)
    dtb = (dct - (p11 - p01)) - db
    rl, drl = cr - cl, dcr - dcl
    F = (eta_ * tb + b) + (xi_ * rl + cl)
    dF_dxi = (eta_ * dtb + db) + rl
    dF_deta = (tb + dcl) + xi_ * drl
    jac = dF_dxi[:, 0] * dF_deta[:, 1] - dF_dxi[:, 1] * dF_deta[:, 0]
    if jac.min() <= 0.0:
        raise MeshError("cell map is not orientation-preserving")
    fx, fy = np.ascontiguousarray(F.T)
    vals = np.asarray(func(fx, fy), float)
    terms = vals * jac * (WX * WY).ravel()
    per = terms.reshape(panels, order, panels, order).swapaxes(1, 2)
    return (float(np.sum(terms)),
            np.sum(per.reshape(panels * panels, -1), axis=1).tolist())


def _per_cell_averages(mesh, func, rel_tol=1e-13, max_levels=10,
                       strict=True):
    """The earlier exact_cell_averages rule as a cell-by-cell loop over
    _per_point_integrate: panels double per level until two levels agree."""
    areas = mesh.cell_areas()
    out = np.empty(mesh.n_cells)
    warned = False
    for i in range(mesh.n_cells):
        poly = mesh.cell_polygon(i)
        prev = _per_point_integrate(poly, func, 1)[0]
        converged = False
        for level in range(1, max_levels + 1):
            panels = 2 ** level
            if panels * 8 > 1200:
                break
            cur = _per_point_integrate(poly, func, panels)[0]
            if abs(cur - prev) <= rel_tol * max(abs(cur), 1e-3 * areas[i]):
                prev = cur
                converged = True
                break
            prev = cur
        if not converged:
            if strict:
                raise MeshError(
                    f"cell {i}: average quadrature did not converge after "
                    f"{max_levels} levels (last value {prev!r})")
            warned = True
        out[i] = prev / areas[i]
    return out, warned


def _panel_rule_averages(mesh, func, rel_tol=1e-13, max_levels=10,
                         strict=True):
    """exact_cell_averages as a cell-by-cell loop over _per_point_integrate:
    the cell starts as one panel, and each round splits every open panel
    into four. The cell converges when the sum of its split panels'
    changes is within its tolerance; a split panel whose change is within
    its area share of that tolerance is closed, the others' quarters stay
    open. Returns the averages and whether any cell was left open."""
    areas = mesh.cell_areas()
    finest = max(lv for lv in range(max_levels + 1) if 2 ** lv * 8 <= 1200)
    out = np.empty(mesh.n_cells)
    warned = False
    for i in range(mesh.n_cells):
        poly = mesh.cell_polygon(i)

        def tol(cur):
            return rel_tol * max(abs(cur), 1e-3 * areas[i])

        prev, _ = _per_point_integrate(poly, func, 1)
        # panels [x0, y0, h, integral, open]
        panels = [[0.0, 0.0, 1.0, prev, True]]
        converged = False
        for level in range(1, finest + 1):
            if converged:
                break
            quarters, diff, changes = {}, 0.0, {}
            for j, (x0, y0, h, v, is_open) in enumerate(panels):
                if is_open:
                    _, q = _per_point_integrate(poly, func, 2, square=(x0, y0, h))
                    new = q[0] + q[1] + q[2] + q[3]
                    quarters[j], changes[j] = q, new - v
                    diff += new - v
                    panels[j][3] = new
            prev = 0.0
            for p in panels:
                prev += p[3]
            converged = abs(diff) <= tol(prev)
            nxt = []
            for j, (x0, y0, h, v, _) in enumerate(panels):
                if j in changes and abs(changes[j]) > h ** 2 * tol(prev):
                    nxt += [[x0 + a * h / 2, y0 + b * h / 2, h / 2, q, True]
                            for (a, b), q in zip(
                                itertools.product(range(2), repeat=2),
                                quarters[j])]
                else:
                    nxt.append([x0, y0, h, v, False])
            panels = nxt
        if not converged:
            if strict:
                raise MeshError(
                    f"cell {i}: average quadrature did not converge after "
                    f"{max_levels} levels (last value {prev!r})")
            warned = True
        out[i] = prev / areas[i]
    return out, warned


@pytest.mark.parametrize("kind", ["disk", "degree3", "wave"])
def test_coons_grid_averages_equal_per_point_form(kind):
    from curveremap.experiments import accuracy_meshes, cylinder_field
    opts = {"strict": False, "max_levels": 3}
    if kind == "disk":
        m = gen_disk_mesh(6)
        field = lambda x, y: np.where(np.hypot(x - 0.3, y + 0.2) < 0.5,
                                      1.0, 0.0)
    elif kind == "degree3":
        m = accuracy_meshes(6, degree=3)[0]
        field = cylinder_field
    else:
        # smooth, but its cells need panel rounds, whose changes differ in
        # sign
        m = accuracy_meshes(4)[0]
        field = lambda x, y: np.sin(40 * x) * np.cos(37 * y)
        opts = {"max_levels": 7}
    grid = exact_cell_averages(m, field, **opts)
    ref, _ = _panel_rule_averages(m, field, **opts)
    assert np.array_equal(grid.averages, ref)


@functools.lru_cache(maxsize=None)
def _average_case(case):
    """Mesh, field and options of an averages case, and the earlier uniform
    rule's averages on it (the per-cell loop takes seconds, so the tests
    below share it)."""
    from curveremap.experiments import (accuracy_meshes, composite_disk_field,
                                        cylinder_field, sin_field)
    if case == "sine":
        m, field, opts = accuracy_meshes(8)[0], sin_field, {}
    elif case == "disk":
        m, field = gen_disk_mesh(8), composite_disk_field
        opts = {"strict": False, "max_levels": 5}
    else:
        m, field = accuracy_meshes(8, degree=3)[0], cylinder_field
        opts = {"strict": False, "max_levels": 5}
    return m, field, opts, _per_cell_averages(m, field, **opts)[0]


@pytest.mark.parametrize("case", ["sine", "disk", "cylinder"])
def test_batched_averages_equal_per_cell_loop(case):
    m, field, opts, _ = _average_case(case)
    got = exact_cell_averages(m, field, **opts)
    ref, warned = _panel_rule_averages(m, field, **opts)
    assert np.array_equal(got.averages, ref)
    assert got.nonconverged == warned
    assert warned == (case != "sine")


@pytest.mark.parametrize("case", ["disk", "cylinder"])
def test_panel_rounds_keep_the_uniform_rule_accuracy(case):
    # errors against the finest panels (max_levels=7), area-weighted L1 and
    # max, of the panel rounds and of the uniform rule, both at max_levels=5
    m, field, opts, uniform = _average_case(case)
    got = exact_cell_averages(m, field, **opts).averages
    fine = exact_cell_averages(m, field, strict=False, max_levels=7).averages
    err, err_uniform = np.abs(got - fine), np.abs(uniform - fine)
    areas = m.cell_areas()
    assert err @ areas <= 1.1 * (err_uniform @ areas)
    assert err.max() <= 1.01 * err_uniform.max()


@pytest.mark.parametrize("case", ["disk", "cylinder"])
def test_averages_do_not_depend_on_the_chunks(case, monkeypatch):
    from curveremap import mesh as mesh_mod
    from curveremap.experiments import (accuracy_meshes, composite_disk_field,
                                        cylinder_field)
    if case == "disk":
        m, field, opts = gen_disk_mesh(8), composite_disk_field, {"max_levels": 5}
    else:
        # the default max_levels: the rounds go down to 2^7 panels a side
        m, field, opts = accuracy_meshes(8, degree=3)[0], cylinder_field, {}
    opts["strict"] = False
    want = exact_cell_averages(m, field, **opts)
    monkeypatch.setattr(mesh_mod, "_AVERAGE_CHUNK_POINTS", 2 ** 9)
    got = exact_cell_averages(m, field, **opts)
    assert np.array_equal(got.averages, want.averages)
    assert got.nonconverged == want.nonconverged


def test_strict_averages_name_the_lowest_unconverged_cell():
    from curveremap.experiments import accuracy_meshes, cylinder_field
    m = accuracy_meshes(8, degree=3)[0]
    with pytest.raises(MeshError) as ref:
        _panel_rule_averages(m, cylinder_field, max_levels=3)
    with pytest.raises(MeshError) as got:
        exact_cell_averages(m, cylinder_field, max_levels=3)
    assert str(got.value) == str(ref.value)
    assert str(got.value).startswith("cell 11: ")


def _per_cell_verdict(mesh) -> str:
    """The invalid-cells message of a CurvedPolygon.validate loop."""
    bad = []
    for i in range(mesh.n_cells):
        try:
            mesh.cell_polygon(i).validate()
        except GeometryError as exc:
            bad.append((i, str(exc)))
    return f"invalid cells: {bad[:8]}" + (" ..." if len(bad) > 8 else "")


def _unvalidated(n, amplitude):
    from curveremap.mesh import _phi_taylor_green, _structured_mesh
    return _structured_mesh(n, 2, _phi_taylor_green(amplitude), 0.0, 1.0,
                            validate=False)


def _open_cell():
    # edge 2 is traversed against its points, so the loop does not close
    m = unit_square_mesh_1cell()
    return CurvilinearMesh(m.points, m.edges, m.cell_edges, [[1, 1, -1, 1]],
                           validate=False)


def _bow_tie_cell():
    pts = [(-0.236, -0.375), (-0.839, 0.566), (0.144, -0.845), (0.954, -0.779)]
    return CurvilinearMesh(pts, [[0, 1], [1, 2], [2, 3], [3, 0]],
                           [[0, 1, 2, 3]], [[1, 1, 1, 1]], validate=False)


@pytest.mark.parametrize("make", [lambda: _unvalidated(4, 0.9),
                                  lambda: _unvalidated(6, 0.3),
                                  _open_cell, _bow_tie_cell],
                         ids=["tg-0.9-n4", "tg-0.3-n6", "open", "bow-tie"])
def test_batched_validation_equals_per_cell_loop(make):
    want = _per_cell_verdict(make())
    with pytest.raises(MeshError) as err:
        validate_mesh(make())
    assert str(err.value) == want


def test_disk_mesh_is_validated_once(monkeypatch):
    from curveremap import mesh as mesh_mod
    seen = []
    real = mesh_mod.validate_mesh

    def counting(mesh, *args, **kwargs):
        seen.append(mesh)
        return real(mesh, *args, **kwargs)

    monkeypatch.setattr(mesh_mod, "validate_mesh", counting)
    m = gen_disk_mesh(4)
    assert seen == [m]


@pytest.mark.parametrize("degree", [1, 2, 3, 5])
def test_cell_samples_equal_boundary_points(degree):
    from curveremap.mesh import _cell_samples, _hypot
    m = rotate_mesh(gen_deformed_square_mesh(4, "gresho_like", 0.4, degree),
                    0.3)
    samples = _cell_samples(m)
    ends, starts = samples[:, :, 16], np.roll(samples[:, :, 0], -1, axis=1)
    gaps = _hypot(ends - starts).max(axis=1)
    for i in range(m.n_cells):
        poly = m.cell_polygon(i)
        assert np.array_equal(samples[i, :, :16].reshape(64, 2),
                              poly.boundary_points(16))
        assert gaps[i] == poly.closure_gap()


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5, "disk", "turned"])
def test_validated_boxes_equal_per_curve_boxes(degree):
    # a mesh's tables, built for all its curves and cells at once, hold
    # each curve's and cell's own values
    from curveremap.geometry import (Aabb, _bezier_conversion,
                                     _uniform_params)
    if degree == "disk":
        m = gen_disk_mesh(4)
    elif degree == "turned":
        m = rotate_mesh(gen_disk_mesh(4), 0.3)
    else:
        m = gen_deformed_square_mesh(4, "gresho_like", 0.4, degree)
    d = m.edge_degree
    vand = np.vander(_uniform_params(d), d + 1, increasing=True)
    boxes = []
    for e in range(m.n_edges):
        curve, nodes = m.edge_curve(e), m.points[m.edges[e]]
        bez = _bezier_conversion(d) @ nodes
        assert np.array_equal(curve.power_coeffs, np.linalg.solve(vand, nodes))
        assert np.array_equal(curve.bezier_points, bez)
        boxes.append(Aabb.of_points(bez))
        assert curve.bbox() == boxes[-1]
    for i in range(m.n_cells):
        poly = m.cell_polygon(i)
        assert poly.corners == tuple(tuple(s.start.tolist())
                                     for s in poly.spans)
        box = boxes[m.cell_edges[i, 0]]
        for e in m.cell_edges[i, 1:]:
            box = box.union(boxes[e])
        assert poly.bbox() == box


@pytest.mark.parametrize("flipped_first", [False, True])
@pytest.mark.parametrize("strict", [True, False])
def test_flipped_cell_map_errors_match_per_cell_loop(flipped_first, strict):
    # two unit squares side by side, the right one traversed clockwise, so
    # its Coons map has J < 0; the jump field never converges on the left
    pts = [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)]
    edges = [[0, 1], [1, 4], [4, 3], [3, 0], [1, 2], [2, 5], [5, 4]]
    cells = [([0, 1, 2, 3], [1, 1, 1, 1]), ([1, 6, 5, 4], [1, -1, -1, -1])]
    if flipped_first:
        cells.reverse()
    m = CurvilinearMesh(pts, edges, [c for c, _ in cells],
                        [d for _, d in cells], validate=False)
    jump = lambda x, y: np.where(x + y < 0.77, 1.0, 0.0)
    for field in (jump, lambda x, y: x * y):
        with pytest.raises(MeshError) as ref:
            _panel_rule_averages(m, field, max_levels=3, strict=strict)
        with pytest.raises(MeshError) as got:
            exact_cell_averages(m, field, max_levels=3, strict=strict)
        assert str(got.value) == str(ref.value)


def test_cell_boxes_are_the_polygon_boxes_and_read_only():
    # the cell corners too: the polygons' own, and read-only
    for mesh in (gen_disk_mesh(4), rotate_mesh(gen_disk_mesh(4), 0.3)):
        assert mesh.cell_boxes.tolist() == [
            [b.xmin, b.ymin, b.xmax, b.ymax]
            for b in (mesh.cell_polygon(i).bbox()
                      for i in range(mesh.n_cells))]
        assert [tuple(map(tuple, c)) for c in mesh.cell_corners.tolist()] \
            == [mesh.cell_polygon(i).corners for i in range(mesh.n_cells)]
        with pytest.raises(ValueError, match="read-only"):
            mesh.cell_boxes[0, 0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            mesh.cell_corners[0, 0, 0] = 0.0
