"""Frozen mesh set-up: the oracles of the array passes in `mesh.py`.

- `coons_map` and `coons_integrals` are the blend form of the Coons cell
  map, as `mesh._coons_integrals` computed it before the boundary curves
  were combined with their bilinear corner terms on grid lines: every
  blend and derivative term is formed on the full (k, n, n, 2) grid.
- `structured_arrays` builds the points, edges and cell tables of
  `mesh._structured_mesh` with the per-edge and per-cell loops it used.
- `adjacency` is `mesh.build_adjacency` as the dict-and-set loop it was.
"""

from __future__ import annotations

import numpy as np

from curveremap.geometry import (_lagrange_basis, _lagrange_dbasis, eval_rows,
                                 gauss_rule_01)
from curveremap.mesh import (_PANEL_POINTS, MeshError, _index_noise,
                             _span_params)


def coons_map(nodes, rev, xs, ys):
    """Points F (k, n, n, 2) and Jacobian determinants (k, n, n) of the
    Coons maps of k cells at the grid xs x ys ((k, n) each, "ij" order)."""
    d = nodes.shape[2] - 1

    def curve(s, u):
        t = _span_params(u, rev[:, s])
        sign = np.where(rev[:, s], -1.0, 1.0)[:, None, None]
        return (_lagrange_basis(d, t) @ nodes[:, s],
                _lagrange_dbasis(d, t) @ nodes[:, s] * sign)

    def corner(s, t):  # one point per cell, rounded as ParamCurve.eval
        return eval_rows(_lagrange_basis(d, t), nodes[:, s])[:, None, None]

    end = np.where(rev, 0.0, 1.0)  # each span's t1
    p00 = corner(0, 1.0 - end[:, 0])
    p10, p11, p01 = (corner(s, end[:, s]) for s in range(3))
    (cb, dcb), (ct, dct) = curve(0, xs), curve(2, 1.0 - xs)
    (cl, dcl), (cr, dcr) = curve(3, 1.0 - ys), curve(1, ys)
    # xi runs along axis 1 of the grid and eta along axis 2
    cb, ct, dcb, dct = (a[:, :, None] for a in (cb, ct, dcb, -dct))
    cl, cr, dcl, dcr = (a[:, None] for a in (cl, cr, -dcl, dcr))
    xi_ = xs[..., :, None, None]
    eta_ = ys[..., None, :, None]
    blend = ((1 - xi_) * (1 - eta_) * p00 + xi_ * (1 - eta_) * p10
             + (1 - xi_) * eta_ * p01 + xi_ * eta_ * p11)
    F = (1 - eta_) * cb + eta_ * ct + (1 - xi_) * cl + xi_ * cr - blend
    dF_dxi = ((1 - eta_) * dcb + eta_ * dct + (cr - cl)
              - (-(1 - eta_) * p00 + (1 - eta_) * p10
                 - eta_ * p01 + eta_ * p11))
    dF_deta = ((ct - cb) + (1 - xi_) * dcl + xi_ * dcr
               - (-(1 - xi_) * p00 - xi_ * p10
                  + (1 - xi_) * p01 + xi_ * p11))
    jac = (dF_dxi[..., 0] * dF_deta[..., 1]
           - dF_dxi[..., 1] * dF_deta[..., 0])
    return F, jac


def coons_integrals(nodes, rev, func, panels: int, x0, y0, h):
    """`mesh._coons_integrals` in the blend form: the panel sums
    (k, panels^2) and the minimum Jacobian determinant (k,) of each item."""
    k = len(nodes)
    xi1, w1 = gauss_rule_01(_PANEL_POINTS)
    offs = np.arange(panels) / panels
    x = (offs[:, None] + xi1[None, :] / panels).ravel()
    x0, y0, h = (a[:, None] for a in (x0, y0, h))
    xs, ys, w = x0 + h * x, y0 + h * x, np.tile(w1 / panels, panels) * h
    F, jac = coons_map(nodes, rev, xs, ys)
    pts = F.reshape(-1, 2)
    vals = np.asarray(func(pts[:, 0], pts[:, 1]), float)
    if vals.ndim:
        vals = vals.reshape(jac.shape)
    terms = vals * jac * (w[..., :, None] * w[..., None, :])
    p = _PANEL_POINTS
    per = (terms.reshape(k, panels, p, panels, p).swapaxes(2, 3)
           .reshape(k, panels * panels, p * p))
    return np.sum(per, axis=2), jac.reshape(k, -1).min(axis=1)


def structured_arrays(n: int, degree: int, phi, lo: float, hi: float,
                      roughen: float = 0.0, salt: int = 0):
    """(points, edges, cell_edges, cell_dirs) of the n x n structured mesh,
    built edge by edge and cell by cell."""
    d = degree
    nv = n + 1
    xs = np.linspace(lo, hi, nv)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    verts_ref = np.column_stack([gx.T.ravel(), gy.T.ravel()])  # row-major by j
    if roughen:
        ii, jj = np.meshgrid(np.arange(nv), np.arange(nv), indexing="ij")
        ii = ii.T.ravel().astype(np.uint64)
        jj = jj.T.ravel().astype(np.uint64)
        interior = ((ii > 0) & (ii < n) & (jj > 0) & (jj < n)).astype(float)
        amp = roughen * (hi - lo) / n * interior
        verts_ref[:, 0] += amp * (2.0 * _index_noise(ii, jj, 17 + 1000 * salt) - 1.0)
        verts_ref[:, 1] += amp * (2.0 * _index_noise(ii, jj, 89 + 1000 * salt) - 1.0)

    def vid(i, j):
        return j * nv + i

    edges = []
    edge_pts_ref = []
    # horizontal edges he(i, j): v(i, j) -> v(i+1, j)
    for j in range(nv):
        for i in range(n):
            a, b = verts_ref[vid(i, j)], verts_ref[vid(i + 1, j)]
            edges.append((vid(i, j), vid(i + 1, j)))
            edge_pts_ref.append((a, b))
    # vertical edges ve(i, j): v(i, j) -> v(i, j+1)
    for j in range(n):
        for i in range(nv):
            a, b = verts_ref[vid(i, j)], verts_ref[vid(i, j + 1)]
            edges.append((vid(i, j), vid(i, j + 1)))
            edge_pts_ref.append((a, b))

    def he(i, j):
        return j * n + i

    def ve(i, j):
        return n * nv + j * nv + i

    n_vert_pts = len(verts_ref)
    edge_rows = []
    interior_ref = []
    next_pt = n_vert_pts
    for (va, vb), (a, b) in zip(edges, edge_pts_ref):
        row = [va]
        for k in range(1, d):
            interior_ref.append(a + (b - a) * (k / d))
            row.append(next_pt)
            next_pt += 1
        row.append(vb)
        edge_rows.append(row)

    ref_points = np.vstack([verts_ref] + ([np.array(interior_ref)]
                                          if interior_ref else []))
    points = phi(ref_points)

    cell_edges = np.empty((n * n, 4), int)
    cell_dirs = np.empty((n * n, 4), int)
    for j in range(n):
        for i in range(n):
            c = j * n + i
            cell_edges[c] = (he(i, j), ve(i + 1, j), he(i, j + 1), ve(i, j))
            cell_dirs[c] = (1, 1, -1, -1)
    return points, np.array(edge_rows), cell_edges, cell_dirs


def adjacency(mesh):
    """(edge_neighbors, vertex_neighbors) of every cell, from dicts of the
    cells at each edge and vertex."""
    edge_cells: dict[int, list[int]] = {}
    for i in range(mesh.n_cells):
        for e in mesh.cell_edges[i]:
            edge_cells.setdefault(int(e), []).append(i)
    bad = {e: cs for e, cs in edge_cells.items() if len(cs) > 2}
    if bad:
        raise MeshError(f"non-manifold edges (used by >2 cells): {sorted(bad)}")
    edge_nb: list[set[int]] = [set() for _ in range(mesh.n_cells)]
    for cs in edge_cells.values():
        if len(cs) == 2:
            a, b = cs
            edge_nb[a].add(b)
            edge_nb[b].add(a)
    vertex_cells: dict[int, set[int]] = {}
    corners = []
    for i in range(mesh.n_cells):
        out = []
        for e, d in zip(mesh.cell_edges[i], mesh.cell_dirs[i]):
            row = mesh.edges[int(e)]
            out.append(int(row[0] if d > 0 else row[-1]))
        corners.append(out)
    for i, cs in enumerate(corners):
        for v in cs:
            vertex_cells.setdefault(v, set()).add(i)
    vert_nb: list[set[int]] = [set() for _ in range(mesh.n_cells)]
    for i, cs in enumerate(corners):
        for v in cs:
            vert_nb[i] |= vertex_cells[v]
    out_e, out_v = [], []
    for i in range(mesh.n_cells):
        out_e.append(sorted(edge_nb[i]))
        out_v.append(sorted(vert_nb[i] - edge_nb[i] - {i}))
    return out_e, out_v
