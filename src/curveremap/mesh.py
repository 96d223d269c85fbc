"""Curvilinear quad meshes: data model, generators, file IO, cell averages.

Edges are stored once and referenced (with a direction sign) by the cells
on either side, which makes the no-gaps/no-overlaps requirement structural.
Analytic deformation generators replace the external Lagrangian meshes used
in the original experiments; the curved disk mesh replaces a Gmsh import.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (SNAP_TOL, Aabb, CurvedPolygon, CurveSpan, ParamCurve,
                       _bezier_conversion, _hypot, _lagrange_basis,
                       _lagrange_dbasis, _polyline_self_intersects, eval_rows,
                       fill_areas, gauss_rule_01, power_rows)


class MeshError(ValueError):
    """Mesh fails a structural or geometric validity requirement."""


class MeshParseError(ValueError):
    """Malformed mesh or field file."""

    def __init__(self, path, line: int, msg: str):
        self.line = line
        super().__init__(f"{path}:{line}: {msg}")


class CurvilinearMesh:
    """Mesh of curvilinear quads with shared degree-d Lagrange edges.

    points  -- (P, 2) vertex and edge-control coordinates
    edges   -- (E, d+1) point indices defining each edge curve
    cell_edges, cell_dirs -- (C, 4) edge indices and +1/-1 traversal signs,
                             in counterclockwise order per cell
    """

    def __init__(self, points, edges, cell_edges, cell_dirs, validate: bool = True):
        self.points = np.ascontiguousarray(points, float)
        self.edges = np.ascontiguousarray(edges, int)
        self.cell_edges = np.ascontiguousarray(cell_edges, int)
        self.cell_dirs = np.ascontiguousarray(cell_dirs, int)
        if self.points.ndim != 2 or self.points.shape[1] != 2:
            raise MeshError("points must be (P, 2)")
        if self.edges.ndim != 2 or self.edges.shape[1] < 2:
            raise MeshError("edges must be (E, d+1) with d >= 1")
        if self.cell_edges.shape != self.cell_dirs.shape or \
                self.cell_edges.ndim != 2 or self.cell_edges.shape[1] != 4:
            raise MeshError("cells must be (C, 4) edge refs with matching dirs")
        if not np.all(np.isfinite(self.points)):
            raise MeshError("mesh points must be finite")
        self.edge_degree = self.edges.shape[1] - 1
        self._tables: tuple[list[ParamCurve], list[CurvedPolygon],
                            np.ndarray] | None = None
        self._areas: np.ndarray | None = None
        self._adjacency = None
        if validate:
            validate_mesh(self)

    @property
    def n_cells(self) -> int:
        return len(self.cell_edges)

    @property
    def n_points(self) -> int:
        return len(self.points)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def _curves_and_polygons(self):
        if self._tables is None:
            self._tables = _mesh_tables(self)
        return self._tables

    def edge_curve(self, e: int) -> ParamCurve:
        return self._curves_and_polygons()[0][e]

    def cell_polygon(self, i: int) -> CurvedPolygon:
        """The 4-span counterclockwise loop of cell i."""
        return self._curves_and_polygons()[1][i]

    @property
    def cell_boxes(self) -> np.ndarray:
        """Read-only (C, 4) rows (xmin, ymin, xmax, ymax) of the cell boxes."""
        return self._curves_and_polygons()[2]

    def cell_areas(self) -> np.ndarray:
        if self._areas is None:
            polys = self._curves_and_polygons()[1]
            fill_areas(polys)
            self._areas = np.array([p.signed_area() for p in polys])
        return self._areas

    @property
    def adjacency(self):
        if self._adjacency is None:
            self._adjacency = build_adjacency(self)
        return self._adjacency

    def __repr__(self):
        return (f"CurvilinearMesh({self.n_cells} cells, {self.n_edges} edges, "
                f"degree {self.edge_degree})")


def _mesh_tables(mesh: CurvilinearMesh):
    """Every edge curve and cell polygon of a mesh, from stacked passes,
    and the cell boxes (C, 4) as (xmin, ymin, xmax, ymax) rows.

    The curves get their power coefficients (one solve for all edges),
    Bezier points and hull boxes; each cell polygon gets its corners, from
    one basis product at t in {0, 1} rounded as CurveSpan.start rounds
    them, and its box, the union of its spans' hull boxes. plain_coeffs
    stays lazy: locate needs it on few curves.
    """
    d = mesh.edge_degree
    nodes = mesh.points[mesh.edges]
    bez = _bezier_conversion(d) @ nodes
    boxes = np.hstack([bez.min(axis=1), bez.max(axis=1)])
    curves = []
    for row, power, ctrl, box in zip(nodes, power_rows(nodes), bez,
                                     boxes.tolist()):
        curve = ParamCurve._of_checked(row)
        curve._power, curve._bezier, curve._bbox = power, ctrl, Aabb(*box)
        curves.append(curve)
    rev = mesh.cell_dirs < 0
    corners = eval_rows(_lagrange_basis(d, rev.ravel().astype(float)),
                        nodes[mesh.cell_edges.ravel()]).reshape(-1, 4, 2)
    cell_boxes = np.hstack([boxes[mesh.cell_edges, :2].min(axis=1),
                            boxes[mesh.cell_edges, 2:].max(axis=1)])
    polys = []
    for edges, back, pts, box in zip(mesh.cell_edges.tolist(), rev.tolist(),
                                     corners.tolist(), cell_boxes.tolist()):
        poly = CurvedPolygon([CurveSpan(curves[e], 1.0, 0.0) if b
                              else CurveSpan(curves[e], 0.0, 1.0)
                              for e, b in zip(edges, back)])
        poly._corners, poly._bbox = tuple(map(tuple, pts)), Aabb(*box)
        polys.append(poly)
    cell_boxes.flags.writeable = False
    return curves, polys, cell_boxes


@dataclass
class Field:
    """Cell-average values attached to a mesh."""

    averages: np.ndarray
    mesh: CurvilinearMesh | None = None
    # best-effort averages: some cell's quadrature did not converge
    nonconverged: bool = False

    def __post_init__(self):
        self.averages = np.asarray(self.averages, float)
        if self.averages.ndim != 1:
            raise MeshError("field averages must be a 1-D array")
        if not np.all(np.isfinite(self.averages)):
            raise MeshError("field averages must be finite")
        if self.mesh is not None and len(self.averages) != self.mesh.n_cells:
            raise MeshError(
                f"field length {len(self.averages)} != cell count "
                f"{self.mesh.n_cells}")


@dataclass
class Adjacency:
    edge_neighbors: list[list[int]]
    vertex_neighbors: list[list[int]]


def build_adjacency(mesh: CurvilinearMesh) -> Adjacency:
    """Edge-sharing and vertex-sharing neighbor lists per cell, each
    sorted, from sorted arrays of (cell, neighbor) keys.

    Reports non-manifold edges (referenced by more than two cells).
    """
    n = mesh.n_cells
    flat = mesh.cell_edges.ravel()
    count = np.bincount(flat, minlength=mesh.n_edges)
    bad = np.flatnonzero(count > 2)
    if len(bad):
        raise MeshError(
            f"non-manifold edges (used by >2 cells): {bad.tolist()}")
    cell = np.repeat(np.arange(n), 4)
    # the two cells of an edge used twice are consecutive in edge order
    order = np.argsort(flat, kind="stable")
    a, b = cell[order][count[flat[order]] == 2].reshape(-1, 2).T
    edge_keys = np.unique(np.concatenate([a * n + b, b * n + a]))
    # the distinct (vertex, cell) incidences, by vertex: every two cells
    # at a vertex are vertex neighbors
    corners = np.where(mesh.cell_dirs > 0, mesh.edges[mesh.cell_edges, 0],
                       mesh.edges[mesh.cell_edges, -1])
    vert, at = np.divmod(np.unique(corners.ravel() * n + cell), n)
    keys = [np.empty(0, int)]
    for off in range(1, len(vert)):
        same = vert[off:] == vert[:-off]
        if not same.any():
            break
        a, b = at[:-off][same], at[off:][same]
        keys += [a * n + b, b * n + a]
    vertex_keys = np.setdiff1d(np.concatenate(keys), edge_keys)
    return Adjacency(_neighbor_lists(edge_keys, n),
                     _neighbor_lists(vertex_keys, n))


def _neighbor_lists(keys: np.ndarray, n: int) -> list[list[int]]:
    """Per cell i, the sorted j of the sorted keys i * n + j."""
    cell, nb = np.divmod(keys, n)
    bounds = np.searchsorted(cell, np.arange(n + 1)).tolist()
    nb = nb.tolist()
    return [nb[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]


def _boundary_chain(mesh: CurvilinearMesh) -> list[tuple[int, int]]:
    """The boundary edges (used by one cell each) as one counterclockwise
    chain of (edge, direction), from the edge that starts at the lowest
    vertex index."""
    flat_e = mesh.cell_edges.ravel().tolist()
    count = np.bincount(flat_e, minlength=mesh.n_edges).tolist()
    first, last = mesh.edges[:, 0].tolist(), mesh.edges[:, -1].tolist()
    nxt = {}  # start vertex -> (end vertex, edge, direction)
    for e, d in zip(flat_e, mesh.cell_dirs.ravel().tolist()):
        if count[e] == 1:
            a, b = (first[e], last[e]) if d > 0 else (last[e], first[e])
            nxt[a] = (b, e, d)
    if not nxt:
        raise MeshError("mesh has no boundary edges")
    chain = []
    start = cur = min(nxt)
    for _ in range(len(nxt) + 1):
        cur, e, d = nxt[cur]
        chain.append((e, d))
        if cur == start:
            break
    else:
        raise MeshError("boundary edges do not chain into a single loop")
    if len(chain) != len(nxt):
        raise MeshError("boundary has more than one loop")
    return chain


def boundary_loop(mesh: CurvilinearMesh) -> CurvedPolygon:
    """The domain boundary as a single CCW loop of edge spans."""
    return CurvedPolygon([CurveSpan(mesh.edge_curve(e), 0.0, 1.0) if d > 0
                          else CurveSpan(mesh.edge_curve(e), 1.0, 0.0)
                          for e, d in _boundary_chain(mesh)])


# cells per call of the sampled crossing test, so that its (cells, 64)
# segment arrays stay in cache: on a 2-core Xeon an n=32 mesh took 14 ms in
# calls of 128 cells and 22 ms in one call
_CROSSING_CHUNK = 128


def _span_params(u: np.ndarray, rev: np.ndarray) -> np.ndarray:
    """Curve parameters (..., len(u)) of the local parameters u on spans
    that run forward (t = u) or reversed (t = 1 - u), as CurveSpan.t_of
    rounds them."""
    h = np.where(rev, -1.0, 1.0)[..., None]
    return np.where(rev, 1.0, 0.0)[..., None] + u * h


def validate_mesh(mesh: CurvilinearMesh) -> None:
    """Structural and geometric mesh validation, in whole-mesh array passes.

    Exact checks: a mesh has cells, index ranges, manifoldness, and the
    partition property (cell areas must sum to the area enclosed by the
    boundary loop). Per cell, as CurvedPolygon.validate checks one loop:
    closure (span ends meet the next span's start within 10 SNAP_TOL of the
    Bezier hull diagonal, at least 1), counterclockwise orientation (the
    batched cell areas), and the sampled crossing test
    (_polyline_self_intersects) on each cell's closed 64-point polyline,
    16 points per span, run on chunks of cells. The error lists the first 8
    invalid cells with the reason of each.
    """
    if mesh.n_cells == 0:
        raise MeshError("mesh has no cells")
    if mesh.n_edges and (mesh.edges.min() < 0
                         or mesh.edges.max() >= mesh.n_points):
        raise MeshError("edge point index out of range")
    if mesh.cell_edges.min() < 0 or mesh.cell_edges.max() >= mesh.n_edges:
        raise MeshError("cell edge index out of range")
    if not np.all(np.abs(mesh.cell_dirs) == 1):
        raise MeshError("cell edge directions must be +1 or -1")
    mesh.adjacency  # builds and checks manifoldness
    areas = mesh.cell_areas()
    total = float(areas.sum())
    bad = _invalid_cells(mesh, areas)
    if bad:
        raise MeshError(f"invalid cells: {bad[:8]}"
                        + (" ..." if len(bad) > 8 else ""))
    domain = boundary_loop(mesh).signed_area()
    if abs(total - domain) > 1e-10 * abs(domain):
        raise MeshError(
            f"cell areas ({total!r}) do not partition the domain "
            f"({domain!r}); relative gap {abs(total - domain) / abs(domain):.3e}")


def _cell_samples(mesh: CurvilinearMesh) -> np.ndarray:
    """Points (C, 4, 17, 2) of every cell's spans at the local parameters
    k/16, k = 0..16: the first 16 of each span are bitwise its
    CurvedPolygon.boundary_points(16), the last is its end."""
    t = _span_params(np.arange(17) / 16.0, mesh.cell_dirs < 0)
    return (_lagrange_basis(mesh.edge_degree, t)
            @ mesh.points[mesh.edges][mesh.cell_edges])


def _invalid_cells(mesh: CurvilinearMesh, areas: np.ndarray) -> list:
    """(cell, reason) of every cell that fails a loop check, in cell order.

    The closure check is scaled by the diagonal of each cell polygon's
    box (the mesh tables' cell boxes), as CurvedPolygon.validate scales it.
    """
    samples = _cell_samples(mesh)
    ends, starts = samples[:, :, 16], np.roll(samples[:, :, 0], -1, axis=1)
    gap = _hypot(ends - starts).max(axis=1)
    boxes = mesh.cell_boxes
    scale = np.maximum(_hypot(boxes[:, 2:] - boxes[:, :2]), 1.0)
    open_ = gap > 10.0 * SNAP_TOL * scale
    cw = ~open_ & (areas <= 0.0)
    loops = samples[:, :, :16].reshape(-1, 64, 2)
    crossed = np.zeros(len(loops), bool)
    todo = np.flatnonzero(~open_ & ~cw)
    for lo in range(0, len(todo), _CROSSING_CHUNK):
        ids = todo[lo:lo + _CROSSING_CHUNK]
        crossed[ids] = _polyline_self_intersects(loops[ids])
    bad = []
    for i in np.flatnonzero(open_ | cw | crossed).tolist():
        if open_[i]:
            bad.append((i, "polygon not closed: max endpoint gap "
                           f"{gap[i]:.3e}"))
        elif cw[i]:
            bad.append((i, "polygon not counterclockwise: signed area "
                           f"{areas[i]:.3e}"))
        else:
            bad.append((i, "polygon boundary self-intersects (sampled)"))
    return bad


# --------------------------------------------------------------------------
# generators

def _index_noise(i: np.ndarray, j: np.ndarray, salt: int) -> np.ndarray:
    """Deterministic per-vertex pseudo-random values in [0, 1).

    A fixed integer hash of the grid indices, so vertex (i, j) always gets
    the same displacement regardless of the mesh size: refined meshes carry
    statistically identical grid-scale irregularity.
    """
    h = (i * np.uint64(2654435761) + j * np.uint64(40503)
         + np.uint64(salt) * np.uint64(2246822519)) & np.uint64(0xFFFFFFFF)
    h ^= h >> np.uint64(16)
    h = (h * np.uint64(2246822519)) & np.uint64(0xFFFFFFFF)
    h ^= h >> np.uint64(13)
    h = (h * np.uint64(3266489917)) & np.uint64(0xFFFFFFFF)
    h ^= h >> np.uint64(16)
    return h.astype(float) / 2.0 ** 32


def _structured_mesh(n: int, degree: int, phi, lo: float, hi: float,
                     roughen: float = 0.0, salt: int = 0,
                     validate: bool = True) -> CurvilinearMesh:
    """n x n grid of quads on [lo, hi]^2, edges sampled through the map phi.

    roughen displaces interior reference vertices by that fraction of a
    cell through a fixed quasi-periodic index pattern, giving the grid a
    self-similar cell-to-cell irregularity at every resolution (the texture
    of a rezoned Lagrangian mesh, which smooth analytic maps lack).
    """
    if n < 2:
        raise MeshError("need n >= 2")
    if degree < 1:
        raise MeshError("edge degree must be >= 1")
    d = degree
    nv = n + 1
    xs = np.linspace(lo, hi, nv)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    verts_ref = np.column_stack([gx.T.ravel(), gy.T.ravel()])  # row-major by j
    if roughen:
        if not 0.0 <= roughen < 0.3:
            raise MeshError("roughen must lie in [0, 0.3)")
        ii, jj = np.meshgrid(np.arange(nv), np.arange(nv), indexing="ij")
        ii = ii.T.ravel().astype(np.uint64)
        jj = jj.T.ravel().astype(np.uint64)
        interior = ((ii > 0) & (ii < n) & (jj > 0) & (jj < n)).astype(float)
        amp = roughen * (hi - lo) / n * interior
        verts_ref[:, 0] += amp * (2.0 * _index_noise(ii, jj, 17 + 1000 * salt) - 1.0)
        verts_ref[:, 1] += amp * (2.0 * _index_noise(ii, jj, 89 + 1000 * salt) - 1.0)

    # horizontal edges v(i, j) -> v(i+1, j), then vertical edges
    # v(i, j) -> v(i, j+1), each in row-major order by j; vertex (i, j) is
    # point j * nv + i
    horiz = (np.arange(nv)[:, None] * nv + np.arange(n)).ravel()
    vert = np.arange(n * nv)
    ends = np.column_stack([np.r_[horiz, vert], np.r_[horiz + 1, vert + nv]])
    # d - 1 interior points per edge, at k/d along its reference chord,
    # numbered after the vertices in edge order
    a, b = verts_ref[ends[:, 0]], verts_ref[ends[:, 1]]
    frac = (np.arange(1, d) / d)[:, None]
    interior_ref = (a[:, None] + (b - a)[:, None] * frac).reshape(-1, 2)
    inner = nv * nv + np.arange(len(interior_ref)).reshape(len(ends), d - 1)
    edge_rows = np.column_stack([ends[:, :1], inner, ends[:, 1:]])
    points = phi(np.vstack([verts_ref, interior_ref]))

    # cell (i, j) is he(i, j), ve(i+1, j), he(i, j+1), ve(i, j), with
    # he(i, j) = j n + i and ve(i, j) = n nv + j nv + i
    j, i = np.divmod(np.arange(n * n), n)
    left = n * nv + j * nv + i
    cell_edges = np.column_stack([j * n + i, left + 1, (j + 1) * n + i, left])
    cell_dirs = np.tile([1, 1, -1, -1], (n * n, 1))
    return CurvilinearMesh(points, edge_rows, cell_edges, cell_dirs,
                           validate=validate)


def _phi_identity(p: np.ndarray) -> np.ndarray:
    return p.copy()


def _phi_taylor_green(amplitude: float):
    def phi(p):
        x, y = p[:, 0], p[:, 1]
        return np.column_stack([
            x + amplitude * np.sin(np.pi * x) * np.sin(2 * np.pi * y),
            y - amplitude * np.sin(2 * np.pi * x) * np.sin(np.pi * y)])
    return phi


def _phi_gresho(amplitude: float):
    # area-preserving swirl about the domain center, compactly supported
    # inside r < 1/2 with a C^3 angular profile
    def phi(p):
        dx = p[:, 0] - 0.5
        dy = p[:, 1] - 0.5
        r = np.hypot(dx, dy)
        ang = np.where(r < 0.5, amplitude * np.cos(np.pi * r) ** 4, 0.0)
        ca, sa = np.cos(ang), np.sin(ang)
        return np.column_stack([0.5 + ca * dx - sa * dy,
                                0.5 + sa * dx + ca * dy])
    return phi


_SQUARE_KINDS = ("identity", "taylor_green_like", "gresho_like")


def gen_deformed_square_mesh(n: int, kind: str, amplitude: float = 0.0,
                             degree: int = 2,
                             roughen: float = 0.0) -> CurvilinearMesh:
    """Deformed n x n mesh of [0, 1]^2 with degree-d Lagrange edges.

    A smooth deformation map is applied to the uniform grid; every edge is
    the degree-d interpolant of the mapped straight reference edge. All
    deformations fix the domain boundary pointwise. An optional grid-scale
    roughening (fraction of a cell) recreates the cell-to-cell irregularity
    of rezoned Lagrangian meshes. Amplitudes that tangle cells are rejected
    by mesh validation.
    """
    if kind not in _SQUARE_KINDS:
        raise MeshError(f"unknown mesh kind {kind!r} (choose from {_SQUARE_KINDS})")
    if amplitude < 0.0:
        raise MeshError("amplitude must be non-negative")
    if kind == "identity" or amplitude == 0.0:
        phi = _phi_identity
    elif kind == "taylor_green_like":
        phi = _phi_taylor_green(amplitude)
    else:
        phi = _phi_gresho(amplitude)
    salt = _SQUARE_KINDS.index(kind)
    try:
        return _structured_mesh(n, degree, phi, 0.0, 1.0, roughen=roughen,
                                salt=salt)
    except MeshError as exc:
        raise MeshError(
            f"{kind} mesh with n={n}, amplitude={amplitude} is invalid: {exc}"
        ) from exc


def gen_disk_mesh(n: int, degree: int = 2) -> CurvilinearMesh:
    """Curved mesh of the unit disk from an analytic square-to-disk map.

    The map (x, y) -> (x sqrt(1 - y^2/2), y sqrt(1 - x^2/2)) sends the
    boundary of [-1, 1]^2 exactly onto the unit circle; boundary nodes are
    then redistributed to uniform angles. Uniform angular spacing makes the
    boundary node set invariant under rotations by multiples of pi/4 (for
    even n*degree), so a rotated copy of the mesh bounds the exact same
    region and rigid-rotation remaps have no boundary coverage mismatch.
    """
    def phi(p):
        x, y = p[:, 0], p[:, 1]
        return np.column_stack([x * np.sqrt(1.0 - 0.5 * y * y),
                                y * np.sqrt(1.0 - 0.5 * x * x)])
    # only the mesh with the uniform boundary is validated
    mesh = _structured_mesh(n, degree, phi, -1.0, 1.0, validate=False)
    _uniformize_disk_boundary(mesh)
    return CurvilinearMesh(mesh.points, mesh.edges, mesh.cell_edges,
                           mesh.cell_dirs)


def _uniformize_disk_boundary(mesh: CurvilinearMesh) -> None:
    """Move boundary nodes to uniform circle angles (in boundary order)."""
    d = mesh.edge_degree
    chain = _boundary_chain(mesh)
    node_ids: list[int] = []
    for e, dr in chain:
        row = mesh.edges[e] if dr > 0 else mesh.edges[e][::-1]
        node_ids.extend(row[:-1].tolist())
    total = len(node_ids)
    p0 = mesh.points[node_ids[0]]
    theta0 = math.atan2(p0[1], p0[0])
    # the chain runs counterclockwise
    ang = theta0 + 2.0 * np.pi * np.arange(total) / total
    mesh.points[node_ids, 0] = np.cos(ang)
    mesh.points[node_ids, 1] = np.sin(ang)
    # re-sample interior nodes of edges that end on a moved boundary vertex
    boundary_verts = {node_ids[k] for k in range(0, total, d)}
    boundary_edges = {e for e, _ in chain}
    for e in range(mesh.n_edges):
        if e in boundary_edges:
            continue  # already handled
        row = mesh.edges[e]
        if int(row[0]) in boundary_verts or int(row[-1]) in boundary_verts:
            a, b = mesh.points[row[0]], mesh.points[row[-1]]
            for k in range(1, d):
                mesh.points[row[k]] = a + (b - a) * (k / d)


def rotate_mesh(mesh: CurvilinearMesh, angle: float) -> CurvilinearMesh:
    """Rigid rotation of every mesh point about the origin."""
    c, s = math.cos(angle), math.sin(angle)
    x, y = mesh.points[:, 0], mesh.points[:, 1]
    # the leading 0.0 turns a -0.0 product into +0.0, as a rotation about
    # the centre (0, 0) rounds it
    pts = np.column_stack([0.0 + c * x - s * y, 0.0 + s * x + c * y])
    return CurvilinearMesh(pts, mesh.edges, mesh.cell_edges, mesh.cell_dirs,
                           validate=False)


# --------------------------------------------------------------------------
# file IO

def write_mesh(mesh: CurvilinearMesh, path) -> None:
    """Line-oriented text format; 17 significant digits round-trip floats."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"curvemesh 1 {mesh.edge_degree}\n")
        fh.write(f"points {mesh.n_points}\n")
        for x, y in mesh.points:
            fh.write(f"{x:.17g} {y:.17g}\n")
        fh.write(f"edges {mesh.n_edges}\n")
        for row in mesh.edges:
            fh.write(" ".join(str(int(v)) for v in row) + "\n")
        fh.write(f"cells {mesh.n_cells}\n")
        for erow, drow in zip(mesh.cell_edges, mesh.cell_dirs):
            fh.write(" ".join(("+" if d > 0 else "-") + str(int(e))
                              for e, d in zip(erow, drow)) + "\n")


class _LineReader:
    def __init__(self, path):
        self.path = path
        with open(path, "r", encoding="utf-8") as fh:
            self.raw = fh.readlines()
        self.pos = 0

    def next(self) -> tuple[int, str]:
        while self.pos < len(self.raw):
            self.pos += 1
            line = self.raw[self.pos - 1].split("#", 1)[0].strip()
            if line:
                return self.pos, line
        raise MeshParseError(self.path, len(self.raw) + 1,
                             "unexpected end of file")


def _read_int(path, ln: int, tok: str, what: str, minimum: int = 0) -> int:
    """tok as an integer of at least minimum; otherwise MeshParseError
    naming what."""
    try:
        value = int(tok)
    except ValueError:
        value = minimum - 1
    if value < minimum:
        raise MeshParseError(path, ln, f"bad {what} {tok!r}")
    return value


def read_mesh(path) -> CurvilinearMesh:
    """Read and validate a mesh file; malformed input raises MeshParseError."""
    rd = _LineReader(path)
    ln, header = rd.next()
    parts = header.split()
    if len(parts) != 3 or parts[0] != "curvemesh" or parts[1] != "1":
        raise MeshParseError(path, ln, f"bad header {header!r}")
    degree = _read_int(path, ln, parts[2], "edge degree", minimum=1)

    def section(name):
        ln, line = rd.next()
        parts = line.split()
        if len(parts) != 2 or parts[0] != name:
            raise MeshParseError(path, ln, f"expected '{name} <count>', got {line!r}")
        return _read_int(path, ln, parts[1], "count")

    npts = section("points")
    pts = np.empty((npts, 2))
    for k in range(npts):
        ln, line = rd.next()
        parts = line.split()
        if len(parts) != 2:
            raise MeshParseError(path, ln, f"expected 'x y', got {line!r}")
        try:
            pts[k] = (float(parts[0]), float(parts[1]))
        except ValueError:
            raise MeshParseError(path, ln, f"bad coordinate in {line!r}") from None

    nedges = section("edges")
    edges = np.empty((nedges, degree + 1), int)
    for k in range(nedges):
        ln, line = rd.next()
        parts = line.split()
        if len(parts) != degree + 1:
            raise MeshParseError(
                path, ln, f"expected {degree + 1} point indices, got {line!r}")
        try:
            edges[k] = [int(p) for p in parts]
        except ValueError:
            raise MeshParseError(path, ln, f"bad index in {line!r}") from None

    ncells = section("cells")
    cell_edges = np.empty((ncells, 4), int)
    cell_dirs = np.empty((ncells, 4), int)
    for k in range(ncells):
        ln, line = rd.next()
        parts = line.split()
        if len(parts) != 4:
            raise MeshParseError(path, ln, f"expected 4 signed edge refs, got {line!r}")
        for c, tok in enumerate(parts):
            if not tok or tok[0] not in "+-" or not tok[1:].isdigit():
                raise MeshParseError(
                    path, ln, f"edge ref {tok!r} must look like +3 or -3")
            cell_edges[k, c] = int(tok[1:])
            cell_dirs[k, c] = 1 if tok[0] == "+" else -1
    try:
        return CurvilinearMesh(pts, edges, cell_edges, cell_dirs)
    except MeshError as exc:
        raise MeshError(f"{path}: mesh failed validation: {exc}") from exc


def write_field(fld: Field, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"field 1 {len(fld.averages)}\n")
        for v in fld.averages:
            fh.write(f"{v:.17g}\n")


def read_field(path, mesh: CurvilinearMesh | None = None) -> Field:
    rd = _LineReader(path)
    ln, header = rd.next()
    parts = header.split()
    if len(parts) != 3 or parts[0] != "field" or parts[1] != "1":
        raise MeshParseError(path, ln, f"bad field header {header!r}")
    vals = np.empty(_read_int(path, ln, parts[2], "count"))
    for k in range(len(vals)):
        ln, line = rd.next()
        try:
            vals[k] = float(line)
        except ValueError:
            raise MeshParseError(path, ln, f"bad value {line!r}") from None
    return Field(vals, mesh)


# --------------------------------------------------------------------------
# exact cell averages via the transfinite (Coons) cell map

# Gauss points per panel and direction of the cell-map quadrature
_PANEL_POINTS = 8
# quadrature points per evaluation chunk of exact_cell_averages
_AVERAGE_CHUNK_POINTS = 2 ** 14
# the relative tolerance at which exact_cell_averages takes an average
_AVERAGE_REL_TOL = 1e-13


def _coons_map(nodes, rev, xs, ys):
    """Points x, y and Jacobian determinants, each (k, n, n) in "ij" order
    (xi slowest), of the Coons (transfinite) maps of k cells at the grids
    xs x ys, (k, n) each.

    nodes (k, 4, d+1, 2) and rev (k, 4) give each cell's four spans. The
    map is formed on grid lines and combined once, in the form of Gordon
    and Hall: B and T, the bottom and top curves less the linear
    interpolants of their corners, depend on xi only, and the left and
    right curves cl and cr on eta only, so

        F       = B + eta (T - B) + cl + xi (cr - cl)
        dF/dxi  = dB + eta (dT - dB) + (cr - cl)
        dF/deta = (T - B) + dcl + xi (dcr - dcl).
    """
    d = nodes.shape[2] - 1

    def curve(s, u):  # points and derivatives (2, k, n) along span s
        t = _span_params(u, rev[:, s])
        sign = np.where(rev[:, s], -1.0, 1.0)[:, None, None]
        return (np.moveaxis(_lagrange_basis(d, t) @ nodes[:, s], -1, 0),
                np.moveaxis(_lagrange_dbasis(d, t) @ nodes[:, s] * sign,
                            -1, 0))

    def corner(s, t):  # (2, k, 1), rounded as ParamCurve.eval
        return eval_rows(_lagrange_basis(d, t), nodes[:, s]).T[:, :, None]

    end = np.where(rev, 0.0, 1.0)  # each span's t1
    p00 = corner(0, 1.0 - end[:, 0])
    p10, p11, p01 = (corner(s, end[:, s]) for s in range(3))
    (cb, dcb), (ct, dct) = curve(0, xs), curve(2, 1.0 - xs)
    (cl, dcl), (cr, dcr) = curve(3, 1.0 - ys), curve(1, ys)
    # the grid is (2, k, n, n): xi lines along axis 2, eta lines along 3
    b = (cb - (p00 + xs * (p10 - p00)))[..., None]
    tb = (ct - (p01 + xs * (p11 - p01)))[..., None] - b
    db = (dcb - (p10 - p00))[..., None]
    dtb = (-dct - (p11 - p01))[..., None] - db
    cl, dcl = cl[:, :, None], -dcl[:, :, None]
    rl, drl = cr[:, :, None] - cl, dcr[:, :, None] - dcl
    xi_, eta_ = xs[:, :, None], ys[:, None, :]
    F = (eta_ * tb + b) + (xi_ * rl + cl)
    dF_dxi = (eta_ * dtb + db) + rl
    dF_deta = (tb + dcl) + xi_ * drl
    jac = dF_dxi[0] * dF_deta[1] - dF_dxi[1] * dF_deta[0]
    return F[0], F[1], jac


def _coons_integrals(nodes, rev, func, panels: int, x0, y0, h):
    """Integrals of func over the Coons maps (_coons_map) of k items, each
    a sub-square of one cell's unit square, and the minimum Jacobian
    determinant of each cell map at the item's Gauss points.

    nodes (k, 4, d+1, 2) and rev (k, 4) give each item's cell's four
    spans; x0, y0 and h, (k,) arrays, are the item's lower-left corner
    and side in the unit square. An item carries panels x panels panels
    of 8 x 8 Gauss points. func is called once, on 1-D arrays of every
    point.

    Returns the panel sums (k, panels^2), panel (a, b) at a * panels + b
    with a along xi, and the minima (k,).
    """
    k = len(nodes)
    xi1, w1 = gauss_rule_01(_PANEL_POINTS)
    offs = np.arange(panels) / panels
    x = (offs[:, None] + xi1[None, :] / panels).ravel()
    x0, y0, h = (a[:, None] for a in (x0, y0, h))
    xs, ys, w = x0 + h * x, y0 + h * x, np.tile(w1 / panels, panels) * h
    px, py, jac = _coons_map(nodes, rev, xs, ys)
    vals = np.asarray(func(px.ravel(), py.ravel()), float)
    if vals.ndim:
        vals = vals.reshape(jac.shape)
    terms = vals * jac * (w[..., :, None] * w[..., None, :])
    p = _PANEL_POINTS
    per = (terms.reshape(k, panels, p, panels, p).swapaxes(2, 3)
           .reshape(k, panels * panels, p * p))
    return np.sum(per, axis=2), jac.reshape(k, -1).min(axis=1)


def exact_cell_averages(mesh: CurvilinearMesh, func, max_levels: int = 10,
                        strict: bool = True) -> Field:
    """Cell averages of an analytic field by adaptive cell-map quadrature.

    func must accept numpy arrays (x, y) and evaluate elementwise. Each
    cell's Coons map carries panels of 8 x 8 Gauss points on its unit
    square, and every cell starts as one panel. Each round splits every
    open panel of every open cell into four and sums the quarters' 8 x 8
    rules, so the cell's two estimates differ by the sum of its split
    panels' changes. A cell converges when that sum is within 1e-13
    relative (of max(|estimate|, 1e-3 area)); a split panel whose change
    is within its area share of the cell's tolerance is closed, the
    others' quarters stay open. The finest panels are 2^max_levels to a
    side, with at most 1200 Gauss points a side. A cell still open after
    the finest round is an error in strict mode (naming the lowest-index
    such cell and its last estimate) and a best-effort result otherwise,
    flagged on the field as nonconverged (the field is then typically
    discontinuous). A map with J <= 0 at a Gauss point is an error.

    The panels are one table, each cell's panels together and in an order
    of their own (a panel that stays open is replaced by its four
    quarters, in place), so each cell's estimate is a sequential sum in
    that order. Each round evaluates all its panels at once, in chunks of
    about 2^14 quadrature points, with elementwise arithmetic and per-panel
    sums, so the averages do not depend on the chunks.
    """
    areas = mesh.cell_areas()
    nodes = mesh.points[mesh.edges][mesh.cell_edges]
    rev = mesh.cell_dirs < 0
    n = mesh.n_cells
    flipped = np.zeros(n, bool)

    def panel_sums(cell, x0, y0, h, panels):
        """The (len(cell), panels^2) sub-panel sums of the given panels."""
        out = np.empty((len(cell), panels * panels))
        chunk = _AVERAGE_CHUNK_POINTS // (_PANEL_POINTS * panels) ** 2
        for lo in range(0, len(cell), chunk):
            at = slice(lo, lo + chunk)
            c = cell[at]
            out[at], jmin = _coons_integrals(
                nodes[c], rev[c], func, panels, x0[at], y0[at], h[at])
            flipped[c[jmin <= 0.0]] = True
        return out

    def unflipped(active):
        active = active[~flipped[active]]
        if flipped.any():
            # an error is raised; only a cell before the first flipped one
            # can change which
            active = active[active < np.argmax(flipped)]
        return active

    # the panel table: cell, lower-left corner, side, integral, open
    cell = np.arange(n)
    x0, y0, h = np.zeros(n), np.zeros(n), np.ones(n)
    val = panel_sums(cell, x0, y0, h, 1)[:, 0]
    prev = val.copy()
    active = unflipped(cell)
    is_open = np.isin(cell, active)
    for lv in range(1, max_levels + 1):
        if not len(active) or 2 ** lv * _PANEL_POINTS > 1200:
            break
        split = np.flatnonzero(is_open)
        quarters = np.zeros((len(cell), 4))
        quarters[split] = panel_sums(cell[split], x0[split], y0[split],
                                     h[split], 2)
        q = quarters[split]
        new = q[:, 0] + q[:, 1] + q[:, 2] + q[:, 3]
        change = new - val[split]
        val[split] = new
        cur = np.bincount(cell, val, n)
        diff = np.bincount(cell[split], change, n)
        tol = _AVERAGE_REL_TOL * np.maximum(np.abs(cur), 1e-3 * areas)
        prev[active] = cur[active]
        active = unflipped(active[~(np.abs(diff[active]) <= tol[active])])
        # a split panel whose change exceeds its share of the cell's
        # tolerance stays open, as its four quarters
        grow = np.zeros(len(cell), bool)
        grow[split] = np.abs(change) > h[split] ** 2 * tol[cell[split]]
        live = np.flatnonzero(np.isin(cell, active))
        reps = np.where(grow[live], 4, 1)
        idx = np.repeat(live, reps)
        kid = np.arange(len(idx)) - np.repeat(np.cumsum(reps) - reps, reps)
        is_open = grow[idx]
        side = np.where(is_open, 0.5, 1.0) * h[idx]
        x0 = x0[idx] + np.where(is_open, kid // 2, 0) * side
        y0 = y0[idx] + np.where(is_open, kid % 2, 0) * side
        h, cell = side, cell[idx]
        val = np.where(is_open, quarters[idx, kid], val[idx])
    if strict and len(active):
        i = int(active[0])  # below every flipped cell
        raise MeshError(
            f"cell {i}: average quadrature did not converge after "
            f"{max_levels} levels (last value {float(prev[i])!r})")
    if flipped.any():
        raise MeshError("cell map is not orientation-preserving")
    return Field(prev / areas, mesh, nonconverged=bool(len(active)))
