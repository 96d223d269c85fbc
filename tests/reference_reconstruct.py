"""Per-cell WENO reconstruction, kept as the reference for the batched one.

This is the cell-by-cell algorithm that `curveremap.reconstruct` computes
in batches: one `lstsq` per cell and stencil, moments per cell pair, and
smoothness indicators summed over squared-derivative coefficient arrays.
It holds its boundary samples and moments in a local object for the
duration of one call, so it keeps no state between calls. Tests compare
the package's polynomials, weights and warnings against it.
"""

from __future__ import annotations

import math

import numpy as np

from curveremap.geometry import gauss_rule_01
from reference_integrate import Poly2
from curveremap.reconstruct import _ORDER_DEGREE, EPSILON, GAMMAS


def one_ring(adj, cells: set[int]) -> set[int]:
    out = set(cells)
    for j in cells:
        out |= set(adj.edge_neighbors[j]) | set(adj.vertex_neighbors[j])
    return out


def stencil_levels(mesh, i: int, order: int) -> list[list[int]]:
    adj = mesh.adjacency
    s1 = one_ring(adj, {i})
    levels = [[i], sorted(s1)]
    if order >= 5:
        levels.append(sorted(one_ring(adj, s1)))
    return levels


def monomials(k: int) -> list[tuple[int, int]]:
    return [(a, s - a) for s in range(1, k + 1) for a in range(s, -1, -1)]


class Geometry:
    """Boundary samples, frames and monomial moments of one mesh."""

    def __init__(self, mesh, qmax: int):
        self.qmax = qmax
        d = mesh.edge_degree
        ng = max(2, math.ceil((qmax + 2) * d / 2))
        xi, w = gauss_rule_01(ng)
        E = mesh.n_edges
        ex = np.empty((E, ng))
        ey = np.empty((E, ng))
        ewdy = np.empty((E, ng))
        for e in range(E):
            c = mesh.edge_curve(e)
            p = c.eval(xi)
            dv = c.deriv(xi)
            ex[e], ey[e] = p[:, 0], p[:, 1]
            ewdy[e] = dv[:, 1] * w
        C = mesh.n_cells
        self.x = np.empty((C, 4 * ng))
        self.y = np.empty((C, 4 * ng))
        self.wdy = np.empty((C, 4 * ng))
        for i in range(C):
            for k, (e, dr) in enumerate(zip(mesh.cell_edges[i], mesh.cell_dirs[i])):
                sl = slice(k * ng, (k + 1) * ng)
                if dr > 0:
                    self.x[i, sl] = ex[e]
                    self.y[i, sl] = ey[e]
                    self.wdy[i, sl] = ewdy[e]
                else:
                    self.x[i, sl] = ex[e, ::-1]
                    self.y[i, sl] = ey[e, ::-1]
                    self.wdy[i, sl] = -ewdy[e, ::-1]
        self.area = mesh.cell_areas().copy()
        self.cx = 0.5 * np.einsum("cs,cs->c", self.x ** 2, self.wdy) / self.area
        self.cy = np.einsum("cs,cs,cs->c", self.x, self.y, self.wdy) / self.area
        self.h = np.sqrt(self.area)
        self._moments: dict[tuple[int, int], np.ndarray] = {}

    def moments(self, j: int, i: int) -> np.ndarray:
        """M[a, b] = integral over cell j of X_i^a Y_i^b (frame of cell i)."""
        key = (j, i)
        M = self._moments.get(key)
        if M is None:
            q = self.qmax
            X = (self.x[j] - self.cx[i]) / self.h[i]
            Y = (self.y[j] - self.cy[i]) / self.h[i]
            XP = np.vander(X, q + 2, increasing=True)
            YP = np.vander(Y, q + 1, increasing=True)
            raw = np.einsum("sm,sn,s->mn", XP[:, 1:], YP, self.wdy[j])
            M = self.h[i] * raw / np.arange(1, q + 2)[:, None]
            self._moments[key] = M
        return M


def lsq_fit(geo: Geometry, avg, i: int, cells, degree: int):
    """Conservative least-squares fit on one stencil: (Poly2, degree)."""
    rows = [j for j in cells if j != i]
    mi = geo.moments(i, i)
    area_i = geo.area[i]
    for k in range(degree, 0, -1):
        mons = monomials(k)
        if len(rows) < len(mons):
            continue
        A = np.empty((len(rows), len(mons)))
        b = np.empty(len(rows))
        for r, j in enumerate(rows):
            mj = geo.moments(j, i)
            aj = geo.area[j]
            for c, (p, q) in enumerate(mons):
                A[r, c] = mj[p, q] - aj * mi[p, q] / area_i
            b[r] = (avg[j] - avg[i]) * aj
        col = np.linalg.norm(A, axis=0)
        if np.any(col == 0.0):
            continue
        try:
            sol, _res, rank, _sv = np.linalg.lstsq(A / col, b, rcond=1e-4)
        except np.linalg.LinAlgError:
            continue
        if rank < len(mons) or not np.all(np.isfinite(sol)):
            continue
        sol = sol / col
        coeffs = np.zeros((k + 1, k + 1))
        c0 = avg[i]
        for c, (p, q) in enumerate(mons):
            coeffs[p, q] = sol[c]
            c0 -= sol[c] * mi[p, q] / area_i
        coeffs[0, 0] = c0
        return Poly2(coeffs, geo.cx[i], geo.cy[i], geo.h[i]), k
    return Poly2.constant(avg[i], geo.cx[i], geo.cy[i], geo.h[i]), 0


def fit_with_growth(mesh, geo, avg, i: int, cells, degree: int):
    poly, got = lsq_fit(geo, avg, i, cells, degree)
    grown = set(cells)
    for _ in range(2):
        if got >= degree:
            break
        bigger = one_ring(mesh.adjacency, grown)
        if bigger == grown:
            break
        grown = bigger
        poly, got = lsq_fit(geo, avg, i, sorted(grown), degree)
    return poly, got


def _conv2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros((a.shape[0] + b.shape[0] - 1, a.shape[1] + b.shape[1] - 1))
    for p in range(a.shape[0]):
        for q in range(a.shape[1]):
            if a[p, q] != 0.0:
                out[p:p + b.shape[0], q:q + b.shape[1]] += a[p, q] * b
    return out


def _coeff_deriv(c: np.ndarray, l1: int, l2: int) -> np.ndarray:
    for _ in range(l1):
        n = c.shape[0]
        c = c[1:] * np.arange(1, n)[:, None] if n > 1 else np.zeros((1, c.shape[1]))
    for _ in range(l2):
        n = c.shape[1]
        c = c[:, 1:] * np.arange(1, n)[None, :] if n > 1 else np.zeros((c.shape[0], 1))
    nz = np.argwhere(c != 0.0)
    if len(nz) == 0:
        return np.zeros((1, 1))
    return c[:nz[:, 0].max() + 1, :nz[:, 1].max() + 1]


def beta_from_moments(coeffs: np.ndarray, h: float, area: float,
                      mom: np.ndarray) -> float:
    """Sum over s >= 1 of area^(s-1) * integral of the squared s-th
    derivatives, from the cell's self-moments."""
    beta = 0.0
    for s in range(1, coeffs.shape[0]):
        for l1 in range(s + 1):
            dc = _coeff_deriv(coeffs, l1, s - l1)
            if not np.any(dc):
                continue
            sq = _conv2(dc, dc)
            na, nb = sq.shape
            integral = float(np.sum(sq * mom[:na, :nb]))
            beta += area ** (s - 1) * integral / h ** (2 * s)
    return beta


def _weights(gammas, betas, tau, eps):
    wbar = [g * (1.0 + tau / (b + eps)) for g, b in zip(gammas, betas)]
    tot = sum(wbar)
    return [w / tot for w in wbar]


def cell_recon(mesh, geo: Geometry, avg, i: int, order: int):
    """(polynomial, weights, betas, warnings) of cell i."""
    eps = EPSILON
    gammas = GAMMAS[order]
    warns: list[str] = []
    p0 = Poly2.constant(avg[i], geo.cx[i], geo.cy[i], geo.h[i])
    if order == 1:
        return p0, (1.0,), (), warns
    levels = stencil_levels(mesh, i, order)
    b0 = float(min((avg[i] - avg[j]) ** 2 for j in levels[1] if j != i))
    q1, got1 = fit_with_growth(mesh, geo, avg, i, levels[1], 2)
    if got1 < 2:
        warns.append(f"cell {i}: quadratic fit reduced to degree {got1}")
    mom_i = geo.moments(i, i)
    h, area = geo.h[i], geo.area[i]
    if order == 3:
        g0, g1 = gammas
        p1 = q1 * (1.0 / g1) + p0 * (-g0 / g1)
        b1 = beta_from_moments(p1.coeffs, h, area, mom_i)
        curv = q1.coeffs.copy()
        a, b = np.indices(curv.shape)
        curv[a + b < 2] = 0.0
        tau = beta_from_moments(curv, h, area, mom_i) ** 2 / 4.0
        w = _weights(gammas, (b0, b1), tau, eps)
        return p0 * w[0] + p1 * w[1], tuple(w), (b0, b1), warns
    g0, g1, g2 = gammas
    top_degree = 4 if len(levels[2]) >= 25 else 3
    q2, got2 = fit_with_growth(mesh, geo, avg, i, levels[2], top_degree)
    if got2 < top_degree:
        warns.append(f"cell {i}: top-level fit reduced to degree {got2}")
    g01 = g0 / (g0 + g1)
    g11 = g1 / (g0 + g1)
    p1 = q1 * (1.0 / g11) + p0 * (-g01 / g11)
    p2 = q2 * (1.0 / g2) + p0 * (-g0 / g2) + p1 * (-g1 / g2)
    b1 = beta_from_moments(p1.coeffs, h, area, mom_i)
    b2 = beta_from_moments(p2.coeffs, h, area, mom_i)
    tau = (b2 - b1) ** 2 / 4.0
    w = _weights(gammas, (b0, b1, b2), tau, eps)
    return p0 * w[0] + p1 * w[1] + p2 * w[2], tuple(w), (b0, b1, b2), warns


def reference_reconstruct(mesh, averages, order: int):
    """(polys, weights, betas, warnings) of every cell, cell by cell."""
    avg = np.asarray(averages, float)
    kdeg = _ORDER_DEGREE[order]
    geo = Geometry(mesh, max(2 * kdeg - 2, kdeg, 2))
    polys, weights, betas, warnings = [], [], [], []
    for i in range(mesh.n_cells):
        p, w, b, warns = cell_recon(mesh, geo, avg, i, order)
        polys.append(p)
        weights.append(w)
        betas.append(b)
        warnings.extend(warns)
    return polys, np.array(weights), np.array(betas), warnings
