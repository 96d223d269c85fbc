"""Multi-resolution WENO reconstruction of per-cell polynomials.

From cell averages, each cell gets a polynomial that conserves its own
average exactly (a hard constraint in the least-squares fit) and blends a
hierarchy of fits through smoothness-driven nonlinear weights: order 1 is
the cell average itself, order 3 adds a quadratic fit on the one-ring,
order 5 adds a quartic fit on the two-ring.

Every step runs on arrays of cells at once. The boundary of every cell is
sampled from all edges in one product of the Lagrange basis with the edge
nodes. The monomial moments of each (stencil cell, frame cell) pair come
from one matrix product over boundary powers. The constraint-eliminated
least-squares systems are padded with zero rows to a common height and
solved by one stacked SVD. Cells whose system fails the rank test are
solved again, in the same way, on a stencil grown by a ring and then at a
lower degree. The smoothness indicators are quadratic forms c^T B c in
the coefficients, with B built from each cell's self-moments. Cells are
processed in chunks so that the transient arrays stay small. Nothing is
stored on the mesh or between calls: each call computes the geometry it
needs from the mesh's points and edges.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .geometry import _lagrange_basis, _lagrange_dbasis, gauss_rule_01
from .mesh import CurvilinearMesh

_ORDER_DEGREE = {1: 0, 3: 2, 5: 4}
# linear weights of the hierarchy's levels (the cell average, the quadratic
# fit, the quartic fit) per order, and the epsilon of the nonlinear weights
GAMMAS = {1: (1.0,), 3: (1 / 101, 100 / 101), 5: (1 / 111, 10 / 111, 100 / 111)}
EPSILON = 1e-4
# singular values at or below this fraction of the largest count as zero:
# a nearly dependent column set (too few distinct grid lines in a truncated
# stencil) must be treated as rank-deficient so that the stencil grows
_RCOND = 1e-4
# (stencil cell, frame cell) pairs per chunk of cells, which bounds the
# stacked least-squares systems and moments, and per block of the moment
# products, which bounds their boundary-power arrays to well under 1 MiB
_PAIRS_PER_CHUNK = 2048
_PAIRS_PER_BLOCK = 128


class ReconstructionError(RuntimeError):
    pass


def _order_degree(order: int) -> int:
    """Polynomial degree of the reconstruction of order 1, 3 or 5."""
    if order not in _ORDER_DEGREE:
        raise ValueError("order must be 1, 3 or 5")
    return _ORDER_DEGREE[order]


@dataclass
class ReconField:
    """Per-cell polynomials with the weights and indicators of their blend.

    Cell i's polynomial is the sum of coeffs[i, a, b] X^a Y^b with
    X = (x - cx) / h and Y = (y - cy) / h, where (cx, cy, h) = frames[i]:
    the cell's centroid and the square root of its area. weights and betas
    have one row per cell and one column per level of the hierarchy (the
    cell average, the quadratic fit, the quartic fit). betas[:, 0] is beta0,
    the smallest squared difference to a one-ring neighbour's average.
    Order 1 blends nothing: its weights are 1 and its betas 0.
    """

    coeffs: np.ndarray  # (C, K+1, K+1)
    frames: np.ndarray  # (C, 3)
    warnings: list[str] = field(default_factory=list)
    weights: np.ndarray | None = None
    betas: np.ndarray | None = None


def _one_ring(adj, cells: set[int]) -> set[int]:
    out = set(cells)
    for j in cells:
        out |= set(adj.edge_neighbors[j]) | set(adj.vertex_neighbors[j])
    return out


def build_stencil(mesh: CurvilinearMesh, i: int,
                  order: int) -> list[list[int]]:
    """Nested stencils [S0, S1] (and S2 for order 5): S0 = [i]; S1 = the
    one-ring (edge + vertex neighbors); S2 = the two-ring.

    Boundary cells keep whatever neighbors exist; the fitting layer grows a
    stencil by extra rings when its normal matrix is rank-deficient, so
    degree reduction is the last resort, not the first.
    """
    adj = mesh.adjacency
    s1 = _one_ring(adj, {i})
    levels = [[i], sorted(s1)]
    if order >= 5:
        levels.append(sorted(_one_ring(adj, s1)))
    return levels


@lru_cache(maxsize=None)
def _exponents(k: int, first: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Exponents (a, b) of the scaled monomials X^a Y^b with first <= a+b <= k,
    by total degree and then by falling a."""
    mons = [(a, s - a) for s in range(first, k + 1) for a in range(s, -1, -1)]
    return (np.array([a for a, _ in mons], dtype=int),
            np.array([b for _, b in mons], dtype=int))


@dataclass
class _Geometry:
    """Boundary samples and centroid frames of every cell of one mesh.

    x, y and wdy are (C, S): the Gauss points of the four edges in
    counterclockwise order and dy/dt times the weights, enough to integrate
    monomials of total degree qmax exactly by the contour route.
    """

    x: np.ndarray
    y: np.ndarray
    wdy: np.ndarray
    area: np.ndarray
    cx: np.ndarray
    cy: np.ndarray
    h: np.ndarray


def _geometry(mesh: CurvilinearMesh, qmax: int) -> _Geometry:
    d = mesh.edge_degree
    ng = max(2, math.ceil((qmax + 2) * d / 2))
    xi, w = gauss_rule_01(ng)
    nodes = mesh.points[mesh.edges]                       # (E, d+1, 2)
    pts = _lagrange_basis(d, xi) @ nodes                  # (E, ng, 2)
    dy = (_lagrange_dbasis(d, xi) @ nodes[:, :, 1:])[:, :, 0] * w
    # a cell that runs an edge backwards visits its samples in reverse
    # order with dy/dt negated
    fwd = np.arange(ng)
    order = np.where(mesh.cell_dirs[:, :, None] > 0, fwd, fwd[::-1])
    e = mesh.cell_edges[:, :, None]
    C = mesh.n_cells
    x = pts[e, order, 0].reshape(C, -1)
    y = pts[e, order, 1].reshape(C, -1)
    wdy = (dy[e, order] * mesh.cell_dirs[:, :, None]).reshape(C, -1)
    area = mesh.cell_areas()
    cx = 0.5 * np.einsum("cs,cs->c", x ** 2, wdy) / area
    cy = np.einsum("cs,cs,cs->c", x, y, wdy) / area
    return _Geometry(x, y, wdy, area, cx, cy, np.sqrt(area))


def _moments(geo: _Geometry, j: np.ndarray, i: np.ndarray, q: int) -> np.ndarray:
    """M[p, a, b] = integral over cell j[p] of X^a Y^b in the frame of cell
    i[p], exact for a + b <= the geometry's qmax; shape (P, q+1, q+1).

    The area integral is the contour integral of h X^(a+1) / (a+1) Y^b dy.
    Pairs go through in blocks, which bounds the boundary-power arrays.
    """
    M = np.empty((len(j), q + 1, q + 1))
    for lo in range(0, len(j), _PAIRS_PER_BLOCK):
        jb, ib = j[lo:lo + _PAIRS_PER_BLOCK], i[lo:lo + _PAIRS_PER_BLOCK]
        h = geo.h[ib]
        X = (geo.x[jb] - geo.cx[ib][:, None]) / h[:, None]
        Y = (geo.y[jb] - geo.cy[ib][:, None]) / h[:, None]
        P, S = X.shape
        XW = np.empty((P, q + 1, S))                 # X^(a+1) dy
        np.multiply(X, geo.wdy[jb], out=XW[:, 0])
        for a in range(1, q + 1):
            np.multiply(XW[:, a - 1], X, out=XW[:, a])
        YP = np.empty((P, S, q + 1))                 # Y^b
        YP[:, :, 0] = 1.0
        for b in range(1, q + 1):
            np.multiply(YP[:, :, b - 1], Y, out=YP[:, :, b])
        np.matmul(XW, YP, out=M[lo:lo + P])
        M[lo:lo + P] *= (h[:, None] / np.arange(1, q + 2))[:, :, None]
    return M


def _fit(geo: _Geometry, avg: np.ndarray, cells: np.ndarray,
         stencils: list[list[int]], k: int) -> tuple[np.ndarray, np.ndarray]:
    """Conservative least-squares fits of degree k, one per cell.

    Each cell's stencil averages are fitted subject to exact reproduction
    of its own average, which is eliminated by substituting the constant
    coefficient. Returns the coefficients (n, k+1, k+1) and a mask of the
    cells whose fit stands: enough rows, no zero column, full rank under
    _RCOND after column scaling, and a finite solution.
    """
    n = len(cells)
    pa, pb = _exponents(k)
    nm = len(pa)
    coeffs = np.zeros((n, k + 1, k + 1))
    if n == 0:
        return coeffs, np.zeros(0, dtype=bool)
    rows = [[j for j in st if j != i] for i, st in zip(cells.tolist(), stencils)]
    counts = np.array([len(r) for r in rows])
    J = np.fromiter(itertools.chain.from_iterable(rows), dtype=int,
                    count=int(counts.sum()))
    owner = np.repeat(np.arange(n), counts)
    I = cells[owner]
    area_i = geo.area[cells]
    mi = _moments(geo, cells, cells, k)[:, pa, pb]          # (n, nm)
    R = max(nm, int(counts.max()))
    A = np.zeros((n, R, nm))
    b = np.zeros((n, R))
    pos = np.arange(len(J)) - np.repeat(np.cumsum(counts) - counts, counts)
    A[owner, pos] = (_moments(geo, J, I, k)[:, pa, pb]
                     - geo.area[J, None] * mi[owner] / area_i[owner, None])
    b[owner, pos] = (avg[J] - avg[I]) * geo.area[J]
    # zero rows pad every system to R rows; they change neither the
    # singular values nor the least-squares solution
    col = np.linalg.norm(A, axis=1)
    ok = (counts >= nm) & np.all(col > 0.0, axis=1)
    col[col == 0.0] = 1.0
    U, s, Vt = np.linalg.svd(A / col[:, None, :], full_matrices=False)
    ok &= np.sum(s > _RCOND * s[:, :1], axis=1) == nm
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.einsum("crm,cr->cm", U, b) / s
        sol = np.einsum("cmj,cm->cj", Vt, z) / col
    ok &= np.all(np.isfinite(sol), axis=1)
    sol[~ok] = 0.0
    coeffs[:, pa, pb] = sol
    c0 = avg[cells].copy()
    for c in range(nm):
        c0 -= sol[:, c] * mi[:, c] / area_i
    coeffs[:, 0, 0] = c0
    return coeffs, ok


def _fit_with_growth(adj, geo: _Geometry, avg: np.ndarray, cells: np.ndarray,
                     stencils: list[list[int]], degree: int):
    """Fits at the requested degree, growing the stencil before giving up.

    Truncated boundary stencils can be exactly rank-deficient (too few
    distinct grid lines for the requested degree); adding a ring restores
    the rank, which preserves the full order near boundaries. A cell is
    retried on up to two grown stencils; if none gives the full degree,
    the degree drops on the last stencil tried, down to the constant
    average. Returns coefficients (n, degree+1, degree+1) and the fitted
    degree of each cell.
    """
    n = len(cells)
    out = np.zeros((n, degree + 1, degree + 1))
    got = np.full(n, degree)
    st = list(stencils)
    todo = np.arange(n)
    lower: list[int] = []
    for attempt in range(3):
        c, ok = _fit(geo, avg, cells[todo], [st[t] for t in todo], degree)
        out[todo[ok]] = c[ok]
        retry = []
        for t in todo[~ok].tolist():
            bigger = _one_ring(adj, set(st[t])) if attempt < 2 else None
            if bigger is None or len(bigger) == len(st[t]):
                lower.append(t)
            else:
                st[t] = sorted(bigger)
                retry.append(t)
        todo = np.array(retry, dtype=int)
        if not retry:
            break
    todo = np.array(sorted(lower), dtype=int)
    for k in range(degree - 1, 0, -1):
        c, ok = _fit(geo, avg, cells[todo], [st[t] for t in todo], k)
        out[todo[ok], :k + 1, :k + 1] = c[ok]
        got[todo[ok]] = k
        todo = todo[~ok]
    out[todo, 0, 0] = avg[cells[todo]]
    got[todo] = 0
    return out, got


@lru_cache(maxsize=None)
def _indicator_terms(K: int):
    """Terms of the smoothness quadratic form on coefficients of degree <= K.

    For each derivative d^s / dX^l1 dY^l2 (s = l1 + l2 >= 1), the integral
    of its square is sum over monomial pairs m, m' of c_m c_m' F[m, m']
    M[IA[m, m'], IB[m, m']], with M the self-moments up to degree 2K - 2.
    Yields (s, F, IA, IB); indices where F is zero are clipped into range.
    """
    ea, eb = _exponents(K, first=0)
    top = 2 * K - 2
    terms = []
    for s in range(1, K + 1):
        for l1 in range(s + 1):
            # d^l/dX^l X^a = perm(a, l) X^(a-l), and perm(a, l) = 0 for l > a
            f = np.array([math.perm(a, l1) * math.perm(b, s - l1)
                          for a, b in zip(ea.tolist(), eb.tolist())], float)
            ia = np.clip(ea[:, None] + ea[None, :] - 2 * l1, 0, top)
            ib = np.clip(eb[:, None] + eb[None, :] - 2 * (s - l1), 0, top)
            terms.append((s, np.outer(f, f), ia, ib))
    return terms


def _indicator_matrices(self_moments: np.ndarray, h: np.ndarray,
                        area: np.ndarray, K: int) -> np.ndarray:
    """Per cell, B with beta = c^T B c over the exponents _exponents(K, 0).

    beta = sum over s >= 1 of area^(s-1) times the integral of the squared
    world-coordinate s-th derivatives over the cell; in the scaled frame
    each s-th derivative carries 1 / h^s.
    """
    n = len(h)
    m = len(_exponents(K, first=0)[0])
    B = np.zeros((n, m, m))
    for s, F, ia, ib in _indicator_terms(K):
        scale = area ** (s - 1) / h ** (2 * s)
        B += scale[:, None, None] * (F * self_moments[:, ia, ib])
    return B


def _quadratic_form(B: np.ndarray, coeffs: np.ndarray, K: int) -> np.ndarray:
    ea, eb = _exponents(K, first=0)
    v = coeffs[:, ea, eb]
    return np.einsum("cm,cmn,cn->c", v, B, v)


def _nonlinear_weights(gammas, betas: np.ndarray,
                       tau: np.ndarray) -> np.ndarray:
    wbar = np.asarray(gammas) * (1.0 + tau[:, None] / (betas + EPSILON))
    tot = wbar[:, 0].copy()
    for k in range(1, wbar.shape[1]):
        tot += wbar[:, k]
    return wbar / tot[:, None]


def _beta0(avg: np.ndarray, cells: np.ndarray, rings: list[list[int]]) -> np.ndarray:
    """Per cell, the minimum squared average difference to its one-ring."""
    others = [[j for j in ring if j != i] for i, ring in zip(cells.tolist(), rings)]
    for i, o in zip(cells.tolist(), others):
        if not o:
            raise ReconstructionError(f"cell {i} has no stencil neighbors")
    width = max(len(o) for o in others)
    idx = np.array([o + [o[0]] * (width - len(o)) for o in others])
    return np.min((avg[cells][:, None] - avg[idx]) ** 2, axis=1)


def _blend_chunk(mesh, geo: _Geometry, avg: np.ndarray, cells: np.ndarray,
                 levels: list[list[list[int]]], order: int):
    """Polynomial coefficients, weights, betas and warnings of some cells."""
    K = _ORDER_DEGREE[order]
    adj = mesh.adjacency
    a0 = avg[cells]
    b0 = _beta0(avg, cells, [lv[1] for lv in levels])
    q1, got1 = _fit_with_growth(adj, geo, avg, cells, [lv[1] for lv in levels], 2)
    B = _indicator_matrices(_moments(geo, cells, cells, 2 * K - 2),
                            geo.h[cells], geo.area[cells], K)
    warns = {int(c): [f"cell {c}: quadratic fit reduced to degree {g}"]
             for c, g in zip(cells, got1) if g < 2}
    if order == 3:
        g0, g1 = GAMMAS[3]
        p1 = q1 * (1.0 / g1)
        p1[:, 0, 0] += a0 * (-g0 / g1)
        candidates = [p1]
        # tau from the indicator of q1's degree-2 terms, which equals
        # beta(q1) - beta(linear part of q1) in the centroid frame. On
        # smooth data tau = O(h^8), so the weights tend to gamma and linear
        # fields are reproduced exactly; at a jump tau = O(1) and pushes
        # weight onto the cell average wherever beta0 is small. beta0 stays
        # out of tau: it is ~0 whenever a neighbor lies along an iso-line,
        # which would make tau ~ beta1^2/4 and hold w0 far above gamma0.
        curv = q1.copy()
        curv[:, 0, :2] = 0.0
        curv[:, 1, 0] = 0.0
        tau = _quadratic_form(B, curv, K) ** 2 / 4.0
    else:
        # order 5; cells whose two-ring is truncated by the boundary get a
        # cubic top level: the one-sided quartic is too ill-conditioned on
        # irregular meshes, and an O(h^4) band of width h keeps L1 at h^5
        g0, g1, g2 = GAMMAS[5]
        q2 = np.zeros((len(cells), K + 1, K + 1))
        top = np.array([4 if len(lv[2]) >= 25 else 3 for lv in levels])
        for deg in (4, 3):
            sel = np.flatnonzero(top == deg)
            c, got2 = _fit_with_growth(adj, geo, avg, cells[sel],
                                       [levels[t][2] for t in sel], deg)
            q2[sel, :deg + 1, :deg + 1] = c
            for t, g in zip(sel.tolist(), got2.tolist()):
                if g < deg:
                    warns.setdefault(int(cells[t]), []).append(
                        f"cell {cells[t]}: top-level fit reduced to degree {g}")
        g01 = g0 / (g0 + g1)
        g11 = g1 / (g0 + g1)
        p1 = np.zeros_like(q2)
        p1[:, :3, :3] = q1 * (1.0 / g11)
        p1[:, 0, 0] += a0 * (-g01 / g11)
        p2 = q2 * (1.0 / g2)
        p2[:, 0, 0] += a0 * (-g0 / g2)
        p2 += p1 * (-g1 / g2)
        candidates = [p1, p2]
    betas = np.stack([b0] + [_quadratic_form(B, p, K) for p in candidates],
                     axis=1)
    if order == 5:
        # as at order 3, tau leaves beta0 out: beta0 (an average difference)
        # deviates from beta1/beta2 at leading order on smooth data, and
        # folding it into tau costs the scheme half an order in the measured
        # 8..64 window
        tau = (betas[:, 2] - betas[:, 1]) ** 2 / 4.0
    w = _nonlinear_weights(GAMMAS[order], betas, tau)
    out = candidates[0] * w[:, 1, None, None]
    out[:, 0, 0] = a0 * w[:, 0] + out[:, 0, 0]
    for k, p in enumerate(candidates[1:], start=2):
        out += p * w[:, k, None, None]
    return out, w, betas, warns


def weno_reconstruct(mesh: CurvilinearMesh, averages,
                     order: int = 3) -> ReconField:
    """Per-cell WENO polynomials from cell averages.

    Order 1 returns the averages; order 3 blends the cell average with a
    conservative quadratic fit; order 5 adds a quartic fit on the two-ring.
    Every returned polynomial integrates to the cell average exactly. The
    order-3 weights stay at the linear weights on smooth data, where the
    fit's curvature indicator tau is O(h^8), and move toward the cell
    average at a jump, where tau is O(1) and beta0 of a same-side neighbor
    is ~0. The coefficients, frames, weights and indicators of every cell
    come back as arrays on the result.
    """
    K = _order_degree(order)
    avg = np.asarray(averages, float)
    if len(avg) != mesh.n_cells:
        raise ReconstructionError("field length does not match the mesh")
    if not np.all(np.isfinite(avg)):
        raise ReconstructionError("field averages must be finite")
    geo = _geometry(mesh, max(2 * K - 2, K, 2))
    C = mesh.n_cells
    nlev = len(GAMMAS[order])
    coeffs = np.zeros((C, K + 1, K + 1))
    coeffs[:, 0, 0] = avg
    weights = np.ones((C, nlev))
    betas = np.zeros((C, nlev))
    warnings: list[str] = []
    if order > 1:
        levels = [build_stencil(mesh, i, order) for i in range(C)]
        step = max(1, _PAIRS_PER_CHUNK // max(len(lv[-1]) for lv in levels))
        for lo in range(0, C, step):
            cells = np.arange(lo, min(lo + step, C))
            c, w, b, warns = _blend_chunk(mesh, geo, avg, cells,
                                          levels[lo:lo + step], order)
            coeffs[cells], weights[cells], betas[cells] = c, w, b
            for i in sorted(warns):
                warnings.extend(warns[i])
    frames = np.stack([geo.cx, geo.cy, geo.h], axis=1)
    return ReconField(coeffs, frames, warnings, weights, betas)
