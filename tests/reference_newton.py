"""The batched Newton kernel as it was before seeds stopped at fixed
points, kept as the reference for `curveremap.clipping.newton_roots`.

Every chunk here runs all of its seeds through every step, until all of
its live seeds converge or max_iter steps pass. The package's kernel stops
a seed once a step leaves its (u, v, alive) unchanged and iterates only
the moving seeds. Tests require the same (pair, u, v, residual) arrays, bit
for bit, for any chunk size.
"""

from __future__ import annotations

import numpy as np

NEWTON_TOL = 1e-12     # accepted residual for curve-curve roots
_SEED_LANES = 400_000  # Newton seeds iterated together


def _horner(c: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x, y) of P power-basis curves c (P, d+1, 2) at parameters w (P, n)."""
    x, y = c[:, -1, 0, None], c[:, -1, 1, None]
    for k in range(c.shape[1] - 2, -1, -1):
        x = x * w + c[:, k, 0, None]
        y = y * w + c[:, k, 1, None]
    return x, y


def reference_newton_roots(ca: np.ndarray, cb: np.ndarray, wa: np.ndarray,
                 wb: np.ndarray, max_iter: int = 30):
    """Newton roots of a_p(u) = b_p(v) for P pairs of spans at once.

    ca (P, da+1, 2) and cb (P, db+1, 2) hold power coefficients, wa and wb
    (P, 2) the span windows (t0, t1 - t0): a local parameter u sits at
    curve parameter t0 + u (t1 - t0). Seeds form a uniform (da*db + 2)^2
    grid over each pair's local parameter square, which exceeds the
    crossing-count bound for the composed system. Pairs are iterated in
    chunks of at most _SEED_LANES seeds, each chunk until all of its live
    seeds converge. Seeds whose Jacobian turns singular or that leave the
    square are abandoned, not errors.

    Returns arrays (pair, u, v, residual) of every accepted seed, ordered
    by pair and then by unclamped u, with u and v clamped to [0, 1].
    Duplicate roots are the caller's to remove.
    """
    P, da, db = ca.shape[0], ca.shape[1] - 1, cb.shape[1] - 1
    m = da * db + 2
    g = np.linspace(0.0, 1.0, m)
    u0, v0 = (w.ravel() for w in np.meshgrid(g, g))
    dca = ca[:, 1:] * np.arange(1, da + 1)[None, :, None]
    dcb = cb[:, 1:] * np.arange(1, db + 1)[None, :, None]
    chunk = max(1, _SEED_LANES // (m * m))
    out = [(np.zeros(0, int), np.zeros(0), np.zeros(0), np.zeros(0))]
    for lo in range(0, P, chunk):
        sl = slice(lo, lo + chunk)
        a, b, ad, bd = ca[sl], cb[sl], dca[sl], dcb[sl]
        ta, la = wa[sl, 0, None], wa[sl, 1, None]
        tb, lb = wb[sl, 0, None], wb[sl, 1, None]
        u, v = np.tile(u0, (len(a), 1)), np.tile(v0, (len(a), 1))
        alive = np.ones(u.shape, dtype=bool)
        for _ in range(max_iter):
            t, s = ta + u * la, tb + v * lb
            ax, ay = _horner(a, t)
            bx, by = _horner(b, s)
            rx, ry = ax - bx, ay - by
            dax, day = _horner(ad, t)
            dbx, dby = _horner(bd, s)
            # arrays are dropped once dead, so that a chunk's memory stays
            # near one step's live arrays
            del t, s, ax, ay, bx, by
            dax, day, dbx, dby = dax * la, day * la, dbx * lb, dby * lb
            det = dbx * day - dax * dby
            ok = alive & (np.abs(det) > 1e-300)
            if not ok.any():
                break
            saf = np.where(ok, det, 1.0)
            du = np.where(ok, (rx * dby - dbx * ry) / saf, 0.0)
            dv = np.where(ok, (rx * day - dax * ry) / saf, 0.0)
            del det, saf, dax, day, dbx, dby
            # limit the step so wild seeds cannot shoot to infinity
            mag = np.maximum(np.abs(du), np.abs(dv))
            lim = np.where(mag > 0.5, 0.5 / np.maximum(mag, 1e-300), 1.0)
            u = u + du * lim * ok
            v = v + dv * lim * ok
            del du, dv, mag, lim
            alive = ok & (np.abs(u - 0.5) < 1.2) & (np.abs(v - 0.5) < 1.2)
            if not alive.any():
                break
            if bool(np.all(~alive | (np.hypot(rx, ry) < 1e-15))):
                break
        ax, ay = _horner(a, ta + u * la)
        bx, by = _horner(b, tb + v * lb)
        res = np.hypot(ax - bx, ay - by)
        slack = 1e-9
        good = (res <= NEWTON_TOL) & (u > -slack) & (u < 1 + slack) & \
            (v > -slack) & (v < 1 + slack)
        pair = np.nonzero(good)[0]
        order = np.lexsort((u[good], pair))
        out.append((lo + pair[order], u[good][order], v[good][order],
                    res[good][order]))
    pair, u, v, res = (np.concatenate(col) for col in zip(*out))
    return pair, np.clip(u, 0.0, 1.0), np.clip(v, 0.0, 1.0), res
