"""Frozen all-pairs crossing test: the oracle of the box-pruned kernel.

`all_pairs_self_intersects` forms every segment pair of each closed
polyline at once, as `geometry._polyline_self_intersects` did before it
tested only near pairs and the pairs of overlapping, distant segment
groups. `crossing_pairs` returns the pairs it flags, so that a test can
tell a real crossing from one that rounding alone makes.
"""

from __future__ import annotations

import numpy as np


def _proper(pts: np.ndarray) -> np.ndarray:
    """(B, m, m) flags of the proper crossings of pts (B, m, 2)."""
    pts = np.concatenate([pts, pts[:, :1]], axis=1)
    a = pts[:, :-1]
    n = a.shape[1]
    d = pts[:, 1:] - a
    # Segment pair (i, j) crosses if endpoints of each straddle the other.
    ax, ay = a[:, None, :, 0], a[:, None, :, 1]
    axi, ayi = a[:, :, None, 0], a[:, :, None, 1]
    dx, dy = d[:, None, :, 0], d[:, None, :, 1]
    dxi, dyi = d[:, :, None, 0], d[:, :, None, 1]
    # cross_i(p) = dx_i*(py-ay_i) - dy_i*(px-ax_i), sign straddle both ways
    ca = dxi * (ay - ayi) - dyi * (ax - axi)
    cb = dxi * (ay + dy - ayi) - dyi * (ax + dx - axi)
    straddle = ca * cb < 0
    proper = straddle & straddle.transpose(0, 2, 1)
    # ignore adjacent segments and the wrap pair
    gap = np.abs(np.arange(n)[:, None] - np.arange(n))
    proper &= ~((gap <= 1) | (gap == n - 1))
    return proper


def all_pairs_self_intersects(pts: np.ndarray) -> np.ndarray:
    """All-pairs proper-crossing test on closed sampled polylines, one per
    row of pts (B, m, 2); returns (B,) bools."""
    if pts.shape[1] < 3:
        return np.zeros(len(pts), bool)
    return _proper(pts).any(axis=(1, 2))


def crossing_pairs(pts: np.ndarray) -> list[tuple[int, int]]:
    """The segment pairs (i, j), i < j, that the all-pairs test flags on
    one closed polyline pts (m, 2)."""
    if len(pts) < 3:
        return []
    i, j = np.nonzero(np.triu(_proper(pts[None])[0]))
    return list(zip(i.tolist(), j.tolist()))
