"""Per-polygon integrals, kept as the reference for the plan's array kernels.

`Poly2` is one bivariate polynomial in a cell's centered and scaled frame.
`green_integral` integrates one over one curved polygon by Green's theorem
(Approach A), and `smoothness` sums the scaled squared-derivative
integrals of one polynomial over one cell. The package integrates in
arrays instead (`remap._a_samples`, `integrate.triangulate` and
`remap._loop_integrals`; `reconstruct._quadratic_form` for the
indicators), and tests compare those against these functions.

`constrained_lsq_fit` is not an independent oracle: it runs the package's
own `reconstruct._geometry` and `_fit` on one cell and stencil, so tests can
check the batched solver's contract (constants and linear fields are
reproduced) one cell at a time.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import polynomial as npoly

from curveremap.geometry import CurvedPolygon, span_gauss
from curveremap.mesh import CurvilinearMesh
from curveremap.reconstruct import _fit, _geometry


class Poly2:
    """Bivariate polynomial in locally centered and scaled coordinates.

    Represents sum c[a, b] * X^a * Y^b with X = (x - cx)/h, Y = (y - cy)/h.
    The centered/scaled basis keeps the reconstruction least-squares systems
    well conditioned at small cell sizes.
    """

    __slots__ = ("cx", "cy", "h", "coeffs")

    def __init__(self, coeffs, cx: float = 0.0, cy: float = 0.0, h: float = 1.0):
        c = np.atleast_2d(np.asarray(coeffs, float))
        if not np.all(np.isfinite(c)):
            raise ValueError("non-finite polynomial coefficients")
        if h <= 0.0:
            raise ValueError("scale must be positive")
        self.coeffs = c
        self.cx = float(cx)
        self.cy = float(cy)
        self.h = float(h)

    @classmethod
    def constant(cls, value: float, cx: float = 0.0, cy: float = 0.0,
                 h: float = 1.0) -> "Poly2":
        return cls(np.array([[float(value)]]), cx, cy, h)

    @classmethod
    def monomial(cls, a: int, b: int, cx: float = 0.0, cy: float = 0.0,
                 h: float = 1.0) -> "Poly2":
        c = np.zeros((a + 1, b + 1))
        c[a, b] = 1.0
        return cls(c, cx, cy, h)

    @property
    def degree(self) -> int:
        nz = np.argwhere(np.abs(self.coeffs) > 0.0)
        if len(nz) == 0:
            return 0
        return int(max(a + b for a, b in nz))

    def same_frame(self, other: "Poly2") -> bool:
        return (self.cx == other.cx and self.cy == other.cy
                and self.h == other.h)

    def eval(self, x, y):
        X = (np.asarray(x, float) - self.cx) / self.h
        Y = (np.asarray(y, float) - self.cy) / self.h
        return npoly.polyval2d(X, Y, self.coeffs)

    def antideriv_x(self) -> "Poly2":
        """World-coordinate antiderivative in x (integration from x = cx)."""
        na, nb = self.coeffs.shape
        c = np.zeros((na + 1, nb))
        for a in range(na):
            c[a + 1] = self.h * self.coeffs[a] / (a + 1)
        return Poly2(c, self.cx, self.cy, self.h)

    def deriv(self, ax: int, ay: int) -> "Poly2":
        """World-coordinate partial derivative d^(ax+ay) / dx^ax dy^ay."""
        c = self.coeffs
        for _ in range(ax):
            na = c.shape[0]
            c = c[1:] * np.arange(1, na)[:, None] if na > 1 else np.zeros((1, c.shape[1]))
        for _ in range(ay):
            nb = c.shape[1]
            c = c[:, 1:] * np.arange(1, nb)[None, :] if nb > 1 else np.zeros((c.shape[0], 1))
        return Poly2(c / self.h ** (ax + ay), self.cx, self.cy, self.h)

    def __mul__(self, other):
        if isinstance(other, Poly2):
            if not self.same_frame(other):
                raise ValueError("polynomial product requires a common frame")
            na, nb = self.coeffs.shape
            ma, mb = other.coeffs.shape
            out = np.zeros((na + ma - 1, nb + mb - 1))
            for a in range(na):
                for b in range(nb):
                    if self.coeffs[a, b] != 0.0:
                        out[a:a + ma, b:b + mb] += self.coeffs[a, b] * other.coeffs
            return Poly2(out, self.cx, self.cy, self.h)
        return Poly2(self.coeffs * float(other), self.cx, self.cy, self.h)

    __rmul__ = __mul__

    def __add__(self, other: "Poly2") -> "Poly2":
        if not self.same_frame(other):
            raise ValueError("polynomial sum requires a common frame")
        na = max(self.coeffs.shape[0], other.coeffs.shape[0])
        nb = max(self.coeffs.shape[1], other.coeffs.shape[1])
        out = np.zeros((na, nb))
        out[:self.coeffs.shape[0], :self.coeffs.shape[1]] += self.coeffs
        out[:other.coeffs.shape[0], :other.coeffs.shape[1]] += other.coeffs
        return Poly2(out, self.cx, self.cy, self.h)

    def __repr__(self):
        return (f"Poly2(degree={self.degree}, center=({self.cx:.3g}, "
                f"{self.cy:.3g}), h={self.h:.3g})")


def green_integral(f: Poly2, boundary: CurvedPolygon) -> float:
    """Integral of f over the region bounded by a CCW boundary loop.

    Uses the antiderivative pair f1 = 0, f2 = int f dx, so the area integral
    becomes a contour integral of f2 dy; each span is integrated with a
    Gauss rule exact for the 1D polynomial integrand, whose degree is
    (k+1)*d + d - 1 for integrand degree k and span degree d.
    """
    f2 = f.antideriv_x()
    k = f.degree
    total = 0.0
    for span in boundary.spans:
        d = span.degree
        n = max(1, math.ceil(((k + 2) * d) / 2))
        [p], [dp], w, [h] = span_gauss([span], n)
        total += float(np.dot(f2.eval(p[:, 0], p[:, 1]), dp[:, 1] * w * h))
    return total


def constrained_lsq_fit(mesh: CurvilinearMesh, averages: np.ndarray, i: int,
                        cells: list[int], degree: int) -> tuple[Poly2, int]:
    """Least-squares polynomial fit of stencil averages, conserving cell i.

    Minimizes the average mismatch over the stencil subject to exact
    reproduction of the average on cell i; the constraint is eliminated by
    substituting the constant coefficient. Rank-deficient systems fall back
    to lower degree; returns (polynomial, fitted degree). This is the
    batched solver of weno_reconstruct applied to one cell and stencil;
    the tests use it as the per-cell oracle of the batched fit.
    """
    avg = np.asarray(averages, float)
    geo = _geometry(mesh, max(2 * degree - 2, degree))
    cell = np.array([i])
    for k in range(degree, 0, -1):
        c, ok = _fit(geo, avg, cell, np.array([list(cells)]), k)
        if ok[0]:
            return Poly2(c[0], geo.cx[i], geo.cy[i], geo.h[i]), k
    return Poly2.constant(avg[i], geo.cx[i], geo.cy[i], geo.h[i]), 0


def smoothness(p: Poly2, cell) -> float:
    """Scaled squared-derivative integrals of p over a cell (public form).

    cell is a CurvedPolygon; the integral is evaluated exactly through the
    Green contour route on the squared-derivative polynomials. The tests
    use it as the per-cell oracle of the batched indicators (betas).
    """
    area = cell.signed_area()
    kdeg = p.coeffs.shape[0] - 1
    beta = 0.0
    for s in range(1, kdeg + 1):
        for l1 in range(s + 1):
            l2 = s - l1
            dp = p.deriv(l1, l2)
            if not np.any(dp.coeffs):
                continue
            beta += area ** (s - 1) * green_integral(dp * dp, cell)
    return beta
