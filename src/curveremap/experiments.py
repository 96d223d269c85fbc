"""Experiment harnesses behind the CLI: accuracy, positivity, rotation, demo.

Each harness is importable and returns plain data structures so the test
suite can assert on them; the CLI adds argument parsing and file output.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .geometry import (CurvedPolygon, CurveSpan, ParamCurve, span_gauss,
                       straight_span)
from .clipping import kept_loops, wa_clip
from .integrate import triangulate
from .mesh import (CurvilinearMesh, exact_cell_averages,
                   gen_deformed_square_mesh, gen_disk_mesh, rotate_mesh)
from .reconstruct import _order_degree
from .remap import apply_plan, build_plan

# defaults for the accuracy-family experiments (the roughening recreates the
# cell-to-cell irregularity of rezoned Lagrangian meshes)
GRESHO_AMPLITUDE = 0.35
TG_AMPLITUDE = 0.04
ROUGHEN = 0.12
ACCURACY_SIZES = (8, 16, 32, 64)
ACCURACY_ORDERS = (1, 3, 5)


def sin_field(x, y):
    return np.sin(np.pi * x) + np.sin(np.pi * y)


def cone_field(x, y):
    r = np.hypot(x - 0.5, y - 0.5)
    return np.where(r < 0.25, 1.0 - 4.0 * r, 0.0) + 1e-10


def cylinder_field(x, y):
    r = np.hypot(x - 0.5, y - 0.5)
    return np.where(r < 0.25, 1.0, 0.0) + 1e-10


def composite_disk_field(x, y):
    """Cone + hump + slotted cylinder on the unit disk, floored at 1e-10."""
    s3 = math.sqrt(3.0) / 4.0
    r1 = np.hypot(x + 0.25, y - s3) / 0.35
    r2 = np.hypot(x + 0.25, y + s3) / 0.35
    r3 = np.hypot(x - 0.5, y) / 0.35
    cone = np.where(r1 <= 1.0, 1.0 - r1, 0.0)
    hump = np.where(r2 <= 1.0, 0.25 * (1.0 + np.cos(np.pi * np.minimum(r2, 1.0))),
                    0.0)
    slot = (y < 0.0) & (np.abs(x - 0.5) < 0.35 / 4.0)
    cyl = np.where((r3 <= 1.0) & ~slot, 1.0, 0.0)
    return cone + hump + cyl + 1e-10


def accuracy_meshes(n: int, degree: int = 2):
    src = gen_deformed_square_mesh(n, "gresho_like", GRESHO_AMPLITUDE, degree,
                                   roughen=ROUGHEN)
    tgt = gen_deformed_square_mesh(n, "taylor_green_like", TG_AMPLITUDE,
                                   degree, roughen=ROUGHEN)
    return src, tgt


def lsq_slope(sizes, errors) -> float:
    """Least-squares slope of log error against log n (positive = decay)."""
    return float(-np.polyfit(np.log(np.asarray(sizes, float)),
                             np.log(np.asarray(errors, float)), 1)[0])


@dataclass
class ConvergenceTable:
    order: int
    sizes: list[int] = field(default_factory=list)
    l1: list[float] = field(default_factory=list)
    l2: list[float] = field(default_factory=list)
    linf: list[float] = field(default_factory=list)

    def rates(self, errs) -> list[float]:
        out = [float("nan")]
        for k in range(1, len(errs)):
            out.append(math.log2(errs[k - 1] / errs[k]))
        return out

    @property
    def l1_slope(self) -> float:
        """lsq_slope of the L1 errors; nan, with no fit, below two sizes."""
        if len(self.sizes) < 2:
            return float("nan")
        return lsq_slope(self.sizes, self.l1)

    def csv_rows(self) -> list[str]:
        rows = []
        r1, r2, ri = self.rates(self.l1), self.rates(self.l2), self.rates(self.linf)
        for k, n in enumerate(self.sizes):
            def fmt(x):
                return "" if math.isnan(x) else f"{x:.2f}"
            rows.append(f"{self.order},{n},{self.l1[k]:.4e},{fmt(r1[k])},"
                        f"{self.l2[k]:.4e},{fmt(r2[k])},"
                        f"{self.linf[k]:.4e},{fmt(ri[k])}")
        return rows


@dataclass
class AccuracyResult:
    tables: dict[int, ConvergenceTable]
    conservation_rows: list[tuple]  # (n, e_area, {order: e_cons})

    def accuracy_csv(self) -> str:
        lines = ["order,n,l1,l1_rate,l2,l2_rate,linf,linf_rate"]
        for order in sorted(self.tables):
            lines += self.tables[order].csv_rows()
        return "\n".join(lines) + "\n"

    def conservation_csv(self) -> str:
        orders = sorted(self.tables)
        lines = ["n,e_area_c," + ",".join(f"e_cons_order{o}" for o in orders)]
        for (n, e_area, per_order) in self.conservation_rows:
            lines.append(f"{n},{e_area:.4e},"
                         + ",".join(f"{per_order[o]:.4e}" for o in orders))
        return "\n".join(lines) + "\n"


def run_accuracy(sizes=ACCURACY_SIZES, orders=ACCURACY_ORDERS,
                 quiet: bool = True) -> AccuracyResult:
    """Remap the sine field between deformed meshes over a refinement sweep.

    One clipping plan per size is shared by all reconstruction orders.
    A size or order given twice is a ValueError.
    """
    for name, vals in (("sizes", sizes), ("orders", orders)):
        if len(set(vals)) != len(vals):
            raise ValueError(f"{name} must not repeat: {list(vals)}")
    tables = {o: ConvergenceTable(o) for o in orders}
    cons_rows = []
    k_max = max(_order_degree(o) for o in orders)
    for n in sizes:
        src, tgt = accuracy_meshes(n)
        fs = exact_cell_averages(src, sin_field)
        ft = exact_cell_averages(tgt, sin_field)
        plan = build_plan(src, tgt, k_max=k_max, with_tris=False)
        areas = tgt.cell_areas()
        per_order = {}
        e_area = 0.0
        for o in orders:
            rep = apply_plan(plan, fs.averages, order=o)
            diff = np.abs(rep.field.averages - ft.averages)
            t = tables[o]
            t.sizes.append(n)
            t.l1.append(float(diff @ areas))
            t.l2.append(float(np.sqrt((diff ** 2) @ areas)))
            t.linf.append(float(diff.max()))
            per_order[o] = rep.e_cons
            e_area = rep.e_area_c
        cons_rows.append((n, e_area, per_order))
        if not quiet:
            print(f"accuracy: n={n} done")
    return AccuracyResult(tables, cons_rows)


@dataclass
class PositivityResult:
    name: str
    limited: object    # RemapReport
    unlimited: object  # RemapReport
    exact_target: np.ndarray
    target_mesh: CurvilinearMesh

    def summary(self) -> str:
        return (f"{self.name}: min with limiter = "
                f"{self.limited.min_average:.6e}, without = "
                f"{self.unlimited.min_average:.6e}, e_cons with limiter = "
                f"{self.limited.e_cons:.3e}\n")


def run_positivity(name: str, n: int = 32) -> PositivityResult:
    """Cone or cylinder remap at order 3, with and without the positivity
    limiter."""
    fields = {"cone": cone_field, "cylinder": cylinder_field}
    func = fields[name]
    src, tgt = accuracy_meshes(n)
    fs = exact_cell_averages(src, func, strict=False, max_levels=5)
    ft = exact_cell_averages(tgt, func, strict=False, max_levels=5)
    plan = build_plan(src, tgt, k_max=_order_degree(3), with_tris=True)
    limited = apply_plan(plan, fs.averages, order=3, positivity=True)
    unlimited = apply_plan(plan, fs.averages, order=3, positivity=False)
    return PositivityResult(name, limited, unlimited, ft.averages, tgt)


@dataclass
class RotationResult:
    n: int
    order: int
    positivity: bool
    masses: list[float]
    min_averages: list[float]
    e_cons_steps: list[float]
    initial: np.ndarray
    final: np.ndarray
    mesh: CurvilinearMesh

    @property
    def mass_drift(self) -> float:
        m0 = self.masses[0]
        return max(abs(m - m0) for m in self.masses) / abs(m0)

    @property
    def l1_vs_initial(self) -> float:
        return float(np.abs(self.final - self.initial) @ self.mesh.cell_areas())

    def csv(self) -> str:
        lines = ["step,mass,min_average,e_cons"]
        for k in range(len(self.masses)):
            ec = self.e_cons_steps[k - 1] if k > 0 else 0.0
            lines.append(f"{k},{self.masses[k]:.12e},"
                         f"{self.min_averages[k]:.6e},{ec:.4e}")
        return "\n".join(lines) + "\n"


def run_rotation(n: int = 20, steps: int = 8, order: int = 3,
                 positivity: bool = True, quiet: bool = True) -> RotationResult:
    """Solid-body rotation: remap through a full turn in pi/4 increments.
    A negative step count is a ValueError."""
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    base = gen_disk_mesh(n)
    meshes = [base] + [rotate_mesh(base, (k + 1) * math.pi / 4.0)
                       for k in range(steps)]
    f0 = exact_cell_averages(base, composite_disk_field, strict=False,
                             max_levels=5)
    avg = f0.averages.copy()
    masses = [float(avg @ base.cell_areas())]
    mins = [float(avg.min())]
    e_cons = []
    kdeg = _order_degree(order)
    for k in range(steps):
        plan = build_plan(meshes[k], meshes[k + 1], k_max=kdeg,
                          with_tris=positivity)
        rep = apply_plan(plan, avg, order=order, positivity=positivity)
        avg = rep.field.averages
        masses.append(float(avg @ meshes[k + 1].cell_areas()))
        mins.append(float(avg.min()))
        e_cons.append(rep.e_cons)
        if not quiet:
            print(f"rotation: step {k + 1}/{steps} done")
    return RotationResult(n, order, positivity, masses, mins, e_cons,
                          f0.averages, avg, meshes[-1])


# --------------------------------------------------------------------------
# the worked clipping example (two curved quads)

QUAD_P = {"P1": (-1.5, -2.0), "P2": (1.0, -1.0), "P3": (1.0, 1.0),
          "P4": (-1.0, 1.0), "P5": (0.1, -0.1), "P6": (1.4, 0.0),
          "P7": (0.0, 0.9), "P8": (-0.8, 0.0)}
QUAD_Q = {"Q1": (-1.0, -2.0), "Q2": (1.0, -2.0), "Q3": (1.0, 0.1),
          "Q4": (-0.875, 0.2), "Q5": (-0.7, -0.55), "Q6": (1.4, -1.0),
          "Q7": (0.0, -0.25), "Q8": (-1.4, -1.0)}
_P_EDGES = (("P1", "P5", "P2"), ("P2", "P6", "P3"),
            ("P3", "P7", "P4"), ("P4", "P8", "P1"))
_Q_EDGES = (("Q1", "Q5", "Q2"), ("Q2", "Q6", "Q3"),
            ("Q3", "Q7", "Q4"), ("Q4", "Q8", "Q1"))

REFERENCE_AREA = 0.7234537303590143  # independently published value


_CUBIC_WIGGLE = 0.06  # normal offset of the degree-3 demo's interior nodes


def _elevate_quadratic(nodes: np.ndarray, seed: int) -> ParamCurve:
    """Cubic curve through the quadratic curve's points, bent off it."""
    quad = ParamCurve(nodes)
    ts = np.array([0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0])
    pts = quad.eval(ts)
    chord = pts[3] - pts[0]
    nrm = np.array([-chord[1], chord[0]])
    norm = np.hypot(*nrm)
    if norm > 0:
        nrm /= norm
        pts[1] += _CUBIC_WIGGLE * nrm * (1 if seed % 2 == 0 else -1)
        pts[2] -= 0.6 * _CUBIC_WIGGLE * nrm * (1 if seed % 3 == 0 else -1)
    return ParamCurve(pts)


def demo_quads(degree: int = 2):
    """The worked-example quads at the requested edge degree.

    degree 3 elevates every edge to a cubic and bends its interior nodes,
    so the curves are genuinely cubic.
    """
    if degree not in (2, 3):
        raise ValueError("demo supports degree 2 or 3")

    def build(vals, names):
        spans = []
        for k, (a, c, b) in enumerate(names):
            nodes = np.array([vals[a], vals[c], vals[b]])
            if degree == 2:
                spans.append(CurveSpan(ParamCurve(nodes)))
            else:
                spans.append(CurveSpan(_elevate_quadratic(nodes, k)))
        return CurvedPolygon(spans)

    return build(QUAD_P, _P_EDGES), build(QUAD_Q, _Q_EDGES)


@dataclass
class ClipDemoResult:
    points: list[tuple]   # (x, y, kind)
    loops: list
    area_a: float
    area_b: float
    subject: CurvedPolygon
    clip: CurvedPolygon
    triangles: list       # fan triangles (apex, span, apex) as polygons

    def table_text(self) -> str:
        lines = ["intersection points (x, y, type):"]
        for k, (x, y, kind) in enumerate(self.points, 1):
            lines.append(f"  {k}: {x: .8f} {y: .8f}  {kind}")
        lines.append(f"loops: {len(self.loops)}")
        lines.append(f"area (contour integration):      {self.area_a:.15f}")
        lines.append(f"area (triangulated quadrature):  {self.area_b:.15f}")
        lines.append(f"|A - B| = {abs(self.area_a - self.area_b):.3e}")
        return "\n".join(lines) + "\n"


def run_clipdemo(degree: int = 2) -> ClipDemoResult:
    """Clip the worked-example quads and integrate the result both ways."""
    return run_clipdemo_on(*demo_quads(degree))


def run_clipdemo_on(subject: CurvedPolygon, clip: CurvedPolygon) -> ClipDemoResult:
    """Clip two user-supplied polygons with the full demo reporting."""
    res = wa_clip(subject, clip)
    loops = kept_loops(res.loops, subject, clip)
    points = [(e.point[0], e.point[1], e.kind) for e in res.crossings]
    area_a = sum(_contour_integral(lp, lambda x, y: x, 0) for lp in loops)
    area_b = 0.0
    tris = []
    for _, jw, fans in triangulate(loops, 0):
        # a dot product: jw.sum() adds in another order
        area_b += float(np.dot(np.ones(len(jw)), jw))
        tris += [CurvedPolygon([straight_span(c, s.start), s,
                                straight_span(s.end, c)])
                 for piece, c in fans for s in piece.spans]
    return ClipDemoResult(points, loops, area_a, area_b, subject, clip, tris)


def _contour_integral(loop: CurvedPolygon, f2, k: int) -> float:
    """Integral over a CCW loop of a degree-k polynomial f whose
    x-antiderivative is f2(x, y): the contour integral of f2 dy, span by
    span in order, each with the Gauss rule exact for its 1D integrand."""
    total = 0.0
    for span in loop.spans:
        n = max(1, math.ceil(((k + 2) * span.degree) / 2))
        [p], [dp], w, [h] = span_gauss([span], n)
        total += float(np.dot(f2(p[:, 0], p[:, 1]), dp[:, 1] * w * h))
    return total


def _centroid(poly: CurvedPolygon) -> tuple[float, float]:
    """Centroid of a CCW loop: its first moments over its area."""
    area = poly.signed_area()
    return (_contour_integral(poly, lambda x, y: 0.5 * x * x, 1) / area,
            _contour_integral(poly, lambda x, y: x * y, 1) / area)


def centroid_csv(mesh: CurvilinearMesh, averages: np.ndarray) -> str:
    """Per-cell (centroid, average) rows for external plotting."""
    lines = ["x,y,average"]
    for i in range(mesh.n_cells):
        xs, ys = _centroid(mesh.cell_polygon(i))
        lines.append(f"{xs:.10g},{ys:.10g},{averages[i]:.17g}")
    return "\n".join(lines) + "\n"


def write_text(path, text: str) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
