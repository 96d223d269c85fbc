"""The benchmark's three workloads and the checks on their outputs.

Each workload turns a seed into its inputs (mesh amplitudes, field phase
or centre, the constant of the constant-field check), computes reference
values apart from the remap once per run, and then runs rounds. A round
builds its meshes anew, because a mesh caches curves, polygons, areas,
adjacency and reconstruction geometry on itself, and a warm mesh would
hide set-up and reconstruction work. Only the round's set-up, plan and
apply phases are timed; the checks run after them with tracing paused.
A remap's apply phase runs `apply_repeats` times on a cold reconstruction
cache, so that the short apply times get as many samples as fit in a run.
"""

from __future__ import annotations

import importlib
import math
import resource
import time
from dataclasses import dataclass, field

import numpy as np

import curveremap
from curveremap import experiments
from curveremap import mesh as cr_mesh
from curveremap.reconstruct import ReconstructionError

# the package attribute curveremap.remap is the function remap
cr_remap = importlib.import_module("curveremap.remap")

# errors the pipeline raises on inputs it cannot handle; an operation that
# raises one of them counts as failed
PIPELINE_ERRORS = (curveremap.ClipTopologyError, curveremap.GeometryError,
                   curveremap.IntegrationError, curveremap.LimiterError,
                   curveremap.MeshError, ReconstructionError)

# tolerances of the property checks, each well above the measured error
COVERAGE_TOL = 1e-11     # per target cell, relative to its area
CONSERVATION_TOL = 1e-13  # relative to the total absolute mass
CONSTANT_TOL = 1e-11     # relative to the constant
LINEAR_TOL = 1e-10       # absolute, on fields of size O(1)
POSITIVITY_FLOOR = 1e-14
AB_GAP_TOL = 1e-12

FULL_SIZES = {"accuracy": 32, "rotation": 16, "cubic": 16}
SMOKE_SIZES = {"accuracy": 8, "rotation": 6, "cubic": 8}


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def lagrange_areas(mesh) -> np.ndarray:
    """Cell areas by Gauss quadrature of the contour integral of x dy.

    Works from mesh.points and mesh.edges alone: every edge is the
    Lagrange interpolant through its d+1 nodes at parameters k/d, so
    x(t) y'(t) has degree 2d-1 and d+1 Gauss points integrate it exactly.
    """
    d = mesh.edges.shape[1] - 1
    u = np.linspace(0.0, 1.0, d + 1)
    xg, wg = np.polynomial.legendre.leggauss(d + 1)
    t, w = 0.5 * (xg + 1.0), 0.5 * wg
    basis = np.ones((len(t), d + 1))
    dbasis = np.zeros((len(t), d + 1))
    for j in range(d + 1):
        others = [m for m in range(d + 1) if m != j]
        for m in others:
            basis[:, j] *= (t - u[m]) / (u[j] - u[m])
        for k in others:
            term = np.full(len(t), 1.0 / (u[j] - u[k]))
            for m in others:
                if m != k:
                    term *= (t - u[m]) / (u[j] - u[m])
            dbasis[:, j] += term
    nodes = mesh.points[mesh.edges]  # (E, d+1, 2)
    x = nodes[:, :, 0] @ basis.T
    dy = nodes[:, :, 1] @ dbasis.T
    edge_int = (x * dy) @ w
    return (edge_int[mesh.cell_edges] * mesh.cell_dirs).sum(axis=1)


def drop_recon_cache(mesh) -> None:
    """Forget the reconstruction geometry that a mesh caches on itself
    (`reconstruct._cache_for`), so that the next apply_plan computes it
    again, as on a mesh that was just built."""
    mesh.__dict__.pop("_recon_cache", None)


def plan_coverage(plan) -> np.ndarray:
    """Per target cell, the summed area of the plan's clipped loops."""
    return np.array([sum(lp.area for pg in per for lp in pg.loops)
                     for per in plan.per_target])


def plan_sample_counts(plan) -> tuple[int, int, int]:
    """Approach A points, Approach B points and bytes of the sample arrays."""
    a = b = nbytes = 0
    for per in plan.per_target:
        for pg in per:
            for lp in pg.loops:
                a += len(lp.ax)
                nbytes += lp.ax.nbytes + lp.ay.nbytes + lp.awdy.nbytes
                if lp.bpts is not None:
                    b += len(lp.bpts)
                    nbytes += lp.bpts.nbytes + lp.bjw.nbytes
    return a, b, nbytes


@dataclass
class Round:
    """Times, outputs and check results of one round.

    plan_s, apply_s and cells hold one entry per remap, that is per
    build_plan with the apply_plan calls on its plan: apply_s the time of
    each of its apply passes, cells its target cells times the apply_plan
    calls of one pass.
    """

    setup_s: float = 0.0
    wall_s: float = 0.0
    peak_rss_mib: float = 0.0  # at the end of the timed region
    plan_s: list[float] = field(default_factory=list)
    apply_s: list[list[float]] = field(default_factory=list)
    cells: list[int] = field(default_factory=list)
    l1_error: float = float("nan")
    failed: bool = False
    problems: list[str] = field(default_factory=list)


class Workload:
    """One workload: seeded inputs, references, a timed round, checks."""

    name = ""
    ops_per_round = 1
    apply_repeats = 1

    def __init__(self, seed: int, n: int):
        self.rng = np.random.default_rng(seed)
        self.n = n
        self.const = float(self.rng.uniform(0.5, 2.0))
        self.rounds_run = 0

    def run_round(self, trace, traced: bool) -> Round:
        """Run one round, recording spans only if traced."""
        self.rounds_run += 1
        rnd = Round()
        trace.active = traced
        try:
            t0 = time.perf_counter()
            with trace.span("mesh.generate"):
                meshes = self.make_meshes()
            trace.count("mesh.cells", sum(m.n_cells for m in meshes))
            src_avg = cr_mesh.exact_cell_averages(meshes[0], self.field,
                                                  **self.avg_opts)
            t1 = time.perf_counter()
            out = self.remap(trace, meshes, src_avg.averages, rnd)
            rnd.wall_s = time.perf_counter() - t0
            rnd.setup_s = t1 - t0
            rnd.peak_rss_mib = peak_rss_mib()
        except PIPELINE_ERRORS as exc:
            rnd.failed = True
            rnd.problems.append(f"{type(exc).__name__}: {exc}")
            return rnd
        finally:
            trace.active = False
        self.check(meshes, src_avg.averages, out, rnd)
        return rnd

    # -- shared pieces -------------------------------------------------
    def timed_plan(self, trace, rnd, src, tgt, **kw):
        t0 = time.perf_counter()
        with trace.span("remap.build_plan"):
            plan = cr_remap.build_plan(src, tgt, **kw)
        rnd.plan_s.append(time.perf_counter() - t0)
        trace.count("remap.clipped_pairs", plan.n_pairs)
        if trace.active:
            a, b, nbytes = plan_sample_counts(plan)
            trace.count("integrate.a_points", a)
            trace.count("integrate.b_points", b)
            trace.count("remap.plan_bytes", nbytes)
        return plan

    def timed_applies(self, trace, rnd, plan, calls):
        """Run a remap's apply pass, the apply_plan calls given as
        (averages, keywords), apply_repeats times, each on a cold
        reconstruction cache; return the reports of the last pass."""
        times = []
        for _ in range(self.apply_repeats):
            drop_recon_cache(plan.source)
            t0 = time.perf_counter()
            reps = []
            for avg, kw in calls:
                with trace.span("remap.apply_plan"):
                    reps.append(cr_remap.apply_plan(plan, avg, **kw))
            times.append(time.perf_counter() - t0)
        rnd.apply_s.append(times)
        rnd.cells.append(len(calls) * plan.target.n_cells)
        return reps

    def check_plan(self, rnd, plan, area_t) -> None:
        rel = np.abs(plan_coverage(plan) - area_t) / area_t
        if rel.max() > COVERAGE_TOL:
            rnd.problems.append(
                f"coverage: target cell {int(rel.argmax())} off by "
                f"{rel.max():.3e} of its area")

    def check_conservation(self, rnd, label, avg_in, area_in, avg_out,
                           area_out) -> None:
        m_in = float(avg_in @ area_in)
        m_out = float(avg_out @ area_out)
        rel = abs(m_in - m_out) / float(np.abs(avg_in) @ area_in)
        if rel > CONSERVATION_TOL:
            rnd.problems.append(f"conservation {label}: relative mass "
                                f"change {rel:.3e}")

    def check_constant(self, rnd, plan, **kw) -> None:
        src = plan.source
        rep = cr_remap.apply_plan(plan, np.full(src.n_cells, self.const),
                                  **kw)
        err = float(np.abs(rep.field.averages - self.const).max())
        if err > CONSTANT_TOL * self.const:
            rnd.problems.append(
                f"constant {self.const!r}: max error {err:.3e}")

    def check_positive(self, rnd, label, avg) -> None:
        if avg.min() < POSITIVITY_FLOOR:
            rnd.problems.append(f"positivity {label}: min average "
                                f"{avg.min():.3e}")


class Accuracy(Workload):
    """One size of the convergence study: one plan, orders 1, 3 and 5."""

    name = "accuracy"
    ops_per_round = 3
    avg_opts: dict = {}

    def __init__(self, seed: int, n: int):
        super().__init__(seed, n)
        amp = self.rng.uniform(0.99, 1.01, size=2)
        self.amp_src = experiments.GRESHO_AMPLITUDE * amp[0]
        self.amp_tgt = experiments.TG_AMPLITUDE * amp[1]
        px, py = self.rng.uniform(0.0, 0.03, size=2)
        self.field = lambda x, y: (np.sin(np.pi * (x + px))
                                   + np.sin(np.pi * (y + py)))
        c = self.rng.uniform(-1.0, 1.0, size=3)
        self.linear = lambda x, y: c[0] + c[1] * x + c[2] * y

    def make_meshes(self):
        """The accuracy-study pair (experiments.accuracy_meshes) with the
        seeded swirl and vortex amplitudes."""
        src = cr_mesh.gen_deformed_square_mesh(
            self.n, "gresho_like", self.amp_src, 2,
            roughen=experiments.ROUGHEN)
        tgt = cr_mesh.gen_deformed_square_mesh(
            self.n, "taylor_green_like", self.amp_tgt, 2,
            roughen=experiments.ROUGHEN)
        return src, tgt

    def reference(self) -> None:
        src, tgt = self.make_meshes()
        self.exact_t = cr_mesh.exact_cell_averages(tgt, self.field).averages
        self.lin_s = cr_mesh.exact_cell_averages(src, self.linear).averages
        self.lin_t = cr_mesh.exact_cell_averages(tgt, self.linear).averages

    def remap(self, trace, meshes, avg, rnd):
        src, tgt = meshes
        plan = self.timed_plan(trace, rnd, src, tgt, k_max=4)
        orders = (1, 3, 5)
        reps = self.timed_applies(trace, rnd, plan,
                                  [(avg, {"order": o}) for o in orders])
        return plan, dict(zip(orders, reps))

    def check(self, meshes, avg, out, rnd) -> None:
        src, tgt = meshes
        plan, reps = out
        area_s, area_t = lagrange_areas(src), lagrange_areas(tgt)
        self.check_plan(rnd, plan, area_t)
        # order 5 adds about 3 s to a round, so only a run's first round
        # checks it; later rounds check order 1
        self.check_constant(rnd, plan, order=5 if self.rounds_run == 1 else 1)
        l1 = {}
        for o, rep in reps.items():
            self.check_conservation(rnd, f"order {o}", avg, area_s,
                                    rep.field.averages, area_t)
            l1[o] = float(np.abs(rep.field.averages - self.exact_t) @ area_t)
        if not l1[5] < l1[3] < l1[1]:
            rnd.problems.append(f"L1 errors do not fall with order: {l1}")
        rnd.l1_error = l1[5]
        lin = cr_remap.apply_plan(plan, self.lin_s, order=3)
        err = float(np.abs(lin.field.averages - self.lin_t).max())
        if err > LINEAR_TOL:
            rnd.problems.append(f"order 3 misses a linear field by {err:.3e}")


def composite_rotated(angle: float):
    """The cone/hump/slotted-cylinder field turned by angle about 0."""
    c, s = math.cos(angle), math.sin(angle)

    def f(x, y):
        return experiments.composite_disk_field(c * x + s * y, -s * x + c * y)
    return f


class Rotation(Workload):
    """Two pi/4 steps of solid-body rotation with the limiter."""

    name = "rotation"
    ops_per_round = 2
    apply_repeats = 6
    steps = 2
    avg_opts = {"strict": False, "max_levels": 5}

    def __init__(self, seed: int, n: int):
        super().__init__(seed, n)
        self.phase = float(self.rng.uniform(0.0, math.pi / 32.0))
        self.field = composite_rotated(self.phase)

    def make_meshes(self):
        base = cr_mesh.gen_disk_mesh(self.n)
        return [base] + [cr_mesh.rotate_mesh(base, (k + 1) * math.pi / 4.0)
                         for k in range(self.steps)]

    def reference(self) -> None:
        # the meshes turn under a field that stays put, so the exact answer
        # is the same field's averages over the last mesh
        last = self.make_meshes()[-1]
        self.exact_last = cr_mesh.exact_cell_averages(
            last, self.field, **self.avg_opts).averages

    def remap(self, trace, meshes, avg, rnd):
        steps = []
        for k in range(self.steps):
            plan = self.timed_plan(trace, rnd, meshes[k], meshes[k + 1],
                                   k_max=2, with_tris=True)
            [rep] = self.timed_applies(
                trace, rnd, plan, [(avg, {"order": 3, "positivity": True})])
            avg = rep.field.averages
            steps.append((plan, rep))
        return steps

    def check(self, meshes, avg, out, rnd) -> None:
        areas = [lagrange_areas(m) for m in meshes]
        mass0 = float(avg @ areas[0])
        drift = 0.0
        for k, (plan, rep) in enumerate(out):
            self.check_plan(rnd, plan, areas[k + 1])
            self.check_constant(rnd, plan, order=3, positivity=True)
            new = rep.field.averages
            self.check_conservation(rnd, f"step {k + 1}", avg, areas[k],
                                    new, areas[k + 1])
            self.check_positive(rnd, f"step {k + 1}", new)
            drift = max(drift, abs(float(new @ areas[k + 1]) - mass0) / mass0)
            avg = new
        if drift > CONSERVATION_TOL:
            rnd.problems.append(f"mass drift {drift:.3e}")
        rnd.l1_error = float(np.abs(avg - self.exact_last) @ areas[-1])


def cylinder_at(cx: float, cy: float):
    def f(x, y):
        r = np.hypot(x - cx, y - cy)
        return np.where(r < 0.25, 1.0, 0.0) + 1e-10
    return f


class Cubic(Workload):
    """Degree-3 edges, limiter on, both integration approaches."""

    name = "cubic"
    ops_per_round = 1
    apply_repeats = 6
    avg_opts = {"strict": False, "max_levels": 5}

    def __init__(self, seed: int, n: int):
        super().__init__(seed, n)
        cx, cy = 0.5 + self.rng.uniform(-0.01, 0.01, size=2)
        self.field = cylinder_at(cx, cy)

    def make_meshes(self):
        # the study's own amplitudes, not seeded ones: triangulation time
        # on these meshes jumps by 2.5x between amplitudes 5% apart, which
        # would make plan_s a draw of the seed
        return experiments.accuracy_meshes(self.n, degree=3)

    def reference(self) -> None:
        _src, tgt = self.make_meshes()
        self.exact_t = cr_mesh.exact_cell_averages(
            tgt, self.field, **self.avg_opts).averages

    def remap(self, trace, meshes, avg, rnd):
        src, tgt = meshes
        plan = self.timed_plan(trace, rnd, src, tgt, k_max=2, with_tris=True)
        [rep] = self.timed_applies(
            trace, rnd, plan,
            [(avg, {"order": 3, "positivity": True, "approach": "both"})])
        return plan, rep

    def check(self, meshes, avg, out, rnd) -> None:
        src, tgt = meshes
        plan, rep = out
        area_s, area_t = lagrange_areas(src), lagrange_areas(tgt)
        self.check_plan(rnd, plan, area_t)
        self.check_constant(rnd, plan, order=3, positivity=True,
                            approach="both")
        new = rep.field.averages
        self.check_conservation(rnd, "limited", avg, area_s, new, area_t)
        self.check_positive(rnd, "limited", new)
        if rep.max_ab_gap > AB_GAP_TOL:
            rnd.problems.append(f"A/B gap {rep.max_ab_gap:.3e}")
        rnd.l1_error = float(np.abs(new - self.exact_t) @ area_t)


WORKLOADS = {w.name: w for w in (Accuracy, Rotation, Cubic)}
