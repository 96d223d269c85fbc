"""Acceptance criteria, one test per criterion, each printing a PASS line."""

import math
import time

import numpy as np
import pytest

from curveremap.clipping import wa_clip
from curveremap.geometry import polygon_from_points
from curveremap.integrate import triangulate
from curveremap.limiter import positivity_limit
from curveremap.mesh import exact_cell_averages, gen_deformed_square_mesh
from curveremap.reconstruct import build_stencil, weno_reconstruct
from curveremap.remap import apply_plan, build_plan, candidate_pairs
from curveremap import experiments as ex

from conftest import elevated_demo_quads, sample_curved_quads
from reference_integrate import Poly2, constrained_lsq_fit, green_integral

TABLE2 = [
    (-1.05713663, -1.29598616, "exit"),
    (-0.51624632, -0.58935822, "entry"),
    (-0.13487741, -0.23429411, "exit"),
    (0.57041875, -0.14211494, "entry"),
    (-1.27097304, -1.62405364, "entry"),
    (1.30701824, -0.48213526, "exit"),
    (-0.78370680, 0.11026931, "entry"),
    (-1.30299176, -1.55541394, "exit"),
]

EXACT_AREA = 0.7234537303590143


def announce(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def demo():
    t0 = time.monotonic()
    res = ex.run_clipdemo(degree=2)
    res.elapsed = time.monotonic() - t0
    return res


@pytest.fixture(scope="module")
def accuracy():
    t0 = time.monotonic()
    res = ex.run_accuracy(sizes=(8, 16, 32, 64), orders=(1, 3, 5))
    res.elapsed = time.monotonic() - t0
    return res


@pytest.fixture(scope="module")
def positivity_runs():
    src, tgt = ex.accuracy_meshes(32)
    plan = build_plan(src, tgt, k_max=2, with_tris=True)
    out = {}
    for name, func in (("cone", ex.cone_field), ("cylinder", ex.cylinder_field)):
        avg = exact_cell_averages(src, func, strict=False, max_levels=5).averages
        out[name] = {
            "avg": avg,
            "mass": float(avg @ src.cell_areas()),
            "limited": apply_plan(plan, avg, order=3, positivity=True),
            "unlimited": apply_plan(plan, avg, order=3, positivity=False),
        }
    return out


def test_criterion_1_intersection_table(demo):
    ok = len(demo.points) == 8
    detail = f"{len(demo.points)} intersection points in {demo.elapsed:.2f}s"
    for (x, y, kind) in TABLE2:
        best = min(demo.points,
                   key=lambda p: (p[0] - x) ** 2 + (p[1] - y) ** 2)
        ok &= math.hypot(best[0] - x, best[1] - y) <= 1e-7
        ok &= best[2] == kind
    ok &= demo.elapsed < 1.0
    announce(1, ok, detail + ", coordinates to 1e-7, all labels match")


def test_criterion_2_intersection_area(demo):
    err_a = abs(demo.area_a - EXACT_AREA)
    err_b = abs(demo.area_b - EXACT_AREA)
    gap = abs(demo.area_a - demo.area_b)
    ok = err_a <= 1e-13 and err_b <= 1e-13 and gap <= 2e-14
    announce(2, ok, f"|A-exact|={err_a:.2e}, |B-exact|={err_b:.2e}, "
             f"|A-B|={gap:.2e}")


def test_criterion_3_degree3_agreement():
    res = ex.run_clipdemo(degree=3)
    gap = abs(res.area_a - res.area_b)
    elevated = ex.run_clipdemo_on(*elevated_demo_quads())
    ref_err = abs(elevated.area_a - EXACT_AREA)
    ok = gap <= 5e-12 and ref_err <= 1e-10
    announce(3, ok, f"cubic |A-B|={gap:.2e}; degree-elevated area error "
             f"vs reference {ref_err:.2e}")


def test_criterion_4_convergence_orders(accuracy):
    windows = {1: (0.8, 1.3), 3: (2.7, 3.4), 5: (4.5, 5.5)}
    slopes = {o: accuracy.tables[o].l1_slope for o in (1, 3, 5)}
    detail = (", ".join(f"order {o}: slope {slopes[o]:.3f} in {windows[o]}"
                        for o in (1, 3, 5))
              + f"; runtime {accuracy.elapsed:.0f}s < 300s")
    ok = accuracy.elapsed < 300.0
    for o, (lo, hi) in windows.items():
        ok &= lo <= slopes[o] <= hi
    announce(4, ok, detail)


def test_criterion_5_conservation(accuracy):
    worst_area = max(r[1] for r in accuracy.conservation_rows)
    worst_cons = max(max(r[2].values()) for r in accuracy.conservation_rows)
    ok = worst_area <= 1e-10 and worst_cons <= 1e-11
    announce(5, ok, f"max e_area_C={worst_area:.2e} (<=1e-10), "
             f"max e_cons={worst_cons:.2e} (<=1e-11)")


def test_criterion_6_positivity(positivity_runs):
    ok = True
    details = []
    for name in ("cone", "cylinder"):
        run = positivity_runs[name]
        ok &= run["limited"].min_average >= 1e-14
        ok &= run["limited"].e_cons <= 1e-11 * run["mass"]
        details.append(f"{name}: limited min {run['limited'].min_average:.2e}, "
                       f"e_cons {run['limited'].e_cons:.1e}")
    neg = positivity_runs["cylinder"]["unlimited"].min_average
    ok &= neg < 0.0
    details.append(f"cylinder unlimited min {neg:.2e} < 0")
    announce(6, ok, "; ".join(details))


def test_criterion_7_solid_body_rotation():
    l1 = {}
    ok = True
    details = []
    for n in (12, 20):
        res = ex.run_rotation(n=n, steps=8, order=3, positivity=True)
        ok &= res.mass_drift <= 1e-10
        ok &= min(res.min_averages) >= 1e-14
        l1[n] = res.l1_vs_initial
        details.append(f"n={n}: drift {res.mass_drift:.1e}, "
                       f"min {min(res.min_averages):.1e}, L1 {l1[n]:.3e}")
    ok &= l1[20] < l1[12]
    announce(7, ok, "; ".join(details) + "; L1 decreases under refinement")


def test_criterion_8_property_suites():
    rng = np.random.default_rng(2024)
    # quadrature monomial exactness, randomized: triangulate's samples of
    # the reference triangle at a random degree
    ref = polygon_from_points([(0, 0), (1, 0), (0, 1)])
    cases = 0
    for _ in range(60):
        deg = int(rng.integers(1, 13))
        [(pts, jw, _)] = triangulate([ref], deg)
        assert np.all(jw > 0.0)
        a = int(rng.integers(0, deg + 1))
        b = int(rng.integers(0, deg + 1 - a))
        got = float(np.dot(pts[:, 0] ** a * pts[:, 1] ** b, jw))
        exact = math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)
        assert abs(got - exact) <= 1e-14 * max(exact, 1e-3)
        cases += 1
    assert cases >= 50

    # WENO linear reproduction (of the constrained fit, which is the
    # component with that contract) and per-cell conservation of the blend
    mesh = gen_deformed_square_mesh(6, "gresho_like", 0.4, 2, roughen=0.1)
    areas = mesh.cell_areas()
    cx = np.array([green_integral(Poly2.monomial(1, 0), mesh.cell_polygon(i))
                   for i in range(mesh.n_cells)]) / areas
    cy = np.array([green_integral(Poly2.monomial(0, 1), mesh.cell_polygon(i))
                   for i in range(mesh.n_cells)]) / areas
    adj = mesh.adjacency
    interior = [i for i in range(mesh.n_cells)
                if len(adj.edge_neighbors[i]) == 4
                and len(adj.vertex_neighbors[i]) == 4]
    weno_cases = 0
    for _ in range(50):
        a0, bx, by = rng.normal(size=3)
        avg = a0 + bx * cx + by * cy  # exact averages of a linear field
        i = interior[weno_cases % len(interior)]
        st = build_stencil(mesh, i, 3)
        q, _deg = constrained_lsq_fit(mesh, avg, i, st[1], 2)
        x, y = q.cx + 0.013, q.cy - 0.017
        assert abs(q.eval(x, y) - (a0 + bx * x + by * y)) <= 1e-10
        rf = weno_reconstruct(mesh, avg, order=3)
        got = green_integral(Poly2(rf.coeffs[i], *rf.frames[i]),
                             mesh.cell_polygon(i))
        assert abs(got - avg[i] * areas[i]) <= 1e-12 * max(1.0, abs(avg[i]))
        weno_cases += 1
    assert weno_cases >= 50

    # limiter floor and average preservation
    square = polygon_from_points([(0, 0), (1, 0), (1, 1), (0, 1)])
    lim_cases = 0
    while lim_cases < 50:
        coeffs = np.zeros((3, 3))
        for a in range(3):
            for b in range(3 - a):
                coeffs[a, b] = rng.normal()
        p = Poly2(coeffs, cx=0.5, cy=0.5, h=0.5)
        avg = green_integral(p, square)
        if avg < 1e-14:
            continue
        x, y = rng.uniform(0, 1, (20, 2)).T
        lim = positivity_limit(p.coeffs[None], np.array([[0.5, 0.5, 0.5]]),
                               [avg], [(np.array([0]), np.array([20]), x, y)])
        out = Poly2(lim[0], 0.5, 0.5, 0.5)
        assert out.eval(x, y).min() >= 1e-14 - 1e-16
        assert abs(green_integral(out, square) - avg) <= 1e-13 * max(1.0, avg)
        lim_cases += 1

    # clip symmetry, boundedness, partition
    quads_a = sample_curved_quads(5150, 25)
    quads_b = sample_curved_quads(9099, 25, offset=(0.3, 0.25))
    clip_cases = 0
    for a, b in zip(quads_a, quads_b):
        area_ab = wa_clip(a, b).total_area
        area_ba = wa_clip(b, a).total_area
        assert abs(area_ab - area_ba) <= 1e-12 * max(1.0, area_ab)
        assert -1e-12 <= area_ab <= min(a.signed_area(), b.signed_area()) + 1e-12
        clip_cases += 1
    src = gen_deformed_square_mesh(6, "gresho_like", 0.3, 2)
    tgt = gen_deformed_square_mesh(6, "taylor_green_like", 0.05, 2)
    index_pairs = candidate_pairs(src, tgt)
    for t in rng.permutation(tgt.n_cells)[:25]:
        tp = tgt.cell_polygon(int(t))
        covered = sum(wa_clip(src.cell_polygon(i), tp).total_area
                      for (i, tt) in index_pairs if tt == t)
        assert abs(covered - tp.signed_area()) <= 1e-10 * tp.signed_area()
        clip_cases += 1
    assert clip_cases >= 50
    announce(8, True, f"quadrature {cases}, weno {weno_cases}, "
             f"limiter {lim_cases}, clip {clip_cases} randomized cases")


def test_criterion_9_oracle_equivalence():
    src, tgt = ex.accuracy_meshes(8)
    cands = set(candidate_pairs(src, tgt))
    drop = 1e-14 * min(src.cell_areas().min(), tgt.cell_areas().min())
    missed = []
    for i in range(src.n_cells):
        for t in range(tgt.n_cells):
            area = wa_clip(src.cell_polygon(i), tgt.cell_polygon(t)).total_area
            if area > drop and (i, t) not in cands:
                missed.append((i, t))
    plan = build_plan(src, tgt, k_max=4, with_tris=True)
    worst = 0.0
    for per in plan.per_target:
        for pg in per:
            for lp in pg.loops:
                for a in range(5):
                    for b in range(5 - a):
                        f = Poly2.monomial(a, b)
                        f2 = f.antideriv_x()
                        va = float(np.dot(f2.eval(lp.ax, lp.ay), lp.awdy))
                        vb = float(np.dot(
                            f.eval(lp.bpts[:, 0], lp.bpts[:, 1]), lp.bjw))
                        worst = max(worst, abs(va - vb) / max(1.0, abs(va)))
    ok = not missed and worst <= 1e-11
    announce(9, ok, f"candidate superset exact (missed {len(missed)}), "
             f"max |A-B| over degree<=4 monomials {worst:.2e}")
