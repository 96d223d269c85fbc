"""Print sha256 digests of the crossing table, the plan and the applies of
each of a fixed list of mesh pairs, so that two checkouts can be compared:

    python3 tests/plan_digest.py > a.txt     # in each checkout
    diff a.txt b.txt
    python3 tests/plan_digest.py accuracy_n32_k4 sliver_1e-9   # some cases

Each line reads: name, crossing rows, table digest, clipped loops, plan
digest, arc probes, apply digest. The table digest covers the edge pairs and every
row's pair, u, v, point, transversal flag and cross product; the plan
digest covers, per target cell and source cell, every loop's span nodes
and windows, its area, its Approach A samples and, with triangles, its
Approach B samples. The probes are the plan's calls of
`clipping._arc_state`. The apply digest covers `apply_plan` on the plan
at every order its k_max allows, and, where it has triangles, with the
limiter off and on and for approaches A, B and both: the `float.hex` of
every remapped average and the report's text without its `time_` lines.
The field is 1 on the source cells whose box centre lies within 0.3 of
(0.1, 0.2) and 1e-10 elsewhere, so the limiter has work. A plan that
raises prints the error in place of its digest. The package is imported from `src/` of the checkout this file
sits in. pytest does not collect this file.
"""

from __future__ import annotations

import hashlib
import importlib
import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from curveremap import clipping  # noqa: E402
from curveremap.experiments import accuracy_meshes  # noqa: E402
from curveremap.mesh import (  # noqa: E402
    gen_deformed_square_mesh, gen_disk_mesh, rotate_mesh)

remap = importlib.import_module("curveremap.remap")
reconstruct = importlib.import_module("curveremap.reconstruct")

_TABLE_COLUMNS = ("pair", "u", "v", "point", "transversal", "cross")


def _turned(n, angle, degree=2):
    base = gen_disk_mesh(n, degree=degree)
    return base, rotate_mesh(base, angle)


def _straight(degrees):
    return (gen_deformed_square_mesh(8, "gresho_like", 0.3, degrees[0],
                                     roughen=0.1),
            gen_deformed_square_mesh(8, "taylor_green_like", 0.04,
                                     degrees[1], roughen=0.1))


# name: (meshes, with_tris, k_max)
CASES = {
    "accuracy_n32": (lambda: accuracy_meshes(32), False),
    "accuracy_n32_k4": (lambda: accuracy_meshes(32), False, 4),
    "rotation_n16_step1": (lambda: _turned(16, math.pi / 4.0), True),
    "rotation_n16_step2": (
        lambda: (rotate_mesh(gen_disk_mesh(16), math.pi / 4.0),
                 rotate_mesh(gen_disk_mesh(16), math.pi / 2.0)), True),
    "cubic_n16": (lambda: accuracy_meshes(16, degree=3), True),
    "accuracy_n8_degree3": (lambda: accuracy_meshes(8, degree=3), True),
    "identity_disk_n8": (lambda: (gen_disk_mesh(8),) * 2, True),
    "disk_n8_pi4": (lambda: _turned(8, math.pi / 4.0), True),
    "sliver_1e-12": (lambda: _turned(8, 1e-12), False),
    "sliver_1e-9": (lambda: _turned(8, 1e-9), False),
    "sliver_1e-6": (lambda: _turned(8, 1e-6), False),
    "sliver_1e-3": (lambda: _turned(8, 1e-3), False),
    "disk_n8_degree3": (lambda: _turned(8, 0.3, 3), True),
    "disk_n8_degree4": (lambda: _turned(8, 0.3, 4), True),
    "disk_n8_degree5": (lambda: _turned(8, 0.3, 5), False),
    "disk_n4_degree6": (lambda: _turned(4, 0.3, 6), False),
    "straight_11": (lambda: _straight((1, 1)), False),
    "straight_21": (lambda: _straight((2, 1)), False),
}


def _update(h, *arrays) -> None:
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype}{a.shape}".encode())
        h.update(a.tobytes())


def table_digest(src, tgt) -> tuple[int, str]:
    cells = np.array(remap.candidate_pairs(src, tgt), int).reshape(-1, 2)
    es, et, found, _slot = remap._edge_crossings(src, tgt, cells)
    h = hashlib.sha256()
    _update(h, es, et, *(getattr(found, c) for c in _TABLE_COLUMNS))
    return len(found.pair), h.hexdigest()


def plan_digest(plan) -> tuple[int, str]:
    h = hashlib.sha256()
    loops = 0
    for ct, per in enumerate(plan.per_target):
        for pg in per:
            _update(h, np.array([ct, pg.src]))
            for lp in pg.loops:
                loops += 1
                for span in lp.poly.spans:
                    _update(h, span.curve.nodes, np.array([span.t0, span.t1]))
                _update(h, np.array([lp.area]), lp.ax, lp.ay, lp.awdy)
                if lp.bpts is not None:
                    _update(h, lp.bpts, lp.bjw)
    return loops, h.hexdigest()


def apply_digest(plan) -> str:
    box = plan.source.cell_boxes
    inside = np.hypot(0.5 * (box[:, 0] + box[:, 2]) - 0.1,
                      0.5 * (box[:, 1] + box[:, 3]) - 0.2) < 0.3
    avg = np.where(inside, 1.0, 1e-10)
    settings = [(False, "A")]
    if plan.with_tris:
        settings = [(lim, ap) for lim in (False, True)
                    for ap in ("A", "B", "both")]
    h = hashlib.sha256()
    for order, degree in sorted(reconstruct._ORDER_DEGREE.items()):
        if degree > plan.k_max:
            continue
        for positivity, approach in settings:
            rep = remap.apply_plan(plan, avg, order, positivity, approach)
            h.update(" ".join(map(float.hex, rep.field.averages.tolist()))
                     .encode())
            h.update("".join(line for line in rep.to_text().splitlines(True)
                             if not line.startswith("time_")).encode())
    return h.hexdigest()


def main(names) -> None:
    unknown = sorted(set(names) - set(CASES))
    if unknown:
        sys.exit(f"unknown cases: {' '.join(unknown)}")
    state = clipping._arc_state
    probes = 0

    def counted(*args):
        nonlocal probes
        probes += 1
        return state(*args)

    for name in names or CASES:
        meshes, with_tris, *k_max = CASES[name]
        src, tgt = meshes()
        rows, table = table_digest(src, tgt)
        probes = 0
        clipping._arc_state = counted
        try:
            plan = remap.build_plan(src, tgt, k_max=(k_max or [2])[0],
                                    with_tris=with_tris)
            loops, digest = plan_digest(plan)
        except (ArithmeticError, RuntimeError, ValueError) as exc:
            plan, loops, digest = None, 0, f"{type(exc).__name__}: {exc}"
        finally:
            clipping._arc_state = state
        applied = "-" if plan is None else apply_digest(plan)
        print(f"{name} rows={rows} table={table} loops={loops} plan={digest} "
              f"probes={probes} apply={applied}", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
