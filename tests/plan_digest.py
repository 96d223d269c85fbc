"""Print a sha256 digest of the crossing table and of the plan of each of a
fixed list of mesh pairs, so that two checkouts can be compared:

    python3 tests/plan_digest.py > a.txt     # in each checkout
    diff a.txt b.txt

Each line reads: name, crossing rows, table digest, clipped loops, plan
digest. The table digest covers the edge pairs and every row's pair, u,
v, point, transversal flag and cross product; the plan digest covers, per
target cell and source cell, every loop's span nodes and windows, its
area, its Approach A samples and, with triangles, its Approach B samples.
A plan that raises prints the error in place of its digest. The package
is imported from `src/` of the checkout this file sits in. pytest does not
collect this file.
"""

from __future__ import annotations

import hashlib
import importlib
import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from curveremap.experiments import accuracy_meshes  # noqa: E402
from curveremap.mesh import gen_disk_mesh, rotate_mesh  # noqa: E402

remap = importlib.import_module("curveremap.remap")

_TABLE_COLUMNS = ("pair", "u", "v", "point", "transversal", "cross")


def _turned(n, angle, degree=2):
    base = gen_disk_mesh(n, degree=degree)
    return base, rotate_mesh(base, angle)


# name: (meshes, with_tris); k_max is 2 throughout
CASES = {
    "accuracy_n32": (lambda: accuracy_meshes(32), False),
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


def plan_digest(src, tgt, with_tris) -> tuple[int, str]:
    plan = remap.build_plan(src, tgt, k_max=2, with_tris=with_tris)
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


def main() -> None:
    for name, (meshes, with_tris) in CASES.items():
        src, tgt = meshes()
        rows, table = table_digest(src, tgt)
        try:
            loops, plan = plan_digest(src, tgt, with_tris)
        except (ArithmeticError, RuntimeError, ValueError) as exc:
            loops, plan = 0, f"{type(exc).__name__}: {exc}"
        print(f"{name} rows={rows} table={table} loops={loops} plan={plan}",
              flush=True)


if __name__ == "__main__":
    main()
