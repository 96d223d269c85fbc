"""The package's ear clipper against the reference triangulation.

`reference_triangulate` tests every chord with `intersect_curves` and
builds every curved triangle from scratch. The package must cut the same
ears: per loop the same number of triangles, the same span parameter
windows to 1e-12, and control nodes within 1e-14 of the loop's bounding-box
diagonal (batched evaluation may move a node by a few ulps).
"""

import math

import numpy as np
import pytest

from curveremap.experiments import accuracy_meshes, demo_quads
from curveremap.geometry import polygon_from_points
from curveremap.integrate import ear_clip
from curveremap.clipping import wa_clip
from curveremap.mesh import gen_disk_mesh, rotate_mesh
from curveremap.remap import build_plan

from reference_triangulate import reference_triangulate


def _plan_loops(src, tgt):
    plan = build_plan(src, tgt, k_max=2)
    return [lp.poly for per in plan.per_target for pg in per
            for lp in pg.loops]


def _loops(name):
    if name == "disk_rotation":
        base = gen_disk_mesh(8)
        return _plan_loops(base, rotate_mesh(base, math.pi / 4.0))
    if name == "cubic_n8":
        return _plan_loops(*accuracy_meshes(8, degree=3))
    if name == "clipdemo":
        return [lp for degree in (2, 3)
                for lp in wa_clip(*demo_quads(degree)).loops]
    return [polygon_from_points([(0, 0), (1, 0), (1, 1), (0, 1)]),
            polygon_from_points([(0, 0), (1, 0), (0, 1)])]


@pytest.mark.parametrize("name", ["disk_rotation", "cubic_n8", "clipdemo",
                                  "square_and_triangle"])
def test_same_triangles_as_reference(name):
    loops = _loops(name)
    assert loops
    for k, poly in enumerate(loops):
        got = ear_clip(poly)
        ref = reference_triangulate(poly)
        assert len(got) == len(ref), (name, k)
        diag = poly.bbox().diag
        for tg, tr in zip(got, ref):
            assert tg.degree == tr.degree, (name, k)
            for sg, sr in zip(tg.spans, tr.spans):
                assert abs(sg.t0 - sr.t0) <= 1e-12, (name, k)
                assert abs(sg.t1 - sr.t1) <= 1e-12, (name, k)
            err = float(np.abs(tg.nodes - tr.nodes).max()) / diag
            assert err <= 1e-14, (name, k, err)
