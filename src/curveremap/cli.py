"""Command-line front end.

Subcommands: gen, remap, accuracy, cone, cylinder, rotation, clipdemo.
Exit codes: 0 success, 2 usage error, 3 numerical/topology/data failure.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import experiments as ex
from .clipping import ClipTopologyError
from .integrate import IntegrationError
from .mesh import (MeshError, MeshParseError, Field,
                   gen_deformed_square_mesh, gen_disk_mesh, read_field,
                   read_mesh, write_field, write_mesh)
from .reconstruct import ReconstructionError
from .remap import RemapRequest, remap
from .svg import render_clip_svg, render_triangulation_svg

_RUNTIME_ERRORS = (MeshError, MeshParseError, ClipTopologyError,
                   IntegrationError, ReconstructionError, ValueError)


def _say(args, msg: str) -> None:
    if not args.quiet:
        print(msg)


def _outpath(args, name: str) -> str:
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def cmd_gen(args) -> int:
    if args.kind == "disk":
        mesh = gen_disk_mesh(args.n, args.degree)
    else:
        mesh = gen_deformed_square_mesh(args.n, args.kind, args.amplitude,
                                        args.degree, roughen=args.roughen)
    write_mesh(mesh, args.mesh_out)
    _say(args, f"wrote {args.mesh_out}: {mesh}")
    return 0


def cmd_remap(args) -> int:
    src = read_mesh(args.src_mesh)
    dst = read_mesh(args.dst_mesh)
    fld = read_field(args.src_field, src)
    req = RemapRequest(src, fld, dst, order=args.order,
                       positivity=args.positivity == "on",
                       approach=args.approach)
    rep = remap(req)
    write_field(Field(rep.field.averages), args.field_out)
    if args.report:
        ex.write_text(args.report, rep.to_text())
    _say(args, rep.to_text().rstrip())
    return 0


def cmd_accuracy(args) -> int:
    sizes = tuple(int(s) for s in args.sizes.split(","))
    orders = tuple(int(s) for s in args.orders.split(","))
    if any(o not in (1, 3, 5) for o in orders):
        raise ValueError("orders must be chosen from 1,3,5")
    res = ex.run_accuracy(sizes, orders, quiet=args.quiet)
    ex.write_text(_outpath(args, "accuracy.csv"), res.accuracy_csv())
    ex.write_text(_outpath(args, "conservation.csv"), res.conservation_csv())
    for o in orders:
        t = res.tables[o]
        _say(args, f"order {o}: L1 slope {t.l1_slope:.3f} "
             f"(errors {', '.join(f'{e:.3e}' for e in t.l1)})")
    return 0


def _positivity_cmd(args, name: str) -> int:
    res = ex.run_positivity(name, n=args.n)
    ex.write_text(_outpath(args, f"{name}_report.txt"), res.summary())
    ex.write_text(_outpath(args, f"{name}_limited.csv"),
                  ex.centroid_csv(res.target_mesh, res.limited.field.averages))
    ex.write_text(_outpath(args, f"{name}_unlimited.csv"),
                  ex.centroid_csv(res.target_mesh, res.unlimited.field.averages))
    _say(args, res.summary().rstrip())
    return 0


def cmd_cone(args) -> int:
    return _positivity_cmd(args, "cone")


def cmd_cylinder(args) -> int:
    return _positivity_cmd(args, "cylinder")


def cmd_rotation(args) -> int:
    res = ex.run_rotation(n=args.n, steps=args.steps, order=args.order,
                          positivity=args.positivity == "on",
                          quiet=args.quiet)
    ex.write_text(_outpath(args, "rotation_steps.csv"), res.csv())
    ex.write_text(_outpath(args, "rotation_final.csv"),
                  ex.centroid_csv(res.mesh, res.final))
    _say(args, f"mass drift {res.mass_drift:.3e}, min average "
         f"{min(res.min_averages):.3e}, L1 vs initial {res.l1_vs_initial:.3e}")
    return 0


def cmd_clipdemo(args) -> int:
    if (args.subject is None) != (args.clip is None):
        raise ValueError("--subject and --clip must be given together")
    if args.subject is not None:
        subject = _single_cell_polygon(args.subject)
        clip = _single_cell_polygon(args.clip)
        res = ex.run_clipdemo_on(subject, clip)
    else:
        res = ex.run_clipdemo(degree=args.degree)
    ex.write_text(_outpath(args, "clipdemo.txt"), res.table_text())
    ex.write_text(_outpath(args, "clipdemo.svg"),
                  render_clip_svg(res.subject, res.clip, res.loops))
    ex.write_text(_outpath(args, "clipdemo_triangulation.svg"),
                  render_triangulation_svg(res.loops, res.triangles))
    _say(args, res.table_text().rstrip())
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="curveremap",
        description="Conservative remapping between curvilinear quad meshes")
    ap.add_argument("--quiet", action="store_true")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a mesh file")
    g.add_argument("--kind", required=True,
                   choices=["identity", "taylor_green_like", "gresho_like",
                            "disk"])
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--degree", type=int, default=2)
    g.add_argument("--amplitude", type=float, default=0.0)
    g.add_argument("--roughen", type=float, default=0.0)
    g.add_argument("--out", dest="mesh_out", required=True)
    g.set_defaults(func=cmd_gen)

    r = sub.add_parser("remap", help="remap a field between two meshes")
    r.add_argument("--src-mesh", required=True)
    r.add_argument("--src-field", required=True)
    r.add_argument("--dst-mesh", required=True)
    r.add_argument("--order", type=int, default=3, choices=[1, 3, 5])
    r.add_argument("--positivity", choices=["on", "off"], default="off")
    r.add_argument("--approach", choices=["A", "B", "both"], default="A")
    r.add_argument("--out", dest="field_out", required=True)
    r.add_argument("--report", default=None)
    r.set_defaults(func=cmd_remap)

    a = sub.add_parser("accuracy", help="convergence study on deformed meshes")
    a.add_argument("--sizes", default="8,16,32,64")
    a.add_argument("--orders", default="1,3,5")
    a.add_argument("--out", default="out/accuracy")
    a.set_defaults(func=cmd_accuracy)

    for name, fn in (("cone", cmd_cone), ("cylinder", cmd_cylinder)):
        c = sub.add_parser(name, help=f"{name} positivity test")
        c.add_argument("--n", type=int, default=32)
        c.add_argument("--out", default=f"out/{name}")
        c.set_defaults(func=fn)

    t = sub.add_parser("rotation", help="solid-body rotation on the disk")
    t.add_argument("--n", type=int, default=20)
    t.add_argument("--steps", type=int, default=8)
    t.add_argument("--order", type=int, default=3, choices=[1, 3, 5])
    t.add_argument("--positivity", choices=["on", "off"], default="on")
    t.add_argument("--out", default="out/rotation")
    t.set_defaults(func=cmd_rotation)

    d = sub.add_parser("clipdemo", help="worked curved-clipping example")
    d.add_argument("--degree", type=int, default=2, choices=[2, 3])
    d.add_argument("--subject", default=None,
                   help="single-cell mesh file to clip instead of the demo")
    d.add_argument("--clip", default=None,
                   help="single-cell mesh file used as the clip polygon")
    d.add_argument("--out", default="out/clipdemo")
    d.set_defaults(func=cmd_clipdemo)
    return ap


def _single_cell_polygon(path):
    mesh = read_mesh(path)
    if mesh.n_cells != 1:
        raise ValueError(f"{path}: expected a single-cell mesh, "
                         f"got {mesh.n_cells} cells")
    return mesh.cell_polygon(0)


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except _RUNTIME_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
