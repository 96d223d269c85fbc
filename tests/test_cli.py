import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

from curveremap.cli import main
from curveremap.mesh import read_field, read_mesh, write_field, write_mesh, \
    Field, exact_cell_averages, gen_deformed_square_mesh
from curveremap.experiments import sin_field


GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
# SHA-256 of the SVG files that clipdemo writes at each edge degree
CLIPDEMO_SVG_SHA256 = {
    2: {"clipdemo.svg": "4928a221106b8de73f77b937c57239199b5d282559031fc4"
                        "208231d3260fef4c",
        "clipdemo_triangulation.svg": "63276320f1641d52d06d132d9dd64fc02bf4"
                                      "5738db60d24ba40180e8c40c10eb"},
    3: {"clipdemo.svg": "8bed9428f645ec3fee07738a0cfb7594d59f4cd69b622d5e"
                        "0ea04b36cba73b5b",
        "clipdemo_triangulation.svg": "24826fdcd9dc62cfc45ca5f58c71017c39bc"
                                      "671490e447eae5009de45fe0c647"},
}


def run_cli(*argv):
    return main(list(argv))


def assert_clipdemo_golden(out, degree, golden_txt):
    """clipdemo's text output equals the golden file, byte for byte, and
    its SVG files have the recorded digests."""
    with open(os.path.join(GOLDEN, golden_txt), "rb") as fh:
        assert (out / "clipdemo.txt").read_bytes() == fh.read()
    for name, digest in CLIPDEMO_SVG_SHA256[degree].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest


def test_gen_identity_two_by_two(tmp_path):
    out = tmp_path / "m.curvemesh"
    assert run_cli("--quiet", "gen", "--kind", "identity", "--n", "2",
                   "--degree", "2", "--out", str(out)) == 0
    m = read_mesh(out)
    assert m.n_cells == 4


def test_gen_disk_validates(tmp_path):
    out = tmp_path / "disk.curvemesh"
    assert run_cli("--quiet", "gen", "--kind", "disk", "--n", "8",
                   "--degree", "2", "--out", str(out)) == 0
    read_mesh(out)


def test_gen_degree3_format(tmp_path):
    out = tmp_path / "m3.curvemesh"
    assert run_cli("--quiet", "gen", "--kind", "taylor_green_like", "--n", "6",
                   "--degree", "3", "--amplitude", "0.05",
                   "--out", str(out)) == 0
    header = out.read_text().splitlines()[0]
    assert header == "curvemesh 1 3"
    for line in out.read_text().splitlines():
        if line.startswith("cells"):
            break
    m = read_mesh(out)
    assert m.edge_degree == 3


def test_remap_roundtrip_identical_meshes(tmp_path):
    mpath = tmp_path / "m.curvemesh"
    fpath = tmp_path / "f.field"
    opath = tmp_path / "out.field"
    rpath = tmp_path / "report.txt"
    mesh = gen_deformed_square_mesh(4, "gresho_like", 0.3, 2)
    write_mesh(mesh, mpath)
    fld = exact_cell_averages(mesh, sin_field)
    write_field(fld, fpath)
    code = run_cli("--quiet", "remap", "--src-mesh", str(mpath),
                   "--src-field", str(fpath), "--dst-mesh", str(mpath),
                   "--order", "3", "--out", str(opath),
                   "--report", str(rpath))
    assert code == 0
    back = read_field(opath)
    assert np.abs(back.averages - fld.averages).max() <= 1e-12
    assert "e_cons=" in rpath.read_text()


def test_field_length_mismatch_is_error(tmp_path):
    m1 = tmp_path / "m1.curvemesh"
    m2 = tmp_path / "m2.curvemesh"
    f = tmp_path / "f.field"
    write_mesh(gen_deformed_square_mesh(3, "identity", degree=2), m1)
    write_mesh(gen_deformed_square_mesh(4, "identity", degree=2), m2)
    write_field(Field(np.zeros(16)), f)
    code = run_cli("--quiet", "remap", "--src-mesh", str(m1),
                   "--src-field", str(f), "--dst-mesh", str(m2),
                   "--out", str(tmp_path / "o.field"))
    assert code == 3


def test_reconstruction_failure_is_exit_3(tmp_path, capsys):
    # the unit square as one cell, which has no neighbours for the default
    # order-3 stencil
    mesh, fld = tmp_path / "one.curvemesh", tmp_path / "one.field"
    mesh.write_text("curvemesh 1 2\npoints 8\n0 0\n1 0\n1 1\n0 1\n"
                    "0.5 0\n1 0.5\n0.5 1\n0 0.5\n"
                    "edges 4\n0 4 1\n1 5 2\n3 6 2\n0 7 3\n"
                    "cells 1\n+0 +1 -2 -3\n")
    write_field(Field(np.ones(1)), fld)
    code = run_cli("--quiet", "remap", "--src-mesh", str(mesh),
                   "--src-field", str(fld), "--dst-mesh", str(mesh),
                   "--out", str(tmp_path / "o.field"))
    assert code == 3
    assert "error: cell 0 has no stencil neighbors" in capsys.readouterr().err


def test_usage_error_exit_code_2():
    # the child imports the package from where this process found it
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run(
        [sys.executable, "-m", "curveremap.cli", "gen", "--kind", "bogus",
         "--n", "2", "--out", "x"],
        capture_output=True, env=env)
    assert proc.returncode == 2


def test_malformed_mesh_is_exit_3_not_crash(tmp_path):
    bad = tmp_path / "bad.curvemesh"
    bad.write_text("curvemesh 1 2\npoints 5\n0 0\n")
    code = run_cli("--quiet", "remap", "--src-mesh", str(bad),
                   "--src-field", str(bad), "--dst-mesh", str(bad),
                   "--out", str(tmp_path / "o.field"))
    assert code == 3


def test_negative_count_is_exit_3_naming_the_line(tmp_path, capsys):
    bad = tmp_path / "bad.curvemesh"
    bad.write_text("curvemesh 1 2\npoints -3\n")
    code = run_cli("--quiet", "remap", "--src-mesh", str(bad),
                   "--src-field", str(bad), "--dst-mesh", str(bad),
                   "--out", str(tmp_path / "o.field"))
    assert code == 3
    assert capsys.readouterr().err == f"error: {bad}:2: bad count '-3'\n"


def test_empty_mesh_is_exit_3_with_one_error_line(tmp_path, capsys):
    empty = tmp_path / "empty.curvemesh"
    empty.write_text("curvemesh 1 1\npoints 0\nedges 0\ncells 0\n")
    code = run_cli("--quiet", "remap", "--src-mesh", str(empty),
                   "--src-field", str(empty), "--dst-mesh", str(empty),
                   "--out", str(tmp_path / "o.field"))
    assert code == 3
    assert capsys.readouterr().err == (
        f"error: {empty}: mesh failed validation: mesh has no cells\n")


def test_clipdemo_outputs_and_determinism(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert run_cli("--quiet", "clipdemo", "--out", str(out1)) == 0
    assert run_cli("--quiet", "clipdemo", "--out", str(out2)) == 0
    t1 = (out1 / "clipdemo.txt").read_bytes()
    t2 = (out2 / "clipdemo.txt").read_bytes()
    assert t1 == t2
    assert (out1 / "clipdemo.svg").read_text().startswith("<svg")
    assert (out1 / "clipdemo_triangulation.svg").exists()


def test_clipdemo_degree3(tmp_path):
    out = tmp_path / "d3"
    assert run_cli("--quiet", "clipdemo", "--degree", "3",
                   "--out", str(out)) == 0
    text = (out / "clipdemo.txt").read_text()
    assert "|A - B|" in text
    assert_clipdemo_golden(out, 3, "clipdemo_degree3.txt")


def test_accuracy_smoke_and_determinism(tmp_path):
    out1 = tmp_path / "acc1"
    out2 = tmp_path / "acc2"
    for out in (out1, out2):
        assert run_cli("--quiet", "accuracy", "--sizes", "4,8",
                       "--orders", "1", "--out", str(out)) == 0
    a1 = (out1 / "accuracy.csv").read_bytes()
    a2 = (out2 / "accuracy.csv").read_bytes()
    assert a1 == a2
    header = a1.decode().splitlines()[0]
    assert header == "order,n,l1,l1_rate,l2,l2_rate,linf,linf_rate"
    assert (out1 / "conservation.csv").exists()


def test_clipdemo_matches_golden(tmp_path):
    out = tmp_path / "demo"
    assert run_cli("--quiet", "clipdemo", "--out", str(out)) == 0
    assert_clipdemo_golden(out, 2, "clipdemo.txt")


def test_cone_command_smoke(tmp_path):
    out = tmp_path / "cone"
    assert run_cli("--quiet", "cone", "--n", "8", "--out", str(out)) == 0
    report = (out / "cone_report.txt").read_text()
    assert "min with limiter" in report
    assert (out / "cone_limited.csv").read_text().startswith("x,y,average")


def test_rotation_command_smoke(tmp_path):
    out = tmp_path / "rot"
    assert run_cli("--quiet", "rotation", "--n", "6", "--steps", "2",
                   "--out", str(out)) == 0
    steps = (out / "rotation_steps.csv").read_text().splitlines()
    assert steps[0] == "step,mass,min_average,e_cons"
    assert len(steps) == 4  # header + initial + 2 steps


def test_clipdemo_with_polygon_files(tmp_path):
    # two single-cell meshes standing in for "single polygon" files
    from curveremap.mesh import CurvilinearMesh
    import numpy as np
    def square_mesh(x0):
        pts = np.array([[x0, 0], [x0 + 2, 0], [x0 + 2, 2], [x0, 2],
                        [x0 + 1, 0], [x0 + 2, 1], [x0 + 1, 2], [x0, 1]], float)
        edges = np.array([[0, 4, 1], [1, 5, 2], [2, 6, 3], [3, 7, 0]])
        return CurvilinearMesh(pts, edges, [[0, 1, 2, 3]], [[1, 1, 1, 1]])
    pa = tmp_path / "a.curvemesh"
    pb = tmp_path / "b.curvemesh"
    write_mesh(square_mesh(0.0), pa)
    write_mesh(square_mesh(1.0), pb)
    out = tmp_path / "clipfiles"
    assert run_cli("--quiet", "clipdemo", "--subject", str(pa),
                   "--clip", str(pb), "--out", str(out)) == 0
    text = (out / "clipdemo.txt").read_text()
    assert "area (contour integration):      2.000000000000000" in text
    # mismatched flag pair is a runtime error
    assert run_cli("--quiet", "clipdemo", "--subject", str(pa),
                   "--out", str(out)) == 3


@pytest.mark.parametrize("command", ["remap", "clipdemo", "gen"])
def test_missing_file_is_exit_3_with_one_error_line(command, tmp_path,
                                                     capsys):
    missing = tmp_path / "missing"
    if command == "remap":
        mesh = tmp_path / "m.curvemesh"
        write_mesh(gen_deformed_square_mesh(2, "identity", degree=2), mesh)
        argv = ["remap", "--src-mesh", str(mesh), "--src-field",
                str(missing), "--dst-mesh", str(mesh), "--out",
                str(tmp_path / "o.field")]
    elif command == "clipdemo":
        argv = ["clipdemo", "--subject", str(missing), "--clip",
                str(missing), "--out", str(tmp_path / "demo")]
    else:
        missing = missing / "x" / "m.curvemesh"
        argv = ["gen", "--kind", "identity", "--n", "2", "--out",
                str(missing)]
    assert run_cli("--quiet", *argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(missing) in err


@pytest.mark.parametrize("flag, value", [("--sizes", "4,4"),
                                         ("--orders", "3,3")])
def test_accuracy_repeated_size_or_order_is_exit_3(flag, value, tmp_path,
                                                    capsys):
    out = tmp_path / "acc"
    argv = {"--sizes": "4,8", "--orders": "1,3", flag: value}
    assert run_cli("--quiet", "accuracy", "--sizes", argv["--sizes"],
                   "--orders", argv["--orders"], "--out", str(out)) == 3
    assert capsys.readouterr().err == (
        f"error: {flag[2:]} must not repeat: "
        f"{[int(v) for v in value.split(',')]}\n")
    assert not (out / "accuracy.csv").exists()


def test_accuracy_at_one_size_prints_a_nan_slope(tmp_path, capsys):
    assert run_cli("accuracy", "--sizes", "4", "--orders", "1", "--out",
                   str(tmp_path / "acc")) == 0
    assert "order 1: L1 slope nan (errors " in capsys.readouterr().out


def test_run_accuracy_rejects_repeats_and_fits_no_slope_at_one_size():
    from curveremap import experiments as ex
    with pytest.raises(ValueError, match=r"^sizes must not repeat"):
        ex.run_accuracy(sizes=(4, 4), orders=(1,))
    with pytest.raises(ValueError, match=r"^orders must not repeat"):
        ex.run_accuracy(sizes=(4,), orders=(3, 1, 3))
    table = ex.ConvergenceTable(1, sizes=[4], l1=[0.1])
    assert np.isnan(table.l1_slope)
    table = ex.ConvergenceTable(1, sizes=[4, 8], l1=[0.1, 0.025])
    assert table.l1_slope == pytest.approx(2.0, rel=1e-12)


def test_run_rotation_rejects_a_negative_step_count():
    from curveremap import experiments as ex
    with pytest.raises(ValueError, match=r"^steps must be >= 0, got -1$"):
        ex.run_rotation(n=4, steps=-1)


def test_rotation_negative_steps_is_exit_3(tmp_path, capsys):
    out = tmp_path / "rot"
    assert run_cli("--quiet", "rotation", "--n", "4", "--steps", "-1",
                   "--out", str(out)) == 3
    assert capsys.readouterr().err == "error: steps must be >= 0, got -1\n"
    assert not out.exists()
