"""Tests of the benchmark itself, on the small meshes of --smoke.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from run import OUT, PER_LAYER
from spans import Span, Trace

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module", params=WORKLOADS)
def untraced(request):
    return request.param, run_bench(request.param, 0)


@pytest.fixture(scope="module", params=WORKLOADS)
def traced(request):
    return request.param, run_bench(request.param, 1)


def test_end_to_end_metrics_and_checks(untraced):
    name, proc = untraced
    assert proc.returncode == 0, proc.stderr
    out = last_json(proc)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True
    assert out["failed"] == 0 and out["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_per_layer_metrics_and_additivity(traced):
    name, proc = traced
    assert proc.returncode == 0, proc.stderr
    out = last_json(proc)
    assert out["correct"] is True and out["failed"] == 0
    m = {k: v["value"] for k, v in out["metrics"].items()}
    want = {x["name"]: x["unit"] for x in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    layers = sum(v for k, v in m.items()
                 if k.endswith("_s") and not k.startswith("trace."))
    assert layers + m["trace.unwrapped_s"] == pytest.approx(
        m["trace.wall_s"], rel=1e-9)
    # the identity holds for any span tree; what can fail is the coverage:
    # the wrapped spans take nearly all of the timed region, and each span
    # feeds a reported self time
    assert m["trace.unwrapped_s"] < 0.01 * m["trace.wall_s"]
    spans = json.loads((OUT / f"trace-{name}-3.json").read_text())["spans"]
    timed = {key for unit, key in PER_LAYER.values() if unit == "s"}
    assert {s[0] for s in spans} <= timed
    assert m["remap.candidate_pairs"] > 0 and m["geometry.locate_calls"] > 0
    if name == "accuracy":
        assert m["integrate.triangulate_calls"] == 0
        assert m["limiter.calls"] == 0 and m["integrate.b_points"] == 0
    else:
        assert m["integrate.triangulate_calls"] > 0 and m["limiter.calls"] > 0


def test_fails_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("accuracy", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_self_times_subtract_children():
    trace = Trace(spans=[Span("outer", None, 0.0, 10.0),
                         Span("inner", 0, 1.0, 3.0),
                         Span("inner", 0, 4.0, 5.0)])
    assert trace.self_times() == {"outer": 7.0, "inner": 3.0}
    assert trace.top_level_time() == 10.0
