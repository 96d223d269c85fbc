"""Remap benchmark: one workload, closed loop, one process, one thread.

    python3 bench/run.py --workload accuracy --seed 1 --seconds 25 --trace 0

Runs whole rounds of the workload (see workloads.py) until --seconds have
passed, at least one round, and prints as its last line one JSON object
with `correct`, `attempted`, `failed` and `metrics`. With --trace 0 the
metrics are the end-to-end ones of BENCHMARK.json; with --trace 1 the run
alternates untraced and traced rounds and reports the per-layer ones, and
writes the spans to bench/out/. --smoke runs the same workload and checks
on small meshes, for the benchmark's own tests.

Exit status: 0 when every check passed, 1 when a check failed or every
round failed (the JSON line is still printed, with no metrics if no round
ran through), 2 when the package source is missing or the arguments are
wrong.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import statistics
import sys
import time
from pathlib import Path

# Set before numpy is imported. One thread, as the workloads are meant to
# run: numpy's BLAS would otherwise start a worker for each core. And no
# 2 MiB pages under numpy's large arrays: whether the kernel can supply them
# depends on the machine's free memory, not on the program, and the first
# round's peak on `accuracy` read 83.7 or 91.0 MiB from one run to the next.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("NUMPY_MADVISE_HUGEPAGE", "0")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"

# per-layer metric -> (unit, source): a metric in seconds is the self time
# of the named span, any other is the named counter
PER_LAYER = {
    "mesh.generate_s": ("s", "mesh.generate"),
    "mesh.validate_s": ("s", "mesh.validate"),
    "mesh.exact_averages_s": ("s", "mesh.exact_averages"),
    "mesh.cells": ("count", "mesh.cells"),
    "remap.candidate_pairs_s": ("s", "remap.candidate_pairs"),
    "remap.candidate_pairs": ("count", "remap.candidate_pairs.n"),
    "remap.clipped_pairs": ("count", "remap.clipped_pairs"),
    "remap.plan_self_s": ("s", "remap.build_plan"),
    "clipping.wa_clip_s": ("s", "clipping.wa_clip"),
    "clipping.wa_clip_calls": ("count", "clipping.wa_clip.calls"),
    "clipping.loops": ("count", "clipping.wa_clip.loops"),
    "clipping.intersect_curves_s": ("s", "clipping.intersect_curves"),
    "clipping.intersect_curves_calls": ("count",
                                        "clipping.intersect_curves.calls"),
    "geometry.locate_s": ("s", "geometry.locate"),
    "geometry.locate_calls": ("count", "geometry.locate.calls"),
    "integrate.triangulate_s": ("s", "integrate.triangulate"),
    "integrate.triangulate_calls": ("count", "integrate.triangulate.calls"),
    "integrate.triangles": ("count", "integrate.triangulate.triangles"),
    "integrate.a_points": ("count", "integrate.a_points"),
    "integrate.b_points": ("count", "integrate.b_points"),
    "remap.plan_bytes": ("B", "remap.plan_bytes"),
    "reconstruct.weno_s": ("s", "reconstruct.weno"),
    "reconstruct.weno_calls": ("count", "reconstruct.weno.calls"),
    "reconstruct.reduced_fits": ("count", "reconstruct.weno.reduced_fits"),
    "limiter.limit_s": ("s", "limiter.limit"),
    "limiter.calls": ("count", "limiter.limit.calls"),
    "limiter.active": ("count", "limiter.limit.active"),
    "remap.apply_self_s": ("s", "remap.apply_plan"),
}


def import_package() -> bool:
    """Import curveremap from this checkout's src/, never from elsewhere."""
    if not (SRC / "curveremap" / "__init__.py").is_file():
        print(f"bench: no package source at {SRC / 'curveremap'}",
              file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT / "bench"))
    import curveremap
    return Path(curveremap.__file__).resolve().parent == SRC / "curveremap"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("accuracy", "rotation", "cubic"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="small meshes, for the benchmark's own tests")
    return ap.parse_args(argv)


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(rounds, l1_error, rss_mib):
    """Medians: set-up per round, plans per remap, applies per pass."""
    ok = [r for r in rounds if not r.failed]
    remaps = [x for r in ok for x in zip(r.plan_s, r.apply_s, r.cells)]
    med = statistics.median
    return {
        "setup_s": metric(med(r.setup_s for r in ok), "s"),
        "plan_s": metric(med(p for p, _, _ in remaps), "s"),
        "apply_s": metric(med(x for _, a, _ in remaps for x in a), "s"),
        "remap_cells_per_s": metric(
            med(c / (p + med(a)) for p, a, c in remaps), "cells/s"),
        "peak_rss_mib": metric(rss_mib, "MiB"),
        "l1_error": metric(l1_error, "area-L1"),
    }


def per_layer(trace, traced, untraced):
    """Per-round means over the traced rounds.

    Means, unlike medians, keep the self times additive: the `_s` metrics
    plus trace.unwrapped_s sum to trace.wall_s.
    """
    k = len(traced)
    selfs = trace.self_times()
    out = {}
    for name, (unit, key) in PER_LAYER.items():
        total = selfs.get(key, 0.0) if unit == "s" else trace.counts[key]
        out[name] = metric(total / k, unit)
    cand = out["remap.candidate_pairs"]["value"]
    out["remap.pair_yield"] = metric(
        out["remap.clipped_pairs"]["value"] / cand if cand else 0.0, "ratio")
    wall = sum(r.wall_s for r in traced) / k
    out["trace.wall_s"] = metric(wall, "s")
    out["trace.unwrapped_s"] = metric(wall - trace.top_level_time() / k, "s")
    out["trace.overhead_s"] = metric(
        wall - sum(r.wall_s for r in untraced) / len(untraced), "s")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not import_package():
        return 2
    from spans import Trace, installed
    from workloads import FULL_SIZES, SMOKE_SIZES, WORKLOADS, peak_rss_mib

    sizes = SMOKE_SIZES if args.smoke else FULL_SIZES
    wl = WORKLOADS[args.workload](args.seed, sizes[args.workload])
    wl.reference()

    trace = Trace()
    rounds, traced, untraced = [], [], []
    with installed(trace) if args.trace else contextlib.nullcontext():
        start = time.perf_counter()
        # a traced run alternates untraced and traced rounds and ends on a
        # traced one
        while not rounds or time.perf_counter() - start < args.seconds \
                or (args.trace and len(rounds) % 2):
            tracing = bool(args.trace) and len(rounds) % 2 == 1
            rnd = wl.run_round(trace, tracing)
            rounds.append(rnd)
            (traced if tracing else untraced).append(rnd)
            for p in rnd.problems:
                print(f"bench: round {len(rounds)}: {p}", file=sys.stderr)

    attempted = wl.ops_per_round * len(rounds)
    failed = sum(wl.ops_per_round for r in rounds if r.failed)
    correct = all(not r.problems for r in rounds if not r.failed)
    if failed == attempted:
        print("bench: every round failed", file=sys.stderr)
        print(json.dumps({"correct": correct, "attempted": attempted,
                          "failed": failed, "metrics": {}}))
        return 1
    # later rounds raise the peak: a round's source mesh and its
    # reconstruction cache refer to each other, so they outlive the round
    # until the cyclic collector runs, and the heap fragments. The end-to-end
    # peak is read at the end of the first round's timed region; the traced
    # run reports the growth after it.
    rss_mib = next(r.peak_rss_mib for r in rounds if not r.failed)
    if args.trace:
        metrics = per_layer(trace, traced, untraced)
        metrics["process.peak_rss_growth_mib"] = metric(
            peak_rss_mib() - rss_mib, "MiB")
        OUT.mkdir(parents=True, exist_ok=True)
        with open(OUT / f"trace-{args.workload}-{args.seed}.json", "w",
                  encoding="utf-8") as fh:
            json.dump(trace.to_json(), fh)
    else:
        l1 = next(r.l1_error for r in reversed(rounds) if not r.failed)
        metrics = end_to_end(rounds, l1, rss_mib)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
