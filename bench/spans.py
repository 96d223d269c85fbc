"""Spans and counters for the traced benchmark run.

The traced run replaces public functions of the pipeline with wrappers
that record a span (name, parent, start, end) and a few counts taken from
the call's arguments and result. Nothing inside the package is edited:
the wrappers are installed on the module attributes that the callers
look up at call time and removed when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import Counter
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0


@dataclass
class Trace:
    """Spans and counters of one run, kept in memory until it ends.

    Recording is on only while `active` is true, so a wrapped function
    called outside the timed region (by a correctness check, say) leaves
    no span.
    """

    spans: list[Span] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    active: bool = False
    _stack: list[int] = field(default_factory=list)

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.active:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append(Span(name, parent, time.perf_counter()))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx].end = time.perf_counter()

    def count(self, name: str, n: int = 1) -> None:
        if self.active:
            self.counts[name] += n

    def self_times(self) -> dict[str, float]:
        """Per-name self time: span duration minus that of its children."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        out: dict[str, float] = Counter()
        for k, s in enumerate(self.spans):
            out[s.name] += (s.end - s.start) - child[k]
        return dict(out)

    def top_level_time(self) -> float:
        return sum(s.end - s.start for s in self.spans if s.parent is None)

    def to_json(self) -> dict:
        return {"spans": [[s.name, s.parent, s.start, s.end]
                          for s in self.spans],
                "counts": dict(self.counts)}


def _wrap(trace: Trace, fn, name: str, on_result=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not trace.active:
            return fn(*args, **kwargs)
        with trace.span(name):
            out = fn(*args, **kwargs)
        trace.count(name + ".calls")
        if on_result is not None:
            on_result(trace, out, args)
        return out
    return wrapper


def _count_pairs(trace, out, args):
    trace.count("remap.candidate_pairs.n", len(out))


def _count_loops(trace, out, args):
    trace.count("clipping.wa_clip.loops", len(out.loops))


def _count_tris(trace, out, args):
    trace.count("integrate.triangulate.triangles", len(out))


def _count_reduced(trace, out, args):
    trace.count("reconstruct.weno.reduced_fits", len(out.warnings))


def _count_active(trace, out, args):
    if out is not args[0]:  # positivity_limit returns p itself when inactive
        trace.count("limiter.limit.active")


def _targets():
    """(owner, attribute, span name, result counter) of every wrapped call.

    `curveremap.remap` as a package attribute is the function `remap`,
    which shadows the submodule, so modules come from importlib. Names
    bound by `from ... import` in curveremap.remap are wrapped there,
    where build_plan and apply_plan look them up.
    """
    mesh = importlib.import_module("curveremap.mesh")
    remap = importlib.import_module("curveremap.remap")
    geometry = importlib.import_module("curveremap.geometry")
    return [
        (mesh, "validate_mesh", "mesh.validate", None),
        (mesh, "exact_cell_averages", "mesh.exact_averages", None),
        (remap, "candidate_pairs", "remap.candidate_pairs", _count_pairs),
        (remap, "wa_clip", "clipping.wa_clip", _count_loops),
        (remap, "intersect_curves", "clipping.intersect_curves", None),
        (geometry.CurvedPolygon, "locate", "geometry.locate", None),
        (remap, "triangulate", "integrate.triangulate", _count_tris),
        (remap, "weno_reconstruct", "reconstruct.weno", _count_reduced),
        (remap, "positivity_limit", "limiter.limit", _count_active),
    ]


@contextlib.contextmanager
def installed(trace: Trace):
    """Wrap the pipeline's public functions for the duration of the block."""
    saved = []
    try:
        for owner, attr, name, on_result in _targets():
            fn = owner.__dict__[attr]
            saved.append((owner, attr, fn))
            setattr(owner, attr, _wrap(trace, fn, name, on_result))
        yield trace
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)
