"""Frozen labellers: the oracles of the clean-crossing rule and of the
containment of cell pairs without events.

`probe_labels` gives every subject arc between consecutive events its state
by point location and labels an event entry or exit where the state enters
or leaves "in", as the clipper did for every event list that was not a run
of clean, alternating crossings. The package's `_label_events` takes an
arc's state from a clean crossing at its ends instead, and must give the
same labels.

`containment` is the rule the clipper used for a pair whose events change
no state: a representative interior point of each polygon whose corners
lie in the other's hull box, found by a walk inward from the span
midpoints and then by grid scans, is located in the other polygon. The
package's `wa_clip` probes the would-be inner polygon's whole boundary as
one arc instead, and must give the same containment.
"""

from __future__ import annotations

import math

import numpy as np

from curveremap.clipping import ClipTopologyError, _sigma_point
from curveremap.geometry import SNAP_TOL, GeometryError


def arc_state(poly, other, sig_a: float, sig_b: float) -> str:
    """State (in/out/bdry) of poly's boundary arc (sig_a, sig_b) against
    other, by votes of its middle and quarter points."""
    n = len(poly.spans)
    if sig_b <= sig_a + 1e-12:
        sig_b += n
    votes = {"inside": 0, "outside": 0}
    boundary = 0
    for frac in (0.5, 0.25, 0.75):
        p = _sigma_point(poly, sig_a + frac * (sig_b - sig_a))
        loc = other.locate(float(p[0]), float(p[1]))
        if loc == "boundary":
            boundary += 1
            continue
        votes[loc] += 1
        if frac == 0.5 and votes[loc] == 1 and boundary == 0:
            break
    if votes["inside"] == 0 and votes["outside"] == 0:
        return "bdry"
    return "in" if votes["inside"] >= votes["outside"] else "out"


def probe_labels(subject, clip, events) -> list:
    """The events (sorted by sig_s) that change the arc state, labelled."""
    ns, m = len(subject.spans), len(events)
    states = []
    for i in range(m):
        a, b = events[i], events[(i + 1) % m]
        sig_b = b.sig_s if (i + 1) < m else b.sig_s + ns
        states.append(arc_state(subject, clip, a.sig_s, sig_b))
    kept = []
    for i, e in enumerate(events):
        before, after = states[i - 1], states[i]
        if before != "in" and after == "in":
            e.kind = "entry"
            kept.append(e)
        elif before == "in" and after != "in":
            e.kind = "exit"
            kept.append(e)
    return kept


def interior_point(poly) -> tuple[float, float]:
    """A deterministic point strictly inside poly."""
    mids = np.array([s.point_at(0.5) for s in poly.spans])
    cands = [tuple(mids.mean(axis=0))]
    # walk inward from span midpoints (interior is left of a CCW boundary)
    scale = math.sqrt(max(poly.signed_area(), 1e-30))
    for s in poly.spans:
        p = s.point_at(0.5)
        tg = s.tangent_at(0.5)
        norm = math.hypot(tg[0], tg[1])
        if norm == 0.0:
            continue
        nx, ny = -tg[1] / norm, tg[0] / norm
        for frac in (0.25, 0.1, 0.02, 0.004):
            cands.append((p[0] + nx * frac * scale, p[1] + ny * frac * scale))
    for cx, cy in cands:
        try:
            if poly.locate(cx, cy) == "inside":
                return float(cx), float(cy)
        except GeometryError:
            continue
    # last resort: scan a grid over the bounding box
    box = poly.bbox()
    for k in (5, 11, 23):
        xs = np.linspace(box.xmin, box.xmax, k + 2)[1:-1]
        ys = np.linspace(box.ymin, box.ymax, k + 2)[1:-1]
        for cx in xs:
            for cy in ys:
                try:
                    if poly.locate(float(cx), float(cy)) == "inside":
                        return float(cx), float(cy)
                except GeometryError:
                    continue
    raise GeometryError("could not find an interior point")


def robust_inside(inner, outer) -> bool:
    """Whether a representative interior point of inner lies inside outer."""
    x, y = interior_point(inner)
    loc = outer.locate(x, y)
    if loc != "boundary":
        return loc == "inside"
    # interior point of inner happens to sit on outer's boundary: probe more
    box = inner.bbox()
    for k in (7, 13, 29):
        xs = np.linspace(box.xmin, box.xmax, k + 2)[1:-1]
        ys = np.linspace(box.ymin, box.ymax, k + 2)[1:-1]
        for cx in xs:
            for cy in ys:
                if inner.locate(float(cx), float(cy)) != "inside":
                    continue
                loc = outer.locate(float(cx), float(cy))
                if loc != "boundary":
                    return loc == "inside"
    raise ClipTopologyError("containment test found no decisive probe point")


def corners_in_hull(inner, outer) -> bool:
    """Whether every corner of inner lies in outer's hull box, inflated by
    SNAP_TOL."""
    box = outer.bbox().inflate(SNAP_TOL)
    return all(box.contains(x, y) for x, y in inner.corners)


def containment(subject, clip, probed: list | None = None) -> str:
    """wa_clip's containment of a pair whose events change no state; each
    polygon handed to robust_inside is appended to probed."""
    def inside(inner, outer):
        if not corners_in_hull(inner, outer):
            return False
        if probed is not None:
            probed.append(inner)
        return robust_inside(inner, outer)

    sub_in, clip_in = inside(subject, clip), inside(clip, subject)
    if sub_in and clip_in:
        return ("subject_in_clip"
                if subject.signed_area() <= clip.signed_area()
                else "clip_in_subject")
    if sub_in:
        return "subject_in_clip"
    if clip_in:
        return "clip_in_subject"
    return "none"
