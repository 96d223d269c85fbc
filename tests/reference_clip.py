"""Frozen per-pair clip: the oracle of `clipping.clip_table`.

The clipper once built, labelled and walked the events of each polygon
pair on its own, in plain Python: `build_events` snapped each row's
boundary coordinates to a corner (`snap_sigma`), sorted the events and
merged close ones; `label_events` gave them their entry/exit kinds;
`walk` traced the loops; and `pieces_between` cut each loop's boundary
segments into sub-spans. `reference_clip` runs them on one pair's rows
(ks, t, kc, s, point, transversal, cross), as `wa_clip` did. The package
does all of this for every pair of a plan at once, and must give the same
events, kinds and loop windows, bit for bit. The arc probes are the
package's own `_arc_state`, which the table did not change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from curveremap.clipping import (CROSS_TOL, _SIG_TOL, ClipTopologyError,
                                 _arc_state)
from curveremap.geometry import SNAP_TOL


@dataclass
class Event:
    point: tuple[float, float]
    sig_s: float
    sig_c: float
    transversal: bool
    kind: str | None = None
    visited: bool = False
    cross: float = 0.0


def snap_sigma(poly, sig: float, point) -> float:
    """Snap a boundary coordinate to the nearest corner within SNAP_TOL."""
    n = len(poly.spans)
    cx, cy = poly.corners[int(round(sig)) % n]
    if math.hypot(point[0] - cx, point[1] - cy) <= SNAP_TOL:
        return float(round(sig) % n)
    return sig % n


def build_events(subject, clip, raw) -> list[Event]:
    """Events of the rows raw, sorted, close ones merged."""
    ns, nc = len(subject.spans), len(clip.spans)
    events = []
    for ks, t, kc, s, point, transversal, cross in raw:
        sig_s = snap_sigma(subject, (ks + t) % ns, point)
        sig_c = snap_sigma(clip, (kc + s) % nc, point)
        events.append(Event(point, sig_s, sig_c, transversal, cross=cross))
    events.sort(key=lambda e: (e.sig_s, e.sig_c))
    merged: list[Event] = []

    def close(x, y, n):
        d = abs(x - y) % n
        return min(d, n - d) <= _SIG_TOL

    for e in events:
        for m in merged:
            if close(e.sig_s, m.sig_s, ns) and close(e.sig_c, m.sig_c, nc):
                m.transversal = m.transversal or e.transversal
                break
        else:
            merged.append(e)
    return merged


def near_corner(sig: float) -> bool:
    u = sig - int(sig)
    return u <= _SIG_TOL or 1.0 - u <= _SIG_TOL


def label_events(subject, clip, events: list[Event]) -> list[Event]:
    """Entry/exit labels of the events, sorted by subject boundary
    coordinate; events with no state change are dropped (their kind stays
    None)."""
    if not events:
        return []
    events = sorted(events, key=lambda e: e.sig_s)
    tangential = any(not e.transversal or abs(e.cross) <= CROSS_TOL
                     for e in events)
    sides = [(None, None) if tangential or near_corner(e.sig_s)
             or near_corner(e.sig_c)
             else ("out", "in") if e.cross < 0.0 else ("in", "out")
             for e in events]
    states = []
    for i, (a, b) in enumerate(zip(events, events[1:] + events[:1])):
        ends = {sides[i][1], sides[(i + 1) % len(events)][0]} - {None}
        states.append(ends.pop() if len(ends) == 1
                      else _arc_state(subject, clip, a.sig_s, b.sig_s))
    kept = []
    for e, before, after in zip(events, states[-1:] + states[:-1], states):
        if (before == "in") != (after == "in"):
            e.kind = "entry" if after == "in" else "exit"
            kept.append(e)
    return kept


def walk(events: list[Event]) -> list[list[tuple[int, float, float]]]:
    """The loops of labelled events, each a list of boundary segments
    (side, sig_a, sig_b): side 0 on the subject, 1 on the clip."""
    n_entry = sum(1 for e in events if e.kind == "entry")
    n_exit = len(events) - n_entry
    if n_entry != n_exit:
        raise ClipTopologyError(
            f"unbalanced entry/exit events: {n_entry} entries, {n_exit} exits "
            f"(points {[e.point for e in events]})")
    order_s = sorted(events, key=lambda e: e.sig_s)
    order_c = sorted(events, key=lambda e: e.sig_c)
    next_s = {id(e): order_s[(i + 1) % len(order_s)]
              for i, e in enumerate(order_s)}
    next_c = {id(e): order_c[(i + 1) % len(order_c)]
              for i, e in enumerate(order_c)}
    loops = []
    max_steps = 4 * len(events) + 8
    for start in order_s:
        if start.kind != "entry" or start.visited:
            continue
        segs = []
        cur = start
        start.visited = True
        for _ in range(max_steps):
            nxt = next_s[id(cur)]
            if nxt.kind != "exit":
                raise ClipTopologyError(
                    f"expected exit after entry at {cur.point}, got "
                    f"{nxt.kind} at {nxt.point}")
            segs.append((0, cur.sig_s, nxt.sig_s))
            nxt.visited = True
            cur = nxt
            nxt = next_c[id(cur)]
            if nxt.kind != "entry":
                raise ClipTopologyError(
                    f"expected entry after exit at {cur.point} on clip walk, "
                    f"got {nxt.kind} at {nxt.point}")
            segs.append((1, cur.sig_c, nxt.sig_c))
            cur = nxt
            if cur is start:
                break
            cur.visited = True
        else:
            raise ClipTopologyError("clip traversal did not close")
        loops.append(segs)
    if any(not e.visited for e in events):
        raise ClipTopologyError(
            f"unused intersection points after traversal: "
            f"{[e.point for e in events if not e.visited]}")
    return loops


def pieces_between(poly, sig_a: float, sig_b: float) -> list[tuple]:
    """Windows (span, t0, t1) of the boundary pieces walking forward from
    sig_a to sig_b (cyclic)."""
    n = len(poly.spans)
    sig_a = sig_a % n
    sig_b = sig_b % n
    if sig_b <= sig_a + 1e-12:
        sig_b += n
    pieces = []
    k = math.floor(sig_a)
    while k < sig_b:
        u0 = max(sig_a - k, 0.0)
        u1 = min(sig_b - k, 1.0)
        if u1 - u0 > 1e-12:
            piece = poly.spans[k % n].sub(u0, u1)
            pieces.append((k % n, piece.t0, piece.t1))
        k += 1
    return pieces


def corners_in_hull(inner, outer) -> bool:
    box = outer.bbox().inflate(SNAP_TOL)
    return all(box.contains(x, y) for x, y in inner.corners)


def reference_clip(subject, clip, raw):
    """(events, loops, containment) of one pair: its merged events in
    subject order, each (sig_s, sig_c, kind) with kind None where it
    changes no state; each loop's windows (side, span, t0, t1); and the
    containment of a pair without entries or exits."""
    events = sorted(build_events(subject, clip, raw), key=lambda e: e.sig_s)
    kept = label_events(subject, clip, events)
    listed = [(e.sig_s, e.sig_c, e.kind) for e in events]
    if not kept:
        sub_in = (corners_in_hull(subject, clip)
                  and _arc_state(subject, clip, 0.5, 0.5) != "out")
        clip_in = (corners_in_hull(clip, subject)
                   and _arc_state(clip, subject, 0.5, 0.5) != "out")
        if sub_in and clip_in:
            inner = 0 if subject.signed_area() <= clip.signed_area() else 1
        elif sub_in or clip_in:
            inner = 0 if sub_in else 1
        else:
            return listed, [], "none"
        containment = ("subject_in_clip", "clip_in_subject")[inner]
        poly = (subject, clip)[inner]
        return listed, [[(inner, k, s.t0, s.t1)
                         for k, s in enumerate(poly.spans)]], containment
    polys = (subject, clip)
    loops = [[(side, *w) for side, a, b in segs
              for w in pieces_between(polys[side], a, b)]
             for segs in walk(kept)]
    return listed, loops, "none"
