"""Frozen all-probe labeller: the oracle of the clean-crossing rule.

`probe_labels` gives every subject arc between consecutive events its state
by point location and labels an event entry or exit where the state enters
or leaves "in", as the clipper did for every event list that was not a run
of clean, alternating crossings. The package's `_label_events` takes an
arc's state from a clean crossing at its ends instead, and must give the
same labels.
"""

from __future__ import annotations

from curveremap.clipping import _sigma_point


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
