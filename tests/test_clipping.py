import dataclasses
import importlib
import math

import numpy as np
import pytest

from curveremap import clipping
from curveremap.clipping import (ClipTopologyError, curve_flip,
                                 intersect_curves, kept_loops, newton_roots,
                                 wa_clip,
                                 _build_events, _label_events,
                                 _raw_intersections, _unit_cross)
from curveremap.geometry import (SNAP_TOL, CurvedPolygon, CurveSpan,
                                 ParamCurve, polygon_from_points,
                                 straight_span)
from curveremap.experiments import accuracy_meshes, demo_quads, REFERENCE_AREA
from curveremap.mesh import (gen_deformed_square_mesh, gen_disk_mesh,
                             rotate_mesh)
from curveremap.remap import build_plan

from conftest import elevated_demo_quads, sample_curved_quads
from reference_labels import containment as point_containment
from reference_labels import probe_labels

remap_module = importlib.import_module("curveremap.remap")

# Published intersection table for the worked example (x, y, type)
TABLE2 = [
    (-1.05713663, -1.29598616, "exit"),
    (-0.51624632, -0.58935822, "entry"),
    (-0.13487741, -0.23429411, "exit"),
    (0.57041875, -0.14211494, "entry"),
    (-1.27097304, -1.62405364, "entry"),
    (1.30701824, -0.48213526, "exit"),
    (-0.78370680, 0.11026931, "entry"),
    (-1.30299176, -1.55541394, "exit"),
]


def test_straight_cross():
    a = straight_span((0, 0), (1, 1))
    b = straight_span((0, 1), (1, 0))
    roots = intersect_curves([a], [b], [0], [0])[0]
    assert len(roots) == 1
    r = roots[0]
    assert abs(r.t - 0.5) < 1e-12 and abs(r.s - 0.5) < 1e-12
    assert np.allclose(r.point, (0.5, 0.5))
    assert r.transversal


def test_disjoint_spans_no_roots():
    a = straight_span((0, 0), (1, 0))
    b = straight_span((0, 5), (1, 5))
    assert intersect_curves([a], [b], [0], [0])[0] == []


def test_table2_point1_found(quad_pair):
    qp, qq = quad_pair
    # point '1' lies on the P4->P1 edge against the Q4->Q1 edge family
    found = []
    for sa in qp.spans:
        for sb in qq.spans:
            for r in intersect_curves([sa], [sb], [0], [0])[0]:
                found.append(r.point)
    best = min(found, key=lambda p: (p[0] + 1.05713663) ** 2
               + (p[1] + 1.29598616) ** 2)
    assert abs(best[0] + 1.05713663) < 1e-7
    assert abs(best[1] + 1.29598616) < 1e-7


def _labelled_events(sub, clp):
    return _label_events(sub, clp,
                         _build_events(sub, clp, _raw_intersections(sub, clp)))


def _tangent_label(event, sub, clp):
    """The tangent rule's label of an event from the spans' own tangents at
    its local parameters, not from the crossing record: 'entry' where the
    subject passes to the left of the counterclockwise clip boundary."""
    k, kc = int(event.sig_s), int(event.sig_c)
    cross = _unit_cross(
        clp.spans[kc % len(clp.spans)].tangent_at(event.sig_c - kc),
        sub.spans[k % len(sub.spans)].tangent_at(event.sig_s - k))
    if abs(cross) <= clipping.CROSS_TOL:
        return None
    return "entry" if cross > 0.0 else "exit"


def test_classify_matches_table2(quad_pair):
    qp, qq = quad_pair
    events = _labelled_events(qp, qq)
    assert len(events) == 8
    for (x, y, kind) in TABLE2:
        match = min(events,
                    key=lambda r: (r.point[0] - x) ** 2 + (r.point[1] - y) ** 2)
        assert math.hypot(match.point[0] - x, match.point[1] - y) < 1e-7
        assert match.kind == kind
        # the local tangent-cross classification agrees on these
        assert _tangent_label(match, qp, qq) == kind


def test_classify_probe_oracle_on_squares():
    # subject [0,2]^2 vs clip [1,3]^2: the subject's right edge, traversed
    # upward, passes from outside to inside the clip at (2, 1), and the top
    # edge leaves the clip at (1, 2)
    sub = polygon_from_points([(0, 0), (2, 0), (2, 2), (0, 2)])
    clp = polygon_from_points([(1, 1), (3, 1), (3, 3), (1, 3)])
    events = _labelled_events(sub, clp)
    assert len(events) == 2
    by_point = {(round(r.point[0], 9), round(r.point[1], 9)): r
                for r in events}
    entry = by_point[(2.0, 1.0)]
    exit_ = by_point[(1.0, 2.0)]
    assert entry.kind == _tangent_label(entry, sub, clp) == "entry"
    assert exit_.kind == _tangent_label(exit_, sub, clp) == "exit"


def test_identical_squares_containment(unit_square):
    other = polygon_from_points([(0, 0), (1, 0), (1, 1), (0, 1)])
    res = wa_clip(unit_square, other)
    assert res.containment == "subject_in_clip"
    assert len(res.loops) == 1
    assert math.isclose(res.total_area, 1.0, rel_tol=1e-14)


def test_worked_example_two_loops_and_area(quad_pair):
    qp, qq = quad_pair
    res = wa_clip(qp, qq)
    assert len(res.loops) == 2
    assert abs(res.total_area - 0.723453730359014) <= 1e-12
    for lp in res.loops:
        lp.validate()


def test_disjoint_polygons_empty(unit_square):
    far = polygon_from_points([(5, 5), (6, 5), (6, 6), (5, 6)])
    res = wa_clip(unit_square, far)
    assert res.loops == [] and res.containment == "none"


def test_shared_edge_is_measure_zero(unit_square):
    right = polygon_from_points([(1, 0), (2, 0), (2, 1), (1, 1)])
    assert wa_clip(unit_square, right).loops == []
    assert wa_clip(right, unit_square).loops == []


def test_corner_touch_empty(unit_square):
    diag = polygon_from_points([(1, 1), (2, 1), (2, 2), (1, 2)])
    assert wa_clip(unit_square, diag).loops == []


def test_half_overlap_with_shared_boundary():
    big = polygon_from_points([(0, 0), (2, 0), (2, 2), (0, 2)])
    half = polygon_from_points([(1, 0), (2, 0), (2, 2), (1, 2)])
    res = wa_clip(big, half)
    assert math.isclose(res.total_area, 2.0, rel_tol=1e-13)
    res2 = wa_clip(half, big)
    assert math.isclose(res2.total_area, 2.0, rel_tol=1e-13)


def test_partial_slide_collinear_edges():
    a = polygon_from_points([(0, 0), (2, 0), (2, 1), (0, 1)])
    b = polygon_from_points([(1, 0), (3, 0), (3, 1), (1, 1)])
    res = wa_clip(a, b)
    assert math.isclose(res.total_area, 1.0, rel_tol=1e-12)


def test_nested_squares_both_orders():
    outer = polygon_from_points([(0, 0), (4, 0), (4, 4), (0, 4)])
    inner = polygon_from_points([(1, 1), (2, 1), (2, 2), (1, 2)])
    r1 = wa_clip(outer, inner)
    assert r1.containment == "clip_in_subject"
    assert math.isclose(r1.total_area, 1.0, rel_tol=1e-14)
    r2 = wa_clip(inner, outer)
    assert r2.containment == "subject_in_clip"
    assert math.isclose(r2.total_area, 1.0, rel_tol=1e-14)


def _curved_quad(corners, bulge):
    """A counterclockwise quad whose edges bow outward by bulge times
    their length (quadratic edges)."""
    corners = np.asarray(corners, float)
    spans = []
    for k in range(4):
        a, b = corners[k], corners[(k + 1) % 4]
        d = b - a
        mid = 0.5 * (a + b) + bulge * np.array([d[1], -d[0]])
        spans.append(CurveSpan(ParamCurve([a, mid, b])))
    return CurvedPolygon(spans)


def _spy_arc_state(monkeypatch) -> list:
    """(polygon, sig_a, sig_b, state) of every _arc_state call from now
    on."""
    probed = []
    state = clipping._arc_state

    def spy(poly, other, sig_a, sig_b):
        probed.append((poly, sig_a, sig_b, state(poly, other, sig_a, sig_b)))
        return probed[-1][-1]

    monkeypatch.setattr(clipping, "_arc_state", spy)
    return probed


@pytest.mark.parametrize("curved", [False, True])
def test_nested_cells_without_crossings_return_the_inner_cell(curved,
                                                              monkeypatch):
    square = [(0, 0), (4, 0), (4, 4), (0, 4)]
    small = [(1, 1), (2, 1), (2, 2), (1, 2)]
    if curved:
        outer, inner = _curved_quad(square, 0.1), _curved_quad(small, -0.15)
    else:
        outer, inner = polygon_from_points(square), polygon_from_points(small)
    probed = _spy_arc_state(monkeypatch)
    for res, kind in ((wa_clip(inner, outer), "subject_in_clip"),
                      (wa_clip(outer, inner), "clip_in_subject")):
        assert res.containment == kind
        assert res.loops == [inner]
    # outer's corners lie outside inner's hull box, so only inner is
    # probed, as one arc around its whole boundary
    assert probed == [(inner, 0.5, 0.5, "in")] * 2


@pytest.mark.parametrize("curved", [False, True])
def test_disjoint_cells_with_overlapping_boxes_return_no_loops(curved,
                                                              monkeypatch):
    # a small quad in the notch under a dart: all of its corners lie in
    # the dart's box, so only the point probes can tell it is outside
    dart = [(0, 0), (2, 1), (4, 0), (2, 4)]
    small = [(1.8, 0.1), (2.2, 0.1), (2.2, 0.5), (1.8, 0.5)]
    if curved:
        dart, small = _curved_quad(dart, -0.02), _curved_quad(small, 0.1)
    else:
        dart, small = polygon_from_points(dart), polygon_from_points(small)
    probed = _spy_arc_state(monkeypatch)
    for a, b in ((dart, small), (small, dart)):
        res = wa_clip(a, b)
        assert res.loops == [] and res.containment == "none"
    assert probed == [(small, 0.5, 0.5, "out")] * 2


def _touching_quads(kind):
    """(outer, inner): inner lies in the square [0, 4]^2 and touches its
    bottom and left sides, at two corners or where two of its edges bow
    out to meet them tangentially."""
    outer = polygon_from_points([(0, 0), (4, 0), (4, 4), (0, 4)])
    if kind == "corners":
        return outer, polygon_from_points([(2, 0), (3, 2), (2, 3), (0, 2)])
    corners = [(1, 1), (3, 1), (3, 3), (1, 3)]
    mids = [(2, 0), (3.2, 2), (2, 3.2), (0, 2)]
    return outer, CurvedPolygon([
        CurveSpan(ParamCurve([corners[k], mids[k], corners[(k + 1) % 4]]))
        for k in range(4)])


@pytest.mark.parametrize("kind", ["corners", "tangent"])
def test_nested_cells_that_touch_return_the_inner_cell(kind, monkeypatch):
    # the boundaries meet, so there are events, but the state never
    # changes on them: no event is kept and the whole-loop probe decides
    outer, inner = _touching_quads(kind)
    probed = _spy_arc_state(monkeypatch)
    for a, b, nested in ((inner, outer, "subject_in_clip"),
                         (outer, inner, "clip_in_subject")):
        assert _build_events(a, b, _raw_intersections(a, b))
        res = wa_clip(a, b)
        assert res.crossings == []
        assert res.containment == nested and res.loops == [inner]
    assert [p for p in probed if p[1:3] == (0.5, 0.5)] == \
        [(inner, 0.5, 0.5, "in")] * 2


def test_cells_sharing_three_sides_return_the_smaller_cell(monkeypatch):
    # inner is the square with its bottom side bowed in, so the two cells
    # share three whole sides. With the square as subject its bottom is
    # out and its other sides bdry, so no event is kept. Both whole-loop
    # probes land on the shared sides and read bdry, which counts as
    # nested both ways, and the smaller cell comes back.
    outer = polygon_from_points([(0, 0), (4, 0), (4, 4), (0, 4)])
    bowed = CurveSpan(ParamCurve([(0, 0), (2, 1), (4, 0)]))
    inner = CurvedPolygon([bowed, *outer.spans[1:]])
    probed = _spy_arc_state(monkeypatch)
    res = wa_clip(outer, inner)
    assert res.crossings == []
    assert res.containment == "clip_in_subject" and res.loops == [inner]
    assert probed[-2:] == [(outer, 0.5, 0.5, "bdry"),
                           (inner, 0.5, 0.5, "bdry")]
    # with inner as subject its bowed side is an "in" arc between two
    # kept events, and the traced loop is inner itself
    res = wa_clip(inner, outer)
    assert [e.kind for e in res.crossings] == ["entry", "exit"]
    assert math.isclose(res.total_area, inner.signed_area(), rel_tol=1e-14)


def test_only_arcs_without_an_agreeing_clean_end_are_probed(quad_pair,
                                                           monkeypatch):
    qp, qq = quad_pair
    events = sorted(clipping._build_events(qp, qq, _raw_intersections(qp, qq)),
                    key=lambda e: e.sig_s)
    probed = []
    state = clipping._arc_state
    monkeypatch.setattr(clipping, "_arc_state",
                        lambda *args: probed.append(args[2:]) or state(*args))
    kinds = [e.kind for e in _label_events(
        qp, qq, [dataclasses.replace(e) for e in events])]
    assert kinds == ["exit", "entry"] * 4 or kinds == ["entry", "exit"] * 4
    assert probed == []
    # with a crossing missing, its two neighbours carry the same label, so
    # the arc between them has ends that disagree, and only it is probed
    _label_events(qp, qq, events[:3] + events[4:])
    assert probed == [(events[2].sig_s, events[4].sig_s)]


def _label_cases():
    """(name, source, target) of the plans whose event lists the label
    oracle checks."""
    disk = gen_disk_mesh(8)
    square = gen_deformed_square_mesh(4, "identity", degree=2)
    return ([("accuracy_n8", *accuracy_meshes(8)),
             ("cubic_n8", *accuracy_meshes(8, degree=3))]
            + [(f"disk_turned_{a:.3g}", disk, rotate_mesh(disk, a))
               for a in (math.pi / 4.0, 1e-9, 1e-12)]
            + [("identity", square, square)])


@pytest.mark.parametrize("case", range(6))
def test_tangent_labels_equal_the_arc_state_labels(case, monkeypatch):
    # the labels of every pair's events equal those of the frozen labeller
    # that probes every arc
    name, src, tgt = _label_cases()[case]
    label, state = clipping._label_events, clipping._arc_state
    counts = {"arcs": 0, "probes": 0}

    def checked(subject, clip, events):
        ordered = sorted(events, key=lambda e: e.sig_s)
        oracle = probe_labels(
            subject, clip, [dataclasses.replace(e) for e in ordered])
        counts["arcs"] += len(events)
        got = label(subject, clip, events)
        assert [(e.sig_s, e.sig_c, e.kind) for e in got] == \
            [(e.sig_s, e.sig_c, e.kind) for e in oracle]
        return got

    def probe(*args):
        counts["probes"] += 1
        return state(*args)

    monkeypatch.setattr(clipping, "_label_events", checked)
    monkeypatch.setattr(clipping, "_arc_state", probe)
    build_plan(src, tgt, k_max=0)
    # every plan has corner events, whose arcs are probed; on the identity
    # remap and the tiny turns no crossing gives an arc its state
    assert counts["probes"] > 0
    assert (counts["probes"] < counts["arcs"]) == (
        name in ("accuracy_n8", "cubic_n8", "disk_turned_0.785"))


@pytest.mark.parametrize("case", range(6))
def test_whole_loop_probe_equals_the_interior_point_rule(case, monkeypatch):
    # on every pair of a plan whose events change no state, the
    # containment of the whole-loop probe equals that of the frozen rule
    # that located interior points
    name, src, tgt = _label_cases()[case]
    clip_pair, probed = remap_module.wa_clip, []

    def checked(subject, clip, raw=None):
        res = clip_pair(subject, clip, raw)
        if not res.crossings:
            assert res.containment == point_containment(subject, clip, probed)
        return res

    monkeypatch.setattr(remap_module, "wa_clip", checked)
    build_plan(src, tgt, k_max=0)
    # the old probe ran only where the cells nearly coincide or touch:
    # once in each accuracy plan, on most pairs of the tiny turn and of
    # the identity remap
    assert len(probed) == {"accuracy_n8": 1, "cubic_n8": 1,
                           "disk_turned_0.785": 0, "disk_turned_1e-09": 0,
                           "disk_turned_1e-12": 128, "identity": 32}[name]


def test_clip_symmetry_and_boundedness_random():
    quads_a = sample_curved_quads(101, 12)
    quads_b = sample_curved_quads(707, 12, offset=(0.35, 0.2))
    checked = 0
    for a, b in zip(quads_a, quads_b):
        ra = wa_clip(a, b)
        rb = wa_clip(b, a)
        area_a, area_b = ra.total_area, rb.total_area
        assert abs(area_a - area_b) <= 1e-12 * max(1.0, abs(area_a))
        assert -1e-12 <= area_a <= min(a.signed_area(), b.signed_area()) + 1e-12
        checked += 1
    assert checked == 12


def test_degree3_worked_example_consistency():
    # degree-elevated edges trace the same point set: area must match, and
    # swapping roles must agree
    sub, clp = elevated_demo_quads()
    res = wa_clip(sub, clp)
    assert abs(res.total_area - REFERENCE_AREA) <= 1e-10
    res2 = wa_clip(clp, sub)
    assert abs(res.total_area - res2.total_area) <= 1e-12


def test_topology_error_reports_points(monkeypatch):
    # two real crossings of the squares, both labelled entry: wa_clip must
    # refuse the unbalanced list and name its points
    sub = polygon_from_points([(0, 0), (2, 0), (2, 2), (0, 2)])
    clp = polygon_from_points([(1, 1), (3, 1), (3, 3), (1, 3)])
    events = [clipping._Event((2.0, 1.0), 1.5, 0.5, True, "entry"),
              clipping._Event((1.0, 2.0), 2.5, 3.5, True, "entry")]
    monkeypatch.setattr(clipping, "_label_events", lambda *args: events)
    with pytest.raises(ClipTopologyError) as info:
        wa_clip(sub, clp)
    msg = str(info.value)
    assert "2 entries, 0 exits" in msg
    assert "(2.0, 1.0)" in msg and "(1.0, 2.0)" in msg


def test_kept_loops_drops_slivers_and_refuses_clockwise_loops(unit_square):
    big = polygon_from_points([(0, 0), (2, 0), (2, 2), (0, 2)])
    scale = unit_square.signed_area()  # the smaller polygon's area
    drop = 1e-12 * scale

    def loop(area):
        lp = polygon_from_points([(0, 0), (1, 0), (1, 1), (0, 1)])
        lp._area = area
        return lp

    at_drop, above = loop(drop), loop(np.nextafter(drop, 1.0))
    at_floor = loop(-1e-9 * scale)
    for sub, clp in ((unit_square, big), (big, unit_square)):
        assert kept_loops([at_drop, above, at_floor], sub, clp) == [above]
    sliver = polygon_from_points([(0.5, 0.5), (0.5 + 1e-7, 0.5),
                                  (0.5 + 1e-7, 0.5 + 1e-7), (0.5, 0.5 + 1e-7)])
    assert 0.0 < sliver.signed_area() <= drop
    assert kept_loops([sliver, above], unit_square, big) == [above]
    clockwise = polygon_from_points([(0, 0), (0, 1), (1, 1), (1, 0)])
    for bad in (loop(np.nextafter(-1e-9 * scale, -1.0)), clockwise):
        with pytest.raises(ClipTopologyError, match="negative-area loop"):
            kept_loops([above, bad], unit_square, big)


# --------------------------------------------------------------------------
# the batched Newton kernel

def _mesh_pairs():
    """(name, source, target) of the meshes the kernel tests run on."""
    base = gen_disk_mesh(8)
    return [("cubic_n8", *accuracy_meshes(8, degree=3)),
            ("disk_rotation", base, rotate_mesh(base, math.pi / 4.0))]


def _curved_edge_pairs(src, tgt):
    """Every (source edge, target edge) pair of two curved meshes whose
    boxes overlap and whose curves differ."""
    sbox = [src.edge_curve(e).bbox().inflate(SNAP_TOL)
            for e in range(src.n_edges)]
    tbox = [tgt.edge_curve(e).bbox().inflate(SNAP_TOL)
            for e in range(tgt.n_edges)]
    return [(es, et) for es in range(src.n_edges) for et in range(tgt.n_edges)
            if sbox[es].overlaps(tbox[et])
            and not any(curve_flip(src.points[src.edges[es]][None],
                                   tgt.points[tgt.edges[et]][None], SNAP_TOL))]


@pytest.mark.parametrize("degree", [2, 3])
def test_reversed_window_gives_roots_at_one_minus_u(degree):
    sub, clp = demo_quads(degree)
    compared = 0
    for a in sub.spans:
        for b in clp.spans:
            for t0, t1 in ((0.0, 1.0), (0.05, 0.9)):
                span = CurveSpan(a.curve, t0, t1)
                fwd = sorted((r.s, r.t) for r in intersect_curves(
                    [span], [b], [0], [0])[0])
                rev = sorted((r.s, r.t) for r in intersect_curves(
                    [CurveSpan(a.curve, t1, t0)], [b], [0], [0])[0])
                assert len(fwd) == len(rev)
                for (v, u), (v2, u2) in zip(fwd, rev):
                    assert abs(v2 - v) <= 1e-14
                    assert abs(u2 - (1.0 - u)) <= 1e-14
                compared += len(fwd)
    assert compared >= 8


@pytest.mark.parametrize("case", range(2))
def test_batched_roots_equal_roots_of_each_pair_alone(case):
    _name, src, tgt = _mesh_pairs()[case]
    pairs = _curved_edge_pairs(src, tgt)
    ca = np.stack([src.edge_curve(es).power_coeffs for es, _ in pairs])
    cb = np.stack([tgt.edge_curve(et).power_coeffs for _, et in pairs])
    whole = np.tile([0.0, 1.0], (len(pairs), 1))
    pair, u, v, _res = newton_roots(ca, cb, whole, whole)
    found = 0
    for k in range(len(pairs)):
        _p, u1, v1, _r = newton_roots(ca[k:k + 1], cb[k:k + 1],
                                      whole[:1], whole[:1])
        mine = pair == k
        assert mine.sum() == len(u1)
        assert np.abs(u[mine] - u1).max(initial=0.0) <= 1e-12
        assert np.abs(v[mine] - v1).max(initial=0.0) <= 1e-12
        found += len(u1)
    assert found > len(pairs)
