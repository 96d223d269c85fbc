import numpy as np
import pytest
from hypothesis import settings

from curveremap.geometry import CurvedPolygon, CurveSpan, ParamCurve, \
    polygon_from_points
from curveremap.experiments import demo_quads
from curveremap.remap import LoopWindows

# property tests draw the same examples on every run and keep no example
# database in the checkout
settings.register_profile("repo", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("repo")


@pytest.fixture(scope="session")
def quad_pair():
    """The worked-example curved quads (subject, clip)."""
    return demo_quads(degree=2)


def elevated_demo_quads():
    """The worked-example quads with every quadratic edge raised to a cubic
    through the same points, so the intersection area stays the known one."""
    ts = np.array([0, 1 / 3, 2 / 3, 1])
    return tuple(CurvedPolygon([CurveSpan(ParamCurve(s.curve.eval(ts)))
                                for s in poly.spans])
                 for poly in demo_quads(degree=2))


@pytest.fixture
def unit_square():
    return polygon_from_points([(0, 0), (1, 0), (1, 1), (0, 1)])


def random_curved_quad(rng, curliness=0.12):
    """A validated random quad with quadratic edges, or None if invalid."""
    base = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    verts = base + rng.uniform(-0.18, 0.18, (4, 2))
    spans = []
    for k in range(4):
        a, b = verts[k], verts[(k + 1) % 4]
        chord = b - a
        nrm = np.array([-chord[1], chord[0]])
        mid = 0.5 * (a + b) + nrm * rng.uniform(-curliness, curliness)
        spans.append(CurveSpan(ParamCurve([a, mid, b])))
    poly = CurvedPolygon(spans)
    try:
        poly.validate()
    except Exception:
        return None
    return poly


def sample_curved_quads(seed, count, offset=(0.0, 0.0), curliness=0.12):
    """Deterministic stream of valid random curved quads."""
    rng = np.random.default_rng(seed)
    out = []
    guard = 0
    while len(out) < count and guard < 50 * count:
        guard += 1
        poly = random_curved_quad(rng, curliness)
        if poly is None:
            continue
        if offset != (0.0, 0.0):
            shifted = []
            for s in poly.spans:
                nodes = s.curve.nodes + np.asarray(offset)
                shifted.append(CurveSpan(ParamCurve(nodes)))
            poly = CurvedPolygon(shifted)
        out.append(poly)
    assert len(out) == count, "random quad generator starved"
    return out


def polygon_windows(polys) -> tuple[LoopWindows, np.ndarray]:
    """The LoopWindows of polygons, a loop each and a group per span
    degree, and the indices of all the loops."""
    spans = [s for p in polys for s in p.spans]
    degrees = sorted({s.degree for s in spans})
    group = np.array([degrees.index(s.degree) for s in spans], int)
    row = np.zeros(len(spans), int)
    for g in range(len(degrees)):
        row[group == g] = np.arange((group == g).sum())
    cut = np.cumsum([0] + [len(p.spans) for p in polys])
    return (LoopWindows([np.array([s.curve.nodes for s in spans
                                   if s.degree == d]) for d in degrees],
                        group, row, np.array([s.t0 for s in spans], float),
                        np.array([s.t1 for s in spans], float), cut),
            np.arange(len(polys)))


def row_lists(rows, n):
    """EventRows of n pairs as a list per pair of rows (ks, t, kc, s,
    point, transversal, cross), in plain Python values."""
    assert np.all(np.diff(rows.pair) >= 0)
    tuples = list(zip(rows.ks.tolist(), rows.t.tolist(), rows.kc.tolist(),
                      rows.s.tolist(), map(tuple, rows.point.tolist()),
                      rows.transversal.tolist(), rows.cross.tolist()))
    cut = np.searchsorted(rows.pair, np.arange(n + 1)).tolist()
    return [tuples[a:b] for a, b in zip(cut[:-1], cut[1:])]
