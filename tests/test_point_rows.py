"""A point is the one-row stack.

The chart kernels (``Box``/``Chart.contains`` and ``norm_margin``),
``Atlas.rechart``, ``Atlas.representations`` and ``LocalMap.try_call`` have
one implementation, the stacked one; a point call runs the one-row stack and
converts its row back, to a Python bool or float, an array or None, or a
list of (chart, coords, margin) best first.  The tests require those types
and the stacked row's bits.  The per-point loops that the stacked product
transitions and metric check replaced are kept here as the reference, with
call counts pinning one stacked call where the loop made one per point or per
factor read.  Tensor insertion is checked against its per-eps contraction,
with a count pinning one contraction per grid eps.
"""

import collections
import math

import numpy as np
import pytest

from mapnets import jets, manifold
from mapnets.gpoints import GenPoint
from mapnets.manifold import (
    Box,
    Chart,
    CompactRegion,
    LocalMap,
    Point,
    RiemannianMetric,
    _ArrayMap,
    check_metric_spd,
    circle_atlas,
    euclidean_atlas,
    product_atlas,
    region_box,
    sphere_atlas,
)
from mapnets.vbundle import TensorSectionNet, tensor_insert
from test_vb_tables import GRID

SPHERE = sphere_atlas()
CIRCLE = circle_atlas()


def bits(x):
    return np.asarray(x, dtype=float).tobytes()


# -- point calls return the point types ---------------------------------------------


def test_point_calls_return_the_point_types():
    box = Box([-1.0, 0.0], [1.0, math.inf])
    chart = Chart("u", 2, (box, Box([0.5, -2.0], [3.0, 2.0])))
    for x in ([0.5, 0.5], np.array([2.0, 0.0]), [5.0, 5.0], [math.nan, 0.0], (0.25, 1e9)):
        X = np.array([x], dtype=float)
        for kernel, kind in ((box.contains, bool), (box.norm_margin, float),
                             (chart.contains, bool), (chart.norm_margin, float),
                             (lambda y: box.contains(y, 0.1, closed=True), bool)):
            got = kernel(x)
            assert type(got) is kind
            assert bits(got) == bits(kernel(X)[0])
    points = [Point("north", [0.5, 0.2]), Point("north", [0.0, 0.0]), Point("south", [9.0, 0.0]),
              Point("south", [3.9, -3.9])]
    for p in points:
        P = Point(p.chart, p.coords[None])
        for b in SPHERE.chart_ids:
            got, want = SPHERE.rechart(p, b), SPHERE.rechart(P, b)[0]
            assert (got is None) == bool(np.isnan(want).any())
            if got is not None:
                assert type(got) is np.ndarray and bits(got) == bits(want)
        reps = SPHERE.representations(p)
        stacked = {b: (Y[0], M[0]) for b, Y, M in SPHERE.representations(P) if M[0] > 0}
        assert [b for b, _y, _m in reps] == sorted(stacked, key=lambda b: (-stacked[b][1], b))
        for b, y, m in reps:
            assert type(b) is str and type(y) is np.ndarray and type(m) is float
            assert bits(y) == bits(stacked[b][0]) and bits(m) == bits(stacked[b][1])
    assert SPHERE.representations(points[0]) and not SPHERE.representations(
        Point("north", [math.nan, 0.0]))
    maps = [(SPHERE.transition_map("north", "south"), [[0.5, 0.2], [0.0, 0.0], [math.inf, 1.0]]),
            (LocalMap.from_expr(lambda t: jets.sqrt(t * t), name="abs"), [[0.0], [-2.0]]),
            (LocalMap(1, (1, 1), fn=lambda x: np.array([[1.0 / float(x[0])]]), name="inv"),
             [[0.0], [4.0]]),
            (LocalMap(1, (1,), fn=lambda x: x, defined=lambda x: x[0] > 0, name="pos"),
             [[1.0], [-1.0]])]
    for m, xs in maps:
        for x in xs:
            got, want = m.try_call(x), m.try_call(np.array([x], dtype=float))[0]
            assert (got is None) == bool(np.isnan(want).all())
            if got is not None:
                assert type(got) is np.ndarray and got.shape == m.out_shape
                assert bits(got) == bits(want)
    assert maps[1][0].try_call([0.0]).tolist() == [0.0]  # the float expression at a jetless row


# -- product transitions ------------------------------------------------------------


def test_a_stacked_product_transition_reads_each_factor_once(monkeypatch):
    sphere = sphere_atlas()
    prod = product_atlas(sphere, euclidean_atlas([(-10.0, 10.0)], name="line"))
    tm = sphere.transition_map("north", "south")
    calls = collections.Counter()
    for attr in ("fn", "defined"):
        monkeypatch.setattr(tm, attr, lambda x, f=getattr(tm, attr), attr=attr:
                            calls.update([attr]) or f(x))
    X = np.random.default_rng(3).uniform(-3.9, 3.9, (400, 3))
    X[:5, :2] = 0.0  # rows off the inversion's domain
    Y = prod.rechart(Point("north*e0", X), "south*e0")
    assert dict(calls) == {"fn": 1, "defined": 1}
    assert np.isnan(Y[:5]).all() and not np.isnan(Y[5:]).any()
    for i in range(0, 400, 40):
        want = X[i] if i < 5 else np.concatenate([X[i, :2] / (X[i, :2] @ X[i, :2]), X[i, 2:]])
        assert bits(Y[i]) == bits(np.nan * want if i < 5 else want)


# -- the metric check ---------------------------------------------------------------


def ref_check_metric_spd(atlas, g, region):
    """The per-lattice-point loop ``check_metric_spd`` replaced."""
    min_eig = math.inf
    for cid, lat in region.lattices():
        for x in lat:
            G = g.at(cid, x)
            if not np.allclose(G, G.T, atol=1e-10):
                raise ValueError(f"metric not symmetric at {x} in chart {cid!r}")
            min_eig = min(min_eig, float(np.linalg.eigvalsh(G)[0]))
    if min_eig <= 0:
        raise ValueError(f"metric not positive definite (min eig {min_eig:g})")
    return min_eig


def field(fn):
    return _ArrayMap(2, (2, 2), fn=lambda x: np.apply_along_axis(fn, -1, x).reshape(
        x.shape[:-1] + (2, 2)))


PLANE = euclidean_atlas([(-2.0, 2.0), (-2.0, 2.0)], name="plane")
SKEW = RiemannianMetric({"e0": field(lambda x: np.array(
    [[1.0, 1e-3 * (x[0] > 0.3) * (x[1] < -0.5)], [0.0, 1.0]]))})
INDEFINITE = RiemannianMetric({"e0": field(lambda x: np.diag([1.0, x[0] - x[1] + 0.5]))})
METRIC_CASES = {
    "sphere": (SPHERE, SPHERE.metric, None),
    "sphere x line": (product_atlas(SPHERE, euclidean_atlas([(-3.0, 3.0)])), None, None),
    "two pieces": (SPHERE, SPHERE.metric, CompactRegion(
        [("north", Box([-1.0, -1.0], [1.0, 2.0])), ("south", Box([0.0, 0.0], [3.0, 1.0]))])),
    "skew": (PLANE, SKEW, region_box("e0", [-1.0, -1.0], [1.0, 1.0], density=9)),
    "indefinite": (PLANE, INDEFINITE, region_box("e0", [-1.0, -1.0], [1.0, 1.0], density=9)),
}


@pytest.mark.parametrize("name", sorted(METRIC_CASES))
def test_check_metric_spd_matches_the_per_point_loop(name):
    atlas, g, region = METRIC_CASES[name]
    g = g or atlas.metric
    region = region or manifold._default_region(atlas)
    try:
        want = ref_check_metric_spd(atlas, g, region)
    except ValueError as exc:
        want = exc
    assert isinstance(want, ValueError) == (name in ("skew", "indefinite"))
    if isinstance(want, ValueError):
        with pytest.raises(ValueError) as got:
            check_metric_spd(atlas, g, region)
        assert str(got.value) == str(want)
    else:
        assert bits(check_metric_spd(atlas, g, region)) == bits(want)


def test_check_metric_spd_makes_one_field_call_per_piece(monkeypatch):
    g = RiemannianMetric(SPHERE.metric.fields)
    shapes = []
    for f in g.fields.values():
        monkeypatch.setattr(f, "fn", lambda x, fn=f.fn: shapes.append(x.shape) or fn(x))
    check_metric_spd(SPHERE, g, METRIC_CASES["two pieces"][2])
    assert shapes == [(33 * 33, 2), (33 * 33, 2)]


# -- tensor insertion contracts each grid eps once ----------------------------------


def moving_point():
    """A circle point that changes charts along the grid."""
    def at(eps):
        return Point("ang0", [2.0 + eps]) if eps > 0.1 else Point("angpi", [-2.9 + 4 * eps])

    support = CompactRegion([("ang0", Box([1.9], [2.95]))])
    return GenPoint.from_fn(CIRCLE, at, support, tag="moving")


def args():
    """A one-form with coefficients in both charts, and a vector field that
    has them in 'angpi' only at small eps, so the best chart varies."""
    om = TensorSectionNet(CIRCLE, 0, 1, lambda eps: {
        c: LocalMap.from_expr(lambda t, k=k: jets.cos(t) + k, name=f"om:{c}")
        for k, c in enumerate(CIRCLE.chart_ids)}, tag="om")
    xi = TensorSectionNet(CIRCLE, 1, 0, lambda eps: {
        c: LocalMap.from_expr(lambda t, k=k: jets.sin(t) * (2 + k) + eps, name=f"xi:{c}")
        for k, c in enumerate(CIRCLE.chart_ids) if c == "ang0" or eps < 0.2}, tag="xi")
    return om, xi


def ref_tensor_value(s, xis, p, eps):
    """The per-eps contraction: p's point representations, best first."""
    for cid, x, _m in s.atlas.representations(p.at(eps)):
        if all(cid in net.coeffs_at(eps) for net in [s, *xis]):
            T = s.value_at(eps, cid, x)
            for xi in xis:
                T = np.tensordot(xi.value_at(eps, cid, x), T, axes=(0, 0))
            return float(T)
    raise AssertionError("no shared chart")


def test_tensor_insert_contracts_each_grid_eps_once(monkeypatch):
    om, xi = args()
    p = moving_point()
    want = {eps: ref_tensor_value(om, [xi], p, eps) for eps in GRID.values().tolist()}
    off_grid = 0.3
    want_off = ref_tensor_value(om, [xi], p, off_grid)
    calls = collections.Counter()
    value_at = TensorSectionNet.value_at
    monkeypatch.setattr(TensorSectionNet, "value_at", lambda self, eps, cid, x: calls.update(
        [self.tag]) or value_at(self, eps, cid, x))
    val = tensor_insert(om, [], [xi], p, GRID)
    assert calls == {"om": len(GRID), "xi": len(GRID)}  # one per net and grid eps
    got = {eps: val(eps) for eps in GRID.values().tolist()}
    assert calls == {"om": len(GRID), "xi": len(GRID)}  # grid reads compute nothing
    assert [bits(got[e]) for e in want] == [bits(w) for w in want.values()]
    assert len(set(p.column(GRID).chart.tolist())) == 2
    assert bits(val(off_grid)) == bits(val(off_grid)) == bits(want_off)
    assert calls == {"om": len(GRID) + 2, "xi": len(GRID) + 2}  # off the grid: per read


def test_a_point_at_an_eps_column_raises_also_at_a_column_of_one_row():
    from mapnets.errors import DerivativeUndefined
    from mapnets.gallery import get_net

    (rep,) = get_net("heaviside_tanh").at(np.array([0.5])).locals.values()
    assert rep.try_call(np.array([[0.1]])).shape == (1, 1)
    with pytest.raises(DerivativeUndefined, match="not a point"):
        rep.try_call([0.1])


def test_tensor_insert_raises_the_point_error_of_a_grid_eps():
    om, xi = args()
    p, eps_bad = moving_point(), float(GRID.values()[3])

    def at(eps):
        if eps == eps_bad:
            raise ZeroDivisionError("no point here")
        return p.at(eps)

    with pytest.raises(ZeroDivisionError, match="no point here"):
        tensor_insert(om, [], [xi], GenPoint.from_fn(CIRCLE, at, p.support), GRID)
