"""Composites route whole stacks and take their factors' eps columns.

``ChainedLocalMap._routed`` routes a stack with one stacked call per factor,
middle chart and route: each row takes the first route whose middle point
lies in the route's middle chart and whose outer value is not a NaN row, and
a point is a one-row stack.  Its values and tensors must equal, bit for bit
(any NaN as NaN), those of the per-point router it replaced
(``test_kernels.ref_route``) on a two-route chain, a composite through the two
circle angle charts, a chain with rows that no route admits, and rows with
inf or NaN entries.  A factor's own two value paths are outside that claim:
the router reads a factor's stacked value, which for an expression is the
order-0 jet, where the per-point router read the float expression; for the
circle case (``3.1 * t``, -0.0 included) the two agree bit for bit.

A composite of two nets with eps columns has eps columns (an ``embed_smooth``
net takes any column): its image table and sweeps make one call over the
whole grid, and must equal, bit for bit, those of the same composite over
per-eps copies of its factors.  Where a row of a column leaves the route the
others take, the composite raises and the sweeps take one eps at a time.
"""

import collections
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_kernels import ref_chained_derivs_upto, ref_route, same_bytes, two_route_chain

from mapnets import gmap, jets
from mapnets.asymptotics import EpsGrid
from mapnets.config import Config
from mapnets.errors import DerivativeUndefined
from mapnets.exprs import build_expr
from mapnets.gallery import get_atlas, get_net, get_region
from mapnets.gmap import (
    MapNet,
    angle_net,
    chart_gap_series,
    check_equiv,
    compose,
    derivative_sup_series,
    embed_smooth,
)
from mapnets.jets import Jet
from mapnets.manifold import Box, Chart, LocalMap, SmoothMap, _DerivedMap
from mapnets.vbundle import matrix_gap_series, tangent, vbhom_compose

LINE, CIRCLE = get_atlas("line"), get_atlas("circle")
GRID = EpsGrid(0.5, 2, 16)


def partial_sine() -> SmoothMap:
    """circle -> line, t -> sin t, each representative defined only inside
    its own angle chart."""
    return SmoothMap(CIRCLE, LINE, {
        ("ang0", "e0"): LocalMap.from_expr(lambda t: jets.sin(t),
                                           defined=CIRCLE.chart("ang0").contains, name="sin:ang0"),
        ("angpi", "e0"): LocalMap.from_expr(lambda t: -jets.sin(t),
                                            defined=CIRCLE.chart("angpi").contains,
                                            name="sin:angpi")}, name="psin")


def exp_recip() -> SmoothMap:
    """The range diffeomorphism y -> e^(1/y) of the epsilon_into_0_2 entry."""
    return SmoothMap(get_atlas("interval02"), get_atlas("halfline_exp"),
                     {("e0", "e0"): LocalMap.from_expr(lambda y: jets.exp(1.0 / y),
                                                       name="exp_recip")}, name="exp_recip")


def fresh(name: str, eps_columns: bool = True) -> MapNet:
    """A registry net with no image tables yet, with or without eps columns."""
    u = get_net(name)
    return MapNet(u.src, u.dst, u.local_factory, tag=u.tag, eps_columns=eps_columns)


def angle_sin(eps_columns: bool = True) -> MapNet:
    """line -> circle, the angle sin t: every image lies in the chart 'ang0'."""
    u = angle_net(LINE, CIRCLE, build_expr("sin"), tag="angle_sin")
    return MapNet(u.src, u.dst, u.local_factory, tag=u.tag, eps_columns=eps_columns)


COMPOSITES = {  # label: (composite of fresh factors, with or without eps columns)
    "sin o tanh": lambda c: compose(fresh("sigma_sin", c), fresh("sigma_tanh", c)),
    "psin o angle_sin": lambda c: compose(embed_smooth(partial_sine(), "psin"), angle_sin(c)),
    "psin o s1_jump": lambda c: compose(embed_smooth(partial_sine(), "psin"), fresh("s1_jump", c)),
    "exp_recip o epsilon_into_0_2": lambda c: compose(embed_smooth(exp_recip(), "exp_recip"),
                                                      fresh("epsilon_into_0_2", c)),
}


def same_series(a: dict, b: dict) -> bool:
    return list(a) == list(b) and all(
        a[k].sup.tobytes() == b[k].sup.tobytes()
        and [repr(p) for p in a[k].args] == [repr(p) for p in b[k].args]
        and a[k].context == b[k].context for k in a)


# -- the router against the per-point router --------------------------------------


def gapped_chain():
    """Two routes that leave rows outside [-1, 1] (and some near it) unrouted:
    (0, 1) by a jet chain, (-1, 0.5) by a chain of plain fn maps."""
    outer = LocalMap.from_expr(lambda t: jets.sin(2.0 * t) + t * t, name="outer-expr")
    routes = [(Chart("right", 1, Box([0.0], [1.0])),
               LocalMap.from_expr(lambda t: t, name="id-expr"), outer),
              (Chart("left", 1, Box([-1.0], [0.5])),
               LocalMap(1, (1,), fn=lambda x: x, name="id-fn"),
               LocalMap(1, (1,), fn=lambda x: np.array([math.sin(2.0 * x[0]) + x[0] * x[0]]),
                        name="outer-fn"))]
    return gmap.ChainedLocalMap(routes, 1, (1,), name="gapped")


def circle_chain():
    """The (e0, e0) representative of psin o (angle 3.1 t) at eps 1/4: routes
    through 'ang0', then 'angpi'."""
    wind = angle_net(LINE, CIRCLE, lambda eps: (lambda t: 3.1 * t), tag="3.1t")
    return compose(embed_smooth(partial_sine(), "psin"), wind).at(0.25).locals[("e0", "e0")]


CHAINS = {"two-route": lambda: two_route_chain()[0], "circle": circle_chain,
          "gapped": gapped_chain}


def ref_derivs(cm, x, k_max):
    """The tensors of the per-point path: a row on a route that chains two
    expressions takes its jet-chained map; otherwise the chain rule on the
    row's grid, each grid row by its own ``ref_route`` whatever its route
    (``ref_chained_derivs_upto``)."""
    i, _y, _z = ref_route(cm, np.atleast_1d(np.asarray(x, dtype=float)))
    if cm.maps[i].expr is not None:
        return cm.maps[i].derivs_upto(x, k_max)
    return ref_chained_derivs_upto(cm, x, k_max)


ROW = st.one_of(st.floats(-2.5, 2.5),
                st.sampled_from([0.0, -0.0, 1e-5, -1e-5, 0.5, 1.0, -1.0, 1.0 - 1e-4,
                                 math.inf, -math.inf, math.nan, 1e300]))


@given(st.sampled_from(sorted(CHAINS)), st.lists(ROW, min_size=1, max_size=12),
       st.integers(0, 3))
@settings(max_examples=150, deadline=None)
def test_the_router_matches_the_per_point_router(chain, xs, k):
    cm = CHAINS[chain]()
    X = np.array(xs)[:, None]
    refs = []
    for x in X:
        try:
            refs.append(ref_route(cm, x))
        except ValueError:
            refs.append(None)
    got = cm.try_call(X)
    assert got.shape == (len(X),) + cm.out_shape
    for i, (x, ref) in enumerate(zip(X, refs)):
        want = np.full(cm.out_shape, math.nan) if ref is None else ref[2]
        same_bytes(got[i], want)
        point = cm.try_call(x)  # a one-row stack
        assert (point is None) == (ref is None)
        if ref is not None:
            same_bytes(point, want)
            same_bytes(cm(x), want)
        else:
            with pytest.raises(ValueError, match="no admissible route"):
                cm(x)
    wants = []
    for x in X:
        try:
            wants.append(ref_derivs(cm, x, k))
        except ValueError:  # the row has no route
            wants.append(None)
    if any(want is None for want in wants):
        with pytest.raises(ValueError, match="no admissible route"):
            cm.derivs_upto(X, k)
        for x, want in zip(X, wants):
            if want is None:
                with pytest.raises(ValueError, match="no admissible route"):
                    cm.derivs_upto(x, k)
        return
    ts = cm.derivs_upto(X, k)
    for i, (x, want) in enumerate(zip(X, wants)):
        single = cm.derivs_upto(x, k)
        for j in range(k + 1):
            same_bytes(ts[j][i], want[j])
            same_bytes(single[j], want[j])


def test_a_route_whose_value_is_a_nan_row_leaves_the_row_to_the_next():
    """A factor that returns NaN without raising: the router reads a NaN row
    as no value, as a stacked ``try_call`` does, and takes the next route
    there, where the per-point router admitted any value that did not raise;
    a row that every route leaves NaN has no route."""
    nan_above_1 = LocalMap(1, (1,), fn=lambda x: np.array([math.nan if x[0] > 1.0 else 2.0 * x[0]]),
                           name="nan-above-1")
    routes = [(Chart("all", 1, Box([-math.inf], [math.inf])),
               LocalMap(1, (1,), fn=lambda x: x, name="id-fn"), nan_above_1),
              (Chart("small", 1, Box([-2.0], [2.0])),
               LocalMap(1, (1,), fn=lambda x: x, name="id-fn"),
               LocalMap(1, (1,), fn=lambda x: 3.0 * x, name="triple"))]
    cm = gmap.ChainedLocalMap(routes, 1, (1,), name="nan-route")
    X = np.array([[0.5], [1.5], [3.0]])
    same_bytes(cm.try_call(X), [[1.0], [4.5], [math.nan]])
    assert [(i, rows.tolist()) for i, rows, _Y, _Z in cm._routed(X)] == [(0, [0]), (1, [1])]
    same_bytes(cm(X[1]), [4.5])
    assert cm.try_call(X[2]) is None
    assert ref_route(cm, X[1])[0] == ref_route(cm, X[2])[0] == 0  # NaN admitted there
    d = cm.derivs_upto(X[:2], 1)[1]
    assert np.max(np.abs(d.ravel() - [2.0, 3.0])) <= 1e-9
    with pytest.raises(ValueError, match="no admissible route"):
        cm.derivs_upto(X, 1)


def test_the_router_makes_one_call_per_factor_and_route(monkeypatch):
    calls = []
    for cls in (LocalMap, Chart):
        name = "try_call" if cls is LocalMap else "contains"
        method = getattr(cls, name)
        monkeypatch.setattr(cls, name, lambda self, x, *a, method=method, name=name:
                            calls.append((name, np.ndim(x))) or method(self, x, *a))
    cm = circle_chain()
    X = np.linspace(-2.0, 2.0, 41)[:, None]  # 3.1 t leaves 'ang0' beyond |t| = 3 / 3.1
    routed = cm._routed(X)
    assert [i for i, *_rest in routed] == [0, 1]
    assert sum(len(rows) for _i, rows, _Y, _Z in routed) == len(X)
    # per route: the inner rep, the middle chart, the outer rep, each on a stack;
    # the point calls are the partial sine's own ``defined``, row by row
    assert [c for c in calls if c[1] == 2] == [("try_call", 2), ("contains", 2),
                                               ("try_call", 2)] * 2
    assert {c for c in calls if c[1] != 2} == {("contains", 1)}


# -- composites at eps columns ----------------------------------------------------


@pytest.mark.parametrize("label", ["sin o tanh", "psin o angle_sin"])
def test_a_composite_sweeps_in_one_call_over_the_grid(label, monkeypatch):
    calls, orders = [], []
    call = SmoothMap.__call__
    monkeypatch.setattr(SmoothMap, "__call__",
                        lambda self, p: calls.append(p.coords.shape) or call(self, p))
    var = Jet.var.__func__
    monkeypatch.setattr(Jet, "var", classmethod(
        lambda cls, x0, order: orders.append(order) or var(cls, x0, order)))
    K = get_region("K_unit")
    counts = []
    for k_max in (16, 40):
        cfg = Config(grid_k_max=k_max)
        grid = cfg.grid()
        calls.clear()
        orders.clear()
        u = COMPOSITES[label](True)
        assert u.eps_columns
        assert len(derivative_sup_series(u, K, grid, 3, None, cfg)) == 4
        # the table: one stacked call per source chart, over every (eps, point) row
        assert calls == [(len(grid) * len(K.sample_points()), 1)]
        counts.append(collections.Counter(orders))
    assert counts[0] == counts[1]
    # the table's and the sweep's router: one order-0 jet per factor each (the
    # partial sine is eps-constant, on the stack of its route); then one
    # order-3 jet per (piece, target chart, route taken)
    assert counts[0] == {0: 4, 3: 1}


@pytest.mark.parametrize("label", sorted(COMPOSITES))
def test_a_composite_at_eps_columns_matches_its_per_eps_twin(label, cfg):
    u, twin = COMPOSITES[label](True), COMPOSITES[label](False)
    assert u.eps_columns and not twin.eps_columns
    for K in (get_region("K_unit"), get_region("K_half")):
        tu, tw = u.image_table(K, GRID), twin.image_table(K, GRID)
        for a, b in ((tu.margins, tw.margins), (tu.coords, tw.coords), (tu.chart, tw.chart),
                     (tu.source, tw.source)):
            assert a.tobytes() == b.tobytes(), label
        assert same_series(derivative_sup_series(u, K, GRID, 3, None, cfg),
                           derivative_sup_series(twin, K, GRID, 3, None, cfg)), label


def test_rows_leaving_the_route_fall_back_to_one_eps_at_a_time(monkeypatch, cfg):
    """At eps 1/4 some of s1_jump's images lie outside 'ang0' and take the
    route through 'angpi', the others the one through 'ang0': a column
    would hand a factor some of its rows."""
    u, twin = COMPOSITES["psin o s1_jump"](True), COMPOSITES["psin o s1_jump"](False)
    K = get_region("K_unit")
    rep = u.at(np.full(len(K.sample_points()), 0.25)).locals[("e0", "e0")]
    with pytest.raises(DerivativeUndefined, match="whole stacks"):
        rep.try_call(K.lattices()[0][1])
    calls = []
    call = SmoothMap.__call__
    monkeypatch.setattr(SmoothMap, "__call__",
                        lambda self, p: calls.append(len(p.coords)) or call(self, p))
    table = u.image_table(K, GRID)
    n = len(K.sample_points())
    assert calls == [len(GRID) * n] + [n] * len(GRID)  # the column raised
    assert table.coords.tobytes() == twin.image_table(K, GRID).coords.tobytes()


def test_the_epsilon_into_0_2_composite_on_a_deep_grid_matches_one_eps_at_a_time():
    """At 2^-40, e^(1/eps) overflows to inf, an admitted value (not a NaN row):
    the column keeps every row, and the table, the k = 0 sups and the verdict
    are those of the per-eps composite."""
    cfg = Config(grid_k_max=40)
    grid = cfg.grid()
    K = get_region("K_unit")
    label = "exp_recip o epsilon_into_0_2"
    u, twin = COMPOSITES[label](True), COMPOSITES[label](False)
    rows = len(grid) * len(K.sample_points())
    routed = u.at(np.full(rows, 2.0**-40)).locals[("e0", "e0")]._routed(
        np.zeros((rows, 1)))
    assert np.isinf(routed[0][3]).all()
    tu, tw = u.image_table(K, grid), twin.image_table(K, grid)
    assert tu.coords.tobytes() == tw.coords.tobytes()
    got = derivative_sup_series(u, K, grid, 0, None, cfg)
    want = derivative_sup_series(twin, K, grid, 0, None, cfg)
    assert same_series(got, want)


def test_a_composite_at_an_eps_column_takes_only_whole_stacks():
    E = np.array([0.5, 0.25, 0.125])
    u = compose(fresh("sigma_sin"), fresh("sigma_tanh"))
    (rep,) = u.at(E).locals.values()
    assert rep.eps_column is E
    X = np.array([[0.1], [0.2], [0.3]])
    got = rep.derivs_upto(X, 2)
    for r, eps in enumerate(E.tolist()):
        want = u.at(eps).locals[("e0", "e0")].derivs_upto(X[r], 2)
        for j in range(3):
            same_bytes(got[j][r], want[j])
    for stack in (X[:1], X[:2], np.vstack([X, X])):  # no one-row (or other) retry
        with pytest.raises(DerivativeUndefined, match="whole stacks"):
            rep.try_call(stack)
    with pytest.raises(DerivativeUndefined):
        rep.try_call(X[0])
    (expr_rep,) = fresh("heaviside_tanh").at(E).locals.values()
    for call in (expr_rep, expr_rep.try_call):  # a point has no eps
        with pytest.raises(DerivativeUndefined, match="not a point"):
            call(X[0])
    # a route of plain fn maps differentiates on grid rows, which are no eps column
    plain = SmoothMap(LINE, LINE, {("e0", "e0"): LocalMap(1, (1,), fn=np.sin, name="sin-fn")})
    (rep,) = compose(embed_smooth(plain, "sin-fn"), fresh("sigma_tanh")).at(E).locals.values()
    assert rep.derivs_upto(X, 1)[1].shape == (3, 1, 1)
    with pytest.raises(DerivativeUndefined, match="takes only stacks of its rows"):
        rep.derivs_upto(X, 2)


@pytest.mark.parametrize("composite_first", [False, True])
def test_an_inexact_composite_and_an_expression_net_compare_one_eps_at_a_time(
        composite_first, cfg):
    """sin (a plain fn map) o heaviside_tanh is exact to order 0 only, so its
    gap to heaviside_tanh at k_max 2 takes differences of both operands'
    stacked values on grids, whose rows are no stack of an eps column's: at an
    eps column that raises DerivativeUndefined in either operand order, and
    check_equiv takes one eps at a time, as for the same nets without eps
    columns."""
    plain = SmoothMap(LINE, LINE, {("e0", "e0"): LocalMap(1, (1,), fn=np.sin, name="sin-fn")})

    def nets(c):
        u = fresh("heaviside_tanh", c)
        v = compose(embed_smooth(plain, "sin-fn"), fresh("heaviside_tanh", c))
        return (v, u) if composite_first else (u, v)

    got, want = nets(True), nets(False)
    assert all(u.eps_columns for u in got) and not any(u.eps_columns for u in want)
    K = get_region("K_unit")
    assert same_series(chart_gap_series(*got, K, GRID, 2, None, cfg),
                       chart_gap_series(*want, K, GRID, 2, None, cfg))
    assert repr(check_equiv(*got, K, GRID, 2, cfg)) == repr(check_equiv(*want, K, GRID, 2, cfg))


# -- matrix fields: the tangent and the composite's ----------------------------------


def test_a_derived_map_serves_a_stack_with_one_parent_call(monkeypatch):
    rep = get_net("sigma_sin").at(0.25).locals[("e0", "e0")]
    calls = []
    derivs = LocalMap.derivs_upto
    monkeypatch.setattr(LocalMap, "derivs_upto", lambda self, x, k: calls.append(
        (np.shape(x), k)) or derivs(self, x, k))
    d = rep.derivative_map()
    assert isinstance(d, _DerivedMap)
    X = np.linspace(-1.0, 1.0, 41)[:, None]
    got = d.try_call(X)
    assert calls == [((41, 1), 1)]
    for x, row in zip(X, got):
        same_bytes(row, d(x))


def ref_matrix(chained, mats, x):
    """The per-point matrix field vbhom_compose replaced: M2(y) @ M1(x) along
    x's ``ref_route``."""
    i, y, _z = ref_route(chained, x)
    m1, m2 = mats[i]
    return np.asarray(m2(y)) @ np.asarray(m1(x))


def test_the_composite_matrix_is_one_stacked_product_per_route(monkeypatch):
    f = angle_net(LINE, CIRCLE, lambda eps: (lambda t: 3.1 * t), tag="3.1t")
    g = embed_smooth(partial_sine(), "psin")
    t_chain = vbhom_compose(tangent(g), tangent(f))
    m = t_chain.matrices_at(0.25)[("e0", "e0")]
    chained = t_chain.base_net.at(0.25).locals[("e0", "e0")]
    X = np.linspace(-2.0, 2.0, 41)[:, None]
    routes = []
    routed = gmap.ChainedLocalMap._routed
    monkeypatch.setattr(gmap.ChainedLocalMap, "_routed", lambda self, P, every=False: (
        routes.append(len(P)) or routed(self, P, every)))
    got = m.try_call(X)
    assert routes == [41]
    assert len(m.maps) == len(chained.routes)  # one stacked product per route
    mats1, mats2 = tangent(f).matrices_at(0.25), tangent(g).matrices_at(0.25)
    factors = [(mats1["e0", mid.id], mats2[mid.id, "e0"])
               for mid, _inner, _outer in chained.routes]
    for x, row in zip(X, got):
        same_bytes(row, ref_matrix(chained, factors, x))
        same_bytes(row, m(x))
    direct = tangent(compose(g, f)).matrices_at(0.25)[("e0", "e0")].try_call(X)
    assert np.max(np.abs(direct - got)) <= 1e-12


@pytest.mark.parametrize("k_max", [0, 2])
def test_composite_matrix_sups_at_eps_columns_match_one_eps_at_a_time(k_max, cfg):
    K = get_region("K_unit")
    nets = [(fresh("sigma_sin", c), fresh("sigma_tanh", c)) for c in (True, False)]
    got, want = (matrix_gap_series(vbhom_compose(tangent(g), tangent(f)), None, K, GRID, k_max,
                                   None, cfg) for g, f in nets)
    assert got and same_series(got, want)
