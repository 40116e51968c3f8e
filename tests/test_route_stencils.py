"""A stencil row follows its root's route.

A chained representative admits a row by the first route that takes it
(``ChainedLocalMap._routed``) and differentiates the row along that route's
own map, on the grid of the row, as a plain map's stencil ignores its
``defined``.  The grid of a root just inside a route's middle chart leaves
the chart; the checks below must still return a verdict there:

- (a) a two-chart line whose net has representatives out of one chart only,
  swept over a region of the other chart whose last lattice point is 1e-5
  inside the overlap;
- (b) a composite of tangent maps whose middle points come 1e-5 close to the
  edge of the middle chart;
- (c) a root 1e-5 inside a route of ``gapped_chain``;
- (d) a net with representatives out of two charts, swept over a region of a
  third that overlaps only the second: each target's chained map routes
  through every source chart with a representative;
- (e) the gap of two such nets, of two composite tangent maps and of the
  tangent maps of two composites: each row of the gap is differenced along
  the routes its root takes in both operands, so every sup is finite.
"""

import math

import numpy as np
import pytest
from test_kernels import ref_chained_derivs_upto, ref_route
from test_stacked_composites import gapped_chain

from mapnets import jets
from mapnets.asymptotics import EpsGrid, Status
from mapnets.gallery import get_atlas
from mapnets.gmap import (
    MapNet,
    check_equiv,
    check_moderate,
    compose,
    effective_reps,
    scalar_net,
)
from mapnets.manifold import LocalMap, euclidean_multichart, region_box
from mapnets.vbundle import check_vbhom_equiv, check_vbhom_moderate, tangent, vbhom_compose

LINE = get_atlas("line")
GRID = EpsGrid(0.5, 2, 12)


def left_net(rep_at, tag: str) -> MapNet:
    """Two-chart line -> line, with the representative ``rep_at(eps)`` out of 'left' only."""
    src = euclidean_multichart({"left": [(-2.0, 0.5)], "right": [(-0.5, 2.0)]}, name="two-line")
    return MapNet(src, LINE, lambda eps: {("left", "e0"): rep_at(eps)}, tag=tag)


def one_chart_net(rep: LocalMap) -> MapNet:
    return left_net(lambda eps: rep, rep.name)


ONE_CHART_REPS = {
    "fn sin": lambda: LocalMap(1, (1,), fn=np.sin, name="sin-fn"),
    "expr t^2": lambda: LocalMap.from_expr(lambda t: t * t, name="square-expr"),
}
K_RIGHT = region_box("right", [-0.4], [0.5 - 1e-5], density=5)


@pytest.mark.parametrize("k_max", [2, 3])
@pytest.mark.parametrize("label", sorted(ONE_CHART_REPS))
def test_a_chained_representative_near_its_middle_chart_edge_is_moderate(label, k_max, cfg):
    u = one_chart_net(ONE_CHART_REPS[label]())
    v = check_moderate(u, K_RIGHT, GRID, k_max, cfg)
    assert v.status is Status.PASS, v


def test_its_tangent_map_is_moderate(cfg):
    u = one_chart_net(ONE_CHART_REPS["fn sin"]())
    v = check_vbhom_moderate(tangent(u), K_RIGHT, GRID, 2, cfg)
    assert v.status is Status.PASS, v


@pytest.mark.parametrize("k_max", [1, 2])
def test_a_composite_tangent_map_near_the_middle_chart_edge_is_moderate(k_max, cfg):
    interval = get_atlas("interval02")
    f = scalar_net(LINE, interval, lambda eps: (lambda t: 1.0 + t), tag="1+t")
    g = scalar_net(interval, LINE, lambda eps: jets.sin, tag="sin")
    K = region_box("e0", [-0.99999], [0.5], density=5)
    v = check_vbhom_moderate(vbhom_compose(tangent(g), tangent(f)), K, GRID, k_max, cfg)
    assert v.status is Status.PASS, v


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_a_root_just_inside_a_route_takes_its_tensors_along_that_route(k):
    cm = gapped_chain()
    x = np.array([-1.0 + 1e-5])
    assert ref_route(cm, x)[0] == 1  # the chain of plain fn maps
    got = cm.derivs_upto(x, k)
    for t, want in zip(got, ref_chained_derivs_upto(cm, x, k), strict=True):
        assert np.isfinite(t).all()
        np.testing.assert_array_equal(t, want)
    d1 = 2.0 * math.cos(2.0 * x[0]) + 2.0 * x[0]  # sin 2t + t^2
    if k >= 1:
        assert abs(got[1].item() - d1) <= 1e-9


def three_chart_net() -> MapNet:
    """t -> t^2 out of 'a' and 'z'; 'm' overlaps 'a' left of -0.4, 'z' right of 0.4."""
    src = euclidean_multichart({"a": [(-3.0, -0.4)], "m": [(-1.0, 1.0)], "z": [(0.4, 3.0)]},
                               name="three-line")
    square = LocalMap.from_expr(lambda t: t * t, name="square")
    return MapNet(src, LINE, lambda eps: {("a", "e0"): square, ("z", "e0"): square},
                  tag="square")


def test_each_target_routes_through_every_source_chart():
    u = three_chart_net()
    cm = effective_reps(u.at(0.5), "m")["e0"]
    assert [mid.id for mid, _inner, _outer in cm.routes] == ["a", "z"]
    X = np.array([[-0.7], [0.0], [0.7]])
    np.testing.assert_array_equal(cm.try_call(X), np.where(X == 0.0, math.nan, X * X))


@pytest.mark.parametrize("k_max", [0, 1, 2])
def test_a_region_reached_through_the_second_source_chart_is_moderate(k_max, cfg):
    K = region_box("m", [0.5], [0.9], density=5)
    v = check_moderate(three_chart_net(), K, GRID, k_max, cfg)
    assert v.status is Status.PASS, v


def all_series(v):
    """The series of a verdict and of all its parts, nested ones included."""
    yield from [] if v.series is None else [v.series]
    for part in v.details.values():
        yield from all_series(part)


def assert_finite_sups(v):
    series = list(all_series(v))
    assert series
    for s in series:
        assert np.isfinite(s.sup).all(), (s.context, s.sup)


def sin_plus(eps: float) -> LocalMap:
    tail = math.exp(-1.0 / eps)
    return LocalMap(1, (1,), fn=lambda x: np.sin(x) + tail, name="sin-plus-fn")


def test_the_gap_of_two_chained_representatives_is_finite(cfg):
    u = one_chart_net(ONE_CHART_REPS["fn sin"]())
    v = left_net(sin_plus, "sin+exp(-1/eps)")
    assert_finite_sups(check_equiv(u, v, K_RIGHT, GRID, 2, cfg))


def sin_nets():
    """1 + t from the line into the interval (0, 2), and sin and sin + e^(-1/eps)
    back out of it, as plain-fn nets."""
    interval = get_atlas("interval02")
    f = scalar_net(LINE, interval, lambda eps: (lambda t: 1.0 + t), tag="1+t")
    g = MapNet(interval, LINE, lambda eps: {("e0", "e0"): LocalMap(1, (1,), fn=np.sin)},
               tag="sin")
    g2 = MapNet(interval, LINE, lambda eps: {("e0", "e0"): sin_plus(eps)}, tag="sin+")
    return f, g, g2


K_EDGE = region_box("e0", [-0.99999], [0.5], density=5)


def test_the_gap_of_two_composite_tangent_maps_is_finite(cfg):
    f, g, g2 = sin_nets()
    v = check_vbhom_equiv(vbhom_compose(tangent(g), tangent(f)),
                          vbhom_compose(tangent(g2), tangent(f)), K_EDGE, GRID, 2, cfg=cfg)
    assert_finite_sups(v)


def test_the_gap_of_the_tangent_maps_of_two_composites_is_finite(cfg):
    """A derivative map's rows are owned by its parent's owners' derivative maps."""
    f, g, g2 = sin_nets()
    v = check_vbhom_equiv(tangent(compose(g, f)), tangent(compose(g2, f)), K_EDGE, GRID, 2,
                          cfg=cfg)
    assert_finite_sups(v)


def test_round_off_in_a_negligible_gap_does_not_fail(cfg):
    """sin against sin + e^(-1/eps), both plain fn maps out of 'left': the k = 2
    gap is finite-difference round-off (3.2e-10, 4.5e-13, 1.7e-12, 1.6e-12,
    then exact zeros, as the gap is constant in x), which a negligibility
    judge must not Fail."""
    u = left_net(lambda eps: LocalMap(1, (1,), fn=np.sin, name="sin-fn"), "sin")
    v = left_net(lambda eps: LocalMap(1, (1,), fn=lambda x, c=math.exp(-1.0 / eps): np.sin(x) + c,
                                      name="sin-flat-fn"), "sin_flat")
    verdict = check_equiv(u, v, region_box("left", [-0.4], [0.4], density=5), GRID, 2, cfg)
    assert verdict.details["k=2|K0[0]|left->e0"].status is not Status.FAIL
    assert verdict.status is not Status.FAIL
