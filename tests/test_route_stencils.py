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
  through every source chart with a representative.
"""

import math

import numpy as np
import pytest
from test_kernels import ref_chained_derivs_upto, ref_route
from test_stacked_composites import gapped_chain

from mapnets import jets
from mapnets.asymptotics import EpsGrid, Status
from mapnets.gallery import get_atlas
from mapnets.gmap import MapNet, check_moderate, effective_reps, scalar_net
from mapnets.manifold import LocalMap, euclidean_multichart, region_box
from mapnets.vbundle import check_vbhom_moderate, tangent, vbhom_compose

LINE = get_atlas("line")
GRID = EpsGrid(0.5, 2, 12)


def one_chart_net(rep: LocalMap) -> MapNet:
    """Two-chart line -> line, with the representative ``rep`` out of 'left' only."""
    src = euclidean_multichart({"left": [(-2.0, 0.5)], "right": [(-0.5, 2.0)]}, name="two-line")
    return MapNet(src, LINE, lambda eps: {("left", "e0"): rep}, tag=rep.name)


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
