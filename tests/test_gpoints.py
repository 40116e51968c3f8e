"""Generalized points: equality, evaluation, separating witnesses.

Derived expectations come from closed forms: mean-value bounds for shifted
arguments, Taylor expansion for the eps-shift defect order.
"""

import math

import numpy as np
import pytest

from mapnets.asymptotics import Status
from mapnets.config import Config
from mapnets.errors import SupportEscape
from mapnets.gallery import get_atlas, get_net, get_region
from mapnets.gmap import check_equiv, check_equiv0
from mapnets.gpoints import (
    GenNumber,
    GenPoint,
    argmax_net,
    eval_at,
    gennumbers_equal,
    points_equal,
    separate_by_points,
)
from mapnets.manifold import Point, region_box

CFG = Config()
GRID = CFG.grid()
LINE = get_atlas("line")
SUPPORT = region_box("e0", [-0.5], [0.5])


def flat_point(tag="p_flat"):
    return GenPoint.from_fn(LINE, lambda eps: Point("e0", [math.exp(-1.0 / eps)]),
                            SUPPORT, tag=tag)


def power_point(a, tag=""):
    return GenPoint.from_fn(LINE, lambda eps: Point("e0", [eps**a]), SUPPORT,
                            tag=tag or f"p_eps{a}")


class TestPointsEqual:
    def test_same_net_reflexive(self):
        p = GenPoint.constant(LINE, Point("e0", [0.2]))
        assert points_equal(p, p, grid=GRID, cfg=CFG).status is Status.PASS

    def test_flat_shift_passes(self):
        zero = GenPoint.constant(LINE, Point("e0", [0.0]))
        v = points_equal(zero, flat_point(), grid=GRID, cfg=CFG)
        assert v.status is Status.PASS

    def test_power_shift_fails(self):
        zero = GenPoint.constant(LINE, Point("e0", [0.0]))
        v = points_equal(zero, power_point(2), grid=GRID, cfg=CFG)
        assert v.status is Status.FAIL
        assert v.estimate.slope == pytest.approx(2.0, abs=0.05)

    def test_symmetric(self):
        zero = GenPoint.constant(LINE, Point("e0", [0.0]))
        q = flat_point()
        a = points_equal(zero, q, grid=GRID, cfg=CFG).status
        b = points_equal(q, zero, grid=GRID, cfg=CFG).status
        assert a is b

    def test_transitive_on_sampled_triples(self):
        p = GenPoint.constant(LINE, Point("e0", [0.0]))
        q = flat_point("q")
        r = GenPoint.from_fn(LINE,
                             lambda eps: Point("e0", [2 * math.exp(-1.0 / eps)]),
                             SUPPORT, tag="r")
        assert points_equal(p, q, grid=GRID, cfg=CFG).status is Status.PASS
        assert points_equal(q, r, grid=GRID, cfg=CFG).status is Status.PASS
        assert points_equal(p, r, grid=GRID, cfg=CFG).status is Status.PASS

    def test_routes_agree_on_gallery_cases(self):
        zero = GenPoint.constant(LINE, Point("e0", [0.0]))
        for q in (flat_point(), power_point(2), power_point(1)):
            v = points_equal(zero, q, grid=GRID, cfg=CFG)
            chart = v.details["chart"].status
            if chart is not Status.INCONCLUSIVE:
                assert chart is v.details["metric"].status

    def test_circle_points_across_charts(self):
        circ = get_atlas("circle")
        supp = region_box("ang0", [1.5], [2.5])
        p = GenPoint.from_fn(circ, lambda eps: Point("ang0", [2.0]), supp, tag="a")
        q = GenPoint.from_fn(circ, lambda eps: Point("angpi", [2.0 - math.pi]), supp,
                             tag="b")  # same manifold point, other chart
        assert points_equal(p, q, grid=GRID, cfg=CFG).status is Status.PASS


class TestEvalAt:
    def test_constant_point_constant_image(self):
        u = get_net("sigma_sin")
        p = GenPoint.constant(LINE, Point("e0", [0.4]))
        q = eval_at(u, p, GRID, CFG)
        for eps in GRID.values():
            assert q.at(eps).coords[0] == pytest.approx(math.sin(0.4), abs=1e-14)

    def test_flat_shift_evaluates_equal(self):
        # mean value: |sin(1+d) - sin 1| <= d, so a flat shift stays negligible
        u = get_net("sigma_sin")
        p = GenPoint.from_fn(LINE,
                             lambda eps: Point("e0", [1.0 + math.exp(-1.0 / eps)]),
                             region_box("e0", [0.5], [1.5]), tag="p1")
        target = GenPoint.constant(LINE, Point("e0", [math.sin(1.0)]))
        v = points_equal(eval_at(u, p, GRID, CFG), target, grid=GRID, cfg=CFG)
        assert v.status is Status.PASS

    def test_eps_shift_evaluates_unequal_order_one(self):
        # Taylor: sin(1+eps) - sin 1 = eps cos 1 + O(eps^2), defect order 1
        u = get_net("sigma_sin")
        p = GenPoint.from_fn(LINE, lambda eps: Point("e0", [1.0 + eps]),
                             region_box("e0", [0.5], [1.5]), tag="p2")
        target = GenPoint.constant(LINE, Point("e0", [math.sin(1.0)]))
        v = points_equal(eval_at(u, p, GRID, CFG), target, grid=GRID, cfg=CFG)
        assert v.status is Status.FAIL
        assert v.estimate.slope == pytest.approx(1.0, abs=0.1)

    def test_support_escape(self):
        u = get_net("epsilon_into_0_2")
        p = GenPoint.constant(LINE, Point("e0", [0.0]))
        with pytest.raises(SupportEscape):
            eval_at(u, p, GRID, CFG)

    def test_image_support_contains_values(self):
        u = get_net("s1_jump")
        p = GenPoint.constant(LINE, Point("e0", [0.5]))
        q = eval_at(u, p, GRID, CFG)
        for eps in GRID.values()[GRID.mid_index:]:
            assert q.support.contains(q.at(eps), u.dst)


class TestSeparateByPoints:
    def test_equal_nets_absent(self):
        u = get_net("sigma_sin")
        assert separate_by_points(u, u, get_region("K_unit"), GRID, 0, CFG) is None

    def test_power_defect_witnessed(self):
        u, v = get_net("sigma_sin"), get_net("sin_plus_eps2")
        w = separate_by_points(u, v, get_region("K_unit"), GRID, 0, CFG)
        assert w is not None
        pe = points_equal(eval_at(u, w, GRID, CFG), eval_at(v, w, GRID, CFG),
                          grid=GRID, cfg=CFG)
        assert pe.status is Status.FAIL
        assert pe.estimate.slope == pytest.approx(2.0, abs=0.1)

    def test_bump_defect_witness_inside_support(self):
        u, v = get_net("s1_jump"), get_net("s1_jump_eps_bump")
        w = separate_by_points(u, v, get_region("K_unit"), GRID, 0, CFG)
        assert w is not None
        # defect is supported on the bump (center 0.25, width 0.4)
        for eps in GRID.values()[-5:]:
            x = float(w.at(eps).coords[0])
            assert -0.15 <= x <= 0.65

    def test_absent_iff_order_zero_equivalent(self):
        K = get_region("K_unit")
        pairs = [("sigma_sin", "sin_plus_flat"), ("sigma_sin", "sin_plus_eps2"),
                 ("s1_jump", "s1_jump_flat"), ("s1_jump", "s1_jump_eps_bump")]
        for a, b in pairs:
            u, v = get_net(a), get_net(b)
            eq = check_equiv0(u, v, K, None, GRID, CFG)
            w = separate_by_points(u, v, K, GRID, 0, CFG)
            assert (w is None) == (eq.status is Status.PASS)


class TestArgmaxNet:
    PTS = [Point("e0", [x]) for x in (-0.2, 0.0, 0.2)]

    def argmax_coords(self, values):
        value_of = {id(p): v for p, v in zip(self.PTS, values)}
        net = argmax_net(LINE, SUPPORT, self.PTS, GRID, lambda eps, p: value_of[id(p)])
        return {float(net.at(eps).coords[0]) for eps in GRID.values()}

    def test_near_tie_breaks_to_lower_index(self):
        assert self.argmax_coords([0.0, 1e-3, 1e-3 + 1e-16]) == {0.0}

    def test_clear_improvement_moves_argmax(self):
        assert self.argmax_coords([0.0, 1e-3, 1e-3 + 1e-14]) == {0.2}

    def test_all_nan_defaults_to_first_point(self):
        assert self.argmax_coords([math.nan] * 3) == {-0.2}


class TestRepresentativeIndependence:
    def test_equal_inputs_equal_outputs(self):
        u, v = get_net("sigma_sin"), get_net("sin_plus_flat")
        assert check_equiv(u, v, [get_region("K_unit")], GRID, CFG.k_max,
                           CFG).status is Status.PASS
        p = GenPoint.constant(LINE, Point("e0", [0.3]), tag="p")
        q = GenPoint.from_fn(LINE,
                             lambda eps: Point("e0", [0.3 + math.exp(-2.0 / eps)]),
                             region_box("e0", [0.0], [0.6]), tag="q")
        assert points_equal(p, q, grid=GRID, cfg=CFG).status is Status.PASS
        v1 = eval_at(u, p, GRID, CFG)
        v2 = eval_at(v, q, GRID, CFG)
        assert points_equal(v1, v2, grid=GRID, cfg=CFG).status is Status.PASS


class TestGenNumber:
    def test_arithmetic_pointwise(self):
        a = GenNumber(lambda eps: eps, tag="eps")
        b = GenNumber.constant(2.0)
        c = a * b + 1.0
        assert c(0.25) == pytest.approx(1.5)

    def test_moderate_bound_recorded_not_enforced(self):
        wild = GenNumber(lambda eps: math.exp(1 / eps) if eps > 0.01 else math.inf,
                         tag="wild")
        assert wild.moderate_bound is None
        wild.record_moderate(GRID, CFG)
        assert wild.moderate_bound is not None  # recorded, even though huge

    def test_equality_by_negligible_difference(self):
        a = GenNumber(lambda eps: 1.0 + math.exp(-1.0 / eps))
        b = GenNumber.constant(1.0)
        assert gennumbers_equal(a, b, GRID, CFG).status is Status.PASS
        c = GenNumber(lambda eps: 1.0 + eps)
        assert gennumbers_equal(c, b, GRID, CFG).status is Status.FAIL


class TestSerialization:
    def test_genpoint_record_shape(self):
        p = GenPoint.constant(LINE, Point("e0", [0.25]))
        rec = p.as_record(GRID)
        assert set(rec) == {"support", "samples"}
        assert len(rec["samples"]) == len(GRID)
        s0 = rec["samples"][0]
        assert set(s0) == {"eps", "chart", "coords"}
