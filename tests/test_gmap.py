"""Map-net checks: c-boundedness, moderateness, equivalences, composition.

Oracles: the jump profile's derivative sup has the closed form
(1+eps)(1+1/eps)/2 at 0; additive defects have known decay orders; composed
nets have closed-form composites.
"""

import math

import numpy as np
import pytest

from mapnets import jets
from mapnets.asymptotics import Status
from mapnets.config import Config
from mapnets.exprs import smoothed_step, step_slope_sup
from mapnets.gallery import get_atlas, get_net, get_region
from mapnets.gmap import (
    MapNet,
    check_cbounded,
    check_equiv,
    check_equiv0,
    check_moderate,
    check_single_chart,
    compose,
    derivative_sup_series,
    embed_smooth,
    scalar_net,
)
from mapnets.manifold import (
    LocalMap,
    Point,
    SmoothMap,
    euclidean_atlas,
    euclidean_multichart,
    region_box,
    sphere_atlas,
)

CFG = Config()
GRID = CFG.grid()
K_UNIT = get_region("K_unit")
PLANE = euclidean_atlas([(-10.0, 10.0), (-10.0, 10.0)], name="plane")
K_SQUARE = region_box("e0", [-1.0, -1.0], [1.0, 1.0], density=5)


def sphere_cap_net(tag, shift):
    """Sphere-valued net on the plane: latitude -0.2 + 0.75 x0 + shift(eps) (1 + x1^2),
    longitude 0.3 + x1, given in both stereographic charts (a two-chart 2-D target)."""

    def factory(eps):
        def embed(x):
            th, lon = -0.2 + 0.75 * x[0] + shift(eps) * (1.0 + x[1]**2), 0.3 + x[1]
            return math.cos(th) * math.cos(lon), math.cos(th) * math.sin(lon), math.sin(th)

        def north(x):
            a, b, z = embed(x)
            return np.array([a, b]) / (1.0 - z)

        def south(x):
            a, b, z = embed(x)
            return np.array([a, b]) / (1.0 + z)

        return {("e0", "north"): LocalMap(2, (2,), fn=north, name=f"{tag}:north"),
                ("e0", "south"): LocalMap(2, (2,), fn=south, name=f"{tag}:south")}

    return MapNet(PLANE, SPHERE, factory, tag=tag)


SPHERE = sphere_atlas()
SPHERE_NETS = {
    "sphere_cap": sphere_cap_net("sphere_cap", lambda eps: 0.0),
    "sphere_cap_flat": sphere_cap_net("sphere_cap_flat", lambda eps: math.exp(-1.0 / eps)),
    "sphere_cap_eps2": sphere_cap_net("sphere_cap_eps2", lambda eps: eps**2),
}


def k_slopes(verdict, k):
    return {lbl: v.estimate.slope for lbl, v in verdict.details.items()
            if lbl.startswith(f"k={k}|") and v.estimate is not None}


class TestCBounded:
    def test_eps_independent_map_passes(self):
        rep = check_cbounded(get_net("sigma_sin"), K_UNIT, GRID, CFG)
        assert rep.status is Status.PASS
        (cid, box), = rep.K_image.pieces
        assert cid == "e0"
        assert box.lo[0] <= -math.sin(1.0) and box.hi[0] >= math.sin(1.0)
        assert box.lo[0] > -1.5 and box.hi[0] < 1.5  # padded, not inflated

    def test_boundary_escape_fails(self):
        rep = check_cbounded(get_net("epsilon_into_0_2"), K_UNIT, GRID, CFG)
        assert rep.status is Status.FAIL
        assert rep.witness is not None
        # witness point hugs the lower boundary of (0,2)
        assert float(rep.witness.location.coords[0]) < 0.01

    def test_circle_jump_passes(self):
        rep = check_cbounded(get_net("s1_jump"), K_UNIT, GRID, CFG)
        assert rep.status is Status.PASS


class TestModerate:
    def test_smooth_embedding_n0(self):
        v = check_moderate(get_net("sigma_sin"), K_UNIT, GRID, cfg=CFG)
        assert v.status is Status.PASS
        assert v.estimate.n_or_m == 0
        for slope in k_slopes(v, 1).values():
            assert abs(slope) < 0.05

    def test_jump_first_derivative_slope(self):
        v = check_moderate(get_net("s1_jump"), K_UNIT, GRID, cfg=CFG)
        assert v.status is Status.PASS
        slopes = k_slopes(v, 1)
        assert min(slopes.values()) == pytest.approx(-1.0, abs=0.1)

    def test_jump_sup_matches_closed_form(self):
        # lattice contains the argmax x=0, so the sampled sup is exact
        u = get_net("s1_jump")
        sups = derivative_sup_series(u, K_UNIT, GRID, 1, None, CFG)
        key = next(k for k in sups if k[2] == "ang0" and k[3] == 1)
        s = sups[key]
        oracle = np.array([math.pi * step_slope_sup(e) for e in s.eps])
        assert np.max(np.abs(s.sup - oracle) / oracle) < 1e-12

    def test_transformed_counterexample_fails(self):
        from mapnets.asymptotics import judge_moderate
        from mapnets.errors import ChartEscape

        u = get_net("epsilon_into_0_2")
        psi = SmoothMap(get_atlas("interval02"), get_atlas("halfline_exp"),
                        {("e0", "e0"): LocalMap.from_expr(lambda y: jets.exp(1.0 / y))},
                        name="exp_recip")
        transformed = compose(embed_smooth(psi), u)
        # below eps = 2^-9 the values overflow past every chart
        with pytest.raises(ChartEscape):
            check_cbounded(transformed, K_UNIT, GRID, CFG)
        # the chart-growth series itself fails moderateness catastrophically
        sups = derivative_sup_series(transformed, K_UNIT, GRID, 0, None, CFG)
        (series,) = sups.values()
        v = judge_moderate(series, CFG.n_cap, CFG.r2_min)
        assert v.status is Status.FAIL
        assert v.estimate.slope < -50.0

    def test_cbounded_failure_propagates(self):
        v = check_moderate(get_net("epsilon_into_0_2"), K_UNIT, GRID, cfg=CFG)
        assert v.status is Status.FAIL
        assert "c-bounded" in v.notes


class TestEquiv0:
    def test_identical_nets(self):
        u = get_net("sigma_sin")
        v = check_equiv0(u, u, K_UNIT, None, GRID, CFG)
        assert v.status is Status.PASS

    def test_flat_defect_passes(self):
        v = check_equiv0(get_net("sigma_sin"), get_net("sin_plus_flat"),
                         K_UNIT, None, GRID, CFG)
        assert v.status is Status.PASS
        assert v.details["metric"].status is Status.PASS
        assert v.details["chart"].status is Status.PASS

    def test_power_defect_fails_with_order(self):
        v = check_equiv0(get_net("sigma_sin"), get_net("sin_plus_eps2"),
                         K_UNIT, None, GRID, CFG)
        assert v.status is Status.FAIL
        assert v.estimate.slope == pytest.approx(2.0, abs=0.05)


class TestEquiv:
    def test_identical_nets(self):
        u = get_net("s1_jump")
        assert check_equiv(u, u, [K_UNIT], GRID, CFG.k_max, CFG).status is Status.PASS

    def test_circle_flat_defect_all_orders(self):
        v = check_equiv(get_net("s1_jump"), get_net("s1_jump_flat"),
                        [K_UNIT], GRID, CFG.k_max, CFG)
        assert v.status is Status.PASS

    def test_eps_bump_defect_fails_order_one(self):
        v = check_equiv(get_net("s1_jump"), get_net("s1_jump_eps_bump"),
                        [K_UNIT], GRID, CFG.k_max, CFG)
        assert v.status is Status.FAIL
        assert v.estimate.slope == pytest.approx(1.0, abs=0.1)


class TestSingleChart:
    def test_euclidean_target_trivial(self):
        rep = check_single_chart(get_net("sigma_sin"), K_UNIT, GRID, CFG)
        assert rep.status is Status.PASS
        assert rep.chart == "e0"

    def test_jump_fits_one_angle_chart(self):
        # closed-form bound: |profile| <= (1+eps)(tanh 1 + 1)/2 < 1 for small eps
        for eps in (2.0**-5, 2.0**-8):
            bound = 0.5 * (1 + eps) * (math.tanh(1.0) + 1.0)
            assert bound < 1.0
        rep = check_single_chart(get_net("s1_jump"), K_UNIT, GRID, CFG)
        assert rep.status is Status.PASS
        assert rep.chart == "ang0"
        assert rep.eps0 is not None and rep.eps0 <= 0.25

    def test_winding_net_fails(self):
        rep = check_single_chart(get_net("winder"), get_region("K_half"), GRID, CFG)
        assert rep.status is Status.FAIL


class TestCompose:
    def test_pointwise_agreement(self):
        f = get_net("sigma_sin")
        g = get_net("sigma_tanh")
        comp = compose(g, f)
        for eps in (0.25, 2.0**-8):
            for x in np.linspace(-1, 1, 9):
                got = comp.eval(eps, Point("e0", [x]))
                assert got.coords[0] == pytest.approx(math.tanh(math.sin(x)), abs=1e-10)

    def test_shifted_square_closed_form(self):
        line = get_atlas("line")
        u = scalar_net(line, line, lambda eps: (lambda t, e=eps: t + e), tag="shift")
        v = scalar_net(line, line, lambda eps: (lambda t: t * t), tag="square")
        comp = compose(v, u)
        for eps in GRID.values():
            got = comp.eval(eps, Point("e0", [0.7]))
            assert got.coords[0] == pytest.approx((0.7 + eps) ** 2, abs=1e-10)

    def test_jump_composed_with_height_is_moderate(self):
        # smooth circle -> R height function applied after the jump net:
        # the composite is sin(pi * profile), moderate with slope -1 at k=1
        circle = get_atlas("circle")
        line = get_atlas("line")
        height = SmoothMap(circle, line,
                           {("ang0", "e0"): LocalMap.from_expr(lambda t: jets.sin(t)),
                            ("angpi", "e0"): LocalMap.from_expr(
                                lambda t: -jets.sin(t))},  # sin(t+pi) = -sin t
                           name="height")
        comp = compose(embed_smooth(height), get_net("s1_jump"))
        v = check_moderate(comp, K_UNIT, GRID, cfg=CFG)
        assert v.status is Status.PASS
        for eps in (0.25, 2.0**-6):
            x = 0.3
            got = comp.eval(eps, Point("e0", [x]))
            expect = math.sin(math.pi * smoothed_step(eps)(x))
            assert got.coords[0] == pytest.approx(expect, abs=1e-10)

    def test_provenance_stamp(self):
        comp = compose(get_net("sigma_tanh"), get_net("sigma_sin"), K=K_UNIT,
                       grid=GRID, cfg=CFG)
        assert comp.provenance["single_chart"]["status"] == "Pass"

    def test_chart_mismatch(self):
        from mapnets.errors import ChartMismatch

        with pytest.raises(ChartMismatch):
            compose(get_net("sigma_sin"), get_net("s1_jump"))


class TestStructuralInvariants:
    def test_full_atlas_vs_identity_chart_concordance(self):
        # same net over a 1-chart and an overlapping 2-chart euclidean source
        one = euclidean_atlas([(-3.0, 3.0)], name="one")
        two = euclidean_multichart({"c0": [(-3.0, 1.0)], "c1": [(-1.0, 3.0)]},
                                   name="two")
        for expr in (lambda eps: (lambda t: jets.sin(t)), smoothed_step):
            u1 = scalar_net(one, one, expr, tag="u1")
            u2 = scalar_net(two, two, expr, tag="u2")
            K1 = region_box("e0", [-0.9], [0.9])
            K2 = region_box("c0", [-0.9], [0.9])
            v1 = check_moderate(u1, K1, GRID, cfg=CFG)
            v2 = check_moderate(u2, K2, GRID, cfg=CFG)
            assert v1.status is v2.status

    def test_redundant_chart_never_flips_pass(self):
        # adding a compatible chart to the source atlas keeps the verdicts
        base = euclidean_atlas([(-10.0, 10.0)], name="base")
        redundant = euclidean_multichart({"e0": [(-10.0, 10.0)],
                                          "extra": [(-2.0, 2.0)]}, name="redundant")
        for expr in (lambda eps: (lambda t: jets.sin(t)), smoothed_step):
            ub = scalar_net(base, base, expr, tag="ub")
            ur = scalar_net(redundant, redundant, expr, tag="ur")
            vb = check_moderate(ub, region_box("e0", [-1], [1]), GRID, cfg=CFG)
            vr = check_moderate(ur, region_box("e0", [-1], [1]), GRID, cfg=CFG)
            assert vb.status is Status.PASS
            assert vr.status is Status.PASS

    @pytest.mark.parametrize("pair", [
        ("sigma_sin", "sin_plus_flat"),
        ("sigma_sin", "sin_plus_eps2"),
        ("s1_jump", "s1_jump_flat"),
        ("s1_jump", "s1_jump_eps_bump"),
        ("sphere_cap", "sphere_cap_flat"),
        ("sphere_cap", "sphere_cap_eps2"),
    ])
    def test_metric_and_chart_routes_agree(self, pair):
        if pair[0] in SPHERE_NETS:
            v = check_equiv0(SPHERE_NETS[pair[0]], SPHERE_NETS[pair[1]], K_SQUARE, None,
                             GRID, CFG)
            assert v.status is (Status.PASS if pair[1].endswith("flat") else Status.FAIL)
            # both stereographic charts carry chart-route parts
            assert {lbl.split("->")[-1] for lbl in v.details["chart"].details
                    if lbl.startswith("k=0")} == {"north", "south"}
        else:
            v = check_equiv0(get_net(pair[0]), get_net(pair[1]), K_UNIT, None, GRID, CFG)
        assert v.details["metric"].status is v.details["chart"].status

    @pytest.mark.parametrize("pair", [
        ("sigma_sin", "sin_plus_flat"),
        ("s1_jump", "s1_jump_flat"),
    ])
    def test_full_equivalence_implies_order_zero(self, pair):
        u, v = get_net(pair[0]), get_net(pair[1])
        if check_equiv(u, v, [K_UNIT], GRID, CFG.k_max, CFG).status is Status.PASS:
            assert check_equiv0(u, v, K_UNIT, None, GRID, CFG).status is Status.PASS

    @pytest.mark.parametrize("pair", [
        ("sigma_sin", "sin_plus_flat"),
        ("sigma_tanh", "sigma_tanh"),
        ("s1_jump", "s1_jump_flat"),
    ])
    def test_order_zero_upgrades_under_single_chart(self, pair):
        # with the single-chart condition in force, order-0 equivalence
        # upgrades to full equivalence
        u, v = get_net(pair[0]), get_net(pair[1])
        assert check_single_chart(u, K_UNIT, GRID, CFG).status is Status.PASS
        if check_equiv0(u, v, K_UNIT, None, GRID, CFG).status is Status.PASS:
            assert check_equiv(u, v, [K_UNIT], GRID, CFG.k_max, CFG).status is Status.PASS

    def test_embedding_injective_up_to_equivalence(self):
        v = check_equiv0(get_net("sigma_sin"), get_net("sigma_tanh"),
                         K_UNIT, None, GRID, CFG)
        assert v.status is Status.FAIL

    def test_composition_compatible_with_embedding(self):
        line = get_atlas("line")
        f = get_net("sigma_sin")
        g = get_net("sigma_tanh")
        direct = scalar_net(line, line,
                            lambda eps: (lambda t: jets.tanh(jets.sin(t))),
                            tag="tanh_o_sin")
        v = check_equiv(compose(g, f), direct, [K_UNIT], GRID, CFG.k_max, CFG)
        assert v.status is Status.PASS
