"""vb-homomorphism nets, tangent maps, vb-points, sections, tensors.

Matrix-part oracles come from closed-form Jacobians (cos x for the sine
embedding, the jump profile slope for the circle jump); module-structure
invariants are exact per-eps linear algebra.
"""

import math

import numpy as np
import pytest

from mapnets import jets
from mapnets.asymptotics import Status, judge_moderate, sweep_sups
from mapnets.config import Config
from mapnets.errors import BaseMismatch, SingleChartMissing, TypeMismatch
from mapnets.exprs import step_slope_sup
from mapnets.gallery import get_atlas, get_net, get_region
from mapnets.gmap import check_equiv, check_moderate, compose, sample_points, scalar_net
from mapnets.gpoints import GenNumber, GenPoint, argmax_net, gennumbers_equal, points_equal
from mapnets.manifold import (
    BundleElement,
    LocalMap,
    Point,
    fiber_norm,
    region_box,
    tangent_bundle,
    trivial_bundle,
)
from mapnets.vbundle import (
    SectionNet,
    TensorSectionNet,
    VBHomNet,
    VBLocal,
    VBPoint,
    align_representative,
    check_section_moderate,
    check_vbhom_equiv,
    check_vbhom_moderate,
    fiber_combine,
    identity_vbhom,
    section_eval,
    section_norm_series,
    section_zero_witness,
    tangent,
    tangent_norm_series,
    tensor_insert,
    vbhom_compose,
    vbhom_eval,
    vbpoints_equal,
    zero_vbpoint_over,
)

CFG = Config()
GRID = CFG.grid()
LINE = get_atlas("line")
K_UNIT = get_region("K_unit")
R_BUNDLE = trivial_bundle(LINE, 1)


def scaled_identity_vbhom(scale_of_eps, tag):
    """R-bundle endomorphism with matrix part scale(eps) * Id over identity."""

    def factory(eps):
        s = scale_of_eps(eps)
        base = LocalMap(1, (1,), fn=lambda x: x, jac=lambda x: np.eye(1), name="id")
        mat = LocalMap(1, (1, 1), fn=lambda x, s=s: np.array([[s]]), name="scale")
        return {("e0", "e0"): VBLocal(base, mat)}

    return VBHomNet(R_BUNDLE, R_BUNDLE, factory, tag=tag)


def const_section(value_of_eps, tag):
    def coeffs(eps):
        v = value_of_eps(eps)
        return {"e0": LocalMap(1, (1,), fn=lambda x, v=v: np.array([v]))}

    return SectionNet(R_BUNDLE, coeffs, tag=tag)


class TestVBHomModerate:
    def test_tangent_of_identity_embedding(self):
        line = LINE
        ident = scalar_net(line, line, lambda eps: (lambda t: t), tag="id")
        v = check_vbhom_moderate(tangent(ident), K_UNIT, GRID, CFG.k_max, CFG)
        assert v.status is Status.PASS
        assert v.estimate.n_or_m == 0

    def test_tangent_of_step_matrix_slope(self):
        tu = tangent(get_net("heaviside_tanh"))
        v = check_vbhom_moderate(tu, K_UNIT, GRID, CFG.k_max, CFG)
        assert v.status is Status.PASS
        slopes = [d.estimate.slope for lbl, d in v.details.items()
                  if lbl.startswith("mat k=0") and d.estimate is not None]
        assert min(slopes) == pytest.approx(-1.0, abs=0.1)

    def test_matrix_blowup_fails(self):
        wild = scaled_identity_vbhom(
            lambda eps: math.exp(1.0 / eps) if 1.0 / eps < 700 else math.inf, "wild")
        v = check_vbhom_moderate(wild, K_UNIT, GRID, CFG.k_max, CFG)
        assert v.status is Status.FAIL

    def test_step_matrix_values_match_closed_form(self):
        tu = tangent(get_net("heaviside_tanh"))
        for eps in (0.25, 2.0**-6):
            M = tu.locals_at(eps)[("e0", "e0")].matrix(np.array([0.0]))
            assert M[0, 0] == pytest.approx(step_slope_sup(eps), rel=1e-12)


class TestVBHomEquiv:
    def test_identical(self):
        u = tangent(get_net("sigma_sin"))
        assert check_vbhom_equiv(u, u, K_UNIT, GRID, CFG.k_max,
                                 cfg=CFG).status is Status.PASS

    def test_flat_matrix_defect_passes(self):
        a = scaled_identity_vbhom(lambda eps: 1.0, "one")
        b = scaled_identity_vbhom(lambda eps: 1.0 + math.exp(-1.0 / eps), "one+flat")
        v = check_vbhom_equiv(a, b, K_UNIT, GRID, CFG.k_max, cfg=CFG)
        assert v.status is Status.PASS

    def test_power_matrix_defect_fails(self):
        a = scaled_identity_vbhom(lambda eps: 1.0, "one")
        b = scaled_identity_vbhom(lambda eps: 1.0 + eps, "one+eps")
        v = check_vbhom_equiv(a, b, K_UNIT, GRID, CFG.k_max, cfg=CFG)
        assert v.status is Status.FAIL

    def test_order0_variant(self):
        a = scaled_identity_vbhom(lambda eps: 1.0, "one")
        b = scaled_identity_vbhom(lambda eps: 1.0 + math.exp(-1.0 / eps), "one+flat")
        v = check_vbhom_equiv(a, b, K_UNIT, GRID, CFG.k_max, order0=True, cfg=CFG)
        assert v.status is Status.PASS


class TestTangent:
    def test_sine_jacobian_closed_form(self):
        tu = tangent(get_net("sigma_sin"))
        for x in np.linspace(-1, 1, 11):
            M = tu.locals_at(0.25)[("e0", "e0")].matrix(np.array([x]))
            assert M[0, 0] == pytest.approx(math.cos(x), abs=1e-8)

    def test_chain_rule_composite(self):
        f = get_net("sigma_tanh")
        g = get_net("sigma_sin")
        direct = tangent(compose(g, f))
        chained = vbhom_compose(tangent(g), tangent(f))
        for eps in (0.25, 2.0**-10):
            for x in np.linspace(-1, 1, 21):
                a = direct.locals_at(eps)[("e0", "e0")].matrix(np.array([x]))
                b = chained.locals_at(eps)[("e0", "e0")].matrix(np.array([x]))
                assert np.max(np.abs(a - b)) <= 1e-6

    def test_jump_tangent_slope(self):
        v = check_vbhom_moderate(tangent(get_net("s1_jump")), K_UNIT, GRID,
                                 CFG.k_max, CFG)
        assert v.status is Status.PASS
        slopes = [d.estimate.slope for lbl, d in v.details.items()
                  if lbl.startswith("mat k=0") and d.estimate is not None]
        assert min(slopes) == pytest.approx(-1.0, abs=0.1)

    def test_well_definedness_under_equivalence(self):
        u = get_net("s1_jump")
        v = get_net("s1_jump_flat")
        assert check_equiv(u, v, [K_UNIT], GRID, CFG.k_max, CFG).status is Status.PASS
        vv = check_vbhom_equiv(tangent(u), tangent(v), K_UNIT, GRID, CFG.k_max,
                               cfg=CFG)
        assert vv.status is Status.PASS

    def test_riemannian_norm_matches_chart_slope(self):
        for name in ("sigma_sin", "heaviside_tanh", "s1_jump", "winder"):
            u = get_net(name)
            K = get_region("K_half") if name == "winder" else K_UNIT
            ser = tangent_norm_series(u, K, GRID, CFG)
            v = judge_moderate(ser, CFG.n_cap, CFG.r2_min)
            assert v.status is Status.PASS, name
            mod = check_moderate(u, K, GRID, cfg=CFG)
            k1 = min(d.estimate.slope for lbl, d in mod.details.items()
                     if lbl.startswith("k=1|") and d.estimate is not None)
            assert abs(v.estimate.slope - k1) <= 0.3, name


class TestVBPoints:
    def test_reflexive(self):
        e = VBPoint.constant(R_BUNDLE, BundleElement("e0", [0.2], [1.0]))
        assert vbpoints_equal(e, e, GRID, CFG).status is Status.PASS

    def test_flat_fiber_defect_passes(self):
        supp = region_box("e0", [-0.5], [0.5])
        e1 = VBPoint(R_BUNDLE, lambda eps: BundleElement("e0", [0.0], [1.0]), supp)
        e2 = VBPoint(R_BUNDLE,
                     lambda eps: BundleElement("e0", [0.0],
                                               [1.0 + math.exp(-1.0 / eps)]), supp)
        assert vbpoints_equal(e1, e2, GRID, CFG).status is Status.PASS

    def test_constant_fiber_gap_fails(self):
        supp = region_box("e0", [-0.5], [0.5])
        e1 = VBPoint(R_BUNDLE, lambda eps: BundleElement("e0", [0.0], [1.0]), supp)
        e2 = VBPoint(R_BUNDLE, lambda eps: BundleElement("e0", [0.0], [1.5]), supp)
        assert vbpoints_equal(e1, e2, GRID, CFG).status is Status.FAIL

    def test_growth_estimate(self):
        supp = region_box("e0", [-0.5], [0.5])
        e = VBPoint(R_BUNDLE, lambda eps: BundleElement("e0", [0.0], [1.0 / eps]), supp)
        assert e.growth(GRID, CFG).slope == pytest.approx(-1.0, abs=0.05)


class TestAlignAndCombine:
    def test_align_identity_when_already_aligned(self):
        p = GenPoint.constant(LINE, Point("e0", [0.2]))
        e = VBPoint(R_BUNDLE, lambda eps: BundleElement("e0", [0.2], [3.0]), p.support)
        al = align_representative(e, p)
        for eps in (0.25, 2.0**-8):
            b = al.at(eps)
            assert b.x == pytest.approx([0.2]) and b.xi == pytest.approx([3.0])

    def test_align_flat_base_shift_trivial_bundle(self):
        supp = region_box("e0", [-0.5], [0.5])
        p = GenPoint.constant(LINE, Point("e0", [0.0]))
        e = VBPoint(R_BUNDLE,
                    lambda eps: BundleElement("e0", [math.exp(-1.0 / eps)], [2.0]),
                    supp)
        al = align_representative(e, p)
        assert al.at(0.01).x == pytest.approx([0.0])
        assert al.at(0.01).xi == pytest.approx([2.0])
        assert vbpoints_equal(e, al, GRID, CFG).status is Status.PASS

    def test_align_across_circle_charts(self):
        circ = get_atlas("circle")
        tm = tangent_bundle(circ)
        supp = region_box("ang0", [2.4], [2.8])
        # base stored near one chart edge, target point given in the other chart
        e = VBPoint(tm, lambda eps: BundleElement(
            "ang0", [2.6 + math.exp(-1.0 / eps)], [1.5]), supp)
        p = GenPoint.from_fn(circ, lambda eps: Point("angpi", [2.6 - math.pi]),
                             supp, tag="p")
        al = align_representative(e, p)
        assert vbpoints_equal(e, al, GRID, CFG).status is Status.PASS

    def test_combine_zero_coefficient(self):
        p = GenPoint.constant(LINE, Point("e0", [0.1]))
        e = VBPoint(R_BUNDLE, lambda eps: BundleElement("e0", [0.1], [2.0]), p.support)
        e2 = VBPoint(R_BUNDLE, lambda eps: BundleElement("e0", [0.1], [5.0]), p.support)
        c = fiber_combine(e, e2, GenNumber.constant(0.0))
        assert vbpoints_equal(c, e, GRID, CFG).status is Status.PASS

    def test_combine_additive_inverse_is_zero(self):
        e = VBPoint.constant(R_BUNDLE, BundleElement("e0", [0.1], [2.0]))
        c = fiber_combine(e, e, GenNumber.constant(-1.0))
        assert vbpoints_equal(c, zero_vbpoint_over(e), GRID, CFG).status is Status.PASS

    def test_combine_moderate_growth(self):
        supp = region_box("e0", [-0.5], [0.5])
        zero = VBPoint(R_BUNDLE, lambda eps: BundleElement("e0", [0.0], [0.0]), supp)
        small = VBPoint(R_BUNDLE, lambda eps: BundleElement("e0", [0.0], [eps**2]),
                        supp)
        r = GenNumber(lambda eps: 1.0 / eps, tag="1/eps")
        c = fiber_combine(zero, small, r)
        g = c.growth(GRID, CFG)
        assert g.slope == pytest.approx(1.0, abs=0.05)
        assert g.n_or_m == 0  # still vb-moderate

    def test_base_mismatch_raises(self):
        e = VBPoint.constant(R_BUNDLE, BundleElement("e0", [0.1], [1.0]))
        f = VBPoint.constant(R_BUNDLE, BundleElement("e0", [0.4], [1.0]))
        c = fiber_combine(e, f, GenNumber.constant(1.0))
        with pytest.raises(BaseMismatch):
            c.at(0.25)


class TestSections:
    def test_zero_section_evaluates_to_zero(self):
        s = const_section(lambda eps: 0.0, "zero")
        p = GenPoint.constant(LINE, Point("e0", [0.3]))
        out = section_eval(s, p, GRID, CFG)
        assert vbpoints_equal(out, zero_vbpoint_over(out), GRID,
                              CFG).status is Status.PASS

    def test_constant_section_at_moving_base(self):
        s = const_section(lambda eps: 2.5, "const")
        supp = region_box("e0", [-0.5], [0.5])
        p = GenPoint.from_fn(LINE, lambda eps: Point("e0", [eps]), supp, tag="pm")
        out = section_eval(s, p, GRID, CFG)
        for eps in GRID.values():
            b = out.at(eps)
            assert b.x == pytest.approx([eps]) and b.xi == pytest.approx([2.5])

    def test_blowup_section_outside_bump_support(self):
        def coeffs(eps):
            return {"e0": LocalMap.from_expr(
                lambda t, e=eps: (1.0 / e) * jets.bump(t, center=0.0, width=0.3))}

        s = SectionNet(R_BUNDLE, coeffs, tag="spike")
        p = GenPoint.constant(LINE, Point("e0", [2.0]), tag="far")
        out = section_eval(s, p, GRID, CFG)
        assert vbpoints_equal(out, zero_vbpoint_over(out), GRID,
                              CFG).status is Status.PASS

    def test_section_moderate_check(self):
        def coeffs(eps):
            return {"e0": LocalMap.from_expr(
                lambda t, e=eps: jets.tanh(t / e))}

        s = SectionNet(R_BUNDLE, coeffs, tag="steep")
        v = check_section_moderate(s, K_UNIT, GRID, CFG.k_max, CFG)
        assert v.status is Status.PASS

    @pytest.mark.parametrize("maker,expect_witness,slope", [
        (lambda: const_section(lambda eps: 0.0, "zero"), False, None),
        (lambda: const_section(lambda eps: math.exp(-1.0 / eps), "flat"), False, None),
        (lambda: const_section(lambda eps: 0.7, "const"), True, 0.0),
        (lambda: SectionNet(R_BUNDLE, lambda eps: {"e0": LocalMap.from_expr(
            lambda t, e=eps: e * (2.0 + jets.sin(t)))}, tag="lin"), True, 1.0),
        (lambda: const_section(lambda eps: eps**2, "quad"), True, 2.0),
    ])
    def test_zero_witness(self, maker, expect_witness, slope):
        s = maker()
        w = section_zero_witness(s, K_UNIT, GRID, 0, CFG)
        if not expect_witness:
            assert w is None
            return
        assert w is not None
        out = section_eval(s, w, GRID, CFG)
        assert vbpoints_equal(out, zero_vbpoint_over(out), GRID,
                              CFG).status is Status.FAIL
        v = judge_moderate(out.norm_series(GRID, CFG), CFG.n_cap, CFG.r2_min)
        assert v.estimate.slope == pytest.approx(slope, abs=0.1)

    @pytest.mark.parametrize("trials", [0, 3])
    def test_zero_witness_takes_each_fiber_norm_once(self, monkeypatch, trials):
        """The series and the witness read one (eps, sample point) array of
        fiber norms, and equal the per-point loops that took each norm twice."""
        s = SectionNet(R_BUNDLE, lambda eps: {"e0": LocalMap.from_expr(
            lambda t, e=eps: e * (2.0 + jets.sin(t)))}, tag="lin")
        pts = sample_points(K_UNIT, trials, CFG.seed)

        def norm(eps, p):
            return fiber_norm(R_BUNDLE, s.element_at(eps, p))

        want = sweep_sups(GRID, lambda eps: ((None, norm(eps, p), p) for p in pts),
                          CFG.zero_tol, lambda _key: "sup |lin|_h on K")[None]
        want_w = argmax_net(LINE, K_UNIT, pts, GRID, norm)
        calls = []
        element_at = SectionNet.element_at
        monkeypatch.setattr(SectionNet, "element_at",
                            lambda self, eps, p: calls.append(eps) or element_at(self, eps, p))
        got = section_norm_series(s, K_UNIT, GRID, CFG, trials)
        calls.clear()
        w = section_zero_witness(s, K_UNIT, GRID, trials, CFG)
        assert len(calls) == len(GRID) * len(pts)
        assert got.sup.tobytes() == want.sup.tobytes() and got.context == want.context
        assert [(a.chart, a.coords.tobytes()) for a in got.args] == [
            (a.chart, a.coords.tobytes()) for a in want.args]
        for eps in GRID.values():
            assert w.at(eps).chart == want_w.at(eps).chart
            assert w.at(eps).coords.tobytes() == want_w.at(eps).coords.tobytes()

    def test_nan_section_is_not_zero(self):
        s = const_section(lambda eps: math.nan, "nan")
        assert fiber_norm(R_BUNDLE, s.element_at(0.25, Point("e0", [0.1]))) == math.inf
        assert section_zero_witness(s, K_UNIT, GRID, 0, CFG) is not None


class TestVBHomEval:
    def test_identity(self):
        v = identity_vbhom(R_BUNDLE)
        e = VBPoint.constant(R_BUNDLE, BundleElement("e0", [0.2], [1.7]))
        out = vbhom_eval(v, e, GRID, CFG)
        assert vbpoints_equal(out, e, GRID, CFG).status is Status.PASS

    def test_tangent_of_sine_at_origin(self):
        ts = tangent(get_net("sigma_sin"))
        e = VBPoint(ts.src, lambda eps: BundleElement("e0", [0.0], [1.0]),
                    region_box("e0", [-0.2], [0.2]))
        out = vbhom_eval(ts, e, GRID, CFG)
        b = out.at(0.25)
        assert b.x == pytest.approx([0.0]) and b.xi == pytest.approx([1.0])

    def test_jump_tangent_blows_up_order_one(self):
        tj = tangent(get_net("s1_jump"))
        e = VBPoint(tj.src, lambda eps: BundleElement("e0", [0.0], [1.0]),
                    region_box("e0", [-0.2], [0.2]))
        out = vbhom_eval(tj, e, GRID, CFG)
        for eps in (0.25, 2.0**-8):
            assert fiber_norm(out.bundle, out.at(eps)) == pytest.approx(
                math.pi * step_slope_sup(eps), rel=1e-10)
        assert out.growth(GRID, CFG).slope == pytest.approx(-1.0, abs=0.05)

    def test_single_chart_precondition(self):
        tw = tangent(get_net("winder"))
        e = VBPoint(tw.src, lambda eps: BundleElement("e0", [0.5], [1.0]),
                    get_region("K_half"))
        with pytest.raises(SingleChartMissing):
            vbhom_eval(tw, e, GRID, CFG)

    def test_projection_compatibility(self):
        ts = tangent(get_net("sigma_sin"))
        e = VBPoint(ts.src, lambda eps: BundleElement("e0", [0.3], [2.0]),
                    region_box("e0", [0.0], [0.6]))
        out = vbhom_eval(ts, e, GRID, CFG)
        base = ts.base_net
        for eps in GRID.values()[:4]:
            got = out.at(eps)
            expect = base.eval(eps, e.at(eps).base)
            assert got.chart == expect.chart
            assert got.x == pytest.approx(expect.coords, abs=1e-14)

    def test_linearity_exact(self):
        v = identity_vbhom(R_BUNDLE)
        p = GenPoint.constant(LINE, Point("e0", [0.2]))
        e1 = VBPoint(R_BUNDLE, lambda eps: BundleElement("e0", [0.2], [1.0]), p.support)
        e2 = VBPoint(R_BUNDLE, lambda eps: BundleElement("e0", [0.2], [-0.7]), p.support)
        r = GenNumber(lambda eps: 2.0 + eps, tag="r")
        lhs = vbhom_eval(v, fiber_combine(e1, e2, r), GRID, CFG)
        rhs = fiber_combine(vbhom_eval(v, e1, GRID, CFG),
                            vbhom_eval(v, e2, GRID, CFG), r)
        for eps in GRID.values():
            assert lhs.at(eps).xi == pytest.approx(rhs.at(eps).xi, abs=1e-12)
        assert vbpoints_equal(lhs, rhs, GRID, CFG).status is Status.PASS


class TestTensorInsertion:
    def p(self):
        return GenPoint.constant(LINE, Point("e0", [0.3]), tag="p")

    def metric_like(self):
        return TensorSectionNet(LINE, 0, 2, lambda eps: {
            "e0": LocalMap(1, (1, 1), fn=lambda x: np.eye(1))}, tag="dx@dx")

    def vec(self, expr_factory, tag):
        return TensorSectionNet(LINE, 1, 0, lambda eps: {
            "e0": LocalMap.from_expr(expr_factory(eps))}, tag=tag)

    def oneform(self, expr_factory, tag):
        return TensorSectionNet(LINE, 0, 1, lambda eps: {
            "e0": LocalMap.from_expr(expr_factory(eps))}, tag=tag)

    def test_metric_insert_constant_one(self):
        ddx = self.vec(lambda eps: (lambda t: 0.0 * t + 1.0), "d/dx")
        val = tensor_insert(self.metric_like(), [], [ddx, ddx], self.p(), GRID, CFG)
        for eps in GRID.values():
            assert val(eps) == pytest.approx(1.0, abs=1e-14)

    def test_insert_evaluates_coefficient_field(self):
        dx = self.oneform(lambda eps: (lambda t: 0.0 * t + 1.0), "dx")
        f_ddx = self.vec(lambda eps: (lambda t: jets.sin(t)), "sin*d/dx")
        val = tensor_insert(dx, [], [f_ddx], self.p(), GRID, CFG)
        for eps in GRID.values():
            assert val(eps) == pytest.approx(math.sin(0.3), abs=1e-14)

    def test_pointwise_dependence(self):
        # arguments agreeing at p up to e^(-1/eps) yield equal numbers
        dx = self.oneform(lambda eps: (lambda t: 0.0 * t + 1.0), "dx")
        xi = self.vec(lambda eps: (lambda t: jets.sin(t)), "xi")
        xi2 = self.vec(
            lambda eps: (lambda t, a=math.exp(-1.0 / eps): jets.sin(t)
                         + a * (t - 0.3 + 1.0)), "xi2")
        v1 = tensor_insert(dx, [], [xi], self.p(), GRID, CFG)
        v2 = tensor_insert(dx, [], [xi2], self.p(), GRID, CFG)
        assert gennumbers_equal(v1, v2, GRID, CFG).status is Status.PASS

    def test_type_mismatch_errors(self):
        dx = self.oneform(lambda eps: (lambda t: 0.0 * t + 1.0), "dx")
        xi = self.vec(lambda eps: (lambda t: 0.0 * t + 1.0), "xi")
        with pytest.raises(TypeMismatch):
            tensor_insert(self.metric_like(), [], [xi], self.p(), GRID, CFG)
        with pytest.raises(TypeMismatch):
            tensor_insert(dx, [], [dx], self.p(), GRID, CFG)
        with pytest.raises(TypeMismatch):
            TensorSectionNet(LINE, 3, 2, lambda eps: {}, tag="toolarge")

    def test_two_dimensional_contraction(self):
        plane = __import__("mapnets").euclidean_atlas([(-3, 3), (-3, 3)], name="plane")
        g = TensorSectionNet(plane, 0, 2, lambda eps: {
            "e0": LocalMap(2, (2, 2), fn=lambda x: np.diag([1.0, 2.0]))}, tag="g")
        xi = TensorSectionNet(plane, 1, 0, lambda eps: {
            "e0": LocalMap(2, (2,), fn=lambda x: np.array([1.0, 1.0]))}, tag="xi")
        p = GenPoint.constant(plane, Point("e0", [0.5, -0.5]), tag="p2d")
        val = tensor_insert(g, [], [xi, xi], p, GRID, CFG)
        assert val(0.25) == pytest.approx(3.0)


class TestPerturbationRobustness:
    def test_negligible_perturbations_never_flip_passes(self):
        # perturb representative data at size e^(-1/eps): all Pass verdicts hold
        supp = region_box("e0", [-0.5], [0.5])
        flat = lambda eps: math.exp(-1.0 / eps)
        e = VBPoint(R_BUNDLE, lambda eps: BundleElement("e0", [0.0], [1.0]), supp)
        e_p = VBPoint(R_BUNDLE,
                      lambda eps: BundleElement("e0", [flat(eps)], [1.0 + flat(eps)]),
                      supp)
        assert vbpoints_equal(e, e_p, GRID, CFG).status is Status.PASS

        s = const_section(lambda eps: 2.0, "s")
        s_p = const_section(lambda eps: 2.0 + flat(eps), "s_p")
        p = GenPoint.constant(LINE, Point("e0", [0.1]))
        out = section_eval(s, p, GRID, CFG)
        out_p = section_eval(s_p, p, GRID, CFG)
        assert vbpoints_equal(out, out_p, GRID, CFG).status is Status.PASS

        v = identity_vbhom(R_BUNDLE)
        assert vbpoints_equal(vbhom_eval(v, e, GRID, CFG),
                              vbhom_eval(v, e_p, GRID, CFG),
                              GRID, CFG).status is Status.PASS

        r = GenNumber.constant(1.0)
        c1 = fiber_combine(e, e, r)
        c2 = fiber_combine(e_p, e_p, r)
        assert vbpoints_equal(c1, c2, GRID, CFG).status is Status.PASS
