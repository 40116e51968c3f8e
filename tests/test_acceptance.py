"""Acceptance gate: one test per criterion, at the stated tolerances.

Each test prints a single PASS/FAIL line (run pytest -s to see them all).
The equivalence corpus pins five equivalent pairs (defects decaying faster
than every power) and five inequivalent ones with constructed defect orders
0, 0.5, 1, 2, 3.
"""

import json
import math
import time

import numpy as np
import pytest

from mapnets import jets
from mapnets.asymptotics import Status, judge_moderate
from mapnets.config import Config
from mapnets.exprs import build_expr, step_slope_sup
from mapnets.gallery import gallery_run_all, get_atlas, get_net, get_region
from mapnets.gmap import (
    angle_net,
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
from mapnets.gpoints import GenNumber, GenPoint, eval_at, gennumbers_equal, points_equal, \
    separate_by_points
from mapnets.manifold import (
    BundleElement,
    LocalMap,
    Point,
    SmoothMap,
    euclidean_atlas,
    region_box,
    tangent_bundle,
    trivial_bundle,
)
from mapnets.vbundle import (
    SectionNet,
    TensorSectionNet,
    VBPoint,
    align_representative,
    fiber_combine,
    identity_vbhom,
    section_eval,
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
CIRCLE = get_atlas("circle")
K_UNIT = get_region("K_unit")


def report(n: int, ok: bool, desc: str) -> None:
    print(f"ACCEPTANCE {n:>2}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {n}: {desc}"


def expr_net(spec, tag, dst="line"):
    return scalar_net(LINE, get_atlas(dst), build_expr(spec), tag=tag)


def _corpus():
    """Five equivalent and five inequivalent pairs; defect orders attached."""
    equivalent = [
        (get_net("sigma_sin"), get_net("sigma_sin")),
        (get_net("sigma_sin"), get_net("sin_plus_flat")),
        (get_net("sigma_tanh"),
         expr_net({"name": "plus_flat", "params": {"base": "tanh", "rate": 2}},
                  "tanh_plus_flat2")),
        (get_net("s1_jump"), get_net("s1_jump_flat")),
        (expr_net({"name": "poly", "params": {"coeffs": [0, 0, 1]}}, "sq"),
         expr_net({"name": "plus_flat",
                   "params": {"base": {"name": "poly", "params": {"coeffs": [0, 0, 1]}},
                              "shape": "bump"}}, "sq_plus_flat_bump")),
    ]
    inequivalent = [
        (get_net("sigma_sin"),
         expr_net({"name": "plus_power",
                   "params": {"base": "sin", "order": 0, "coeff": 0.1,
                              "shape": "bump"}}, "sin_plus_bump"), 0.0),
        (get_net("sigma_sin"),
         expr_net({"name": "plus_power",
                   "params": {"base": "sin", "order": 0.5, "coeff": 0.2}},
                  "sin_plus_sqrt"), 0.5),
        (get_net("s1_jump"), get_net("s1_jump_eps_bump"), 1.0),
        (get_net("sigma_sin"), get_net("sin_plus_eps2"), 2.0),
        (get_net("sigma_tanh"),
         expr_net({"name": "plus_power",
                   "params": {"base": "tanh", "order": 3, "shape": "cos"}},
                  "tanh_plus_eps3"), 3.0),
    ]
    return equivalent, inequivalent


def test_criterion_1_counterexample_reproduction():
    t0 = time.perf_counter()
    rep = check_cbounded(get_net("epsilon_into_0_2"), K_UNIT, GRID, CFG)
    ok_cb = rep.status is Status.FAIL
    psi = SmoothMap(get_atlas("interval02"), get_atlas("halfline_exp"),
                    {("e0", "e0"): LocalMap.from_expr(lambda y: jets.exp(1.0 / y))},
                    name="exp_recip")
    transformed = compose(embed_smooth(psi), get_net("epsilon_into_0_2"))
    (series,) = derivative_sup_series(transformed, K_UNIT, GRID, 0, None, CFG).values()
    v = judge_moderate(series, CFG.n_cap, CFG.r2_min)
    ok_mod = v.status is Status.FAIL and v.estimate.slope < -50.0
    elapsed = time.perf_counter() - t0
    report(1, ok_cb and ok_mod and elapsed < 1.0,
           f"range counterexample: cbounded {rep.status}, transformed slope "
           f"{v.estimate.slope:.1f} < -50, {elapsed:.2f}s < 1s")


def test_criterion_2_circle_jump_net():
    t0 = time.perf_counter()
    u = get_net("s1_jump")
    rep = check_cbounded(u, K_UNIT, GRID, CFG)
    v = check_moderate(u, K_UNIT, GRID, cfg=CFG, cbounded=rep)
    k1 = min(d.estimate.slope for lbl, d in v.details.items()
             if lbl.startswith("k=1|") and d.estimate is not None)
    # oracle: sup of the profile derivative is (1+eps)(1+1/eps)/2, at x=0
    sups = derivative_sup_series(u, K_UNIT, GRID, 1, None, CFG)
    key = next(k for k in sups if k[2] == "ang0" and k[3] == 1)
    s = sups[key]
    oracle = np.array([math.pi * step_slope_sup(e) for e in s.eps])
    ok_oracle = float(np.max(np.abs(s.sup - oracle) / oracle)) < 1e-10
    sc = check_single_chart(u, K_UNIT, GRID, CFG)
    elapsed = time.perf_counter() - t0
    ok = (rep.status is Status.PASS and v.status is Status.PASS
          and abs(k1 + 1.0) <= 0.1 and ok_oracle
          and sc.status is Status.PASS and elapsed < 5.0)
    report(2, ok, f"circle jump: cbounded Pass, moderate Pass, k=1 slope "
                  f"{k1:.3f} = -1 +/- 0.1, sup matches closed form, single chart "
                  f"{sc.chart}, {elapsed:.2f}s < 5s")


def test_criterion_3_order_zero_route_concordance():
    equivalent, inequivalent = _corpus()
    agreements = 0
    total = 0
    for u, v in equivalent:
        out = check_equiv0(u, v, K_UNIT, None, GRID, CFG)
        total += 1
        ok = (out.details["metric"].status is out.details["chart"].status
              and out.status is Status.PASS)
        agreements += ok
    for u, v, _order in inequivalent:
        out = check_equiv0(u, v, K_UNIT, None, GRID, CFG)
        total += 1
        ok = (out.details["metric"].status is out.details["chart"].status
              and out.status is Status.FAIL)
        agreements += ok
    report(3, agreements == total == 10,
           f"metric and chart routes agree with correct statuses {agreements}/{total}")


def test_criterion_4_witness_round_trip():
    equivalent, inequivalent = _corpus()
    ok = True
    details = []
    for u, v in equivalent:
        w = separate_by_points(u, v, K_UNIT, GRID, 0, CFG)
        ok = ok and w is None
    for u, v, order in inequivalent:
        w = separate_by_points(u, v, K_UNIT, GRID, 0, CFG)
        if w is None:
            ok = False
            continue
        pe = points_equal(eval_at(u, w, GRID, CFG), eval_at(v, w, GRID, CFG),
                          grid=GRID, cfg=CFG)
        slope = pe.estimate.slope
        details.append(f"{order}:{slope:.2f}")
        ok = ok and pe.status is Status.FAIL and abs(slope - order) <= 0.3
    report(4, ok, "witnesses exactly for the 5 defect pairs, evaluation slopes "
                  f"match defect orders +/-0.3 ({', '.join(details)})")


def _composition_pairs():
    """(inner net, outer net, direct net of the composite), all smooth."""
    line = LINE
    pairs = []
    f_sin = get_net("sigma_sin")
    g_tanh = get_net("sigma_tanh")
    pairs.append((f_sin, g_tanh,
                  scalar_net(line, line,
                             lambda eps: (lambda t: jets.tanh(jets.sin(t))),
                             tag="tanh_o_sin")))
    pairs.append((g_tanh, f_sin,
                  scalar_net(line, line,
                             lambda eps: (lambda t: jets.sin(jets.tanh(t))),
                             tag="sin_o_tanh")))
    sq = expr_net({"name": "poly", "params": {"coeffs": [0, 0, 1]}}, "sq")
    aff = expr_net({"name": "affine", "params": {"a": 0.5, "b": 1.0}}, "aff")
    pairs.append((sq, aff,
                  scalar_net(line, line,
                             lambda eps: (lambda t: 0.5 * (t * t) + 1.0),
                             tag="aff_o_sq")))
    pairs.append((aff, sq,
                  scalar_net(line, line,
                             lambda eps: (lambda t: (0.5 * t + 1.0) ** 2),
                             tag="sq_o_aff")))
    # circle-valued case: wind the line around the circle after a tanh squeeze
    wind = angle_net(line, CIRCLE, lambda eps: (lambda t: t), tag="wind")
    direct = angle_net(line, CIRCLE, lambda eps: (lambda t: jets.tanh(t)),
                       tag="wind_o_tanh")
    pairs.append((g_tanh, wind, direct))
    return pairs


def test_criterion_5_composition_suite():
    ok = True
    for inner, outer, direct in _composition_pairs():
        comp = compose(outer, inner)
        v = check_equiv(comp, direct, [K_UNIT], GRID, CFG.k_max, CFG)
        ok = ok and v.status is Status.PASS
    # negligible perturbation of the inner net leaves the composite unchanged
    inner, outer, _ = _composition_pairs()[0]
    inner_p = expr_net({"name": "plus_flat", "params": {"base": "sin"}},
                       "sin_plus_flat_c5")
    v0 = check_equiv0(compose(outer, inner), compose(outer, inner_p),
                      K_UNIT, None, GRID, CFG)
    ok = ok and v0.status is Status.PASS
    report(5, ok, "5 composites (incl. circle-valued) equal their direct nets; "
                  "negligible inner perturbation preserves order-0 equality")


def test_criterion_6_tangent_chain_rule_suite():
    ok = True
    # composite tangents match within 1e-6 at >= 10^3 samples
    worst = 0.0
    n_samples = 0
    for inner, outer, direct in _composition_pairs()[:3]:
        t_direct = tangent(compose(outer, inner))
        t_chain = vbhom_compose(tangent(outer), tangent(inner))
        for eps in GRID.values():
            for x in np.linspace(-1, 1, 23):
                a = t_direct.matrices_at(eps)[("e0", "e0")](np.array([x]))
                b = t_chain.matrices_at(eps)[("e0", "e0")](np.array([x]))
                worst = max(worst, float(np.max(np.abs(a - b))))
                n_samples += 1
    ok = ok and worst <= 1e-6 and n_samples >= 1000
    # tangent-norm growth matches the chart-wise first-derivative growth
    slope_gaps = []
    for name in ("sigma_sin", "heaviside_tanh", "s1_jump", "winder"):
        u = get_net(name)
        K = get_region("K_half") if name == "winder" else K_UNIT
        ser = tangent_norm_series(u, K, GRID, CFG)
        v = judge_moderate(ser, CFG.n_cap, CFG.r2_min)
        mod = check_moderate(u, K, GRID, cfg=CFG)
        k1 = min(d.estimate.slope for lbl, d in mod.details.items()
                 if lbl.startswith("k=1|") and d.estimate is not None)
        slope_gaps.append(abs(v.estimate.slope - k1))
        ok = ok and v.status is Status.PASS and slope_gaps[-1] <= 0.3
    report(6, ok, f"chain rule within 1e-6 at {n_samples} samples (worst {worst:.1e}); "
                  f"tangent-norm vs chart k=1 slope gaps {[f'{g:.2f}' for g in slope_gaps]}")


def test_criterion_7_vb_point_module_axioms():
    rng = np.random.default_rng(CFG.seed)
    r_bundle = trivial_bundle(LINE, 1)
    circ_tm = tangent_bundle(CIRCLE)
    ok = True
    checked = 0
    for i in range(20):
        on_circle = i % 2 == 1
        bundle = circ_tm if on_circle else r_bundle
        chart = "ang0" if on_circle else "e0"
        atlas = bundle.base
        x0 = float(rng.uniform(-0.5, 0.5))
        xi1 = float(rng.uniform(-2, 2))
        xi2 = float(rng.uniform(-2, 2))
        rc = float(rng.uniform(-3, 3))
        supp = region_box(chart, [x0 - 0.2], [x0 + 0.2])
        p = GenPoint.from_fn(atlas, lambda eps, c=chart, v=x0: Point(c, [v]), supp)
        # e carries a base shifted by a fast-vanishing amount; align it to p
        e = VBPoint(bundle, lambda eps, c=chart, v=x0, w=xi1: BundleElement(
            c, [v + math.exp(-1.0 / eps)], [w]), supp)
        e2 = VBPoint(bundle, lambda eps, c=chart, v=x0, w=xi2: BundleElement(
            c, [v], [w]), supp)
        ea = align_representative(e, p)
        ok = ok and vbpoints_equal(e, ea, GRID, CFG).status is Status.PASS
        # zero test: e - e vanishes
        z = fiber_combine(ea, ea, GenNumber.constant(-1.0))
        ok = ok and vbpoints_equal(z, zero_vbpoint_over(ea), GRID,
                                   CFG).status is Status.PASS
        # linearity through a vb-homomorphism
        v = identity_vbhom(bundle)
        r = GenNumber.constant(rc)
        lhs = vbhom_eval(v, fiber_combine(ea, e2, r), GRID, CFG)
        rhs = fiber_combine(vbhom_eval(v, ea, GRID, CFG),
                            vbhom_eval(v, e2, GRID, CFG), r)
        ok = ok and vbpoints_equal(lhs, rhs, GRID, CFG).status is Status.PASS
        checked += 1
    report(7, ok and checked == 20,
           f"{checked} seeded align/combine instances satisfy linearity and zero tests")


def test_criterion_8_pointwise_tensor_insertion():
    p = GenPoint.constant(LINE, Point("e0", [0.3]), tag="p")
    plane = euclidean_atlas([(-3, 3), (-3, 3)], name="plane")
    p2 = GenPoint.constant(plane, Point("e0", [0.5, -0.5]), tag="p2")

    def vec1(expr_of_eps, tag, atlas=LINE):
        return TensorSectionNet(atlas, 1, 0, lambda eps: {
            "e0": LocalMap.from_expr(expr_of_eps(eps))}, tag=tag)

    def oneform1(expr_of_eps, tag):
        return TensorSectionNet(LINE, 0, 1, lambda eps: {
            "e0": LocalMap.from_expr(expr_of_eps(eps))}, tag=tag)

    def flat_shift(base_expr, at):
        # same value at the insertion point up to e^(-1/eps), different globally
        return lambda eps: (lambda t, a=math.exp(-1.0 / eps):
                            base_expr(t) + a * (t - at + 1.0))

    dx = oneform1(lambda eps: (lambda t: 0.0 * t + 1.0), "dx")
    gscale = TensorSectionNet(LINE, 0, 2, lambda eps: {
        "e0": LocalMap(1, (1, 1), fn=lambda x: 2.0 * np.eye(1))}, tag="2dx@dx")
    xi_sin = vec1(lambda eps: (lambda t: jets.sin(t)), "xi_sin")
    xi_cos = vec1(lambda eps: (lambda t: jets.cos(t)), "xi_cos")
    om_t = oneform1(lambda eps: (lambda t: t), "t*dx")

    cases = []
    # 1: vector argument pair into a one-form
    cases.append((tensor_insert(dx, [], [xi_sin], p, GRID, CFG),
                  tensor_insert(dx, [], [vec1(flat_shift(jets.sin, 0.3), "xi_sin'")],
                                p, GRID, CFG)))
    # 2: one-form argument pair against a vector field
    cases.append((tensor_insert(om_t, [], [xi_cos], p, GRID, CFG),
                  tensor_insert(oneform1(flat_shift(lambda t: t, 0.3), "om'"),
                                [], [xi_cos], p, GRID, CFG)))
    # 3: order-2 tensor with one perturbed slot
    cases.append((tensor_insert(gscale, [], [xi_sin, xi_cos], p, GRID, CFG),
                  tensor_insert(gscale, [],
                                [vec1(flat_shift(jets.sin, 0.3), "xi_sin'"), xi_cos],
                                p, GRID, CFG)))
    # 4: both slots perturbed
    cases.append((tensor_insert(gscale, [], [xi_sin, xi_sin], p, GRID, CFG),
                  tensor_insert(gscale, [],
                                [vec1(flat_shift(jets.sin, 0.3), "a"),
                                 vec1(flat_shift(jets.sin, 0.3), "b")], p, GRID, CFG)))
    # 5: two-dimensional metric-style contraction with a perturbed argument
    g2 = TensorSectionNet(plane, 0, 2, lambda eps: {
        "e0": LocalMap(2, (2, 2), fn=lambda x: np.diag([1.0, 2.0]))}, tag="g2")
    xi2 = TensorSectionNet(plane, 1, 0, lambda eps: {
        "e0": LocalMap(2, (2,), fn=lambda x: np.array([1.0, 1.0]))}, tag="xi2")
    xi2p = TensorSectionNet(plane, 1, 0, lambda eps: {
        "e0": LocalMap(2, (2,), fn=lambda x, a=math.exp(-1.0 / eps): np.array(
            [1.0 + a * (x[0] - 0.5 + 1.0), 1.0]))}, tag="xi2'")
    cases.append((tensor_insert(g2, [], [xi2, xi2], p2, GRID, CFG),
                  tensor_insert(g2, [], [xi2p, xi2], p2, GRID, CFG)))

    ok = True
    for a, b in cases:
        ok = ok and gennumbers_equal(a, b, GRID, CFG).status is Status.PASS
    report(8, ok and len(cases) == 5,
           "5 argument pairs agreeing at the point give equal generalized numbers")


def test_criterion_9_section_zero_point_values():
    bundle = trivial_bundle(LINE, 1)

    def const_section(value_of_eps, tag):
        return SectionNet(bundle, lambda eps: {
            "e0": LocalMap(1, (1,), fn=lambda x, v=value_of_eps(eps): np.array([v]))},
            tag=tag)

    negligible = [
        const_section(lambda eps: 0.0, "zero"),
        const_section(lambda eps: math.exp(-1.0 / eps), "flat"),
        SectionNet(bundle, lambda eps: {"e0": LocalMap.from_expr(
            lambda t, a=math.exp(-2.0 / eps): a * (1.0 + t * t))}, tag="flat2"),
    ]
    witnessed = [
        (const_section(lambda eps: 0.7, "lvl0"), 0.0),
        (SectionNet(bundle, lambda eps: {"e0": LocalMap.from_expr(
            lambda t, e=eps: e * (2.0 + jets.sin(t)))}, tag="lvl1"), 1.0),
        (const_section(lambda eps: eps**2, "lvl2"), 2.0),
    ]
    ok = True
    for s in negligible:
        ok = ok and section_zero_witness(s, K_UNIT, GRID, 0, CFG) is None
    slopes = []
    for s, order in witnessed:
        w = section_zero_witness(s, K_UNIT, GRID, 0, CFG)
        if w is None:
            ok = False
            continue
        out = section_eval(s, w, GRID, CFG)
        ok = ok and vbpoints_equal(out, zero_vbpoint_over(out), GRID,
                                   CFG).status is Status.FAIL
        v = judge_moderate(out.norm_series(GRID, CFG), CFG.n_cap, CFG.r2_min)
        slopes.append(v.estimate.slope)
        ok = ok and abs(v.estimate.slope - order) <= 0.1
    report(9, ok, f"witness absent for 3 negligible sections, present for slopes "
                  f"{[f'{s:.2f}' for s in slopes]} (0, 1, 2)")


def test_criterion_10_gallery_determinism():
    recs = []
    for _ in range(2):
        summary, mismatches, _ = gallery_run_all(CFG)
        recs.append(json.dumps({"entries": summary, "mismatches": mismatches},
                               sort_keys=True))
    ok = recs[0] == recs[1] and json.loads(recs[0])["mismatches"] == []
    report(10, ok, "two gallery runs produce byte-identical verdict records")
