"""The vector-bundle layer against the map-net code it reuses.

``vbhom_compose`` takes its base parts from ``compose`` on the base nets and
multiplies the matrix parts along the route each point's base takes.
``VBHomNet.eval`` and ``tangent_norm_series`` pick their chart pair by the
rule of ``SmoothMap.best_image`` (its per-point loop, ``ref_eval_candidates``,
is the reference), and ``_common_chart_pair`` reads
``VectorBundle.representations``.  The reference functions below are the
hand-written loops those three used before; the tests require the same chart,
coordinates, fiber and sup, byte for byte, on a circle-valued and a
sphere-valued net at points in the overlap of the target charts.

The shared tie rule is: largest margin, then the smaller target chart, then
the smaller source chart.  The sample points avoid exact-margin ties across
source charts, where the old loops put the source chart first.
"""

import math

import numpy as np
import pytest
from test_asymptotics import ref_sweep_sups
from test_vb_tables import ref_eval_candidates

from mapnets import jets
from mapnets.config import Config
from mapnets.errors import ChartMismatch, NoSharedChart
from mapnets.gallery import get_atlas, get_net
from mapnets.gmap import MapNet, angle_net, compose, effective_reps
from mapnets.manifold import (
    BundleElement,
    LocalMap,
    Point,
    euclidean_atlas,
    region_box,
    riemannian_operator_norm,
    tangent_bundle,
)
from mapnets.vbundle import _common_chart_pair, tangent, tangent_norm_series, vbhom_compose

CFG = Config()
GRID = CFG.grid()
LINE = get_atlas("line")
CIRCLE = get_atlas("circle")
SPHERE = get_atlas("sphere")
PLANE = euclidean_atlas([(-3.0, 3.0), (-3.0, 3.0)], name="plane")


def bits(a) -> bytes:
    return np.asarray(a, dtype=float).tobytes()


def partial_sine() -> MapNet:
    """circle -> line, t -> sin t, each representative defined only inside
    its own angle chart."""

    def factory(eps):
        return {("ang0", "e0"): LocalMap.from_expr(
                    lambda t: jets.sin(t), defined=CIRCLE.chart("ang0").contains,
                    name="sin:ang0"),
                ("angpi", "e0"): LocalMap.from_expr(
                    lambda t: -jets.sin(t), defined=CIRCLE.chart("angpi").contains,
                    name="sin:angpi")}

    return MapNet(CIRCLE, LINE, factory, tag="psin")


def winding(rate: float) -> MapNet:
    return angle_net(LINE, CIRCLE, lambda eps: (lambda t: rate * t), tag=f"{rate}t")


def sphere_net() -> MapNet:
    """plane -> sphere, x -> stereographic point (1 + eps) x from the north
    pole, on both sphere charts."""

    def factory(eps):
        s = 1.0 + eps
        north = LocalMap(2, (2,), fn=lambda x: s * x, name="north")
        south = LocalMap(2, (2,), fn=lambda x: s * x / float(s * x @ (s * x)),
                         defined=lambda x: float(x @ x) > 1e-12, name="south")
        return {("e0", "north"): north, ("e0", "south"): south}

    return MapNet(PLANE, SPHERE, factory, tag="stretch")


# ======================================================================
# References: the loops the vb layer used before
# ======================================================================


def reference_eval(v, eps, e):
    best = None
    mats = v.matrices_at(eps)
    for (a, b), base in sorted(v.base_net.at(eps).locals.items()):
        ea = v.src.rechart(e, a)
        if ea is None:
            continue
        y = base.try_call(ea.x)
        if y is None:
            continue
        m = v.dst.base.chart(b).norm_margin(y)
        if m <= 0:
            continue
        if best is None or m > best[0]:
            M = np.asarray(mats[a, b](ea.x), dtype=float)
            best = (m, BundleElement(b, y, M @ ea.xi))
    if best is None:
        raise NoSharedChart("no chart pair")
    return best[1]


def reference_tangent_norm_series(u, K, grid, cfg):
    lattices = K.lattices()

    def samples(eps):
        for cid, lat in lattices:
            reps = effective_reps(u.at(eps), cid)
            for x in lat:
                best = None
                for b in sorted(reps):
                    y = reps[b].try_call(x)
                    if y is None:
                        continue
                    m = u.dst.chart(b).norm_margin(y)
                    if m > 0 and (best is None or m > best[0]):
                        best = (m, b, y, reps[b])
                if best is None:
                    continue
                _m, b, y, rep = best
                yield None, riemannian_operator_norm(rep.jacobian(x), u.src.metric.at(cid, x),
                                                     u.dst.metric.at(b, y)), Point(cid, x)

    return ref_sweep_sups(grid, samples, cfg.zero_tol)[None]


def reference_common_chart_pair(bundle, e1, e2):
    best = None
    for cid in bundle.base.chart_ids:
        r1 = bundle.rechart(e1, cid)
        r2 = bundle.rechart(e2, cid)
        if r1 is None or r2 is None:
            continue
        m = min(bundle.base.chart(cid).norm_margin(r1.x),
                bundle.base.chart(cid).norm_margin(r2.x))
        if m > 0 and (best is None or m > best[0]):
            best = (m, cid, r1, r2)
    return best


# ======================================================================
# vbhom_compose is compose on the bases
# ======================================================================


class TestComposeRoutes:
    def test_chart_partial_outer_follows_compose(self):
        """At 3.1 t the angle leaves chart ang0, so only the angpi route
        applies there; the composite base must take it as compose does."""
        outer, inner = partial_sine(), winding(3.1)
        direct = compose(outer, inner)
        t_direct = tangent(direct)
        chained = vbhom_compose(tangent(outer), tangent(inner))
        checked = 0
        for eps in (0.5, 2.0**-8):
            want_base = direct.at(eps).locals[("e0", "e0")]
            want_mat = t_direct.matrices_at(eps)[("e0", "e0")]
            got_base = chained.base_net.at(eps).locals[("e0", "e0")]
            got_mat = chained.matrices_at(eps)[("e0", "e0")]
            for x in np.linspace(-1.0, 1.0, 41):
                z = want_base.try_call(x)
                if z is None:
                    continue
                zc = got_base.try_call(x)
                assert zc is not None, x
                assert bits(zc) == bits(z), x
                assert np.max(np.abs(got_mat(np.array([x])) - want_mat(np.array([x])))) <= 1e-9
                checked += 1
            assert got_base(np.array([1.0]))[0] == pytest.approx(math.sin(3.1), abs=1e-12)
        assert checked == 82

    def test_mismatched_charts_raise(self):
        with pytest.raises(ChartMismatch):
            vbhom_compose(tangent(get_net("sigma_sin")), tangent(winding(2.0)))
        with pytest.raises(ChartMismatch):
            compose(get_net("sigma_sin"), winding(2.0))


# ======================================================================
# Chart choices equal the old loops byte for byte
# ======================================================================


def overlap_elements():
    """(net, src bundle elements): circle- and sphere-valued nets at points
    whose images lie in both target charts."""
    circle_pts = [BundleElement("e0", [x], [0.7 - x]) for x in np.linspace(0.2, 1.3, 9)]
    sphere_pts = [BundleElement("e0", [x, 0.4 - 0.3 * x], [1.0, x])
                  for x in np.linspace(0.6, 1.7, 7)]
    return [(winding(2.0), circle_pts), (sphere_net(), sphere_pts)]


class TestChartChoice:
    @pytest.mark.parametrize("case", [0, 1], ids=["circle", "sphere"])
    def test_eval_matches_reference(self, case):
        u, elements = overlap_elements()[case]
        v = tangent(u)
        targets = set()
        for eps in (0.5, 2.0**-6):
            for e in elements:
                got, want = v.eval(eps, e), reference_eval(v, eps, e)
                assert got.chart == want.chart
                assert bits(got.x) == bits(want.x) and bits(got.xi) == bits(want.xi)
                assert len(ref_eval_candidates(u.at(eps), e.base)) == 2  # in the overlap
                targets.add(got.chart)
        assert len(targets) == 2  # both target charts win somewhere

    @pytest.mark.parametrize("case", [0, 1], ids=["circle", "sphere"])
    def test_tangent_norm_series_matches_reference(self, case):
        u, _ = overlap_elements()[case]
        K = (region_box("e0", [0.2], [1.3], density=9) if case == 0
             else region_box("e0", [0.6, -0.3], [1.7, 0.3], density=5))
        got = tangent_norm_series(u, K, GRID, CFG)
        want = reference_tangent_norm_series(u, K, GRID, CFG)
        assert bits(got.eps) == bits(want.eps) and bits(got.sup) == bits(want.sup)
        assert [(p.chart, bits(p.coords)) for p in got.args] == \
               [(p.chart, bits(p.coords)) for p in want.args]

    @pytest.mark.parametrize("case", [0, 1], ids=["circle", "sphere"])
    def test_common_chart_pair_matches_reference(self, case):
        atlas = (CIRCLE, SPHERE)[case]
        bundle = tangent_bundle(atlas)
        a, b = atlas.chart_ids
        if case == 0:
            coords = [(a, [0.4]), (a, [2.1]), (a, [-1.7]), (a, [2.9]), (a, [0.0]), (b, [0.0])]
        else:
            coords = [(a, [0.5, 0.3]), (a, [1.2, -0.8]), (a, [2.5, 0.1]), (a, [3.9, 3.9]),
                      (a, [0.1, 0.05]), (b, [0.1, 0.05])]
        elements = []
        for cid, x in coords:  # each point in its chart and, if there, in the other
            e = BundleElement(cid, x, np.arange(1.0, bundle.fiber_dim + 1))
            elements.append(e)
            other = bundle.rechart(e, b if cid == a else a)
            if other is not None:
                elements.append(other)
        found = set()
        for e1 in elements:
            for e2 in elements:
                got = _common_chart_pair(bundle, e1, e2)
                want = reference_common_chart_pair(bundle, e1, e2)
                assert (got is None) == (want is None)
                if got is None:
                    found.add(None)
                    continue
                assert bits(got[0]) == bits(want[0]) and got[1] == want[1]
                for r, s in zip(got[2:], want[2:]):
                    assert r.chart == s.chart
                    assert bits(r.x) == bits(s.x) and bits(r.xi) == bits(s.xi)
                found.add(got[1])
        assert found == {None, a, b}
