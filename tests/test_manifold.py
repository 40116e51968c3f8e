"""Atlases, transitions, metrics, regions, bundles.

Stereographic transitions are checked against an independent 3-D embedding
written out in this file; distances against analytic arc-length formulas.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapnets.errors import (
    ChartEscape,
    MapnetsError,
    MarginTooSmall,
    MissingFiberMetric,
    NoOverlap,
    OutOfDomain,
    OutputShapeMismatch,
)
from mapnets.gmap import MapNet, check_cbounded
from mapnets.jets import Jet, sin, sqrt
from mapnets.manifold import (
    Box,
    BundleElement,
    Chart,
    CompactRegion,
    LocalMap,
    Point,
    RiemannianMetric,
    check_metric_spd,
    check_transitions,
    circle_atlas,
    disjoint_union,
    distance,
    euclidean_atlas,
    euclidean_multichart,
    fiber_norm,
    product_atlas,
    region_box,
    sphere_atlas,
    tangent_bundle,
    transition,
    trivial_bundle,
)

CIRCLE = circle_atlas()
SPHERE = sphere_atlas()
LINE = euclidean_atlas([(-10, 10)], name="line")


# -- independent oracle: stereographic <-> R^3 ---------------------------

def embed_north(x):
    r2 = x[0] ** 2 + x[1] ** 2
    return np.array([2 * x[0], 2 * x[1], r2 - 1.0]) / (r2 + 1.0)


def project_south(p):
    return np.array([p[0], p[1]]) / (1.0 + p[2])


class TestTransitions:
    def test_circle_round_trip(self):
        x = np.array([0.5])
        y = transition(CIRCLE, "ang0", "angpi", x)
        back = transition(CIRCLE, "angpi", "ang0", y)
        assert abs(back[0] - 0.5) <= 1e-12

    def test_identity_chart(self):
        x = np.array([0.3])
        assert transition(LINE, "e0", "e0", x) == pytest.approx([0.3])

    def test_sphere_inversion_point(self):
        y = transition(SPHERE, "north", "south", [1.0, 0.0])
        assert y == pytest.approx([1.0, 0.0], abs=1e-14)

    def test_sphere_inversion_of_an_inf_row_is_undefined(self):
        """An inf row has no south coordinates (not inf / inf), and warns nowhere."""
        inf = np.array([math.inf, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert SPHERE.rechart(Point("north", inf), "south") is None
            Y = SPHERE.rechart(Point("north", np.array([inf, [1.0, 0.0]])), "south")
        assert np.isnan(Y[0]).all() and Y[1] == pytest.approx([1.0, 0.0], abs=1e-14)

    def test_sphere_transition_matches_embedding(self):
        # independent oracle: embed from the north chart, project to south
        for x in [np.array([0.5, 0.5]), np.array([-1.2, 2.0]), np.array([3.0, 0.1])]:
            got = transition(SPHERE, "north", "south", x)
            expect = project_south(embed_north(x))
            assert got == pytest.approx(expect, abs=1e-12)

    def test_round_trip_sampled(self):
        for atlas in (CIRCLE, SPHERE):
            rep = check_transitions(atlas, n=100, tau=1e-8)
            assert rep["n_round"] >= 100
            assert rep["round_trip"] <= 1e-8

    def test_no_overlap_error(self):
        two = disjoint_union({"a": euclidean_atlas([(-1, 1)]),
                              "b": euclidean_atlas([(-1, 1)])})
        with pytest.raises(NoOverlap):
            transition(two, "a.e0", "b.e0", [0.0])

    def test_out_of_domain_error(self):
        with pytest.raises(OutOfDomain):
            transition(CIRCLE, "ang0", "angpi", [5.0])
        with pytest.raises(OutOfDomain):
            # angle 0.0 has no representation near the antipode chart center
            transition(CIRCLE, "ang0", "angpi", [0.0])

    @given(st.floats(min_value=0.2, max_value=2.9))
    @settings(max_examples=80, deadline=None)
    def test_circle_round_trip_property(self, t):
        y = transition(CIRCLE, "ang0", "angpi", [t])
        back = transition(CIRCLE, "angpi", "ang0", y)
        assert abs(back[0] - t) <= 1e-10


class TestDistance:
    def test_circle_arc(self):
        d = distance(CIRCLE, CIRCLE.metric, Point("ang0", [0.0]),
                     Point("ang0", [math.pi / 2]))
        assert d == pytest.approx(math.pi / 2, abs=1e-6)

    def test_point_to_itself(self):
        for atlas, p in [(CIRCLE, Point("ang0", [1.0])),
                         (LINE, Point("e0", [2.0])),
                         (SPHERE, Point("north", [0.5, 0.5]))]:
            assert distance(atlas, atlas.metric, p, p) == 0.0

    def test_across_components_infinite(self):
        two = disjoint_union({"a": euclidean_atlas([(-1, 1)]),
                              "b": euclidean_atlas([(-1, 1)])})
        d = distance(two, two.metric, Point("a.e0", [0.0]), Point("b.e0", [0.0]))
        assert d == math.inf

    def test_chart_representation_independent(self):
        p = Point("ang0", [2.0])
        p_other = Point("angpi", [2.0 - math.pi])
        q = Point("ang0", [1.0])
        d1 = distance(CIRCLE, CIRCLE.metric, p, q)
        d2 = distance(CIRCLE, CIRCLE.metric, p_other, q)
        assert d1 == pytest.approx(d2, abs=1e-9)

    def test_sphere_great_circle(self):
        # north chart origin is the south pole; (1,0) sits on the equator
        d = distance(SPHERE, SPHERE.metric, Point("north", [0.0, 0.0]),
                     Point("north", [1.0, 0.0]))
        assert d == pytest.approx(math.pi / 2, abs=1e-9)

    def test_graph_fallback_matches_euclidean(self):
        atlas = euclidean_atlas([(-2.0, 2.0)], name="strip")
        flat = RiemannianMetric(fields=dict(atlas.metric.fields), analytic=None)
        region = region_box("e0", [-1.5], [1.5], density=33)
        d = distance(atlas, flat, Point("e0", [-1.0]), Point("e0", [1.0]),
                     region=region)
        assert d == pytest.approx(2.0, rel=0.05)

    def test_graph_fallback_circle(self):
        flat = RiemannianMetric(fields=dict(CIRCLE.metric.fields), analytic=None)
        region = CompactRegion([("ang0", Box([-2.8], [2.8])),
                                ("angpi", Box([-2.8], [2.8]))], 33)
        d = distance(CIRCLE, flat, Point("ang0", [0.0]), Point("ang0", [2.0]),
                     region=region)
        assert d == pytest.approx(2.0, rel=0.08)

    @pytest.mark.parametrize("p,q", [((-1.0, -1.0), (1.0, 1.0)), ((-1.0, 1.0), (1.0, -1.0))],
                             ids=["diagonal", "anti-diagonal"])
    def test_graph_fallback_plane_diagonals(self, p, q):
        # the lattice graph links (i, j) to (i+1, j-1) as well as to (i+1, j+1),
        # so both diagonals of a flat square are straight lines
        atlas = euclidean_atlas([(-2.0, 2.0), (-2.0, 2.0)], name="plane")
        flat = RiemannianMetric(fields=dict(atlas.metric.fields), analytic=None)
        region = region_box("e0", [-1.5, -1.5], [1.5, 1.5], density=9)
        d = distance(atlas, flat, Point("e0", list(p)), Point("e0", list(q)), region=region)
        assert d == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-9)

    def test_product_distance(self):
        prod = product_atlas(LINE, CIRCLE)
        p = Point("e0*ang0", [0.0, 0.0])
        q = Point("e0*ang0", [3.0, 1.0])
        d = distance(prod, prod.metric, p, q)
        assert d == pytest.approx(math.hypot(3.0, 1.0), abs=1e-9)


class TestFiberNorm:
    def test_trivial_bundle_euclidean(self):
        bundle = trivial_bundle(LINE, 1)
        assert fiber_norm(bundle, BundleElement("e0", [0.0], [3.0])) == pytest.approx(3.0)

    def test_zero_vector(self):
        bundle = tangent_bundle(SPHERE)
        assert fiber_norm(bundle, BundleElement("north", [0.3, 0.2], [0.0, 0.0])) == 0.0

    def test_circle_unit_angular_velocity(self):
        # round metric has g = 1 in angle charts: |d/dtheta| = 1 everywhere
        tm = tangent_bundle(CIRCLE)
        for t in (-2.0, 0.0, 1.5):
            assert fiber_norm(tm, BundleElement("ang0", [t], [1.0])) == pytest.approx(1.0)

    def test_strict_requires_fiber_metric(self):
        bundle = tangent_bundle(CIRCLE)
        naked = type(bundle)(bundle.base, bundle.fiber_dim, bundle.vb_transitions,
                             None, bundle.name)
        with pytest.raises(MissingFiberMetric):
            fiber_norm(naked, BundleElement("ang0", [0.0], [1.0]), strict=True)
        assert fiber_norm(naked, BundleElement("ang0", [0.0], [2.0])) == 2.0


class TestMetricAndRegions:
    @pytest.mark.parametrize("atlas", [CIRCLE, SPHERE, LINE])
    def test_metric_spd(self, atlas):
        assert check_metric_spd(atlas, atlas.metric) > 0.0

    def test_product_transitions_and_metric_blocks(self):
        # the product's transitions pair each factor's own, and its metric is
        # block diagonal in the factors' metrics (flat line, unit circle)
        prod = product_atlas(LINE, CIRCLE)
        rep = check_transitions(prod, n=100, tau=1e-12)
        assert rep["n_round"] >= 100
        assert rep["round_trip"] <= 1e-12
        assert check_metric_spd(prod, prod.metric) == pytest.approx(1.0, abs=1e-12)

    def test_region_must_sit_inside_chart(self):
        region = region_box("e0", [-11.0], [0.0])
        with pytest.raises(MarginTooSmall):
            region.validate(LINE)

    def test_lattice_cap(self):
        box = Box([0.0] * 3, [1.0] * 3)
        pts = box.lattice(100)
        assert len(pts) <= 100_000

    def test_norm_margin_unbounded_box(self):
        b = Box([1.0], [math.inf])
        m_near = b.norm_margin([2.0])
        m_far = b.norm_margin([1e6])
        assert m_near > 0.1
        assert m_far < 1e-4
        assert b.norm_margin([0.5]) < 0.0

    def test_norm_margin_doubly_infinite_axis_tends_to_zero(self):
        """A point running off to either end of (-inf, inf) scores margins
        tending to zero, at a point and at a stack alike."""
        b = Box([-math.inf], [math.inf])
        xs = [0.0, 0.9, -2.5, 3.0, -1e6, 1e6]
        ms = [b.norm_margin([x]) for x in xs]
        assert ms[0] == ms[1] == 0.5
        assert ms[2] < 0.5 and ms[3] < ms[2]
        assert ms[4] == ms[5] and 0.0 < ms[5] < 1e-5
        assert b.norm_margin(np.array(xs)[:, None]).tobytes() == np.array(ms).tobytes()


class TestDimensionMismatch:
    """A point or piece of the wrong dimension raises instead of broadcasting."""

    PLANE = euclidean_atlas([(-4.0, 4.0), (-4.0, 4.0)], name="plane")

    def test_region_piece_of_wrong_dimension_rejected(self):
        region = region_box("e0", [-1.0], [1.0])
        with pytest.raises(ValueError, match="dimension 1.*dimension 2"):
            region.validate(self.PLANE)

    @pytest.mark.parametrize("x", [[0.5], [0.5, 0.5, 0.5], 0.5, [[0.5, 0.5]]])
    def test_box_rejects_point_of_wrong_dimension(self, x):
        box = Box([-4.0, -4.0], [4.0, 4.0])
        with pytest.raises(ValueError):
            box.contains(x)
        with pytest.raises(ValueError):
            box.contains(x, closed=True)
        with pytest.raises(ValueError):
            box.norm_margin(x)

    def test_cbounded_rejects_one_d_region_for_two_d_net(self):
        net = MapNet(self.PLANE, self.PLANE, lambda eps: {
            ("e0", "e0"): LocalMap(2, (2,), fn=lambda x: np.array([0.5 * x[0], 0.5 * x[-1]]))},
            tag="half2")
        with pytest.raises(ValueError):
            check_cbounded(net, region_box("e0", [-1.0], [1.0], density=3))


class TestOutputShape:
    """A representative returning the wrong number of coordinates is a
    programming error, not a point where the map is undefined."""

    PLANE = euclidean_atlas([(-10.0, 10.0), (-10.0, 10.0)], name="plane")

    def short_map(self):
        return LocalMap(2, (2,), fn=lambda x: np.array([x[0]]), name="short")

    def assert_names_shapes(self, exc):
        assert not isinstance(exc, (ChartEscape, ValueError))
        assert isinstance(exc, MapnetsError)
        msg = str(exc)
        assert "short" in msg and "(2,)" in msg and "(1,)" in msg

    def test_try_call_raises_on_fn_shape(self):
        with pytest.raises(MapnetsError) as info:
            self.short_map().try_call([0.5, 0.5])
        self.assert_names_shapes(info.value)

    def test_try_call_raises_on_expr_shape(self):
        rep = LocalMap.from_expr(lambda t: (t, t), out_shape=(1,), name="short2")
        with pytest.raises(MapnetsError, match=r"short2.*\(2,\).*\(1,\)"):
            rep.try_call([0.5])

    def test_cbounded_reports_shape_not_chart_escape(self):
        net = MapNet(self.PLANE, self.PLANE, lambda eps: {("e0", "e0"): self.short_map()},
                     tag="short-net")
        with pytest.raises(MapnetsError) as info:
            check_cbounded(net, region_box("e0", [-1.0, -1.0], [1.0, 1.0], density=3))
        self.assert_names_shapes(info.value)

    @staticmethod
    def ragged(x):
        """Three coordinates right of x0 = 0.5, two elsewhere."""
        return np.array([x[0], x[1], 0.0]) if x[0] > 0.5 else np.array([x[0], x[1]])

    @pytest.mark.parametrize("X,k", [
        ([0.5, 0.0], 1),                # only the +h, +2h nodes of the first level
        ([[0.0, 0.0], [0.9, 0.0]], 0),  # one row of a two-point stack
        ([[0.0, 0.0], [0.9, 0.0]], 2),
        ([[0.9, 0.0], [0.8, 0.0]], 0),  # every row: the level stacks, at the wrong size
    ])
    def test_stacked_level_with_wrong_rows_names_map_and_shape(self, X, k):
        rep = LocalMap(2, (2,), fn=self.ragged, name="ragged")
        with pytest.raises(OutputShapeMismatch) as info:
            rep.derivs_upto(X, k)
        assert not isinstance(info.value, ValueError)
        msg = str(info.value)
        assert "ragged" in msg and "(3,)" in msg and "(2,)" in msg

    def test_jacobian_of_wrong_size_names_map_and_shape(self):
        rep = LocalMap(2, (2,), fn=lambda x: x, jac=lambda x: np.eye(3), name="bad-jac")
        with pytest.raises(OutputShapeMismatch, match=r"bad-jac.*jac.*\(3, 3\).*\(2, 2\)"):
            rep.derivs_upto([[0.1, 0.2], [0.3, 0.4]], 2)

    @pytest.mark.parametrize("form", ["list", "row", "mixed"])
    def test_outputs_of_the_right_size_still_reshape(self, form):
        def plain(x):
            return np.array([math.sin(x[0]) * x[1], x[0] ** 2])

        def fn(x):
            y = plain(x)
            if form == "list":
                return y.tolist()
            if form == "row" or x[0] > 0.3:  # "mixed": (1, 2) rows among (2,) rows
                return y.reshape(1, 2)
            return y

        X = np.array([[0.3, -0.5], [0.7, 0.2], [-0.0, 1.0]])
        ref = LocalMap(2, (2,), fn=plain).derivs_upto(X, 2)
        for got, want in zip(LocalMap(2, (2,), fn=fn).derivs_upto(X, 2), ref, strict=True):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_undefined_point_still_none(self):
        rep = LocalMap(1, (1,), fn=lambda x: np.array([1.0 / x[0]]),
                       defined=lambda x: x[0] != 0.0)
        assert rep.try_call([0.0]) is None
        assert rep.try_call([2.0]) == pytest.approx([0.5])


class TestJetDerivs:
    def test_tensors_of_every_order_from_one_jet(self):
        # A jet component, a product and a plain float constant.
        rep = LocalMap.from_expr(lambda t: (sin(t), t * t, 2.0), out_shape=(3,), name="trio")
        x = 0.7
        ts = rep.derivs_upto([x], 3)
        assert [t.shape for t in ts] == [(3,), (3, 1), (3, 1, 1), (3, 1, 1, 1)]
        expect = [[math.sin(x), x * x, 2.0], [math.cos(x), 2 * x, 0.0],
                  [-math.sin(x), 2.0, 0.0], [-math.cos(x), 0.0, 0.0]]
        for t, e in zip(ts, expect):
            np.testing.assert_allclose(t.ravel(), e, rtol=1e-14, atol=0.0)
        ref = sin(Jet.var(x, 3)).derivatives()
        assert [float(t.ravel()[0]) for t in ts] == ref.tolist()


class TestDerivativeUndefined:
    """A map defined at a point whose jet is not (sqrt(t*t) at 0: the value
    exists, the jet goes through log 0) is reported as a package error that
    names the map, the point and the order."""

    def rep(self):
        return LocalMap.from_expr(lambda t: sqrt(t * t), name="abs-via-sqrt")

    def test_value_defined_jet_not(self):
        from mapnets import errors

        rep = self.rep()
        assert rep.try_call([0.0]) == pytest.approx([0.0])
        with pytest.raises(errors.DerivativeUndefined) as info:
            rep.derivs_upto([0.0], 3)
        assert isinstance(info.value, MapnetsError)
        assert not isinstance(info.value, ValueError)
        msg = str(info.value)
        assert "abs-via-sqrt" in msg and "0.0" in msg and "3" in msg

    def test_defined_points_still_differentiate(self):
        ts = self.rep().derivs_upto([-0.5], 2)
        assert [float(t.ravel()[0]) for t in ts] == pytest.approx([0.5, -1.0, 0.0], abs=1e-12)

    def test_a_stacked_call_keeps_the_jet_values_beside_a_jetless_row(self):
        """A row whose jet fails (t = 0 here) moves no other row of the stack
        off the order-0 jet values; it alone takes the float expression."""
        rep = LocalMap.from_expr(lambda t: sqrt(1.0 + t * t) + 0.0 * sqrt(t * t))
        X = np.linspace(0.001, 1.0, 501)[:, None]
        want = rep.try_call(X)  # one array jet: no row fails
        got = rep.try_call(np.concatenate([[[0.0]], X]))
        assert got[0].tolist() == [1.0]
        assert got[1:].tobytes() == want.tobytes()

    def test_check_moderate_reports_it(self):
        from mapnets import errors
        from mapnets.gmap import check_moderate, scalar_net

        line = euclidean_atlas([(-10.0, 10.0)], name="line")
        net = scalar_net(line, line, lambda eps: lambda t: sqrt(t * t), tag="abs")
        with pytest.raises(errors.DerivativeUndefined, match=r"order-3 jet at x = 0\.0"):
            check_moderate(net, region_box("e0", [-1.0], [1.0], density=9), k_max=3)

    def test_derived_map_names_the_parent(self):
        from mapnets import errors

        with pytest.raises(errors.DerivativeUndefined, match="abs-via-sqrt"):
            self.rep().derivative_map().derivs_upto([0.0], 1)

    def test_chained_map_names_the_chain(self):
        from mapnets import errors
        from mapnets.gmap import ChainedLocalMap

        inner = LocalMap.from_expr(lambda t: t - 1.0, name="shift")
        line = Chart("all", 1, Box([-math.inf], [math.inf]))
        chain = ChainedLocalMap([(line, inner, self.rep())], 1, (1,), name="chain")
        assert chain.try_call([1.0]) == pytest.approx([0.0])
        with pytest.raises(errors.DerivativeUndefined, match="'chain'.*x = 1\\.0"):
            chain.derivs_upto([1.0], 2)


class TestComplexValue:
    """A fractional power of a negative float is complex in Python: the float
    expression has no real value there, so the row reads as undefined, the
    same as where its ``jets.sqrt`` twin's jet fails."""

    def test_a_point_call_reads_none(self):
        assert LocalMap.from_expr(lambda t: t ** 0.5).try_call(np.array([-1.0])) is None

    def test_a_stack_gets_a_nan_row(self):
        got = LocalMap.from_expr(lambda t: t ** 0.5).try_call(np.array([[-1.0], [4.0]]))
        assert np.isnan(got[0, 0]) and got[1, 0] == 2.0

    def test_check_cbounded_escapes_where_the_sqrt_twin_does(self):
        from mapnets.gmap import scalar_net

        line = euclidean_atlas([(-10.0, 10.0)], name="line")
        K = region_box("e0", [-1.0], [1.0], density=5)
        raised = []
        for expr in (lambda t: (t + 0.5) ** 0.5, lambda t: sqrt(t + 0.5)):
            with pytest.raises(MapnetsError) as info:
                check_cbounded(scalar_net(line, line, lambda eps: expr, tag="root"), K)
            raised.append(info.value)
        assert type(raised[0]) is type(raised[1]) is ChartEscape
        assert str(raised[0]) == str(raised[1])
        assert "Point(e0, [-1.])" in str(raised[0])


class TestMultichart:
    def test_components_and_transitions(self):
        atlas = euclidean_multichart({"c0": [(-3.0, 1.0)], "c1": [(-1.0, 3.0)]})
        assert len(set(atlas.components.values())) == 1
        y = transition(atlas, "c0", "c1", [0.0])
        assert y == pytest.approx([0.0])
        rep = check_transitions(atlas, n=100, tau=1e-12)
        assert rep["round_trip"] <= 1e-12

    def test_cocycle_on_triple_overlap(self):
        # three mutually overlapping charts actually exercise the triple rule
        atlas = euclidean_multichart({"c0": [(-3.0, 0.5)], "c1": [(-1.0, 1.5)],
                                      "c2": [(0.0, 3.0)]})
        rep = check_transitions(atlas, n=100, tau=1e-12)
        assert rep["n_cocycle"] > 0
        assert rep["cocycle"] <= 1e-12

    def test_representations_sorted_by_margin(self):
        atlas = euclidean_multichart({"c0": [(-3.0, 1.0)], "c1": [(-1.0, 3.0)]})
        reps = atlas.representations(Point("c0", [0.9]))
        assert reps[0][0] == "c1"  # deeper inside c1 than c0

    def test_smooth_map_representative_consistency(self):
        from mapnets.jets import sin as jsin
        from mapnets.manifold import SmoothMap, check_smooth_map_consistency

        atlas = euclidean_multichart({"c0": [(-3.0, 1.0)], "c1": [(-1.0, 3.0)]})
        good = SmoothMap(atlas, atlas, {
            (a, b): LocalMap.from_expr(lambda t: jsin(t))
            for a in ("c0", "c1") for b in ("c0", "c1")}, name="good")
        assert check_smooth_map_consistency(good, n=30, tau=1e-10) <= 1e-10
        bad = SmoothMap(atlas, atlas, {
            ("c0", "c0"): LocalMap.from_expr(lambda t: jsin(t)),
            ("c0", "c1"): LocalMap.from_expr(lambda t: jsin(t) + 0.1)},
            name="bad")
        with pytest.raises(OutOfDomain):
            check_smooth_map_consistency(bad, n=30, tau=1e-10)


class TestVectorBundleStructure:
    def test_tangent_transitions_are_jacobians(self):
        tm = tangent_bundle(SPHERE)
        x = np.array([1.0, 0.5])
        M = np.asarray(tm.vb_transitions[("north", "south")](x))
        r2 = float(x @ x)
        expect = (np.eye(2) - 2 * np.outer(x, x) / r2) / r2
        assert M == pytest.approx(expect, abs=1e-9)

    def test_vb_cocycle_on_samples(self):
        tm = tangent_bundle(SPHERE)
        fwd = tm.vb_transitions[("north", "south")]
        bwd = tm.vb_transitions[("south", "north")]
        for x in [np.array([1.0, 0.0]), np.array([0.5, -0.8]), np.array([2.0, 2.0])]:
            y = transition(SPHERE, "north", "south", x)
            M = np.asarray(bwd(y)) @ np.asarray(fwd(x))
            assert M == pytest.approx(np.eye(2), abs=1e-7)

    def test_rechart_element_consistent(self):
        tm = tangent_bundle(CIRCLE)
        e = BundleElement("ang0", [2.0], [1.5])
        e2 = tm.rechart(e, "angpi")
        assert e2.x == pytest.approx([2.0 - math.pi])
        assert e2.xi == pytest.approx([1.5])   # angle shifts have unit Jacobian
        assert fiber_norm(tm, e) == pytest.approx(fiber_norm(tm, e2))
