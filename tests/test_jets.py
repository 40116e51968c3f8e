"""Derivative oracle: jet arithmetic against closed forms and stencils."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapnets.jets import Jet, bump, cos, exp, fd_partial, log, sin, tanh, wrap_angle


def test_var_and_const():
    j = Jet.var(2.0, 3)
    assert j.value == 2.0
    assert list(j.derivatives()) == [2.0, 1.0, 0.0, 0.0]
    c = Jet.const(5.0, 3)
    assert list(c.derivatives()) == [5.0, 0.0, 0.0, 0.0]


def test_polynomial_derivatives_exact():
    # f(x) = x^3 - 2x at x=1.5: f'=3x^2-2, f''=6x, f'''=6
    x = 1.5
    j = Jet.var(x, 3)
    f = j * j * j - 2.0 * j
    d = f.derivatives()
    assert d == pytest.approx([x**3 - 2 * x, 3 * x**2 - 2, 6 * x, 6.0], abs=1e-12)


def test_tanh_derivatives_closed_form():
    x = 0.7
    t = math.tanh(x)
    s2 = 1 - t * t
    d = tanh(Jet.var(x, 3)).derivatives()
    expected = [t, s2, -2 * t * s2, s2 * (6 * t * t - 2)]
    assert d == pytest.approx(expected, rel=1e-12)


def test_sin_cos_exp_log_derivatives():
    x = 0.4
    assert sin(Jet.var(x, 4)).derivatives() == pytest.approx(
        [math.sin(x), math.cos(x), -math.sin(x), -math.cos(x), math.sin(x)], abs=1e-12)
    assert exp(Jet.var(x, 3)).derivatives() == pytest.approx([math.exp(x)] * 4, rel=1e-12)
    d = log(Jet.var(x, 3)).derivatives()
    assert d == pytest.approx([math.log(x), 1 / x, -1 / x**2, 2 / x**3], rel=1e-12)


def test_division_and_pow():
    x = 1.3
    j = Jet.var(x, 3)
    d = (1.0 / j).derivatives()
    assert d == pytest.approx([1 / x, -1 / x**2, 2 / x**3, -6 / x**4], rel=1e-12)
    d2 = (j**0.5).derivatives()
    assert d2[1] == pytest.approx(0.5 * x**-0.5, rel=1e-10)


def test_composition_chain_rule():
    # d/dx tanh(x/e) at x=0: (1/e) * sech^2(0) = 1/e
    e = 0.125
    d = tanh(Jet.var(0.0, 1) / e).derivatives()
    assert d[1] == pytest.approx(1.0 / e, rel=1e-12)


@given(st.floats(min_value=0.1, max_value=5.0),
       st.floats(min_value=-2.0, max_value=2.0))
@settings(max_examples=100, deadline=None)
def test_exp_log_roundtrip(x, _unused):
    d = exp(log(Jet.var(x, 3))).derivatives()
    assert d == pytest.approx([x, 1.0, 0.0, 0.0], abs=1e-9)


@given(st.floats(min_value=-2.0, max_value=2.0))
@settings(max_examples=100, deadline=None)
def test_product_rule(x):
    f = sin(Jet.var(x, 2))
    g = exp(Jet.var(x, 2))
    d = (f * g).derivatives()
    # (fg)' = f'g + fg'
    expect = math.cos(x) * math.exp(x) + math.sin(x) * math.exp(x)
    assert d[1] == pytest.approx(expect, rel=1e-10, abs=1e-12)


def test_wrap_angle_scalar_and_jet():
    assert wrap_angle(3 * math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-math.pi - 0.1) == pytest.approx(math.pi - 0.1)
    j = Jet.var(7.0, 2)
    w = wrap_angle(sin(j) + 7.0)
    # constant shift: derivatives pass through, value reduced to (-pi, pi]
    assert -math.pi < w.value <= math.pi
    assert w.derivatives()[1] == pytest.approx(math.cos(7.0), rel=1e-12)


def test_bump_support_and_smoothness():
    assert bump(2.0, center=0.0, width=1.0) == 0.0
    assert bump(0.0) == pytest.approx(1.0)
    j = bump(Jet.var(1.5, 3))
    assert list(j.derivatives()) == [0.0, 0.0, 0.0, 0.0]
    inside = bump(Jet.var(0.3, 2))
    assert inside.value > 0


def test_fd_partial_fourth_order():
    g = lambda x: np.array([math.sin(x[0])])
    d = fd_partial(g, np.array([0.6]), axis=0)
    assert d[0] == pytest.approx(math.cos(0.6), abs=1e-10)


def test_fd_partial_vector_input():
    g = lambda x: np.array([x[0] * x[1], x[1] ** 2])
    d = fd_partial(g, np.array([1.0, 2.0]), axis=1)
    assert d == pytest.approx([1.0, 4.0], abs=1e-9)


class TestOverflowStaysQuiet:
    """Jet overflow becomes inf/NaN without a numpy RuntimeWarning; the sup
    reducer counts NaN as overflow."""

    def moderate(self, expr):
        from mapnets.gallery import get_atlas
        from mapnets.gmap import check_moderate, scalar_net
        from mapnets.manifold import region_box

        line = get_atlas("line")
        net = scalar_net(line, line, lambda eps: expr)
        return check_moderate(net, region_box("e0", [-1.0], [1.0], density=9), k_max=3)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_exp_beyond_709_gives_inf_inf_nan(self):
        d = exp(Jet.var(800.0, 2)).derivatives()
        assert d[0] == math.inf and d[1] == math.inf and math.isnan(d[2])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_tanh_of_huge_slope_fails_moderateness(self):
        from mapnets.asymptotics import Status

        v = self.moderate(lambda t: tanh(1e200 * t))
        assert v.status is Status.FAIL
        assert v.witness.value == math.inf and v.witness.location.coords.tolist() == [0.0]
        assert v.details["k=3|K[0]|e0->e0"].status is Status.FAIL

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nan_derivative_counts_as_overflow(self):
        # tanh(exp(800 t)) is 1.0 at t = 1, but its jet there is
        # (1, NaN, ...): exp gives (inf, inf, NaN, ...) and tanh multiplies
        # inf by w = 1 - 1 = 0.
        from mapnets.asymptotics import Status

        j = tanh(exp(Jet.var(1.0, 3) * 800.0))
        assert j.value == 1.0 and all(math.isnan(v) for v in j.c[1:])
        v = self.moderate(lambda t: tanh(exp(800.0 * t)))
        assert v.status is Status.FAIL
        k1 = v.details["k=1|K[0]|e0->e0"]
        assert k1.status is Status.FAIL and np.all(k1.series.sup == math.inf)
        assert v.witness.value == math.inf

    @pytest.mark.parametrize("angle", [math.inf, -math.inf, math.nan])
    def test_wrap_angle_of_non_finite_float_is_nan(self, angle):
        assert math.isnan(wrap_angle(angle))

    @pytest.mark.parametrize("angle", [math.inf, -math.inf, math.nan])
    def test_wrap_angle_of_non_finite_jet_keeps_higher_coefficients(self, angle):
        j = Jet((angle, 2.0, -3.0))
        w = wrap_angle(j)
        assert math.isnan(w.c[0]) and w.c[1:] == (2.0, -3.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_angle_chart_with_overflowing_angle_has_nan_value(self):
        # exp(800 t) overflows at t = 1: the angle chart's jet is (NaN, inf, NaN),
        # an overflowing sample rather than an undefined derivative
        from mapnets.manifold import LocalMap

        rep = LocalMap.from_expr(lambda t: wrap_angle(exp(800.0 * t) - math.pi),
                                 name="overflowing-angle")
        ts = rep.derivs_upto([1.0], 2)
        assert math.isnan(float(ts[0].ravel()[0]))
        assert float(ts[1].ravel()[0]) == math.inf
