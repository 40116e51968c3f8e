"""Float-coefficient jets against the numpy jet they replaced.

``RefJet`` below is the numpy ``Jet`` body (coefficients in an ndarray, one
``np.dot`` per Cauchy-product coefficient), kept as the reference, except
that the order-0 coefficient of ``sqrt`` and ``**`` is the float
expression's (``math.sqrt`` and float ``**``, an overflow reading inf), as
in ``mapnets.jets``.  Two flavours are compared with ``mapnets.jets``:

* ``SeqRefJet`` sums each dot product sequentially, j = 0..k, the order the
  float jet uses.  With that one change every operation and wrapper must
  give exactly the same coefficients (NaN in the same places; the sign of a
  zero may differ) and raise the same exceptions, on any float inputs.
* ``RefJet`` keeps ``np.dot``.  Numpy's loop for the reversed operand is a
  fused multiply-add chain, so a Cauchy product or the ``tanh`` recurrence
  may differ from the sequential sum by rounding.  Those coefficients must
  agree within 4 ulp of the sum of the absolute terms and be non-finite in
  the same places.  Inside the fused loop a product that overflows stays
  exact, so one side may read NaN (inf - inf) where the other reads inf;
  the sup reducer (``sweep_stacks``) counts both as overflow.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapnets import jets
from mapnets.jets import Jet

# -- numpy reference ---------------------------------------------------------


class RefJet:
    """The numpy jet: coefficients c[j] = f^(j)(x0)/j! in a float ndarray."""

    __slots__ = ("c",)
    dot = staticmethod(np.dot)

    def __init__(self, coeffs):
        self.c = np.asarray(coeffs, dtype=float)

    @classmethod
    def var(cls, x0, order):
        c = np.zeros(order + 1)
        c[0] = x0
        if order >= 1:
            c[1] = 1.0
        return cls(c)

    @classmethod
    def const(cls, v, order):
        c = np.zeros(order + 1)
        c[0] = v
        return cls(c)

    @property
    def order(self):
        return len(self.c) - 1

    @property
    def value(self):
        return float(self.c[0])

    def derivatives(self):
        out = np.ones(self.order + 1)
        for k in range(2, self.order + 1):
            out[k] = out[k - 1] * k
        return self.c * out

    def _lift(self, other):
        if isinstance(other, RefJet):
            return other
        return type(self).const(float(other), self.order)

    def __add__(self, other):
        return type(self)(self.c + self._lift(other).c)

    __radd__ = __add__

    def __neg__(self):
        return type(self)(-self.c)

    def __sub__(self, other):
        return type(self)(self.c - self._lift(other).c)

    def __rsub__(self, other):
        return type(self)(self._lift(other).c - self.c)

    def __mul__(self, other):
        o = self._lift(other)
        K = self.order
        out = np.zeros(K + 1)
        for k in range(K + 1):
            out[k] = self.dot(self.c[: k + 1], o.c[k::-1])
        return type(self)(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o.c[0] == 0.0:
            raise ZeroDivisionError("jet division by zero-valued jet")
        K = self.order
        q = np.zeros(K + 1)
        for k in range(K + 1):
            acc = self.c[k]
            for j in range(k):
                acc -= q[j] * o.c[k - j]
            q[k] = acc / o.c[0]
        return type(self)(q)

    def __rtruediv__(self, other):
        return self._lift(other) / self

    def __pow__(self, p):
        if isinstance(p, int):
            if p == 0:
                return type(self).const(1.0, self.order)
            if p < 0:
                out = 1.0 / (self ** (-p))
            else:
                out = self
                for _ in range(p - 1):
                    out = out * self
        else:
            out = (self.log() * float(p)).exp()
        try:  # the order-0 term is the float expression's, an overflow inf
            c0 = self.c[0] ** p
        except OverflowError:
            c0 = -math.inf if self.c[0] < 0.0 and p % 2 == 1 else math.inf
        return out._with_value(c0)

    def _with_value(self, c0):
        c = self.c.copy()
        c[0] = c0
        return type(self)(c)

    def exp(self):
        K = self.order
        e = np.zeros(K + 1)
        e[0] = math.exp(self.c[0]) if self.c[0] < 709.0 else math.inf
        for k in range(1, K + 1):
            acc = 0.0
            for j in range(1, k + 1):
                acc += j * self.c[j] * e[k - j]
            e[k] = acc / k
        return type(self)(e)

    def log(self):
        if self.c[0] <= 0.0:
            raise ValueError("jet log of non-positive value")
        K = self.order
        l = np.zeros(K + 1)
        l[0] = math.log(self.c[0])
        for k in range(1, K + 1):
            acc = k * self.c[k]
            for j in range(1, k):
                acc -= j * l[j] * self.c[k - j]
            l[k] = acc / (k * self.c[0])
        return type(self)(l)

    def sqrt(self):
        return (self ** 0.5)._with_value(math.sqrt(self.c[0]))

    def sin(self):
        return self._sincos()[0]

    def cos(self):
        return self._sincos()[1]

    def _sincos(self):
        K = self.order
        s = np.zeros(K + 1)
        co = np.zeros(K + 1)
        s[0] = math.sin(self.c[0])
        co[0] = math.cos(self.c[0])
        for k in range(1, K + 1):
            sa = 0.0
            ca = 0.0
            for j in range(1, k + 1):
                sa += j * self.c[j] * co[k - j]
                ca += j * self.c[j] * s[k - j]
            s[k] = sa / k
            co[k] = -ca / k
        return type(self)(s), type(self)(co)

    def tanh(self):
        K = self.order
        t = np.zeros(K + 1)
        w = np.zeros(K + 1)
        t[0] = math.tanh(self.c[0])
        w[0] = 1.0 - t[0] * t[0]
        for k in range(1, K + 1):
            acc = 0.0
            for j in range(1, k + 1):
                acc += j * self.c[j] * w[k - j]
            t[k] = acc / k
            w[k] = -self.dot(t[: k + 1], t[k::-1])
        return type(self)(t)

    def atan(self):
        K = self.order
        den = 1.0 + self * self
        a = np.zeros(K + 1)
        a[0] = math.atan(self.c[0])
        du = type(self)(np.append(self.c[1:] * np.arange(1, K + 1), 0.0))
        da = du / den
        for k in range(1, K + 1):
            a[k] = da.c[k - 1] / k
        return type(self)(a)


def seq_dot(a, b):
    acc = 0.0
    for x, y in zip(a, b):
        acc += x * y
    return acc


class SeqRefJet(RefJet):
    __slots__ = ()
    dot = staticmethod(seq_dot)


def ref_wrap_angle(x):
    w = jets.wrap_angle(x.value)
    if w == x.value:
        return x
    c = x.c.copy()
    c[0] = w
    return type(x)(c)


def ref_bump(x, center=0.0, width=1.0):
    s = (x - center) / width
    if abs(s.value) >= 1.0 - 1e-12:
        return type(x).const(0.0, x.order)
    return (1.0 - 1.0 / (1.0 - s * s)).exp()


# -- the operations under test ------------------------------------------------
# Each takes (jet, scalar) and uses the same operator or wrapper on either jet
# class; the scalar is the second operand where there is one.

SCALAR_OPS = {
    "add": lambda j, s: j + s, "radd": lambda j, s: s + j,
    "sub": lambda j, s: j - s, "rsub": lambda j, s: s - j,
    "mul": lambda j, s: j * s, "rmul": lambda j, s: s * j,
    "div": lambda j, s: j / s, "rdiv": lambda j, s: s / j,
}
JET_OPS = {
    "add": lambda a, b: a + b, "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b, "div": lambda a, b: a / b,
}
UNARY_OPS = {
    "neg": lambda j: -j, "exp": lambda j: j.exp(), "log": lambda j: j.log(),
    "sqrt": lambda j: j.sqrt(), "sin": lambda j: j.sin(), "cos": lambda j: j.cos(),
    "tanh": lambda j: j.tanh(), "atan": lambda j: j.atan(),
    **{f"pow{p}": (lambda j, p=p: j ** p) for p in (-3, -1, 0, 1, 2, 3, 4)},
    **{f"pow{p}": (lambda j, p=p: j ** p) for p in (0.5, -1.5, 2.0)},
}
WRAPPERS = {
    name: (getattr(jets, name), getattr(RefJet, name))
    for name in ("sin", "cos", "tanh", "exp", "log", "sqrt", "atan")
}
WRAPPERS["wrap_angle"] = (jets.wrap_angle, ref_wrap_angle)
WRAPPERS["bump"] = (jets.bump, ref_bump)
WRAPPERS["bump_shifted"] = (lambda j: jets.bump(j, 0.25, 0.4),
                            lambda j: ref_bump(j, 0.25, 0.4))


def outcome(fn, *args):
    """('ok', coefficients) or ('raise', exception type)."""
    with np.errstate(all="ignore"):
        try:
            out = fn(*args)
        except (ZeroDivisionError, ValueError, OverflowError) as exc:
            return "raise", type(exc)
    return "ok", tuple(float(v) for v in out.c)


def same_coeffs(a, b):
    return len(a) == len(b) and all(
        (math.isnan(x) and math.isnan(y)) or x == y for x, y in zip(a, b))


def assert_exact(float_out, ref_out):
    assert float_out[0] == ref_out[0], (float_out, ref_out)
    if float_out[0] == "raise":
        assert float_out[1] is ref_out[1]
    else:
        assert same_coeffs(float_out[1], ref_out[1]), (float_out, ref_out)


# -- strategies ---------------------------------------------------------------

SPECIAL = [0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300, math.inf, -math.inf, math.nan,
           1.0, -1.0, 0.5, 2.0]
MODERATE = st.floats(min_value=-10.0, max_value=10.0)
ANY_FLOAT = st.one_of(st.sampled_from(SPECIAL), MODERATE, st.floats())
TAME_FLOAT = st.one_of(st.sampled_from(SPECIAL), MODERATE)
ORDERS = st.integers(min_value=0, max_value=4)


@st.composite
def coeff_lists(draw, order, values=ANY_FLOAT):
    """Coefficients of a variable or of an arbitrary jet of the given order."""
    if draw(st.booleans()):
        c = [0.0] * (order + 1)
        c[0] = draw(values)
        if order >= 1:
            c[1] = 1.0
        return c
    return [draw(values) for _ in range(order + 1)]


@st.composite
def jet_and_scalar(draw, values=ANY_FLOAT):
    order = draw(ORDERS)
    return draw(coeff_lists(order, values)), draw(values)


@st.composite
def jet_pair(draw, values=ANY_FLOAT):
    order = draw(ORDERS)
    return draw(coeff_lists(order, values)), draw(coeff_lists(order, values))


def both(coeffs, cls):
    return Jet(coeffs), cls(coeffs)


# -- exact agreement with the sequential reference ----------------------------


@pytest.mark.parametrize("name", sorted(SCALAR_OPS))
@given(data=jet_and_scalar())
@settings(max_examples=80, deadline=None)
def test_scalar_operand_exact(name, data):
    coeffs, s = data
    op = SCALAR_OPS[name]
    j, r = both(coeffs, SeqRefJet)
    assert_exact(outcome(op, j, s), outcome(op, r, s))


@pytest.mark.parametrize("name", sorted(JET_OPS))
@given(data=jet_pair())
@settings(max_examples=80, deadline=None)
def test_jet_operand_exact(name, data):
    a, b = data
    op = JET_OPS[name]
    ja, ra = both(a, SeqRefJet)
    jb, rb = both(b, SeqRefJet)
    assert_exact(outcome(op, ja, jb), outcome(op, ra, rb))


@pytest.mark.parametrize("name", sorted(UNARY_OPS))
@given(data=jet_and_scalar())
@settings(max_examples=80, deadline=None)
def test_unary_exact(name, data):
    coeffs, _ = data
    op = UNARY_OPS[name]
    j, r = both(coeffs, SeqRefJet)
    assert_exact(outcome(op, j), outcome(op, r))


@pytest.mark.parametrize("name", sorted(WRAPPERS))
@given(data=jet_and_scalar())
@settings(max_examples=80, deadline=None)
def test_wrapper_exact(name, data):
    coeffs, _ = data
    fn, ref = WRAPPERS[name]
    j, r = both(coeffs, SeqRefJet)
    assert_exact(outcome(fn, j), outcome(ref, r))


def s1_jump_like(t, tanh, atan, wrap, s):
    u = tanh(t * s) * 2.0 + t * t
    return wrap(atan(u) - 1.0)


@given(data=jet_and_scalar())
@settings(max_examples=80, deadline=None)
def test_composite_expression_exact(data):
    # A scaled tanh under atan and an angle wrap, as in the angle-valued nets.
    coeffs, s = data
    j, r = both(coeffs, SeqRefJet)
    assert_exact(outcome(s1_jump_like, j, jets.tanh, jets.atan, jets.wrap_angle, s),
                 outcome(s1_jump_like, r, RefJet.tanh, RefJet.atan, ref_wrap_angle, s))


@given(x0=ANY_FLOAT, v=ANY_FLOAT, order=ORDERS, s=ANY_FLOAT)
@settings(max_examples=200, deadline=None)
def test_var_const_derivatives_and_scalar_mul_equal_numpy(x0, v, order, s):
    # No dot product is rounded here, so even numpy's fused loop agrees.
    pairs = [(Jet.var(x0, order), RefJet.var(x0, order)),
             (Jet.const(v, order), RefJet.const(v, order))]
    for j, r in pairs:
        assert same_coeffs(j.c, tuple(r.c.tolist()))
        with np.errstate(all="ignore"):
            assert same_coeffs(tuple(j.derivatives().tolist()),
                               tuple(r.derivatives().tolist()))
            assert same_coeffs(outcome(lambda a: a * s, j)[1], outcome(lambda a: a * s, r)[1])
            assert same_coeffs(outcome(lambda a: s * a, j)[1], outcome(lambda a: s * a, r)[1])
    assert isinstance(Jet.var(x0, order).derivatives(), np.ndarray)


def test_coefficients_are_float_tuples_from_any_sequence():
    for coeffs in ([1, 2, 3], (1.0, 2.0, 3.0), np.array([1.0, 2.0, 3.0]), np.arange(1, 4)):
        j = Jet(coeffs)
        assert j.c == (1.0, 2.0, 3.0)
        assert all(type(v) is float for v in j.c)
    assert all(type(v) is float for v in (Jet.var(np.float64(2.0), 2) * 3).c)


def test_factorials_follow_the_float_recurrence():
    ref = np.ones(173)
    with np.errstate(over="ignore"):
        for k in range(2, 173):
            ref[k] = ref[k - 1] * k
    assert jets.factorials(172) == tuple(ref.tolist())
    assert jets.factorials(3) == (1.0, 1.0, 2.0, 6.0)
    assert math.isfinite(jets.factorials(170)[-1]) and math.isinf(jets.factorials(171)[-1])
    d = Jet.var(1.0, 172).derivatives()
    with np.errstate(all="ignore"):
        assert same_coeffs(tuple(d.tolist()), tuple(RefJet.var(1.0, 172).derivatives().tolist()))


# -- within rounding of numpy's fused dot products ------------------------------


def close_to_numpy(got, want, scale):
    """Non-finite in the same places; finite values within 4 ulp of the scale."""
    for g, w, m in zip(got, want, scale):
        assert math.isfinite(g) == math.isfinite(w), (got, want)
        if math.isfinite(w):
            assert abs(g - w) <= 4 * math.ulp(m), (got, want, scale)


@given(data=jet_pair(TAME_FLOAT))
@settings(max_examples=300, deadline=None)
def test_product_within_4ulp_of_numpy(data):
    a, b = data
    got = outcome(JET_OPS["mul"], Jet(a), Jet(b))[1]
    want = outcome(JET_OPS["mul"], RefJet(a), RefJet(b))[1]
    with np.errstate(all="ignore"):
        scale = outcome(JET_OPS["mul"], SeqRefJet(np.abs(a)), SeqRefJet(np.abs(b)))[1]
    close_to_numpy(got, want, scale)


def tanh_scale(c):
    """Majorant of the tanh recurrence: every term replaced by its absolute value."""
    t0 = math.tanh(c[0])
    T, W = [abs(t0)], [abs(1.0 - t0 * t0)]
    for k in range(1, len(c)):
        T.append(sum(j * abs(c[j]) * W[k - j] for j in range(1, k + 1)) / k)
        W.append(sum(T[j] * T[k - j] for j in range(k + 1)))
    return T


@given(data=jet_and_scalar(TAME_FLOAT))
@settings(max_examples=300, deadline=None)
def test_tanh_within_4ulp_of_numpy(data):
    coeffs, _ = data
    got = outcome(UNARY_OPS["tanh"], Jet(coeffs))
    want = outcome(UNARY_OPS["tanh"], RefJet(coeffs))
    assert got[0] == want[0]
    if got[0] == "ok":
        with np.errstate(all="ignore"):
            close_to_numpy(got[1], want[1], tanh_scale(coeffs))
