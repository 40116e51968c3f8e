"""Truncated Taylor jets and finite-difference fallbacks.

A ``Jet`` holds the Taylor coefficients ``c[j] = f^(j)(x0)/j!`` of a scalar
function at a point, up to a fixed order, as a tuple of Python floats.
Evaluating a closed-form expression on ``Jet.var(x0, order)`` yields exact
derivatives of the whole composite at ``x0`` in one pass, which is what the
local-map derivative oracles use on one-dimensional charts.  The polymorphic
wrappers (``sin``, ``tanh``, ...) accept either floats or jets so the same
expression holds for both evaluation and differentiation.

The recurrences run in plain float arithmetic; each coefficient of a product
is summed in order j = 0..k.  Overflow is silent: a coefficient becomes inf
or NaN (``exp`` of a jet at 800 reads ``(inf, inf, nan)``) and the sup
reducer counts NaN as inf.  ``wrap_angle`` of a non-finite angle is NaN,
so an overflowing angle chart gives an overflowing sup, not an error.

For maps without an expression form, ``fd_partial`` provides the 4th-order
central-difference fallback with step ``h = 1e-4 * (1 + |x|)``.
"""

from __future__ import annotations

import itertools
import math
import operator

import numpy as np

TWO_PI = 2.0 * math.pi

FD_STEP_SCALE = 1e-4  # step h = FD_STEP_SCALE * (1 + |x|)


class Jet:
    """Taylor polynomial of a scalar function, truncated at a fixed order.

    ``c`` is a tuple of Python floats; every operation returns a new jet.
    """

    __slots__ = ("c",)

    def __init__(self, coeffs):
        self.c = tuple(map(float, coeffs))

    @classmethod
    def var(cls, x0: float, order: int) -> "Jet":
        return _jet(((float(x0), 1.0) + (0.0,) * (order - 1))[: order + 1])

    @classmethod
    def const(cls, v: float, order: int) -> "Jet":
        return _jet((float(v),) + (0.0,) * order)

    @property
    def order(self) -> int:
        return len(self.c) - 1

    @property
    def value(self) -> float:
        return self.c[0]

    def derivatives(self) -> np.ndarray:
        """Return [f, f', f'', ...]; entry j is c[j] * j!."""
        return np.array([a * f for a, f in zip(self.c, factorials(self.order))])

    # -- ring operations -------------------------------------------------
    # A scalar operand s acts as the constant jet (s, 0, ..., 0).  Products
    # and quotients keep the constant jet's zero terms: c[j] * 0.0 is NaN for
    # an infinite or NaN c[j], so a non-finite coefficient turns every higher
    # one into NaN, as with a jet operand.

    def __add__(self, other):
        c = self.c
        if isinstance(other, Jet):
            return _jet(tuple([a + b for a, b in zip(c, other.c)]))
        return _jet((c[0] + float(other),) + c[1:])

    __radd__ = __add__

    def __neg__(self):
        return _jet(tuple([-a for a in self.c]))

    def __sub__(self, other):
        c = self.c
        if isinstance(other, Jet):
            return _jet(tuple([a - b for a, b in zip(c, other.c)]))
        return _jet((c[0] - float(other),) + c[1:])

    def __rsub__(self, other):
        c = self.c
        return _jet((float(other) - c[0],) + tuple([-a for a in c[1:]]))

    def __mul__(self, other):
        a = self.c
        if isinstance(other, Jet):
            return _jet(_mul(a, other.c))
        s = float(other)
        out = []
        z = 0.0  # sum of c[j] * 0.0 over the lower orders
        for x in a:
            out.append(z + x * s)
            z += x * 0.0
        return _jet(tuple(out))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return _jet(_div(self.c, other.c))
        s = float(other)
        if s == 0.0:
            raise ZeroDivisionError("jet division by zero-valued jet")
        out = []
        z = 0.0  # sum of q[j] * 0.0 over the lower orders
        for x in self.c:
            q = (x - z) / s
            out.append(q)
            z += q * 0.0
        return _jet(tuple(out))

    def __rtruediv__(self, other):
        return _jet(_div((float(other),) + (0.0,) * self.order, self.c))

    def __pow__(self, p):
        if isinstance(p, int):
            if p == 0:
                return Jet.const(1.0, self.order)
            if p < 0:
                return 1.0 / (self ** (-p))
            out = self
            for _ in range(p - 1):
                out = out * self
            return out
        return (self.log() * float(p)).exp()

    # -- elementary functions (standard Taylor recurrences) --------------

    def exp(self) -> "Jet":
        c = self.c
        e = [math.exp(c[0]) if c[0] < 709.0 else math.inf]
        for k in range(1, len(c)):
            acc = 0.0
            for j in range(1, k + 1):
                acc += j * c[j] * e[k - j]
            e.append(acc / k)
        return _jet(tuple(e))

    def log(self) -> "Jet":
        c = self.c
        c0 = c[0]
        if c0 <= 0.0:
            raise ValueError("jet log of non-positive value")
        l = [math.log(c0)]
        for k in range(1, len(c)):
            acc = k * c[k]
            for j in range(1, k):
                acc -= j * l[j] * c[k - j]
            l.append(acc / (k * c0))
        return _jet(tuple(l))

    def sqrt(self) -> "Jet":
        return self ** 0.5

    def sin(self) -> "Jet":
        return self._sincos()[0]

    def cos(self) -> "Jet":
        return self._sincos()[1]

    def _sincos(self):
        c = self.c
        s = [math.sin(c[0])]
        co = [math.cos(c[0])]
        for k in range(1, len(c)):
            sa = 0.0
            ca = 0.0
            for j in range(1, k + 1):
                sa += j * c[j] * co[k - j]
                ca += j * c[j] * s[k - j]
            s.append(sa / k)
            co.append(-ca / k)
        return _jet(tuple(s)), _jet(tuple(co))

    def tanh(self) -> "Jet":
        # t' = (1 - t^2) u'; compute t and w = 1 - t^2 jointly order by order.
        c = self.c
        t0 = math.tanh(c[0])
        t = [t0]
        w = [1.0 - t0 * t0]
        for k in range(1, len(c)):
            acc = 0.0
            for j in range(1, k + 1):
                acc += j * c[j] * w[k - j]
            t.append(acc / k)
            sq = t0 * t[k]
            for j in range(1, k + 1):
                sq += t[j] * t[k - j]
            w.append(-sq)
        return _jet(tuple(t))

    def atan(self) -> "Jet":
        # a' = u' / (1 + u^2)
        c = self.c
        sq = _mul(c, c)
        den = (1.0 + sq[0],) + sq[1:]
        du = tuple([c[j] * j for j in range(1, len(c))]) + (0.0,)
        da = _div(du, den)
        return _jet((math.atan(c[0]),) + tuple([da[k - 1] / k for k in range(1, len(c))]))

    def __repr__(self):
        return f"Jet({list(self.c)})"


_new = object.__new__


def _jet(c: tuple) -> Jet:
    """Wrap a tuple of floats built in this module (no copy, no conversion)."""
    j = _new(Jet)
    j.c = c
    return j


def _mul(a: tuple, b: tuple) -> tuple:
    """Cauchy product, each coefficient summed in order j = 0..k."""
    out = []
    for k in range(len(a)):
        acc = a[0] * b[k]
        for j in range(1, k + 1):
            acc += a[j] * b[k - j]
        out.append(acc)
    return tuple(out)


def _div(a: tuple, b: tuple) -> tuple:
    """Quotient series q with q * b = a."""
    b0 = b[0]
    if b0 == 0.0:
        raise ZeroDivisionError("jet division by zero-valued jet")
    q = []
    for k in range(len(a)):
        acc = a[k]
        for j in range(k):
            acc -= q[j] * b[k - j]
        q.append(acc / b0)
    return tuple(q)


# 0! .. 170! by the float recurrence k! = (k-1)! * k; 171! overflows a double.
_FACTORIALS = tuple(itertools.accumulate(range(1, 171), operator.mul, initial=1.0))


def factorials(order: int) -> tuple:
    """(0!, 1!, ..., order!) as floats; inf beyond 170!."""
    if order < len(_FACTORIALS):
        return _FACTORIALS[: order + 1]
    return _FACTORIALS + (math.inf,) * (order + 1 - len(_FACTORIALS))


# -- polymorphic wrappers: accept float or Jet ---------------------------


def sin(x):
    return x.sin() if isinstance(x, Jet) else math.sin(x)


def cos(x):
    return x.cos() if isinstance(x, Jet) else math.cos(x)


def tanh(x):
    return x.tanh() if isinstance(x, Jet) else math.tanh(x)


def exp(x):
    if isinstance(x, Jet):
        return x.exp()
    return math.exp(x) if x < 709.0 else math.inf


def log(x):
    return x.log() if isinstance(x, Jet) else math.log(x)


def sqrt(x):
    return x.sqrt() if isinstance(x, Jet) else math.sqrt(x)


def atan(x):
    return x.atan() if isinstance(x, Jet) else math.atan(x)


def value_of(x) -> float:
    return x.value if isinstance(x, Jet) else float(x)


def wrap_angle(x):
    """Reduce an angle to (-pi, pi].

    On a jet only the constant term moves (the shift is locally constant), so
    all derivatives pass through unchanged; the wrap discontinuity sits at odd
    multiples of pi, which angle-chart domains exclude.  A non-finite angle
    (an overflowed expression) wraps to NaN, which the sup reducer counts as
    overflow.
    """
    if isinstance(x, Jet):
        w = wrap_angle(x.value)
        if w == x.value:
            return x
        return _jet((w,) + x.c[1:])
    v = float(x)
    if not math.isfinite(v):
        return math.nan
    w = v - TWO_PI * math.floor((v + math.pi) / TWO_PI)
    if w <= -math.pi:  # boundary representative is +pi, not -pi
        w += TWO_PI
    return w


def bump(x, center=0.0, width=1.0):
    """Smooth compactly supported bump, peak 1 at ``center``, support width*2."""
    s = (x - center) / width
    v = value_of(s)
    if abs(v) >= 1.0 - 1e-12:
        return Jet.const(0.0, x.order) if isinstance(x, Jet) else 0.0
    return exp(1.0 - 1.0 / (1.0 - s * s))


# -- finite-difference fallback ------------------------------------------


def fd_step(x: np.ndarray) -> float:
    return FD_STEP_SCALE * (1.0 + float(np.linalg.norm(x)))


def fd_partial(g, x: np.ndarray, axis: int, h: float | None = None) -> np.ndarray:
    """4th-order central difference of ``g`` along ``axis`` at ``x``.

    ``g`` maps an (n,) array to an ndarray; the result has g's shape.
    """
    x = np.asarray(x, dtype=float)
    if h is None:
        h = fd_step(x)
    e = np.zeros_like(x)
    e[axis] = 1.0
    gp2 = np.asarray(g(x + 2 * h * e), dtype=float)
    gp1 = np.asarray(g(x + h * e), dtype=float)
    gm1 = np.asarray(g(x - h * e), dtype=float)
    gm2 = np.asarray(g(x - 2 * h * e), dtype=float)
    if not np.isfinite((gp2, gp1, gm1, gm2)).all():
        return np.full(gp1.shape, np.inf)
    return (-gp2 + 8.0 * gp1 - 8.0 * gm1 + gm2) / (12.0 * h)
