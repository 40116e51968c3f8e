"""Truncated Taylor jets and finite-difference fallbacks.

A ``Jet`` holds the Taylor coefficients ``c[j] = f^(j)(x0)/j!`` of a scalar
function at a point, up to a fixed order.  Evaluating a closed-form expression
on ``Jet.var(x0, order)`` yields exact derivatives of the whole composite at
``x0`` in one pass, which is what the local-map derivative oracles use on
one-dimensional charts.  The polymorphic wrappers (``sin``, ``tanh``, ...)
accept either floats or jets so the same expression holds for both evaluation
and differentiation.

For maps without an expression form, ``fd_partial`` provides the 4th-order
central-difference fallback with step ``h = 1e-4 * (1 + |x|)``.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi

FD_STEP_SCALE = 1e-4  # step h = FD_STEP_SCALE * (1 + |x|)


class Jet:
    """Taylor polynomial of a scalar function, truncated at a fixed order."""

    __slots__ = ("c",)

    def __init__(self, coeffs):
        self.c = np.asarray(coeffs, dtype=float)

    @classmethod
    def var(cls, x0: float, order: int) -> "Jet":
        c = np.zeros(order + 1)
        c[0] = x0
        if order >= 1:
            c[1] = 1.0
        return cls(c)

    @classmethod
    def const(cls, v: float, order: int) -> "Jet":
        c = np.zeros(order + 1)
        c[0] = v
        return cls(c)

    @property
    def order(self) -> int:
        return len(self.c) - 1

    @property
    def value(self) -> float:
        return float(self.c[0])

    def derivatives(self) -> np.ndarray:
        """Return [f, f', f'', ...]; entry j is c[j] * j!."""
        return self.c * _factorials(self.order)

    def _lift(self, other) -> "Jet":
        if isinstance(other, Jet):
            return other
        return Jet.const(float(other), self.order)

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        o = self._lift(other)
        return Jet(self.c + o.c)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.c)

    def __sub__(self, other):
        o = self._lift(other)
        return Jet(self.c - o.c)

    def __rsub__(self, other):
        o = self._lift(other)
        return Jet(o.c - self.c)

    def __mul__(self, other):
        o = self._lift(other)
        K = self.order
        out = np.zeros(K + 1)
        for k in range(K + 1):
            out[k] = np.dot(self.c[: k + 1], o.c[k::-1])
        return Jet(out)

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
        return Jet(q)

    def __rtruediv__(self, other):
        return self._lift(other) / self

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
        K = self.order
        e = np.zeros(K + 1)
        e[0] = math.exp(self.c[0]) if self.c[0] < 709.0 else math.inf
        for k in range(1, K + 1):
            acc = 0.0
            for j in range(1, k + 1):
                acc += j * self.c[j] * e[k - j]
            e[k] = acc / k
        return Jet(e)

    def log(self) -> "Jet":
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
        return Jet(l)

    def sqrt(self) -> "Jet":
        return self ** 0.5

    def sin(self) -> "Jet":
        return self._sincos()[0]

    def cos(self) -> "Jet":
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
        return Jet(s), Jet(co)

    def tanh(self) -> "Jet":
        # t' = (1 - t^2) u'; compute t and w = 1 - t^2 jointly order by order.
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
            w[k] = -np.dot(t[: k + 1], t[k::-1])
        return Jet(t)

    def atan(self) -> "Jet":
        # a' = u' / (1 + u^2)
        K = self.order
        den = 1.0 + self * self
        a = np.zeros(K + 1)
        a[0] = math.atan(self.c[0])
        du = Jet(np.append(self.c[1:] * np.arange(1, K + 1), 0.0))
        da = du / den
        for k in range(1, K + 1):
            a[k] = da.c[k - 1] / k
        return Jet(a)

    def __repr__(self):
        return f"Jet({np.array2string(self.c, precision=6)})"


def _factorials(order: int) -> np.ndarray:
    out = np.ones(order + 1)
    for k in range(2, order + 1):
        out[k] = out[k - 1] * k
    return out


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
    multiples of pi, which angle-chart domains exclude.
    """
    if isinstance(x, Jet):
        w = wrap_angle(x.value)
        if w == x.value:
            return x
        c = x.c.copy()
        c[0] = w
        return Jet(c)
    v = float(x)
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
