"""Truncated Taylor jets and finite-difference fallbacks.

A ``Jet`` holds the Taylor coefficients ``c[j] = f^(j)(x0)/j!`` of a scalar
function at a point, up to a fixed order, as a tuple of Python floats, or
at N points at once as ``(N,)`` arrays (a float entry broadcasts).
Evaluating a closed-form expression on ``Jet.var(x0, order)`` yields exact
derivatives of the whole composite at ``x0`` in one pass, which is what the
local-map derivative oracles use on one-dimensional charts.  The polymorphic
wrappers (``sin``, ``tanh``, ...) accept either floats or jets so the same
expression holds for both evaluation and differentiation.

The recurrences run in IEEE float arithmetic, each coefficient of a product
summed in order j = 0..k, and order-0 transcendentals come from ``math``
entry by entry, so each row of an array jet has the bits of the float jet
(a NaN's sign aside); a value check raises if any row fails it.  The
order-0 coefficient of ``sqrt`` and ``**`` is ``math.sqrt`` and float ``**``
entry by entry too, so every order-0 jet has the float expression's bits.  A
scalar operand of the ring operations may be an ``(N,)`` array too, one
float per row (an expression at an eps column, see ``exprs``).  Overflow
is silent: a coefficient becomes inf or NaN (``exp`` of a jet at 800 reads
``(inf, inf, nan)``) and the sup reducer counts NaN as inf.  ``wrap_angle``
of a non-finite angle is NaN, so an overflowing angle chart gives an
overflowing sup, not an error; it has one numpy body, which a float angle
runs as a one-element array.

For maps without an expression form, central differences on one grid per
root are the fallback (``manifold.fd_tensors``): ``fd_step`` gives a root y
its step h = 1e-4 * (1 + |y|), ``fd_grid`` the offsets o of its grid y + h*o
(the stencils of every multi-index up to a depth), and ``fd_partial`` the
differences of all its multi-indices in one array pass over the values on
every root's grid, inf without a warning where a value a difference reads
is non-finite.  Roots are rows, first in every output, so a whole stack of
points shares one evaluation of the map and one difference pass.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction

import numpy as np

TWO_PI = 2.0 * math.pi

FD_STEP_SCALE = 1e-4  # step h = FD_STEP_SCALE * (1 + |y|) at a root y


class Jet:
    """Taylor polynomial of a scalar function, truncated at a fixed order.

    ``c`` is a tuple of Python floats, or of floats and ``(N,)`` arrays (see
    the module notes); every operation returns a new jet.
    """

    __slots__ = ("c",)

    def __init__(self, coeffs):
        self.c = tuple(map(float, coeffs))

    @classmethod
    def var(cls, x0, order: int) -> "Jet":
        """The variable at a float x0, or at every entry of an array x0."""
        x0 = np.asarray(x0, dtype=float) if isinstance(x0, np.ndarray) and x0.ndim else float(x0)
        return _jet(((x0, 1.0) + (0.0,) * (order - 1))[: order + 1])

    @classmethod
    def const(cls, v: float, order: int) -> "Jet":
        return _jet((float(v),) + (0.0,) * order)

    @property
    def order(self) -> int:
        return len(self.c) - 1

    @property
    def value(self):
        return self.c[0]

    def derivatives(self) -> np.ndarray:
        """Return [f, f', f'', ...]; entry j is c[j] * j!."""
        return np.array(np.broadcast_arrays(*map(operator.mul, self.c, factorials(self.order))))

    # -- ring operations -------------------------------------------------
    # A scalar operand s (a float, or an (N,) array of per-row floats) acts as
    # the constant jet (s, 0, ..., 0).  Products and quotients keep the
    # constant jet's zero terms: c[j] * 0.0 is NaN for an infinite or NaN
    # c[j], so a non-finite coefficient turns every higher one into NaN, as
    # with a jet operand.  numpy defers to these: ``ndarray * Jet`` is
    # ``Jet.__rmul__``, never an object array.
    __array_ufunc__ = None

    def __add__(self, other):
        c = self.c
        if isinstance(other, Jet):
            return _jet(tuple([a + b for a, b in zip(c, other.c)]))
        return _jet((c[0] + _scalar(other),) + c[1:])

    __radd__ = __add__

    def __neg__(self):
        return _jet(tuple([-a for a in self.c]))

    def __sub__(self, other):  # in IEEE arithmetic a - b is a + (-b), bit for bit
        return self + (-other if isinstance(other, Jet) else -_scalar(other))

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        a = self.c
        if isinstance(other, Jet):
            return _jet(_mul(a, other.c))
        s = _scalar(other)
        out = [a[0] * s]  # as on floats, so -0.0 * s keeps its sign
        z = 0.0 + a[0] * 0.0  # sum of c[j] * 0.0 over the lower orders, from +0.0
        for x in a[1:]:
            out.append(z + x * s)
            z += x * 0.0
        return _jet(tuple(out))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return _jet(_div(self.c, other.c))
        s = _scalar(other)
        if np.any(s == 0.0):
            raise ZeroDivisionError("jet division by zero-valued jet")
        out = []
        z = 0.0  # sum of q[j] * 0.0 over the lower orders
        for x in self.c:
            q = (x - z) / s
            out.append(q)
            z += q * 0.0
        return _jet(tuple(out))

    def __rtruediv__(self, other):
        return _jet(_div((_scalar(other),) + (0.0,) * self.order, self.c))

    def __pow__(self, p):
        """By the product (integer p) or log-exp recurrences, except the order-0
        coefficient: float ``**`` entry by entry, the float expression's bits."""
        if isinstance(p, int):
            if p == 0:
                return Jet.const(1.0, self.order)
            if p < 0:
                out = 1.0 / (self ** (-p))
            else:
                out = self
                for _ in range(p - 1):
                    out = out * self
        else:
            out = (self.log() * float(p)).exp()
        return _jet((_entrywise(lambda x: _float_pow(x, p), self.c[0]),) + out.c[1:])

    # -- elementary functions (standard Taylor recurrences) --------------

    def exp(self) -> "Jet":
        c = self.c
        e = [_entrywise(exp, c[0])]
        for k in range(1, len(c)):
            acc = 0.0
            for j in range(1, k + 1):
                acc += j * c[j] * e[k - j]
            e.append(acc / k)
        return _jet(tuple(e))

    def log(self) -> "Jet":
        c = self.c
        c0 = c[0]
        if np.any(c0 <= 0.0):
            raise ValueError("jet log of non-positive value")
        l = [_entrywise(math.log, c0)]
        for k in range(1, len(c)):
            acc = k * c[k]
            for j in range(1, k):
                acc -= j * l[j] * c[k - j]
            l.append(acc / (k * c0))
        return _jet(tuple(l))

    def sqrt(self) -> "Jet":  # the order-0 coefficient from math.sqrt, as on floats
        return _jet((_entrywise(math.sqrt, self.c[0]),) + (self ** 0.5).c[1:])

    def sin(self) -> "Jet":
        return self._sincos()[0]

    def cos(self) -> "Jet":
        return self._sincos()[1]

    def _sincos(self):
        c = self.c
        s = [_entrywise(math.sin, c[0])]
        co = [_entrywise(math.cos, c[0])]
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
        t0 = _entrywise(math.tanh, c[0])
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
        return _jet((_entrywise(math.atan, c[0]),) + tuple(d / k for k, d in enumerate(da[:-1], 1)))

    def __repr__(self):
        return f"Jet({list(self.c)})"


_new = object.__new__


def _jet(c: tuple) -> Jet:
    """Wrap a coefficient tuple built in this module (no copy, no conversion)."""
    j = _new(Jet)
    j.c = c
    return j


def _scalar(s):
    """A scalar operand as the ring operations take it: an array as is, else a float."""
    return s if isinstance(s, np.ndarray) else float(s)


def _entrywise(f, x):
    """f at a float, or at each entry of an array (numpy's tanh, exp round unlike math's)."""
    if isinstance(x, np.ndarray):
        return np.fromiter(map(f, x.tolist()), float, len(x))
    return f(x)


def _float_pow(x: float, p) -> float:
    """x ** p on floats, an overflow reading +-inf as in the recurrences."""
    try:
        return x ** p
    except OverflowError:
        return math.copysign(math.inf, x) if p % 2 == 1 else math.inf


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
    if np.any(b0 == 0.0):
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


def value_of(x):
    return x.value if isinstance(x, Jet) else float(x)


def wrap_angle(x):
    """Reduce an angle to (-pi, pi].

    On a jet only the constant term moves (the shift is locally constant), so
    all derivatives pass through unchanged; the wrap discontinuity sits at odd
    multiples of pi, which angle-chart domains exclude.  A non-finite angle
    (an overflowed expression) wraps to NaN, which the sup reducer counts as
    overflow.  One numpy body: an array of angles wraps entry by entry, and a
    float goes through as a one-element array and comes back a Python float.
    """
    if isinstance(x, Jet):
        return _jet((wrap_angle(x.value),) + x.c[1:])
    a = np.asarray(x, dtype=float)
    with np.errstate(invalid="ignore"):  # inf - inf; non-finite entries are NaN anyway
        w = a - TWO_PI * np.floor((a + math.pi) / TWO_PI)
    # the boundary representative is +pi, not -pi
    w = np.where(np.isfinite(a), np.where(w <= -math.pi, w + TWO_PI, w), math.nan)
    return w if isinstance(x, np.ndarray) else float(w)


def bump(x, center=0.0, width=1.0):
    """Smooth compactly supported bump, peak 1 at ``center``, support width*2;
    on an array jet the rows outside the support read 0.0."""
    s = (x - center) / width
    outside = abs(value_of(s)) >= 1.0 - 1e-12
    if isinstance(outside, np.ndarray):
        s = _jet(tuple([np.where(outside, 0.0, a) for a in s.c]))
        y = exp(1.0 - 1.0 / (1.0 - s * s))
        return _jet(tuple([np.where(outside, 0.0, a) for a in y.c]))
    if outside:
        return Jet.const(0.0, x.order) if isinstance(x, Jet) else 0.0
    return exp(1.0 - 1.0 / (1.0 - s * s))


# -- finite-difference fallback ------------------------------------------


def fd_step(P: np.ndarray) -> np.ndarray:
    """Steps h = 1e-4 * (1 + |y|) of the rows y of P, shape (m, n) -> (m,).

    |y|^2 comes from a stacked matmul, which rounds as ``np.linalg.norm(y)``
    does on every row; a row-wise sum or einsum differs in about 8% of rows.
    """
    return FD_STEP_SCALE * (1.0 + np.sqrt((P[:, None, :] @ P[:, :, None]).ravel()))


@functools.cache
def _central_weights(m: int) -> dict:
    """{s: w}: the 4th-order central weights of the m-th derivative on the
    nodes |s| <= (m + 1) // 2 + 1, exact, zeros dropped: the m-th derivatives
    at 0 of the Lagrange basis polynomials (Fornberg, Math. Comp. 51, 1988)."""
    nodes = range(-((m + 1) // 2 + 1), (m + 1) // 2 + 2)
    out = {}
    for s in nodes:
        poly = [Fraction(1)]  # prod over t != s of (x - t) / (s - t), lowest power first
        for t in set(nodes) - {s}:
            poly = [(a - t * b) / (s - t) for a, b in zip([0] + poly, poly + [0])]
        out[s] = poly[m] * math.factorial(m)
    return {s: w for s, w in out.items() if w}


@functools.cache
def fd_grid(n: int, depth: int) -> tuple:
    """(offsets, stencils) of the central differences of orders 1..depth in n
    variables.  ``offsets`` (M, n) is 0 (the root), then the union of the
    tensor-product stencils of the multi-indices alpha, 1 <= |alpha| <= depth,
    whose weight at o is the product over axes i of the 1-D weights of order
    alpha_i at o_i; ``stencils`` holds per alpha ``(orders, cols, weights)``:
    its index orders, and the rows other than 0 that it reads."""
    rows, stencils = {(0,) * n: 0}, []
    for d in range(1, depth + 1):
        for axes in itertools.combinations_with_replacement(range(n), d):
            cols, weights = [], []
            for picks in itertools.product(*[_central_weights(axes.count(i)).items()
                                             for i in range(n)]):
                if any(o for o, _w in picks):
                    cols.append(rows.setdefault(tuple(o for o, _w in picks), len(rows)))
                    weights.append(float(math.prod(w for _o, w in picks)))
            stencils.append((sorted(set(itertools.permutations(axes))), cols, weights))
    return np.array(list(rows), dtype=float), tuple(stencils)


@functools.cache
def _fd_table(n: int, depth: int) -> tuple:
    """(cols, weights, starts): the stencils of ``fd_grid(n, depth)`` as one
    (stencil x column) table of the rows each reads and their weights, every
    stencil padded to the longest with column 0 and weight 0.0, and per order
    d = 1..depth the first stencil of order d (they come order by order)."""
    _offsets, stencils = fd_grid(n, depth)
    width = max(len(c) for _o, c, _w in stencils)
    cols = np.zeros((len(stencils), width), dtype=np.intp)
    weights = np.zeros((len(stencils), width))
    for s, (_orders, c, w) in enumerate(stencils):
        cols[s, :len(c)], weights[s, :len(w)] = c, w
    orders = [len(o[0]) for o, _c, _w in stencils]
    return cols, weights, np.searchsorted(orders, range(1, depth + 1)).tolist()


def fd_partial(vals: np.ndarray, h: np.ndarray, n: int, depth: int) -> np.ndarray:
    """Every multi-index's central difference at every root, from the values,
    of any shape S, on the grid ``fd_grid(n, depth)`` of every root: ``vals``
    (N, M) + S, column 0 the root, and h the roots' steps, shape
    (N,) + (1,) * len(S).  Returns (N, stencils) + S, stencil s of the grid
    at [:, s]: the sum of w * (vals[:, c] - vals[:, 0]) over the stencil's
    (c, w), left to right from +0.0 (one ``+=`` per column of the padded
    table, no BLAS: a root alone has its bits in a stack, and a constant
    map's is 0.0), over h^|alpha|, or inf over all of S where the root's or
    a stencil value is non-finite.  The padding terms, 0.0 * 0.0 at column
    0, leave the sum as it is: a sum from +0.0 is never -0.0, and a
    non-finite root reads inf."""
    cols, weights, starts = _fd_table(n, depth)
    v = np.ascontiguousarray(np.moveaxis(vals, 1, 0))  # grid column first: long inner loops
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, masked below
        terms = weights.reshape(weights.shape + (1,) * (v.ndim - 1)) * (v[cols] - v[0])
        out = terms[:, 0] + 0.0  # the first partial sum, +0.0 + w * d
        for j in range(1, terms.shape[1]):
            out += terms[:, j]
        for s in starts:  # once per order: stencils of order >= d divide d times
            out[s:] /= h
    if not np.isfinite(out).all():  # a non-finite value leaves every sum that reads it so
        bad = ~np.isfinite(v).reshape(v.shape[:2] + (-1,)).all(axis=2)
        out[bad[0] | bad[cols].any(axis=1)] = np.inf
    return np.moveaxis(out, 0, 1)
