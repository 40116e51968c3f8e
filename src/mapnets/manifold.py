"""Chart-atlas manifolds, local maps with derivative oracles, metrics.

Manifolds are presented purely by atlases: a finite set of charts whose
domains are open axis-aligned boxes (or unions of boxes), plus a partial
table of transition maps.  Points are stored in chart coordinates.  Built-in
atlases (euclidean boxes, the circle with two angle charts, the 2-sphere with
two stereographic charts, disjoint unions, binary products) cover everything
the check gallery needs at desk scale.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import jets
from .errors import (
    ChartEscape,
    DerivativeUndefined,
    MarginTooSmall,
    MissingFiberMetric,
    NoOverlap,
    OutOfDomain,
    OutputShapeMismatch,
)
from .jets import Jet

LATTICE_CAP = 100_000  # total lattice points per region
_UNDEFINED = (ValueError, ZeroDivisionError, OverflowError, FloatingPointError)  # see try_call


# ======================================================================
# Boxes, charts, points
# ======================================================================


class Box:
    """Axis-aligned box; open for chart domains, closed for compact pieces.

    Containment and margins take a point, on Python floats (``bounds`` holds
    the per-axis ``(lo, hi)`` pairs), or a stack, an array of shape (..., dim),
    with the same float operations per row; the read-only arrays ``lo``/``hi``
    serve the array users (stacks, lattices, clipping, padding).
    """

    __slots__ = ("lo", "hi", "bounds")

    def __init__(self, lo, hi):
        self.lo = np.array(lo, dtype=float, ndmin=1)
        self.hi = np.array(hi, dtype=float, ndmin=1)
        if self.lo.shape != self.hi.shape:
            raise ValueError("box bounds must have equal shapes")
        if not np.all(self.lo < self.hi):
            raise ValueError("box must be nonempty (lo < hi)")
        self.lo.flags.writeable = False
        self.hi.flags.writeable = False
        self.bounds = tuple(zip(self.lo.tolist(), self.hi.tolist()))

    @classmethod
    def of(cls, bounds: Sequence[Sequence[float]]) -> "Box":
        arr = np.asarray(bounds, dtype=float)
        return cls(arr[:, 0], arr[:, 1])

    @property
    def dim(self) -> int:
        return len(self.bounds)

    @property
    def extent(self) -> np.ndarray:
        return self.hi - self.lo

    @property
    def bounded(self) -> bool:
        return bool(np.all(np.isfinite(self.lo)) and np.all(np.isfinite(self.hi)))

    def _coords(self, x) -> list:
        """The coordinates of x as Python floats; ValueError unless x has dim entries."""
        if type(x) is not np.ndarray or x.dtype != np.float64 or x.ndim == 0:
            x = np.array(x, dtype=float, ndmin=1)
        if x.shape != (len(self.bounds),):
            raise ValueError(f"point of shape {x.shape} in a box of dimension {self.dim}")
        return x.tolist()

    def _rows(self, x) -> bool:
        """Is x a stack of points (ValueError unless of dim columns)?"""
        if type(x) is not np.ndarray or x.ndim < 2:
            return False
        if x.shape[-1:] != (len(self.bounds),):
            raise ValueError(f"points of shape {x.shape} in a box of dimension {self.dim}")
        return True

    def contains(self, x, margin: float = 0.0, closed: bool = False):
        """Is x inside, shrunk (open) or grown (closed) by margin?  A
        non-finite coordinate lies in no box.  At a stack, a bool per row."""
        if self._rows(x):
            if closed:
                inside = np.isfinite(x) & (self.lo - margin <= x) & (x <= self.hi + margin)
            else:
                inside = (self.lo + margin < x) & (x < self.hi - margin)
            return inside.all(axis=-1)
        xs = self._coords(x)
        if closed:
            for xi, (lo, hi) in zip(xs, self.bounds):
                if not (math.isfinite(xi) and lo - margin <= xi <= hi + margin):
                    return False
            return True
        for xi, (lo, hi) in zip(xs, self.bounds):
            if not lo + margin < xi < hi - margin:  # strict: false for NaN and +-inf
                return False
        return True

    def norm_margin(self, x):
        """Distance to the boundary, normalized by extent; negative outside.

        Axes with an infinite bound use a reciprocal escape statistic so that
        points running off to infinity score margins tending to zero.  A
        non-finite coordinate scores -inf.  At a stack, each row's, bit for bit.
        """
        if self._rows(x):
            with np.errstate(over="ignore", invalid="ignore"):
                m = functools.reduce(_rows_min, [
                    _axis_margin(x[..., i], lo, hi, _rows_min, _rows_max)
                    for i, (lo, hi) in enumerate(self.bounds)], math.inf)
            return np.where(np.isfinite(x).all(axis=-1), m, -math.inf)
        m = math.inf
        for xi, (lo, hi) in zip(self._coords(x), self.bounds):
            if not math.isfinite(xi):
                return -math.inf
            m = min(m, _axis_margin(xi, lo, hi))
        return m

    def clip(self, other: "Box") -> Optional["Box"]:
        lo = np.maximum(self.lo, other.lo)
        hi = np.minimum(self.hi, other.hi)
        if np.any(lo >= hi):
            return None
        return Box(lo, hi)

    def lattice(self, n_per_axis: int) -> np.ndarray:
        """Uniform closed lattice including endpoints, shape (N, dim)."""
        if not self.bounded:
            raise ValueError("cannot lattice an unbounded box")
        n = max(2, int(n_per_axis))
        while n**self.dim > LATTICE_CAP and n > 2:
            n -= 1
        axes = [np.linspace(self.lo[i], self.hi[i], n) for i in range(self.dim)]
        grid = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.ravel() for g in grid], axis=-1)

    def as_record(self) -> list:
        return [[float(a), float(b)] for a, b in zip(self.lo, self.hi)]

    def __repr__(self):
        return f"Box({self.as_record()})"


def _axis_margin(x, lo: float, hi: float, lesser=min, greater=max):
    """The margin of coordinate(s) x: an array with row-wise lesser/greater."""
    if math.isfinite(lo) and math.isfinite(hi):
        return lesser(x - lo, hi - x) / (hi - lo)
    s = 1.0 + (abs(lo) if math.isfinite(lo) else 0.0) + (abs(hi) if math.isfinite(hi) else 0.0)
    m = 0.5
    if math.isfinite(lo):
        m = lesser(m, (x - lo) / s)
        if not math.isfinite(hi):
            beyond = greater(0.0, x - (lo + s))
            m = lesser(m, s / (s + beyond))
    if math.isfinite(hi):
        m = lesser(m, (hi - x) / s)
        if not math.isfinite(lo):
            beyond = greater(0.0, (hi - s) - x)
            m = lesser(m, s / (s + beyond))
    return m


def _rows_min(a, b):  # min(a, b) row by row: a unless b < a (np.minimum may differ on -0.0)
    return np.where(b < a, b, a)


def _rows_max(a, b):  # max(a, b) row by row: a unless b > a
    return np.where(b > a, b, a)


@dataclass(frozen=True)
class Chart:
    """Chart with open box (or union-of-boxes) coordinate domain."""

    id: str
    dim: int
    domain: tuple
    label: str = ""

    def __post_init__(self):
        boxes = tuple(self.domain) if isinstance(self.domain, (list, tuple)) else (self.domain,)
        object.__setattr__(self, "domain", boxes)
        if self.dim < 1:
            raise ValueError("chart dimension must be >= 1")
        for b in boxes:
            if b.dim != self.dim:
                raise ValueError("domain box dimension mismatch")

    def contains(self, x, margin: float = 0.0):
        """Is x in some domain box (see ``Box.contains``)?  At a stack, a bool per row."""
        if type(x) is np.ndarray and x.ndim > 1:
            return functools.reduce(np.logical_or, [b.contains(x, margin) for b in self.domain])
        return any(b.contains(x, margin=margin) for b in self.domain)

    def norm_margin(self, x):
        """The best domain box's margin (see ``Box.norm_margin``); at a stack, per row."""
        if type(x) is np.ndarray and x.ndim > 1:
            return functools.reduce(_rows_max, [b.norm_margin(x) for b in self.domain])
        return max(b.norm_margin(x) for b in self.domain)

    @property
    def main_box(self) -> Box:
        return self.domain[0]


@dataclass(frozen=True)
class Point:
    """A manifold point: chart id plus coordinates in that chart."""

    chart: str
    coords: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coords", np.atleast_1d(np.asarray(self.coords, dtype=float)))

    def as_record(self) -> dict:
        return {"chart": self.chart, "coords": [float(c) for c in self.coords]}

    def __repr__(self):
        return f"Point({self.chart}, {np.array2string(self.coords, precision=6)})"


# ======================================================================
# Local maps with derivative oracle
# ======================================================================


class LocalMap:
    """Smooth map between chart coordinate patches, with derivative oracle.

    Evaluation returns an ndarray of shape ``out_shape``.  Every derivative
    tensor comes from one method, ``derivs_upto``, which takes, in order of
    preference: an expression closure over jets (exact, any order, 1-D input
    only), an exact Jacobian, then nested 4th-order central differences with
    step 1e-4*(1+|y|) at each stencil node y, read from one stencil tree
    (``fd_tree``) over the value, or over the Jacobian when the map has one.
    ``exact_order`` is the highest order those tensors are exact to: inf
    for an expression, 1 with a Jacobian, else 0.

    The derivative oracle and ``try_call`` take a point, shape ``(in_dim,)``,
    or a stack of points, shape ``(N, in_dim)``; for a stack every tensor
    gains a leading row axis.  An expression is evaluated once on the array
    jet of the stack's column; otherwise all rows share one stencil tree,
    each of whose levels calls ``fn`` (or ``jac``) once per row.
    """

    def __init__(self, in_dim: int, out_shape, fn=None, expr=None, jac=None,
                 defined=None, name: str = ""):
        self.in_dim = int(in_dim)
        self.out_shape = tuple(out_shape) if isinstance(out_shape, (tuple, list)) else (int(out_shape),)
        self.out_size = math.prod(self.out_shape)
        self.fn = fn
        self.expr = expr
        self.jac = jac
        self.defined = defined
        self.name = name
        if expr is not None and in_dim != 1:
            raise ValueError("expression oracles require 1-D input")
        if fn is None and expr is None:
            raise ValueError("a local map needs fn or expr")
        self.exact_order = math.inf if expr is not None else 1 if jac is not None else 0

    @classmethod
    def from_expr(cls, expr, out_shape=(1,), defined=None, name: str = "") -> "LocalMap":
        return cls(1, out_shape, expr=expr, defined=defined, name=name)

    def _value(self, x: np.ndarray) -> np.ndarray:
        if self.fn is not None:
            y = np.asarray(self.fn(x), dtype=float)
        else:
            vals = self.expr(float(x[0]))
            if not isinstance(vals, (tuple, list)):
                vals = (vals,)
            y = np.array([jets.value_of(v) for v in vals])
        if y.size != self.out_size:  # a bug in the map, so not caught by try_call
            raise OutputShapeMismatch(f"local map {self.name!r} returned shape {y.shape}, "
                                      f"out_shape is {self.out_shape}")
        return y.reshape(self.out_shape)

    def __call__(self, x) -> np.ndarray:
        return self._value(np.atleast_1d(np.asarray(x, dtype=float)))

    def try_call(self, x) -> Optional[np.ndarray]:
        """The value at x, or None where undefined (``defined`` false, or a raise); at a
        stack, the values with NaN rows there, from one ``_values`` call, else one per row."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.ndim == 1:
            if self.defined is not None and not self.defined(x):
                return None
            try:
                return self._value(x)
            except _UNDEFINED:
                return None
        rows = [r for r, p in enumerate(x) if self.defined is None or self.defined(p)]
        Y = np.full((len(x),) + self.out_shape, math.nan)
        try:
            Y[rows] = self._values(x[rows])
        except _UNDEFINED + (DerivativeUndefined,):
            for r in rows:  # a one-row stack; only a lone row that raises takes the point call
                y = self.try_call(x[r:r + 1] if len(rows) > 1 else x[r])
                if y is not None:
                    Y[r] = y
        return Y

    def deriv_tensor(self, x, k: int) -> np.ndarray:
        """Total derivative of order k, shape out_shape + (in_dim,)*k (with a
        leading row axis for a stack of points)."""
        return self.derivs_upto(x, k)[k]

    def derivs_upto(self, x, k_max: int) -> list:
        """Tensors of orders 0..k_max at a point or at every row of a stack:
        one jet evaluation over all rows on the expr path, else one stencil
        tree (``fd_tree``) over all rows.

        Raises DerivativeUndefined where the expression has a value but its
        jet fails (log or division by zero inside the jet recurrences)."""
        P, single = point_rows(x)
        if self.expr is not None:
            ts = self._expr_tensors(P, k_max)
        elif self.jac is None:
            ts = fd_tree(self._values, P, k_max)
        else:
            jacs = lambda Q: self._stack(self.jac, Q, self.out_shape + (self.in_dim,),
                                         "jac returned")
            ts = [self._values(P)] + fd_tree(jacs, P, k_max - 1)
        return [t[0] for t in ts] if single else ts

    def _expr_tensors(self, P: np.ndarray, k_max: int) -> list:
        """Tensors of orders 0..k_max at the rows of P from one jet over P's
        column (the float jet for one row), else row by row: DerivativeUndefined
        names the first failing row, and a value-branching expression works."""
        n = len(P)
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                coeffs = self._jet_coeffs(float(P[0, 0]) if n == 1 else P[:, 0], k_max)
        except DerivativeUndefined:
            rows = [self._jet_coeffs(float(p[0]), k_max) for p in P]
            coeffs = [tuple(np.array(c) for c in zip(*outs)) for outs in zip(*rows)]
        with np.errstate(over="ignore"):  # c_k * k! overflows to inf, as on floats
            return [np.stack([np.broadcast_to(c[k] * f, (n,)) for c in coeffs], axis=-1)
                    .reshape((n,) + self.out_shape + (1,) * k)
                    for k, f in enumerate(jets.factorials(k_max))]

    def _jet_coeffs(self, x0, k_max: int) -> list:
        """Taylor coefficients (c_0..c_k_max) of every output value at x0."""
        try:
            vals = self.expr(Jet.var(x0, k_max))
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise DerivativeUndefined(
                f"local map {self.name!r} has no order-{k_max} jet at x = {x0!r} "
                f"({exc})") from exc
        if not isinstance(vals, (tuple, list)):
            vals = (vals,)
        return [v.c if isinstance(v, Jet) else (float(v),) + (0.0,) * k_max for v in vals]

    def _values(self, P: np.ndarray) -> np.ndarray:
        """Values at the rows of P, shape (len(P),) + out_shape."""
        if self.fn is None:
            return self._expr_tensors(P, 0)[0]
        return self._stack(self.fn, P, self.out_shape, "returned")

    def _stack(self, f, P: np.ndarray, shape: tuple, what: str) -> np.ndarray:
        """f at every row of P as one array of shape (len(P),) + shape.

        The outputs are stacked once and their size checked once; only a
        level that does not stack to that size is looked at row by row, to
        name the first output of the wrong size (OutputShapeMismatch) or to
        reshape outputs of the right size but different shapes."""
        outs = [f(p) for p in P]
        try:
            Y = np.array(outs, dtype=float)
        except ValueError:  # outputs of unequal shapes
            Y = None
        if Y is None or Y.size != len(outs) * math.prod(shape):
            ys = [np.asarray(y, dtype=float) for y in outs]
            for y in ys:
                if y.size != math.prod(shape):
                    raise OutputShapeMismatch(f"local map {self.name!r} {what} shape "
                                              f"{y.shape}, expected {shape}")
            Y = np.array([y.reshape(shape) for y in ys])
        return Y.reshape((len(outs),) + shape)

    def jacobian(self, x) -> np.ndarray:
        j = self.deriv_tensor(x, 1)
        return j.reshape(self.out_size, self.in_dim)

    def derivative_map(self) -> "LocalMap":
        return _DerivedMap(self)


class _DerivedMap(LocalMap):
    """D(parent): order-k derivatives are parent's order k+1 derivatives.

    The parent's order-(k+1) tensor already has this map's order-k shape,
    out_shape + (in_dim,)*k, so points and stacks pass straight through."""

    def __init__(self, parent: LocalMap):
        self.parent = parent
        super().__init__(parent.in_dim, parent.out_shape + (parent.in_dim,),
                         fn=lambda x: parent.deriv_tensor(x, 1),
                         defined=parent.defined, name=f"D({parent.name})")
        self.exact_order = parent.exact_order - 1

    def deriv_tensor(self, x, k: int) -> np.ndarray:
        return self.parent.deriv_tensor(x, k + 1)

    def derivs_upto(self, x, k_max: int) -> list:
        return self.parent.derivs_upto(x, k_max + 1)[1:]


def point_rows(x) -> tuple:
    """(P, single): a point (in_dim,) as the one-row stack P, or a stack
    (N, in_dim) as itself."""
    P = np.asarray(x, dtype=float)
    if P.ndim <= 1:
        return np.atleast_1d(P)[None, :], True
    return P, False


def fd_tree(leaf, P: np.ndarray, depth: int) -> list:
    """Nested central differences at the rows of P, 0..depth deep, from one
    stencil tree.

    Level 0 is P, shape (N, n); level l+1 is ``jets.fd_points`` of level l,
    every node with its own step.  ``leaf(Q)`` stacks the oracle's tensors at
    the rows of Q and runs once on every level; ``fd_partial`` then
    differentiates level by level from the deepest up.  Returns the oracle's
    tensors at the N rows differentiated d = 0..depth times, each with the
    row axis first; the last tensor axis is the outermost differentiation.
    """
    levels, steps = [P], []
    for _ in range(depth):
        steps.append(jets.fd_step(levels[-1]))
        levels.append(jets.fd_points(levels[-1], steps[-1]))
    ts = []
    for lvl in range(depth, -1, -1):
        ts = [jets.fd_partial(t, steps[lvl]) for t in ts]
        ts.insert(0, leaf(levels[lvl]))
    return ts


def difference_map(a: LocalMap, b: LocalMap) -> LocalMap:
    """Pointwise difference a - b as a LocalMap.

    Differentiating the difference (rather than subtracting derivative
    tensors) keeps finite-difference noise proportional to the gap itself:
    the stencil is linear, so the value is the same in exact arithmetic.
    """
    if a.out_shape != b.out_shape or a.in_dim != b.in_dim:
        raise ValueError("difference of maps with mismatched shapes")
    jac = None
    if a.jac is not None and b.jac is not None:
        jac = lambda x: np.asarray(a.jac(x), dtype=float) - np.asarray(b.jac(x),
                                                                       dtype=float)

    def defined(x):
        oka = a.defined(x) if a.defined is not None else True
        okb = b.defined(x) if b.defined is not None else True
        return oka and okb

    return LocalMap(a.in_dim, a.out_shape, fn=lambda x: a(x) - b(x),
                    jac=jac, defined=defined, name=f"({a.name})-({b.name})")


def tensor_norm(t: np.ndarray, order: int) -> np.ndarray:
    """Norms of a stack of derivative tensors (row axis first), shape (N,):
    the euclidean norm of a vector, from a stacked matmul that rounds as
    ``np.linalg.norm`` does; the operator 2-norm of a matrix of order <= 1,
    from one batched SVD (inf with a non-finite entry, |v| for a 1x1 [[v]]);
    else the max-abs entry (any norm is admissible).  Overflow is silent."""
    t = np.asarray(t, dtype=float)
    n, shape = len(t), t.shape[1:]
    if len(shape) <= 1:
        v = t.reshape(n, -1)
        with np.errstate(over="ignore"):
            return np.sqrt((v[:, None, :] @ v[:, :, None]).reshape(n))
    flat = np.abs(t.reshape(n, -1))
    if len(shape) > 2 or order > 1:
        return flat.max(axis=1)
    out = np.full(n, math.inf)
    finite = np.isfinite(flat).all(axis=1)
    if shape == (1, 1):  # LAPACK may round the singular value of [[v]] below |v|
        out[finite] = flat[finite, 0]
    elif finite.any():
        out[finite] = np.linalg.svd(t[finite], compute_uv=False)[:, 0]
    return out


# ======================================================================
# Atlas
# ======================================================================


class Atlas:
    """Finite chart collection with a partial table of transition maps.

    Charts that overlap on the manifold must have their transition recorded;
    connected components are computed from the transition graph.
    """

    def __init__(self, charts: Sequence[Chart], transitions: dict, name: str = "",
                 metric: Optional["RiemannianMetric"] = None):
        self.charts = {c.id: c for c in charts}
        if len(self.charts) != len(charts):
            raise ValueError("duplicate chart ids")
        self.transitions = dict(transitions)
        self.name = name
        self.metric = metric
        self.components = self._components()

    def _components(self) -> dict:
        parent = {cid: cid for cid in self.charts}

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for (a, b) in self.transitions:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
        roots = sorted({find(c) for c in self.charts})
        index = {r: i for i, r in enumerate(roots)}
        return {c: index[find(c)] for c in self.charts}

    @property
    def chart_ids(self) -> list:
        return sorted(self.charts)

    def chart(self, cid: str) -> Chart:
        if cid not in self.charts:
            raise NoOverlap(f"unknown chart {cid!r} in atlas {self.name!r}")
        return self.charts[cid]

    def transition_map(self, a: str, b: str) -> Optional[LocalMap]:
        if a == b:
            return None
        return self.transitions.get((a, b))

    def rechart(self, p: Point, b: str) -> Optional[np.ndarray]:
        """Coordinates of p in chart b, or None when not representable; at a
        stacked point, NaN rows where not (None without a transition to b)."""
        tm = self.transition_map(p.chart, b)  # None for b == p.chart
        y = p.coords if b == p.chart else None if tm is None else tm.try_call(p.coords)
        if y is None:
            return None
        inside = self.chart(b).contains(y)
        if y.ndim > 1:
            return np.where(inside[..., None], y, math.nan)
        return y if inside else None

    def representations(self, p: Point) -> list:
        """All chart representations of p: (chart, coords, margin), best first.
        At a stacked point, (chart, coords, margins) per chart in id order, a
        row without a representation there NaN and -inf."""
        if p.coords.ndim > 1:
            out = []
            for b in self.chart_ids:
                y = p.coords if b == p.chart else self.rechart(p, b)
                if y is not None:
                    m = self.chart(b).norm_margin(y)
                    m[~(m > 0)] = -math.inf
                    out.append((b, np.where(m[:, None] > 0, y, math.nan), m))
            return out
        reps = []
        for b in self.chart_ids:
            y = p.coords if b == p.chart else None
            if y is None:
                y = self.rechart(p, b)
            if y is None:
                continue
            m = self.chart(b).norm_margin(y)
            if m > 0:
                reps.append((b, y, m))
        reps.sort(key=lambda r: (-r[2], r[0]))
        return reps

    def same_component(self, p: Point, q: Point) -> bool:
        return self.components[p.chart] == self.components[q.chart]


def transition(atlas: Atlas, a: str, b: str, x) -> np.ndarray:
    """Coordinates in chart b of the point with coordinates x in chart a."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    ca = atlas.chart(a)
    if not ca.contains(x):
        raise OutOfDomain(f"{x} outside domain of chart {a!r}")
    if a == b:
        return x
    tm = atlas.transition_map(a, b)
    if tm is None:
        raise NoOverlap(f"no transition {a!r} -> {b!r} in atlas {atlas.name!r}")
    y = tm.try_call(x)
    if y is None or not atlas.chart(b).contains(y):
        raise OutOfDomain(f"{x} outside the overlap image of ({a!r},{b!r})")
    return y


# ======================================================================
# Riemannian metrics and distance
# ======================================================================


@dataclass
class RiemannianMetric:
    """Per-chart symmetric positive-definite matrix fields g_ij(x).

    ``analytic`` is an optional closed-form distance (atlas, p, q) -> float;
    when absent, ``distance`` falls back to a shortest path on the
    metric-weighted lattice graph of a compact region.
    """

    fields: dict
    analytic: Optional[Callable] = None
    name: str = ""

    def at(self, chart: str, x) -> np.ndarray:
        fld = self.fields[chart]
        return np.asarray(fld(x), dtype=float)


def distance(atlas: Atlas, g: RiemannianMetric, p: Point, q: Point,
             region: Optional["CompactRegion"] = None, density: int = 17) -> float:
    """Riemannian distance; inf iff p, q lie in different components."""
    for pt in (p, q):
        if not atlas.chart(pt.chart).contains(pt.coords):
            raise OutOfDomain(f"invalid point {pt}")
    if not atlas.same_component(p, q):
        return math.inf
    if g.analytic is not None:
        return float(g.analytic(atlas, p, q))
    if region is None:
        region = _default_region(atlas)
    coarse = _graph_distance(atlas, g, p, q, region, density)
    fine = _graph_distance(atlas, g, p, q, region, 2 * density - 1)
    return fine if math.isfinite(fine) else coarse


def _default_region(atlas: Atlas) -> "CompactRegion":
    pieces = []
    for cid in atlas.chart_ids:
        box = atlas.chart(cid).main_box
        if not box.bounded:
            continue
        pad = 0.02 * box.extent
        pieces.append((cid, Box(box.lo + pad, box.hi - pad)))
    if not pieces:
        raise MarginTooSmall("no bounded chart box available for a default region")
    return CompactRegion(pieces)


def _segment_length(g: RiemannianMetric, chart: str, x: np.ndarray, y: np.ndarray) -> float:
    v = y - x
    qs = []
    for t in (0.0, 0.5, 1.0):
        G = g.at(chart, x + t * v)
        qs.append(math.sqrt(max(0.0, float(v @ G @ v))))
    return (qs[0] + 4.0 * qs[1] + qs[2]) / 6.0


def _graph_distance(atlas, g, p, q, region, density) -> float:
    nodes = []       # (chart, coords)
    piece_nodes = []  # list of (chart, pts, spacing, index_offset)
    for chart_id, box in region.pieces:
        pts = box.lattice(density)
        spacing = float(np.max(box.extent) / max(1, int(round(len(pts) ** (1 / box.dim))) - 1))
        offset = len(nodes)
        nodes.extend((chart_id, pt) for pt in pts)
        piece_nodes.append((chart_id, pts, spacing, offset))
    adj = [[] for _ in nodes]

    def add_edge(i, j, w):
        adj[i].append((j, w))
        adj[j].append((i, w))

    # intra-piece lattice edges (all neighbor offsets)
    for chart_id, pts, spacing, offset in piece_nodes:
        dim = pts.shape[1]
        n = int(round(len(pts) ** (1 / dim)))
        strides = [n ** (dim - 1 - i) for i in range(dim)]
        for flat, idx in enumerate(itertools.product(range(n), repeat=dim)):  # C order
            for off in itertools.product((-1, 0, 1), repeat=dim):
                if off <= (0,) * dim:
                    continue  # each undirected pair once: first nonzero step positive
                nidx = [i + o for i, o in zip(idx, off)]
                if any(i2 < 0 or i2 >= n for i2 in nidx):
                    continue
                nflat = sum(i2 * s for i2, s in zip(nidx, strides))
                w = _segment_length(g, chart_id, pts[flat], pts[nflat])
                add_edge(offset + flat, offset + nflat, w)
    # cross-piece gluing through transitions
    for (ca, ptsa, spa, offa), (cb, ptsb, spb, offb) in itertools.permutations(piece_nodes, 2):
        if ca == cb:
            continue
        tm = atlas.transition_map(ca, cb)
        if tm is None:
            continue
        for i, x in enumerate(ptsa):
            y = tm.try_call(x)
            if y is None or not atlas.chart(cb).contains(y):
                continue
            d2 = np.linalg.norm(ptsb - y, axis=1)
            for j in np.where(d2 <= 1.2 * spb)[0]:
                add_edge(offa + i, offb + int(j), _segment_length(g, cb, y, ptsb[j]))

    def attach(point: Point):
        ids = []
        for b, ycoords, _m in atlas.representations(point):
            for chart_id, pts, spacing, offset in piece_nodes:
                if chart_id != b:
                    continue
                d2 = np.linalg.norm(pts - ycoords, axis=1)
                for j in np.where(d2 <= 2.0 * spacing)[0]:
                    ids.append((offset + int(j), _segment_length(g, b, ycoords, pts[j])))
        return ids

    src = attach(p)
    dsts = attach(q)
    if not src or not dsts:
        return math.inf
    dist = [math.inf] * len(nodes)
    heap = []
    for i, w in src:
        if w < dist[i]:
            dist[i] = w
            heapq.heappush(heap, (w, i))
    while heap:
        d, i = heapq.heappop(heap)
        if d > dist[i]:
            continue
        for j, w in adj[i]:
            nd = d + w
            if nd < dist[j]:
                dist[j] = nd
                heapq.heappush(heap, (nd, j))
    return min(dist[i] + w for i, w in dsts)


# ======================================================================
# Compact regions
# ======================================================================


@dataclass
class CompactRegion:
    """Finite union of closed chart boxes with uniform sample lattices."""

    pieces: list
    lattice_density: int = 33

    def __post_init__(self):
        self.pieces = [(cid, box if isinstance(box, Box) else Box.of(box))
                       for cid, box in self.pieces]
        if not self.pieces:
            raise ValueError("compact region needs at least one piece")

    def validate(self, atlas: Atlas) -> None:
        for cid, box in self.pieces:
            chart = atlas.chart(cid)
            if box.dim != chart.dim:
                raise ValueError(f"piece {box} has dimension {box.dim}, "
                                 f"chart {cid!r} has dimension {chart.dim}")
            inside = any(
                np.all(box.lo > dom.lo) and np.all(box.hi < dom.hi)
                for dom in chart.domain
            )
            if not inside:
                raise MarginTooSmall(
                    f"piece {box} not strictly inside domain of chart {cid!r}")

    def lattices(self) -> list:
        """Per piece: (chart id, lattice array of shape (N, dim))."""
        per_piece = max(2, self.lattice_density)
        return [(cid, box.lattice(per_piece)) for cid, box in self.pieces]

    def sample_points(self, rng: Optional[np.random.Generator] = None,
                      extra: int = 0) -> list:
        """Lattice points as Points, plus optional seeded uniform extras."""
        pts = []
        for cid, lat in self.lattices():
            pts.extend(Point(cid, x) for x in lat)
        if rng is not None and extra > 0:
            for cid, box in self.pieces:
                draws = rng.uniform(box.lo, box.hi, size=(extra, box.dim))
                pts.extend(Point(cid, x) for x in draws)
        return pts

    def contains(self, p: Point, atlas: Optional[Atlas] = None,
                 margin: float = 0.0) -> bool:
        for cid, box in self.pieces:
            if cid == p.chart and box.contains(p.coords, margin=margin, closed=True):
                return True
            if atlas is not None:
                y = atlas.rechart(p, cid)
                if y is not None and box.contains(y, margin=margin, closed=True):
                    return True
        return False

    def as_record(self) -> dict:
        return {"pieces": [{"chart": cid, "box": box.as_record()}
                           for cid, box in self.pieces],
                "lattice_density": self.lattice_density}


def region_box(chart: str, lo, hi, density: int = 33) -> CompactRegion:
    return CompactRegion([(chart, Box(lo, hi))], lattice_density=density)


# ======================================================================
# Smooth maps between atlases
# ======================================================================


@dataclass
class SmoothMap:
    """Smooth map src -> dst given by a partial table of local representatives.

    ``locals[(a, b)]`` is the representative taking chart-a coordinates to
    chart-b coordinates; representatives must agree under transitions on
    overlaps (checked by ``check_smooth_map_consistency``).
    """

    src: Atlas
    dst: Atlas
    locals: dict
    name: str = ""

    def local(self, a: str, b: str) -> Optional[LocalMap]:
        return self.locals.get((a, b))

    def eval_candidates(self, p: Point) -> list:
        """(dst chart b, coords, margin, src chart a) for each representative
        (a, b) applying to p, best first: largest margin, then the smaller b,
        then the smaller a."""
        out = []
        for (a, b), rep in sorted(self.locals.items()):
            x = p.coords if a == p.chart else self.src.rechart(p, a)
            if x is None or not self.src.chart(a).contains(x):
                continue
            y = rep.try_call(x)
            if y is None:
                continue
            m = self.dst.chart(b).norm_margin(y)
            if m > 0:
                out.append((b, y, m, a))
        out.sort(key=lambda c: (-c[2], c[0]))
        return out

    def __call__(self, p: Point):
        """The image of p, the first of ``eval_candidates`` (ChartEscape if none).
        At a stack of points inside chart a, the candidates instead: the stacked
        ``try_call`` of each representative out of a, as a Point of its target
        chart; the caller chooses among them (``gmap.ImageTable``)."""
        if p.coords.ndim > 1:
            return [Point(b, rep.try_call(p.coords))
                    for (a, b), rep in sorted(self.locals.items()) if a == p.chart]
        cands = self.eval_candidates(p)
        if not cands:
            raise ChartEscape(f"{self.name or 'map'} has no chart for image of {p}")
        b, y, _m, _a = cands[0]
        return Point(b, y)


def check_smooth_map_consistency(sm: SmoothMap, n: int = 50, tau: float = 1e-8) -> float:
    """Max disagreement of local representatives under dst transitions, over
    a stack of lattice points of the source chart's main box per pair."""
    worst = 0.0
    for (a, b1), rep1 in sm.locals.items():
        for (a2, b2), rep2 in sm.locals.items():
            tm, box = sm.dst.transition_map(b1, b2), sm.src.chart(a).main_box
            if a2 != a or b2 <= b1 or tm is None or not box.bounded:
                continue
            X = box.lattice(n)[:: max(1, n // 10)]
            Y1, Y2 = rep1.try_call(X), rep2.try_call(X)
            inside = sm.dst.chart(b1).contains(Y1) & sm.dst.chart(b2).contains(Y2)
            if inside.any():
                d = np.abs(tm.try_call(Y1[inside]) - Y2[inside]).max(axis=1)
                worst = max(worst, float(d[~np.isnan(d)].max(initial=0.0)))
    if worst > tau:
        raise OutOfDomain(f"local representatives disagree by {worst:g} > {tau:g}")
    return worst


# ======================================================================
# Vector bundles
# ======================================================================


@dataclass(frozen=True)
class BundleElement:
    """A single bundle element: base chart, base coords, fiber coords."""

    chart: str
    x: np.ndarray
    xi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.atleast_1d(np.asarray(self.x, dtype=float)))
        object.__setattr__(self, "xi", np.atleast_1d(np.asarray(self.xi, dtype=float)))

    @property
    def base(self) -> Point:
        return Point(self.chart, self.x)


@dataclass
class VectorBundle:
    """Vector bundle over a chart atlas, trivialized chart by chart.

    ``vb_transitions[(a, b)]`` is a GL(fiber_dim) matrix field of the
    chart-a base coordinates, mapping a-fiber coordinates to b-fiber
    coordinates over the same point.
    """

    base: Atlas
    fiber_dim: int
    vb_transitions: dict
    fiber_metric: Optional[dict] = None
    name: str = ""

    def rechart(self, e: BundleElement, b: str) -> Optional[BundleElement]:
        if e.chart == b:
            return e
        y = self.base.rechart(e.base, b)
        if y is None:
            return None
        fld = self.vb_transitions.get((e.chart, b))
        if fld is None:
            return None
        M = np.asarray(fld(e.x), dtype=float)
        return BundleElement(b, y, M @ e.xi)

    def representations(self, e: BundleElement) -> list:
        out = []
        for b, _y, m in self.base.representations(e.base):
            eb = self.rechart(e, b)
            if eb is not None:
                out.append((b, eb, m))
        return out


def fiber_norm(bundle: VectorBundle, e: BundleElement, strict: bool = False) -> float:
    """Fiber norm of a bundle element.

    Exactly chart-independent when a fiber metric is supplied; the euclidean
    fallback is chart-dependent only up to equivalence-of-norms constants.
    """
    if bundle.fiber_metric is None:
        if strict:
            raise MissingFiberMetric(
                f"bundle {bundle.name!r} has no fiber metric")
        return float(np.linalg.norm(e.xi))
    G = np.asarray(bundle.fiber_metric[e.chart](e.x), dtype=float)
    q = float(e.xi @ G @ e.xi)
    return math.inf if math.isnan(q) else math.sqrt(max(0.0, q))


def tangent_bundle(atlas: Atlas, fiber_metric_from_base: bool = True) -> VectorBundle:
    """Tangent bundle: vb-transitions are Jacobians of the base transitions."""
    dim = atlas.chart(atlas.chart_ids[0]).dim
    vb_trans = {}
    for (a, b), tm in atlas.transitions.items():
        vb_trans[(a, b)] = tm.derivative_map()
    fiber_metric = None
    if fiber_metric_from_base and atlas.metric is not None:
        fiber_metric = dict(atlas.metric.fields)
    return VectorBundle(atlas, dim, vb_trans, fiber_metric,
                        name=f"T({atlas.name})")


def trivial_bundle(atlas: Atlas, fiber_dim: int = 1) -> VectorBundle:
    dim_id = np.eye(fiber_dim)
    vb_trans = {}
    for (a, b) in atlas.transitions:
        n = atlas.chart(a).dim
        vb_trans[(a, b)] = LocalMap(n, (fiber_dim, fiber_dim),
                                    fn=lambda x, M=dim_id: M, name="id")
    fm = {cid: LocalMap(atlas.chart(cid).dim, (fiber_dim, fiber_dim),
                        fn=lambda x, M=dim_id: M, name="id")
          for cid in atlas.chart_ids}
    return VectorBundle(atlas, fiber_dim, vb_trans, fm, name=f"{atlas.name}xR{fiber_dim}")


# ======================================================================
# Lipschitz certificates
# ======================================================================


def lipschitz_bound(f: LocalMap, K: Box, domain: Optional[Box] = None,
                    pad_frac: float = 0.1, density: int = 33) -> float:
    """Certified Lipschitz constant of f on the compact box K.

    Returns C = C1 * sup_L (|f| + |Df|) over a lattice of a fixed compact
    neighborhood L of K, with C1 = max(1, 2/delta) for padding delta (the
    bump-function derivative in the underlying cutoff argument scales like
    1/delta).
    """
    pad = pad_frac * np.maximum(K.extent, 1e-6)
    if domain is not None:
        gap_lo = K.lo - domain.lo
        gap_hi = domain.hi - K.hi
        if np.any(gap_lo <= 0) or np.any(gap_hi <= 0):
            raise MarginTooSmall("K touches the domain boundary")
        pad = np.minimum(pad, np.minimum(gap_lo, gap_hi) / 2.0)
    if np.any(pad <= 0):
        raise MarginTooSmall("no compact neighborhood with positive margin")
    L = Box(K.lo - pad, K.hi + pad)
    c1 = max(1.0, 2.0 / float(np.min(pad)))
    sup = 0.0
    for z in L.lattice(density):
        v = f.try_call(z)
        if v is None:
            raise MarginTooSmall(f"f undefined at {z} in the padded neighborhood")
        J = f.jacobian(z)
        sup = max(sup, float(np.linalg.norm(v.ravel())) + float(np.linalg.norm(J, 2)))
    return c1 * sup


# ======================================================================
# Built-in atlases
# ======================================================================


def euclidean_atlas(bounds, name: str = "euclid", chart_id: str = "e0") -> Atlas:
    """Open box in R^n as a single-chart atlas with the flat metric."""
    box = Box.of(bounds)
    chart = Chart(chart_id, box.dim, (box,), label=name)
    metric = RiemannianMetric(
        fields={chart_id: LocalMap(box.dim, (box.dim, box.dim),
                                   fn=lambda x, n=box.dim: np.eye(n), name="flat")},
        analytic=_euclid_distance, name="flat")
    return Atlas([chart], {}, name=name, metric=metric)


def _euclid_distance(atlas: Atlas, p: Point, q: Point) -> float:
    # all charts of a multi-chart euclidean atlas share the ambient coords
    return float(np.linalg.norm(p.coords - q.coords))


def euclidean_multichart(chart_boxes: dict, name: str = "euclid-multi") -> Atlas:
    """Euclidean atlas with several identity-overlapping chart boxes."""
    charts = []
    boxes = {cid: Box.of(b) for cid, b in chart_boxes.items()}
    dim = next(iter(boxes.values())).dim
    for cid, box in sorted(boxes.items()):
        charts.append(Chart(cid, dim, (box,), label=name))
    transitions = {}
    for a, b in itertools.permutations(sorted(boxes), 2):
        if boxes[a].clip(boxes[b]) is None:
            continue
        transitions[(a, b)] = LocalMap(
            dim, (dim,), fn=lambda x: x,
            jac=lambda x, n=dim: np.eye(n),
            defined=lambda x, bb=boxes[b]: bb.contains(x), name=f"id:{a}->{b}")
    metric_fields = {cid: LocalMap(dim, (dim, dim), fn=lambda x, n=dim: np.eye(n))
                     for cid in boxes}
    metric = RiemannianMetric(metric_fields, analytic=_euclid_distance, name="flat")
    return Atlas(charts, transitions, name=name, metric=metric)


CIRCLE_HALF_WIDTH = 3.0  # angle-chart half width; < pi, wide enough overlaps


def circle_atlas(name: str = "circle") -> Atlas:
    """Unit circle with two angle charts of half-width 3.

    Chart 'ang0' stores the angle t of e^(it); chart 'angpi' stores the angle
    relative to the antipode, point = e^(i(t+pi)).
    """
    w = CIRCLE_HALF_WIDTH
    box = Box([-w], [w])
    c0 = Chart("ang0", 1, (box,), label="angle about 1")
    c1 = Chart("angpi", 1, (box,), label="angle about -1")

    def shift(delta):
        return LocalMap.from_expr(lambda t, d=delta: jets.wrap_angle(t + d),
                                  out_shape=(1,), name=f"shift{delta:+.3f}")

    transitions = {
        ("ang0", "angpi"): shift(-math.pi),
        ("angpi", "ang0"): shift(math.pi),
    }
    fields = {cid: LocalMap(1, (1, 1), fn=lambda x: np.eye(1), name="round")
              for cid in ("ang0", "angpi")}

    def circ_distance(atlas, p, q):
        return abs(jets.wrap_angle(circle_angle(p) - circle_angle(q)))

    metric = RiemannianMetric(fields, analytic=circ_distance, name="round")
    return Atlas([c0, c1], transitions, name=name, metric=metric)


def circle_angle(p: Point) -> float:
    """Global angle in (-pi, pi] of a circle point."""
    t = float(p.coords[0])
    if p.chart == "ang0":
        return jets.wrap_angle(t)
    if p.chart == "angpi":
        return jets.wrap_angle(t + math.pi)
    raise NoOverlap(f"{p.chart!r} is not a circle chart")


SPHERE_BOX_HALF = 4.0


def sphere_atlas(name: str = "sphere") -> Atlas:
    """Unit 2-sphere with stereographic charts from the two poles."""
    w = SPHERE_BOX_HALF
    box = Box([-w, -w], [w, w])
    north = Chart("north", 2, (box,), label="stereographic from north pole")
    south = Chart("south", 2, (box,), label="stereographic from south pole")

    def inversion(x):
        r2 = float(x @ x)
        return x / r2

    def inversion_jac(x):
        r2 = float(x @ x)
        return (np.eye(2) - 2.0 * np.outer(x, x) / r2) / r2

    def inv_defined(x):  # off the origin, and finite: inf / inf is no coordinate
        return 1e-12 < float(x @ x) < math.inf

    tm = LocalMap(2, (2,), fn=inversion, jac=inversion_jac,
                  defined=inv_defined, name="inversion")
    transitions = {("north", "south"): tm, ("south", "north"): tm}

    def round_field(x):
        c = 4.0 / (1.0 + float(x @ x)) ** 2
        return c * np.eye(2)

    fields = {cid: LocalMap(2, (2, 2), fn=round_field, name="round")
              for cid in ("north", "south")}

    def sph_distance(atlas, p, q):
        # chord-based formula: exact at coincident points, stable for small gaps
        a = sphere_embed(p)
        b = sphere_embed(q)
        chord = float(np.linalg.norm(a - b))
        return 2.0 * math.asin(min(1.0, chord / 2.0))

    metric = RiemannianMetric(fields, analytic=sph_distance, name="round")
    return Atlas([north, south], transitions, name=name, metric=metric)


def sphere_embed(p: Point) -> np.ndarray:
    """Unit-sphere point in R^3 from stereographic coordinates."""
    x = p.coords
    r2 = float(x @ x)
    if p.chart == "north":
        return np.array([2 * x[0], 2 * x[1], r2 - 1.0]) / (r2 + 1.0)
    if p.chart == "south":
        return np.array([2 * x[0], 2 * x[1], 1.0 - r2]) / (r2 + 1.0)
    raise NoOverlap(f"{p.chart!r} is not a sphere chart")


def disjoint_union(parts: dict, name: str = "union") -> Atlas:
    """Disjoint union of atlases; chart ids get 'prefix.' prepended."""
    charts = []
    transitions = {}
    fields = {}
    analytic_parts = {}
    for prefix, atlas in sorted(parts.items()):
        for cid in atlas.chart_ids:
            c = atlas.chart(cid)
            charts.append(Chart(f"{prefix}.{cid}", c.dim, c.domain, c.label))
        for (a, b), tm in atlas.transitions.items():
            transitions[(f"{prefix}.{a}", f"{prefix}.{b}")] = tm
        if atlas.metric is not None:
            for cid, fld in atlas.metric.fields.items():
                fields[f"{prefix}.{cid}"] = fld
            analytic_parts[prefix] = (atlas, atlas.metric)

    def union_distance(_atlas, p, q):
        pa, ca = p.chart.split(".", 1)
        qa, cb = q.chart.split(".", 1)
        if pa != qa:
            return math.inf
        part_atlas, part_metric = analytic_parts[pa]
        if part_metric.analytic is None:
            raise NoOverlap("component metric lacks analytic distance")
        return part_metric.analytic(part_atlas, Point(ca, p.coords), Point(cb, q.coords))

    metric = None
    if len(analytic_parts) == len(parts) and all(
            m.analytic is not None for _, m in analytic_parts.values()):
        metric = RiemannianMetric(fields, analytic=union_distance, name="union")
    elif fields:
        metric = RiemannianMetric(fields, analytic=None, name="union")
    return Atlas(charts, transitions, name=name, metric=metric)


def product_atlas(a: Atlas, b: Atlas, name: str = "") -> Atlas:
    """Binary product; charts are pairs 'ca*cb' with concatenated coordinates."""
    charts = []
    dims_a = {cid: a.chart(cid).dim for cid in a.chart_ids}
    for ca in a.chart_ids:
        for cb in b.chart_ids:
            boxes = tuple(
                Box(np.concatenate([ba.lo, bb.lo]), np.concatenate([ba.hi, bb.hi]))
                for ba in a.chart(ca).domain for bb in b.chart(cb).domain)
            charts.append(Chart(f"{ca}*{cb}", a.chart(ca).dim + b.chart(cb).dim, boxes))
    transitions = {}
    for ca1 in a.chart_ids:
        for ca2 in a.chart_ids:
            ta = a.transition_map(ca1, ca2) if ca1 != ca2 else "id"
            if ta is None:
                continue
            for cb1 in b.chart_ids:
                for cb2 in b.chart_ids:
                    tb = b.transition_map(cb1, cb2) if cb1 != cb2 else "id"
                    if tb is None or (ta == "id" and tb == "id"):
                        continue
                    na = dims_a[ca1]
                    transitions[(f"{ca1}*{cb1}", f"{ca2}*{cb2}")] = _product_transition(
                        ta, tb, na, a.chart(ca2).dim + b.chart(cb2).dim)
    fields = {}
    if a.metric is not None and b.metric is not None:
        for ca in a.chart_ids:
            for cb in b.chart_ids:
                na = dims_a[ca]
                fa = a.metric.fields[ca]
                fb = b.metric.fields[cb]

                def block(x, fa=fa, fb=fb, na=na):
                    ga = np.asarray(fa(x[:na]), dtype=float)
                    gb = np.asarray(fb(x[na:]), dtype=float)
                    out = np.zeros((len(x), len(x)))
                    out[:na, :na] = ga
                    out[na:, na:] = gb
                    return out

                fields[f"{ca}*{cb}"] = LocalMap(
                    na + b.chart(cb).dim,
                    (na + b.chart(cb).dim, na + b.chart(cb).dim), fn=block)

    def prod_distance(_atlas, p, q, na_map=dims_a):
        ca, cb = p.chart.split("*", 1)
        cc, cd = q.chart.split("*", 1)
        na = na_map[ca]
        da = a.metric.analytic(a, Point(ca, p.coords[:na]), Point(cc, q.coords[:na]))
        db = b.metric.analytic(b, Point(cb, p.coords[na:]), Point(cd, q.coords[na:]))
        if math.isinf(da) or math.isinf(db):
            return math.inf
        return math.hypot(da, db)

    metric = None
    if fields and a.metric.analytic is not None and b.metric.analytic is not None:
        metric = RiemannianMetric(fields, analytic=prod_distance, name="product")
    elif fields:
        metric = RiemannianMetric(fields, analytic=None, name="product")
    return Atlas(charts, transitions, name=name or f"{a.name}x{b.name}", metric=metric)


def _product_transition(ta, tb, na: int, out_dim: int) -> LocalMap:
    def fn(x):
        xa, xb = x[:na], x[na:]
        ya = xa if ta == "id" else ta.try_call(xa)
        yb = xb if tb == "id" else tb.try_call(xb)
        if ya is None or yb is None:
            raise ValueError("outside overlap")
        return np.concatenate([np.atleast_1d(ya), np.atleast_1d(yb)])

    def defined(x):
        ok_a = True if ta == "id" else ta.try_call(x[:na]) is not None
        ok_b = True if tb == "id" else tb.try_call(x[na:]) is not None
        return ok_a and ok_b

    return LocalMap(na + (out_dim - na), (out_dim,), fn=fn, defined=defined,
                    name="product-transition")


# ======================================================================
# Sampled structural checks
# ======================================================================


def check_transitions(atlas: Atlas, n: int = 100, tau: float = 1e-8) -> dict:
    """Round-trip and cocycle consistency of the transition table, sampled.

    Returns {'round_trip': max deviation, 'cocycle': max deviation,
    'n_round': ..., 'n_cocycle': ...}; raises OutOfDomain when tau is hit.
    Each transition (a, b) takes a lattice of chart a's main box as one stack;
    the rows it lands in chart b go back to a, and to each third chart c both
    ways (the rows where every map is defined count).
    """
    gaps: dict = {"round_trip": [], "cocycle": []}
    for a, b in atlas.transitions:
        box = atlas.chart(a).main_box
        if not box.bounded:
            continue
        X = box.lattice(max(2, int(math.ceil(n ** (1.0 / box.dim)))))
        Y = atlas.rechart(Point(a, X), b)
        X, Y = X[~np.isnan(Y[:, 0])], Y[~np.isnan(Y[:, 0])]
        for c in atlas.chart_ids:
            tbc, tac = atlas.transition_map(b, c), atlas.transition_map(a, c)
            if len(X) and tbc is not None and (c == a or tac is not None):
                d = np.abs(tbc.try_call(Y) - (X if c == a else tac.try_call(X))).max(axis=1)
                gaps["round_trip" if c == a else "cocycle"].append(d[~np.isnan(d)])
    out = {}
    for kind, count in (("round_trip", "n_round"), ("cocycle", "n_cocycle")):
        d = np.concatenate([np.zeros(0)] + gaps[kind])
        out[kind], out[count] = float(d.max(initial=0.0)), len(d)
    if max(out["round_trip"], out["cocycle"]) > tau:
        raise OutOfDomain(f"transition consistency {max(out['round_trip'], out['cocycle']):g} "
                          f"exceeds {tau:g}")
    return out


def check_metric_spd(atlas: Atlas, g: RiemannianMetric,
                     region: Optional[CompactRegion] = None) -> float:
    """Smallest sampled eigenvalue of g (must be > 0); also checks symmetry."""
    region = region or _default_region(atlas)
    min_eig = math.inf
    for cid, lat in region.lattices():
        for x in lat:
            G = g.at(cid, x)
            if not np.allclose(G, G.T, atol=1e-10):
                raise ValueError(f"metric not symmetric at {x} in chart {cid!r}")
            w = np.linalg.eigvalsh(G)
            min_eig = min(min_eig, float(w[0]))
    if min_eig <= 0:
        raise ValueError(f"metric not positive definite (min eig {min_eig:g})")
    return min_eig


def riemannian_operator_norm(J: np.ndarray, G_src: np.ndarray, G_dst: np.ndarray) -> float:
    """Operator norm of a linear map between inner-product spaces."""
    # largest singular value of G_dst^{1/2} J G_src^{-1/2}
    ws, Vs = np.linalg.eigh(G_src)
    wd, Vd = np.linalg.eigh(G_dst)
    s_inv_half = Vs @ np.diag(1.0 / np.sqrt(np.maximum(ws, 1e-300))) @ Vs.T
    d_half = Vd @ np.diag(np.sqrt(np.maximum(wd, 0.0))) @ Vd.T
    M = d_half @ np.asarray(J, dtype=float) @ s_inv_half
    if not np.all(np.isfinite(M)):
        return math.inf
    return float(np.linalg.norm(M, 2))
