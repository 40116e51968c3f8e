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
import types
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

    Containment and margins take a stack, an array of shape (..., dim), and
    answer per row; a point is the one-row stack (``point_rows``), answered
    as a Python bool or float.  ``bounds`` holds the per-axis ``(lo, hi)``
    pairs; the read-only arrays ``lo``/``hi`` serve the array users (stacks,
    lattices, clipping, padding).
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

    def contains(self, x, margin: float = 0.0, closed: bool = False):
        """Is x inside, shrunk (open) or grown (closed) by margin?  A
        non-finite coordinate lies in no box.  At a stack, a bool per row."""
        P, single = _dim_rows(x, self.dim)
        if closed:
            inside = np.isfinite(P) & (self.lo - margin <= P) & (P <= self.hi + margin)
        else:
            inside = (self.lo + margin < P) & (P < self.hi - margin)  # false for NaN, +-inf
        inside = inside.all(axis=-1)
        return bool(inside[0]) if single else inside

    def norm_margin(self, x):
        """Distance to the boundary, normalized by extent; negative outside.

        Axes with an infinite bound use a reciprocal escape statistic so that
        points running off to infinity score margins tending to zero (both
        ways on an axis without bounds, see ``_axis_margin``).  A
        non-finite coordinate scores -inf.  At a stack, each row's.
        """
        P, single = _dim_rows(x, self.dim)
        with np.errstate(over="ignore", invalid="ignore"):
            m = functools.reduce(_rows_min, [_axis_margin(P[..., i], lo, hi)
                                             for i, (lo, hi) in enumerate(self.bounds)], math.inf)
        m = np.where(np.isfinite(P).all(axis=-1), m, -math.inf)
        return float(m[0]) if single else m

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


def _dim_rows(x, dim: int) -> tuple:
    """``point_rows(x)``, ValueError unless each row has dim coordinates (only
    an ndarray is a stack: a nested list is a malformed point)."""
    P, single = point_rows(x)
    if P.shape[-1:] != (dim,) or not (single or type(x) is np.ndarray):
        raise ValueError(f"point(s) of shape {np.shape(x)} in a box of dimension {dim}")
    return P, single


def _axis_margin(x, lo: float, hi: float):
    """The margins of the coordinates x (an array) on the axis (lo, hi).
    Past s = 1 + |finite bounds| from a finite bound, or from 0 on an axis
    without bounds, an infinite side reads s / (s + distance beyond)."""
    if math.isfinite(lo) and math.isfinite(hi):
        return _rows_min(x - lo, hi - x) / (hi - lo)
    s = 1.0 + (abs(lo) if math.isfinite(lo) else 0.0) + (abs(hi) if math.isfinite(hi) else 0.0)
    m = 0.5
    if math.isfinite(lo):
        m = _rows_min(m, (x - lo) / s)
        if not math.isfinite(hi):
            beyond = _rows_max(0.0, x - (lo + s))
            m = _rows_min(m, s / (s + beyond))
    if math.isfinite(hi):
        m = _rows_min(m, (hi - x) / s)
        if not math.isfinite(lo):
            beyond = _rows_max(0.0, (hi - s) - x)
            m = _rows_min(m, s / (s + beyond))
    if not (math.isfinite(lo) or math.isfinite(hi)):  # running off either end
        m = _rows_min(m, s / (s + _rows_max(0.0, abs(x) - s)))
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
        P, single = _dim_rows(x, self.dim)
        inside = functools.reduce(np.logical_or, [b.contains(P, margin) for b in self.domain])
        return bool(inside[0]) if single else inside

    def norm_margin(self, x):
        """The best domain box's margin (see ``Box.norm_margin``); at a stack, per row."""
        P, single = _dim_rows(x, self.dim)
        m = functools.reduce(_rows_max, [b.norm_margin(P) for b in self.domain])
        return float(m[0]) if single else m

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


class PointStack:
    """Points of an atlas stacked, each row in its own chart: ``chart[i]``
    indexes ``atlas.chart_ids`` and ``coords[i, :dim]`` holds row i's
    coordinates there (NaN beyond the chart's dimension; read-only, as the
    points handed out are views into it).  A row without a point has chart
    -1, and reading it raises ``error(i)``."""

    def __init__(self, atlas: "Atlas", chart: np.ndarray, coords: np.ndarray,
                 error: Optional[Callable[[int], Exception]] = None):
        self.atlas, self.chart, self.coords, self.error = atlas, chart, coords, error
        coords.flags.writeable = False

    @classmethod
    def of(cls, atlas: "Atlas", pts: list, error=None) -> "PointStack":
        """The stack of a list of Points, None for a row without a point."""
        return cls.of_arrays(atlas, [(None, np.empty((1, 0))) if p is None
                                     else (p.chart, p.coords[None]) for p in pts], error)

    @classmethod
    def of_arrays(cls, atlas: "Atlas", pieces: list, error=None) -> "PointStack":
        """The stack of the rows of [(chart id, coordinates (N, dim))] in order,
        a chart id None for rows without a point."""
        ids = atlas.chart_ids
        chart = np.repeat([-1 if cid is None else ids.index(atlas.chart(cid).id)
                           for cid, _X in pieces],  # NoOverlap for a chart not in atlas
                          [len(X) for _cid, X in pieces]).astype(int)
        coords = np.full((len(chart), max(atlas.chart(c).dim for c in ids)), math.nan)
        end = 0
        for _cid, X in pieces:
            end += len(X)
            coords[end - len(X):end, :X.shape[1]] = X
        return cls(atlas, chart, coords, error)

    def point(self, i: int) -> Point:
        if self.chart[i] < 0:
            raise self.error(i)
        return self.stack(self.chart[i], i)

    def stack(self, c: int, rows) -> Point:
        """The rows ``rows``, all in the chart of index c, as one (stacked)
        Point; rows without value (c = -1, ``rows`` a mask) raise the first
        one's error."""
        if c < 0:
            raise self.error(int(np.argmax(rows)))
        cid = self.atlas.chart_ids[c]
        return Point(cid, self.coords[rows, :self.atlas.chart(cid).dim])

    def rechart(self, b: str) -> np.ndarray:
        """Each row's coordinates in chart b (NaN rows where it has none), from
        one stacked ``Atlas.rechart`` per chart of the stack."""
        out = np.full((len(self.chart), self.atlas.chart(b).dim), math.nan)
        for c in set(self.chart.tolist()) - {-1}:
            rows = self.chart == c
            y = self.atlas.rechart(self.stack(c, rows), b)
            out[rows] = math.nan if y is None else y
        return out


# ======================================================================
# Local maps with derivative oracle
# ======================================================================


class LocalMap:
    """Smooth map between chart coordinate patches, with derivative oracle.

    Evaluation returns an ndarray of shape ``out_shape``.  Every derivative
    tensor comes from one method, ``derivs_upto``, which takes, in order of
    preference: an expression closure over jets (exact, any order, 1-D input
    only), an exact Jacobian, then 4th-order central differences on one grid
    of offsets per root y with the one step 1e-4*(1+|y|) (``fd_tensors``), of
    the value, or of the Jacobian when the map has one: the hooks that
    ``fd_leaf`` hands out, None for a map that differentiates otherwise.
    ``exact_order`` is the highest order those tensors are exact to: inf
    for an expression, 1 with a Jacobian, else 0.  A map whose rows other
    maps own (``owners``: a composite's route maps, ``gmap.ChainedLocalMap``;
    the gaps of their pairs, ``gmap._GapMap``; their derivative maps; a
    derivative sweep's eps runs) takes each row's tensors from its owner
    (``owned_tensors``, called only here), so ``fd_tensors`` runs only here.
    Evaluation is pure, so maps that are the same (``same_pure_map``) compute
    alike: eps runs of one such map share their evaluations (``gmap._RunsMap``).

    The derivative oracle and ``try_call`` take a point, shape ``(in_dim,)``,
    or a stack of points, shape ``(N, in_dim)``; for a stack every tensor
    gains a leading row axis.  An expression is evaluated once on the array
    jet of the stack's column; otherwise one ``_values`` (or ``_jacobians``)
    call reads the grids of all rows, and
    ``try_call`` masks rows by ``_defined_rows``.  These hooks call a user's
    ``fn``, ``jac`` and ``defined`` once per row (their contract is per point);
    the atlas maps built here (transitions, their Jacobians and domains,
    metric and bundle fields) take a whole stack in one call (``_StackMap``).
    An expression at an ``eps_column`` (``exprs``) takes only stacks of its
    rows, one row per eps: it raises DerivativeUndefined at a stack of another
    length (such as the rows of the grids) and at a point (a point has no eps),
    where others retry a row alone.
    """

    def __init__(self, in_dim: int, out_shape, fn=None, expr=None, jac=None,
                 defined=None, name: str = "", eps_column=None):
        self.in_dim = int(in_dim)
        self.out_shape = tuple(out_shape) if isinstance(out_shape, (tuple, list)) else (int(out_shape),)
        self.out_size = math.prod(self.out_shape)
        self.fn = fn
        self.expr = expr
        self.jac = jac
        self.defined = defined
        self.name = name
        self.eps_column = eps_column
        if expr is not None and in_dim != 1:
            raise ValueError("expression oracles require 1-D input")
        if fn is None and expr is None:
            raise ValueError("a local map needs fn or expr")
        self.exact_order = math.inf if expr is not None else 1 if jac is not None else 0

    @classmethod
    def from_expr(cls, expr, out_shape=(1,), name: str = "", **kw) -> "LocalMap":
        return cls(1, out_shape, expr=expr, name=name, **kw)

    def _value(self, x: np.ndarray) -> np.ndarray:
        if self.eps_column is not None:
            raise DerivativeUndefined(f"local map {self.name!r} at an eps column takes "
                                      "stacks of its rows, not a point")
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
        """The values at a stack, NaN rows where undefined (``defined`` false, or a
        raise; see ``_tried``); at a point, the one-row stack's row, or None.  At an
        eps column, one ``_values`` call, and a point raises DerivativeUndefined."""
        P, single = point_rows(x)
        if self.eps_column is not None:
            return self._value(P[0]) if single else self._values(P)
        Y, ok = self._tried(P)
        return (Y[0] if ok[0] else None) if single else Y

    def _tried(self, P: np.ndarray) -> tuple:
        """(Y, ok): the values at the stack P (NaN rows where undefined) and whether
        each row has one, from one ``_values`` call on the defined rows; where it
        raises, each defined row by ``_value`` or, where that raises, undefined (for
        an expression, the float expression: sqrt(t*t) has a value at 0, no jet)."""
        ok = self._defined_rows(P)
        Y = np.full((len(P),) + self.out_shape, math.nan)
        try:
            Y[ok] = self._values(P[ok])
        except _UNDEFINED + (DerivativeUndefined,):
            self._alone(P, ok, Y)
        return Y, ok

    def _alone(self, P: np.ndarray, ok: np.ndarray, Y: np.ndarray) -> None:
        """Each row of P that ``ok`` marks by ``_value`` into Y, unmarked where that raises."""
        for r in np.flatnonzero(ok):
            try:
                Y[r] = self._value(P[r])
            except _UNDEFINED:
                ok[r] = False

    def _defined_rows(self, P: np.ndarray) -> np.ndarray:
        """A new bool per row of P: ``defined`` row by row (true without one)."""
        return (np.ones(len(P), dtype=bool) if self.defined is None
                else np.array([bool(self.defined(p)) for p in P], dtype=bool))

    def deriv_tensor(self, x, k: int) -> np.ndarray:
        """Total derivative of order k, shape out_shape + (in_dim,)*k (with a
        leading row axis for a stack of points)."""
        return self.derivs_upto(x, k)[k]

    def derivs_upto(self, x, k_max: int) -> list:
        """Tensors of orders 0..k_max at a point or at every row of a stack:
        the owners' where other maps own its rows (``owned_tensors``), else
        one jet evaluation over all rows on the expr path, else central
        differences of the ``fd_leaf`` hooks on the grids of all rows
        (``fd_tensors``).

        Raises DerivativeUndefined where the expression has a value but its
        jet fails (log or division by zero inside the jet recurrences)."""
        P, single = point_rows(x)
        owners, leaf = None if self.owners is None else self.owners(P), self.fd_leaf(k_max)
        ts = (owned_tensors(self, owners, P, k_max) if owners is not None
              else self._expr_tensors(P, k_max) if leaf is None else fd_tensors(*leaf, P, k_max))
        return [t[0] for t in ts] if single else ts

    # owners(P) -> [(rows, map)]: the maps whose tensors are this map's at the
    # rows (indices) of the stack P, or None where it owns them (or no hook).
    owners: Optional[Callable[[np.ndarray], Optional[list]]] = None
    # Where the owners are a grid's eps runs (gmap._RunsMap): per owner, whether
    # it is the map of several runs (``same_pure_map``); else None.
    merged: Optional[list] = None

    def fd_leaf(self, k_max: int) -> Optional[tuple]:
        """(values, jacobians): the stacked hooks whose central differences
        ``derivs_upto`` takes at order k_max (jacobians None without a
        Jacobian), or None where it takes none: an expression's jet."""
        if self.expr is not None:
            return None
        return self._values, None if self.jac is None else self._jacobians

    def _expr_tensors(self, P: np.ndarray, k_max: int) -> list:
        """Tensors of orders 0..k_max at the rows of P from one jet over P's
        column (the float jet for one row), else row by row: DerivativeUndefined
        names the first failing row, and a value-branching expression works."""
        n = len(P)
        if self.eps_column is not None and n != len(self.eps_column):
            raise DerivativeUndefined(f"local map {self.name!r} at an eps column takes only "
                                      f"stacks of its rows: {n} rows, {len(self.eps_column)} eps")
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                coeffs = self._jet_coeffs(float(P[0, 0]) if n == 1 else P[:, 0], k_max)
        except DerivativeUndefined:
            if self.eps_column is not None:
                raise
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

    def _jacobians(self, P: np.ndarray) -> np.ndarray:
        """``jac`` at the rows of P, shape (len(P),) + out_shape + (in_dim,)."""
        return self._stack(self.jac, P, self.out_shape + (self.in_dim,), "jac returned")

    def _stack(self, f, P: np.ndarray, shape: tuple, what: str) -> np.ndarray:
        """f at every row of P (f None: the outputs P) as one array of shape
        (len(P),) + shape.

        The outputs are stacked once and their size checked once; only
        outputs that do not stack to that size are looked at row by row, to
        name the first output of the wrong size (OutputShapeMismatch) or to
        reshape outputs of the right size but different shapes."""
        outs = P if f is None else [f(p) for p in P]
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

    def jacobian(self, x) -> np.ndarray:  # (out_size, in_dim) at a point, or their stack
        j = self.deriv_tensor(x, 1)
        return j.reshape(j.shape[:j.ndim - len(self.out_shape) - 1] + (self.out_size, self.in_dim))

    def derivative_map(self) -> "LocalMap":
        return _DerivedMap(self)


def same_pure_map(m: LocalMap, n: LocalMap) -> bool:
    """Whether the local maps m and n are the same pure function: one object,
    or two plain ``LocalMap``s (the ``fn`` path: no ``expr``, no
    ``eps_column``) with equal ``in_dim`` and ``out_shape`` whose ``fn``,
    ``jac`` and ``defined`` are each the same (``_same_callable``).  So a
    factory's fresh ``lambda x: R @ x + c`` per eps is the same map at every
    eps, and a closure over eps, or a default computed from it, is not."""
    if m is n:
        return True
    return (type(m) is LocalMap and type(n) is LocalMap and m.expr is None and n.expr is None
            and m.eps_column is None and n.eps_column is None
            and m.in_dim == n.in_dim and m.out_shape == n.out_shape
            and _same_callable(m.fn, n.fn) and _same_callable(m.jac, n.jac)
            and _same_callable(m.defined, n.defined))


def _same_callable(f, g) -> bool:
    """One object, or two Python functions with the same code and globals whose
    closure cells' contents, defaults and keyword defaults are the same objects
    (an empty cell is only itself; any other callable only itself)."""
    if f is g:
        return True
    if type(f) is not types.FunctionType or type(g) is not types.FunctionType \
            or f.__code__ is not g.__code__ or f.__globals__ is not g.__globals__:
        return False
    for c, d in zip(f.__closure__ or (), g.__closure__ or ()):  # one code: as many cells
        if c is not d and _contents(c) is not _contents(d):
            return False
    df, dg = f.__defaults__ or (), g.__defaults__ or ()
    kf, kg = f.__kwdefaults__ or {}, g.__kwdefaults__ or {}
    return (len(df) == len(dg) and all(a is b for a, b in zip(df, dg))
            and kf.keys() == kg.keys() and all(kf[k] is kg[k] for k in kf))


def _contents(cell):
    """A closure cell's contents, or the cell itself where it is empty."""
    try:
        return cell.cell_contents
    except ValueError:
        return cell


def distinct_owners(P: np.ndarray, owners: list, merged: Optional[list]) -> tuple:
    """(owners, copies): the ``owners`` [(rows, map)] of rows of the stack P,
    each that ``merged`` flags (``LocalMap.merged``) on the first of each of
    its distinct rows, in order of first occurrence, and per such owner
    (rows, src): its rows take the values at the rows src.  Rows are
    distinct by their bytes: -0.0 is not 0.0."""
    out, copies = [], []
    for (rows, m), flag in zip(owners, merged or [False] * len(owners)):
        if flag:
            X = np.ascontiguousarray(P[rows])
            _u, index, inverse = np.unique(X.view(np.dtype((np.void, X.itemsize * X.shape[1])))
                                           .ravel(), return_index=True, return_inverse=True)
            order = np.argsort(index)
            first = rows[index[order]]
            copies.append((rows, first[np.argsort(order)[inverse.ravel()]]))
            rows = first
        out.append((rows, m))
    return out, copies


class _StackMap(LocalMap):
    """A local map from the hooks given on a stack P, ``values(P)``,
    ``jacobians(P)``, ``defined(P)`` (a bool per row) and ``owners(P)``, exact
    to order ``exact_order``; a point is a one-row stack.  The atlas maps
    built here round each row alike in any stack: a stack is one hook call."""

    def __init__(self, in_dim: int, out_shape, values, jacobians=None, exact_order=0,
                 name: str = "", eps_column=None, defined=None, owners=None):
        self._values, self._jacobians = values, jacobians
        if defined is not None:
            self._defined_rows = lambda P: np.array(defined(P), dtype=bool)
        if owners is not None:
            self.owners = owners
        super().__init__(in_dim, out_shape, fn=lambda x: values(x[None])[0], name=name,
                         jac=None if jacobians is None else lambda x: jacobians(x[None])[0],
                         defined=None if defined is None else lambda x: defined(x[None])[0],
                         eps_column=eps_column)
        self.exact_order = exact_order


class _DerivedMap(_StackMap):
    """D(parent): order-k derivatives are parent's order k+1 derivatives.

    The parent's order-(k+1) tensor already has this map's order-k shape,
    out_shape + (in_dim,)*k, so points and stacks pass straight through: the
    values at a stack are one ``parent.derivs_upto(P, 1)``, at the parent's
    ``eps_column`` too, and its rows are the parent's (``_defined_rows``)."""

    def __init__(self, parent: LocalMap):
        self.parent = parent
        super().__init__(parent.in_dim, parent.out_shape + (parent.in_dim,),
                         lambda P: parent.derivs_upto(P, 1)[1], None, parent.exact_order - 1,
                         f"D({parent.name})", parent.eps_column, lambda P: parent._defined_rows(P),
                         None if parent.owners is None  # the parent's owners' derivative maps
                         else lambda P: None if (o := parent.owners(P)) is None
                         else [(rows, _DerivedMap(m)) for rows, m in o])

    def deriv_tensor(self, x, k: int) -> np.ndarray:
        return self.parent.deriv_tensor(x, k + 1)

    def derivs_upto(self, x, k_max: int) -> list:
        return self.parent.derivs_upto(x, k_max + 1)[1:]

    def fd_leaf(self, k_max: int) -> None:  # the parent's tensors, one order up
        return None


def _constant(in_dim: int, M: np.ndarray, name: str = "") -> _StackMap:
    """The constant matrix field M (a new copy per row) on chart coordinates."""
    return _StackMap(in_dim, M.shape, lambda X: np.tile(M, (len(X),) + (1,) * M.ndim), name=name)


def _identity(n: int, name: str, defined=None) -> _StackMap:
    """The identity of R^n, whose Jacobian is the constant field I."""
    return _StackMap(n, (n,), np.copy, _constant(n, np.eye(n))._values, 1, name, defined=defined)


def point_rows(x) -> tuple:
    """(P, single): a point (in_dim,) as the one-row stack P, or a stack
    (N, in_dim) as itself."""
    P = np.asarray(x, dtype=float)
    if P.ndim <= 1:
        return np.atleast_1d(P)[None, :], True
    return P, False


@functools.cache
def _stencil_index(n: int, depth: int) -> list:
    """Per order d = 1..depth, the stencil of every index order of D^d, an
    (n,) * d array of indices into the stencils of ``jets.fd_grid(n, depth)``."""
    out = [np.empty((n,) * d, dtype=np.intp) for d in range(1, depth + 1)]
    for s, (orders, _cols, _weights) in enumerate(jets.fd_grid(n, depth)[1]):
        for idx in orders:
            out[len(idx) - 1][idx] = s
    return out


def fd_tensors(values, jacobians, P: np.ndarray, k_max: int) -> list:
    """Tensors of orders 0..k_max at the rows of P (row axis first) by central
    differences of the stacked ``values`` or, with ``jacobians``, order 0 from
    ``values`` and the rest from differences of the Jacobians.  Each root y
    takes one step h and the grid y + h * offsets of ``jets.fd_grid`` (a
    coordinate at offset 0 is y's own, -0.0 too); the leaf runs once on all
    grids and ``jets.fd_partial`` once over all multi-indices, and each
    order's tensor is one gather of its index orders' partials."""
    leaf, depth, ts = (values, k_max, []) if jacobians is None else (
        jacobians, k_max - 1, [values(P)])
    if depth < 1:  # no difference to take: the leaf at the roots, if asked
        return ts + [leaf(P) for _ in range(depth + 1)]
    (N, n), offsets = P.shape, jets.fd_grid(P.shape[1], depth)[0]
    h, Y = jets.fd_step(P), P[:, None, :]
    vals = leaf(np.where(offsets == 0.0, Y, Y + h[:, None, None] * offsets).reshape(-1, n))
    vals = vals.reshape((N, len(offsets)) + vals.shape[1:])
    partials = np.moveaxis(
        jets.fd_partial(vals, h.reshape((N,) + (1,) * (vals.ndim - 2)), n, depth), 1, -1)
    return ts + [vals[:, 0]] + [partials[..., idx] for idx in _stencil_index(n, depth)]


def owned_tensors(m: LocalMap, owners: list, P: np.ndarray, k_max: int) -> list:
    """m's tensors of orders 0..k_max at the rows of P, which the maps
    ``owners`` [(rows, map)] own (``LocalMap.owners``; an owner's owners in
    its place).  The owners that take differences (``fd_leaf``) share one
    ``fd_tensors`` call per leaf kind, whose hooks hand each its own roots'
    rows (per root the root, or its grid); every other owner makes its own
    ``derivs_upto``.  An owner that ``m.merged`` flags (several eps runs of
    one map) takes each distinct root once (``distinct_owners``; a root's
    tensors do not depend on the others in its stack), and its other rows
    copy them.  After any error the owners make their own calls, in order,
    so the first failing one raises, but eps runs (``m.merged`` not None)
    raise: their reader (``gmap._eps_rows``) redoes them one by one.  Rows
    no owner owns are empty."""
    (todo, copies), fused, parts = distinct_owners(P, owners, m.merged), {}, []
    # fused: no Jacobians? -> [(rows, leaf)]; copies: (rows, src), filled last
    try:
        while todo:
            rows, o = todo.pop(0)
            sub = None if o.owners is None else o.owners(P[rows])
            leaf = o.fd_leaf(k_max)
            if sub is not None:
                todo[:0] = [(rows[r], s) for r, s in sub]
            elif leaf is None:
                parts.append((rows, o.derivs_upto(P[rows], k_max)))
            else:
                fused.setdefault(leaf[1] is None, []).append((rows, leaf))
        for no_jac, group in fused.items():
            rows = np.concatenate([r for r, _leaf in group])
            cuts = np.cumsum([0] + [len(r) for r, _leaf in group]).tolist()

            def hook(i, group=group, cuts=cuts):  # each owner on its roots' rows
                def call(Q):
                    w = len(Q) // cuts[-1]  # rows per root
                    return np.concatenate([leaf[i](Q[a * w:b * w])
                                           for (_r, leaf), a, b in zip(group, cuts, cuts[1:])])
                return call

            parts.append((rows, fd_tensors(hook(0), None if no_jac else hook(1), P[rows], k_max)))
    except Exception:  # any error: the owners one by one raise the first failing one's
        if m.merged is not None:
            raise
        parts = [(rows, o.derivs_upto(P[rows], k_max)) for rows, o in owners]
    if len(parts) == 1 and np.array_equal(parts[0][0], np.arange(len(P))):
        return parts[0][1]  # one pass over every row in order (so no copies): its tensors
    ts = [np.empty((len(P),) + m.out_shape + (m.in_dim,) * k) for k in range(k_max + 1)]
    for rows, got in parts:
        for t, g in zip(ts, got):
            t[rows] = g
    for rows, src in copies:
        for t in ts:
            t[rows] = t[src]
    return ts


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
        """The chart representations of a stacked point: (chart, coords,
        margins) per chart in id order, a row without a representation there
        NaN and -inf.  At a point, the one-row stack's (``row_representations``)."""
        P, single = point_rows(p.coords)
        out = []
        for b in self.chart_ids:
            y = P if b == p.chart else self.rechart(Point(p.chart, P), b)
            if y is not None:
                m = self.chart(b).norm_margin(y)
                m[~(m > 0)] = -math.inf
                out.append((b, np.where(m[:, None] > 0, y, math.nan), m))
        return row_representations(out, 0) if single else out

    def same_component(self, p: Point, q: Point) -> bool:
        return self.components[p.chart] == self.components[q.chart]


def row_representations(reps: list, i: int) -> list:
    """Row i of stacked ``Atlas.representations`` as a point's: (chart,
    coords, margin) where the margin is > 0, best first (largest margin,
    then the smaller chart)."""
    out = [(b, Y[i], float(M[i])) for b, Y, M in reps if M[i] > 0]
    out.sort(key=lambda r: (-r[2], r[0]))
    return out


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

    ``analytic`` is an optional closed-form distance (atlas, P, Q) -> (N,) of
    two stacked Points (one chart each), row by row; when absent, ``distance``
    takes a shortest path on the metric-weighted lattice graph of a compact region.
    """

    fields: dict
    analytic: Optional[Callable] = None
    name: str = ""

    def at(self, chart: str, x) -> np.ndarray:
        """The field of chart at every row of a stack in one call; a point is
        the one-row stack."""
        P, single = point_rows(x)
        G = np.asarray(self.fields[chart]._values(P), dtype=float)
        return G[0] if single else G


def distance(atlas: Atlas, g: Optional[RiemannianMetric], p: Point | PointStack,
             q: Point | PointStack, region: Optional["CompactRegion"] = None, density: int = 17,
             graphs: Optional[Callable] = None):
    """Riemannian distance; inf iff p, q lie in different components.  A
    point pair gives a float, two stacked Points of equal length the (N,)
    distances from one ``g.analytic`` call (a point is the one-row stack).
    The first row (p's before q's) outside its chart raises ``OutOfDomain``;
    without a metric (g None), a ValueError.  Two ``PointStack``s of equal
    length give the (N,) distances from one stacked call per (p chart,
    q chart); if one raises, the row loop ``distance(p.point(i), q.point(i))``
    raises its first error.  Without an analytic distance, ``graphs``
    (density -> lattice graph, each built on first use) is made here when
    None, so the calls of two stacks share their outer call's."""
    if graphs is None and g is not None and g.analytic is None:
        graphs = functools.cache(lambda n: _graph_distance(
            atlas, g, _default_region(atlas) if region is None else region, n))
    if isinstance(p, PointStack):
        if len(p.chart) != len(q.chart):
            raise ValueError(f"distance between stacks of {len(p.chart)} and {len(q.chart)} points")
        d = np.empty(len(p.chart))
        try:
            for a, b in sorted(set(zip(p.chart.tolist(), q.chart.tolist()))):
                rows = (p.chart == a) & (q.chart == b)
                d[rows] = distance(atlas, g, p.stack(a, rows), q.stack(b, rows), region, density,
                                   graphs)
        except Exception:
            for i in range(len(d)):
                distance(atlas, g, p.point(i), q.point(i), region, density, graphs)
            raise
        return d
    if g is None:
        raise ValueError(f"atlas {atlas.name!r} has no metric")
    (P, single), (Q, _) = point_rows(p.coords), point_rows(q.coords)
    if len(P) != len(Q):
        raise ValueError(f"distance between stacks of {len(P)} and {len(Q)} points")
    bad = np.stack([~atlas.chart(pt.chart).contains(X) for pt, X in ((p, P), (q, Q))], axis=1)
    if bad.any():  # the first bad row, p before q
        i, j = divmod(int(np.argmax(bad)), 2)
        raise OutOfDomain(f"invalid point {Point((p, q)[j].chart, (P, Q)[j][i])}")
    if not atlas.same_component(p, q):
        d = np.full(len(P), math.inf)
    elif g.analytic is not None:
        d = np.asarray(g.analytic(atlas, Point(p.chart, P), Point(q.chart, Q)), dtype=float)
    else:
        d = np.empty(len(P))
        for i, (x, y) in enumerate(zip(P, Q)):
            pq = (Point(p.chart, x), Point(q.chart, y))
            fine = graphs(2 * density - 1)(*pq)
            d[i] = fine if math.isfinite(fine) else graphs(density)(*pq)
    return float(d[0]) if single else d


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


def _segment_lengths(g: RiemannianMetric, chart: str, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Lengths of the straight segments from the rows of X to those of Y in
    chart's coordinates, by Simpson's rule: one stacked ``g.at`` per node."""
    V = Y - X
    qs = []
    for t in (0.0, 0.5, 1.0):
        q = (V[:, None, :] @ g.at(chart, X + t * V) @ V[:, :, None])[:, 0, 0]
        qs.append(np.sqrt(np.where(q > 0.0, q, 0.0)))
    return (qs[0] + 4.0 * qs[1] + qs[2]) / 6.0


def _graph_distance(atlas, g, region, density) -> Callable:
    """(p, q) -> the shortest path from p to q on the metric-weighted lattice
    graph of a region at a density, built here once; p and q attach to the
    lattice nodes near them.  The edge weights of each piece, of each pair of
    glued pieces and of each attached point come from one ``_segment_lengths``."""
    piece_nodes = []  # list of (chart, pts, spacing, index_offset)
    offset = 0
    for chart_id, box in region.pieces:
        pts = box.lattice(density)
        spacing = float(np.max(box.extent) / max(1, int(round(len(pts) ** (1 / box.dim))) - 1))
        piece_nodes.append((chart_id, pts, spacing, offset))
        offset += len(pts)
    adj = [[] for _ in range(offset)]

    def add_edges(chart_id, I, J, X, Y):  # the segments X[k] -> Y[k] join nodes I[k], J[k]
        for i, j, w in zip(I.tolist(), J.tolist(), _segment_lengths(g, chart_id, X, Y).tolist()):
            adj[i].append((j, w))
            adj[j].append((i, w))

    for chart_id, pts, spacing, offset in piece_nodes:  # lattice edges, all neighbor offsets
        shape = (int(round(len(pts) ** (1 / pts.shape[1]))),) * pts.shape[1]
        idx = np.indices(shape).reshape(len(shape), -1).T  # C order, as the lattice
        # each undirected pair once: the first nonzero step of its offset is positive
        offs = [o for o in itertools.product((-1, 0, 1), repeat=len(shape)) if o > (0,) * len(shape)]
        I = [np.flatnonzero(((idx + o >= 0) & (idx + o < shape[0])).all(axis=1)) for o in offs]
        J = [np.ravel_multi_index((idx[i] + o).T, shape) for i, o in zip(I, offs)]
        I, J = np.concatenate(I), np.concatenate(J)
        add_edges(chart_id, offset + I, offset + J, pts[I], pts[J])
    # cross-piece gluing through transitions
    for (ca, ptsa, spa, offa), (cb, ptsb, spb, offb) in itertools.permutations(piece_nodes, 2):
        tm = atlas.transition_map(ca, cb)
        if ca == cb or tm is None:
            continue
        Y = tm.try_call(ptsa)
        pairs = [(i, j) for i in np.flatnonzero(atlas.chart(cb).contains(Y))
                 for j in np.flatnonzero(np.linalg.norm(ptsb - Y[i], axis=1) <= 1.2 * spb)]
        if pairs:
            I, J = np.array(pairs).T
            add_edges(cb, offa + I, offb + J, Y[I], ptsb[J])

    def attach(point: Point):
        ids = []
        for b, Y, M in atlas.representations(Point(point.chart, point.coords[None])):
            for chart_id, pts, spacing, offset in piece_nodes:
                if chart_id == b and M[0] > 0:
                    J = np.flatnonzero(np.linalg.norm(pts - Y[0], axis=1) <= 2.0 * spacing)
                    w = _segment_lengths(g, b, np.repeat(Y, len(J), axis=0), pts[J])
                    ids.extend(zip((offset + J).tolist(), w.tolist()))
        return ids

    def shortest(p: Point, q: Point) -> float:
        src = attach(p)
        dsts = attach(q)
        if not src or not dsts:
            return math.inf
        dist = [math.inf] * len(adj)
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

    return shortest


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
        self._lattices = (None, [])  # (key, lattices) as last built

    @property
    def key(self) -> tuple:
        """The content (density, boxes) by which lattices and tables are kept."""
        return (self.lattice_density,
                tuple((cid, box.lo.tobytes(), box.hi.tobytes()) for cid, box in self.pieces))

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
        """Per piece: (chart id, lattice array of shape (N, dim)), read-only,
        built once per ``key``."""
        key = self.key
        if self._lattices[0] != key:
            per_piece = max(2, self.lattice_density)
            lattices = [(cid, box.lattice(per_piece)) for cid, box in self.pieces]
            for _cid, lat in lattices:
                lat.flags.writeable = False
            self._lattices = (key, lattices)
        return list(self._lattices[1])

    def samples(self, rng: Optional[np.random.Generator] = None, extra: int = 0) -> list:
        """``lattices``, then with ``rng`` per piece ``extra`` uniform draws."""
        out = self.lattices()
        if rng is not None and extra > 0:
            out += [(cid, rng.uniform(box.lo, box.hi, size=(extra, box.dim)))
                    for cid, box in self.pieces]
        return out

    def sample_points(self, rng: Optional[np.random.Generator] = None,
                      extra: int = 0) -> list:
        """Lattice points as Points, plus optional seeded uniform extras."""
        return [Point(cid, x) for cid, X in self.samples(rng, extra) for x in X]

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

    def __call__(self, p: Point):
        """The image of a point, its ``best_image`` (ChartEscape if none).  At a
        stack of points inside chart a, the candidates instead: the stacked
        ``try_call`` of each representative out of a, as a Point of its target
        chart; the caller chooses among them (``gmap.ImageTable``)."""
        if p.coords.ndim > 1:
            return [Point(b, rep.try_call(p.coords))
                    for (a, b), rep in sorted(self.locals.items()) if a == p.chart]
        best = self.best_image(p)
        if best is None:
            raise ChartEscape(f"{self.name or 'map'} has no chart for image of {p}")
        return Point(best[0], best[1])

    def best_image(self, p: Point) -> Optional[tuple]:
        """(b, y, a): p's image y in chart b under the representative (a, b) that
        ``best_candidates`` picks among p's one-row stacks; None if none."""
        images, P = {}, Point(p.chart, p.coords[None])
        for a in {a for a, _b in self.locals}:
            x = self.src.rechart(P, a)
            if x is not None and not np.isnan(x).any():
                images.update(((q.chart, a), q.coords) for q in self(Point(a, x)))
        keys, best, found = best_candidates(self.dst, images, 1)
        if not found[0]:
            return None
        b, a = keys[best[0]]
        return b, images[b, a][0], a


def best_candidates(dst: Atlas, images: dict, n: int) -> tuple:
    """(keys, best, found) for n rows whose images under the representative
    (a, b) are ``images[(b, a)]`` (n, dim b), NaN rows where none: the sorted
    keys, and per row the index into keys of the best candidate (the largest
    margin, then the smaller b, then the smaller a) and whether it has one."""
    keys = sorted(images)
    M = np.array([dst.chart(b).norm_margin(images[b, a]) for b, a in keys]).reshape(len(keys), n)
    best = M.argmax(axis=0) if keys else np.zeros(n, dtype=int)  # the first of equal margins
    return keys, best, (M > 0).any(axis=0)


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

    @property
    def coords(self) -> np.ndarray:
        """The base coordinates x, so an element reads as its base point."""
        return self.x


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


def tangent_bundle(atlas: Atlas) -> VectorBundle:
    """Tangent bundle: vb-transitions are Jacobians of the base transitions,
    and the fiber metric is the base's metric, when it has one."""
    dim = atlas.chart(atlas.chart_ids[0]).dim
    vb_trans = {pair: tm.derivative_map() for pair, tm in atlas.transitions.items()}
    fiber_metric = None if atlas.metric is None else dict(atlas.metric.fields)
    return VectorBundle(atlas, dim, vb_trans, fiber_metric,
                        name=f"T({atlas.name})")


def trivial_bundle(atlas: Atlas, fiber_dim: int = 1) -> VectorBundle:
    dim_id = np.eye(fiber_dim)
    vb_trans = {(a, b): _constant(atlas.chart(a).dim, dim_id, "id") for (a, b) in atlas.transitions}
    fm = {cid: _constant(atlas.chart(cid).dim, dim_id, "id") for cid in atlas.chart_ids}
    return VectorBundle(atlas, fiber_dim, vb_trans, fm, name=f"{atlas.name}xR{fiber_dim}")


# ======================================================================
# Built-in atlases
# ======================================================================


def euclidean_atlas(bounds, name: str = "euclid", chart_id: str = "e0") -> Atlas:
    """Open box in R^n as a single-chart atlas with the flat metric."""
    box = Box.of(bounds)
    chart = Chart(chart_id, box.dim, (box,), label=name)
    metric = RiemannianMetric(
        fields={chart_id: _constant(box.dim, np.eye(box.dim), "flat")},
        analytic=_euclid_distance, name="flat")
    return Atlas([chart], {}, name=name, metric=metric)


def _euclid_distance(atlas: Atlas, P: Point, Q: Point) -> np.ndarray:
    # all charts of a multi-chart euclidean atlas share the ambient coords
    return tensor_norm(P.coords - Q.coords, 1)


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
        transitions[(a, b)] = _identity(dim, f"id:{a}->{b}", defined=boxes[b].contains)
    metric_fields = {cid: _constant(dim, np.eye(dim)) for cid in boxes}
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
    fields = {cid: _constant(1, np.eye(1), "round") for cid in ("ang0", "angpi")}

    def circ_distance(atlas, P, Q):
        return np.abs(jets.wrap_angle(circle_angle(P) - circle_angle(Q)))

    metric = RiemannianMetric(fields, analytic=circ_distance, name="round")
    return Atlas([c0, c1], transitions, name=name, metric=metric)


def circle_angle(P: Point) -> np.ndarray:
    """Global angles in (-pi, pi] of a stacked circle Point (coords (N, 1))."""
    if P.chart not in ("ang0", "angpi"):
        raise NoOverlap(f"{P.chart!r} is not a circle chart")
    x = P.coords[:, 0]
    return jets.wrap_angle(x + math.pi if P.chart == "angpi" else x)


SPHERE_BOX_HALF = 4.0


def sphere_atlas(name: str = "sphere") -> Atlas:
    """Unit 2-sphere with stereographic charts from the two poles."""
    w = SPHERE_BOX_HALF
    box = Box([-w, -w], [w, w])
    north = Chart("north", 2, (box,), label="stereographic from north pole")
    south = Chart("south", 2, (box,), label="stereographic from south pole")

    def inversion(x):
        return x / _r2(x)[..., None]

    def inversion_jac(x):
        r2 = _r2(x)[..., None, None]
        return (np.eye(2) - 2.0 * (x[..., :, None] * x[..., None, :]) / r2) / r2

    def inv_defined(x):  # off the origin, and finite: inf / inf is no coordinate
        r2 = _r2(x)
        return (1e-12 < r2) & (r2 < math.inf)

    tm = _StackMap(2, (2,), inversion, inversion_jac, 1, "inversion", defined=inv_defined)
    transitions = {("north", "south"): tm, ("south", "north"): tm}

    def round_field(x):
        s = 1.0 + _r2(x)
        with np.errstate(over="raise"):  # where a float's ** 2 raises OverflowError
            c = 4.0 / np.float_power(s, 2.0)  # C pow, as a float's ** 2 (np.square may differ)
        return c[..., None, None] * np.eye(2)

    fields = {cid: _StackMap(2, (2, 2), round_field, name="round")
              for cid in ("north", "south")}

    def sph_distance(atlas, P, Q):
        # chord-based formula: exact at coincident points, stable for small gaps
        chord = tensor_norm(sphere_embed(P) - sphere_embed(Q), 1)
        return jets._entrywise(lambda c: 2.0 * math.asin(min(1.0, c / 2.0)), chord)

    metric = RiemannianMetric(fields, analytic=sph_distance, name="round")
    return Atlas([north, south], transitions, name=name, metric=metric)


def _r2(X: np.ndarray) -> np.ndarray:
    """x @ x at each row x of a stack, shape (N,), from a stacked matmul,
    which rounds as x @ x does (a row-wise sum or einsum may not)."""
    return (X[:, None, :] @ X[:, :, None])[:, 0, 0]


def sphere_embed(P: Point) -> np.ndarray:
    """Unit-sphere points (N, 3) from a stacked Point's stereographic coordinates (N, 2)."""
    if P.chart not in ("north", "south"):
        raise NoOverlap(f"{P.chart!r} is not a sphere chart")
    X = P.coords
    r2 = _r2(X)
    z = r2 - 1.0 if P.chart == "north" else 1.0 - r2
    return np.stack([2 * X[:, 0], 2 * X[:, 1], z], axis=1) / (r2 + 1.0)[:, None]


def disjoint_union(parts: dict, name: str = "union") -> Atlas:
    """Disjoint union of atlases; chart ids get 'prefix.' prepended."""
    charts = []
    transitions = {}
    fields = {}
    for prefix, atlas in sorted(parts.items()):
        for cid in atlas.chart_ids:
            c = atlas.chart(cid)
            charts.append(Chart(f"{prefix}.{cid}", c.dim, c.domain, c.label))
        for (a, b), tm in atlas.transitions.items():
            transitions[(f"{prefix}.{a}", f"{prefix}.{b}")] = tm
        if atlas.metric is not None:
            for cid, fld in atlas.metric.fields.items():
                fields[f"{prefix}.{cid}"] = fld

    def union_distance(_atlas, P, Q):  # P's rows share a component, Q's rows another
        pa, ca = P.chart.split(".", 1)
        qa, cb = Q.chart.split(".", 1)
        if pa != qa:
            return np.full(len(P.coords), math.inf)
        part = parts[pa]
        return part.metric.analytic(part, Point(ca, P.coords), Point(cb, Q.coords))

    analytic = all(a.metric is not None and a.metric.analytic is not None for a in parts.values())
    metric = (RiemannianMetric(fields, analytic=union_distance if analytic else None, name="union")
              if analytic or fields else None)
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
                    transitions[(f"{ca1}*{cb1}", f"{ca2}*{cb2}")] = _ProductMap(
                        ta, tb, dims_a[ca1], a.chart(ca2).dim + b.chart(cb2).dim)
    fields = {}
    if a.metric is not None and b.metric is not None:
        for ca in a.chart_ids:
            for cb in b.chart_ids:
                na, n = dims_a[ca], dims_a[ca] + b.chart(cb).dim

                def block(X, fa=a.metric.fields[ca], fb=b.metric.fields[cb], na=na, n=n):
                    out = np.zeros((len(X), n, n))
                    out[:, :na, :na] = fa._values(X[:, :na])
                    out[:, na:, na:] = fb._values(X[:, na:])
                    return out

                fields[f"{ca}*{cb}"] = _StackMap(n, (n, n), block)

    def prod_distance(_atlas, P, Q):  # hypot(inf, nan) is inf, as across components
        ca, cb = P.chart.split("*", 1)
        cc, cd = Q.chart.split("*", 1)
        na = dims_a[ca]
        da = a.metric.analytic(a, Point(ca, P.coords[:, :na]), Point(cc, Q.coords[:, :na]))
        db = b.metric.analytic(b, Point(cb, P.coords[:, na:]), Point(cd, Q.coords[:, na:]))
        return np.array([math.hypot(x, y) for x, y in zip(da.tolist(), db.tolist())])

    analytic = prod_distance if fields and a.metric.analytic and b.metric.analytic else None
    metric = RiemannianMetric(fields, analytic=analytic, name="product") if fields else None
    return Atlas(charts, transitions, name=name or f"{a.name}x{b.name}", metric=metric)


class _ProductMap(_StackMap):
    """A product-atlas transition: ta on the first na coordinates, tb on the
    rest ("id" for a factor's identity).  A stacked ``try_call`` reads each
    factor's ``_tried`` once; the values (ValueError outside the overlap)
    and the domain read ``_tried`` too."""

    def __init__(self, ta, tb, na: int, out_dim: int):
        self.factors = ((ta, slice(None, na)), (tb, slice(na, None)))

        def values(P):
            Y, ok = self._tried(P)
            if not ok.all():
                raise ValueError("outside overlap")
            return Y

        super().__init__(out_dim, (out_dim,), values, name="product-transition",
                         defined=lambda P: self._tried(P)[1])

    def _tried(self, P: np.ndarray) -> tuple:
        (ya, ok_a), (yb, ok_b) = [(P[:, cols], np.ones(len(P), dtype=bool)) if t == "id"
                                  else t._tried(P[:, cols]) for t, cols in self.factors]
        ok = ok_a & ok_b
        return np.where(ok[:, None], np.concatenate([ya, yb], axis=1), math.nan), ok


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
    for cid, lat in region.lattices():  # one stacked field, symmetry test and eigvalsh per piece
        G = g.at(cid, lat)
        symmetric = np.isclose(G, G.swapaxes(1, 2), atol=1e-10).all(axis=(1, 2))
        if not symmetric.all():
            raise ValueError(f"metric not symmetric at {lat[np.argmin(symmetric)]} in chart {cid!r}")
        min_eig = float(np.fmin.reduce(np.linalg.eigvalsh(G)[:, 0], initial=min_eig))  # NaN skipped
    if min_eig <= 0:
        raise ValueError(f"metric not positive definite (min eig {min_eig:g})")
    return min_eig


def riemannian_operator_norm(J: np.ndarray, G_src: np.ndarray, G_dst: np.ndarray):
    """Operator norm of a linear map between inner-product spaces: the largest
    singular value of G_dst^{1/2} J G_src^{-1/2}, inf where not finite.  At
    stacks of J, G_src and G_dst (row axis first), the (N,) norms from one
    stacked ``eigh`` per metric and one stacked SVD; a point is the one-row stack."""
    single = np.ndim(J) == 2
    J, G_src, G_dst = (np.array(a, dtype=float, ndmin=3) for a in (J, G_src, G_dst))
    ws, Vs = np.linalg.eigh(G_src)
    wd, Vd = np.linalg.eigh(G_dst)
    # V @ diag(w) @ V.T, with V's columns scaled by w
    s_inv_half = (Vs * (1.0 / np.sqrt(np.maximum(ws, 1e-300)))[:, None, :]) @ Vs.swapaxes(1, 2)
    d_half = (Vd * np.sqrt(np.maximum(wd, 0.0))[:, None, :]) @ Vd.swapaxes(1, 2)
    M = d_half @ J @ s_inv_half
    out = np.full(len(M), math.inf)
    finite = np.isfinite(M).all(axis=(1, 2))
    if finite.any():
        out[finite] = np.linalg.norm(M[finite], 2, axis=(1, 2))
    return float(out[0]) if single else out
