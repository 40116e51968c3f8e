"""Nets of smooth maps between atlases and their asymptotic checks.

A ``MapNet`` is a family eps -> SmoothMap.  The checks turn the defining
clauses of the calculus into verdicts: images of compacts staying compact
(c-boundedness), chart-wise derivative growth bounded by inverse powers of
eps (moderateness), two flavors of equivalence (order 0, and all derivative
orders), and the single-target-chart condition that underwrites composition.

Lattice points whose image leaves the admissible compact L' are excluded
from suprema; a supremum over an empty admissible set is recorded as zero.

The order-0 clauses (c-boundedness, single chart, metric gaps, both routes of
order-0 equivalence, separating points) read the image of a region's sample
points at every grid eps, and the derivative sweeps admit points by it.
``MapNet.image_table`` evaluates it in one array pass per (region, grid), plus
one per set of extra samples, and keeps it on the net (``ImageTable``); an
image that leaves every chart is a row too, so an escaped table is cached too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import jets
from .asymptotics import (
    EpsGrid,
    OrderEstimate,
    Status,
    SupSeries,
    Verdict,
    Witness,
    conjunction,
    judge_moderate,
    judge_negligible,
    judge_vanishing,
    sweep_stacks,
)
from .config import DEFAULT_CONFIG, Config
from .errors import ChartEscape, ChartMismatch, DerivativeUndefined
from .exprs import EpsFamily
from .manifold import (
    Atlas,
    Box,
    CompactRegion,
    LocalMap,
    Point,
    PointStack,
    RiemannianMetric,
    SmoothMap,
    _StackMap,
    best_candidates,
    distance,
    distinct_owners,
    same_pure_map,
    tensor_norm,
)


# ======================================================================
# MapNet
# ======================================================================


class MapNet:
    """An eps-parametrized net of smooth maps src -> dst.

    ``local_factory(eps)`` returns the table of local representatives for
    the map at that eps, and with ``eps_columns`` at an eps column too (see
    ``at``).  Evaluation is pure; instances are safe to share.
    """

    def __init__(self, src: Atlas, dst: Atlas, local_factory: Callable[[float], dict],
                 tag: str = "", provenance: Optional[dict] = None, eps_columns: bool = False):
        self.src = src
        self.dst = dst
        self.local_factory = local_factory
        self.tag = tag
        self.provenance = provenance or {}
        self.eps_columns = eps_columns
        self._cache: dict = {}
        self._tables: dict = {}

    def at(self, eps) -> SmoothMap:
        """The map at a float eps (cached), or at an eps column, an (N,) array
        (with ``eps_columns``): its representatives take stacks of N points."""
        if isinstance(eps, np.ndarray):
            if not self.eps_columns:
                raise TypeError(f"{self!r} takes one eps at a time")
            return SmoothMap(self.src, self.dst, self.local_factory(eps), name=f"{self.tag}@eps")
        sm = self._cache.get(eps)
        if sm is None:
            sm = SmoothMap(self.src, self.dst, self.local_factory(eps),
                           name=f"{self.tag}@eps={eps:g}")
            self._cache[eps] = sm
        return sm

    def eval(self, eps: float, p: Point) -> Point:
        return self.at(eps)(p)

    def image_table(self, K: CompactRegion, grid: EpsGrid, trials: int = 0,
                    seed: int = 0) -> "ImageTable":
        """Images of K's lattice points (``trials = 0``), or of the ``trials``
        seeded extras per piece alone, at every grid eps, built on first use
        and kept as long as the net.

        Keyed by the grid and the region's content, so an equal region object
        shares the table.  A table holds one sample set, so no lattice image
        is evaluated twice (``_distance_sweep`` joins the lattice and the
        extras tables).  A table with an escaped image (``ImageTable.escape``)
        is cached like any other.
        """
        key = (grid, K.key, trials, seed if trials > 0 else None)
        table = self._tables.get(key)
        if table is None:
            pts = (K.samples(np.random.default_rng(seed), trials)[len(K.pieces):] if trials > 0
                   else K.lattices())
            table = self._tables[key] = ImageTable(self, PointStack.of_arrays(self.src, pts),
                                                   grid.values())
        return table

    def __repr__(self):
        return f"MapNet({self.tag!r}: {self.src.name} -> {self.dst.name})"


class ImageTable:
    """Images u_eps(p) of (eps, sample point) rows at every grid eps, as arrays.

    The rows are the points of the stack ``pts`` at every grid eps, or with
    ``column`` a generalized point's column: row ei of ``pts`` is the point
    at grid eps ei alone, in a table of one column.  Built in one array pass: per
    source chart a, the rows whose points have chart-a coordinates
    (``PointStack.rechart``) in one stacked ``SmoothMap`` call (a stacked
    ``try_call`` per representative) as ``_eps_rows`` reads the grid: at
    their eps column, else through the map of the eps runs' maps ``u.at(eps)``,
    and one call per eps where that raises (the first eps's error is raised);
    then, once over all rows, each row's best candidate (``manifold.best_candidates``:
    largest margin, then the smaller target chart, then the smaller source
    chart, the rule by which ``u.eval`` chooses a point's image) and its
    ``representations``.
    ``margins[ei, pi, c]`` is the normalized margin of the image in chart
    ``charts[c]`` (-inf where it has no representation there),
    ``coords[ei, pi, c]`` its coordinates in that chart, and ``chart[ei, pi]``
    the best candidate's chart (-1 for an escaped row, one without candidate:
    it has no representation), ``source[ei, pi]`` its source chart, an index
    into ``u.src.chart_ids`` (-1 likewise).  ``escaped(ei, pi)`` is the
    ``ChartEscape`` ``u.eval`` raises at an escaped row (ei, pi), or the
    stack's own error for a row of ``pts`` without a point, and ``escape``
    that of the first escaped row in (eps, point) order, else None.  ``best``
    stacks each row's best candidate (a ``PointStack`` of E*n rows, row i the
    image at (ei, pi) = divmod(i, n), whose error is ``escaped(ei, pi)``).
    The arrays are read-only, so an image handed out (a view into ``best``)
    cannot corrupt the table.
    """

    def __init__(self, u: MapNet, pts: PointStack, eps_vals: np.ndarray, column: bool = False):
        dst = u.dst
        self.charts = dst.chart_ids
        self.dims = [dst.chart(b).dim for b in self.charts]
        self.rows = {eps: ei for ei, eps in enumerate(eps_vals.tolist())}

        def escaped(ei: int, pi: int) -> Exception:
            i = ei if column else pi
            return pts.error(i) if pts.chart[i] < 0 else ChartEscape(
                f"{u.at(eps_vals[ei]).name or 'map'} has no chart for image of {pts.point(i)}")

        self.escaped = escaped
        col = {b: c for c, b in enumerate(self.charts)}
        E, n = len(eps_vals), 1 if column else len(pts.chart)
        images: dict = {}  # (b, a): the images of the (eps, point) rows under rep (a, b)
        for a in u.src.chart_ids:
            P = pts.rechart(a)  # the points' chart-a coordinates, NaN rows where none
            rows = np.flatnonzero(~np.isnan(P[:, 0]))
            if column:  # row ei holds the point at eps ei
                X, eis, at = P[rows], rows, rows
            else:  # the (eps, point) rows, eps-major
                X, eis = np.tile(P[rows], (E, 1)), np.repeat(np.arange(E), len(rows))
                at = eis * n + np.tile(rows, E)  # their rows in the table
            for sel, cands in _eps_rows((u,), eps_vals, eis, u.at,
                                        lambda sm, sel: sm(Point(a, X[sel]))):
                for q in cands:
                    if (q.chart, a) not in images:
                        images[q.chart, a] = np.full((E * n,) + q.coords.shape[1:], math.nan)
                    images[q.chart, a][at[sel]] = q.coords
        keys, best, found = best_candidates(dst, images, E * n)
        self.escape = None if found.all() else self.escaped(*divmod(int(np.argmin(found)), n))
        cols = np.array([(col[b], u.src.chart_ids.index(a)) for b, a in keys] or [(-1, -1)])
        chart, source = np.where(found, cols[best].T, -1)
        margins = np.full((E * n, len(self.charts)), -math.inf)
        coords = np.full((E * n, len(self.charts), max(self.dims)), math.nan)
        for c, b in enumerate(self.charts):
            rows = np.flatnonzero(chart == c)
            if len(rows):  # the keys (b, a) are contiguous, from js[0]
                js = [j for j, k in enumerate(keys) if k[0] == b]
                Y = np.stack([images[keys[j]] for j in js])[best[rows] - js[0], rows]
                for b2, y, m in dst.representations(Point(b, Y)):
                    margins[rows, col[b2]] = m
                    coords[rows, col[b2], :y.shape[1]] = y
        arrays = [margins.reshape(E, n, -1), coords.reshape((E, n) + coords.shape[1:]),
                  chart.astype(np.int32).reshape(E, n), source.astype(np.int32).reshape(E, n)]
        self.margins, self.coords, self.chart, self.source = arrays
        for arr in arrays:
            arr.flags.writeable = False
        best = coords[np.arange(E * n), np.maximum(chart, 0)]
        self.best = PointStack(dst, self.chart.ravel(), best, lambda i: self.escaped(*divmod(i, n)))

    def image(self, eps: float, pi: int) -> Point:
        """u_eps(point pi): the best candidate, as ``u.eval`` chooses it (an
        escaped row raises its ChartEscape, ``escaped``)."""
        return self.best.point(self.rows[eps] * self.chart.shape[1] + pi)


def _eps_rows(nets, eps_vals: np.ndarray, eis: np.ndarray, map_at, call) -> list:
    """[(rows, call(m, rows))]: the one rule by which every reader of nets
    reads their (eps, point) rows across the grid, rows of non-decreasing grid
    eps indices ``eis`` (an index array) and m the map that sends each of them
    to the map at its eps, ``map_at(eps)`` (None: that eps's rows are left
    out).  First one call over every row: m is the map at their eps column
    when there are ``nets`` and all take one, else the map of their eps runs'
    maps (``_runs_map``; a single run's map itself).  If that raises anything,
    one call per eps run, in eps order, so the error raised is the first eps's."""
    runs = [r for r in np.split(np.arange(len(eis)), np.flatnonzero(np.diff(eis)) + 1) if len(r)]

    def per_run() -> list:  # [(rows, map)] of the eps runs that have a map
        return [(rows, m) for rows in runs if (m := map_at(eps_vals[eis[rows[0]]])) is not None]

    try:
        if runs and nets and all(u.eps_columns for u in nets):
            m, rows = map_at(eps_vals[eis]), np.arange(len(eis))
            return [] if m is None else [(rows, call(m, rows))]
        maps = per_run()
        if len(maps) > 1:  # a run's rows, or where a run has no map, their places in rows
            rows = np.concatenate([r for r, _m in maps])
            dropped = len(rows) < len(eis)
            m = _runs_map([(np.searchsorted(rows, r) if dropped else r, m) for r, m in maps])
            return [(rows, call(m, rows))]
    except Exception:  # read again eps run by eps run, so the first eps's error is raised
        maps = per_run()
    return [(rows, call(m, rows)) for rows, m in maps]


def _runs_map(runs: list):
    """The map whose eps runs ``runs`` [(rows, map)] own the rows of a stack: a
    ``_RunsMap`` of local maps, or the smooth map whose representative (a, b)
    is the ``_RunsMap`` of the runs' (a, b) representatives."""
    sm = runs[0][1]
    if not isinstance(sm, SmoothMap):
        return _RunsMap(runs)
    pairs = {pair for _rows, m in runs for pair in m.locals}
    return SmoothMap(sm.src, sm.dst, {pair: _RunsMap([(rows, m.locals.get(pair))
                                                      for rows, m in runs]) for pair in pairs})


class _RunsMap(_StackMap):
    """The map whose runs ``runs`` [(rows, map)] (``_eps_rows``) own the rows
    of a stack: a row's tensors (``owners``) and value (``try_call``) are its
    run's map's, a run whose map is None (an eps without that chart pair,
    ``_runs_map``) has neither.  Adjacent runs whose maps are the same pure
    function (``same_pure_map``) are one run (``merged``), which reads only
    the first of each of its distinct rows (``distinct_owners``) and copies
    the values to the others, as ``owned_tensors`` copies the tensors.
    Each run's rows are read by its map's own ``_tried``, so each user
    callable runs as often as run by run on the rows read."""

    def __init__(self, runs: list):
        groups = []  # [[(rows, map)]]: adjacent runs of one map
        for rows, m in runs:
            if m is not None and groups and same_pure_map(groups[-1][0][1], m):
                groups[-1].append((rows, m))
            elif m is not None:
                groups.append([(rows, m)])
        owned = self.owned = [(np.concatenate([r for r, _m in g]) if len(g) > 1 else g[0][0],
                               g[0][1]) for g in groups]
        super().__init__(owned[0][1].in_dim, owned[0][1].out_shape, None,
                         owners=lambda P: owned)  # not self: no reference cycle
        self.merged = [len(g) > 1 for g in groups]

    def _tried(self, P: np.ndarray) -> tuple:
        Y = np.full((len(P),) + self.out_shape, math.nan)
        owned, copies = distinct_owners(P, self.owned, self.merged)
        for rows, m in owned:
            Y[rows] = m._tried(P[rows])[0]
        for rows, src in copies:
            Y[rows] = Y[src]
        return Y, ~np.isnan(Y.reshape(len(P), -1)).all(axis=1)


def sample_points(K: CompactRegion, trials: int = 0, seed: int = 0) -> list:
    """K's lattice points, plus ``trials`` uniform draws per piece seeded by seed."""
    rng = np.random.default_rng(seed) if trials > 0 else None
    return K.sample_points(rng=rng, extra=trials)


def _expr_net(src: Atlas, dst: Atlas, expr_of_eps: Callable, tag: str, targets) -> MapNet:
    """The net whose representative (a, b) is ``to(expr)`` for each (b, to) of
    ``targets``, expr the expression at eps; an ``exprs.EpsFamily`` builds it
    at an eps column too (``MapNet.at``)."""

    def factory(eps) -> dict:
        expr = expr_of_eps(eps)
        col = eps if isinstance(eps, np.ndarray) else None
        return {(a, b): LocalMap.from_expr(to(expr), name=f"{tag}:{a}->{b}", eps_column=col)
                for a in src.chart_ids for b, to in targets}

    return MapNet(src, dst, factory, tag=tag, eps_columns=isinstance(expr_of_eps, EpsFamily))


def scalar_net(src: Atlas, dst: Atlas, expr_of_eps: Callable[[float], Callable],
               tag: str = "") -> MapNet:
    """Net between 1-D euclidean atlases from an eps-indexed expression.

    The same expression serves every chart pair (euclidean charts share
    ambient coordinates); exact derivatives come from jet evaluation.
    """
    return _expr_net(src, dst, expr_of_eps, tag, [(b, lambda e: e) for b in dst.chart_ids])


def angle_net(src: Atlas, circle: Atlas, angle_of_eps: Callable[[float], Callable],
              tag: str = "") -> MapNet:
    """Circle-valued net from an eps-indexed angle expression on R.

    The representative into each angle chart wraps the angle into that
    chart's reference frame; the wrap shift is locally constant, so all
    derivatives are those of the raw angle expression.
    """
    def wrap(shift):  # the chart's angle, minus its shift
        return lambda e: lambda t: jets.wrap_angle(e(t) - shift)

    return _expr_net(src, circle, angle_of_eps, tag,
                     [("ang0", wrap(0.0)), ("angpi", wrap(math.pi))])


def embed_smooth(sm: SmoothMap, tag: str = "") -> MapNet:
    """Canonical embedding of a smooth map as an eps-constant net.  It takes
    any eps column: its representatives are sm's, which take every stack."""
    return MapNet(sm.src, sm.dst, lambda eps: sm.locals, tag=tag or sm.name, eps_columns=True)


# ======================================================================
# Effective representatives and composition
# ======================================================================


class ChainedLocalMap(LocalMap):
    """Local representative of a composite, routed through middle charts.

    Routes are (middle Chart, inner rep, outer rep); the value in the final
    chart does not depend on the route taken (transition consistency), so
    each row of a stack takes the first route that admits it (``_routed``);
    a point is a one-row stack.  A row's tensors are its route's map's
    (``maps``, built here: the jet-chained expression when both factors are
    expressions, else ``_chain_rule``): the route maps own the rows
    (``owners``), so a row's grid stays on its route.
    Given ``maps`` (such as ``vbhom_compose``'s matrix parts), the routes
    only admit rows and the values are the maps'.  With a factor at an eps
    column the map carries that ``eps_column`` and takes only whole stacks
    of its rows (see ``_routed``).
    """

    def __init__(self, routes: list, in_dim: int, out_shape, name: str = "",
                 maps: Optional[list] = None):
        self.routes = routes  # list of (middle Chart, inner, outer)
        cols = [f.eps_column for _mid, inner, outer in routes for f in (inner, outer)
                if f.eps_column is not None]
        super().__init__(in_dim, out_shape, name=name, eps_column=cols[0] if cols else None,
                         fn=lambda x: self._values(x[None], every=True)[0])  # one row
        self.router_values = maps is None  # the values are the outer factors'
        self.maps = maps or [LocalMap.from_expr(lambda t, f=inner.expr, g=outer.expr: g(f(t)),
                                                out_shape=self.out_shape, name=name,
                                                eps_column=self.eps_column)
                             if inner.expr is not None and outer.expr is not None
                             else _chain_rule(inner, outer, self.out_shape, name, self.eps_column)
                             for _mid, inner, outer in routes]
        self.exact_order = min(m.exact_order for m in self.maps)

    def _routed(self, P: np.ndarray, every: bool = False) -> list:
        """[(i, rows, Y, Z)] per route i that admits rows of the stack P: the
        rows (indices) whose first admissible route it is, their middle
        points and their values.  Per route, one inner ``try_call`` on the
        rows not yet routed, one ``contains`` of the middle chart and one
        outer ``try_call``; a row is admitted when its middle point lies in
        the chart and its value is not a NaN row.  ValueError when ``every``
        and a row has no route; at an eps column, DerivativeUndefined where a
        factor would take a stack other than all the column's rows."""
        col = self.eps_column

        def whole(mask):
            if col is not None and (len(mask) != len(col) or 0 < mask.sum() < len(mask)):
                raise DerivativeUndefined(f"local map {self.name!r} takes only whole stacks "
                                          "of its eps column")
            return mask

        todo, out = whole(np.ones(len(P), dtype=bool)), []
        for i, (mid, inner, outer) in enumerate(self.routes):
            rows = np.flatnonzero(todo)
            if not len(rows):
                break
            Y = inner.try_call(P[rows])
            Z = np.full((len(rows),) + outer.out_shape, math.nan)
            ok = whole(mid.contains(Y))
            if ok.any():
                Z[ok] = outer.try_call(Y[ok])
            ok = whole(~np.isnan(Z.reshape(len(rows), -1)).all(axis=1))
            if ok.any():
                todo[rows[ok]] = False
                out.append((i, rows[ok], Y[ok], Z[ok]))
        if every and todo.any():
            raise ValueError(f"local map {self.name!r} has no admissible route at some row")
        return out

    def _values(self, P: np.ndarray, every: bool = False) -> np.ndarray:
        """Values at the rows of P, NaN rows where no route admits a row."""
        Z = np.full((len(P),) + self.out_shape, math.nan)
        for i, rows, _Y, z in self._routed(P, every):
            Z[rows] = z if self.router_values else self.maps[i]._values(P[rows])
        return Z

    def _tried(self, P: np.ndarray) -> tuple:
        """``_values``, a row that no route admits (a NaN row) undefined."""
        Z = self._values(P)
        return Z, ~np.isnan(Z.reshape(len(P), -1)).all(axis=1)

    def deriv_tensor(self, x, k: int) -> np.ndarray:  # its own: perfbench/layers.py wraps it
        return self.derivs_upto(x, k)[k]

    def derivs_upto(self, x, k_max: int) -> list:  # its own: perfbench/layers.py wraps it
        return super().derivs_upto(x, k_max)

    def owners(self, P: np.ndarray) -> list:
        """Each route's map on its rows (``_routed``; ValueError where a row has none)."""
        return [(rows, self.maps[i]) for i, rows, _Y, _Z in self._routed(P, every=True)]


def _chain_rule(inner: LocalMap, outer: LocalMap, out_shape: tuple, name: str,
                eps_column) -> _StackMap:
    """outer o inner: the values ``outer._values(Y)`` at Y = ``inner._values(P)``
    and the Jacobians ``outer.jacobian(Y) @ inner.jacobian(P)``, one stacked
    call per factor; exact to order min(1, both factors'), FD beyond it."""
    jacobians = lambda P: (outer.jacobian(inner._values(P)) @ inner.jacobian(P)).reshape(
        (len(P),) + out_shape + (inner.in_dim,))
    return _StackMap(inner.in_dim, out_shape, lambda P: outer._values(inner._values(P)),
                     jacobians, min(1, inner.exact_order, outer.exact_order), name, eps_column)


def effective_reps(sm: SmoothMap, chart_a: str) -> dict:
    """{dst chart b: representative in chart_a coordinates}: sm's own, else
    a chain routed through every source chart with a representative into b,
    in id order."""
    out = {b: rep for (a, b), rep in sm.locals.items() if a == chart_a}
    routes: dict = {}
    for (a, b), rep in sorted(sm.locals.items()):
        tm = sm.src.transition_map(chart_a, a)
        if b not in out and tm is not None:
            routes.setdefault(b, []).append((sm.src.chart(a), tm, rep))
    return out | {b: ChainedLocalMap(rs, rs[0][1].in_dim, rs[0][2].out_shape,
                                     name=f"{rs[0][2].name} via {'/'.join(r[0].id for r in rs)}")
                  for b, rs in routes.items()}


def compose(v: MapNet, u: MapNet, K: Optional[CompactRegion] = None,
            grid: Optional[EpsGrid] = None, cfg: Config = DEFAULT_CONFIG,
            tag: str = "") -> MapNet:
    """The net eps -> v_eps o u_eps, with chained local representatives.

    Composition of raw nets is unconditional; the class-level guarantee
    requires v to satisfy the single-target-chart condition on the relevant
    compacts, so when K is given the report is run and stamped into the
    result's provenance (not enforced).  The composite has eps columns when
    both nets do: its representatives at a column chain the factors' there.
    """
    if set(u.dst.chart_ids) != set(v.src.chart_ids):
        raise ChartMismatch(
            f"dst of {u.tag!r} ({u.dst.name}) is not src of {v.tag!r} ({v.src.name})")

    def factory(eps) -> dict:
        u_loc = u.at(eps).locals
        v_loc = v.at(eps).locals
        routes: dict = {}
        for (a, b), urep in sorted(u_loc.items()):
            for (b2, c), vrep in sorted(v_loc.items()):
                if b2 != b:
                    continue
                routes.setdefault((a, c), []).append((v.src.chart(b), urep, vrep))
        return {
            (a, c): ChainedLocalMap(rs, rs[0][1].in_dim, rs[0][2].out_shape,
                                    name=f"{v.tag}o{u.tag}:{a}->{c}")
            for (a, c), rs in routes.items()
        }

    prov = {"composed_of": (v.tag, u.tag)}
    if K is not None:
        grid = grid or cfg.grid()
        rep = check_cbounded(u, K, grid, cfg)
        sc = None
        if rep.status is Status.PASS and rep.K_image is not None:
            sc = check_single_chart(v, rep.K_image, grid, cfg)
            prov["single_chart"] = {"status": str(sc.status), "chart": sc.chart,
                                    "eps0": sc.eps0}
        else:
            prov["single_chart"] = {"status": "Inconclusive",
                                    "notes": "inner net not c-bounded on K"}
    return MapNet(u.src, v.dst, factory, tag=tag or f"{v.tag}o{u.tag}",
                  provenance=prov, eps_columns=u.eps_columns and v.eps_columns)


# ======================================================================
# Reports
# ======================================================================


@dataclass
class CBoundednessReport:
    """Outcome of the compact-image check for one region."""

    K: CompactRegion
    eps0: float
    K_image: Optional[CompactRegion]
    status: Status
    witness: Optional[Witness] = None
    margins: Optional[SupSeries] = None  # per-eps minimum escape margin

    def as_record(self) -> dict:
        return {
            "eps0": self.eps0,
            "status": str(self.status),
            "K_image": None if self.K_image is None else self.K_image.as_record(),
            "witness": None if self.witness is None else self.witness.as_record(),
        }


@dataclass
class SingleChartReport:
    """Outcome of the single-target-chart condition for one region."""

    K: CompactRegion
    chart: Optional[str]
    eps0: Optional[float]
    status: Status
    notes: str = ""

    def as_record(self) -> dict:
        return {"chart": self.chart, "eps0": self.eps0, "status": str(self.status),
                "notes": self.notes}


# ======================================================================
# Series builders
# ======================================================================


def _chart_sups(nets, K: CompactRegion, grid: EpsGrid, k_max: int,
                L_prime: Optional[dict], pieces, context, cfg: Config) -> dict:
    """Chart-wise lattice sups of derivative-tensor norms, orders 0..k_max.

    ``pieces(eps, cid)`` gives (dst chart b, local map) pairs for the nets
    at eps: a grid eps, or the eps column of the stack the map takes.
    A lattice point x of K's piece pi (in chart cid) counts under the keys
    (pi, cid, b, k) at an eps when the image tables of ``nets`` (cached,
    escaped images included as rows) admit it for b (``_admitted``), so no
    point is evaluated for admission.  Each (piece, b) group is one array
    pass over its admitted (eps, point) rows, eps-major and in lattice order:
    their tensors of orders 0..k_max, row axis first, from ``_group_tensors``;
    one ``tensor_norm`` per order
    over all the rows, and its sup per eps (``sweep_stacks``).  Each series
    is labelled ``context(pi, cid, b, k)``.
    """
    tables = [u.image_table(K, grid) for u in nets]
    ok = _admitted(tables, L_prime)
    eps_vals = grid.values()

    def stacks():
        for pi, cid, cols, lat, at in _lattice_pieces(K):
            for c, b in enumerate(tables[0].charts):
                eis, js = np.nonzero(ok[:, cols, c])
                rows, ts = _group_tensors(nets, eps_vals, eis, lat[js], k_max,
                                          lambda eps, b=b: dict(pieces(eps, cid)).get(b))
                for k, t in enumerate(ts):
                    yield ((pi, cid, b, k), eis[rows], tensor_norm(t, k),
                           lambda i, j=js[rows]: at(j[i]))

    return sweep_stacks(grid, stacks(), cfg.zero_tol, lambda key: context(*key))


def _group_tensors(nets, eps_vals: np.ndarray, eis: np.ndarray, X: np.ndarray, k_max: int,
                   rep_at) -> tuple:
    """(rows, tensors): the tensors of orders 0..k_max at the (eps, point) rows
    X of non-decreasing grid eps indices ``eis`` whose eps has a map
    (``rep_at(eps)``, else None), row axis first, and those rows in order; no
    rows and no tensors without such rows.

    One ``derivs_upto`` per ``_eps_rows`` call: at the eps column, else of the
    ``_RunsMap`` whose eps runs own the rows of all grid eps, so the maps that
    take differences share one difference pass (``owned_tensors``)."""
    parts = _eps_rows(nets, eps_vals, eis, rep_at, lambda m, rows: m.derivs_upto(X[rows], k_max))
    if not parts:
        return np.zeros(0, dtype=int), []
    rows, tensors = zip(*parts)
    return np.concatenate(rows), [np.concatenate(ts) for ts in zip(*tensors)]


def _lattice_pieces(K: CompactRegion) -> list:
    """Per piece of K: (index, chart, its columns in K's image tables, its
    lattice, ``at(j)``: its lattice point j as a Point, made when asked)."""
    lattices = K.lattices()
    ends = np.cumsum([len(lat) for _cid, lat in lattices]).tolist()
    return [(pi, cid, slice(end - len(lat), end), lat,
             lambda j, cid=cid, lat=lat: Point(cid, lat[j]))
            for pi, ((cid, lat), end) in enumerate(zip(lattices, ends))]


def _admitted(tables, L_prime: Optional[dict]) -> np.ndarray:
    """Which (eps, sample point) rows count for each target chart, shape
    (eps, point, chart): every table has a chart-b representation of its
    image and, when L' is given, that image lies in a closed L' box of b."""
    ok = np.logical_and.reduce([t.margins > -math.inf for t in tables])
    for t in tables if L_prime is not None else ():
        for c, b in enumerate(t.charts):
            ok[:, :, c] &= _in_boxes(t.coords[:, :, c, :t.dims[c]], L_prime.get(b, ()))
    return ok


def _in_boxes(y: np.ndarray, boxes) -> np.ndarray:
    """Which points y[..., :] lie in some closed box of boxes (a non-finite
    point in none; ValueError on a dimension mismatch, see ``Box.contains``)."""
    inside = np.zeros(y.shape[:-1], dtype=bool)
    for box in boxes:
        inside |= box.contains(y, closed=True)
    return inside


def derivative_sup_series(u: MapNet, K: CompactRegion, grid: EpsGrid,
                          k_max: int, L_prime: Optional[dict],
                          cfg: Config = DEFAULT_CONFIG) -> dict:
    """Chart-wise lattice suprema of derivative-tensor norms, orders 0..k_max.

    Keys: (piece index, src chart, dst chart, k).  Points whose image falls
    outside L' (when given) are excluded; empty suprema record 0.
    """

    return _chart_sups((u,), K, grid, k_max, L_prime,
                       lambda eps, cid: effective_reps(u.at(eps), cid),
                       lambda pi, cid, b, k: f"|D^{k}| K[{pi}] {cid}->{b} of {u.tag}", cfg)


def _distance_sweep(u: MapNet, v: MapNet, K: CompactRegion,
                    g: Optional[RiemannianMetric], grid: EpsGrid, cfg: Config,
                    trials: int = 0, seed: int = 0):
    """d_h(u_eps(p), v_eps(p)) between the two nets' table images, each
    computed once: the (eps, sample point) array, K's lattice points first,
    then the ``trials`` extras, and the sup series of its lattice part.
    Each net's lattice table, and with ``trials`` its extras table, are read;
    the first escape of u's lattice, u's extras, v's lattice, v's extras
    tables is raised, else one ``distance`` call per (u, v) table pair,
    joined along the point axis."""
    g = g or u.dst.metric
    sets = (0, trials) if trials > 0 else (0,)  # the lattice, then the extras
    tu, tv = ([net.image_table(K, grid, t, seed) for t in sets] for net in (u, v))
    if escape := next((t.escape for t in tu + tv if t.escape), None):
        raise escape.with_traceback(None)
    dists = np.concatenate([distance(u.dst, g, a.best, b.best).reshape(a.chart.shape)
                            for a, b in zip(tu, tv)], axis=1)
    pts = PointStack.of_arrays(u.src, K.lattices())
    n = len(pts.chart)
    stack = (None, np.repeat(np.arange(len(grid)), n), dists[:, :n].ravel(),
             lambda i: pts.point(i % n))
    return sweep_stacks(grid, [stack], cfg.zero_tol,
                        lambda _key: f"sup d_h({u.tag},{v.tag}) on K")[None], dists


def metric_gap_series(u: MapNet, v: MapNet, K: CompactRegion,
                      g: Optional[RiemannianMetric], grid: EpsGrid,
                      cfg: Config = DEFAULT_CONFIG) -> SupSeries:
    """sup over K of the target-metric distance between u_eps and v_eps."""
    return _distance_sweep(u, v, K, g, grid, cfg)[0]


def _metric_route(u: MapNet, v: MapNet, K: CompactRegion,
                  g: Optional[RiemannianMetric], grid: EpsGrid, cfg: Config,
                  trials: int = 0, seed: int = 0):
    """Metric route of order-0 equivalence: the lattice sup-distance series
    must vanish and be negligible at m_probe.

    Returns (route verdict, sup series, distance array of ``_distance_sweep``).
    """
    d_series, dists = _distance_sweep(u, v, K, g, grid, cfg, trials, seed)
    route = conjunction({
        "vanishing": judge_vanishing(d_series, cfg.vanish_tol, cfg.r2_min),
        "negligible": judge_negligible(d_series, cfg.m_probe, cfg.r2_min, floor=cfg.zero_tol),
    }, notes="metric route")
    return route, d_series, dists


def _chart_gaps0(u: MapNet, v: MapNet, K: CompactRegion, grid: EpsGrid,
                 L_prime: Optional[dict], cfg: Config) -> dict:
    """Order-0 chart-wise gaps |y_u - y_v| read from the two image tables.

    Keys (pi, cid, b, 0) as in ``chart_gap_series``, over the lattice points
    ``_admitted`` admits for both nets' images.
    """
    tu, tv = u.image_table(K, grid), v.image_table(K, grid)
    ok = _admitted((tu, tv), L_prime)
    with np.errstate(over="ignore"):  # an overflowed norm is inf, as in tensor_norm
        # per (eps, point, chart); a chart's NaN padding beyond its dimension adds 0
        gap = np.sqrt(np.nansum((tu.coords - tv.coords) ** 2, axis=-1))

    def stacks():
        for pi, cid, cols, _lat, at in _lattice_pieces(K):
            for c, b in enumerate(tu.charts):
                mask = ok[:, cols, c]
                eis, js = np.nonzero(mask)
                if len(js):
                    yield (pi, cid, b, 0), eis, gap[:, cols, c][mask], lambda i, js=js: at(js[i])

    return sweep_stacks(grid, stacks(), cfg.zero_tol,
                        lambda key: f"|D^0({u.tag}-{v.tag})| K[{key[0]}] {key[1]}->{key[2]}")


class _GapMap(_StackMap):
    """The gap ru - rv: through the order both are exact to, the difference
    of their tensors; beyond it ``LocalMap.derivs_upto`` of the gap itself
    (stencil noise proportional to the gap, not to the operands), from the
    stacked differences of their values (an expression's order-0 jet) and,
    when both maps carry one, of their Jacobians.  Where an operand's rows
    have owners (a composite's route maps), the gap of each pair of the
    operands' owners owns the rows they share, so each row is differenced
    along the routes its root takes.  An inexact gap at an eps column raises
    DerivativeUndefined on its grids' rows (see ``_eps_rows``)."""

    def __init__(self, ru: LocalMap, rv: LocalMap):
        self.ru, self.rv = ru, rv
        super().__init__(ru.in_dim, ru.out_shape, lambda P: ru._values(P) - rv._values(P),
                         None if ru.jac is None or rv.jac is None
                         else lambda P: ru._jacobians(P) - rv._jacobians(P),
                         min(ru.exact_order, rv.exact_order), f"({ru.name})-({rv.name})",
                         owners=None if ru.owners is None and rv.owners is None
                         else lambda P: _GapMap._owner_gaps(ru, rv, P))

    def fd_leaf(self, k_max: int) -> Optional[tuple]:
        return super().fd_leaf(k_max) if k_max > self.exact_order else None

    def derivs_upto(self, x, k_max: int) -> list:
        if self.fd_leaf(k_max) is not None:
            return super().derivs_upto(x, k_max)
        return [tu - tv for tu, tv in zip(self.ru.derivs_upto(x, k_max),
                                          self.rv.derivs_upto(x, k_max))]

    @staticmethod
    def _owner_gaps(ru: LocalMap, rv: LocalMap, P: np.ndarray) -> Optional[list]:
        ou, ov = [None if m.owners is None else m.owners(P) for m in (ru, rv)]
        if ou is None and ov is None:
            return None
        return [(rows, _GapMap(mu, mv)) for u_rows, mu in ou or [(np.arange(len(P)), ru)]
                for v_rows, mv in ov or [(np.arange(len(P)), rv)]
                if len(rows := np.intersect1d(u_rows, v_rows))]


def chart_gap_series(u: MapNet, v: MapNet, K: CompactRegion, grid: EpsGrid,
                     k_max: int, L_prime: Optional[dict],
                     cfg: Config = DEFAULT_CONFIG) -> dict:
    """Chart-wise derivative differences of two nets, orders 0..k_max.

    A lattice point contributes only when both images lie in L' in the same
    target chart.
    """

    def pieces(eps, cid):
        ru, rv = effective_reps(u.at(eps), cid), effective_reps(v.at(eps), cid)
        return {b: _GapMap(ru[b], rv[b]) for b in ru.keys() & rv.keys()}

    return _chart_sups((u, v), K, grid, k_max, L_prime, pieces,
                       lambda pi, cid, b, k: f"|D^{k}({u.tag}-{v.tag})| K[{pi}] {cid}->{b}",
                       cfg)


# ======================================================================
# Checks
# ======================================================================


def check_cbounded(u: MapNet, K: CompactRegion, grid: Optional[EpsGrid] = None,
                   cfg: Config = DEFAULT_CONFIG) -> CBoundednessReport:
    """Do images of K stay inside a fixed compact region for small eps?

    The per-eps statistic is the minimum, over the lattice, of the best
    normalized chart margin of the image point; escape below margin_min at
    the small-eps end fails with a witness.  On Pass, K_image is the padded
    per-chart bounding region of the sampled images below the grid midpoint.
    """
    grid = grid or cfg.grid()
    K.validate(u.src)
    eps_vals = grid.values()
    mid = grid.mid_index
    table = u.image_table(K, grid)
    best = table.margins.max(axis=2)  # best chart margin of each image
    stats = best.min(axis=1)
    stat_args = [table.image(eps, pi) for eps, pi in zip(eps_vals, best.argmin(axis=1))]
    margins = SupSeries(eps_vals, np.maximum(stats, 0.0),
                        args=stat_args, context=f"min escape margin of {u.tag}")
    eps0 = float(eps_vals[mid])
    if np.all(stats[mid:] >= cfg.margin_min):
        pieces = []
        for c, b in enumerate(table.charts):
            admitted = table.margins[mid:, :, c] >= cfg.margin_min
            if not admitted.any():
                continue
            ys = table.coords[mid:, :, c, :table.dims[c]][admitted]
            lo = ys.min(axis=0)
            hi = ys.max(axis=0)
            pad = cfg.pad_frac * (hi - lo) + 1e-3 * (1.0 + np.abs(hi + lo) / 2)
            box = u.dst.chart(b).main_box
            new_lo, new_hi = lo - pad, hi + pad
            shrink = 0.005 * np.where(np.isfinite(box.extent), box.extent, 0.0)
            new_lo = np.where(np.isfinite(box.lo), np.maximum(new_lo, box.lo + shrink), new_lo)
            new_hi = np.where(np.isfinite(box.hi), np.minimum(new_hi, box.hi - shrink), new_hi)
            pieces.append((b, Box(new_lo, new_hi)))
        return CBoundednessReport(K, eps0, CompactRegion(pieces, K.lattice_density),
                                  Status.PASS, margins=margins)
    if stats[-1] < cfg.margin_min and stats[-1] <= stats[mid] + 1e-12:
        w = Witness(eps=float(eps_vals[-1]), location=stat_args[-1],
                    value=float(stats[-1]))
        return CBoundednessReport(K, eps0, None, Status.FAIL, witness=w,
                                  margins=margins)
    return CBoundednessReport(K, eps0, None, Status.INCONCLUSIVE, margins=margins)


def check_moderate(u: MapNet, K: CompactRegion, grid: Optional[EpsGrid] = None,
                   k_max: Optional[int] = None, cfg: Config = DEFAULT_CONFIG,
                   cbounded: Optional[CBoundednessReport] = None) -> Verdict:
    """Moderateness of u on K: c-bounded plus chart-wise O(eps^-N) growth
    of all derivative orders 0..k_max, with the empty-sup convention."""
    grid = grid or cfg.grid()
    k_max = cfg.k_max if k_max is None else k_max
    report = cbounded or check_cbounded(u, K, grid, cfg)
    if report.status is not Status.PASS:
        witness = report.witness or Witness(eps=float(grid.values()[-1]), value=0.0)
        status = Status.FAIL if report.status is Status.FAIL else Status.INCONCLUSIVE
        return Verdict(status, estimate=None,
                       witness=witness if status is Status.FAIL else None,
                       notes="c-boundedness failed", series=report.margins)
    L_prime = _merge_l_prime(report)
    series = derivative_sup_series(u, K, grid, k_max, L_prime, cfg)
    parts = {}
    for (pi, cid, b, k), s in sorted(series.items()):
        parts[f"k={k}|K[{pi}]|{cid}->{b}"] = judge_moderate(s, cfg.n_cap, cfg.r2_min)
    if not parts:
        return Verdict(Status.INCONCLUSIVE, notes="no admissible chart pair")
    out = conjunction(parts, notes=f"moderateness of {u.tag} on {len(K.pieces)} piece(s)")
    out.details["cbounded"] = Verdict(Status.PASS, estimate=OrderEstimate(0.0, 1.0, (0, 0)),
                                      notes="c-bounded", series=report.margins)
    return out


def check_single_chart(u: MapNet, K: CompactRegion, grid: Optional[EpsGrid] = None,
                       cfg: Config = DEFAULT_CONFIG) -> SingleChartReport:
    """Is the union of sampled images (below some eps0) inside one chart?

    Picks the largest grid eps0 such that every image point for grid eps <
    eps0 sits in a single stored chart with margin >= margin_min, requiring
    at least 3 tail grid points.
    """
    grid = grid or cfg.grid()
    table = u.image_table(K, grid)
    if table.escape is not None:
        raise table.escape.with_traceback(None)
    inside = table.margins.min(axis=1) >= cfg.margin_min  # per (eps, chart): every image
    # per (start, chart), start < len(grid) - 2: every image from eps index start on
    tail = np.logical_and.accumulate(inside[::-1], axis=0)[::-1][:-2]
    # per chart: its largest eps0, the eps before the first such start (1.0 before eps[0])
    eps0 = np.where(tail, np.concatenate(([1.0], grid.values()[:-3]))[:, None], -1.0).max(axis=0)
    c = int(np.argmax(eps0))  # the largest eps0, then the first chart
    if eps0[c] < 0.0:
        return SingleChartReport(K, None, None, Status.FAIL,
                                 notes="sampled image union escapes every stored chart")
    return SingleChartReport(K, table.charts[c], float(eps0[c]), Status.PASS)


def check_equiv0(u: MapNet, v: MapNet, K: CompactRegion,
                 g_dst: Optional[RiemannianMetric] = None,
                 grid: Optional[EpsGrid] = None,
                 cfg: Config = DEFAULT_CONFIG) -> Verdict:
    """Order-0 equivalence of two nets on K, by both available routes.

    Metric route: the sup-distance series must vanish and be negligible at
    m_probe (the global characterization).  Chart route: vanishing plus the
    chart-wise order-0 coordinate differences, sampled where both images have
    a representation in the same target chart and lie in the admissible
    compact L'.  Both routes read the nets' image tables, so once those exist
    no image is evaluated again.  The verdict status is the metric route's;
    both routes are reported in details for concordance tests.
    """
    grid = grid or cfg.grid()
    route_metric, d_series, _ = _metric_route(u, v, K, g_dst, grid, cfg)
    L_prime = _merge_l_prime(check_cbounded(u, K, grid, cfg), check_cbounded(v, K, grid, cfg))
    chart_parts = {"vanishing": route_metric.details["vanishing"]}
    for (pi, cid, b, _k), s in sorted(_chart_gaps0(u, v, K, grid, L_prime, cfg).items()):
        chart_parts[f"k=0|K[{pi}]|{cid}->{b}"] = judge_negligible(
            s, cfg.m_probe, cfg.r2_min, floor=cfg.zero_tol)
    route_chart = conjunction(chart_parts, notes="chart route")
    out = Verdict(route_metric.status, estimate=route_metric.estimate,
                  witness=route_metric.witness,
                  notes=f"order-0 equivalence of {u.tag} and {v.tag}",
                  series=d_series)
    out.details = {"metric": route_metric, "chart": route_chart}
    return out


def _merge_l_prime(*reports: CBoundednessReport) -> Optional[dict]:
    """L': the image boxes per target chart of every report with a compact
    image, or None when no report has one."""
    images = [rep.K_image for rep in reports if rep.K_image is not None]
    if not images:
        return None
    merged: dict = {}
    for image in images:
        for cid, box in image.pieces:
            merged.setdefault(cid, []).append(box)
    return merged


def check_equiv(u: MapNet, v: MapNet, K_list, grid: Optional[EpsGrid] = None,
                k_max: Optional[int] = None, cfg: Config = DEFAULT_CONFIG,
                g_dst: Optional[RiemannianMetric] = None) -> Verdict:
    """Full equivalence: vanishing sup-distance plus negligible chart-wise
    derivative differences for every order 0..k_max, on each region."""
    grid = grid or cfg.grid()
    k_max = cfg.k_max if k_max is None else k_max
    if isinstance(K_list, CompactRegion):
        K_list = [K_list]
    parts = {}
    for ki, K in enumerate(K_list):
        d_series = metric_gap_series(u, v, K, g_dst, grid, cfg)
        parts[f"vanishing|K{ki}"] = judge_vanishing(d_series, cfg.vanish_tol, cfg.r2_min)
        L_prime = _merge_l_prime(check_cbounded(u, K, grid, cfg),
                                 check_cbounded(v, K, grid, cfg))
        for (pi, cid, b, k), s in sorted(
                chart_gap_series(u, v, K, grid, k_max, L_prime, cfg).items()):
            parts[f"k={k}|K{ki}[{pi}]|{cid}->{b}"] = judge_negligible(
                s, cfg.m_probe, cfg.r2_min, floor=cfg.zero_tol)
    return conjunction(parts, notes=f"equivalence of {u.tag} and {v.tag}")
