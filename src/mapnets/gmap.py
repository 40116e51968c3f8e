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
    stack_sup,
    sweep_sups,
)
from .config import DEFAULT_CONFIG, Config
from .errors import ChartEscape, ChartMismatch
from .manifold import (
    Atlas,
    Box,
    CompactRegion,
    LocalMap,
    Point,
    RiemannianMetric,
    SmoothMap,
    difference_map,
    distance,
    fd_tree,
    point_rows,
    tensor_norm,
)


# ======================================================================
# MapNet
# ======================================================================


class MapNet:
    """An eps-parametrized net of smooth maps src -> dst.

    ``local_factory(eps)`` returns the table of local representatives for
    the map at that eps.  Evaluation is pure; instances are safe to share.
    """

    def __init__(self, src: Atlas, dst: Atlas, local_factory: Callable[[float], dict],
                 tag: str = "", provenance: Optional[dict] = None):
        self.src = src
        self.dst = dst
        self.local_factory = local_factory
        self.tag = tag
        self.provenance = provenance or {}
        self._cache: dict = {}
        self._tables: dict = {}

    def at(self, eps: float) -> SmoothMap:
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
        """Images of K's sample points (``trials`` seeded extras per piece) at
        every grid eps, built on first use and kept as long as the net.

        Keyed by the grid and the region's content, so an equal region object
        shares the table.  A table with extras is the lattice table
        (``trials = 0``, built first if missing) plus the extras' images, so
        no lattice image is evaluated twice.  A table with an escaped image
        (``ImageTable.escape``) is cached like any other.
        """
        key = (grid, K.lattice_density,
               tuple((cid, box.lo.tobytes(), box.hi.tobytes()) for cid, box in K.pieces),
               trials, seed if trials > 0 else None)
        table = self._tables.get(key)
        if table is None:
            if trials > 0:
                lattice = self.image_table(K, grid)
                extras = sample_points(K, trials, seed)[lattice.chart.shape[1]:]
                table = ImageTable(self, extras, grid.values(), lattice)
            else:
                table = ImageTable(self, sample_points(K), grid.values())
            self._tables[key] = table
        return table

    def __repr__(self):
        return f"MapNet({self.tag!r}: {self.src.name} -> {self.dst.name})"


class ImageTable:
    """Images u_eps(p) of sample points p at every grid eps, as arrays.

    Built in one array pass: per eps, one stacked ``u.at(eps)`` call per
    source chart holding sample points (a stacked ``try_call`` per
    representative); then, once over all (eps, point) rows, the candidates'
    margins, each row's best candidate (largest margin, then the smaller
    target chart, then the smaller source chart, as in
    ``SmoothMap.eval_candidates``) and its ``representations``.
    ``margins[ei, pi, c]`` is the normalized margin of the image in chart
    ``charts[c]`` (-inf where it has no representation there),
    ``coords[ei, pi, c]`` its coordinates in that chart, and ``chart[ei, pi]``
    the best candidate's chart (-1 for an escaped row, one without candidate:
    it has no representation).  ``escape`` is the ``ChartEscape`` ``u.eval``
    raises at the first escaped row in (eps, point) order, else None.  The
    arrays are read-only, so an image handed out (a view into ``coords``)
    cannot corrupt the table.  With a ``head`` table (same net and grid), the
    table holds head's points first, copied, and evaluates only ``pts``.
    """

    def __init__(self, u: MapNet, pts: list, eps_vals: np.ndarray,
                 head: Optional["ImageTable"] = None):
        dst = u.dst
        self.charts = dst.chart_ids
        self.dims = [dst.chart(b).dim for b in self.charts]
        self.rows = {eps: ei for ei, eps in enumerate(eps_vals.tolist())}
        col = {b: c for c, b in enumerate(self.charts)}
        E, n = len(eps_vals), len(pts)
        maps = [u.at(eps) for eps in eps_vals]
        images: dict = {}  # (b, a): the images of the (eps, point) rows under rep (a, b)
        for a, rows, P in _source_groups(u.src, pts, {a for sm in maps for a, _b in sm.locals}):
            for ei, sm in enumerate(maps):
                for q in sm(P):
                    if (q.chart, a) not in images:
                        images[q.chart, a] = np.full((E, n) + q.coords.shape[1:], math.nan)
                    images[q.chart, a][ei, rows] = q.coords
        keys = sorted(images)
        flat = [images[k].reshape(E * n, -1) for k in keys]
        M = np.array([dst.chart(b).norm_margin(Y) for (b, _a), Y in zip(keys, flat)])
        found = (M.reshape(len(keys), E * n) > 0).any(axis=0)
        self.escape = head.escape if head is not None else None
        if self.escape is None and not found.all():
            ei, pi = divmod(int(np.argmin(found)), n)
            self.escape = ChartEscape(f"{maps[ei].name or 'map'} has no chart for image of {pts[pi]}")
        # the best candidate: the first of equal margins, the smaller (b, a); -1 if none
        best = M.argmax(axis=0) if keys else np.zeros(E * n, dtype=int)
        chart = np.where(found, np.array([col[b] for b, _a in keys] or [-1])[best], -1)
        margins = np.full((E * n, len(self.charts)), -math.inf)
        coords = np.full((E * n, len(self.charts), max(self.dims)), math.nan)
        for c, b in enumerate(self.charts):
            rows = np.flatnonzero(chart == c)
            if len(rows):  # the keys (b, a) are contiguous, from js[0]
                js = [j for j, k in enumerate(keys) if k[0] == b]
                Y = np.stack([flat[j] for j in js])[best[rows] - js[0], rows]
                for b2, y, m in dst.representations(Point(b, Y)):
                    margins[rows, col[b2]] = m
                    coords[rows, col[b2], :y.shape[1]] = y
        arrays = [margins.reshape(E, n, -1), coords.reshape((E, n) + coords.shape[1:]),
                  chart.astype(np.int32).reshape(E, n)]
        if head is not None:
            arrays = [np.concatenate(pair, axis=1)
                      for pair in zip((head.margins, head.coords, head.chart), arrays)]
        self.margins, self.coords, self.chart = arrays
        for arr in arrays:
            arr.flags.writeable = False

    def image(self, eps: float, pi: int) -> Point:
        """u_eps(point pi): the best candidate, as ``u.eval`` chooses it (or raise ``escape``)."""
        if self.escape is not None:
            raise self.escape.with_traceback(None)
        ei = self.rows[eps]
        c = self.chart[ei, pi]
        return Point(self.charts[c], self.coords[ei, pi, c, :self.dims[c]])


def _source_groups(src: Atlas, pts: list, charts):
    """(a, rows, P) for each source chart a of ``charts`` that holds some of
    the points ``pts``: their indices, and their chart-a coordinates as one
    stacked Point P (``Atlas.rechart`` of each chart's stack of points)."""
    own: dict = {}
    for i, p in enumerate(pts):
        own.setdefault(p.chart, []).append(i)
    for a in sorted(charts):
        X = np.full((len(pts), src.chart(a).dim), math.nan)
        for c, idx in own.items():
            Y = src.rechart(Point(c, np.array([pts[i].coords for i in idx])), a)
            if Y is not None:
                X[idx] = Y
        rows = np.flatnonzero(~np.isnan(X[:, 0]))
        if len(rows):
            yield a, rows, Point(a, X[rows])


def sample_points(K: CompactRegion, trials: int = 0, seed: int = 0) -> list:
    """K's lattice points, plus ``trials`` uniform draws per piece seeded by seed."""
    rng = np.random.default_rng(seed) if trials > 0 else None
    return K.sample_points(rng=rng, extra=trials)


def scalar_net(src: Atlas, dst: Atlas, expr_of_eps: Callable[[float], Callable],
               tag: str = "") -> MapNet:
    """Net between 1-D euclidean atlases from an eps-indexed expression.

    The same expression serves every chart pair (euclidean charts share
    ambient coordinates); exact derivatives come from jet evaluation.
    """

    def factory(eps: float) -> dict:
        expr = expr_of_eps(eps)
        table = {}
        for a in src.chart_ids:
            for b in dst.chart_ids:
                table[(a, b)] = LocalMap.from_expr(expr, out_shape=(1,),
                                                   name=f"{tag}:{a}->{b}")
        return table

    return MapNet(src, dst, factory, tag=tag)


def angle_net(src: Atlas, circle: Atlas, angle_of_eps: Callable[[float], Callable],
              tag: str = "") -> MapNet:
    """Circle-valued net from an eps-indexed angle expression on R.

    The representative into each angle chart wraps the angle into that
    chart's reference frame; the wrap shift is locally constant, so all
    derivatives are those of the raw angle expression.
    """

    def factory(eps: float) -> dict:
        a_expr = angle_of_eps(eps)
        table = {}
        for a in src.chart_ids:
            table[(a, "ang0")] = LocalMap.from_expr(
                lambda t, e=a_expr: jets.wrap_angle(e(t)), name=f"{tag}:{a}->ang0")
            table[(a, "angpi")] = LocalMap.from_expr(
                lambda t, e=a_expr: jets.wrap_angle(e(t) - math.pi),
                name=f"{tag}:{a}->angpi")
        return table

    return MapNet(src, circle, factory, tag=tag)


def embed_smooth(sm: SmoothMap, tag: str = "") -> MapNet:
    """Canonical embedding of a smooth map as an eps-constant net."""
    return MapNet(sm.src, sm.dst, lambda eps: sm.locals, tag=tag or sm.name)


# ======================================================================
# Effective representatives and composition
# ======================================================================


class ChainedLocalMap(LocalMap):
    """Local representative of a composite, routed through middle charts.

    Routes are (mid chart box check, inner rep, outer rep); the value in the
    final chart does not depend on the route taken (transition consistency),
    so the first admissible route is used.  Derivatives: exact jet chaining
    when both factors carry expressions, through the route's jet-chained map
    built once here, else the first-order chain rule, and beyond it nested
    finite differences of chain-rule tensors over one stencil tree
    (``fd_tree``).  Like every ``LocalMap``, the oracle takes a point or a
    stack of points; each row (and each stencil node) takes its own route.
    """

    def __init__(self, routes: list, in_dim: int, out_shape, name: str = ""):
        self.routes = routes  # list of (mid_contains, inner, outer)
        super().__init__(in_dim, out_shape, fn=lambda x: self._route(x)[2], name=name)
        # per route: the jet-chained map when both factors are expressions
        self.jet_maps = [LocalMap.from_expr(lambda t, f=inner.expr, g=outer.expr: g(f(t)),
                                            out_shape=self.out_shape, name=name)
                         if inner.expr is not None and outer.expr is not None else None
                         for _ok, inner, outer in routes]
        if all(jet is not None for jet in self.jet_maps):
            self.exact_order = math.inf
        elif all(min(inner.exact_order, outer.exact_order) >= 1
                 for _ok, inner, outer in routes):
            self.exact_order = 1

    def _route(self, x: np.ndarray) -> tuple:
        """(route index, middle point, value) of the first admissible route
        at x; ValueError, which ``try_call`` turns into None, when none is."""
        for i, (mid_ok, inner, outer) in enumerate(self.routes):
            y = inner.try_call(x)
            if y is None or not mid_ok(y):
                continue
            z = outer.try_call(y)
            if z is not None:
                return i, y, z
        raise ValueError("no admissible route")

    def deriv_tensor(self, x, k: int) -> np.ndarray:
        return self.derivs_upto(x, k)[k]

    def derivs_upto(self, x, k_max: int) -> list:
        """Tensors of orders 0..k_max at a point or at every row of a stack,
        each row by its own route: the rows of a route that chains two
        expressions take one stacked call of its jet-chained map, all other
        rows share one stencil tree over ``_chain_jacobians``.  Results come
        back in row order."""
        P, single = point_rows(x)
        routes = [self._route(p) for p in P]
        ts = [np.empty((len(P),) + self.out_shape + (self.in_dim,) * k)
              for k in range(k_max + 1)]
        fd_rows = [r for r, (i, _y, _z) in enumerate(routes) if self.jet_maps[i] is None]
        if fd_rows:
            values = np.array([routes[r][2].reshape(self.out_shape) for r in fd_rows])
            for t, rows in zip(ts, [values] + fd_tree(self._chain_jacobians, P[fd_rows],
                                                      k_max - 1)):
                t[fd_rows] = rows
        for i, jet in enumerate(self.jet_maps):
            rows = [r for r, route in enumerate(routes) if route[0] == i]
            if jet is not None and rows:
                for t, got in zip(ts, jet.derivs_upto(P[rows], k_max)):
                    t[rows] = got
        return [t[0] for t in ts] if single else ts

    def _chain_jacobians(self, P: np.ndarray) -> np.ndarray:
        """Order-1 chain-rule tensors at the rows of P, each by its own route,
        with one stacked Jacobian call per factor of a route."""
        routes = [self._route(w) for w in P]
        out = np.empty((len(P), self.out_size, self.in_dim))
        for i, (_ok, inner, outer) in enumerate(self.routes):
            rows = [r for r, route in enumerate(routes) if route[0] == i]
            if not rows:
                continue
            Y = np.array([routes[r][1] for r in rows])
            Jo = outer.deriv_tensor(Y, 1).reshape(len(rows), outer.out_size, outer.in_dim)
            Ji = inner.deriv_tensor(P[rows], 1).reshape(len(rows), inner.out_size, inner.in_dim)
            for r, jo, ji in zip(rows, Jo, Ji):
                out[r] = jo @ ji
        return out.reshape((len(P),) + self.out_shape + (self.in_dim,))


def effective_reps(sm: SmoothMap, chart_a: str) -> dict:
    """Representatives out of chart_a, chaining a src transition if needed.

    Returns {dst chart: LocalMap in chart_a coordinates}.
    """
    out = {b: rep for (a, b), rep in sorted(sm.locals.items()) if a == chart_a}
    for (a, b), rep in sorted(sm.locals.items()):
        if a == chart_a or b in out:
            continue
        tm = sm.src.transition_map(chart_a, a)
        if tm is None:
            continue
        mid_ok = lambda y, ch=sm.src.chart(a): ch.contains(y)
        out[b] = ChainedLocalMap([(mid_ok, tm, rep)], tm.in_dim, rep.out_shape,
                                 name=f"{rep.name} via {a}")
    return out


def compose(v: MapNet, u: MapNet, K: Optional[CompactRegion] = None,
            grid: Optional[EpsGrid] = None, cfg: Config = DEFAULT_CONFIG,
            tag: str = "") -> MapNet:
    """The net eps -> v_eps o u_eps, with chained local representatives.

    Composition of raw nets is unconditional; the class-level guarantee
    requires v to satisfy the single-target-chart condition on the relevant
    compacts, so when K is given the report is run and stamped into the
    result's provenance (not enforced).
    """
    if set(u.dst.chart_ids) != set(v.src.chart_ids):
        raise ChartMismatch(
            f"dst of {u.tag!r} ({u.dst.name}) is not src of {v.tag!r} ({v.src.name})")

    def factory(eps: float) -> dict:
        u_loc = u.at(eps).locals
        v_loc = v.at(eps).locals
        routes: dict = {}
        for (a, b), urep in sorted(u_loc.items()):
            for (b2, c), vrep in sorted(v_loc.items()):
                if b2 != b:
                    continue
                mid_ok = lambda y, ch=v.src.chart(b): ch.contains(y)
                routes.setdefault((a, c), []).append((mid_ok, urep, vrep))
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
                  provenance=prov)


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

    ``pieces(eps, cid)`` yields (dst chart b, tensors_of).  A lattice point x
    of K's piece pi (in chart cid) counts under the keys (pi, cid, b, k) when
    the image tables of ``nets`` (cached, escaped images included as rows)
    admit it for b (``_admitted``), so no point is evaluated for admission.
    Each (eps, piece, b) group with admitted points is one array pass: one
    call ``tensors_of(X)`` on their stack X, in lattice order, giving their
    tensors of orders 0..k_max, row axis first; one ``tensor_norm`` and one
    sup per order.  Each series is labelled ``context(pi, cid, b, k)``.
    """
    tables = [u.image_table(K, grid) for u in nets]
    ok = _admitted(tables, L_prime)
    lattice = _lattice_pieces(K)

    def samples(eps):
        ei = tables[0].rows[eps]
        for pi, cid, cols, lat, at in lattice:
            for b, tensors_of in pieces(eps, cid):
                rows = np.flatnonzero(ok[ei, cols, tables[0].charts.index(b)])
                if len(rows):
                    tensors = tensors_of(lat[rows])
                    for k in range(k_max + 1):
                        sup, i = stack_sup(tensor_norm(tensors[k], k))
                        yield (pi, cid, b, k), sup, at[rows[i]]

    return sweep_sups(grid, samples, cfg.zero_tol, lambda key: context(*key))


def _lattice_pieces(K: CompactRegion) -> list:
    """Per piece of K: (index, chart, its columns in K's image tables, its
    lattice, the lattice as Points)."""
    lattices = K.lattices()
    ends = np.cumsum([len(lat) for _cid, lat in lattices]).tolist()
    return [(pi, cid, slice(end - len(lat), end), lat, [Point(cid, x) for x in lat])
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

    def pieces(eps, cid):
        reps = effective_reps(u.at(eps), cid)
        for b in sorted(reps):
            yield b, lambda x, rep=reps[b]: rep.derivs_upto(x, k_max)

    return _chart_sups((u,), K, grid, k_max, L_prime, pieces,
                       lambda pi, cid, b, k: f"|D^{k}| K[{pi}] {cid}->{b} of {u.tag}", cfg)


def _distance_sweep(u: MapNet, v: MapNet, K: CompactRegion,
                    g: Optional[RiemannianMetric], grid: EpsGrid, cfg: Config,
                    trials: int = 0, seed: int = 0):
    """d_h(u_eps(p), v_eps(p)) between the two nets' table images, each
    computed once: the (eps, sample point) array, K's lattice points first,
    then the ``trials`` extras, and the sup series of its lattice prefix."""
    g = g or u.dst.metric
    if g is None:
        raise ValueError("no target metric available")
    tu, tv = u.image_table(K, grid, trials, seed), v.image_table(K, grid, trials, seed)
    dists = np.array([[distance(u.dst, g, tu.image(eps, pi), tv.image(eps, pi))
                       for pi in range(tu.chart.shape[1])] for eps in grid.values()])
    pts = K.sample_points()
    lattice = dists[:, :len(pts)]

    def samples(eps):
        d, i = stack_sup(lattice[tu.rows[eps]])
        yield None, d, pts[i]

    return sweep_sups(grid, samples, cfg.zero_tol,
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
    lattice = _lattice_pieces(K)

    def samples(eps):
        ei = tu.rows[eps]
        for pi, cid, cols, _lat, at in lattice:
            for c, b in enumerate(tu.charts):
                rows = np.flatnonzero(ok[ei, cols, c])
                if len(rows):
                    sup, i = stack_sup(gap[ei, cols, c][rows])
                    yield (pi, cid, b, 0), sup, at[rows[i]]

    return sweep_sups(grid, samples, cfg.zero_tol,
                      lambda key: f"|D^0({u.tag}-{v.tag})| K[{key[0]}] {key[1]}->{key[2]}")


def _gap_tensors(ru: LocalMap, rv: LocalMap, k_max: int):
    """Derivative tensors of the gap between two representatives, at a
    point or at every row of a stack.

    When both oracles are exact through order k_max, subtract exact tensors;
    otherwise differentiate the pointwise difference, which keeps stencil
    noise proportional to the gap itself rather than to the operands.
    """
    if min(ru.exact_order, rv.exact_order) >= k_max:
        def diffs(x):
            tu = ru.derivs_upto(x, k_max)
            tv = rv.derivs_upto(x, k_max)
            return [tu[k] - tv[k] for k in range(k_max + 1)]

        return diffs
    dmap = difference_map(ru, rv)
    return lambda x: dmap.derivs_upto(x, k_max)


def chart_gap_series(u: MapNet, v: MapNet, K: CompactRegion, grid: EpsGrid,
                     k_max: int, L_prime: Optional[dict],
                     cfg: Config = DEFAULT_CONFIG) -> dict:
    """Chart-wise derivative differences of two nets, orders 0..k_max.

    A lattice point contributes only when both images lie in L' in the same
    target chart.
    """

    def pieces(eps, cid):
        reps_u = effective_reps(u.at(eps), cid)
        reps_v = effective_reps(v.at(eps), cid)
        for b in sorted(set(reps_u) & set(reps_v)):
            yield b, _gap_tensors(reps_u[b], reps_v[b], k_max)

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


def _l_prime_of(report: CBoundednessReport) -> Optional[dict]:
    if report.K_image is None:
        return None
    out: dict = {}
    for cid, box in report.K_image.pieces:
        out.setdefault(cid, []).append(box)
    return out


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
    L_prime = _l_prime_of(report)
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
    merged: dict = {}
    any_pass = False
    for rep in reports:
        lp = _l_prime_of(rep)
        if lp is None:
            continue
        any_pass = True
        for cid, boxes in lp.items():
            merged.setdefault(cid, []).extend(boxes)
    return merged if any_pass else None


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
