"""Nets of smooth maps between atlases and their asymptotic checks.

A ``MapNet`` is a family eps -> SmoothMap.  The checks turn the defining
clauses of the calculus into verdicts: images of compacts staying compact
(c-boundedness), chart-wise derivative growth bounded by inverse powers of
eps (moderateness), two flavors of equivalence (order 0, and all derivative
orders), and the single-target-chart condition that underwrites composition.

Lattice points whose image leaves the admissible compact L' are excluded
from suprema; a supremum over an empty admissible set is recorded as zero.

The order-0 clauses (c-boundedness, single chart, metric gaps, both routes of
order-0 equivalence, separating points) all read the image of a region's
sample points at every grid eps.  ``MapNet.image_table`` evaluates that image
once per (region, grid, extra samples) and keeps it on the net as an
``ImageTable`` of compact arrays.
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
    sweep_sups,
)
from .config import DEFAULT_CONFIG, Config
from .errors import ChartMismatch
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
        shares the table.  A build that raises (e.g. ``ChartEscape``) caches
        nothing.
        """
        key = (grid, K.lattice_density,
               tuple((cid, box.lo.tobytes(), box.hi.tobytes()) for cid, box in K.pieces),
               trials, seed if trials > 0 else None)
        table = self._tables.get(key)
        if table is None:
            table = ImageTable(self, sample_points(K, trials, seed), grid.values())
            self._tables[key] = table
        return table

    def __repr__(self):
        return f"MapNet({self.tag!r}: {self.src.name} -> {self.dst.name})"


class ImageTable:
    """Images u_eps(p) of sample points p at every grid eps, as arrays.

    Built with one ``u.eval`` and one ``representations`` call per (eps,
    point).  ``margins[ei, pi, c]`` is the normalized margin of the image in
    chart ``charts[c]`` (-inf where it has no representation there),
    ``coords[ei, pi, c]`` its coordinates in that chart, and ``chart[ei, pi]``
    the chart ``u.eval`` returned.  The arrays are read-only, so an image
    handed out (a view into ``coords``) cannot corrupt the table.
    """

    def __init__(self, u: MapNet, pts: list, eps_vals: np.ndarray):
        dst = u.dst
        self.charts = dst.chart_ids
        self.dims = [dst.chart(b).dim for b in self.charts]
        self.rows = {eps: ei for ei, eps in enumerate(eps_vals.tolist())}
        col = {b: c for c, b in enumerate(self.charts)}
        shape = (len(eps_vals), len(pts), len(self.charts))
        self.margins = np.full(shape, -math.inf)
        self.coords = np.full(shape + (max(self.dims),), math.nan)
        self.chart = np.empty(shape[:2], dtype=np.int32)
        for ei, eps in enumerate(eps_vals):
            for pi, p in enumerate(pts):
                q = u.eval(eps, p)
                self.chart[ei, pi] = col[q.chart]
                for b, y, m in dst.representations(q):  # q.chart's entry is q.coords
                    c = col[b]
                    self.margins[ei, pi, c] = m
                    self.coords[ei, pi, c, :len(y)] = y
        for arr in (self.margins, self.coords, self.chart):
            arr.flags.writeable = False

    def image(self, eps: float, pi: int) -> Point:
        """u_eps(point pi), equal to what ``u.eval`` returned."""
        ei = self.rows[eps]
        c = self.chart[ei, pi]
        return Point(self.charts[c], self.coords[ei, pi, c, :self.dims[c]])


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
    when both factors carry expressions, exact first-order chain rule when
    Jacobians exist, nested finite differences beyond.
    """

    def __init__(self, routes: list, in_dim: int, out_shape, name: str = ""):
        self.routes = routes  # list of (mid_contains, inner, outer)
        self._all_expr = all(
            inner.expr is not None and outer.expr is not None
            for _, inner, outer in routes)
        super().__init__(in_dim, out_shape, fn=self._fn, name=name)

    def _route_for(self, x: np.ndarray):
        for mid_ok, inner, outer in self.routes:
            y = inner.try_call(x)
            if y is None or not mid_ok(y):
                continue
            z = outer.try_call(y)
            if z is not None:
                return (inner, outer, y, z)
        return None

    def _fn(self, x: np.ndarray) -> np.ndarray:
        r = self._route_for(np.atleast_1d(np.asarray(x, dtype=float)))
        if r is None:
            raise ValueError("no admissible route")
        return r[3]

    def try_call(self, x) -> Optional[np.ndarray]:
        r = self._route_for(np.atleast_1d(np.asarray(x, dtype=float)))
        return None if r is None else r[3].reshape(self.out_shape)

    def deriv_tensor(self, x, k: int) -> np.ndarray:
        return self.derivs_upto(x, k)[k]

    def derivs_upto(self, x, k_max: int) -> list:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        r = self._route_for(x)
        if r is None:
            raise ValueError("no admissible route")
        inner, outer, y, z = r
        if inner.expr is not None and outer.expr is not None:
            chained = LocalMap.from_expr(lambda t, i=inner.expr, o=outer.expr: o(i(t)),
                                         out_shape=self.out_shape, name=self.name)
            return chained.derivs_upto(x, k_max)
        out = [z.reshape(self.out_shape)]
        if k_max >= 1:
            J = (outer.jacobian(y) @ inner.jacobian(x))
            out.append(J.reshape(self.out_shape + (self.in_dim,)))
        for k in range(2, k_max + 1):
            prev = lambda w, kk=k - 1: self.deriv_tensor(w, kk)
            h = jets.fd_step(x)
            cols = [jets.fd_partial(prev, x, axis=j, h=h) for j in range(self.in_dim)]
            out.append(np.stack(cols, axis=-1))
        return out

    def exact_to(self, k: int) -> bool:
        if k == 0 or self._all_expr:
            return True
        return k == 1 and all(inner.exact_to(1) and outer.exact_to(1)
                              for _ok, inner, outer in self.routes)


def effective_reps(sm: SmoothMap, chart_a: str) -> dict:
    """Representatives out of chart_a, chaining a src transition if needed.

    Returns {dst chart: LocalMap in chart_a coordinates}.
    """
    out = {}
    for (a, b), rep in sorted(sm.locals.items()):
        if a == chart_a:
            out[b] = rep
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


def _lands_in(x: np.ndarray, reps, chart_b, b: str, L_prime: Optional[dict]) -> bool:
    """Does every representative map x into chart b, and into L' when given?"""
    for rep in reps:
        y = rep.try_call(x)
        if y is None or not chart_b.contains(y):
            return False
        if L_prime is not None and not any(box.contains(y, closed=True)
                                           for box in L_prime.get(b, ())):
            return False
    return True


def _chart_sups(dst: Atlas, K: CompactRegion, grid: EpsGrid, k_max: int,
                L_prime: Optional[dict], pieces, context, cfg: Config) -> dict:
    """Chart-wise lattice sups of derivative-tensor norms, orders 0..k_max.

    ``pieces(eps, cid)`` yields (dst chart b, representatives, tensors_of).
    A lattice point x of K's piece pi (in chart cid) counts under the keys
    (pi, cid, b, k) when every representative lands x in chart b and in L';
    ``tensors_of(x)`` gives its tensors of orders 0..k_max.  Each series is
    labelled ``context(pi, cid, b, k)``.
    """
    lattices = list(enumerate(K.lattices()))

    def samples(eps):
        for pi, (cid, lat) in lattices:
            for b, reps, tensors_of in pieces(eps, cid):
                chart_b = dst.chart(b)
                for x in lat:
                    if not _lands_in(x, reps, chart_b, b, L_prime):
                        continue
                    tensors = tensors_of(x)
                    at = Point(cid, x)
                    for k in range(k_max + 1):
                        yield (pi, cid, b, k), tensor_norm(tensors[k], k), at

    return sweep_sups(grid, samples, cfg.zero_tol, lambda key: context(*key))


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
            yield b, (reps[b],), lambda x, rep=reps[b]: rep.derivs_upto(x, k_max)

    return _chart_sups(u.dst, K, grid, k_max, L_prime, pieces,
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
    rows = dists[:, :len(pts)].tolist()

    def samples(eps):
        for d, p in zip(rows[tu.rows[eps]], pts):
            yield None, d, p

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


def _in_boxes(y: np.ndarray, boxes) -> np.ndarray:
    """Which points y[..., :] lie in some closed box of boxes (NaN in none)."""
    inside = np.zeros(y.shape[:-1], dtype=bool)
    for box in boxes:
        inside |= np.all((box.lo <= y) & (y <= box.hi), axis=-1)
    return inside


def _chart_gaps0(u: MapNet, v: MapNet, K: CompactRegion, grid: EpsGrid,
                 L_prime: Optional[dict], cfg: Config) -> dict:
    """Order-0 chart-wise gaps |y_u - y_v| read from the two image tables.

    Keys (pi, cid, b, 0) as in ``chart_gap_series``.  A lattice point of piece
    pi counts for target chart b at eps when both images have a chart-b
    representation and, when L' is given, both lie in a closed L' box of b.
    """
    tu, tv = u.image_table(K, grid), v.image_table(K, grid)
    charts = []
    for c, b in enumerate(tu.charts):
        yu, yv = tu.coords[:, :, c, :tu.dims[c]], tv.coords[:, :, c, :tu.dims[c]]
        ok = (tu.margins[:, :, c] > -math.inf) & (tv.margins[:, :, c] > -math.inf)
        if L_prime is not None:
            boxes = L_prime.get(b, ())
            ok &= _in_boxes(yu, boxes) & _in_boxes(yv, boxes)
        with np.errstate(over="ignore"):  # an overflowed norm is inf, as in tensor_norm
            gap = np.sqrt(np.sum((yu - yv) ** 2, axis=-1))
        charts.append((b, ok.tolist(), gap.tolist()))
    pieces, offset = [], 0  # per piece: its index, chart, first column, lattice points
    for pi, (cid, lat) in enumerate(K.lattices()):
        pieces.append((pi, cid, offset, [Point(cid, x) for x in lat]))
        offset += len(lat)

    def samples(eps):
        ei = tu.rows[eps]
        for pi, cid, first, at in pieces:
            for b, ok, gap in charts:
                for j, x in enumerate(at, first):
                    if ok[ei][j]:
                        yield (pi, cid, b, 0), gap[ei][j], x

    return sweep_sups(grid, samples, cfg.zero_tol,
                      lambda key: f"|D^0({u.tag}-{v.tag})| K[{key[0]}] {key[1]}->{key[2]}")


def _gap_tensors(ru: LocalMap, rv: LocalMap, k_max: int):
    """Derivative tensors of the gap between two representatives.

    When both oracles are exact through order k_max, subtract exact tensors;
    otherwise differentiate the pointwise difference, which keeps stencil
    noise proportional to the gap itself rather than to the operands.
    """
    if all(ru.exact_to(k) and rv.exact_to(k) for k in range(k_max + 1)):
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
            yield b, (reps_u[b], reps_v[b]), _gap_tensors(reps_u[b], reps_v[b], k_max)

    return _chart_sups(u.dst, K, grid, k_max, L_prime, pieces,
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
    eps_vals = grid.values()
    table = u.image_table(K, grid)
    worst = table.margins.min(axis=1)  # per (eps, chart): the lowest image margin
    best: Optional[tuple] = None
    for c, b in enumerate(table.charts):
        margins = worst[:, c]
        for start in range(0, len(eps_vals) - 2):
            if np.all(margins[start:] >= cfg.margin_min):
                eps0 = float(eps_vals[start - 1]) if start > 0 else 1.0
                if best is None or eps0 > best[1]:
                    best = (b, eps0)
                break
    if best is None:
        return SingleChartReport(K, None, None, Status.FAIL,
                                 notes="sampled image union escapes every stored chart")
    return SingleChartReport(K, best[0], best[1], Status.PASS)


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
