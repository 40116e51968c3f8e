"""Compactly supported generalized points and generalized numbers.

A generalized point is an eps-net of manifold points confined to a compact
region for small eps, compared modulo distances decaying faster than every
power of eps.  Point evaluation of a map net and the argmax-based witness
search (which separates order-0 inequivalent nets by a single generalized
point) live here.

At the eps of a grid a generalized point is read as a column
(``manifold.PointStack``): one row per eps, a chart per row and the
coordinates stacked.  Point evaluation takes the column of ``u(p)`` from the
image table of p's column (``ImageTable.best``), equality compares two
columns with one ``distance`` call and one stacked ``rechart`` per chart,
and a record reads the column's rows.

Witness falsification is always relative to the probed region: the compact
set in the uniqueness statement is not canonical, so the searcher takes K
explicitly.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .asymptotics import (
    EpsGrid,
    OrderEstimate,
    Status,
    SupSeries,
    Verdict,
    conjunction,
    judge_negligible,
    sweep_stacks,
)
from .config import DEFAULT_CONFIG, Config
from .errors import SupportEscape
from .gmap import ImageTable, MapNet, _metric_route, check_cbounded, sample_points
from .manifold import (
    Atlas,
    Box,
    CompactRegion,
    Point,
    PointStack,
    RiemannianMetric,
    distance,
)


class GenPoint:
    """Compactly supported eps-net of points of an atlas: ``at(eps)`` is
    the point at eps, and ``column(grid)`` its values at the grid eps."""

    def __init__(self, atlas: Atlas, at: Callable[[float], Point],
                 support: CompactRegion, eps0: float = 1.0, tag: str = ""):
        self.atlas = atlas
        self.at = at
        self.support = support
        self.eps0 = eps0
        self.tag = tag
        self._columns: dict = {}
        self._read: dict = {}  # grid -> the values ``column`` read (None where ``at`` raised)

    def column(self, grid: EpsGrid) -> PointStack:
        """The values at the grid eps, read once per grid: one row per eps.
        A row where ``at`` raised has no point and raises that error, with its
        original traceback, whenever it is read."""
        if grid not in self._columns:
            pts, errors = [], {}
            for ei, eps in enumerate(grid.values()):
                try:
                    pts.append(self.at(eps))
                except Exception as exc:  # raised where row ei is read, as by ``at``
                    pts.append(None)
                    errors[ei] = exc, exc.__traceback__
            self._read[grid] = pts
            self._columns[grid] = PointStack.of(
                self.atlas, pts, lambda i: errors[i][0].with_traceback(errors[i][1]))
        return self._columns[grid]

    @classmethod
    def constant(cls, atlas: Atlas, p: Point, pad: float = 0.05,
                 tag: str = "") -> "GenPoint":
        box = Box(p.coords - pad, p.coords + pad)
        support = CompactRegion([(p.chart, box)])
        return cls(atlas, lambda eps: p, support, tag=tag or "const")

    @classmethod
    def from_fn(cls, atlas: Atlas, fn: Callable[[float], Point],
                support: CompactRegion, eps0: float = 1.0, tag: str = "") -> "GenPoint":
        return cls(atlas, fn, support, eps0, tag)

    @classmethod
    def from_table(cls, atlas: Atlas, eps_vals: np.ndarray, points: list,
                   support: CompactRegion, tag: str = "") -> "GenPoint":
        """Piecewise-constant net: value at grid point eps_k holds on
        (eps_{k+1}, eps_k]; the ends extend constantly."""
        later = np.asarray(eps_vals, dtype=float)[1:]  # k are >= an eps in (eps_{k+1}, eps_k]
        return cls(atlas, lambda eps: points[int(np.count_nonzero(later >= eps))], support,
                   tag=tag)

    def as_record(self, grid: EpsGrid) -> dict:
        col = self.column(grid)
        return {
            "support": self.support.as_record(),
            "samples": [dict(eps=float(e), **col.point(ei).as_record())
                        for ei, e in enumerate(grid.values())],
        }


class GenNumber:
    """eps-net of scalars; moderateness is recorded, never enforced."""

    def __init__(self, fn: Callable[[float], float], tag: str = "",
                 moderate_bound: Optional[OrderEstimate] = None):
        self.fn = fn
        self.tag = tag
        self.moderate_bound = moderate_bound

    @classmethod
    def constant(cls, v: float, tag: str = "") -> "GenNumber":
        return cls(lambda eps: v, tag=tag or f"const({v:g})",
                   moderate_bound=OrderEstimate(0.0, 1.0, (0, 0), n_or_m=0))

    def __call__(self, eps: float) -> float:
        return float(self.fn(eps))

    def __add__(self, other):
        o = other if isinstance(other, GenNumber) else GenNumber.constant(float(other))
        return GenNumber(lambda eps: self(eps) + o(eps), tag=f"({self.tag}+{o.tag})")

    __radd__ = __add__

    def __mul__(self, other):
        o = other if isinstance(other, GenNumber) else GenNumber.constant(float(other))
        return GenNumber(lambda eps: self(eps) * o(eps), tag=f"({self.tag}*{o.tag})")

    __rmul__ = __mul__

    def __neg__(self):
        return GenNumber(lambda eps: -self(eps), tag=f"(-{self.tag})")

    def __sub__(self, other):
        o = other if isinstance(other, GenNumber) else GenNumber.constant(float(other))
        return GenNumber(lambda eps: self(eps) - o(eps), tag=f"({self.tag}-{o.tag})")

    def abs_series(self, grid: EpsGrid, cfg: Config = DEFAULT_CONFIG) -> SupSeries:
        values = np.abs([self(e) for e in grid.values()])
        return sweep_stacks(grid, [(None, np.arange(len(grid)), values, lambda _i: None)],
                            cfg.zero_tol, lambda _key: f"|{self.tag}|")[None]

    def record_moderate(self, grid: EpsGrid, cfg: Config = DEFAULT_CONFIG) -> "GenNumber":
        from .asymptotics import judge_moderate

        v = judge_moderate(self.abs_series(grid, cfg), cfg.n_cap, cfg.r2_min)
        self.moderate_bound = v.estimate
        return self


def gennumbers_equal(a: GenNumber, b: GenNumber, grid: EpsGrid,
                     cfg: Config = DEFAULT_CONFIG) -> Verdict:
    """Equality in the generalized-number ring: |a-b| negligible."""
    return judge_negligible((a - b).abs_series(grid, cfg), cfg.m_probe,
                            cfg.r2_min, floor=cfg.zero_tol)


# ======================================================================
# Point operations
# ======================================================================


def points_equal(p: GenPoint, q: GenPoint, g: Optional[RiemannianMetric] = None,
                 grid: Optional[EpsGrid] = None,
                 cfg: Config = DEFAULT_CONFIG) -> Verdict:
    """Equality of generalized points: d(p_eps, q_eps) negligible.

    Also computed: the chart-coordinate route (coordinate differences per
    chart, sampled only where both points co-locate); both routes are
    reported and flagged when their statuses disagree.  Both read the two
    points' columns: one ``distance`` call between them (a failure raises
    what an eps loop over the rows raises first) and one stacked
    ``rechart`` per chart of each column.
    """
    grid = grid or cfg.grid()
    atlas = p.atlas
    cp, cq = p.column(grid), q.column(grid)
    d = distance(atlas, g or atlas.metric, cp, cq)
    d_series = sweep_stacks(grid, [(None, np.arange(len(d)), d, lambda _i: None)], cfg.zero_tol,
                            lambda _key: f"d({p.tag},{q.tag})")[None]
    metric_verdict = judge_negligible(d_series, cfg.m_probe, cfg.r2_min, floor=cfg.zero_tol)

    def coord_gaps():
        for cid in atlas.chart_ids:
            xp, xq = cp.rechart(cid), cq.rechart(cid)
            eis = np.flatnonzero(~np.isnan(xp[:, 0]) & ~np.isnan(xq[:, 0]))
            if len(eis):  # else never sampled (empty-sup convention)
                yield cid, eis, np.max(np.abs(xp[eis] - xq[eis]), axis=1), lambda _i: None

    gaps = sweep_stacks(grid, coord_gaps(), cfg.zero_tol,
                        lambda cid: f"|{cid}({p.tag})-{cid}({q.tag})|")
    chart_parts = {f"chart:{cid}": judge_negligible(gaps[cid], cfg.m_probe, cfg.r2_min,
                                                    floor=cfg.zero_tol)
                   for cid in atlas.chart_ids if cid in gaps}
    chart_verdict = (conjunction(chart_parts, notes="chart route") if chart_parts
                     else Verdict(Status.INCONCLUSIVE, notes="points never co-located"))

    disagree = chart_verdict.status not in (Status.INCONCLUSIVE, metric_verdict.status)
    return Verdict(metric_verdict.status, estimate=metric_verdict.estimate,
                   witness=metric_verdict.witness, series=d_series,
                   notes="route disagreement: metric vs chart" if disagree else "",
                   details={"metric": metric_verdict, "chart": chart_verdict})


def eval_at(u: MapNet, p: GenPoint, grid: Optional[EpsGrid] = None,
            cfg: Config = DEFAULT_CONFIG) -> GenPoint:
    """Point evaluation eps -> u_eps(p_eps); support is the image region.

    Requires u to be c-bounded on the point's support (``_image_support``).
    The column of the result (``GenPoint.column``) is the ``best`` stack of
    the image table of p's column, a table of one column (``ImageTable``):
    one stacked ``u.at`` call per source chart at u's eps column, each row's
    candidate chosen as ``u.eval`` chooses it.  A row whose image escapes
    every chart raises u.eval's ChartEscape when it is read, and a row where
    p raised raises p's error; at an eps off the grid, ``at`` calls ``u.eval``.
    """
    grid = grid or cfg.grid()
    rep = _image_support(u, p, grid, cfg)
    table = ImageTable(u, p.column(grid), grid.values(), column=True)

    def at(eps: float) -> Point:
        return table.image(eps, 0) if eps in table.rows else u.eval(eps, p.at(eps))

    out = GenPoint(u.dst, at, rep.K_image, eps0=min(p.eps0, rep.eps0), tag=f"{u.tag}({p.tag})")
    out._columns[grid] = table.best
    return out


def _image_support(u: MapNet, p: GenPoint, grid: EpsGrid, cfg: Config = DEFAULT_CONFIG):
    """u's c-boundedness report on p's support (K_image: u(p)'s), or SupportEscape."""
    rep = check_cbounded(u, p.support, grid, cfg)
    if rep.status is not Status.PASS or rep.K_image is None:
        w = rep.witness.as_record() if rep.witness else None
        raise SupportEscape(
            f"{u.tag!r} is not c-bounded on support of {p.tag!r} (witness: {w})")
    return rep


def separate_by_points(u: MapNet, v: MapNet, K: CompactRegion,
                       grid: Optional[EpsGrid] = None, trials: int = 0,
                       cfg: Config = DEFAULT_CONFIG,
                       g_dst: Optional[RiemannianMetric] = None) -> Optional[GenPoint]:
    """Witness point separating order-0 inequivalent nets, else None.

    The nets are inequivalent when the metric route of ``check_equiv0``
    fails (its chart route is not run).  Follows the subsequence
    construction: for each grid eps, take the argmax of the image distance
    over the lattice and the ``trials`` seeded extras, then interpolate
    piecewise constantly in eps.  Ties break to the lowest sample index.
    Every image distance is computed once, from the lattice and the extras
    image tables; the equivalence test reads the lattice part.
    """
    grid = grid or cfg.grid()
    route, _, dists = _metric_route(u, v, K, g_dst, grid, cfg, trials, cfg.seed)
    K.validate(u.src)  # as check_equiv0's c-boundedness checks do
    if route.status is Status.PASS:
        return None
    return argmax_net(u.src, K, sample_points(K, trials, cfg.seed), grid, dists,
                      tag=f"sep({u.tag},{v.tag})")


def argmax_net(atlas: Atlas, K: CompactRegion, pts: list, grid: EpsGrid,
               values: np.ndarray, tag: str = "") -> GenPoint:
    """Piecewise-constant net of the per-eps argmax over pts of ``values``,
    the (eps, point) array of the values at grid eps and pts.

    Only an improvement by more than 1e-15 moves the argmax, so near-ties
    break to the lowest index; pts[0] stands when every value is NaN.
    """
    argmaxes = []
    for row in np.asarray(values, dtype=float).tolist():
        best, best_v = 0, -1.0
        for i, val in enumerate(row):
            if val > best_v + 1e-15:
                best, best_v = i, val
        argmaxes.append(pts[best])
    return GenPoint.from_table(atlas, grid.values(), argmaxes, K, tag=tag)
