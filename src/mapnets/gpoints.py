"""Compactly supported generalized points and generalized numbers.

A generalized point is an eps-net of manifold points confined to a compact
region for small eps, compared modulo distances decaying faster than every
power of eps.  Point evaluation of a map net and the argmax-based witness
search (which separates order-0 inequivalent nets by a single generalized
point) live here.

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
    series_from_fn,
    sweep_sups,
)
from .config import DEFAULT_CONFIG, Config
from .errors import SupportEscape
from .gmap import MapNet, _metric_route, check_cbounded, sample_points
from .manifold import (
    Atlas,
    Box,
    CompactRegion,
    Point,
    RiemannianMetric,
    distance,
)


class GenPoint:
    """Compactly supported eps-net of points of an atlas."""

    def __init__(self, atlas: Atlas, at: Callable[[float], Point],
                 support: CompactRegion, eps0: float = 1.0, tag: str = ""):
        self.atlas = atlas
        self.at = at
        self.support = support
        self.eps0 = eps0
        self.tag = tag

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
        eps_vals = np.asarray(eps_vals, dtype=float)

        def at(eps: float) -> Point:
            if eps >= eps_vals[0]:
                return points[0]
            for k in range(len(eps_vals) - 1):
                if eps_vals[k + 1] < eps <= eps_vals[k]:
                    return points[k]
            return points[-1]

        return cls(atlas, at, support, tag=tag)

    def validate(self, grid: EpsGrid) -> None:
        for eps in grid.values():
            if eps < self.eps0 and not self.support.contains(self.at(eps), self.atlas,
                                                             margin=1e-12):
                raise SupportEscape(f"{self.tag or 'point'} leaves support at eps={eps:g}")

    def as_record(self, grid: EpsGrid) -> dict:
        return {
            "support": self.support.as_record(),
            "samples": [dict(eps=float(e), **self.at(e).as_record())
                        for e in grid.values()],
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
        return series_from_fn(lambda e: abs(self(e)), grid, f"|{self.tag}|", cfg.zero_tol)

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
    reported and flagged when their statuses disagree.
    """
    grid = grid or cfg.grid()
    atlas = p.atlas
    g = g or atlas.metric
    d_series = series_from_fn(lambda eps: distance(atlas, g, p.at(eps), q.at(eps)), grid,
                              f"d({p.tag},{q.tag})", cfg.zero_tol)
    metric_verdict = judge_negligible(d_series, cfg.m_probe, cfg.r2_min, floor=cfg.zero_tol)

    def coord_gaps(eps):
        for cid in atlas.chart_ids:
            xp = atlas.rechart(p.at(eps), cid)
            xq = atlas.rechart(q.at(eps), cid)
            if xp is not None and xq is not None:  # else excluded (empty-sup convention)
                yield cid, float(np.max(np.abs(xp - xq))), None

    gaps = sweep_sups(grid, coord_gaps, cfg.zero_tol,
                      lambda cid: f"|{cid}({p.tag})-{cid}({q.tag})|")
    chart_parts = {f"chart:{cid}": judge_negligible(gaps[cid], cfg.m_probe, cfg.r2_min,
                                                    floor=cfg.zero_tol)
                   for cid in atlas.chart_ids if cid in gaps}
    chart_verdict = (conjunction(chart_parts, notes="chart route") if chart_parts
                     else Verdict(Status.INCONCLUSIVE, notes="points never co-located"))

    notes = ""
    if chart_verdict.status is not Status.INCONCLUSIVE and \
            chart_verdict.status is not metric_verdict.status:
        notes = "route disagreement: metric vs chart"
    out = Verdict(metric_verdict.status, estimate=metric_verdict.estimate,
                  witness=metric_verdict.witness, notes=notes, series=d_series)
    out.details = {"metric": metric_verdict, "chart": chart_verdict}
    return out


def eval_at(u: MapNet, p: GenPoint, grid: Optional[EpsGrid] = None,
            cfg: Config = DEFAULT_CONFIG) -> GenPoint:
    """Point evaluation eps -> u_eps(p_eps); support is the image region.

    Requires u to be c-bounded on the point's support; otherwise the values
    have no compact home and SupportEscape is raised.
    """
    grid = grid or cfg.grid()
    rep = check_cbounded(u, p.support, grid, cfg)
    if rep.status is not Status.PASS or rep.K_image is None:
        w = rep.witness.as_record() if rep.witness else None
        raise SupportEscape(
            f"{u.tag!r} is not c-bounded on support of {p.tag!r} (witness: {w})")
    return GenPoint(u.dst, lambda eps: u.eval(eps, p.at(eps)), rep.K_image,
                    eps0=min(p.eps0, rep.eps0), tag=f"{u.tag}({p.tag})")


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
    Every image distance is computed once, from the image table with the
    extras; the equivalence test reads its lattice prefix.
    """
    grid = grid or cfg.grid()
    route, _, dists = _metric_route(u, v, K, g_dst, grid, cfg, trials, cfg.seed)
    K.validate(u.src)  # as check_equiv0's c-boundedness checks do
    if route.status is Status.PASS:
        return None
    pts = sample_points(K, trials, cfg.seed)
    rows = {eps: ei for ei, eps in enumerate(grid.values().tolist())}
    index = {id(p): pi for pi, p in enumerate(pts)}
    return argmax_net(u.src, K, pts, grid, lambda eps, p: dists[rows[eps], index[id(p)]],
                      tag=f"sep({u.tag},{v.tag})")


def argmax_net(atlas: Atlas, K: CompactRegion, pts: list, grid: EpsGrid,
               value: Callable[[float, Point], float], tag: str = "") -> GenPoint:
    """Piecewise-constant net of the per-eps argmax of ``value(eps, p)`` over pts.

    Only an improvement by more than 1e-15 moves the argmax, so near-ties
    break to the lowest index; pts[0] stands when every value is NaN.
    """
    eps_vals = grid.values()
    argmaxes = []
    for eps in eps_vals:
        best, best_v = pts[0], -1.0
        for p in pts:
            val = value(eps, p)
            if val > best_v + 1e-15:
                best, best_v = p, val
        argmaxes.append(best)
    return GenPoint.from_table(atlas, eps_vals, argmaxes, K, tag=tag)
