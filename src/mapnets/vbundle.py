"""Generalized vector-bundle homomorphisms, sections, and bundle points.

A vb-homomorphism net is fiberwise linear by representation: each local
piece is a base map plus a matrix field, so linearity over the fibers is
structural rather than checked.  Tangent maps of map nets, point evaluation
of sections and homomorphisms, the module structure on bundle points over a
fixed generalized base point, and pointwise tensor insertion all reduce to
per-eps chart algebra plus the asymptotic judges.

``vbhom_compose`` is ``compose`` on the base nets plus, at each point, the
matrix product along the route its base point takes.  ``u.eval``,
``VBHomNet.eval`` and ``tangent_norm_series`` take the first chart pair of
``SmoothMap.eval_candidates``: largest margin, then the smaller target chart,
then the smaller source chart.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .asymptotics import (
    EpsGrid,
    OrderEstimate,
    Status,
    SupSeries,
    Verdict,
    conjunction,
    judge_moderate,
    judge_negligible,
    series_from_fn,
    stack_sup,
    sweep_sups,
)
from .config import DEFAULT_CONFIG, Config
from .errors import BaseMismatch, NoSharedChart, SingleChartMissing, TypeMismatch
from .gmap import (
    MapNet,
    check_cbounded,
    check_equiv,
    check_equiv0,
    check_moderate,
    check_single_chart,
    compose,
    sample_points,
    _chart_sups,
    _gap_tensors,
    _l_prime_of,
    _merge_l_prime,
)
from .gpoints import GenNumber, GenPoint, argmax_net, points_equal
from .manifold import (
    Atlas,
    BundleElement,
    CompactRegion,
    LocalMap,
    Point,
    VectorBundle,
    fiber_norm,
    riemannian_operator_norm,
    tensor_norm,
)


@dataclass
class VBLocal:
    """Local vb-homomorphism piece: base map plus matrix field."""

    base: LocalMap
    matrix: LocalMap  # out_shape (m', n'), argument in src chart coords


class VBHomNet:
    """eps-net of vector-bundle homomorphisms src -> dst."""

    def __init__(self, src: VectorBundle, dst: VectorBundle,
                 local_factory: Callable[[float], dict], tag: str = ""):
        self.src = src
        self.dst = dst
        self.local_factory = local_factory
        self.locals_at = functools.cache(local_factory)  # eps -> local table
        self.tag = tag

    @functools.cached_property
    def base_net(self) -> MapNet:
        return MapNet(self.src.base, self.dst.base,
                      lambda eps: {pair: vb.base for pair, vb in self.locals_at(eps).items()},
                      tag=f"base({self.tag})")

    def eval(self, eps: float, e: BundleElement) -> BundleElement:
        """Apply the eps-slice to a bundle element, in the chart pair the base
        map evaluates by (the first of ``SmoothMap.eval_candidates``)."""
        cands = self.base_net.at(eps).eval_candidates(e.base)
        if not cands:
            raise NoSharedChart(f"{self.tag!r} has no chart pair applying to {e}")
        b, y, _m, a = cands[0]
        ea = self.src.rechart(e, a)
        M = np.asarray(self.locals_at(eps)[(a, b)].matrix(ea.x), dtype=float)
        return BundleElement(b, y, M @ ea.xi)


def identity_vbhom(bundle: VectorBundle, tag: str = "id") -> VBHomNet:
    def factory(eps: float) -> dict:
        table = {}
        for cid in bundle.base.chart_ids:
            n = bundle.base.chart(cid).dim
            base = LocalMap(n, (n,), fn=lambda x: x,
                            jac=lambda x, n=n: np.eye(n), name="id")
            mat = LocalMap(n, (bundle.fiber_dim, bundle.fiber_dim),
                           fn=lambda x, k=bundle.fiber_dim: np.eye(k), name="Id")
            table[(cid, cid)] = VBLocal(base, mat)
        return table

    return VBHomNet(bundle, bundle, factory, tag=tag)


def tangent(u: MapNet, src_bundle: Optional[VectorBundle] = None,
            dst_bundle: Optional[VectorBundle] = None, tag: str = "") -> VBHomNet:
    """Tangent map of a map net: base parts are u's local representatives,
    matrix parts their Jacobian fields (exact through the derivative oracle)."""
    from .manifold import tangent_bundle

    src_bundle = src_bundle or tangent_bundle(u.src)
    dst_bundle = dst_bundle or tangent_bundle(u.dst)

    def factory(eps: float) -> dict:
        return {pair: VBLocal(rep, rep.derivative_map())
                for pair, rep in u.at(eps).locals.items()}

    return VBHomNet(src_bundle, dst_bundle, factory, tag=tag or f"T({u.tag})")


def vbhom_compose(v2: VBHomNet, v1: VBHomNet, tag: str = "") -> VBHomNet:
    """Composite vb-homomorphism net: the base parts are those of
    ``compose(v2.base_net, v1.base_net)``, and the matrix part at x is
    M2(y) @ M1(x) along the route (middle chart, point y) x's base takes.
    Raises ChartMismatch, as compose does, when the bases do not chain."""
    base = compose(v2.base_net, v1.base_net)

    def factory(eps: float) -> dict:
        loc1 = v1.locals_at(eps)
        loc2 = v2.locals_at(eps)
        table = {}
        for (a, c), chained in base.at(eps).locals.items():
            # one factor pair per route of compose: middle charts b in sorted order
            mats = [(loc1[(a, b)].matrix, loc2[(b, c)].matrix)
                    for (a2, b) in sorted(loc1) if a2 == a and (b, c) in loc2]

            def mat_fn(x, chained=chained, mats=mats):
                i, y, _z = chained._route(x)
                m1, m2 = mats[i]
                return np.asarray(m2(y)) @ np.asarray(m1(x))

            m1, m2 = mats[0]
            mat = LocalMap(chained.in_dim, (m2.out_shape[0], m1.out_shape[1]), fn=mat_fn)
            table[(a, c)] = VBLocal(chained, mat)
        return table

    return VBHomNet(v1.src, v2.dst, factory, tag=tag or f"{v2.tag}o{v1.tag}")


# ======================================================================
# Sections
# ======================================================================


class SectionNet:
    """eps-net of bundle sections, one coefficient field per vb-chart."""

    def __init__(self, bundle: VectorBundle, coeff_factory: Callable[[float], dict],
                 tag: str = ""):
        self.bundle = bundle
        self.coeff_factory = coeff_factory
        self.coeffs_at = functools.cache(coeff_factory)  # eps -> coefficient table
        self.tag = tag

    def element_at(self, eps: float, p: Point) -> BundleElement:
        coeffs = self.coeffs_at(eps)
        for cid, x, _m in self.bundle.base.representations(p):
            if cid in coeffs:
                return BundleElement(cid, x, np.atleast_1d(coeffs[cid](x)).ravel())
        raise NoSharedChart(f"section {self.tag!r} has no coefficients at {p}")


def section_norm_series(s: SectionNet, K: CompactRegion, grid: EpsGrid,
                        cfg: Config = DEFAULT_CONFIG,
                        trials: int = 0) -> SupSeries:
    """sup over K of the fiber norm of the section values."""
    return _section_norm_sweep(s, K, grid, cfg, trials)[0]


def _section_norm_sweep(s: SectionNet, K: CompactRegion, grid: EpsGrid, cfg: Config, trials: int):
    """(sup series, table, sample points) of the section's fiber norms: the
    table holds the norm at every (eps, id(sample point)), each taken once."""
    pts = sample_points(K, trials, cfg.seed)
    norms = {(eps, id(p)): fiber_norm(s.bundle, s.element_at(eps, p))
             for eps in grid.values() for p in pts}
    series = sweep_sups(grid, lambda eps: ((None, norms[eps, id(p)], p) for p in pts),
                        cfg.zero_tol, lambda _key: f"sup |{s.tag}|_h on K")[None]
    return series, norms, pts


def check_section_moderate(s: SectionNet, K: CompactRegion,
                           grid: Optional[EpsGrid] = None,
                           k_max: Optional[int] = None,
                           cfg: Config = DEFAULT_CONFIG) -> Verdict:
    """Moderateness of a section: fiber-norm sup plus coefficient-derivative
    sups up to k_max per vb-chart (coordinate partials generate the local
    differential estimates)."""
    grid = grid or cfg.grid()
    k_max = cfg.k_max if k_max is None else k_max
    parts = {"fiber-norm": judge_moderate(section_norm_series(s, K, grid, cfg),
                                          cfg.n_cap, cfg.r2_min)}
    lattices = list(enumerate(K.lattices()))

    def samples(eps):
        for pi, (cid, lat) in lattices:
            fld = s.coeffs_at(eps).get(cid)
            ts = None if fld is None else fld.derivs_upto(lat, k_max)
            for k in range(1, k_max + 1):  # every piece is judged, if only on zeros
                yield (pi, cid, k), 0.0 if ts is None else stack_sup(tensor_norm(ts[k], k))[0], None

    series = sweep_sups(grid, samples, cfg.zero_tol,
                        lambda key: f"|D^{key[2]} coeffs| K[{key[0]}] {key[1]} of {s.tag}")
    for (pi, cid, k), ser in sorted(series.items()):
        parts[f"k={k}|K[{pi}]|{cid}"] = judge_moderate(ser, cfg.n_cap, cfg.r2_min)
    return conjunction(parts, notes=f"section moderateness of {s.tag}")


# ======================================================================
# vb-points
# ======================================================================


class VBPoint:
    """eps-net of bundle elements: compactly supported base, recorded growth."""

    def __init__(self, bundle: VectorBundle, at: Callable[[float], BundleElement],
                 support: CompactRegion, eps0: float = 1.0, tag: str = ""):
        self.bundle = bundle
        self.at = at
        self.support = support
        self.eps0 = eps0
        self.tag = tag

    @classmethod
    def constant(cls, bundle: VectorBundle, e: BundleElement, pad: float = 0.05,
                 tag: str = "") -> "VBPoint":
        from .manifold import Box

        support = CompactRegion([(e.chart, Box(e.x - pad, e.x + pad))])
        return cls(bundle, lambda eps: e, support, tag=tag or "const")

    @classmethod
    def from_fn(cls, bundle: VectorBundle, fn: Callable[[float], BundleElement],
                support: CompactRegion, eps0: float = 1.0, tag: str = "") -> "VBPoint":
        return cls(bundle, fn, support, eps0, tag)

    def base_point(self) -> GenPoint:
        return GenPoint(self.bundle.base, lambda eps: self.at(eps).base,
                        self.support, self.eps0, tag=f"base({self.tag})")

    def norm_series(self, grid: EpsGrid, cfg: Config = DEFAULT_CONFIG) -> SupSeries:
        return series_from_fn(lambda e: fiber_norm(self.bundle, self.at(e)), grid,
                              f"|{self.tag}|_h", cfg.zero_tol)

    def growth(self, grid: Optional[EpsGrid] = None,
               cfg: Config = DEFAULT_CONFIG) -> OrderEstimate:
        grid = grid or cfg.grid()
        v = judge_moderate(self.norm_series(grid, cfg), cfg.n_cap, cfg.r2_min)
        return v.estimate


def zero_vbpoint_over(e: VBPoint, tag: str = "") -> VBPoint:
    """The zero vb-point over the same base net."""

    def at(eps: float) -> BundleElement:
        b = e.at(eps)
        return BundleElement(b.chart, b.x, np.zeros_like(b.xi))

    return VBPoint(e.bundle, at, e.support, e.eps0, tag=tag or f"0_over({e.tag})")


def _common_chart_pair(bundle: VectorBundle, e1: BundleElement, e2: BundleElement):
    """(margin, chart, e1 there, e2 there) for the chart where both elements
    are representable with the largest smaller margin (ties: smaller chart),
    or None."""
    reps2 = {b: (eb, m) for b, eb, m in bundle.representations(e2)}
    pairs = [(min(m, reps2[b][1]), b, eb, reps2[b][0])
             for b, eb, m in bundle.representations(e1) if b in reps2]
    return min(pairs, key=lambda pair: (-pair[0], pair[1]), default=None)


def vbpoints_equal(e: VBPoint, e2: VBPoint, grid: Optional[EpsGrid] = None,
                   cfg: Config = DEFAULT_CONFIG) -> Verdict:
    """Equality of vb-points: equal base nets and negligible fiber-coordinate
    differences wherever the bases co-locate in a vb-chart."""
    grid = grid or cfg.grid()
    base_v = points_equal(e.base_point(), e2.base_point(), grid=grid, cfg=cfg)

    def samples(eps):
        pair = _common_chart_pair(e.bundle, e.at(eps), e2.at(eps))
        if pair is not None:  # else an excluded sample (empty-sup convention)
            _m, _cid, r1, r2 = pair
            yield None, float(np.max(np.abs(r1.xi - r2.xi))), None

    gap = sweep_sups(grid, samples, cfg.zero_tol,
                     lambda _key: f"fiber gap |{e.tag}-{e2.tag}|").get(None)
    if gap is None:
        fiber_v = Verdict(Status.INCONCLUSIVE, notes="bases never co-located")
    else:
        fiber_v = judge_negligible(gap, cfg.m_probe, cfg.r2_min, floor=cfg.zero_tol)
    return conjunction({"base": base_v, "fiber": fiber_v},
                       notes=f"vb-point equality {e.tag} vs {e2.tag}")


def align_representative(e: VBPoint, p: GenPoint) -> VBPoint:
    """Representative of e whose base net is exactly p.

    Per eps, the fiber is re-charted into a vb-chart containing both base
    points and re-seated over p; valid when the bases are equal points.
    """
    bundle = e.bundle

    def at(eps: float) -> BundleElement:
        ee = e.at(eps)
        pp = p.at(eps)
        pair = _common_chart_pair(bundle, ee, BundleElement(pp.chart, pp.coords,
                                                            np.zeros(bundle.fiber_dim)))
        if pair is None:
            raise NoSharedChart(
                f"bases of {e.tag!r} and {p.tag!r} share no vb-chart at eps={eps:g}")
        _m, cid, re_e, re_p = pair
        return BundleElement(cid, re_p.x, re_e.xi)

    return VBPoint(bundle, at, p.support, min(e.eps0, p.eps0),
                   tag=f"align({e.tag}->{p.tag})")


def fiber_combine(e: VBPoint, e2: VBPoint, r: GenNumber, tag: str = "") -> VBPoint:
    """e + r*e2 over a shared base; requires aligned representatives.

    Alignment is never implicit: the two representatives must sit over the
    same base coordinates in a common chart at every sampled eps.
    """
    bundle = e.bundle

    def at(eps: float) -> BundleElement:
        a = e.at(eps)
        b = e2.at(eps)
        pair = _common_chart_pair(bundle, a, b)
        if pair is None:
            raise NoSharedChart(f"no common vb-chart at eps={eps:g}")
        _m, cid, ra, rb = pair
        scale = 1e-8 * (1.0 + float(np.max(np.abs(ra.x))))
        if float(np.max(np.abs(ra.x - rb.x))) > scale:
            raise BaseMismatch(
                f"bases differ at eps={eps:g}: {ra.x} vs {rb.x}; align first")
        return BundleElement(cid, ra.x, ra.xi + r(eps) * rb.xi)

    return VBPoint(bundle, at, e.support, min(e.eps0, e2.eps0),
                   tag=tag or f"({e.tag}+{r.tag}*{e2.tag})")


# ======================================================================
# vb-homomorphism checks and evaluation
# ======================================================================


def matrix_gap_series(u: VBHomNet, v: Optional[VBHomNet], L: CompactRegion,
                      grid: EpsGrid, k_max: int, L_prime: Optional[dict],
                      cfg: Config = DEFAULT_CONFIG) -> dict:
    """Chart-pair-wise sups of matrix-part derivative norms (or differences
    when v is given), orders 0..k_max, with the usual L' exclusion."""

    def pieces(eps, cid):
        loc_u = u.locals_at(eps)
        loc_v = v.locals_at(eps) if v is not None else None
        for (a, b) in sorted(loc_u):
            if a != cid or (loc_v is not None and (a, b) not in loc_v):
                continue
            pu = loc_u[(a, b)]
            if loc_v is None:
                yield b, lambda x, m=pu.matrix: m.derivs_upto(x, k_max)
            else:
                pv = loc_v[(a, b)]
                yield b, _gap_tensors(pu.matrix, pv.matrix, k_max)

    what = u.tag if v is None else f"{u.tag}-{v.tag}"
    nets = (u.base_net,) if v is None else (u.base_net, v.base_net)
    return _chart_sups(nets, L, grid, k_max, L_prime, pieces,
                       lambda pi, a, b, k: f"|D^{k} mat({what})| L[{pi}] {a}->{b}", cfg)


def check_vbhom_moderate(u: VBHomNet, L: CompactRegion,
                         grid: Optional[EpsGrid] = None,
                         k_max: Optional[int] = None,
                         cfg: Config = DEFAULT_CONFIG) -> Verdict:
    """Moderateness of a vb-homomorphism net: moderate base plus O(eps^-N)
    matrix-part derivatives on admissible samples."""
    grid = grid or cfg.grid()
    k_max = cfg.k_max if k_max is None else k_max
    base_rep = check_cbounded(u.base_net, L, grid, cfg)
    base_v = check_moderate(u.base_net, L, grid, k_max, cfg, cbounded=base_rep)
    parts = {"base": base_v}
    L_prime = _l_prime_of(base_rep)
    for (pi, a, b, k), s in sorted(matrix_gap_series(u, None, L, grid, k_max,
                                                     L_prime, cfg).items()):
        parts[f"mat k={k}|L[{pi}]|{a}->{b}"] = judge_moderate(s, cfg.n_cap, cfg.r2_min)
    return conjunction(parts, notes=f"vb-moderateness of {u.tag}")


def check_vbhom_equiv(u: VBHomNet, v: VBHomNet, L: CompactRegion,
                      grid: Optional[EpsGrid] = None,
                      k_max: Optional[int] = None, order0: bool = False,
                      cfg: Config = DEFAULT_CONFIG) -> Verdict:
    """vb-equivalence: equivalent bases plus negligible matrix-part
    differences (orders 0..k_max, or order 0 only for the order-0 variant)."""
    grid = grid or cfg.grid()
    k_max = cfg.k_max if k_max is None else k_max
    if order0:
        base_v = check_equiv0(u.base_net, v.base_net, L, None, grid, cfg)
        k_top = 0
    else:
        base_v = check_equiv(u.base_net, v.base_net, [L], grid, k_max, cfg)
        k_top = k_max
    parts = {"base": base_v}
    L_prime = _merge_l_prime(check_cbounded(u.base_net, L, grid, cfg),
                             check_cbounded(v.base_net, L, grid, cfg))
    for (pi, a, b, k), s in sorted(matrix_gap_series(u, v, L, grid, k_top,
                                                     L_prime, cfg).items()):
        parts[f"mat k={k}|L[{pi}]|{a}->{b}"] = judge_negligible(
            s, cfg.m_probe, cfg.r2_min, floor=cfg.zero_tol)
    return conjunction(parts, notes=f"vb-equivalence of {u.tag} and {v.tag}")


def vbhom_eval(v: VBHomNet, e: VBPoint, grid: Optional[EpsGrid] = None,
               cfg: Config = DEFAULT_CONFIG) -> VBPoint:
    """Apply a vb-homomorphism net to a vb-point.

    Requires the base net to satisfy the single-target-chart condition on
    the point's support (the hypothesis that makes the value well-defined).
    """
    grid = grid or cfg.grid()
    sc = check_single_chart(v.base_net, e.support, grid, cfg)
    if sc.status is not Status.PASS:
        raise SingleChartMissing(
            f"base of {v.tag!r} fails the single-chart condition on support of {e.tag!r}")
    rep = check_cbounded(v.base_net, e.support, grid, cfg)
    support = rep.K_image if rep.K_image is not None else e.support
    return VBPoint(v.dst, lambda eps: v.eval(eps, e.at(eps)), support,
                   eps0=min(e.eps0, rep.eps0), tag=f"{v.tag}({e.tag})")


def section_eval(s: SectionNet, p: GenPoint, grid: Optional[EpsGrid] = None,
                 cfg: Config = DEFAULT_CONFIG) -> VBPoint:
    """Evaluate a section net at a generalized point: eps -> s_eps(p_eps)."""
    return VBPoint(s.bundle, lambda eps: s.element_at(eps, p.at(eps)),
                   p.support, p.eps0, tag=f"{s.tag}({p.tag})")


def section_zero_witness(s: SectionNet, K: CompactRegion,
                         grid: Optional[EpsGrid] = None, trials: int = 0,
                         cfg: Config = DEFAULT_CONFIG) -> Optional[GenPoint]:
    """Witness point where a non-negligible section stays away from zero.

    Returns None when the fiber-norm sup series is negligible; otherwise the
    per-eps argmax net (piecewise constant in eps), along which evaluation
    fails the zero test.
    """
    grid = grid or cfg.grid()
    ser, norms, pts = _section_norm_sweep(s, K, grid, cfg, trials)
    v = judge_negligible(ser, cfg.m_probe, cfg.r2_min, floor=cfg.zero_tol)
    if v.status is Status.PASS:
        return None
    return argmax_net(s.bundle.base, K, pts, grid, lambda eps, p: norms[eps, id(p)],
                      tag=f"zero-witness({s.tag})")


def tangent_norm_series(u: MapNet, K: CompactRegion, grid: Optional[EpsGrid] = None,
                        cfg: Config = DEFAULT_CONFIG) -> SupSeries:
    """sup over K of the metric operator norm of the pointwise tangent map.

    The norm is taken between the source and target Riemannian metrics; its
    growth order matches the chart-wise first-derivative order.
    """
    grid = grid or cfg.grid()
    if u.src.metric is None or u.dst.metric is None:
        raise ValueError("tangent_norm_series needs metrics on both atlases")
    lattices = K.lattices()

    def samples(eps):
        sm = u.at(eps)
        for cid, lat in lattices:
            for x in lat:
                p = Point(cid, x)
                cands = sm.eval_candidates(p)
                if cands:  # the chart pair u.eval takes
                    b, y, _m, a = cands[0]
                    xa = u.src.rechart(p, a)
                    yield None, riemannian_operator_norm(
                        sm.locals[(a, b)].jacobian(xa), u.src.metric.at(a, xa),
                        u.dst.metric.at(b, y)), p

    return sweep_sups(grid, samples, cfg.zero_tol,
                      lambda _key: f"sup |T {u.tag}|_g,h on K")[None]


# ======================================================================
# Tensor sections and pointwise insertion
# ======================================================================


class TensorSectionNet:
    """eps-net of (r,s)-tensor fields over an atlas, chart-wise coefficients.

    Coefficient arrays carry the r contravariant axes first, then the s
    covariant axes.  One-forms are (0,1), vector fields (1,0).
    """

    def __init__(self, atlas: Atlas, r: int, s: int,
                 coeff_factory: Callable[[float], dict], tag: str = ""):
        if r < 0 or s < 0 or r + s > 4:
            raise TypeMismatch("tensor type (r,s) must satisfy r,s >= 0, r+s <= 4")
        self.atlas = atlas
        self.r = r
        self.s = s
        self.coeff_factory = coeff_factory
        self.coeffs_at = functools.cache(coeff_factory)  # eps -> coefficient table
        self.tag = tag

    def value_at(self, eps: float, chart: str, x: np.ndarray) -> np.ndarray:
        fld = self.coeffs_at(eps)[chart]
        dim = self.atlas.chart(chart).dim
        return np.asarray(fld(x), dtype=float).reshape((dim,) * (self.r + self.s))


def tensor_insert(s: TensorSectionNet, omegas: list, xis: list, p: GenPoint,
                  grid: Optional[EpsGrid] = None,
                  cfg: Config = DEFAULT_CONFIG) -> GenNumber:
    """Full contraction s(omega_1..omega_r, xi_1..xi_s) evaluated at p.

    The headline property (the value depends only on the argument values at
    p) is exercised by the test suite; here the contraction is computed per
    eps in a chart containing p_eps.
    """
    if len(omegas) != s.r or len(xis) != s.s:
        raise TypeMismatch(
            f"type ({s.r},{s.s}) tensor takes {s.r} one-forms and {s.s} vector fields")
    for w in omegas:
        if (w.r, w.s) != (0, 1):
            raise TypeMismatch("one-form arguments must be (0,1) tensor nets")
    for xi in xis:
        if (xi.r, xi.s) != (1, 0):
            raise TypeMismatch("vector-field arguments must be (1,0) tensor nets")

    def value(eps: float) -> float:
        nets = [s, *omegas, *xis]
        for cid, x, _m in s.atlas.representations(p.at(eps)):
            if all(cid in net.coeffs_at(eps) for net in nets):
                T = s.value_at(eps, cid, x)
                for w in omegas:
                    T = np.tensordot(w.value_at(eps, cid, x), T, axes=(0, 0))
                for xi in xis:
                    T = np.tensordot(xi.value_at(eps, cid, x), T, axes=(0, 0))
                return float(T)
        raise NoSharedChart(f"arguments share no chart at {p.at(eps)}")

    out = GenNumber(value, tag=f"{s.tag}(...)({p.tag})")
    out.record_moderate(grid or cfg.grid(), cfg)
    return out
