"""Generalized vector-bundle homomorphisms, sections, and bundle points.

A vb-homomorphism net is its base map net plus matrix fields, so linearity
over the fibers is structural rather than checked.  The tangent map T(u) of
a map net u has u itself as its base net, and the Jacobian fields of u's
representatives as its matrix fields: its checks read u's image tables and,
for a net with eps columns, take the matrix parts at u's eps columns too.
A vb-point is a ``GenPoint`` of the bundle's base, read as its base column.
Its fibers, point evaluation of sections and homomorphisms, the module
structure on bundle points over a fixed generalized base point, and
pointwise tensor insertion reduce to per-eps chart algebra plus the
asymptotic judges.

``vbhom_compose`` is ``compose`` on the base nets plus the matrix products
along the routes the base points take, one stacked product per route, each
differentiated along its route.
``u.eval`` and ``VBHomNet.eval`` take the chart pair of
``SmoothMap.best_image``, the rule of ``manifold.best_candidates`` (largest
margin, then the smaller target chart, then the smaller source chart), by
which ``tangent_norm_series`` reads it in u's image table too.
"""

from __future__ import annotations

import functools
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
    sweep_stacks,
)
from .config import DEFAULT_CONFIG, Config
from .errors import BaseMismatch, NoSharedChart, SingleChartMissing, TypeMismatch
from .gmap import (
    ChainedLocalMap,
    MapNet,
    check_cbounded,
    check_equiv,
    check_equiv0,
    check_moderate,
    check_single_chart,
    compose,
    sample_points,
    _chart_sups,
    _eps_rows,
    _GapMap,
    _merge_l_prime,
)
from .gpoints import GenNumber, GenPoint, _image_support, argmax_net, points_equal
from .manifold import (
    Atlas,
    BundleElement,
    CompactRegion,
    LocalMap,
    Point,
    PointStack,
    VectorBundle,
    _StackMap,
    _constant,
    _identity,
    fiber_norm,
    riemannian_operator_norm,
    tangent_bundle,
    tensor_norm,
)


class VBHomNet:
    """eps-net of vector-bundle homomorphisms src -> dst: the map net
    ``base_net`` plus matrix fields, ``matrices_at(eps)`` -> {(a, b): LocalMap
    of out_shape (m', n'), argument in chart-a coords} for the representatives
    (a, b) of ``base_net.at(eps)``, at an eps column whenever it takes one."""

    def __init__(self, src: VectorBundle, dst: VectorBundle, base_net: MapNet,
                 matrices_at: Callable, tag: str = ""):
        self.src = src
        self.dst = dst
        self.base_net = base_net
        self.matrices_at = matrices_at
        self.tag = tag

    def eval(self, eps: float, e: BundleElement) -> BundleElement:
        """Apply the eps-slice to a bundle element, in the chart pair the base
        map evaluates by (``SmoothMap.best_image``)."""
        best = self.base_net.at(eps).best_image(e.base)
        if best is None:
            raise NoSharedChart(f"{self.tag!r} has no chart pair applying to {e}")
        b, y, a = best
        ea = self.src.rechart(e, a)
        M = np.asarray(self.matrices_at(eps)[(a, b)](ea.x), dtype=float)
        return BundleElement(b, y, M @ ea.xi)


def identity_vbhom(bundle: VectorBundle, tag: str = "id") -> VBHomNet:
    atlas, k = bundle.base, bundle.fiber_dim
    base, mats = {}, {}
    for cid in atlas.chart_ids:
        n = atlas.chart(cid).dim
        base[cid, cid] = _identity(n, "id")
        mats[cid, cid] = _constant(n, np.eye(k), "Id")
    return VBHomNet(bundle, bundle, MapNet(atlas, atlas, lambda eps: base, tag=f"base({tag})"),
                    lambda eps: mats, tag=tag)


def tangent(u: MapNet, tag: str = "") -> VBHomNet:
    """Tangent map of a map net: the base net is u itself, and the matrix
    parts are the Jacobian fields of u's representatives (exact through the
    derivative oracle), at a float eps or at one of u's eps columns."""

    def matrices_at(eps) -> dict:
        return {pair: rep.derivative_map() for pair, rep in u.at(eps).locals.items()}

    return VBHomNet(tangent_bundle(u.src), tangent_bundle(u.dst), u, matrices_at,
                    tag=tag or f"T({u.tag})")


def vbhom_compose(v2: VBHomNet, v1: VBHomNet, tag: str = "") -> VBHomNet:
    """Composite vb-homomorphism net: the base net is
    ``compose(v2.base_net, v1.base_net)``, and the matrix part at x is
    M2(y) @ M1(x) along the route (middle chart, point y) x's base takes: a
    ``ChainedLocalMap`` over the base's routes whose route maps are those
    products (``_matrix_chain``), at the base's eps columns too.  Raises
    ChartMismatch, as compose does, when the bases do not chain."""
    base = compose(v2.base_net, v1.base_net)

    def matrices_at(eps) -> dict:
        mats1, mats2, out = v1.matrices_at(eps), v2.matrices_at(eps), {}
        for (a, c), chained in base.at(eps).locals.items():
            maps = [_matrix_chain(inner, mats1[a, mid.id], mats2[mid.id, c], chained.eps_column)
                    for mid, inner, _outer in chained.routes]
            out[a, c] = ChainedLocalMap(chained.routes, chained.in_dim, maps[0].out_shape,
                                        name=f"mat({chained.name})", maps=maps)
        return out

    return VBHomNet(v1.src, v2.dst, base, matrices_at, tag=tag or f"{v2.tag}o{v1.tag}")


def _matrix_chain(inner: LocalMap, m1: LocalMap, m2: LocalMap, eps_column) -> _StackMap:
    """M2(inner(x)) @ M1(x) at each row x of a stack, one stacked product."""
    return _StackMap(m1.in_dim, (m2.out_shape[0], m1.out_shape[1]),
                     lambda P: m2._values(inner._values(P)) @ m1._values(P),
                     name=f"{m2.name}.{m1.name}", eps_column=eps_column)


# ======================================================================
# Sections
# ======================================================================


class SectionNet:
    """eps-net of bundle sections, one coefficient field per vb-chart."""

    def __init__(self, bundle: VectorBundle, coeff_factory: Callable[[float], dict],
                 tag: str = ""):
        self.bundle = bundle
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
    """(sup series, norms, sample points) of the section's fiber norms:
    ``norms`` is the (eps, sample point) array, each norm taken once."""
    pts = sample_points(K, trials, cfg.seed)
    norms = np.array([[fiber_norm(s.bundle, s.element_at(eps, p)) for p in pts]
                      for eps in grid.values()])
    stack = (None, np.repeat(np.arange(len(grid)), len(pts)), norms.ravel(),
             lambda i: pts[i % len(pts)])
    return sweep_stacks(grid, [stack], cfg.zero_tol,
                        lambda _key: f"sup |{s.tag}|_h on K")[None], norms, pts


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
    eps_vals = grid.values()

    def stacks():
        for pi, (cid, lat) in enumerate(K.lattices()):
            flds = [s.coeffs_at(eps).get(cid) for eps in eps_vals]
            ts = [None if fld is None else fld.derivs_upto(lat, k_max) for fld in flds]
            for k in range(1, k_max + 1):  # every piece is judged, if only on zeros
                norms = [np.zeros(1) if t is None else tensor_norm(t[k], k) for t in ts]
                eis = np.repeat(np.arange(len(eps_vals)), [len(n) for n in norms])
                yield (pi, cid, k), eis, np.concatenate(norms), lambda _i: None

    series = sweep_stacks(grid, stacks(), cfg.zero_tol,
                          lambda key: f"|D^{key[2]} coeffs| K[{key[0]}] {key[1]} of {s.tag}")
    for (pi, cid, k), ser in sorted(series.items()):
        parts[f"k={k}|K[{pi}]|{cid}"] = judge_moderate(ser, cfg.n_cap, cfg.r2_min)
    return conjunction(parts, notes=f"section moderateness of {s.tag}")


# ======================================================================
# vb-points
# ======================================================================


class VBPoint(GenPoint):
    """eps-net of bundle elements: a ``GenPoint`` of ``bundle.base`` (an element
    reads as its base point), built by GenPoint's constructors with the bundle
    for the atlas; the fibers' growth is recorded, never enforced."""

    def __init__(self, bundle: VectorBundle, at: Callable[[float], BundleElement],
                 support: CompactRegion, eps0: float = 1.0, tag: str = ""):
        super().__init__(bundle.base, at, support, eps0, tag)
        self.bundle = bundle

    def norm_series(self, grid: EpsGrid, cfg: Config = DEFAULT_CONFIG) -> SupSeries:
        norms = np.array([fiber_norm(self.bundle, self.at(e)) for e in grid.values()])
        return sweep_stacks(grid, [(None, np.arange(len(grid)), norms, lambda _i: None)],
                            cfg.zero_tol, lambda _key: f"|{self.tag}|_h")[None]

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
    differences wherever the bases co-locate in a vb-chart.  Each element is
    read once per grid eps: the fibers are those the base columns read."""
    grid = grid or cfg.grid()
    base_v = points_equal(e, e2, grid=grid, cfg=cfg)  # raises where an ``at`` raised

    eis, gaps = [], []  # over the elements that the base columns read
    for ei, (a, b) in enumerate(zip(e._read[grid], e2._read[grid])):
        pair = _common_chart_pair(e.bundle, a, b)
        if pair is not None:  # else an excluded sample (empty-sup convention)
            _m, _cid, r1, r2 = pair
            eis.append(ei)
            gaps.append(np.max(np.abs(r1.xi - r2.xi)))
    stacks = [(None, np.array(eis), np.array(gaps), lambda _i: None)] if eis else []
    gap = sweep_stacks(grid, stacks, cfg.zero_tol,
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
        mats_v = v.matrices_at(eps) if v is not None else None
        return {b: mu if mats_v is None else _GapMap(mu, mats_v[a, b])
                for (a, b), mu in u.matrices_at(eps).items()
                if a == cid and (mats_v is None or (a, b) in mats_v)}

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
    L_prime = _merge_l_prime(base_rep)
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
    the point's support (the hypothesis that makes the value well-defined),
    and c-boundedness there, as ``eval_at`` does: the value's support is the image.
    """
    grid = grid or cfg.grid()
    sc = check_single_chart(v.base_net, e.support, grid, cfg)
    if sc.status is not Status.PASS:
        raise SingleChartMissing(
            f"base of {v.tag!r} fails the single-chart condition on support of {e.tag!r}")
    rep = _image_support(v.base_net, e, grid, cfg)
    return VBPoint(v.dst, lambda eps: v.eval(eps, e.at(eps)), rep.K_image,
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
    return argmax_net(s.bundle.base, K, pts, grid, norms, tag=f"zero-witness({s.tag})")


def tangent_norm_series(u: MapNet, K: CompactRegion, grid: Optional[EpsGrid] = None,
                        cfg: Config = DEFAULT_CONFIG) -> SupSeries:
    """sup over K of the metric operator norm of the pointwise tangent map.

    The norm is taken between the source and target Riemannian metrics; its
    growth order matches the chart-wise first-derivative order.  Each (eps,
    point) row takes the chart pair of ``u.eval`` from u's image table, with one
    stacked Jacobian per chart pair (``_eps_rows``), one stacked call of each
    metric field and one stacked operator norm; escaped rows are left out.
    """
    grid = grid or cfg.grid()
    if u.src.metric is None or u.dst.metric is None:
        raise ValueError("tangent_norm_series needs metrics on both atlases")
    table = u.image_table(K, grid)
    pts = sample_points(K)
    norms = np.empty(table.chart.shape)
    stack = PointStack.of(u.src, pts)
    for ai, a in enumerate(u.src.chart_ids):
        Xa = stack.rechart(a)
        for c, b in enumerate(table.charts):
            eis, pis = np.nonzero((table.source == ai) & (table.chart == c))
            if not len(eis):
                continue
            X, Y = Xa[pis], table.coords[eis, pis, c, :table.dims[c]]
            rows, J = zip(*_eps_rows((u,), grid.values(), eis,
                                     lambda eps, rows: u.at(eps).locals[a, b].jacobian(X[rows])))
            rows = np.concatenate(rows)
            norms[eis[rows], pis[rows]] = riemannian_operator_norm(
                np.concatenate(J), u.src.metric.at(a, X[rows]), u.dst.metric.at(b, Y[rows]))
    eis, pis = np.nonzero(table.chart >= 0)
    stack = (None, eis, norms[eis, pis], lambda i: pts[pis[i]])
    return sweep_stacks(grid, [stack], cfg.zero_tol,
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
    eps in the best chart containing p_eps (``p.at``) where every argument has
    coefficients.  It is computed once per grid eps, in grid order, so the
    first failing grid eps raises here; the returned number reads those values
    and computes only off-grid eps.
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

    grid = grid or cfg.grid()
    nets = [s, *omegas, *xis]

    def value(eps: float) -> float:
        q = p.at(eps)
        for cid, x, _m in s.atlas.representations(q):
            if all(cid in net.coeffs_at(eps) for net in nets):
                T = s.value_at(eps, cid, x)
                for arg in nets[1:]:
                    T = np.tensordot(arg.value_at(eps, cid, x), T, axes=(0, 0))
                return float(T)
        raise NoSharedChart(f"arguments share no chart at {q}")

    at_grid = {eps: value(eps) for eps in grid.values().tolist()}
    out = GenNumber(lambda eps: at_grid[eps] if eps in at_grid else value(eps),
                    tag=f"{s.tag}(...)({p.tag})")
    out.record_moderate(grid, cfg)
    return out
