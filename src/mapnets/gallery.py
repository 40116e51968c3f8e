"""Curated gallery of nets with expected verdicts, plus the named-object registry.

Each entry reconstructs a known example (counterexamples that motivated the
c-boundedness and chart-growth clauses, the circle-valued jump, the winding
net that defeats the single-chart condition, families of negligible and
non-negligible perturbations) and self-checks against its expected verdicts.
``gallery_run_all`` is the integration test: exit code 0 iff all match.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import jets
from .asymptotics import Verdict, judge_moderate
from .config import DEFAULT_CONFIG, Config
from .errors import SpecError, expect_object
from .exprs import build_expr
from .gmap import (
    MapNet,
    angle_net,
    check_cbounded,
    check_equiv,
    check_equiv0,
    check_moderate,
    check_single_chart,
    compose,
    derivative_sup_series,
    embed_smooth,
    scalar_net,
)
from .gpoints import GenPoint, eval_at, points_equal, separate_by_points
from .manifold import (
    Atlas,
    Box,
    CompactRegion,
    LocalMap,
    Point,
    SmoothMap,
    circle_atlas,
    disjoint_union,
    euclidean_atlas,
    region_box,
    sphere_atlas,
)
from .vbundle import (
    TensorSectionNet,
    check_vbhom_moderate,
    tangent,
    tensor_insert,
    vbhom_compose,
)

# ======================================================================
# Named objects: JSON descriptions and the registry
# ======================================================================


class SpecEnv:
    """Atlases, nets, regions and points built from a JSON description.

    Each object is built on first lookup and kept, so nets share atlas
    instances; a name the description does not declare resolves through
    ``parent``.  Unless ``lazy``, every declared entry is built up front, in
    file order.  A malformed section or entry is a SpecError at ``<section>``
    or ``<section>.<name>``.
    """

    # section -> (noun, location of the unknown-name error)
    SECTIONS = {"atlases": ("atlas", "atlas"), "nets": ("net", "net"),
                "regions": ("region", "region"), "points": ("point", "points")}

    def __init__(self, spec: dict, parent: Optional["SpecEnv"] = None, lazy: bool = False):
        spec = expect_object(spec, "spec")
        self.spec = {sec: {name: expect_object(entry, f"{sec}.{name}") for name, entry
                           in expect_object(spec.get(sec, {}), sec).items()}
                     for sec in self.SECTIONS}
        self.parent = parent
        self.objects = {sec: {} for sec in self.SECTIONS}
        if not lazy:
            for sec, entries in self.spec.items():
                for name in entries:
                    self.lookup(sec, name)

    def lookup(self, section: str, name: str):
        """The object ``name`` of ``section``: built here, or the parent's."""
        objects, (noun, where) = self.objects[section], self.SECTIONS[section]
        if name in objects:
            return objects[name]
        if name in self.spec[section]:
            try:
                objects[name] = getattr(self, "_build_" + noun)(name, self.spec[section][name])
            except (KeyError, TypeError, ValueError, IndexError) as exc:
                raise SpecError(f"bad {noun}: {exc}", f"{section}.{name}") from exc
            return objects[name]
        if self.parent is not None:
            return self.parent.lookup(section, name)
        raise SpecError(f"unknown {noun} {name!r}", where)

    def atlas(self, name: str) -> Atlas:
        return self.lookup("atlases", name)

    def net(self, name: str) -> MapNet:
        return self.lookup("nets", name)

    def region(self, name: str) -> CompactRegion:
        return self.lookup("regions", name)

    def point(self, name: str) -> GenPoint:
        return self.lookup("points", name)

    def _build_atlas(self, name: str, a: dict) -> Atlas:
        kind = a.get("builtin")
        if kind == "euclidean":
            return euclidean_atlas(a["bounds"], name=name)
        if kind == "circle":
            return circle_atlas(name=name)
        if kind == "sphere":
            return sphere_atlas(name=name)
        if kind == "union":
            where = f"atlases.{name}.parts"
            return disjoint_union(
                {k: self._build_atlas(f"{name}.{k}", expect_object(part, f"{where}.{k}"))
                 for k, part in expect_object(a["parts"], where).items()}, name=name)
        raise SpecError(f"unknown builtin {kind!r}", f"atlases.{name}")

    def _build_net(self, name: str, n: dict) -> MapNet:
        try:
            factory = build_expr(n.get("expr", "identity"))
        except SpecError as exc:
            raise SpecError(str(exc), f"nets.{name}") from exc
        src = self.atlas(n.get("src", "line"))
        kind = n.get("kind")
        if kind == "scalar":
            return scalar_net(src, self.atlas(n.get("dst", "line")), factory, tag=name)
        if kind == "circle_angle":
            return angle_net(src, self.atlas(n.get("dst", "circle")), factory, tag=name)
        raise SpecError(f"unknown net kind {kind!r}", f"nets.{name}")

    def _build_region(self, name: str, r: dict) -> CompactRegion:
        pieces = [(p["chart"], Box.of(p["box"])) for p in r["pieces"]]
        return CompactRegion(pieces, operator.index(r.get("lattice_density", 33)))

    def _build_point(self, name: str, p: dict) -> GenPoint:
        pt = Point(p["chart"], np.asarray(p["coords"], dtype=float))
        return GenPoint.constant(self.atlas(p["atlas"]), pt, pad=p.get("pad", 0.05), tag=name)


# The registered objects, as a description in the --spec format.
REGISTRY: dict = {
    "atlases": {
        "line": {"builtin": "euclidean", "bounds": [[-10.0, 10.0]]},
        "interval02": {"builtin": "euclidean", "bounds": [[0.0, 2.0]]},
        "halfline_exp": {"builtin": "euclidean", "bounds": [[math.exp(0.5), math.inf]]},
        "circle": {"builtin": "circle"},
        "sphere": {"builtin": "sphere"},
        "two_lines": {"builtin": "union", "parts": {
            "a": {"builtin": "euclidean", "bounds": [[-2.0, 2.0]]},
            "b": {"builtin": "euclidean", "bounds": [[-2.0, 2.0]]}}},
    },
    "nets": {
        "sigma_sin": {"kind": "scalar", "expr": "sin"},
        "sigma_tanh": {"kind": "scalar", "expr": "tanh"},
        "epsilon_into_0_2": {"kind": "scalar", "dst": "interval02", "expr": "eps_const"},
        "heaviside_tanh": {"kind": "scalar", "expr": "smoothed_step"},
        "s1_jump": {"kind": "circle_angle", "expr": "scaled_step_angle"},
        "winder": {"kind": "circle_angle", "expr": "winding"},
        "sin_plus_flat": {"kind": "scalar",
                          "expr": {"name": "plus_flat", "params": {"base": "sin"}}},
        "sin_plus_eps2": {"kind": "scalar", "expr": {
            "name": "plus_power", "params": {"base": "sin", "order": 2}}},
        "s1_jump_flat": {"kind": "circle_angle", "expr": {
            "name": "plus_flat", "params": {"base": "scaled_step_angle"}}},
        "s1_jump_eps_bump": {"kind": "circle_angle", "expr": {
            "name": "plus_power", "params": {"base": "scaled_step_angle", "order": 1,
                                             "shape": "bump", "center": 0.25, "width": 0.4}}},
    },
    "regions": {
        "K_unit": {"pieces": [{"chart": "e0", "box": [[-1.0, 1.0]]}]},
        "K_half": {"pieces": [{"chart": "e0", "box": [[0.0, 1.0]]}]},
    },
}

REGISTRY_ENV = SpecEnv(REGISTRY, lazy=True)


def get_atlas(name: str) -> Atlas:
    return REGISTRY_ENV.atlas(name)


def get_net(name: str) -> MapNet:
    return REGISTRY_ENV.net(name)


def get_region(name: str) -> CompactRegion:
    return REGISTRY_ENV.region(name)


def list_nets() -> list:
    return sorted(REGISTRY["nets"])


# ======================================================================
# Entries
# ======================================================================


@dataclass
class Expectation:
    label: str
    status: str
    slope_range: Optional[tuple] = None


@dataclass
class ResultRow:
    label: str
    status: str
    slope: Optional[float] = None
    notes: str = ""

    def as_record(self) -> dict:
        return {"label": self.label, "status": self.status,
                "slope": self.slope, "notes": self.notes}


@dataclass
class GalleryEntry:
    """A named construction with its expected verdicts (provenance-tagged in
    the test suite); running an entry reproduces them."""

    name: str
    description: str
    expected: list
    runner: Callable

    def run(self, cfg: Config = DEFAULT_CONFIG):
        return self.runner(cfg)

    def matches(self, rows: list) -> list:
        """Mismatch strings, empty when every expected row is reproduced."""
        got = {r.label: r for r in rows}
        bad = []
        for exp in self.expected:
            row = got.get(exp.label)
            if row is None:
                bad.append(f"{self.name}:{exp.label}: missing row")
                continue
            if row.status != exp.status:
                bad.append(f"{self.name}:{exp.label}: {row.status} != {exp.status}")
            if exp.slope_range is not None:
                lo, hi = exp.slope_range
                if row.slope is None or not (lo <= row.slope <= hi):
                    bad.append(
                        f"{self.name}:{exp.label}: slope {row.slope} outside [{lo},{hi}]")
        return bad


def _k_slope(verdict: Verdict, k: int) -> Optional[float]:
    """Most negative fitted slope among order-k sub-series of a check."""
    slopes = [v.estimate.slope for label, v in verdict.details.items()
              if label.startswith(f"k={k}|") and v.estimate is not None]
    return min(slopes) if slopes else None


def _row(label: str, verdict: Verdict, slope: Optional[float] = None) -> ResultRow:
    s = slope
    if s is None and verdict.estimate is not None:
        s = verdict.estimate.slope
    if s is not None and not math.isfinite(s):
        s = None
    return ResultRow(label, str(verdict.status), s)


def _net_checks(name: str, region: str = "K_unit", moderate: str = "",
                single_chart: str = "") -> Callable:
    """The runner of an entry that checks one net: c-boundedness, then
    ``moderate`` ("plain": its row and series; "slope": also the k=1 slope
    row, and every sub-series) and ``single_chart`` ("plain", or "notes":
    with the chart and eps0)."""

    def run(cfg: Config):
        u, K, grid = get_net(name), get_region(region), cfg.grid()
        rep = check_cbounded(u, K, grid, cfg)
        rows, series = [ResultRow("check-cbounded", str(rep.status))], {}
        if moderate:
            v = check_moderate(u, K, grid, cfg=cfg, cbounded=rep)
            rows.append(_row("check-moderate", v))
            if moderate == "slope":
                rows.append(ResultRow("moderate-k1-slope", str(v.status), _k_slope(v, 1)))
                series = {lbl.replace("|", "_"): sv.series for lbl, sv in v.details.items()
                          if sv.series is not None}
            elif v.series is not None:
                series["moderate"] = v.series
        if single_chart:
            sc = check_single_chart(u, K, grid, cfg)
            notes = f"chart={sc.chart} eps0={sc.eps0}" if single_chart == "notes" else ""
            rows.append(ResultRow("check-single-chart", str(sc.status), None, notes=notes))
        return rows, series

    return run


def _run_epsilon_into_0_2(cfg: Config):
    u = get_net("epsilon_into_0_2")
    K = get_region("K_unit")
    grid = cfg.grid()
    rows = []
    rep = check_cbounded(u, K, grid, cfg)
    rows.append(ResultRow("check-cbounded", str(rep.status)))
    # transformed by the range diffeomorphism y -> e^(1/y): growth e^(1/eps)
    psi = SmoothMap(get_atlas("interval02"), get_atlas("halfline_exp"),
                    {("e0", "e0"): LocalMap.from_expr(lambda y: jets.exp(1.0 / y),
                                                      name="exp_recip")},
                    name="exp_recip")
    transformed = compose(embed_smooth(psi, "exp_recip"), u, tag="transformed")
    sups = derivative_sup_series(transformed, K, grid, 0, None, cfg)
    merged = sups[min(sups)]  # images escaping every chart are excluded rows
    v = judge_moderate(merged, cfg.n_cap, cfg.r2_min)
    rows.append(_row("transformed-moderate", v))
    return rows, {"transformed_k0": merged, "margins": rep.margins}


def _run_negligible_perturbations(cfg: Config):
    grid = cfg.grid()
    K = get_region("K_unit")
    rows = []
    series = {}
    for label, u, v in [("equiv0-sin-flat", "sigma_sin", "sin_plus_flat"),
                        ("equiv-sin-flat", "sigma_sin", "sin_plus_flat"),
                        ("equiv0-sin-eps2", "sigma_sin", "sin_plus_eps2"),
                        ("equiv-jump-flat", "s1_jump", "s1_jump_flat"),
                        ("equiv-jump-eps-bump", "s1_jump", "s1_jump_eps_bump")]:
        if label.startswith("equiv0"):
            out = check_equiv0(get_net(u), get_net(v), K, None, grid, cfg)
            series[label.replace("-", "_")] = out.series
        else:
            out = check_equiv(get_net(u), get_net(v), [K], grid, cfg.k_max, cfg)
        rows.append(_row(label, out))
    return rows, series


def _run_point_nets(cfg: Config):
    grid = cfg.grid()
    line = get_atlas("line")
    rows = []
    zero = GenPoint.constant(line, Point("e0", [0.0]), tag="p0")
    support = region_box("e0", [-0.5], [0.5])
    flat = GenPoint.from_fn(line, lambda eps: Point("e0", [math.exp(-1.0 / eps)]),
                            support, tag="p_flat")
    p_eps2 = GenPoint.from_fn(line, lambda eps: Point("e0", [eps**2]), support,
                              tag="p_eps2")
    rows.append(_row("points-equal-flat", points_equal(zero, flat, grid=grid, cfg=cfg)))
    rows.append(_row("points-equal-eps2", points_equal(zero, p_eps2, grid=grid, cfg=cfg)))
    u = get_net("sigma_sin")
    p1 = GenPoint.from_fn(line, lambda eps: Point("e0", [1.0 + math.exp(-1.0 / eps)]),
                          region_box("e0", [0.5], [1.5]), tag="p1_flat")
    q1 = GenPoint.constant(line, Point("e0", [math.sin(1.0)]), tag="sin1")
    rows.append(_row("eval-flat-shift",
                     points_equal(eval_at(u, p1, grid, cfg), q1, grid=grid, cfg=cfg)))
    p2 = GenPoint.from_fn(line, lambda eps: Point("e0", [1.0 + eps]),
                          region_box("e0", [0.5], [1.5]), tag="p1_eps")
    rows.append(_row("eval-eps-shift",
                     points_equal(eval_at(u, p2, grid, cfg), q1, grid=grid, cfg=cfg)))
    w = separate_by_points(get_net("sigma_sin"), get_net("sin_plus_eps2"),
                           get_region("K_unit"), grid, 0, cfg)
    rows.append(ResultRow("witness-found", "Pass" if w is not None else "Fail"))
    w2 = separate_by_points(get_net("sigma_sin"), get_net("sin_plus_flat"),
                            get_region("K_unit"), grid, 0, cfg)
    rows.append(ResultRow("witness-absent", "Pass" if w2 is None else "Fail"))
    return rows, {}


def _run_tangent_bundle(cfg: Config):
    grid = cfg.grid()
    K = get_region("K_unit")
    rows = []
    tu = tangent(get_net("sigma_sin"))
    M = tu.matrices_at(0.25)[("e0", "e0")](np.array([0.3]))
    ok = abs(float(M[0, 0]) - math.cos(0.3)) <= 1e-8
    rows.append(ResultRow("tangent-matrix-value", "Pass" if ok else "Fail"))
    vj = check_vbhom_moderate(tangent(get_net("s1_jump")), K, grid, cfg.k_max, cfg)
    rows.append(_row("vb-moderate-jump", vj))
    mat_slopes = [v.estimate.slope for lbl, v in vj.details.items()
                  if lbl.startswith("mat k=0") and v.estimate is not None]
    rows.append(ResultRow("jump-matrix-k0-slope", str(vj.status),
                          min(mat_slopes) if mat_slopes else None))
    f = get_net("sigma_tanh")
    g = get_net("sigma_sin")
    composite = compose(g, f, tag="sin_o_tanh")
    t_direct = tangent(composite)
    t_chain = vbhom_compose(tangent(g), tangent(f))
    m_direct, m_chain = (t.matrices_at(0.5)[("e0", "e0")] for t in (t_direct, t_chain))
    X = np.linspace(-1, 1, 41)[:, None]
    worst = float(np.max(np.abs(m_direct.try_call(X) - m_chain.try_call(X))))
    rows.append(ResultRow("chain-rule-agreement", "Pass" if worst <= 1e-6 else "Fail",
                          notes=f"max gap {worst:.2e}"))
    return rows, {}


def _run_tensor_insertion(cfg: Config):
    grid = cfg.grid()
    line = get_atlas("line")
    rows = []

    def const_field(value):
        return lambda eps: {"e0": LocalMap(1, (1,), fn=lambda x: np.array([value]))}

    metric_like = TensorSectionNet(line, 0, 2,
                                   lambda eps: {"e0": LocalMap(1, (1, 1),
                                                               fn=lambda x: np.eye(1))},
                                   tag="dx@dx")
    dx = TensorSectionNet(line, 0, 1, const_field(1.0), tag="dx")
    ddx = TensorSectionNet(line, 1, 0, const_field(1.0), tag="d/dx")
    p = GenPoint.constant(line, Point("e0", [0.3]), tag="p")
    val = tensor_insert(metric_like, [], [ddx, ddx], p, grid, cfg)
    ok = all(abs(val(e) - 1.0) <= 1e-12 for e in grid.values())
    rows.append(ResultRow("metric-insert-one", "Pass" if ok else "Fail"))
    f_field = TensorSectionNet(
        line, 1, 0,
        lambda eps: {"e0": LocalMap.from_expr(lambda t: jets.sin(t), name="sin*d/dx")},
        tag="sin*d/dx")
    val2 = tensor_insert(dx, [], [f_field], p, grid, cfg)
    ok2 = all(abs(val2(e) - math.sin(0.3)) <= 1e-12 for e in grid.values())
    rows.append(ResultRow("insert-evaluates-field", "Pass" if ok2 else "Fail"))
    # arguments agreeing at p (difference vanishing like e^(-1/eps)) give
    # equal generalized numbers
    def shifted(eps):
        amp = math.exp(-1.0 / eps) if eps < 0.5 else 0.0
        return {"e0": LocalMap.from_expr(
            lambda t, a=amp: jets.sin(t) + a * (t - 0.3 + 1.0), name="shifted")}

    f2 = TensorSectionNet(line, 1, 0, shifted, tag="sin*d/dx+flat")
    val3 = tensor_insert(dx, [], [f2], p, grid, cfg)
    from .gpoints import gennumbers_equal

    v = gennumbers_equal(val2, val3, grid, cfg)
    rows.append(_row("pointwise-dependence", v))
    return rows, {}


GALLERY: list = [
    GalleryEntry(
        "sigma_sin", "eps-constant embedding of sin; moderate with N=0",
        [Expectation("check-cbounded", "Pass"),
         Expectation("check-moderate", "Pass"),
         Expectation("check-single-chart", "Pass")],
        _net_checks("sigma_sin", moderate="plain", single_chart="plain")),
    GalleryEntry(
        "epsilon_into_0_2",
        "constant-at-eps net into (0,2); escapes the boundary, and the "
        "range diffeomorphism e^(1/y) wrecks naive chart growth",
        [Expectation("check-cbounded", "Fail"),
         Expectation("transformed-moderate", "Fail", slope_range=(-math.inf, -50.0))],
        _run_epsilon_into_0_2),
    GalleryEntry(
        "heaviside_tanh", "smoothed step profile; first-derivative slope -1",
        [Expectation("check-cbounded", "Pass"),
         Expectation("check-moderate", "Pass"),
         Expectation("moderate-k1-slope", "Pass", slope_range=(-1.1, -0.9))],
        _net_checks("heaviside_tanh", moderate="slope")),
    GalleryEntry(
        "s1_jump", "circle-valued jump net; moderate, single-chart on [-1,1]",
        [Expectation("check-cbounded", "Pass"),
         Expectation("check-moderate", "Pass"),
         Expectation("moderate-k1-slope", "Pass", slope_range=(-1.1, -0.9)),
         Expectation("check-single-chart", "Pass")],
        _net_checks("s1_jump", moderate="slope", single_chart="notes")),
    GalleryEntry(
        "winder", "winding net covers the circle; fails single-chart",
        [Expectation("check-cbounded", "Pass"),
         Expectation("check-single-chart", "Fail")],
        _net_checks("winder", region="K_half", single_chart="plain")),
    GalleryEntry(
        "negligible_perturbations",
        "additive defects: faster-than-every-power pass, power-law fail",
        [Expectation("equiv0-sin-flat", "Pass"),
         Expectation("equiv-sin-flat", "Pass"),
         Expectation("equiv0-sin-eps2", "Fail"),
         Expectation("equiv-jump-flat", "Pass"),
         Expectation("equiv-jump-eps-bump", "Fail")],
        _run_negligible_perturbations),
    GalleryEntry(
        "point_nets", "generalized point equality, evaluation, witnesses",
        [Expectation("points-equal-flat", "Pass"),
         Expectation("points-equal-eps2", "Fail"),
         Expectation("eval-flat-shift", "Pass"),
         Expectation("eval-eps-shift", "Fail"),
         Expectation("witness-found", "Pass"),
         Expectation("witness-absent", "Pass")],
        _run_point_nets),
    GalleryEntry(
        "tangent_bundle", "tangent maps: values, growth, chain rule",
        [Expectation("tangent-matrix-value", "Pass"),
         Expectation("vb-moderate-jump", "Pass"),
         Expectation("jump-matrix-k0-slope", "Pass", slope_range=(-1.15, -0.85)),
         Expectation("chain-rule-agreement", "Pass")],
        _run_tangent_bundle),
    GalleryEntry(
        "tensor_insertion", "pointwise tensor contraction at generalized points",
        [Expectation("metric-insert-one", "Pass"),
         Expectation("insert-evaluates-field", "Pass"),
         Expectation("pointwise-dependence", "Pass")],
        _run_tensor_insertion),
]


def get_entry(name: str) -> GalleryEntry:
    for e in GALLERY:
        if e.name == name:
            return e
    raise SpecError(f"unknown gallery entry {name!r}", "gallery")


def gallery_run_all(cfg: Config = DEFAULT_CONFIG):
    """Run every entry; returns (summary rows, mismatches, series by entry)."""
    summary = []
    mismatches = []
    all_series = {}
    for entry in GALLERY:
        rows, series = entry.run(cfg)
        bad = entry.matches(rows)
        mismatches.extend(bad)
        summary.append({"entry": entry.name,
                        "rows": [r.as_record() for r in rows],
                        "ok": not bad})
        all_series[entry.name] = series
    return summary, mismatches, all_series
