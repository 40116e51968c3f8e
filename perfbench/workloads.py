"""The benchmark's workloads: known-answer verdict calls against mapnets.

A workload is built from a freshly imported package and a seed.  It is a list
of ``Call``s; each call is one top-level public mapnets call and yields one
or more verdict rows, each compared with an answer written by hand.  The
answers for ``fd_2d`` and ``sphere_images`` follow from the closed forms
noted beside each net, never from a mapnets run.

Row outcomes: ``correct`` (decisive and right), ``undecided`` (Inconclusive:
the honest third state), ``failed`` (decisive and wrong, or the call
raised).
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


@dataclass
class Row:
    label: str
    status: str
    record: str  # canonical JSON, compared byte for byte across passes
    outcome: str  # correct | undecided | failed
    latency: Optional[float] = None  # None: the latency of the whole call


@dataclass
class Call:
    label: str
    thunk: Callable[[], object]
    expand: Callable[[object], list]  # result -> [Row]
    labels: list  # row labels, used when the call raises


# Rows whose hand-written answer the baseline program gets wrong.  They count
# as failed (failed_frac > 0 is the defect showing) but do not mark the run
# incorrect; any other failed row does.
KNOWN_DEFECTS = {
    "fd_2d": {
        # FD freezes the first-derivative sup once eps < step: Pass, slope -2.26
        "repro-k1",
    },
}


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, default=repr)


def _outcome(status: str, answer: str) -> str:
    if status == answer:
        return "correct"
    if status == "Inconclusive":
        return "undecided"
    return "failed"


def _single(label: str, thunk, answer: str, status_of, record_of) -> Call:
    def expand(result):
        status = status_of(result)
        return [Row(label, status, _dumps(record_of(result)), _outcome(status, answer))]

    return Call(label, thunk, expand, [label])


# ======================================================================
# gallery: the nine GALLERY entries, answers from their Expectations
# ======================================================================


def build_gallery(pkg, seed: int) -> list:
    """Seed ignored: the corpus is fixed.

    An entry is one call that produces several rows, one after each public
    check it makes.  A row's latency is the time from the previous row's
    creation (or the entry's start) to its own: the check that produced it
    plus the entry's glue.  A row derived from an earlier verdict (the slope
    rows) costs only the glue.
    """
    gallery = pkg.gallery
    cfg = pkg.config.DEFAULT_CONFIG
    stamps: dict = {}  # id(row) -> creation time, for the running entry

    class TimedRow(gallery.ResultRow):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            stamps[id(self)] = time.perf_counter()

    gallery.ResultRow = TimedRow  # the entries look the name up when they run

    def run_entry(entry):
        stamps.clear()
        start = time.perf_counter()
        rows, _series = entry.run(cfg)
        latency, previous = {}, start
        for rid, t in sorted(stamps.items(), key=lambda kv: kv[1]):
            latency[rid], previous = t - previous, t
        return {r.label: (r, latency.get(id(r))) for r in rows}

    calls = []
    for entry in gallery.GALLERY:
        def expand(got, entry=entry):
            out = []
            for exp in entry.expected:
                one = gallery.GalleryEntry(entry.name, "", [exp], entry.runner)
                label = f"{entry.name}:{exp.label}"
                if exp.label not in got:
                    out.append(Row(label, "missing", "null", "failed"))
                    continue
                row, latency = got[exp.label]
                if not one.matches([row]):
                    outcome = "correct"
                elif row.status == "Inconclusive":
                    outcome = "undecided"
                else:
                    outcome = "failed"
                out.append(Row(label, row.status, _dumps(row.as_record()), outcome, latency))
            return out

        calls.append(Call(entry.name, lambda entry=entry: run_entry(entry), expand,
                          [f"{entry.name}:{e.label}" for e in entry.expected]))
    return calls


# ======================================================================
# fd_2d: plain-callable 2-D nets (no expression, no Jacobian), so every
# derivative comes from nested finite differences
# ======================================================================

# Lattice points per axis on [-1,1]^2.  3 contains x = 0, where the steep
# nets peak.  The eps-independent nets, whose answers hold on any lattice, use
# 2 or 4 so that row latencies spread out instead of forming one cluster.
FD_DENSITIES = (2, 3, 4)


def build_fd_2d(pkg, seed: int) -> list:
    mn = pkg.mapnets
    cfg = pkg.config.DEFAULT_CONFIG
    grid = cfg.grid()
    rng = np.random.default_rng(seed)
    plane = mn.euclidean_atlas([(-10.0, 10.0), (-10.0, 10.0)], name="plane")
    K = {n: mn.region_box("e0", [-1.0, -1.0], [1.0, 1.0], density=n) for n in FD_DENSITIES}

    def net(tag, fn_of_eps):
        return mn.MapNet(plane, plane, lambda eps: {
            ("e0", "e0"): mn.LocalMap(2, (2,), fn=fn_of_eps(eps), name=tag)}, tag=tag)

    def rotation(theta):
        c, s = math.cos(theta), math.sin(theta)
        return np.array([[c, -s], [s, c]])

    # Seeded parameters.  Every image stays within |y| <= 3.5 of the origin,
    # far inside the (-10, 10)^2 chart, so c-boundedness holds for all seeds.
    rot_a = (rotation(rng.uniform(0, 2 * math.pi)), rng.uniform(0.5, 1.5),
             rng.uniform(-0.5, 0.5, size=2))
    rot_b = (rotation(rng.uniform(0, 2 * math.pi)), rng.uniform(0.5, 1.5),
             rng.uniform(-0.5, 0.5, size=2))
    rot_c = (rotation(rng.uniform(0, 2 * math.pi)), rng.uniform(0.5, 1.5),
             rng.uniform(-0.5, 0.5, size=2))
    poly_a = rng.uniform(0.5, 1.5)
    polar_r = rng.uniform(0.5, 1.5)
    ripple_amp, ripple_shift = rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5)
    affine_A = rng.uniform(-1.0, 1.0, size=(2, 2))
    affine_c = rng.uniform(-0.5, 0.5, size=2)
    shear_b = rng.uniform(0.1, 0.3)
    edge_s = rng.uniform(0.5, 1.5)

    def rot_fn(params):
        R, a, c = params
        return lambda eps: (lambda x: R @ np.array([a * math.sin(x[0]),
                                                    a * math.cos(x[1])]) + c)

    nets = {
        # Fixed reproducer: D1 at x0 = 0 is e^(0.0005/eps), faster than every
        # power of 1/eps, so the net is not moderate.  Never seeded.
        "repro": net("repro", lambda eps: (
            lambda x, s=math.exp(0.0005 / eps): np.array([math.tanh(x[0] * s), x[1]]))),
        # |tanh| < 1 (c-bounded); |D^k| ~ c_k eps^-k: moderate.
        "tanh": net("tanh", lambda eps: (
            lambda x: np.array([math.tanh(x[0] / eps), x[1]]))),
        # eps-independent smooth maps: every derivative bounded.
        "rot_a": net("rot_a", rot_fn(rot_a)),
        "rot_b": net("rot_b", rot_fn(rot_b)),
        "rot_c": net("rot_c", rot_fn(rot_c)),
        "affine": net("affine", lambda eps: (lambda x: affine_A @ x + affine_c)),
        "shear": net("shear", lambda eps: (
            lambda x: np.array([x[0] + shear_b * x[1] ** 2, x[1]]))),
        "poly": net("poly", lambda eps: (
            lambda x: poly_a * np.array([x[0] ** 2 - x[1], x[0] * x[1]]))),
        "polar": net("polar", lambda eps: (
            lambda x, r=polar_r: r * math.exp(0.3 * x[0]) * np.array(
                [math.cos(x[1]), math.sin(x[1])]))),
        # bounded derivatives that shrink (eps^2, eps) or stay O(1) (1/(1+eps)).
        "ripple": net("ripple", lambda eps: (
            lambda x: np.array([x[0] + ripple_amp * eps**2 * math.sin(3.0 * x[1]),
                                x[1] + ripple_shift]))),
        "ripple1": net("ripple1", lambda eps: (
            lambda x: np.array([x[0], x[1] + eps * math.sin(2.0 * x[0])]))),
        "scale": net("scale", lambda eps: (
            lambda x: np.array([x[0] / (1.0 + eps), x[1]]))),
        # |D^k| ~ eps^((1-k)/2): moderate with N = 1 at k = 3.
        "osc": net("osc", lambda eps: (
            lambda x, r=math.sqrt(eps): np.array([x[0] + r * math.sin(x[1] / r), x[1]]))),
        # sup y0 = 10 - eps/2 tends to the chart boundary: not c-bounded,
        # hence not moderate.
        "edge": net("edge", lambda eps: (
            lambda x: np.array([9.5 + 0.5 * x[0] * (1.0 - eps), edge_s * x[1]]))),
    }
    answers = {"repro": "Fail", "edge": "Fail"}
    # Cost classes: k_max = 1 (and the early c-boundedness Fail) are cheap,
    # k_max = 2 dominate the row count, the single k_max = 3 row the cost.
    # Entries: (net, k_max, lattice points per axis).
    plan = (
        [(n, 1, 3) for n in ("repro", "tanh", "rot_a", "ripple", "osc")]
        + [("edge", 3, 3)]
        + [(n, 2, 3) for n in ("tanh", "ripple", "ripple1", "scale", "osc")]
        + [(n, 2, 2) for n in ("rot_a", "rot_c", "shear", "polar")]
        + [(n, 2, 4) for n in ("rot_b", "affine", "poly")]
        + [("tanh", 3, 3)]
    )
    calls = []
    for name, k, n in plan:
        u = nets[name]
        calls.append(_single(
            f"{name}-k{k}",
            lambda u=u, k=k, n=n: mn.check_moderate(u, K[n], grid, k_max=k, cfg=cfg),
            answers.get(name, "Pass"),
            lambda v: str(v.status),
            lambda v, label=f"{name}-k{k}": pkg.cli.verdict_record(label, {}, v)))
    return calls


# ======================================================================
# sphere_images: sphere-valued nets from a 2-D source; order-0 work only
# ======================================================================

# 6x6 lattice on [-1,1]^2; separate-eps1 uses 7x7, so that the slowest rows
# do not all cost the same.
SPHERE_DENSITY = 6
SUPPORT_DENSITY = 5


def build_sphere_images(pkg, seed: int) -> list:
    mn = pkg.mapnets
    cfg = pkg.config.DEFAULT_CONFIG
    grid = cfg.grid()
    rng = np.random.default_rng(seed)
    plane = mn.euclidean_atlas([(-10.0, 10.0), (-10.0, 10.0)], name="plane")
    sphere = mn.sphere_atlas()
    K = mn.region_box("e0", [-1.0, -1.0], [1.0, 1.0], density=SPHERE_DENSITY)
    K_dense = mn.region_box("e0", [-1.0, -1.0], [1.0, 1.0], density=SPHERE_DENSITY + 1)

    lon0 = rng.uniform(0.0, 2.0 * math.pi)
    lon_rate = rng.uniform(0.8, 1.2)
    lat0 = -0.2 + rng.uniform(-0.05, 0.05)
    amp = rng.uniform(0.5, 1.5)
    p0 = rng.uniform(-0.5, 0.5, size=2)

    def lon(x):
        return lon0 + lon_rate * x[1]

    def shape(x):
        return 0.5 * (1.0 + x[1] * x[1])  # in [1/2, 1]; 1 at x1 = +-1

    def sphere_net(tag, lat):
        """Net with latitude lat(x, eps), longitude lon(x), represented in
        both stereographic charts (north: (a, b)/(1-z), south: (a, b)/(1+z))."""
        def factory(eps):
            def embed(x):
                th = lat(x, eps)
                c = math.cos(th)
                return c * math.cos(lon(x)), c * math.sin(lon(x)), math.sin(th)

            def north(x):
                a, b, z = embed(x)
                return np.array([a, b]) / (1.0 - z)

            def south(x):
                a, b, z = embed(x)
                return np.array([a, b]) / (1.0 + z)

            return {
                ("e0", "north"): mn.LocalMap(2, (2,), fn=north, name=f"{tag}:north",
                                             defined=lambda x: embed(x)[2] < 1.0 - 1e-12),
                ("e0", "south"): mn.LocalMap(2, (2,), fn=south, name=f"{tag}:south",
                                             defined=lambda x: embed(x)[2] > -1.0 + 1e-12),
            }

        return mn.MapNet(plane, sphere, factory, tag=tag)

    # Latitudes in (-1.08, 1.08) have coordinates of norm in (1/4, 4) in both
    # charts, inside both chart boxes whatever the longitude: the seeded
    # longitude moves no point in or out of a chart, so every seed does the
    # same work.
    # cap: latitude lat0 + 0.75 x0 in [-1.0, 0.6].  It spans both
    # hemispheres, so each chart holds some best representations; the north
    # chart alone holds the image with |coords| <= 2.0 (margin >= 0.25):
    # single-chart Pass.
    cap = sphere_net("cap", lambda x, eps: lat0 + 0.75 * x[0])
    # meridian: latitude (pi/2) x0 reaches both poles at x0 = +-1, which the
    # lattice contains; each chart misses one pole: single-chart Fail.
    meridian = sphere_net("meridian", lambda x, eps: 0.5 * math.pi * x[0])
    # Perturbations along the meridian: the round distance to cap is exactly
    # the latitude shift, with lattice sup amp * rate(eps) (shift <= 0.375,
    # so latitudes stay below 1.0).
    flat = sphere_net("cap_flat", lambda x, eps: lat0 + 0.75 * x[0]
                      + amp * math.exp(-1.0 / eps) * shape(x))  # negligible
    eps2 = sphere_net("cap_eps2", lambda x, eps: lat0 + 0.75 * x[0]
                      + amp * eps**2 * shape(x))  # order 2, not negligible
    eps1 = sphere_net("cap_eps1", lambda x, eps: lat0 + 0.75 * x[0]
                      + amp * eps * shape(x))  # order 1, not negligible

    # A tangent vector over a seeded base point; its support lies in K.
    tplane = mn.tangent_bundle(plane)
    support = mn.region_box("e0", p0 - 0.1, p0 + 0.1, density=SUPPORT_DENSITY)
    vec = mn.BundleElement("e0", p0, [1.0, 0.5])
    vpoint = mn.VBPoint.from_fn(tplane, lambda eps: vec, support, tag="v0")
    t_cap = mn.tangent(cap)

    def status_of(r):
        return str(r.status)

    def report_record(r):
        return r.as_record()

    def witness_status(w):
        return "none" if w is None else "witness"

    def witness_record(w):
        return None if w is None else w.as_record(grid)

    def vbpoint_record(e):
        return {"tag": e.tag, "eps0": e.eps0, "support": e.support.as_record()}

    def verdict_record(label):
        return lambda v: pkg.cli.verdict_record(label, {}, v)

    return [
        # Every sphere point has a chart representation with |coords| <= 1,
        # so margin >= 3/8 > margin_min: every sphere-valued net is c-bounded.
        _single("cbounded-cap", lambda: mn.check_cbounded(cap, K, grid, cfg),
                "Pass", status_of, report_record),
        _single("cbounded-meridian", lambda: mn.check_cbounded(meridian, K, grid, cfg),
                "Pass", status_of, report_record),
        _single("cbounded-eps2", lambda: mn.check_cbounded(eps2, K, grid, cfg),
                "Pass", status_of, report_record),
        _single("cbounded-eps1", lambda: mn.check_cbounded(eps1, K, grid, cfg),
                "Pass", status_of, report_record),
        _single("single-chart-cap", lambda: mn.check_single_chart(cap, K, grid, cfg),
                "Pass", status_of, report_record),
        _single("single-chart-meridian",
                lambda: mn.check_single_chart(meridian, K, grid, cfg),
                "Fail", status_of, report_record),
        # latitude <= 0.6 + 1.5 eps^2 <= 0.7: north coords |x| <= 2.2
        _single("single-chart-eps2", lambda: mn.check_single_chart(eps2, K, grid, cfg),
                "Pass", status_of, report_record),
        # vbhom_eval returns once the base satisfies the single-chart
        # condition on the support (a subset of K, inside the cap image).
        _single("vbhom-eval-cap", lambda: mn.vbhom_eval(t_cap, vpoint, grid, cfg),
                "ok", lambda e: "ok", vbpoint_record),
        _single("equiv0-flat", lambda: mn.check_equiv0(cap, flat, K, None, grid, cfg),
                "Pass", status_of, verdict_record("equiv0-flat")),
        _single("equiv0-eps2", lambda: mn.check_equiv0(cap, eps2, K, None, grid, cfg),
                "Fail", status_of, verdict_record("equiv0-eps2")),
        _single("separate-flat",
                lambda: mn.separate_by_points(cap, flat, K, grid, 0, cfg),
                "none", witness_status, witness_record),
        _single("separate-eps2",
                lambda: mn.separate_by_points(cap, eps2, K, grid, 0, cfg),
                "witness", witness_status, witness_record),
        _single("separate-eps1",
                lambda: mn.separate_by_points(cap, eps1, K_dense, grid, 0, cfg),
                "witness", witness_status, witness_record),
    ]


WORKLOADS = {
    "gallery": build_gallery,
    "fd_2d": build_fd_2d,
    "sphere_images": build_sphere_images,
}
