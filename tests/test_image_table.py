"""The image table against the per-point loops it replaced.

``check_cbounded``, ``check_single_chart``, ``metric_gap_series`` and
``separate_by_points`` read the images of a region's sample points from
``MapNet.image_table``.  The reference functions below are the per-point
loops they replaced, evaluating ``u.eval`` and ``representations`` afresh;
every test requires the same records, byte for byte, including the margin and
gap series with their argmax locations.  The second half counts evaluations
of ``SmoothMap.__call__`` to pin one sweep per (net, region, grid) and the
table's cache key.
"""

import collections
import json
import math

import numpy as np
import pytest

from mapnets import jets
from mapnets.asymptotics import (
    Status,
    SupSeries,
    Witness,
    conjunction,
    judge_negligible,
    judge_vanishing,
    sweep_sups,
)
from mapnets.config import Config
from mapnets.errors import ChartEscape
from mapnets.gallery import get_atlas, get_net
from mapnets.gmap import (
    CBoundednessReport,
    MapNet,
    SingleChartReport,
    check_cbounded,
    check_equiv0,
    check_single_chart,
    metric_gap_series,
    scalar_net,
)
from mapnets.gpoints import argmax_net, separate_by_points
from mapnets.manifold import (
    Box,
    CompactRegion,
    LocalMap,
    SmoothMap,
    distance,
    euclidean_atlas,
    euclidean_multichart,
    region_box,
    sphere_atlas,
)

CFG = Config()
GRID = CFG.grid()

# -- the per-point loops the table replaced ---------------------------------


def ref_check_cbounded(u, K, grid, cfg):
    K.validate(u.src)
    eps_vals = grid.values()
    mid = grid.mid_index
    pts = K.sample_points()
    stats = np.zeros(len(eps_vals))
    stat_args = [None] * len(eps_vals)
    image_reps = {}
    for ei, eps in enumerate(eps_vals):
        worst = math.inf
        for p in pts:
            q = u.eval(eps, p)
            reps = u.dst.representations(q)
            best = reps[0][2]
            if best < worst:
                worst = best
                stat_args[ei] = q
            if ei >= mid:
                for b, y, m in reps:
                    if m >= cfg.margin_min:
                        image_reps.setdefault(b, []).append(y)
        stats[ei] = worst
    margins = SupSeries(eps_vals, np.maximum(stats, 0.0),
                        args=stat_args, context=f"min escape margin of {u.tag}")
    eps0 = float(eps_vals[mid])
    if np.all(stats[mid:] >= cfg.margin_min):
        pieces = []
        for b in sorted(image_reps):
            ys = np.array(image_reps[b])
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
        w = Witness(eps=float(eps_vals[-1]), location=stat_args[-1], value=float(stats[-1]))
        return CBoundednessReport(K, eps0, None, Status.FAIL, witness=w, margins=margins)
    return CBoundednessReport(K, eps0, None, Status.INCONCLUSIVE, margins=margins)


def ref_check_single_chart(u, K, grid, cfg):
    eps_vals = grid.values()
    pts = K.sample_points()
    per_chart = {b: np.full(len(eps_vals), math.inf) for b in u.dst.chart_ids}
    for ei, eps in enumerate(eps_vals):
        for p in pts:
            q = u.eval(eps, p)
            seen = dict.fromkeys(u.dst.chart_ids, -math.inf)
            for b, _y, m in u.dst.representations(q):
                seen[b] = max(seen[b], m)
            for b in u.dst.chart_ids:
                per_chart[b][ei] = min(per_chart[b][ei], seen[b])
    best = None
    for b in sorted(per_chart):
        margins = per_chart[b]
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


def ref_metric_gap_series(u, v, K, grid, cfg):
    g = u.dst.metric
    pts = K.sample_points()

    def samples(eps):
        for p in pts:
            yield None, distance(u.dst, g, u.eval(eps, p), v.eval(eps, p)), p

    return sweep_sups(grid, samples, cfg.zero_tol,
                      lambda _key: f"sup d_h({u.tag},{v.tag}) on K")[None]


def ref_separate_by_points(u, v, K, grid, trials, cfg):
    d_series = ref_metric_gap_series(u, v, K, grid, cfg)
    route = conjunction({
        "vanishing": judge_vanishing(d_series, cfg.vanish_tol, cfg.r2_min),
        "negligible": judge_negligible(d_series, cfg.m_probe, cfg.r2_min,
                                       floor=cfg.zero_tol)})
    if route.status is Status.PASS:
        return None
    g = u.dst.metric
    rng = np.random.default_rng(cfg.seed) if trials > 0 else None
    return argmax_net(u.src, K, K.sample_points(rng=rng, extra=trials), grid,
                      lambda eps, p: distance(u.dst, g, u.eval(eps, p), v.eval(eps, p)),
                      tag=f"sep({u.tag},{v.tag})")


# -- nets on four kinds of target atlas ---------------------------------------

PLANE = euclidean_atlas([(-10.0, 10.0), (-10.0, 10.0)], name="plane")
MULTI = euclidean_multichart({"c0": [(-3.0, 1.0)], "c1": [(-1.0, 3.0)]})
SPHERE = sphere_atlas()
K_LINE = region_box("e0", [-1.0], [1.0], density=9)
K_SQUARE = region_box("e0", [-1.0, -1.0], [1.0, 1.0], density=5)


def plane_net(tag, fn):
    """Plane-valued net; fn(x, eps) gives the two image coordinates."""
    return MapNet(PLANE, PLANE, lambda eps: {("e0", "e0"): LocalMap(
        2, (2,), fn=lambda x: np.array(fn(x, eps)), name=tag)}, tag=tag)


def sphere_net(tag, lat):
    """Sphere-valued net with latitude lat(x, eps), longitude 0.3 + x1, in
    both stereographic charts."""

    def factory(eps):
        def embed(x):
            th, lon = lat(x, eps), 0.3 + x[1]
            return math.cos(th) * math.cos(lon), math.cos(th) * math.sin(lon), math.sin(th)

        def north(x):
            a, b, z = embed(x)
            return np.array([a, b]) / (1.0 - z)

        def south(x):
            a, b, z = embed(x)
            return np.array([a, b]) / (1.0 + z)

        return {("e0", "north"): LocalMap(2, (2,), fn=north, name=f"{tag}:north",
                                          defined=lambda x: embed(x)[2] < 1.0 - 1e-12),
                ("e0", "south"): LocalMap(2, (2,), fn=south, name=f"{tag}:south",
                                          defined=lambda x: embed(x)[2] > -1.0 + 1e-12)}

    return MapNet(PLANE, SPHERE, factory, tag=tag)


def multi_net(tag, shift):
    return scalar_net(get_atlas("line"), MULTI,
                      lambda eps: lambda t: 2.5 * jets.sin(t) + shift(eps), tag=tag)


def dip(eps):
    """Image margin 0.005 at eps = 2^-10 only (in the tail, not at its end)."""
    return 0.005 if eps == 2.0**-10 else 0.3


NETS = {
    # (net, region, expected c-bounded status, expected single-chart status)
    "line-sin": (get_net("sigma_sin"), K_LINE, Status.PASS, Status.PASS),
    "line-eps-const": (get_net("epsilon_into_0_2"), K_LINE, Status.FAIL, Status.FAIL),
    "circle-jump": (get_net("s1_jump"), K_LINE, Status.PASS, Status.PASS),
    "circle-winder": (get_net("winder"), region_box("e0", [0.0], [1.0], density=9),
                      Status.PASS, Status.FAIL),
    "multichart": (multi_net("multi", lambda eps: 0.0), K_LINE, Status.PASS, Status.FAIL),
    "plane-half": (plane_net("half", lambda x, eps: (0.5 * x[0], 0.5 * x[1])), K_SQUARE,
                   Status.PASS, Status.PASS),
    "plane-edge": (plane_net("edge", lambda x, eps: (10.0 - 20.0 * eps * (1.0 + x[0]**2),
                                                     x[1])), K_SQUARE,
                   Status.FAIL, Status.FAIL),
    "plane-dip": (plane_net("dip", lambda x, eps: (10.0 - 20.0 * dip(eps), x[1])), K_SQUARE,
                  Status.INCONCLUSIVE, Status.PASS),
    "sphere-cap": (sphere_net("cap", lambda x, eps: -0.2 + 0.75 * x[0]), K_SQUARE,
                   Status.PASS, Status.PASS),
    "sphere-meridian": (sphere_net("meridian", lambda x, eps: 0.5 * math.pi * x[0]),
                        K_SQUARE, Status.PASS, Status.FAIL),
}

PAIRS = {
    # (u, v, region): every pair is order-0 inequivalent unless noted
    "line": (get_net("sigma_sin"), get_net("sin_plus_eps2"), K_LINE),
    "line-equivalent": (get_net("sigma_sin"), get_net("sin_plus_flat"), K_LINE),
    "circle": (get_net("s1_jump"), get_net("s1_jump_eps_bump"), K_LINE),
    "multichart": (NETS["multichart"][0], multi_net("multi_eps", lambda eps: eps), K_LINE),
    "plane": (NETS["plane-half"][0],
              plane_net("half_eps", lambda x, eps: (0.5 * x[0] + eps * x[1], 0.5 * x[1])),
              K_SQUARE),
    "sphere": (NETS["sphere-cap"][0],
               sphere_net("cap_eps2", lambda x, eps: -0.2 + 0.75 * x[0]
                          + eps**2 * (1.0 + x[1]**2)), K_SQUARE),
}


def point_key(p):
    return None if p is None else (p.chart, p.coords.tobytes())


def assert_same_series(a, b):
    assert a.context == b.context
    assert a.eps.tobytes() == b.eps.tobytes()
    assert a.sup.tobytes() == b.sup.tobytes()
    assert [point_key(x) for x in a.args] == [point_key(x) for x in b.args]


def dumps(record):
    return json.dumps(record, sort_keys=True)


class TestMatchesPerPointLoops:
    @pytest.mark.parametrize("name", sorted(NETS))
    def test_check_cbounded(self, name):
        u, K, status, _ = NETS[name]
        got, want = check_cbounded(u, K, GRID, CFG), ref_check_cbounded(u, K, GRID, CFG)
        assert got.status is status
        assert dumps(got.as_record()) == dumps(want.as_record())
        assert_same_series(got.margins, want.margins)
        if status is Status.FAIL:
            assert point_key(got.witness.location) == point_key(want.witness.location)

    @pytest.mark.parametrize("name", sorted(NETS))
    def test_check_single_chart(self, name):
        u, K, _, status = NETS[name]
        got = check_single_chart(u, K, GRID, CFG)
        assert got.status is status
        assert dumps(got.as_record()) == dumps(ref_check_single_chart(u, K, GRID, CFG)
                                               .as_record())

    @pytest.mark.parametrize("name", sorted(PAIRS))
    def test_metric_gap_series(self, name):
        u, v, K = PAIRS[name]
        assert_same_series(metric_gap_series(u, v, K, None, GRID, CFG),
                           ref_metric_gap_series(u, v, K, GRID, CFG))

    @pytest.mark.parametrize("trials", [0, 3])
    @pytest.mark.parametrize("name", sorted(PAIRS))
    def test_separate_by_points(self, name, trials):
        u, v, K = PAIRS[name]
        got = separate_by_points(u, v, K, GRID, trials, CFG)
        want = ref_separate_by_points(u, v, K, GRID, trials, CFG)
        assert (got is None) == (name == "line-equivalent")
        assert (got is None) == (want is None)
        if got is not None:
            assert got.tag == want.tag
            assert dumps(got.as_record(GRID)) == dumps(want.as_record(GRID))


# -- one sweep per (net, region, grid) ----------------------------------------


@pytest.fixture
def evals(monkeypatch):
    """Counts SmoothMap evaluations per (map, point)."""
    seen = collections.Counter()
    call = SmoothMap.__call__

    def counting(sm, p):
        seen[(id(sm), p.chart, p.coords.tobytes())] += 1
        return call(sm, p)

    monkeypatch.setattr(SmoothMap, "__call__", counting)
    return seen


def fresh_pair():
    line = get_atlas("line")
    u = scalar_net(line, line, lambda eps: lambda t: jets.sin(t), tag="sin")
    v = scalar_net(line, line, lambda eps: lambda t: jets.sin(t) + eps**2 * t * t,
                   tag="sin_eps2")
    return u, v


class TestSweepsAndCacheKey:
    def test_separate_by_points_evaluates_each_image_once(self, evals):
        u, v = fresh_pair()
        assert separate_by_points(u, v, K_LINE, GRID, 0, CFG) is not None
        n_pts = len(K_LINE.sample_points())
        assert len(evals) == 2 * len(GRID) * n_pts
        assert set(evals.values()) == {1}

    def test_later_checks_on_same_net_evaluate_nothing(self, evals):
        u, v = fresh_pair()
        separate_by_points(u, v, K_LINE, GRID, 0, CFG)
        before = sum(evals.values())
        for net in (u, v):
            check_cbounded(net, K_LINE, GRID, CFG)
            check_single_chart(net, K_LINE, GRID, CFG)
        check_equiv0(u, v, K_LINE, None, GRID, CFG)
        assert sum(evals.values()) == before

    def test_equal_region_object_shares_the_table(self, evals):
        u, _ = fresh_pair()
        table = u.image_table(region_box("e0", [-1.0], [1.0], density=9), GRID)
        before = sum(evals.values())
        same = region_box("e0", [-1.0], [1.0], density=9)
        assert same is not K_LINE
        assert u.image_table(same, GRID) is table
        check_cbounded(u, same, GRID, CFG)
        assert sum(evals.values()) == before

    @pytest.mark.parametrize("change", ["grid", "density", "box", "trials", "no-trials",
                                        "seed"])
    def test_different_key_builds_a_new_table(self, evals, change):
        u, _ = fresh_pair()
        K, grid, trials, seed = K_LINE, GRID, 3, 0
        table = u.image_table(K, grid, trials, seed)
        if change == "grid":
            grid = CFG.with_updates(grid_k_max=15).grid()
        elif change == "density":
            K = region_box("e0", [-1.0], [1.0], density=8)
        elif change == "box":
            K = region_box("e0", [-1.0], [0.5], density=9)
        elif change == "trials":
            trials = 4
        elif change == "no-trials":
            trials = 0
        else:
            seed = 1
        before = sum(evals.values())
        assert u.image_table(K, grid, trials, seed) is not table
        assert sum(evals.values()) > before

    def test_seed_does_not_matter_without_trials(self):
        u, _ = fresh_pair()
        assert u.image_table(K_LINE, GRID, 0, 0) is u.image_table(K_LINE, GRID, 0, 5)

    def test_late_chart_escape_raises_on_every_call(self, evals):
        line = get_atlas("line")
        u = scalar_net(line, line, lambda eps: lambda t: t + (20.0 if eps < 2.0**-12 else 0.0),
                       tag="late_escape")
        for _ in range(2):
            before = sum(evals.values())
            with pytest.raises(ChartEscape):
                check_cbounded(u, K_LINE, GRID, CFG)
            assert sum(evals.values()) > before  # rebuilt, nothing half-built was kept

    def test_witness_location_is_read_only(self):
        u, K, _, _ = NETS["plane-edge"]
        rep = check_cbounded(u, K, GRID, CFG)
        assert rep.status is Status.FAIL
        with pytest.raises(ValueError):
            rep.witness.location.coords[0] = 0.0
        with pytest.raises(ValueError):
            rep.margins.args[0].coords[:] = 0.0
        assert check_cbounded(u, K, GRID, CFG).as_record() == rep.as_record()
