"""The image table against the per-point loops it replaced.

``check_cbounded``, ``check_single_chart``, ``metric_gap_series``,
``separate_by_points`` and both routes of ``check_equiv0`` read the images of
a region's sample points from ``MapNet.image_table``.  The reference
functions below are the per-point loops they replaced, evaluating ``u.eval``
and ``representations`` afresh; every test requires the same records, byte
for byte, including the margin and gap series with their argmax locations.
The chart route of ``check_equiv0`` is compared with the representative-wise
``chart_gap_series`` at order 0: same keys and part statuses, and the same
sups and argmax locations up to the rounding of coordinates reached through
an atlas transition (see TRANSITION_ATOL).  The second half counts evaluations of
``SmoothMap.__call__`` (and of the oracles and distances) to pin one sweep
per (net, region, grid) and the table's cache key.
"""

import collections
import json
import math

import numpy as np
import pytest
from test_asymptotics import ref_sweep_sups

from mapnets import gmap, jets, manifold
from mapnets.asymptotics import (
    Status,
    SupSeries,
    Witness,
    conjunction,
    judge_negligible,
    judge_vanishing,
)
from mapnets.config import Config
from mapnets.errors import ChartEscape
from mapnets.gallery import get_atlas, get_net
from mapnets.gmap import (
    CBoundednessReport,
    MapNet,
    SingleChartReport,
    _merge_l_prime,
    angle_net,
    chart_gap_series,
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

    return ref_sweep_sups(grid, samples, cfg.zero_tol,
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
    pts = K.sample_points(rng=rng, extra=trials)
    dists = [[distance(u.dst, g, u.eval(eps, p), v.eval(eps, p)) for p in pts]
             for eps in grid.values()]
    return argmax_net(u.src, K, pts, grid, np.array(dists), tag=f"sep({u.tag},{v.tag})")


def ref_chart_route(u, v, K, grid, cfg):
    """check_equiv0's chart route before it read the tables: representative
    values through ``chart_gap_series`` at order 0, judged per part."""
    L_prime = _merge_l_prime(check_cbounded(u, K, grid, cfg), check_cbounded(v, K, grid, cfg))
    parts = {"vanishing": judge_vanishing(ref_metric_gap_series(u, v, K, grid, cfg),
                                          cfg.vanish_tol, cfg.r2_min)}
    for (pi, cid, b, _k), s in sorted(chart_gap_series(u, v, K, grid, 0, L_prime, cfg).items()):
        parts[f"k=0|K[{pi}]|{cid}->{b}"] = judge_negligible(s, cfg.m_probe, cfg.r2_min,
                                                            floor=cfg.zero_tol)
    return parts


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
    # the largest gap sits at t = 1 - 8 eps, so the argmax moves with eps
    "line-moving-peak": (get_net("sigma_sin"),
                         scalar_net(get_atlas("line"), get_atlas("line"),
                                    lambda eps: lambda t, e=eps: jets.sin(t) + e * e * jets.exp(
                                        -((t - 1.0 + 8.0 * e) * 4.0)**2), tag="moving_peak"),
                         K_LINE),
    "circle": (get_net("s1_jump"), get_net("s1_jump_eps_bump"), K_LINE),
    "multichart": (NETS["multichart"][0], multi_net("multi_eps", lambda eps: eps), K_LINE),
    "plane": (NETS["plane-half"][0],
              plane_net("half_eps", lambda x, eps: (0.5 * x[0] + eps * x[1], 0.5 * x[1])),
              K_SQUARE),
    "sphere": (NETS["sphere-cap"][0],
               sphere_net("cap_eps2", lambda x, eps: -0.2 + 0.75 * x[0]
                          + eps**2 * (1.0 + x[1]**2)), K_SQUARE),
}

CHART_PAIRS = {
    **PAIRS,
    "circle-equivalent": (get_net("s1_jump"), get_net("s1_jump_flat"), K_LINE),
    "multichart-two-pieces": (*PAIRS["multichart"][:2],
                              CompactRegion([("e0", Box([-1.0], [-0.2])),
                                             ("e0", Box([0.1], [0.9]))], lattice_density=9)),
    "sphere-equivalent": (NETS["sphere-cap"][0],
                          sphere_net("cap_flat", lambda x, eps: -0.2 + 0.75 * x[0]
                                     + math.exp(-1.0 / eps) * (1.0 + x[1]**2)), K_SQUARE),
    "sphere-meridian": (NETS["sphere-meridian"][0],
                        sphere_net("meridian_eps", lambda x, eps: 0.5 * math.pi * x[0]
                                   + eps * x[1]), K_SQUARE),
    "circle-winding": (get_net("winder"),
                       angle_net(get_atlas("line"), get_atlas("circle"),
                                 lambda eps: lambda t, e=eps: t / e + e * t, tag="drift"),
                       region_box("e0", [0.0], [1.0], density=9)),
    # neither net is c-bounded, so there is no L'
    "no-l-prime": (NETS["plane-edge"][0],
                   plane_net("edge_eps", lambda x, eps: (10.0 - 20.0 * eps * (1.0 + x[0]**2),
                                                         x[1] + eps * eps)), K_SQUARE),
    # no L' either; at large eps one image sits in both charts, the other in c1 only
    "no-l-prime-multichart": (
        scalar_net(get_atlas("line"), MULTI, lambda eps: lambda t, e=eps:
                   3.0 - 0.5 * e * (1.0 + t * t) - 4.0 * e * (1.0 + t), tag="edge_low"),
        scalar_net(get_atlas("line"), MULTI, lambda eps: lambda t, e=eps:
                   3.0 - 0.5 * e * (1.0 + t * t), tag="edge"), K_LINE),
    # images shrink towards the tail, so L' drops head images
    "l-prime-excludes": (plane_net("shrink", lambda x, eps: ((0.5 + 4.0 * eps) * x[0], x[1])),
                         plane_net("shrink_eps", lambda x, eps: ((0.5 + 4.0 * eps) * x[0],
                                                                 x[1] + eps * eps)), K_SQUARE),
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

    @pytest.mark.parametrize("name", sorted(PAIRS))
    def test_metric_route_with_extras_reads_the_lattice_series(self, name):
        u, v, K = PAIRS[name]
        route, d_series, dists = gmap._metric_route(u, v, K, None, GRID, CFG, 3, CFG.seed)
        assert_same_series(d_series, ref_metric_gap_series(u, v, K, GRID, CFG))
        assert dists.shape == (len(GRID), len(gmap.sample_points(K, 3, CFG.seed)))

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


# The table holds an image's coordinates in a chart other than the one
# ``u.eval`` returned as the atlas transition of the returned coordinates, where
# ``chart_gap_series`` evaluates that chart's representative: on the circle and
# the sphere (coordinates up to 3 and 4 in size) the two differ by a few ulp,
# which is a large relative error in a small gap.  There the sups may differ
# by TRANSITION_ATOL, and an argmax may move to a point whose representative
# gap ties the reference sup within it.
TRANSITION_ATOL = 1e-14
VIA_TRANSITION = {"circle-equivalent", "sphere", "sphere-equivalent", "sphere-meridian"}


def rep_gap(u, v, eps, p, b):
    """|y_u - y_v| at p from the chart-b representatives of the two nets."""
    return float(np.linalg.norm(u.at(eps).local(p.chart, b)(p.coords)
                                - v.at(eps).local(p.chart, b)(p.coords)))


class TestChartRouteFromTables:
    @pytest.mark.parametrize("name", sorted(CHART_PAIRS))
    def test_matches_representative_route(self, name):
        u, v, K = CHART_PAIRS[name]
        got = check_equiv0(u, v, K, None, GRID, CFG).details["chart"].details
        want = ref_chart_route(u, v, K, GRID, CFG)
        assert len(want) > 1 and sorted(got) == sorted(want)
        atol = TRANSITION_ATOL if name in VIA_TRANSITION else 0.0
        for lbl, w in want.items():
            g = got[lbl]
            assert (g.status, g.notes) == (w.status, w.notes), lbl
            if lbl == "vanishing":
                assert_same_series(g.series, w.series)
                continue
            assert g.series.context == w.series.context
            assert g.series.eps.tobytes() == w.series.eps.tobytes()
            np.testing.assert_allclose(g.series.sup, w.series.sup, rtol=1e-12, atol=atol)
            for eps, sup, a, b in zip(GRID.values(), w.series.sup, g.series.args,
                                      w.series.args):
                if point_key(a) != point_key(b):
                    assert atol > 0.0 and a is not None, (lbl, eps)
                    gap = rep_gap(u, v, eps, a, lbl.split("->")[-1])
                    if sup == 0.0:  # clamped: every gap at this eps is <= zero_tol
                        assert gap <= CFG.zero_tol + atol
                    else:
                        assert gap == pytest.approx(sup, rel=1e-12, abs=atol)

    def test_l_prime_cases_are_what_they_claim(self):
        def l_prime(u, v, K):
            return _merge_l_prime(check_cbounded(u, K, GRID, CFG),
                                  check_cbounded(v, K, GRID, CFG))

        assert l_prime(*CHART_PAIRS["no-l-prime"]) is None
        u, v, K = CHART_PAIRS["no-l-prime-multichart"]
        assert l_prime(u, v, K) is None
        eps, p = GRID.values()[0], K.sample_points()[-1]
        assert [b for b, _y, _m in MULTI.representations(u.eval(eps, p))] == ["c1", "c0"]
        assert [b for b, _y, _m in MULTI.representations(v.eval(eps, p))] == ["c1"]
        u, v, K = CHART_PAIRS["l-prime-excludes"]
        boxes = l_prime(u, v, K)["e0"]
        images = [u.eval(eps, p) for eps in GRID.values() for p in K.sample_points()]
        outside = [q for q in images if not any(b.contains(q.coords, closed=True)
                                                for b in boxes)]
        assert 0 < len(outside) < len(images)


# -- one sweep per (net, region, grid) ----------------------------------------


@pytest.fixture
def evals(monkeypatch):
    """Counts SmoothMap evaluations per (eps, point), the eps as its map
    ``u.at(eps)``; each row of a stacked point counts as one evaluation at
    that row, and a row of a call over all grid eps (the map of the eps runs'
    maps, ``gmap._runs_map``) as one of its eps run's map."""
    seen = collections.Counter()
    call, runs_map = SmoothMap.__call__, gmap._runs_map
    runs_of = {}  # id of a map of eps runs: (that map, kept so the id stays its own; its runs)

    def recording(runs):
        m = runs_map(runs)
        runs_of[id(m)] = (m, runs)
        return m

    def counting(sm, p):
        rows = p.coords.reshape(-1, p.coords.shape[-1])
        for r, at in runs_of.get(id(sm), (sm, [(slice(None), sm)]))[1]:
            for x in rows[r]:
                seen[(id(at), p.chart, x.tobytes())] += 1
        return call(sm, p)

    monkeypatch.setattr(gmap, "_runs_map", recording)
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

    @pytest.mark.parametrize("trials", [0, 3])
    @pytest.mark.parametrize("equivalent", [False, True])
    def test_separate_by_points_computes_each_distance_once(self, evals, monkeypatch,
                                                            trials, equivalent):
        calls = collections.Counter()

        def counting(atlas, g, p, q, *args, **kwargs):  # each row of a chart pair's call once
            for x, y in zip(p.coords.reshape(-1, p.coords.shape[-1]),
                            q.coords.reshape(-1, q.coords.shape[-1])):
                calls[(p.chart, x.tobytes(), q.chart, y.tobytes())] += 1
            return distance(atlas, g, p, q, *args, **kwargs)

        def no_equiv0(*args, **kwargs):
            raise AssertionError("separate_by_points ran check_equiv0")

        # the stacked-Point calls ``distance`` makes per chart pair of two columns
        monkeypatch.setattr(manifold, "distance", counting)
        monkeypatch.setattr(gmap, "check_equiv0", no_equiv0)
        u, v = fresh_pair()
        if equivalent:
            v = scalar_net(get_atlas("line"), get_atlas("line"),
                           lambda eps: lambda t: jets.sin(t) + math.exp(-1.0 / eps) * t,
                           tag="sin_flat")
        w = separate_by_points(u, v, K_LINE, GRID, trials, CFG)
        assert (w is None) == equivalent
        n_samples = len(gmap.sample_points(K_LINE, trials, CFG.seed))
        assert sum(calls.values()) == len(GRID) * n_samples
        assert len(evals) == 2 * len(GRID) * n_samples  # each image once, extras too
        assert set(evals.values()) == {1}

    @pytest.mark.parametrize("name", sorted(CHART_PAIRS))
    def test_one_distance_call_per_chart_pair_of_the_tables(self, monkeypatch, name):
        u, v, K = CHART_PAIRS[name]
        tu, tv = u.image_table(K, GRID), v.image_table(K, GRID)
        pairs = collections.Counter()

        def counting(atlas, g, p, q, *args, **kwargs):
            pairs[p.chart, q.chart] += 1
            return distance(atlas, g, p, q, *args, **kwargs)

        # the stacked-Point calls ``distance`` makes per chart pair of the tables' columns
        monkeypatch.setattr(manifold, "distance", counting)
        metric_gap_series(u, v, K, u.dst.metric, GRID, CFG)
        present = {(tu.charts[a], tv.charts[b]) for a, b in zip(tu.chart.ravel(), tv.chart.ravel())}
        assert set(pairs) == present and set(pairs.values()) == {1}

    @pytest.mark.parametrize("name", ["line", "circle", "multichart", "sphere"])
    def test_check_equiv0_evaluates_nothing_once_tables_exist(self, evals, monkeypatch,
                                                              name):
        u, v, K = PAIRS[name]
        for net in (u, v):
            net.image_table(K, GRID)
        calls = collections.Counter()

        def counted(label, fn):
            def wrapper(*args, **kwargs):
                calls[label] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(LocalMap, "try_call", counted("try_call", LocalMap.try_call))
        monkeypatch.setattr(LocalMap, "derivs_upto",
                            counted("derivs_upto", LocalMap.derivs_upto))
        monkeypatch.setattr(gmap, "effective_reps",
                            counted("effective_reps", gmap.effective_reps))
        before = sum(evals.values())
        v0 = check_equiv0(u, v, K, None, GRID, CFG)
        assert v0.details["chart"].details  # the chart route ran
        assert sum(evals.values()) == before
        assert not calls

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

    @pytest.mark.parametrize("first", [0, 3])
    def test_extras_table_evaluates_no_lattice_image_again(self, evals, first):
        u, _ = fresh_pair()
        n_lattice = len(gmap.sample_points(K_LINE))
        n_extra = len(gmap.sample_points(K_LINE, 3, CFG.seed)) - n_lattice
        built = {}  # trials: the images its table evaluated
        for trials in (first, 3 - first):
            before = sum(evals.values())
            u.image_table(K_LINE, GRID, trials, CFG.seed)
            built[trials] = sum(evals.values()) - before
        assert set(evals.values()) == {1}
        assert built == {0: len(GRID) * n_lattice, 3: len(GRID) * n_extra}

    @pytest.mark.parametrize("first", ["separate", "equiv0"])
    def test_separate_then_equiv0_evaluate_each_image_once(self, evals, first):
        u, v = fresh_pair()
        calls = {"separate": lambda: separate_by_points(u, v, K_LINE, GRID, 3, CFG),
                 "equiv0": lambda: check_equiv0(u, v, K_LINE, None, GRID, CFG)}
        for name in (first, *(set(calls) - {first})):
            calls[name]()
        assert set(evals.values()) == {1}
        assert len(evals) == 2 * len(GRID) * len(gmap.sample_points(K_LINE, 3, CFG.seed))

    @pytest.mark.parametrize("case,raised", [
        ("u extras, v lattice", "u@eps=0.0625 has no chart for image of Point(e0, [0.273923])"),
        ("u lattice late, u extras early", "u@eps=0.000976562 has no chart for image of "
                                           "Point(e0, [-1.])"),
        ("v extras only", "v@eps=0.25 has no chart for image of Point(e0, [0.273923])"),
    ])
    def test_a_sweep_with_extras_raises_the_first_table_escape(self, case, raised):
        """The tables are read in the order u's lattice, u's extras, v's
        lattice, v's extras, and the first with an escape raises it."""
        line = get_atlas("line")

        def net(tag, escapes):  # +20 leaves the line's chart where escapes(x, eps)
            return MapNet(line, line, lambda eps: {("e0", "e0"): LocalMap(
                1, (1,), fn=lambda x: x + (20.0 if escapes(x[0], eps) else 0.0),
                name=f"{tag}@eps={eps:g}")}, tag=tag)

        def lattice(x):  # K_LINE's lattice is the quarters of [-1, 1]
            return float(4.0 * x).is_integer()

        u, v = {
            "u extras, v lattice": (net("u", lambda x, e: not lattice(x) and e < 0.1),
                                    net("v", lambda x, e: lattice(x))),
            "u lattice late, u extras early": (
                net("u", lambda x, e: e < 1e-3 if lattice(x) else e < 0.3),
                net("v", lambda x, e: False)),
            "v extras only": (net("u", lambda x, e: False),
                              net("v", lambda x, e: not lattice(x))),
        }[case]
        with pytest.raises(ChartEscape) as got:
            gmap._distance_sweep(u, v, K_LINE, None, GRID, CFG, 3, 0)
        assert str(got.value) == raised

    @pytest.mark.parametrize("name", ["circle", "sphere"])
    def test_extras_table_equals_a_direct_build(self, name):
        u, _, K = PAIRS[name]
        table = u.image_table(K, GRID, 3, 7)
        extras = gmap.sample_points(K, 3, 7)[len(gmap.sample_points(K)):]
        direct = gmap.ImageTable(u, gmap.PointStack.of(u.src, extras), GRID.values())
        for attr in ("margins", "coords", "chart"):
            got, want = getattr(table, attr), getattr(direct, attr)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            assert not got.flags.writeable

    def test_seed_does_not_matter_without_trials(self):
        u, _ = fresh_pair()
        assert u.image_table(K_LINE, GRID, 0, 0) is u.image_table(K_LINE, GRID, 0, 5)

    def test_late_chart_escape_raises_on_every_call(self, evals):
        line = get_atlas("line")
        u = scalar_net(line, line, lambda eps: lambda t: t + (20.0 if eps < 2.0**-12 else 0.0),
                       tag="late_escape")
        for call in range(2):
            before = sum(evals.values())
            with pytest.raises(ChartEscape):
                check_cbounded(u, K_LINE, GRID, CFG)
            # built once: the escaped table is cached, and raises its escape again
            assert (sum(evals.values()) > before) == (call == 0)

    def test_witness_location_is_read_only(self):
        u, K, _, _ = NETS["plane-edge"]
        rep = check_cbounded(u, K, GRID, CFG)
        assert rep.status is Status.FAIL
        with pytest.raises(ValueError):
            rep.witness.location.coords[0] = 0.0
        with pytest.raises(ValueError):
            rep.margins.args[0].coords[:] = 0.0
        assert check_cbounded(u, K, GRID, CFG).as_record() == rep.as_record()
