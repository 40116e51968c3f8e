"""The tangent map reuses its map net, and the point sweeps reuse evaluations.

``tangent(u)`` has u itself as its base net, so its checks read u's image
tables and take the matrix parts at u's eps columns: one jet per (piece,
target chart) over the whole grid, as u's own sweeps take.  Its matrix sups
must equal, bit for bit, those of the same tangent over u taken one eps at a
time.  ``tangent_norm_series`` reads the chart pair of each row from the
image table and makes no point evaluation once the table exists; it must
equal the per-point loop it replaced, escaped rows left out.
``points_equal`` evaluates each generalized point once per eps and takes its
distances in one call per chart pair, raising the error an eps loop raises
first.
"""

import collections
import math

import numpy as np
import pytest
from test_array_jets import bits
from test_asymptotics import ref_sweep_sups
from test_stacked_tables import MULTI, escaping_net

from mapnets import gmap
from mapnets.asymptotics import EpsGrid
from mapnets.errors import OutOfDomain
from mapnets.gallery import get_atlas, get_net, get_region
from mapnets.gmap import MapNet, check_cbounded
from mapnets.gpoints import GenPoint, eval_at, points_equal
from mapnets.jets import Jet
from mapnets.manifold import (
    Box,
    CompactRegion,
    LocalMap,
    Point,
    SmoothMap,
    distance,
    region_box,
    riemannian_operator_norm,
)
from mapnets.vbundle import (
    check_vbhom_moderate,
    matrix_gap_series,
    tangent,
    tangent_norm_series,
)

GRID = EpsGrid(0.5, 2, 16)


def fresh(name: str, eps_columns: bool = True) -> MapNet:
    """A registry net with no image tables yet, with or without eps columns."""
    u = get_net(name)
    return MapNet(u.src, u.dst, u.local_factory, tag=u.tag, eps_columns=eps_columns)


def same_series(a: dict, b: dict) -> bool:
    return list(a) == list(b) and all(
        [bits(x) for x in a[k].sup.tolist()] == [bits(x) for x in b[k].sup.tolist()]
        and [repr(p) for p in a[k].args] == [repr(p) for p in b[k].args]
        and a[k].context == b[k].context for k in a)


# -- T(u) is u plus matrix fields -------------------------------------------------


def test_the_tangent_base_net_is_the_net():
    u = get_net("s1_jump")
    assert tangent(u).base_net is u


def test_a_tangent_check_reuses_the_table_and_the_eps_columns(monkeypatch, cfg):
    u = fresh("s1_jump")
    K = get_region("K_unit")
    assert check_cbounded(u, K, GRID, cfg).status == "Pass"
    builds, orders = [], []
    init = gmap.ImageTable.__init__
    monkeypatch.setattr(gmap.ImageTable, "__init__",
                        lambda self, *a, **kw: builds.append(1) or init(self, *a, **kw))
    var = Jet.var.__func__
    monkeypatch.setattr(Jet, "var", classmethod(
        lambda cls, x0, order: orders.append(order) or var(cls, x0, order)))
    v = check_vbhom_moderate(tangent(u), K, GRID, cfg.k_max, cfg)
    assert v.status == "Pass"
    assert not builds
    counts = collections.Counter(orders)
    # per angle chart: the base sweep's jet and the matrix sweep's jet
    assert (counts[cfg.k_max], counts[cfg.k_max + 1]) == (2, 2)


@pytest.mark.parametrize("name", ["s1_jump", "heaviside_tanh", "sin_plus_eps2"])
def test_matrix_sups_at_eps_columns_match_one_eps_at_a_time(name, cfg):
    K = get_region("K_unit")
    u, twin = fresh(name), fresh(name, eps_columns=False)
    got = matrix_gap_series(tangent(u), None, K, GRID, 3, None, cfg)
    want = matrix_gap_series(tangent(twin), None, K, GRID, 3, None, cfg)
    assert got and same_series(got, want)
    v, v_twin = fresh("sigma_sin"), fresh("sigma_sin", eps_columns=False)
    if v.dst is u.dst:
        got = matrix_gap_series(tangent(u), tangent(v), K, GRID, 2, None, cfg)
        want = matrix_gap_series(tangent(twin), tangent(v_twin), K, GRID, 2, None, cfg)
        assert got and same_series(got, want)


# -- tangent_norm_series reads the image table ------------------------------------


def ref_eval_candidates(sm, p):
    """The per-point image rule ``SmoothMap.best_image`` replaced: (dst chart
    b, coords, margin, src chart a) for each representative (a, b) applying
    to the point p, best first: largest margin, then the smaller b, then the
    smaller a."""
    out = []
    for (a, b), rep in sorted(sm.locals.items()):
        x = p.coords if a == p.chart else sm.src.rechart(p, a)
        if x is None or not sm.src.chart(a).contains(x):
            continue
        y = rep.try_call(x)
        if y is None:
            continue
        m = sm.dst.chart(b).norm_margin(y)
        if m > 0:
            out.append((b, y, m, a))
    out.sort(key=lambda c: (-c[2], c[0]))
    return out


def eval_candidates_norm_series(u, K, grid, cfg):
    """The per-point loop: each lattice point's first ``ref_eval_candidates`` pair."""

    def samples(eps):
        sm = u.at(eps)
        for cid, lat in K.lattices():
            for x in lat:
                p = Point(cid, x)
                cands = ref_eval_candidates(sm, p)
                if cands:
                    b, y, _m, a = cands[0]
                    xa = u.src.rechart(p, a)
                    yield None, riemannian_operator_norm(
                        sm.locals[(a, b)].jacobian(xa), u.src.metric.at(a, xa),
                        u.dst.metric.at(b, y)), p

    return ref_sweep_sups(grid, samples, cfg.zero_tol)[None]


def two_source_net() -> MapNet:
    """MULTI -> line with a different (equal-valued) representative per
    source chart, so the overlap points pick their source chart by margin."""

    def factory(eps):
        return {(a, "e0"): LocalMap.from_expr(lambda t, s=1.0 + eps: 0.5 * s * t,
                                              name=f"half:{a}") for a in ("c0", "c1")}

    return MapNet(MULTI, get_atlas("line"), factory, tag="half")


def tangent_norm_cases():
    yield "s1_jump", fresh("s1_jump"), get_region("K_unit")
    yield "s1_jump per eps", fresh("s1_jump", eps_columns=False), get_region("K_unit")
    yield "winder", fresh("winder"), get_region("K_half")
    yield "two sources", two_source_net(), CompactRegion(
        [("c0", Box([-2.0], [0.8])), ("c1", Box([-0.6], [2.0]))], lattice_density=9)
    yield "escaping", escaping_net({"c0": 2.0**-8, "c1": 2.0**-5}), CompactRegion(
        [("c0", Box([-2.5], [-1.5])), ("c1", Box([1.5], [2.5]))], lattice_density=4)


@pytest.mark.parametrize("label,u,K", list(tangent_norm_cases()),
                         ids=[c[0] for c in tangent_norm_cases()])
def test_tangent_norm_series_reads_the_table(label, u, K, monkeypatch, cfg):
    want = eval_candidates_norm_series(u, K, GRID, cfg)
    table = u.image_table(K, GRID)
    assert (table.escape is not None) == (label == "escaping")
    if label == "two sources":
        assert set(table.source.ravel().tolist()) == {0, 1}
    calls = []
    for cls in (LocalMap, SmoothMap):
        name = "try_call" if cls is LocalMap else "best_image"
        method = getattr(cls, name)
        monkeypatch.setattr(cls, name, lambda self, x, method=method:
                            calls.append(self.name) or method(self, x))
    got = tangent_norm_series(u, K, GRID, cfg)
    # no image is evaluated; a two-chart source recharts the sample points of each
    # chart into the other once, in one stacked call
    assert calls == ([] if len(u.src.chart_ids) == 1 else ["id:c1->c0", "id:c0->c1"])
    assert got.sup.tobytes() == want.sup.tobytes()
    assert [repr(p) for p in got.args] == [repr(p) for p in want.args]


def test_tangent_norm_series_of_an_escaped_table_reads_zero(cfg):
    """Every (eps, point) row escapes: the empty-sup convention, 0 at every eps."""
    u = escaping_net({"c0": 2.0, "c1": 2.0})
    K = CompactRegion([("c0", Box([-2.5], [-1.5]))], lattice_density=4)
    assert (u.image_table(K, GRID).chart == -1).all()
    got = tangent_norm_series(u, K, GRID, cfg)
    assert got.eps.tobytes() == GRID.values().tobytes()
    assert got.sup.tolist() == [0.0] * len(GRID)
    assert got.args == [None] * len(GRID)
    assert got.context == "sup |T escape|_g,h on K"


# -- points_equal evaluates each point once per eps --------------------------------


def loop_series(p, q, grid, cfg):
    """The per-eps loop: d(p_eps, q_eps) at each grid eps, in order."""
    return ref_sweep_sups(
        grid, lambda eps: [(None, distance(p.atlas, p.atlas.metric, p.at(eps), q.at(eps)), None)],
        cfg.zero_tol, lambda _key: f"d({p.tag},{q.tag})")[None]


def counted(point: GenPoint, log: list) -> GenPoint:
    return GenPoint(point.atlas, lambda eps: log.append(eps) or point.at(eps),
                    point.support, point.eps0, point.tag)


def test_points_equal_evaluates_each_point_once_per_eps(monkeypatch, cfg):
    u = get_net("s1_jump")
    p = GenPoint.constant(get_atlas("line"), Point("e0", [0.3]), tag="p")
    up, uq = eval_at(u, p, GRID, cfg), eval_at(get_net("s1_jump_flat"), p, GRID, cfg)
    want = loop_series(up, uq, GRID, cfg)
    log_p, log_q, groups = [], [], []
    dist = gmap.distance

    def counting(atlas, g, a, b, *args):
        groups.append((a.chart, b.chart))
        return dist(atlas, g, a, b, *args)

    monkeypatch.setattr("mapnets.manifold.distance", counting)  # the per-chart-pair calls
    v = points_equal(counted(up, log_p), counted(uq, log_q), grid=GRID, cfg=cfg)
    assert log_p == log_q == GRID.values().tolist()
    assert len(groups) == len(set(groups))  # one call per (p chart, q chart)
    assert v.series.sup.tobytes() == want.sup.tobytes() and v.series.context == want.context
    assert v.status == "Pass" and v.details["chart"].status == "Pass"


def test_points_equal_raises_the_first_out_of_domain_of_the_eps_loop(cfg):
    line = get_atlas("line")
    bad_at = {GRID.values()[3]: 50.0, GRID.values()[7]: -50.0}  # the line's chart is (-10, 10)

    def at(eps):
        return Point("e0", [bad_at.get(eps, 0.1)])

    p = GenPoint(line, at, region_box("e0", [-1.0], [1.0]), tag="p")
    q = GenPoint.constant(line, Point("e0", [0.1]), tag="q")
    with pytest.raises(OutOfDomain) as want:
        loop_series(p, q, GRID, cfg)
    with pytest.raises(OutOfDomain) as got:
        points_equal(q, p, grid=GRID, cfg=cfg)
    with pytest.raises(OutOfDomain) as got_pq:
        points_equal(p, q, grid=GRID, cfg=cfg)
    assert "50" in str(want.value) and str(got_pq.value) == str(want.value)
    assert str(got.value) == str(want.value)

    def late_failure(eps):  # an error after the bad eps: the loop raises OutOfDomain first
        if eps < GRID.values()[5]:
            raise ZeroDivisionError("late")
        return at(eps)

    with pytest.raises(OutOfDomain):
        points_equal(GenPoint(line, late_failure, p.support), q, grid=GRID, cfg=cfg)
    with pytest.raises(ZeroDivisionError):
        points_equal(GenPoint(line, lambda eps: Point("e0", [1 / 0 if eps < 0.1 else 0.2]),
                              p.support), q, grid=GRID, cfg=cfg)
    assert math.isfinite(points_equal(q, q, grid=GRID, cfg=cfg).series.sup.max())

