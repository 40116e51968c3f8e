"""Image tables built with one array pass, against the per-point calls.

``MapNet.image_table`` evaluates each eps with one stacked ``SmoothMap``
call per source-chart group of the sample points, then chooses the best
candidate and finds every chart representation once for the whole table,
through the stacked forms of ``Box``/``Chart.contains``,
``Box``/``Chart.norm_margin``, ``Atlas.rechart`` and
``Atlas.representations``.  These tests pin each stacked kernel bit for bit
to its per-point call, the table to the per-point best-candidate rule
(including which ``ChartEscape`` it records and the checks raise), the
number of calls per table, and its images as the stacked ``try_call`` values.
"""

import collections
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_image_table import K_LINE, K_SQUARE, MULTI, NETS

from mapnets import jets
from mapnets.asymptotics import EpsGrid
from mapnets.config import Config
from mapnets.errors import ChartEscape
from mapnets.gallery import REGISTRY, get_atlas, get_net, get_region, list_nets
from mapnets.gmap import MapNet, check_cbounded, scalar_net
from mapnets.manifold import (
    Atlas,
    Box,
    Chart,
    CompactRegion,
    LocalMap,
    Point,
    SmoothMap,
    product_atlas,
    region_box,
)

# -- one value path for the table and the sweeps' admission --------------------


@pytest.mark.parametrize("label,expr", [("sqrt", lambda t: jets.sqrt(1.0 + t * t)),
                                        ("pow", lambda t: (2.0 + t) ** 1.5)])
def test_table_images_are_the_admission_values(label, expr):
    """The table's images, which the derivative sweeps admit points by, are
    the stacked ``try_call`` values (the order-0 jet of an expression), the
    value path of those sweeps' tensors; the float expression differs from
    them in the last bits at many of these 1,001 points (sqrt and ** on a
    jet go through exp and log)."""
    line = get_atlas("line")
    u = scalar_net(line, line, lambda eps: expr, tag=label)
    K = region_box("e0", [-1.0], [1.0], density=1001)
    eps = 2.0**-16
    table = u.image_table(K, EpsGrid(0.5, 11, 16))
    want = u.at(eps).local("e0", "e0").try_call(K.lattices()[0][1])
    got = table.coords[table.rows[eps], :, 0, :1]
    differ = int(np.sum(got != want))
    assert differ == 0, f"{differ} of {len(want)} images differ from the admission values"


# -- stacked containment and margins, bit for bit ----------------------------------

SPECIALS = [0.0, -0.0, math.inf, -math.inf, math.nan]


@st.composite
def boxes(draw, dim):
    """A box with finite or infinite bounds (as in ``halfline_exp``)."""
    lo, hi = [], []
    for _ in range(dim):
        a, b = sorted(draw(st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=2,
                                    unique=True)))
        lo.append(-math.inf if draw(st.booleans()) and draw(st.booleans()) else a)
        hi.append(math.inf if draw(st.booleans()) and draw(st.booleans()) else b)
    return Box(lo, hi)


@st.composite
def box_cases(draw):
    """(boxes of one dimension, margin, stack): rows mix coordinates exactly on
    a (shifted) bound, NaN, +-inf, signed zeros and arbitrary floats."""
    dim = draw(st.integers(1, 3))
    bxs = draw(st.lists(boxes(dim), min_size=1, max_size=3))
    margin = draw(st.one_of(st.sampled_from([0.0, 0.25]), st.floats(0.0, 2.0)))
    edges = [v for b in bxs for lo, hi in b.bounds for v in (lo, hi, lo + margin, lo - margin,
                                                              hi + margin, hi - margin)
             if math.isfinite(v)]
    coord = st.one_of(st.sampled_from(edges + SPECIALS), st.floats(-30.0, 30.0),
                      st.floats(allow_nan=False))
    rows = draw(st.lists(st.lists(coord, min_size=dim, max_size=dim), min_size=1, max_size=6))
    return bxs, margin, np.array(rows, dtype=float)


def same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


@given(case=box_cases())
@settings(max_examples=200, deadline=None)
def test_stacked_box_and_chart_kernels_match_point_calls(case):
    bxs, margin, X = case
    for box in bxs:
        for closed in (False, True):
            want = [box.contains(x, margin=margin, closed=closed) for x in X]
            assert box.contains(X, margin=margin, closed=closed).tolist() == want
        assert same_bits(box.norm_margin(X), [box.norm_margin(x) for x in X])
    chart = Chart("c", X.shape[1], tuple(bxs))
    assert chart.contains(X, margin=margin).tolist() == [chart.contains(x, margin=margin)
                                                          for x in X]
    assert same_bits(chart.norm_margin(X), [chart.norm_margin(x) for x in X])


def test_stacked_kernels_keep_leading_axes_and_refuse_a_wrong_dimension():
    box = get_atlas("halfline_exp").chart("e0").main_box
    X = np.array([[[0.5], [2.0]], [[math.exp(0.5)], [math.inf]]])
    assert box.contains(X, closed=True).tolist() == [[False, True], [True, False]]
    assert box.norm_margin(X).shape == (2, 2)
    for kernel in (box.contains, box.norm_margin):
        with pytest.raises(ValueError):
            kernel(np.zeros((3, 2)))


# -- stacked rechart and representations on every atlas -----------------------------

ATLASES = {**{name: get_atlas(name) for name in REGISTRY["atlases"]},
           "multichart": MULTI, "product": product_atlas(get_atlas("circle"),
                                                          get_atlas("line"))}


def probe_stack(atlas, cid):
    """Points of chart cid: a lattice of its main box (clipped to +-6), its
    corners, points outside it, and a NaN and an inf row."""
    box = atlas.chart(cid).main_box
    lo, hi = np.maximum(box.lo, -6.0), np.minimum(box.hi, 6.0)
    lattice = Box(lo, hi).lattice(7)
    extra = np.array([lo - 0.5, hi + 0.5, lo, hi, np.full(len(lo), math.nan),
                      np.full(len(lo), math.inf), np.zeros(len(lo))])
    return np.concatenate([lattice, extra])


@pytest.mark.parametrize("name", sorted(ATLASES))
def test_stacked_representations_match_point_calls(name):
    atlas = ATLASES[name]
    for cid in atlas.chart_ids:
        X = probe_stack(atlas, cid)
        stacked = {b: (Y, M) for b, Y, M in atlas.representations(Point(cid, X))}
        for b in atlas.chart_ids:
            rechart = atlas.rechart(Point(cid, X), b)
            for r, x in enumerate(X):
                y = atlas.rechart(Point(cid, x), b)
                if rechart is None or y is None:
                    assert rechart is None or np.isnan(rechart[r]).all()
                else:
                    assert same_bits(rechart[r], y)
        for r, x in enumerate(X):
            want = {b: (y, m) for b, y, m in atlas.representations(Point(cid, x))}
            assert set(want) <= set(stacked)
            for b, (Y, M) in stacked.items():
                if b in want:
                    assert same_bits(Y[r], want[b][0]) and same_bits(M[r], want[b][1])
                else:
                    assert M[r] == -math.inf and np.isnan(Y[r]).all()


# -- the table against per-point evaluation ---------------------------------------

GRID = Config().grid()


def table_cases():
    for name in list_nets():
        yield name, get_net(name), get_region("K_unit")
    yield "sphere-cap", NETS["sphere-cap"][0], K_SQUARE
    yield "sphere-meridian", NETS["sphere-meridian"][0], K_SQUARE  # both sphere charts
    yield "multichart", NETS["multichart"][0], K_LINE
    # a two-chart source: one piece in each chart, one in their overlap
    yield "from-multichart", scalar_net(MULTI, MULTI, lambda eps: lambda t, e=eps:
                                        0.5 * t + e, tag="half"), TWO_SOURCE_K


TWO_SOURCE_K = CompactRegion([("c0", Box([-2.5], [-1.5])), ("c1", Box([1.5], [2.5])),
                              ("c0", Box([-0.5], [0.5]))], lattice_density=5)


def point_escape(u, K, grid):
    """The ChartEscape message of the per-point loop (eps, then point), or None."""
    for eps in grid.values():
        for p in K.sample_points():
            try:
                u.eval(eps, p)
            except ChartEscape as exc:
                return str(exc)
    return None


@pytest.mark.parametrize("name,u,K", list(table_cases()), ids=[c[0] for c in table_cases()])
def test_table_rows_match_point_calls(name, u, K):
    table = u.image_table(K, GRID)
    for ei, eps in enumerate(GRID.values()):
        for pi, p in enumerate(K.sample_points()):
            q, got = u.eval(eps, p), table.image(eps, pi)
            assert got.chart == q.chart and same_bits(got.coords, q.coords), (eps, pi)
            want = {b: (y, m) for b, y, m in u.dst.representations(q)}
            for c, b in enumerate(table.charts):
                m, y = table.margins[ei, pi, c], table.coords[ei, pi, c, :table.dims[c]]
                if b in want:
                    assert same_bits(m, want[b][1]) and same_bits(y, want[b][0])
                else:
                    assert m == -math.inf and np.isnan(y).all()


@pytest.mark.parametrize("name,u,K", list(table_cases()), ids=[c[0] for c in table_cases()])
def test_stacked_call_is_each_representative_on_the_stack(name, u, K):
    for eps in GRID.values()[::7]:
        sm = u.at(eps)
        for cid in sorted({p.chart for p in K.sample_points()}):
            X = np.array([p.coords for p in K.sample_points() if p.chart == cid])
            got = sm(Point(cid, X))
            reps = [(b, rep) for (a, b), rep in sorted(sm.locals.items()) if a == cid]
            assert [q.chart for q in got] == [b for b, _rep in reps]
            for q, (_b, rep) in zip(got, reps):
                for x, y in zip(X, q.coords):
                    want = rep.try_call(x)
                    assert np.isnan(y).all() if want is None else same_bits(y, want)


def escaping_net(piece_eps):
    """MULTI -> line; the image of a point of chart a leaves the line (|y| > 10)
    for eps < piece_eps[a]."""
    def factory(eps):
        def rep(a):
            return LocalMap(1, (1,), fn=lambda x: x * (20.0 if eps < piece_eps[a] else 1.0),
                            name=f"escape:{a}")
        return {(a, "e0"): rep(a) for a in ("c0", "c1")}

    return MapNet(MULTI, get_atlas("line"), factory, tag="escape")


@pytest.mark.parametrize("piece_eps", [{"c0": 2.0**-8, "c1": 2.0**-5},
                                       {"c0": 2.0**-5, "c1": 2.0**-8},
                                       {"c0": 2.0**-5, "c1": 2.0**-5}])
def test_chart_escape_names_the_first_eps_then_point(piece_eps):
    K = CompactRegion([("c0", Box([-2.5], [-1.5])), ("c1", Box([1.5], [2.5]))],
                      lattice_density=4)
    u = escaping_net(piece_eps)
    want = point_escape(u, K, GRID)
    assert want is not None
    table = u.image_table(K, GRID)  # an escape is a row of the table, not a build failure
    assert str(table.escape) == want
    with pytest.raises(ChartEscape) as exc:
        check_cbounded(u, K, GRID, Config())
    assert str(exc.value) == want


# -- one stacked call per (eps, source chart), the rest once per table ------------


def test_one_call_per_eps_and_source_chart_and_dst_work_once(monkeypatch):
    counts = collections.Counter()

    def counted(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    for owner, name in ((SmoothMap, "__call__"), (Atlas, "representations"),
                        (Atlas, "rechart"), (Chart, "norm_margin"), (Chart, "contains")):
        counted(owner, name)
    per_grid = []
    for grid in (EpsGrid(0.5, 2, 7), GRID):
        u = scalar_net(MULTI, MULTI, lambda eps: lambda t, e=eps: 0.5 * t + e, tag="half")
        counts.clear()
        table = u.image_table(TWO_SOURCE_K, grid)
        # two source charts hold points, and every (eps, point) row has a candidate
        assert counts.pop("__call__") == 2 * len(grid)
        assert counts["representations"] == len(np.unique(table.chart)) == 2
        per_grid.append(dict(counts))
    assert per_grid[0] == per_grid[1]  # no dst-side call per eps
