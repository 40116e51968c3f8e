"""Stacked Riemannian distances against the per-point formulas they replaced.

``distance`` takes two stacked Points of equal length (one chart each, coords
``(N, dim)``) and makes one ``g.analytic`` call for all N rows; a point pair
is the one-row stack.  Two ``PointStack``s (rows in charts of their own)
take one such call per (p chart, q chart) pair, and ``gmap._distance_sweep``
takes the distance of its two image tables' stacks.  The ``ref_*`` functions below are
the per-point analytic distances as they were before they took stacks; every
test requires each stacked row to equal them bit for bit.  The matmul norm
behind the flat distance and the sphere's chord is checked against per-row
``np.linalg.norm`` over magnitudes 1e-150 to 1e150 and three memory layouts.
"""

import collections
import heapq
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_image_table import CFG, CHART_PAIRS, GRID

from mapnets import gmap, jets, manifold
from mapnets.errors import ChartEscape, OutOfDomain
from mapnets.gmap import metric_gap_series, scalar_net
from mapnets.manifold import (
    Atlas,
    LocalMap,
    Point,
    PointStack,
    RiemannianMetric,
    circle_atlas,
    disjoint_union,
    distance,
    euclidean_atlas,
    euclidean_multichart,
    product_atlas,
    region_box,
    sphere_atlas,
    tensor_norm,
)

# -- the per-point formulas the stacked distances replaced ---------------------


def ref_euclid(p, q):
    return float(np.linalg.norm(p.coords - q.coords))


def ref_circle_angle(p):
    t = float(p.coords[0])
    return jets.wrap_angle(t) if p.chart == "ang0" else jets.wrap_angle(t + math.pi)


def ref_circle(p, q):
    return abs(jets.wrap_angle(ref_circle_angle(p) - ref_circle_angle(q)))


def ref_sphere_embed(p):
    x = p.coords
    r2 = float(x @ x)
    z = r2 - 1.0 if p.chart == "north" else 1.0 - r2
    return np.array([2 * x[0], 2 * x[1], z]) / (r2 + 1.0)


def ref_sphere(p, q):
    chord = float(np.linalg.norm(ref_sphere_embed(p) - ref_sphere_embed(q)))
    return 2.0 * math.asin(min(1.0, chord / 2.0))


def ref_union(part_refs):
    def ref(p, q):
        pa, ca = p.chart.split(".", 1)
        qa, cb = q.chart.split(".", 1)
        if pa != qa:
            return math.inf
        return part_refs[pa](Point(ca, p.coords), Point(cb, q.coords))
    return ref


def ref_product(ref_a, ref_b, na):
    def ref(p, q):
        ca, cb = p.chart.split("*", 1)
        cc, cd = q.chart.split("*", 1)
        da = ref_a(Point(ca, p.coords[:na]), Point(cc, q.coords[:na]))
        db = ref_b(Point(cb, p.coords[na:]), Point(cd, q.coords[na:]))
        if math.isinf(da) or math.isinf(db):
            return math.inf
        return math.hypot(da, db)
    return ref


LINE = euclidean_atlas([(-5.0, 5.0)])
CIRCLE = circle_atlas()
SPHERE = sphere_atlas()
CASES = {
    # name: (atlas, per-point reference)
    "line": (LINE, ref_euclid),
    "plane": (euclidean_atlas([(-5.0, 5.0), (-2.0, 3.0)]), ref_euclid),
    "space": (euclidean_atlas([(-5.0, 5.0)] * 3), ref_euclid),
    "multichart": (euclidean_multichart({"c0": [(-5.0, 1.0), (-3.0, 3.0)],
                                         "c1": [(-1.0, 5.0), (-3.0, 3.0)]}), ref_euclid),
    "circle": (CIRCLE, ref_circle),
    "sphere": (SPHERE, ref_sphere),
    "union": (disjoint_union({"a": CIRCLE, "b": LINE}),
              ref_union({"a": ref_circle, "b": ref_euclid})),
    "circle-x-line": (product_atlas(CIRCLE, LINE), ref_product(ref_circle, ref_euclid, 1)),
    "sphere-x-line": (product_atlas(SPHERE, LINE), ref_product(ref_sphere, ref_euclid, 2)),
}


def bits(x):
    return np.float64(x).tobytes()


# -- stacked rows against the per-point formulas -------------------------------


@st.composite
def chart_coords(draw, chart):
    box = chart.main_box
    return [draw(st.floats(lo, hi, exclude_min=True, exclude_max=True))
            for lo, hi in box.bounds]


@st.composite
def stacked_pairs(draw, atlas):
    """(P, Q): a stack of rows in one chart each, some q rows the p row's
    point (in q's chart where it has a representation), some its antipode
    on the sphere."""
    cp, cq = (draw(st.sampled_from(atlas.chart_ids)) for _ in range(2))
    P, Q = [], []
    for _ in range(draw(st.integers(1, 6))):
        x = draw(chart_coords(atlas.chart(cp)))
        mode = draw(st.sampled_from(["free", "same", "antipode"]))
        y = atlas.rechart(Point(cp, x), cq) if mode == "same" else None
        if mode == "antipode" and atlas is SPHERE:
            y = atlas.rechart(Point("south" if cp == "north" else "north", -np.array(x)), cq)
        P.append(x)
        Q.append(y.tolist() if y is not None else draw(chart_coords(atlas.chart(cq))))
    return Point(cp, np.array(P)), Point(cq, np.array(Q))


@pytest.mark.parametrize("name", sorted(CASES))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_stacked_rows_equal_the_per_point_formulas(name, data):
    atlas, ref = CASES[name]
    P, Q = data.draw(stacked_pairs(atlas))
    got = distance(atlas, atlas.metric, P, Q)
    assert got.shape == (len(P.coords),)
    for i, (x, y) in enumerate(zip(P.coords, Q.coords)):
        p, q = Point(P.chart, x), Point(Q.chart, y)
        want = ref(p, q)
        assert bits(got[i]) == bits(want), (i, p, q, got[i], want)
        point = distance(atlas, atlas.metric, p, q)
        assert type(point) is float and bits(point) == bits(want)
        if np.array_equal(p.coords, q.coords) and p.chart == q.chart:
            assert bits(want) == bits(0.0)


@pytest.mark.parametrize("north", [[1.0, 0.0], [1.805502219651654, -0.11243702054838867],
                                   [-1.7316890673006753, -0.5444912928985315], [0.3, -2.5]])
def test_sphere_coincident_and_antipodal_rows(north):
    """Coincident points are exactly 0.0 in either chart; an antipode is pi
    up to its chord's rounding (chord / 2 may reach or pass 1)."""
    x = np.array(north)
    same = Point("south", x / (x @ x))
    anti_south, anti_north = Point("south", -x), Point("north", -x / (x @ x))
    P = Point("north", np.array([x, x, x]))
    for Q in (Point("north", np.array([x, -x / (x @ x), x])),
              Point("south", np.array([same.coords, anti_south.coords, same.coords]))):
        got = distance(SPHERE, SPHERE.metric, P, Q)
        want = [ref_sphere(Point("north", x), Point(Q.chart, y)) for y in Q.coords]
        assert [bits(d) for d in got] == [bits(d) for d in want]
        assert got[1] == pytest.approx(math.pi, abs=1e-7)
    assert distance(SPHERE, SPHERE.metric, Point("north", x), Point("north", x)) == 0.0
    assert distance(SPHERE, SPHERE.metric, Point("north", x), anti_north) == \
        pytest.approx(math.pi, abs=1e-7)


def test_union_rows_across_components_are_inf():
    atlas, ref = CASES["union"]
    P = Point("a.ang0", [[0.5], [-2.0]])
    Q = Point("b.e0", [[0.5], [1.0]])
    assert distance(atlas, atlas.metric, P, Q).tolist() == [math.inf, math.inf]
    assert atlas.metric.analytic(atlas, P, Q).tolist() == [math.inf, math.inf]
    same = Point("a.angpi", [[0.5], [2.9]])
    got = distance(atlas, atlas.metric, P, same)
    assert [bits(d) for d in got] == [bits(ref(Point(P.chart, x), Point(same.chart, y)))
                                      for x, y in zip(P.coords, same.coords)]
    # two columns, rows in charts of their own
    P = [Point("a.ang0", [0.5]), Point("b.e0", [1.0]), Point("a.angpi", [2.0])]
    Q = [Point("b.e0", [0.5]), Point("b.e0", [-1.0]), Point("a.ang0", [0.1])]
    got = distance(atlas, atlas.metric, PointStack.of(atlas, P), PointStack.of(atlas, Q))
    assert got[0] == math.inf and got[1] == 2.0
    assert [bits(d) for d in got] == [bits(ref(p, q)) for p, q in zip(P, Q)]


def test_product_of_a_union_with_a_line_is_inf_across_components():
    """The product's analytic distance is inf across the union's components
    (``math.hypot(inf, d)`` is inf), as ``distance`` reads it from the
    components."""
    atlas = product_atlas(disjoint_union({"a": LINE, "b": LINE}), LINE)
    P = Point("a.e0*e0", [[0.0, 1.0], [2.0, -3.0]])
    Q = Point("b.e0*e0", [[0.0, 1.0], [4.0, 4.0]])
    assert distance(atlas, atlas.metric, P, Q).tolist() == [math.inf, math.inf]
    assert atlas.metric.analytic(atlas, P, Q).tolist() == [math.inf, math.inf]
    Q = Point("a.e0*e0", Q.coords)
    assert distance(atlas, atlas.metric, P, Q).tolist() == [0.0, math.hypot(2.0, 7.0)]


def test_a_union_with_a_part_lacking_an_analytic_distance_has_none():
    graph = Atlas(list(LINE.charts.values()), {}, metric=RiemannianMetric(LINE.metric.fields))
    assert disjoint_union({"a": CIRCLE, "b": graph}).metric.analytic is None
    assert disjoint_union({"a": CIRCLE, "b": LINE}).metric.analytic is not None


def test_a_metric_without_analytic_distance_keeps_a_row_loop():
    graph = RiemannianMetric(LINE.metric.fields)
    P, Q = Point("e0", [[-1.0], [0.0]]), Point("e0", [[1.0], [0.5]])
    got = distance(LINE, graph, P, Q)
    want = [distance(LINE, graph, Point("e0", x), Point("e0", y)) for x, y in zip(P.coords, Q.coords)]
    assert got.tolist() == want
    assert want == pytest.approx([2.0, 0.5], abs=1e-9)


def square_graph_call():
    """The flat square [-1, 1]^2 with its metric but no analytic distance,
    and three point pairs (the last crossing the square)."""
    square = euclidean_atlas([(-1.0, 1.0)] * 2, name="square")
    P = Point("e0", [[-0.5, -0.5], [0.0, 0.25], [-0.9, 0.9]])
    Q = Point("e0", [[0.5, 0.5], [0.125, -0.25], [0.9, -0.9]])
    return square, RiemannianMetric(square.metric.fields), P, Q


def test_a_stacked_graph_distance_equals_its_point_calls():
    square, graph, P, Q = square_graph_call()
    want = [bits(distance(square, graph, Point("e0", x), Point("e0", y)))
            for x, y in zip(P.coords, Q.coords)]
    assert [bits(d) for d in distance(square, graph, P, Q)] == want
    assert [float(d) for d in distance(square, graph, P, Q)] == pytest.approx(
        [math.hypot(1.0, 1.0), math.hypot(0.125, 0.5), math.hypot(1.8, 1.8)], rel=0.1)


def test_a_stacked_graph_distance_builds_each_graph_once(monkeypatch):
    """Per density used, one graph's segments (rows of ``_segment_lengths``);
    per row only those that attach its two points."""
    from mapnets import manifold

    square, graph, P, Q = square_graph_call()
    calls = collections.Counter()
    seg = manifold._segment_lengths

    def counted(g, chart, X, Y):
        calls["segment"] += len(X)
        return seg(g, chart, X, Y)

    monkeypatch.setattr(manifold, "_segment_lengths", counted)

    def count(fn, *args):
        calls.clear()
        fn(*args)
        return calls["segment"]

    region = manifold._default_region(square)
    one_graph = count(manifold._graph_distance, square, graph, region, 2 * 17 - 1)
    per_point = [count(distance, square, graph, Point("e0", x), Point("e0", y))
                 for x, y in zip(P.coords, Q.coords)]
    attach = [n - one_graph for n in per_point]  # every row's fine distance is finite
    assert 0 < max(attach) < one_graph // 100
    assert count(distance, square, graph, P, Q) == one_graph + sum(attach)


def ref_segment_length(g, chart, x, y):
    v = y - x
    qs = []
    for t in (0.0, 0.5, 1.0):
        G = g.at(chart, x + t * v)
        qs.append(math.sqrt(max(0.0, float(v @ G @ v))))
    return (qs[0] + 4.0 * qs[1] + qs[2]) / 6.0


def ref_graph_distance(atlas, g, region, density):
    """The per-edge lattice graph ``_graph_distance`` replaced: one
    ``ref_segment_length`` per edge, one point ``try_call`` per glued node."""
    piece_nodes = []
    offset = 0
    for chart_id, box in region.pieces:
        pts = box.lattice(density)
        spacing = float(np.max(box.extent) / max(1, int(round(len(pts) ** (1 / box.dim))) - 1))
        piece_nodes.append((chart_id, pts, spacing, offset))
        offset += len(pts)
    adj = [[] for _ in range(offset)]

    def add_edge(i, j, w):
        adj[i].append((j, w))
        adj[j].append((i, w))

    for chart_id, pts, spacing, offset in piece_nodes:
        dim = pts.shape[1]
        n = int(round(len(pts) ** (1 / dim)))
        strides = [n ** (dim - 1 - i) for i in range(dim)]
        for flat, idx in enumerate(itertools.product(range(n), repeat=dim)):
            for off in itertools.product((-1, 0, 1), repeat=dim):
                if off <= (0,) * dim:
                    continue
                nidx = [i + o for i, o in zip(idx, off)]
                if any(i2 < 0 or i2 >= n for i2 in nidx):
                    continue
                nflat = sum(i2 * s for i2, s in zip(nidx, strides))
                add_edge(offset + flat, offset + nflat,
                         ref_segment_length(g, chart_id, pts[flat], pts[nflat]))
    for (ca, ptsa, spa, offa), (cb, ptsb, spb, offb) in itertools.permutations(piece_nodes, 2):
        tm = atlas.transition_map(ca, cb)
        if ca == cb or tm is None:
            continue
        for i, x in enumerate(ptsa):
            y = tm.try_call(x)
            if y is None or not atlas.chart(cb).contains(y):
                continue
            for j in np.where(np.linalg.norm(ptsb - y, axis=1) <= 1.2 * spb)[0]:
                add_edge(offa + i, offb + int(j), ref_segment_length(g, cb, y, ptsb[j]))

    def attach(point):
        ids = []
        for b, y, _m in atlas.representations(point):
            for chart_id, pts, spacing, offset in piece_nodes:
                if chart_id == b:
                    for j in np.where(np.linalg.norm(pts - y, axis=1) <= 2.0 * spacing)[0]:
                        ids.append((offset + int(j), ref_segment_length(g, b, y, pts[j])))
        return ids

    def shortest(p, q):
        src, dsts = attach(p), attach(q)
        if not src or not dsts:
            return math.inf
        dist = [math.inf] * len(adj)
        heap = []
        for i, w in src:
            if w < dist[i]:
                dist[i] = w
                heapq.heappush(heap, (w, i))
        while heap:
            d, i = heapq.heappop(heap)
            if d > dist[i]:
                continue
            for j, w in adj[i]:
                if d + w < dist[j]:
                    dist[j] = d + w
                    heapq.heappush(heap, (d + w, j))
        return min(dist[i] + w for i, w in dsts)

    return shortest


GRAPH_CASES = {  # atlas, metric without analytic distance, point pairs
    "square": (*square_graph_call()[:2], [(Point("e0", [-0.5, -0.5]), Point("e0", [0.5, 0.5])),
                                          (Point("e0", [-0.9, 0.9]), Point("e0", [0.9, -0.9]))]),
    "sphere": (SPHERE, RiemannianMetric(SPHERE.metric.fields),
               [(Point("north", [0.5, 0.2]), Point("south", [0.3, -1.0])),
                (Point("north", [3.0, -2.5]), Point("north", [-0.1, 0.4])),
                (Point("south", [0.0, 0.0]), Point("north", [0.0, 0.0]))]),
    "multichart": (CASES["multichart"][0], RiemannianMetric(CASES["multichart"][0].metric.fields),
                   [(Point("c0", [-4.0, 2.0]), Point("c1", [4.0, -2.0]))]),
}


@pytest.mark.parametrize("name", sorted(GRAPH_CASES))
def test_the_graph_distance_equals_the_per_edge_graph(name):
    from mapnets import manifold

    atlas, g, pairs = GRAPH_CASES[name]
    region = manifold._default_region(atlas)
    for density in (5, 9):
        got = manifold._graph_distance(atlas, g, region, density)
        want = ref_graph_distance(atlas, g, region, density)
        for p, q in pairs:
            d = want(p, q)
            assert math.isfinite(d) and d > 0.0
            assert got(p, q) == pytest.approx(d, rel=1e-12, abs=0.0)


def test_a_sphere_graph_distance_makes_stacked_calls_only(monkeypatch):
    """One distance on the sphere's two 9x9 pieces: three field calls (one
    per Simpson node) per piece, per glued piece pair and per attached
    representation (p and q have one in each chart), and no point ``try_call``."""
    g = RiemannianMetric(SPHERE.metric.fields)
    calls = collections.Counter()
    for f in g.fields.values():
        monkeypatch.setattr(f, "_values", lambda x, fn=f._values: calls.update(["field"]) or fn(x))
    try_call = LocalMap.try_call
    monkeypatch.setattr(LocalMap, "try_call", lambda self, x: calls.update(
        [f"try_call {np.ndim(x)}-d"]) or try_call(self, x))
    d = distance(SPHERE, g, Point("north", [0.5, 0.2]), Point("south", [0.3, -1.0]), density=5)
    assert math.isfinite(d)
    assert dict(calls) == {"field": 3 * (2 + 2 + 4), "try_call 2-d": 4}


# -- the matmul norm against np.linalg.norm ------------------------------------


@given(n=st.integers(1, 70), dim=st.integers(1, 3), scale=st.integers(-150, 150),
       seed=st.integers(0, 2**32 - 1), layout=st.sampled_from(["C", "F", "reversed"]))
@settings(max_examples=200, deadline=None)
def test_matmul_norm_matches_linalg_norm(n, dim, scale, seed, layout):
    D = np.random.default_rng(seed).standard_normal((n, dim)) * 10.0**scale
    want = [bits(np.linalg.norm(d)) for d in D]
    D = {"C": D, "F": np.asfortranarray(D), "reversed": D[::-1].copy()[::-1]}[layout]
    assert [bits(x) for x in tensor_norm(D, 1)] == want


@given(dim=st.integers(1, 3), scale=st.integers(-150, 150), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_flat_distance_over_all_magnitudes(dim, scale, seed):
    atlas = euclidean_atlas([(-math.inf, math.inf)] * dim)
    X = np.random.default_rng(seed).standard_normal((2, 16, dim)) * 10.0**scale
    got = distance(atlas, atlas.metric, Point("e0", X[0]), Point("e0", X[1]))
    assert [bits(d) for d in got] == [bits(ref_euclid(Point("e0", x), Point("e0", y)))
                                      for x, y in zip(X[0], X[1])]


# -- errors, in the order the point calls raised them ---------------------------


def test_first_bad_row_raises_p_before_q():
    P = Point("e0", [[0.0], [1.0], [9.0], [7.0]])
    Q = Point("e0", [[0.0], [1.0], [8.0], [1.0]])
    with pytest.raises(OutOfDomain) as got:
        distance(LINE, LINE.metric, P, Q)
    assert str(got.value) == "invalid point Point(e0, [9.])"
    Q = Point("e0", [[0.0], [6.0], [8.0], [1.0]])
    with pytest.raises(OutOfDomain) as got:
        distance(LINE, LINE.metric, P, Q)
    assert str(got.value) == "invalid point Point(e0, [6.])"
    with pytest.raises(OutOfDomain) as point:
        distance(LINE, LINE.metric, Point("e0", [1.0]), Point("e0", [6.0]))
    assert str(point.value) == str(got.value)


def test_stacks_of_different_lengths_are_refused():
    with pytest.raises(ValueError, match="stacks of 2 and 3 points"):
        distance(LINE, LINE.metric, Point("e0", [[0.0], [1.0]]),
                 Point("e0", [[0.0], [1.0], [2.0]]))
    with pytest.raises(ValueError, match="stacks of 2 and 3 points"):
        distance(LINE, LINE.metric, PointStack.of(LINE, [Point("e0", [0.0])] * 2),
                 PointStack.of(LINE, [Point("e0", [0.0])] * 3))


def test_columns_build_each_graph_once_per_call(monkeypatch):
    """Two columns whose rows fall in four chart pairs share one lattice-graph
    cache: each density's graph is built once per ``distance`` call, not once
    per chart pair."""
    multi = CASES["multichart"][0]
    graph = RiemannianMetric(multi.metric.fields)
    builds = collections.Counter()
    build = manifold._graph_distance

    def counted(atlas, g, region, density):
        builds[density] += 1
        return build(atlas, g, region, density)

    monkeypatch.setattr(manifold, "_graph_distance", counted)
    charts = ["c0", "c0", "c1", "c1"]
    P = PointStack.of(multi, [Point(c, [0.0, 0.5]) for c in charts])
    Q = PointStack.of(multi, [Point(c, [0.5, -0.5]) for c in charts[1:] + charts[:1]])
    assert len(set(zip(P.chart.tolist(), Q.chart.tolist()))) == 4
    got = distance(multi, graph, P, Q, density=5)
    assert builds == {9: 1}
    assert got == pytest.approx([math.hypot(0.5, 1.0)] * 4, rel=0.1)



# -- two columns: one stacked call per chart pair, the row loop's first error --


@st.composite
def mixed_columns(draw, atlas):
    """(P, Q): two lists of Points of one length, each row in a chart of its own."""
    n = draw(st.integers(1, 8))
    return tuple([Point(c, draw(chart_coords(atlas.chart(c))))
                  for c in draw(st.lists(st.sampled_from(atlas.chart_ids), min_size=n,
                                         max_size=n))] for _ in range(2))


@pytest.mark.parametrize("name", ["circle", "sphere", "multichart", "union"])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_mixed_chart_columns_equal_the_row_distances(name, data):
    atlas = CASES[name][0]
    P, Q = data.draw(mixed_columns(atlas))
    got = distance(atlas, atlas.metric, PointStack.of(atlas, P), PointStack.of(atlas, Q))
    assert [bits(d) for d in got] == [bits(distance(atlas, atlas.metric, p, q))
                                      for p, q in zip(P, Q)]


def column(atlas, pts, errors=None):
    """The stack of pts, a row None raising ``errors[i]``."""
    return PointStack.of(atlas, pts, lambda i: errors[i])


def test_columns_raise_the_first_error_of_the_row_loop():
    multi = CASES["multichart"][0]  # c0: (-5, 1) x (-3, 3), c1: (-1, 5) x (-3, 3)
    ok, bad_c0, bad_c1 = Point("c0", [0.0, 0.0]), Point("c0", [4.0, 0.0]), Point("c1", [9.0, 0.0])
    # q's error at row 1 comes before p's at row 2, although p's chart pair sorts first
    P = column(multi, [Point("c1", [0.0, 0.0]), Point("c1", [0.5, 0.0]), None],
               {2: KeyError("p at 2")})
    Q = column(multi, [ok, None, ok], {1: KeyError("q at 1")})
    with pytest.raises(KeyError, match="q at 1"):
        distance(multi, multi.metric, P, Q)
    # OutOfDomain of p before q in one row; the bad row of pair (c0, c0) comes later
    for p0, q0, want in ((bad_c1, bad_c0, "Point(c1, [9. 0.])"),
                         (Point("c1", [0.0, 0.0]), Point("c0", [3.0, 0.0]),
                          "Point(c0, [3. 0.])")):
        P, Q = column(multi, [p0, bad_c0]), column(multi, [q0, ok])
        with pytest.raises(OutOfDomain) as got:
            distance(multi, multi.metric, P, Q)
        assert str(got.value) == f"invalid point {want}"
    # without a metric, a row-0 point error comes first, then the missing metric
    P = column(LINE, [None, Point("e0", [0.0])], {0: ZeroDivisionError("p at 0")})
    Q = column(LINE, [Point("e0", [0.0])] * 2)
    with pytest.raises(ZeroDivisionError, match="p at 0"):
        distance(LINE, None, P, Q)
    with pytest.raises(ValueError, match="has no metric"):
        distance(LINE, None, Q, Q)


def test_sweep_raises_u_escape_before_v_escape(monkeypatch):
    """Also when v's image escapes at an earlier eps than u's (``late``
    escapes only at small eps), where the row loop would raise v's."""
    box = euclidean_atlas([(-1.0, 1.0)])
    u = scalar_net(LINE, box, lambda eps: lambda t: 5.0 + t, tag="far")
    v = scalar_net(LINE, box, lambda eps: lambda t: 7.0 + t, tag="farther")
    late = scalar_net(LINE, box, lambda eps: lambda t: (5.0 if eps < 2.0**-5 else 0.0) + 0.5 * t,
                      tag="late")
    K = region_box("e0", [-1.0], [1.0], density=5)
    assert late.image_table(K, GRID).chart[0].min() >= 0  # no escape at the first eps
    monkeypatch.setattr(gmap, "distance", lambda *a, **k: pytest.fail("a distance was taken"))
    for a, b in ((u, v), (v, u), (late, v)):
        with pytest.raises(ChartEscape) as got:
            metric_gap_series(a, b, K, None, GRID, CFG)
        assert str(got.value) == str(a.image_table(K, GRID).escape)
    assert len({str(n.image_table(K, GRID).escape) for n in (u, v, late)}) == 3


# -- the sweep: one stacked call per chart pair, the per-point formulas' rows ---

REFS = {"line": ref_euclid, "plane": ref_euclid, "euclid-multi": ref_euclid,
        "circle": ref_circle, "sphere": ref_sphere}  # by the target atlas's name


@pytest.mark.parametrize("name", sorted(CHART_PAIRS))
def test_sweep_rows_equal_the_per_point_formulas(monkeypatch, name):
    u, v, K = CHART_PAIRS[name]
    ref = REFS[u.dst.name]
    tu, tv = u.image_table(K, GRID), v.image_table(K, GRID)
    calls = collections.Counter()

    def counting(atlas, g, p, q, *args, **kwargs):
        calls[p.chart, q.chart] += 1
        return distance(atlas, g, p, q, *args, **kwargs)

    monkeypatch.setattr(manifold, "distance", counting)  # the per-chart-pair calls
    _series, dists = gmap._distance_sweep(u, v, K, None, GRID, CFG)
    want = [[bits(ref(tu.image(eps, pi), tv.image(eps, pi))) for pi in range(dists.shape[1])]
            for eps in GRID.values()]
    assert [[bits(d) for d in row] for row in dists] == want
    assert max(calls.values()) == 1
