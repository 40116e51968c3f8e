"""The atlas maps mapnets builds from closed formulas, as array formulas.

Sphere inversion (with its Jacobian and domain), the round, flat and
identity fields, the identity transitions of a multichart plane and the
product transitions and block fields each take a point or a whole stack in
one call (``manifold._StackMap``).  The per-point formulas they replaced are
kept here as the reference (``ref_*``): on more than 10,000 rows, ordinary
and extreme (the origin, +-inf, NaN, the 1e-12 edge of the inversion's
domain, magnitudes 1e-150 to 1e150), every point call, stacked value,
Jacobian, domain mask and stacked ``try_call`` must equal them bit for bit
(any NaN equals any NaN), and a row where the formula raises must raise or
be undefined there too.  Call counts pin one call per stack.
"""

import math

import numpy as np
import pytest

from mapnets.manifold import (
    Point,
    circle_atlas,
    euclidean_atlas,
    euclidean_multichart,
    product_atlas,
    riemannian_operator_norm,
    sphere_atlas,
    tangent_bundle,
    trivial_bundle,
)
from mapnets.vbundle import identity_vbhom

SPHERE = sphere_atlas()
CIRCLE = circle_atlas()
LINE = euclidean_atlas([(-10, 10)], name="line")
PLANE = euclidean_atlas([(-2, 2), (-2, 2)], name="plane")
MULTI = euclidean_multichart({"left": [(-2, 0.5)], "right": [(-0.5, 2)]})
ROWS = 12_000

# -- the per-point formulas the array maps replaced ----------------------------


def ref_inversion(x):
    r2 = float(x @ x)
    return x / r2


def ref_inversion_jac(x):
    r2 = float(x @ x)
    return (np.eye(2) - 2.0 * np.outer(x, x) / r2) / r2


def ref_inv_defined(x):
    return 1e-12 < float(x @ x) < math.inf


def ref_round_field(x):
    c = 4.0 / (1.0 + float(x @ x)) ** 2
    return c * np.eye(2)


def ref_eye(n):
    return lambda x: np.eye(n)


def ref_block(fa, fb, na):
    def block(x):
        ga = np.asarray(fa(x[:na]), dtype=float)
        gb = np.asarray(fb(x[na:]), dtype=float)
        out = np.zeros((len(x), len(x)))
        out[:na, :na] = ga
        out[na:, na:] = gb
        return out
    return block


def ref_product_transition(ta, tb, na):
    def fn(x):
        xa, xb = x[:na], x[na:]
        ya = xa if ta == "id" else ta.try_call(xa)
        yb = xb if tb == "id" else tb.try_call(xb)
        if ya is None or yb is None:
            raise ValueError("outside overlap")
        return np.concatenate([np.atleast_1d(ya), np.atleast_1d(yb)])

    def defined(x):
        ok_a = True if ta == "id" else ta.try_call(x[:na]) is not None
        ok_b = True if tb == "id" else tb.try_call(x[na:]) is not None
        return ok_a and ok_b

    return fn, defined


def ref_operator_norm(J, G_src, G_dst):
    ws, Vs = np.linalg.eigh(G_src)
    wd, Vd = np.linalg.eigh(G_dst)
    s_inv_half = Vs @ np.diag(1.0 / np.sqrt(np.maximum(ws, 1e-300))) @ Vs.T
    d_half = Vd @ np.diag(np.sqrt(np.maximum(wd, 0.0))) @ Vd.T
    M = d_half @ np.asarray(J, dtype=float) @ s_inv_half
    if not np.all(np.isfinite(M)):
        return math.inf
    return float(np.linalg.norm(M, 2))


# -- rows ----------------------------------------------------------------------


def edge_rows(dim):
    """The origin, +-inf and NaN in each coordinate, rows whose x @ x lies
    within a few ulps of 1e-12, and rows of magnitude 1e-150 to 1e150."""
    rows = [np.zeros(dim)]
    for v in (math.inf, -math.inf, math.nan, 0.0, 1.0, 1e-300, 1e300):
        for i in range(dim):
            for w in (0.0, 1.0, math.inf, math.nan):
                x = np.full(dim, w)
                x[i] = v
                rows.append(x)
    t = math.sqrt(1e-12)
    for k in range(-4, 5):
        s = t * (1.0 + k * 2.0**-52)
        rows.append(np.eye(dim)[0] * s)
        rows.append(np.full(dim, s / math.sqrt(dim)))
    for e in range(-150, 151, 10):
        rows.append(np.full(dim, 10.0**e))
        rows.append(np.linspace(-1.0, 1.0, dim) * 10.0**e)
    return np.array(rows)


def sample_rows(dim, seed=0):
    """ROWS random rows (half in and around the chart boxes, half at random
    magnitudes from 1e-150 to 1e150) after the edge rows."""
    rng = np.random.default_rng(seed)
    half = ROWS // 2
    near = rng.uniform(-5.0, 5.0, (half, dim))
    far = rng.standard_normal((ROWS - half, dim)) * 10.0 ** rng.uniform(-150, 150, (ROWS - half, 1))
    return np.concatenate([edge_rows(dim), near, far])


def strided(X):
    """X as a non-contiguous view (every other column of a wider array)."""
    wide = np.zeros((len(X), 2 * X.shape[1]))
    wide[:, ::2] = X
    return wide[:, ::2]


# -- comparison ----------------------------------------------------------------


def same_bytes(got, ref):
    """Bit equality, except that any NaN equals any NaN."""
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    assert got.shape == ref.shape
    nan = np.isnan(got)
    assert np.array_equal(nan, np.isnan(ref))
    assert got[~nan].tobytes() == ref[~nan].tobytes()


def attempt(f, x, shape):
    """f(x) reshaped, or None where the formula raises ArithmeticError or
    ValueError (what ``try_call`` reads as undefined)."""
    try:
        return np.asarray(f(x), dtype=float).reshape(shape)
    except (ArithmeticError, ValueError):
        return None


def check_rows(got_point, got_stack, ref, X, shape):
    """A per-point formula against a map's point call and its stacked call:
    equal bits where the formula has a value; where it raises, the point
    call raises and so does any stack holding that row."""
    want = [attempt(ref, x, shape) for x in X]
    ok = np.array([w is not None for w in want])
    for x, w in zip(X, want):
        got = attempt(got_point, x, shape)
        assert (got is None) == (w is None), x
        if w is not None:
            same_bytes(got, w)
    for Y in (X, strided(X)):
        same_bytes(got_stack(Y[ok]), np.array([w for w in want if w is not None]).reshape(
            (int(ok.sum()),) + shape))
        if not ok.all():
            with pytest.raises((ArithmeticError, ValueError)):
                got_stack(Y)
    return want


def check_map(m, X, ref_fn, ref_jac=None, ref_defined=None):
    """Values, Jacobians, domain masks and stacked ``try_call`` of map m at
    the rows X against the per-point formulas."""
    with np.errstate(all="ignore"):
        want = check_rows(m, m._values, ref_fn, X, m.out_shape)
        if ref_jac is not None:
            check_rows(m.jac, m._jacobians, ref_jac, X, m.out_shape + (m.in_dim,))
        defined = np.array([ref_defined is None or bool(ref_defined(x)) for x in X])
        for Y in (X, strided(X)):
            assert np.array_equal(m._defined_rows(Y), defined)
        if ref_defined is not None:
            assert [bool(m.defined(x)) for x in X] == defined.tolist()
        tried = np.full((len(X),) + m.out_shape, math.nan)
        for i, w in enumerate(want):
            if defined[i] and w is not None:
                tried[i] = w
        same_bytes(m.try_call(X), tried)
        for i in range(0, len(X), 97):  # the point try_call agrees
            got = m.try_call(X[i])
            assert (got is None) == (not defined[i] or want[i] is None)
            if got is not None:
                same_bytes(got, want[i])


# -- the maps ------------------------------------------------------------------


def test_sphere_inversion_is_the_per_point_formula():
    tm = SPHERE.transition_map("north", "south")
    assert tm is SPHERE.transition_map("south", "north")
    X = sample_rows(2)
    with np.errstate(all="ignore"):
        defined = [ref_inv_defined(x) for x in X]
        near_edge = [ref_inv_defined(x) for x in edge_rows(2) if 0 < float(x @ x) < 1e-11]
    assert any(defined) and not all(defined)
    assert True in near_edge and False in near_edge  # rows on both sides of 1e-12
    check_map(tm, X, ref_inversion, ref_inversion_jac, ref_inv_defined)


def test_sphere_round_field_is_the_per_point_formula():
    X = sample_rows(2, seed=1)
    with np.errstate(all="ignore"):
        raises = [attempt(ref_round_field, x, (2, 2)) is None for x in X]
    assert any(raises)  # (1 + x @ x) ** 2 past the float range raises OverflowError
    for cid in ("north", "south"):
        check_map(SPHERE.metric.fields[cid], X, ref_round_field)


@pytest.mark.parametrize("label,m,ref", [
    ("flat line", LINE.metric.fields["e0"], ref_eye(1)),
    ("flat plane", PLANE.metric.fields["e0"], ref_eye(2)),
    ("circle round", CIRCLE.metric.fields["ang0"], ref_eye(1)),
    ("multichart flat", MULTI.metric.fields["left"], ref_eye(1)),
    ("trivial vb-transition", trivial_bundle(CIRCLE, 2).vb_transitions[("ang0", "angpi")],
     ref_eye(2)),
    ("trivial fiber metric", trivial_bundle(SPHERE, 3).fiber_metric["north"], ref_eye(3)),
    ("identity vbhom Id", identity_vbhom(tangent_bundle(SPHERE)).matrices_at(0.5)[
        ("south", "south")], ref_eye(2)),
])
def test_constant_fields_are_the_per_point_formula(label, m, ref):
    check_map(m, sample_rows(m.in_dim, seed=2), ref)


def test_identity_maps_are_the_per_point_formula():
    for (a, b), tm in MULTI.transitions.items():
        box = MULTI.chart(b).main_box
        check_map(tm, sample_rows(1, seed=3), lambda x: x, ref_eye(1), box.contains)
    base = identity_vbhom(tangent_bundle(SPHERE)).base_net.at(0.5).locals[("north", "north")]
    check_map(base, sample_rows(2, seed=4), lambda x: x, ref_eye(2))


@pytest.mark.parametrize("a,b", [(CIRCLE, LINE), (LINE, SPHERE), (SPHERE, CIRCLE)])
def test_product_maps_are_the_per_point_formula(a, b):
    """Block fields, and the transitions out of one chart: the identity or a
    transition of either factor (an expression or an array map) on either side."""
    prod = product_atlas(a, b)
    dims = {cid: a.chart(cid).dim for cid in a.chart_ids}
    X = sample_rows(prod.chart(prod.chart_ids[0]).dim, seed=5)
    for cid in prod.chart_ids:
        ca, cb = cid.split("*")
        check_map(prod.metric.fields[cid], X,
                  ref_block(a.metric.fields[ca], b.metric.fields[cb], dims[ca]))
    for (p, q), tm in prod.transitions.items():
        if p != prod.chart_ids[0]:
            continue
        (pa, pb), (qa, qb) = p.split("*"), q.split("*")
        ta = "id" if pa == qa else a.transition_map(pa, qa)
        tb = "id" if pb == qb else b.transition_map(pb, qb)
        fn, defined = ref_product_transition(ta, tb, dims[pa])
        check_map(tm, X, fn, ref_defined=defined)


def test_sphere_tangent_vb_transition_masks_by_the_parent():
    """The tangent bundle's vb-transition is the derivative map of the
    inversion: its stacked ``try_call`` takes the mask from one call of the
    inversion's domain and the values from one stacked Jacobian."""
    vb = tangent_bundle(sphere_atlas()).vb_transitions[("north", "south")]
    X = sample_rows(2, seed=6)[:2000]
    with np.errstate(all="ignore"):
        got = vb.try_call(X)
        for i in range(0, len(X), 7):
            want = vb.try_call(X[i])
            if want is None:
                assert np.isnan(got[i]).all()
            else:
                same_bytes(got[i], want)


# -- one call per stack --------------------------------------------------------


def counting(f, log, key):
    def wrapped(x):
        log.append((key, np.shape(x)))
        return f(x)
    return wrapped


def test_stacked_rechart_makes_one_inversion_call(monkeypatch):
    atlas = sphere_atlas()
    tm = atlas.transition_map("north", "south")
    log = []
    for attr in ("_values", "_defined_rows"):
        monkeypatch.setattr(tm, attr, counting(getattr(tm, attr), log, attr))
    X = np.random.default_rng(7).uniform(-3.9, 3.9, (500, 2))
    Y = atlas.rechart(Point("north", X), "south")
    assert sorted(log) == [("_defined_rows", (500, 2)), ("_values", (500, 2))]
    for i in range(0, 500, 50):
        want = atlas.rechart(Point("north", X[i]), "south")
        same_bytes(Y[i], math.nan if want is None else want)


def test_stacked_derived_map_reads_the_parent_domain_once(monkeypatch):
    atlas = sphere_atlas()
    tm = atlas.transition_map("north", "south")
    log = []
    for attr in ("_values", "_jacobians", "_defined_rows"):
        monkeypatch.setattr(tm, attr, counting(getattr(tm, attr), log, attr))
    vb = tangent_bundle(atlas).vb_transitions[("north", "south")]
    vb.try_call(np.random.default_rng(8).uniform(-3.9, 3.9, (300, 2)))
    assert sorted(k for k, _shape in log) == ["_defined_rows", "_jacobians", "_values"]


def test_stacked_metric_field_is_one_call(monkeypatch):
    g = sphere_atlas().metric
    fld = g.fields["north"]
    log = []
    monkeypatch.setattr(fld, "_values", counting(fld._values, log, "_values"))
    X = np.random.default_rng(9).uniform(-3.9, 3.9, (200, 2))
    G = g.at("north", X)
    assert log == [("_values", (200, 2))]
    for i in range(0, 200, 20):
        same_bytes(G[i], g.at("north", X[i]))


# -- the stacked operator norm -------------------------------------------------


def spd(rng, n, count):
    A = rng.standard_normal((count, n, n))
    return A @ A.swapaxes(1, 2) + 0.1 * np.eye(n)


@pytest.mark.parametrize("m,n", [(1, 1), (2, 2), (1, 2), (2, 1)])
def test_operator_norm_is_the_per_point_formula(m, n):
    """Stacked and point calls equal the per-point formula they replaced
    (V @ diag(w) @ V.T, one 2-norm per matrix) bit for bit, inf rows included."""
    rng = np.random.default_rng(m * 10 + n)
    count = 3000
    J = rng.standard_normal((count, m, n)) * 10.0 ** rng.uniform(-5, 5, (count, 1, 1))
    J[::50, 0, 0] = math.inf
    G_src = spd(rng, n, count)
    G_src[1::3] = rng.uniform(0.01, 4.0, (len(G_src[1::3]), 1, 1)) * np.eye(n)  # round fields
    G_dst = spd(rng, m, count)
    with np.errstate(invalid="ignore"):  # inf * 0 in the products of an inf row
        want = np.array([ref_operator_norm(j, gs, gd) for j, gs, gd in zip(J, G_src, G_dst)])
        same_bytes(riemannian_operator_norm(J, G_src, G_dst), want)
        for i in range(0, count, 31):
            got = riemannian_operator_norm(J[i], G_src[i], G_dst[i])
            assert isinstance(got, float)
            same_bytes(got, want[i])
    assert np.isinf(want).any()
