"""Kernels against the reference implementations they replaced.

``Box.contains`` and ``Box.norm_margin`` take a stack of points, and a
point as the one-row stack; ``tensor_norm`` takes a stack of tensors.  The
reference functions below are the per-point and per-tensor bodies they
replaced (``ref_axis_margin`` on Python floats).  Every test
requires, for every point or every row of a stack, the same bool or the
same float (sign of zero and NaN included), on boundary points, non-finite
coordinates and unbounded axes.  The one exception is the 2-norm of a tiny or
huge 1x1 matrix, where numpy's SVD may round one ulp below the exact ``|v|``
that the kernel returns.

Central differences run on one grid of offsets per root (``fd_step``,
``fd_grid``, ``fd_partial``, ``manifold.fd_tensors``).  Their tensors are
compared with closed forms, within the roundoff that a step of 1e-4 leaves
at each order, and read inf exactly on the multi-indices whose stencil, or
root, meets a pole.  A stack of points shares one grid evaluation; each row
of its tensors must be byte-equal to the single-point call, and a chained
map's tensors to those of the per-point chain rule they replaced
(``ref_chained_derivs_upto``).  In these tensor comparisons (``same_bytes``)
any NaN equals any NaN, since numpy sets a NaN's sign bit by code path.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mapnets.gmap import effective_reps
from mapnets.jets import _fd_table, fd_grid, fd_partial, fd_step
from mapnets.manifold import (
    Box,
    Chart,
    LocalMap,
    SmoothMap,
    euclidean_atlas,
    fd_tensors,
    sphere_atlas,
    tensor_norm,
)

# -- numpy reference implementations ---------------------------------------


def ref_contains(box, x, margin=0.0, closed=False):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(np.isfinite(x)):
        return False
    if closed:
        return bool(np.all(x >= box.lo - margin) and np.all(x <= box.hi + margin))
    return bool(np.all(x > box.lo + margin) and np.all(x < box.hi - margin))


def ref_axis_margin(x, lo, hi):
    """The margin of the coordinate x on the axis (lo, hi), on Python floats."""
    if math.isfinite(lo) and math.isfinite(hi):
        return min(x - lo, hi - x) / (hi - lo)
    s = 1.0 + (abs(lo) if math.isfinite(lo) else 0.0) + (abs(hi) if math.isfinite(hi) else 0.0)
    m = 0.5
    if math.isfinite(lo):
        m = min(m, (x - lo) / s)
        if not math.isfinite(hi):
            m = min(m, s / (s + max(0.0, x - (lo + s))))
    if math.isfinite(hi):
        m = min(m, (hi - x) / s)
        if not math.isfinite(lo):
            m = min(m, s / (s + max(0.0, (hi - s) - x)))
    if not (math.isfinite(lo) or math.isfinite(hi)):
        m = min(m, s / (s + max(0.0, abs(x) - s)))
    return m


def ref_norm_margin(box, x):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(np.isfinite(x)):
        return -math.inf
    m = math.inf
    for xi, lo, hi in zip(x, box.lo, box.hi):
        m = min(m, ref_axis_margin(float(xi), float(lo), float(hi)))
    return m


def ref_tensor_norm(t, order):
    t = np.asarray(t, dtype=float)
    if t.ndim <= 1:
        with np.errstate(over="ignore"):
            return float(np.linalg.norm(t.ravel()))
    if t.ndim == 2 and order <= 1:
        if not np.all(np.isfinite(t)):
            return math.inf
        return float(np.linalg.norm(t, 2))
    return float(np.max(np.abs(t)))


def ref_fd_step(x):
    return 1e-4 * (1.0 + float(np.linalg.norm(x)))


def ref_grid(x):
    """The grid rows x + h*o of a root x at every offset o of ``fd_grid``, a
    coordinate at offset 0 being x's own."""
    x = np.asarray(x, dtype=float)
    offsets, _stencils = fd_grid(len(x), 3)
    return offsets, np.where(offsets == 0.0, x, x + ref_fd_step(x) * offsets)


def ref_fd_partial(vals, h, cols, weights, order):
    """One root's multi-index difference on Python floats, term by term:
    ``vals`` (M, size) are the values on the root's grid."""
    if not np.isfinite(vals[[0] + list(cols)]).all():
        return np.full(vals.shape[1], np.inf)
    out = []
    for e in range(vals.shape[1]):
        acc = 0.0
        for c, w in zip(cols, weights):
            acc += w * (float(vals[c, e]) - float(vals[0, e]))
        for _ in range(order):
            acc /= h
        out.append(acc)
    return np.array(out)


def ref_route(cm, x):
    """The per-point router that ``ChainedLocalMap._routed`` replaced:
    (route index, middle point, value) of the first admissible route at x."""
    for i, (mid, inner, outer) in enumerate(cm.routes):
        y = inner.try_call(x)
        if y is None or not mid.contains(y):
            continue
        z = outer.try_call(y)
        if z is not None:
            return i, y, z
    raise ValueError("no admissible route")


def ref_chained_derivs_upto(cm, x, k_max):
    """ChainedLocalMap.derivs_upto off the jet path, point by point: the
    derivatives of a fn map whose value and Jacobian at each grid point come
    from the root's ``ref_route``, the Jacobian by the chain rule."""
    i, _y, _z = ref_route(cm, np.atleast_1d(np.asarray(x, dtype=float)))
    _mid, inner, outer = cm.routes[i]

    def jac(w):
        y = inner(w)
        return (outer.deriv_tensor(y, 1).reshape(outer.out_size, outer.in_dim)
                @ inner.deriv_tensor(w, 1).reshape(inner.out_size, inner.in_dim))

    rep = LocalMap(cm.in_dim, cm.out_shape, fn=lambda w: outer(inner(w)), jac=jac)
    return rep.derivs_upto(x, k_max)


def same_float(a, b):
    assert type(a) is float and type(b) is float
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


# -- strategies --------------------------------------------------------------

NONFINITE = [math.nan, math.inf, -math.inf]
MARGINS = st.one_of(st.sampled_from([0.0, 1e-12, 0.25, 1.0]),
                    st.floats(min_value=0.0, max_value=2.0))


@st.composite
def axes(draw):
    """One (lo, hi) pair: bounded, half-unbounded either way, or unbounded."""
    kind = draw(st.sampled_from(["finite", "lo_only", "hi_only", "none"]))
    a = draw(st.one_of(st.integers(-4, 4).map(float),
                       st.floats(min_value=-1e3, max_value=1e3)))
    w = draw(st.one_of(st.integers(1, 4).map(float),
                       st.floats(min_value=1e-3, max_value=1e3)))
    lo, hi = a, a + w
    if kind in ("hi_only", "none"):
        lo = -math.inf
    if kind in ("lo_only", "none"):
        hi = math.inf
    return lo, hi


@st.composite
def boxes(draw, dim):
    lo, hi = zip(*(draw(axes()) for _ in range(dim)))
    return Box(list(lo), list(hi))


@st.composite
def coordinate(draw, lo, hi, margin):
    """A coordinate on, next to or far from the axis bounds, or non-finite."""
    finite_ends = [v for v in (lo, hi) if math.isfinite(v)]
    special = [v + s for v in finite_ends for s in (0.0, margin, -margin)]
    special += [np.nextafter(v, d) for v in finite_ends for d in (-math.inf, math.inf)]
    options = [st.floats(allow_nan=False, allow_infinity=False, width=64),
               st.floats(min_value=-1e4, max_value=1e4),
               st.sampled_from(NONFINITE)]
    if special:
        options.append(st.sampled_from([float(v) for v in special]))
    return draw(st.one_of(*options))


@st.composite
def box_point_margin(draw):
    dim = draw(st.integers(1, 3))
    box = draw(boxes(dim))
    margin = draw(MARGINS)
    x = [draw(coordinate(lo, hi, margin)) for lo, hi in box.bounds]
    return box, x, margin


# -- Box and Chart ------------------------------------------------------------


@given(box_point_margin(), st.booleans(), st.sampled_from(["list", "array", "scalar"]))
@settings(max_examples=300, deadline=None)
def test_box_contains_matches_reference(bpm, closed, form):
    box, x, margin = bpm
    if form == "array":
        x = np.array(x)
    elif form == "scalar" and len(x) == 1:
        x = x[0]
    got = box.contains(x, margin=margin, closed=closed)
    assert type(got) is bool
    assert got == ref_contains(box, x, margin=margin, closed=closed)
    assert box.contains(x, closed=closed) == ref_contains(box, x, closed=closed)


@given(box_point_margin())
@settings(max_examples=300, deadline=None)
def test_box_norm_margin_matches_reference(bpm):
    box, x, _ = bpm
    ref = ref_norm_margin(box, x)
    forms = [x, np.array(x)] + ([x[0], np.float64(x[0])] if len(x) == 1 else [])
    for form in forms:
        assert same_float(box.norm_margin(form), ref)


def test_every_axis_margin_branch_is_reached():
    # bounded, lo-only (inside, beyond the escape scale), hi-only (same), none
    box = Box([0.0, 1.0, -math.inf, -math.inf], [2.0, math.inf, 3.0, math.inf])
    for x in ([1.0, 2.0, 2.0, 0.0], [1.0, 1e6, -1e6, 5.0], [-1.0, 0.5, 4.0, 0.0],
              [0.0, 1.0, 3.0, 0.0], [2.0, math.inf, 0.0, 0.0]):
        assert same_float(box.norm_margin(x), ref_norm_margin(box, x))
        for closed in (False, True):
            assert box.contains(x, closed=closed) == ref_contains(box, x, closed=closed)


@st.composite
def union_charts(draw):
    dim = draw(st.integers(1, 2))
    domain = tuple(draw(boxes(dim)) for _ in range(draw(st.integers(2, 3))))
    margin = draw(MARGINS)
    pick = draw(st.sampled_from(domain))
    x = [draw(coordinate(lo, hi, margin)) for lo, hi in pick.bounds]
    return Chart("u", dim, domain), x, margin


@given(union_charts())
@settings(max_examples=200, deadline=None)
def test_union_chart_matches_reference(cxm):
    chart, x, margin = cxm
    assert chart.contains(x, margin=margin) == any(
        ref_contains(b, x, margin=margin) for b in chart.domain)
    assert same_float(chart.norm_margin(x),
                      max(ref_norm_margin(b, x) for b in chart.domain))


# -- tensor_norm ----------------------------------------------------------------

SINGLE_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -2.5, 1e200, -1e200, 1e-200, -1e-200,
                     5e-324, 1.7e308, *NONFINITE]),
    st.floats(width=64))


@given(st.lists(SINGLE_VALUES, min_size=1, max_size=6), st.integers(0, 3), st.integers(0, 3))
@settings(max_examples=400, deadline=None)
def test_single_entry_tensor_norm_matches_reference(vs, ndim, order):
    stack = np.array(vs).reshape((len(vs),) + (1,) * ndim)
    norms = tensor_norm(stack, order)
    assert norms.shape == (len(vs),)
    for v, t, got in zip(vs, stack, norms.tolist()):
        ref = ref_tensor_norm(t, order)
        if ndim == 2 and order <= 1 and math.isfinite(v) and not 1e-137 <= abs(v) <= 1e137:
            # LAPACK's SVD rescales a matrix whose entries lie outside about
            # [1e-138, 1e138], which can round the singular value of [[v]] one
            # ulp below |v|; the kernel returns the exact |v|
            assert got == abs(v) and ref in (got, float(np.nextafter(got, 0.0)))
        else:
            assert same_float(got, ref)


@given(st.integers(2, 9).flatmap(lambda n: st.lists(
    st.lists(SINGLE_VALUES, min_size=n, max_size=n), min_size=1, max_size=5)),
    st.integers(0, 3))
@settings(max_examples=100, deadline=None)
def test_multi_entry_tensor_norm_matches_reference(rows, order):
    n = len(rows[0])
    for shape in [(n,), (1, n), (n, 1, 1)]:
        stack = np.array(rows).reshape((len(rows),) + shape)
        norms = tensor_norm(stack, order)
        assert norms.shape == (len(rows),)
        for t, got in zip(stack, norms.tolist()):
            assert same_float(got, ref_tensor_norm(t, order))


# -- finite differences -----------------------------------------------------------

COORDS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324]),
                   st.floats(-5.0, 5.0),
                   st.floats(-1e6, 1e6))


def rows(n_in, min_rows=1, max_rows=4):
    return st.lists(st.lists(COORDS, min_size=n_in, max_size=n_in),
                    min_size=min_rows, max_size=max_rows).map(np.array)


def same_bytes(got, ref):
    """Bit equality, except that any NaN equals any NaN: numpy's loops set a
    NaN's sign bit by code path, not by value."""
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.shape == ref.shape and got.dtype == ref.dtype == np.float64
    nan = np.isnan(got)
    assert np.array_equal(nan, np.isnan(ref))
    assert got[~nan].tobytes() == ref[~nan].tobytes()


def test_fd_step_matches_per_row_norm():
    rng = np.random.default_rng(7)
    for n in (1, 2, 3):
        P = rng.standard_normal((20_000, n)) * rng.choice([1e-3, 1.0, 1e3], size=(20_000, 1))
        same_bytes(fd_step(P), [ref_fd_step(p) for p in P])


@given(st.integers(1, 3).flatmap(rows))
@settings(max_examples=200, deadline=None)
def test_fd_step_matches_per_row_norm_on_edge_rows(P):
    same_bytes(fd_step(P), [ref_fd_step(p) for p in P])


GRIDS = [(n, depth) for n in (1, 2, 3) for depth in (0, 1, 2, 3)]


def test_rows_per_root():
    """One grid evaluation per root: 29 user-fn rows at n = 2, k = 3, 25 at
    k = 2, 9 at k = 1 and 7 at n = 1, k = 3; a stack of roots takes its rows
    in one leaf call."""
    for (n, k), want in {(2, 3): 29, (2, 2): 25, (2, 1): 9, (1, 3): 7}.items():
        calls = []
        rep = LocalMap(n, (1,), fn=lambda x: calls.append(x) or np.array([x.sum()]))
        rep.derivs_upto(np.full(n, 0.3), k)
        assert len(calls) == want, (n, k)
        leaves = []
        fd_tensors(lambda Q: leaves.append(len(Q)) or np.zeros(len(Q)), None,
                   np.zeros((3, n)), k)
        assert leaves == [3 * want]


@pytest.mark.parametrize("n,depth", GRIDS)
def test_fd_grid_is_the_union_of_4th_order_stencils(n, depth):
    """Row 0 is the root; every other row is read by some multi-index; each
    index order up to ``depth`` belongs to one stencil, whose weights w(o)
    on the offsets o != 0 have the moments of D^alpha to 4th order:
    sum_o w(o) o^beta / beta! = [beta == alpha] for 0 < |beta| < |alpha| + 4."""
    offsets, stencils = fd_grid(n, depth)
    assert offsets.shape[1] == n and not offsets[0].any()
    assert len({tuple(o) for o in offsets}) == len(offsets)
    assert sorted({c for _orders, cols, _w in stencils for c in cols}) == list(
        range(1, len(offsets)))
    orders = [idx for o, _c, _w in stencils for idx in o]
    assert sorted(orders) == sorted(idx for d in range(1, depth + 1)
                                    for idx in itertools.product(range(n), repeat=d))
    for idxs, cols, weights in stencils:
        alpha = [idxs[0].count(i) for i in range(n)]
        assert all([idx.count(i) for i in range(n)] == alpha for idx in idxs)
        for beta in itertools.product(range(sum(alpha) + 4), repeat=n):
            if 0 < sum(beta) < sum(alpha) + 4:
                moment = sum(w * math.prod(o ** b / math.factorial(b)
                                           for o, b in zip(offsets[c], beta))
                             for c, w in zip(cols, weights))
                assert moment == pytest.approx(float(list(beta) == alpha), abs=1e-12)


@given(st.integers(1, 3).flatmap(rows))
@settings(max_examples=100, deadline=None)
def test_the_leaf_reads_the_grid_of_every_root(P):
    """The leaf's rows are, root by root, x + h*o at the grid's offsets, with
    the root's one step h = 1e-4 * (1 + |x|) and a coordinate at offset 0 kept
    as x's own (-0.0 too)."""
    seen = []
    fd_tensors(lambda Q: seen.append(Q) or np.zeros(len(Q)), None, P, 3)
    got = seen[0].reshape(len(P), -1, P.shape[1])
    for i, x in enumerate(P):
        same_bytes(got[i], ref_grid(x)[1])


@st.composite
def grid_values(draw, non_finite):
    """Roots P (N, n), values (N, M, n_out) on their grids and the grid's
    (n, depth); with ``non_finite``, one value of each root's grid is
    non-finite."""
    n, depth = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    P = draw(rows(n))
    offsets, _stencils = fd_grid(n, depth)
    n_out = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vals = rng.uniform(-1e3, 1e3, (len(P), len(offsets), n_out))
    if non_finite:
        for i in range(len(P)):
            vals[i, draw(st.sampled_from([0, draw(st.integers(0, len(offsets) - 1))])),
                 draw(st.integers(0, n_out - 1))] = draw(st.sampled_from(NONFINITE))
    return P, vals, n, depth


def check_fd_partial(P, vals, n, depth):
    """``fd_partial`` of all stencils at once against ``ref_fd_partial`` of
    each stencil at each root, byte for byte; returns (partials, bad), bad
    whether each (root, stencil) reads a non-finite value."""
    h = fd_step(P)
    stencils = fd_grid(n, depth)[1]
    got = fd_partial(vals, h.reshape((len(P),) + (1,) * (vals.ndim - 2)), n, depth)
    assert got.shape == (len(P), len(stencils)) + vals.shape[2:]
    bad = np.zeros((len(P), len(stencils)), dtype=bool)
    for s, (orders, cols, weights) in enumerate(stencils):
        for i in range(len(P)):
            bad[i, s] = not np.isfinite(vals[i, [0] + cols]).all()
            same_bytes(got[i, s], ref_fd_partial(vals[i], h[i], cols, weights, len(orders[0])))
    return got, bad


@given(grid_values(non_finite=True))
@settings(max_examples=100, deadline=None)
def test_fd_partial_one_non_finite_value_gives_all_inf(case):
    """A multi-index whose root or stencil holds a non-finite value reads
    inf over the whole value shape; the others keep their sums."""
    got, bad = check_fd_partial(*case)
    assert bad.any() and np.all(got[bad] == np.inf)


@given(grid_values(non_finite=False))
@settings(max_examples=100, deadline=None)
def test_fd_partial_finite_matches_reference(case):
    check_fd_partial(*case)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_fd_partial_exact_zeros_read_plus_zero(n):
    """Partials that are exactly zero, a constant map's (its terms are
    +-0.0) and the even ones of an odd map at 0 (their terms cancel), read
    +0.0 as the per-term reference does: the sum starts at +0.0, and the
    0.0-weight padding of the shorter stencils adds +0.0."""
    offsets = fd_grid(n, 3)[0]
    P = np.array([np.zeros(n), [-0.0, 0.5, -2.0][:n]])
    grids = P[:, None, :] + fd_step(P)[:, None, None] * offsets
    for vals in (np.broadcast_to([-0.0, 3.7], grids.shape[:2] + (2,)).copy(), grids ** 3):
        got, _bad = check_fd_partial(P, vals, n, 3)
        zero = got[0] == 0.0
        assert zero.any() and not np.signbit(got[0][zero]).any()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_fd_partial_of_negative_zero_terms_reads_plus_zero(n):
    """Root s's values make every term of stencil s -0.0 (a +0.0 root, and
    -0.0 where the weight is positive, +0.0 where it is negative): the sum
    from +0.0 reads +0.0, not the -0.0 of the terms alone."""
    offsets, stencils = fd_grid(n, 3)
    vals = np.zeros((len(stencils), len(offsets), 1))
    for s, (_orders, cols, weights) in enumerate(stencils):
        vals[s, cols, 0] = np.where(np.array(weights) > 0.0, -0.0, 0.0)
    got, _bad = check_fd_partial(np.zeros((len(stencils), n)), vals, n, 3)
    diagonal = got[np.arange(len(stencils)), np.arange(len(stencils))]
    assert np.all(diagonal == 0.0) and not np.signbit(diagonal).any()


def test_fd_partial_pads_the_shorter_stencils():
    """n = 3, depth 3: stencils of 4 to 64 columns share one padded table;
    each still sums its own terms only."""
    offsets, stencils = fd_grid(3, 3)
    assert len({len(cols) for _o, cols, _w in stencils}) > 1
    rng = np.random.default_rng(3)
    P = rng.uniform(-2.0, 2.0, (4, 3))
    check_fd_partial(P, rng.uniform(-1e3, 1e3, (4, len(offsets), 2)), 3, 3)


def accumulate_fd_partial(vals, h, n, depth):
    """``fd_partial`` as one ``np.add.accumulate`` over the padded table, with
    the non-finite mask built at every call: the form the column-by-column
    ``+=`` replaced."""
    cols, weights, starts = _fd_table(n, depth)
    v = np.ascontiguousarray(np.moveaxis(vals, 1, 0))
    with np.errstate(invalid="ignore", over="ignore"):
        terms = weights.reshape(weights.shape + (1,) * (v.ndim - 1)) * (v[cols] - v[0])
        terms[:, 0] += 0.0
        out = np.add.accumulate(terms, axis=1)[:, -1]
        for s in starts:
            out[s:] /= h
    bad = ~np.isfinite(v).reshape(v.shape[:2] + (-1,)).all(axis=2)
    out[bad[0] | bad[cols].any(axis=1)] = np.inf
    return np.moveaxis(out, 0, 1)


@pytest.mark.parametrize("n,depth,shape", [(1, 3, ()), (2, 3, (2,)), (2, 2, (2, 2)),
                                           (3, 3, (1,)), (2, 1, (3,))])
def test_fd_partial_sums_as_the_accumulate_form(n, depth, shape):
    """Byte for byte the accumulate form, on random stacks with a non-finite
    root, a NaN stencil value, -0.0 differences and finite rows."""
    rng = np.random.default_rng(20 * n + depth)
    offsets = fd_grid(n, depth)[0]
    P = rng.uniform(-2.0, 2.0, (6, n))
    vals = rng.uniform(-1e3, 1e3, (6, len(offsets)) + shape)
    vals[1, 0] = math.inf  # a non-finite root
    vals[2, rng.integers(1, len(offsets))] = math.nan  # a NaN stencil value
    vals[3] = -0.0  # -0.0 differences
    vals[3, 0] = 0.0
    vals[4] = vals[4, :1]  # a constant map
    h = fd_step(P).reshape((len(P),) + (1,) * len(shape))
    got, want = fd_partial(vals, h, n, depth), accumulate_fd_partial(vals, h, n, depth)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    finite = np.delete(vals, [1, 2], axis=0)  # no non-finite value: no mask is built
    h = np.delete(h, [1, 2], axis=0)
    got, want = fd_partial(finite, h, n, depth), accumulate_fd_partial(finite, h, n, depth)
    assert got.tobytes() == want.tobytes()


def test_fd_errors_on_a_closed_form_stay_near_the_nested_stencils():
    """e^(0.3 x0) (cos x1, sin x1) at (0.3, -0.7): the largest relative error
    of an entry at orders 1, 2, 3 read 6.9e-13, 2.4e-8 and 8.6e-4 from the
    nested stencil tree this grid replaced, and read 4.7e-13, 1.0e-7 and
    9.8e-4 here.  Roundoff at h = 1e-4 rules orders 2 and 3, and one stencil
    of order 2 or 3 weighs it more than nested first differences do (sum |w|
    2.8 and 5.5 against 2.25 and 3.4), so the bar is ten times the tree's."""
    x = np.array([0.3, -0.7])
    rep = LocalMap(2, (2,), fn=lambda y: math.exp(0.3 * y[0]) * np.array(
        [math.cos(y[1]), math.sin(y[1])]))
    ts = rep.derivs_upto(x, 3)
    for k, tree_error in ((1, 6.9e-13), (2, 2.4e-8), (3, 8.6e-4)):
        want = np.empty((2,) + (2,) * k)
        for idx in itertools.product(range(2), repeat=k):
            r, phase = math.exp(0.3 * x[0]) * 0.3 ** idx.count(0), x[1] + idx.count(1) * math.pi / 2
            want[(slice(None),) + idx] = [r * math.cos(phase), r * math.sin(phase)]
        assert np.abs((ts[k] - want) / want).max() <= 10 * tree_error, k


def test_a_constant_map_has_derivatives_of_exactly_zero():
    """Differences to the root's value: the weights' float sum is not 0, the
    differences of a constant are."""
    for n in (1, 2, 3):
        rep = LocalMap(n, (2, 2), fn=lambda x: np.array([[0.1, -3.7], [1e5, math.pi]]))
        X = np.array([[0.3, -1.1, 2.0][:n], [-0.0, 1e3, 0.5][:n]])
        for t in rep.derivs_upto(X, 3)[1:]:
            assert np.all(t == 0.0) and not np.signbit(t).any()


def test_a_non_finite_root_reads_inf_at_every_order():
    rep = LocalMap(2, (1,), fn=lambda x: np.array([math.inf if x[0] == 0.25 else x[0]]))
    ts = rep.derivs_upto(np.array([[0.25, 0.5], [0.5, 0.5]]), 3)
    for t in ts[1:]:
        assert np.all(t[0] == np.inf) and np.all(np.isfinite(t[1]))


POLE_RADIUS = 3e-5  # below a third of any step (1e-4 * (1 + |x|))


def fd_map(in_dim, out_shape, with_jac, pole, kind, seed, signed=False):
    """A fn map sin(A x + c), optionally with its Jacobian, non-finite
    (``kind`` in entry 0) within POLE_RADIUS of x0 = pole; ``signed`` adds a
    term that depends on the sign of zero coordinates (no closed form)."""
    rng = np.random.default_rng(seed)
    size = math.prod(out_shape)
    A, c = rng.uniform(-1.0, 1.0, (size, in_dim)), rng.uniform(-1.0, 1.0, size)

    def fn(x):
        y = np.sin(A @ x + c) + (1e-3 * np.copysign(1.0, x).sum() if signed else 0.0)
        if abs(x[0] - pole) < POLE_RADIUS:
            y[0] = kind
        return y

    def jac(x):
        J = np.cos(A @ x + c)[:, None] * A
        if abs(x[0] - pole) < POLE_RADIUS:
            J[0, -1] = kind
        return J

    rep = LocalMap(in_dim, out_shape, fn=fn, jac=jac if with_jac else None, name="fd_map")
    rep.closed_form = None if signed else (A, c, pole)
    return rep


# the roundoff that h = 1e-4 leaves after d differences, by d: about 4e-16
# (the error of a value of size 1) times sum |w| (1.5, 2.8, 5.5) over h^d
FD_BARS = {1: 2e-11, 2: 3e-7, 3: 3e-3}


def check_closed_form(rep, x, ts):
    """The tensors ``ts`` of ``fd_map`` ``rep`` at x against its closed form:
    order 0 the value's bits, order 1 with a Jacobian the Jacobian's bits;
    elsewhere inf over the value shape on each multi-index whose stencil or
    root lies at the pole, else within FD_BARS of the closed form."""
    A, c, pole = rep.closed_form
    x = np.asarray(x, dtype=float)
    same_bytes(ts[0], rep._value(x))
    offsets, Q = ref_grid(x)
    at_pole = np.abs(Q[:, 0] - pole) < POLE_RADIUS
    diffs = 0 if rep.jac is None else 1
    _, stencils = fd_grid(len(x), 3)
    for k in range(1, len(ts)):
        if k == diffs:
            same_bytes(ts[k], np.asarray(rep.jac(x)).reshape(ts[k].shape))
            continue
        want = np.empty((len(c),) + (len(x),) * k)
        for idx in itertools.product(range(len(x)), repeat=k):
            want[(slice(None),) + idx] = np.sin(A @ x + c + k * math.pi / 2) * math.prod(
                A[:, j] for j in idx)
        want = want.reshape(ts[k].shape)
        for orders, cols, _w in stencils:
            if len(orders[0]) == k - diffs and at_pole[[0] + cols].any():
                for idx in orders:
                    want[(..., *idx)] = np.inf
        inf = np.isinf(want)
        assert np.all(ts[k][inf] == np.inf), k
        assert np.abs(ts[k][~inf] - want[~inf]).max(initial=0.0) <= FD_BARS[k - diffs], k


@st.composite
def fd_cases(draw):
    in_dim = draw(st.integers(1, 3))
    k = draw(st.integers(0, 3 if in_dim < 3 else 2))
    out_shape = draw(st.sampled_from([(1,), (2,), (2, 2)]))
    x = np.array(draw(st.lists(st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-2.0, 2.0)),
                               min_size=in_dim, max_size=in_dim)))
    # a pole 0, 1, -2 or 3 steps from x0 puts non-finite values on grid rows
    pole = x[0] + draw(st.sampled_from([0.0, 1.0, -2.0, 3.0, 1e4])) * ref_fd_step(x)
    rep = fd_map(in_dim, out_shape, draw(st.booleans()), pole,
                 draw(st.sampled_from(NONFINITE)), draw(st.integers(0, 3)))
    return rep, x, k


@given(fd_cases())
@settings(max_examples=150, deadline=None)
def test_fd_tensors_match_closed_forms(case):
    rep, x, k = case
    ts = rep.derivs_upto(x, k)
    assert len(ts) == k + 1
    check_closed_form(rep, x, ts)
    same_bytes(rep.deriv_tensor(x, k), ts[k])


def test_fd_tensors_order3_in_3d_mark_only_the_stencils_at_the_pole():
    for with_jac in (False, True):
        x = np.array([0.3, -0.0, 1.2])
        # only the widest offsets along axis 0 reach the pole: +3h of the
        # order-3 stencil of x0 alone, or +2h of the Jacobian's grid
        steps = 2.0 if with_jac else 3.0
        rep = fd_map(3, (2,), with_jac, 0.3 + steps * ref_fd_step(x), math.inf, 5)
        ts = rep.derivs_upto(x, 3)
        assert np.isinf(ts[3]).any() and np.isfinite(ts[3]).any()
        assert not with_jac or np.isinf(ts[2]).any()
        check_closed_form(rep, x, ts)


def chained_sphere_rep(jac=None):
    """The 'south' representative of a map given only out of 'north': a 2-D fn
    map, with an optional Jacobian, after the sphere's inversion transition."""
    sphere, plane = sphere_atlas(), euclidean_atlas([(-10.0, 10.0)] * 2)
    rep = LocalMap(2, (2,), fn=lambda x: np.array([math.sin(x[0]) * x[1], math.exp(0.3 * x[0])]),
                   jac=jac, name="plain")
    sm = SmoothMap(sphere, plane, {("north", "e0"): rep})
    return effective_reps(sm, "south")["e0"]


@given(st.lists(st.floats(0.3, 2.0), min_size=2, max_size=2),
       st.lists(st.booleans(), min_size=2, max_size=2), st.integers(0, 3))
@settings(max_examples=25, deadline=None)
def test_chained_map_matches_the_per_point_chain(coords, flips, k):
    cm = chained_sphere_rep()
    assert type(cm).__name__ == "ChainedLocalMap"
    x = np.array([-c if f else c for c, f in zip(coords, flips)])
    for got, want in zip(cm.derivs_upto(x, k), ref_chained_derivs_upto(cm, x, k), strict=True):
        same_bytes(got, want)


def test_chain_jacobians_take_one_call_per_route(monkeypatch):
    """A stacked derivs_upto of a chained fn map differentiates the chain on
    one grid per row, whose Jacobians are one stacked call per factor of the
    route (each factor a plain fn map, so one grid of its own), not one per
    grid row."""
    from mapnets import manifold

    grids = []
    tensors = manifold.fd_tensors

    def counted(values, jacobians, P, k_max):
        grids.append((len(P), k_max))
        return tensors(values, jacobians, P, k_max)

    monkeypatch.setattr(manifold, "fd_tensors", counted)
    cm = chained_sphere_rep()
    X = np.array([[x, y] for x in (0.4, -1.1, 1.7, -0.6) for y in (0.5, 1.3, -0.8, -1.9)])
    ts = cm.derivs_upto(X, 3)
    assert grids == [(16, 3), (16 * 25, 1), (16 * 25, 1)], grids
    for i, x in enumerate(X):
        for j, want in enumerate(ref_chained_derivs_upto(cm, x, 3)):
            same_bytes(ts[j][i], want)


# -- stacked points: one grid evaluation over every row ---------------------------


@st.composite
def stacked_fd_cases(draw):
    """A fn map (optionally with a Jacobian, optionally sign-of-zero
    dependent) and 1-16 rows, some with -0.0 coordinates, one with a pole 0,
    1, -2 or 3 steps off."""
    in_dim = draw(st.integers(1, 3))
    k = draw(st.integers(0, 3 if in_dim < 3 else 2))
    coords = st.lists(st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-2.0, 2.0)),
                      min_size=in_dim, max_size=in_dim)
    X = np.array(draw(st.lists(coords, min_size=1, max_size=16)))
    near = X[draw(st.integers(0, len(X) - 1))]
    pole = near[0] + draw(st.sampled_from([0.0, 1.0, -2.0, 3.0, 1e4])) * ref_fd_step(near)
    rep = fd_map(in_dim, draw(st.sampled_from([(1,), (2,), (2, 2)])), draw(st.booleans()),
                 pole, draw(st.sampled_from(NONFINITE)), draw(st.integers(0, 3)),
                 signed=draw(st.booleans()))
    return rep, X, k


@given(stacked_fd_cases())
@settings(max_examples=60, deadline=None)
def test_stacked_derivs_match_single_points_and_reference(case):
    rep, X, k = case
    stacked = rep.derivs_upto(X, k)
    assert len(stacked) == k + 1
    for i, x in enumerate(X):
        single = rep.derivs_upto(x, k)
        for j in range(k + 1):
            assert stacked[j].shape == (len(X),) + single[j].shape
            same_bytes(stacked[j][i], single[j])
        if rep.closed_form is not None:
            check_closed_form(rep, x, single)
    same_bytes(rep.deriv_tensor(X, k), stacked[k])


@given(stacked_fd_cases())
@settings(max_examples=40, deadline=None)
def test_stacked_derived_map_matches_parent_orders(case):
    rep, X, k = case
    assume(k > 0)
    stacked = rep.derivative_map().derivs_upto(X, k - 1)
    for i, x in enumerate(X):
        parent = rep.derivs_upto(x, k)
        for j, t in enumerate(stacked):
            same_bytes(t[i], parent[j + 1])
    same_bytes(rep.derivative_map().deriv_tensor(X, k - 1), stacked[-1])


def two_route_chain():
    """A 1-D chained map with two routes: rows with x > 0 chain two
    expressions (one jet evaluation), the others chain two plain fn maps (FD)."""
    from mapnets.gmap import ChainedLocalMap
    from mapnets.jets import sin

    outer = LocalMap.from_expr(lambda t: sin(2.0 * t) + t * t, name="outer-expr")
    routes = [(Chart("pos", 1, Box([0.0], [math.inf])),
               LocalMap.from_expr(lambda t: t, name="id-expr"), outer),
              (Chart("all", 1, Box([-math.inf], [math.inf])),
               LocalMap(1, (1,), fn=lambda x: x, name="id-fn"),
               LocalMap(1, (1,), fn=lambda x: np.array([math.sin(2.0 * x[0]) + x[0] * x[0]]),
                        name="outer-fn"))]
    return ChainedLocalMap(routes, 1, (1,), name="two-route"), outer


@given(st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1e-5, -1e-5]), st.floats(-2.0, 2.0)),
                min_size=1, max_size=16), st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_stacked_chain_routes_each_row_on_its_own(xs, k):
    cm, outer = two_route_chain()
    X = np.array(xs)[:, None]
    stacked = cm.derivs_upto(X, k)
    for i, x in enumerate(X):
        single = cm.derivs_upto(x, k)
        if x[0] > 0.0:  # the jet route
            ref = outer.derivs_upto(x, k)
        elif x[0] < -1e-3:  # the FD route, every grid row on it too
            ref = ref_chained_derivs_upto(cm, x, k)
        else:  # grid rows right of 0 take the jet route, which the reference lacks
            ref = single
        for j in range(k + 1):
            same_bytes(stacked[j][i], single[j])
            same_bytes(stacked[j][i], ref[j])


@given(st.lists(st.tuples(st.floats(0.3, 2.0), st.floats(0.3, 2.0), st.booleans(),
                          st.booleans()), min_size=1, max_size=16), st.integers(0, 3))
@settings(max_examples=15, deadline=None)
def test_stacked_chained_map_matches_the_per_point_chain(points, k):
    cm = chained_sphere_rep()
    X = np.array([[-a if fa else a, -b if fb else b] for a, b, fa, fb in points])
    stacked = cm.derivs_upto(X, k)
    for i, x in enumerate(X):
        for j, want in enumerate(ref_chained_derivs_upto(cm, x, k)):
            same_bytes(stacked[j][i], want)


# -- one derivative path: exact_order, deriv_tensor, chained jet maps ------------


def ref_exact_to(rep, k):
    """The per-order rule that ``exact_order`` replaced: whether order-k
    tensors come from an exact oracle (no FD)."""
    from mapnets.gmap import ChainedLocalMap
    from mapnets.manifold import _DerivedMap

    if isinstance(rep, _DerivedMap):
        return ref_exact_to(rep.parent, k + 1)
    if isinstance(rep, ChainedLocalMap):
        if k == 0 or all(inner.expr is not None and outer.expr is not None
                         for _ok, inner, outer in rep.routes):
            return True
        return k == 1 and all(ref_exact_to(inner, 1) and ref_exact_to(outer, 1)
                              for _ok, inner, outer in rep.routes)
    if k == 0 or rep.expr is not None:
        return True
    return k == 1 and rep.jac is not None


def sigma_chain():
    """The (e0, e0) representative of compose(sigma_sin, sigma_tanh) at eps 1/4:
    one route that chains two expressions."""
    from mapnets.gallery import get_net
    from mapnets.gmap import compose

    return compose(get_net("sigma_sin"), get_net("sigma_tanh")).at(0.25).locals[("e0", "e0")]


def exact_order_cases():
    from mapnets.jets import sin

    expr = LocalMap.from_expr(lambda t: sin(t), name="sin")
    fn_jac = fd_map(2, (2,), True, 9.0, math.inf, 0)
    fn = fd_map(2, (2,), False, 9.0, math.inf, 0)
    return [
        ("expr", expr, math.inf),
        ("fn+jac", fn_jac, 1),
        ("fn", fn, 0),
        ("D(expr)", expr.derivative_map(), math.inf),
        ("D(fn+jac)", fn_jac.derivative_map(), 0),
        ("D(D(fn+jac))", fn_jac.derivative_map().derivative_map(), -1),
        ("D(fn)", fn.derivative_map(), -1),
        ("chain of expressions", sigma_chain(), math.inf),
        ("sphere chain, jac rep", chained_sphere_rep(
            jac=lambda x: np.array([[math.cos(x[0]) * x[1], math.sin(x[0])],
                                    [0.3 * math.exp(0.3 * x[0]), 0.0]])), 1),
        ("sphere chain, fn rep", chained_sphere_rep(), 0),
        ("two-route chain", two_route_chain()[0], 0),
    ]


def test_exact_order_matches_the_per_order_rule():
    for label, rep, want in exact_order_cases():
        assert rep.exact_order == want, label
        for k in range(5):
            assert (k <= rep.exact_order) == ref_exact_to(rep, k), (label, k)


def test_stacked_chain_of_expressions_builds_no_local_map(monkeypatch):
    cm = sigma_chain()
    built = []
    init = LocalMap.__init__

    def counted(self, *args, **kwargs):
        built.append(type(self).__name__)
        init(self, *args, **kwargs)

    monkeypatch.setattr(LocalMap, "__init__", counted)
    X = np.linspace(-1.0, 1.0, 33)[:, None]
    ts = cm.derivs_upto(X, 3)
    assert built == []
    for i, x in enumerate(X):
        for j, want in enumerate(cm.maps[0].derivs_upto(x, 3)):
            same_bytes(ts[j][i], want)


def expression_reps():
    """(label, rep, points) for every representative of the gallery's nets at
    two eps and for every registered expression family."""
    from mapnets.exprs import EXPRESSION_FAMILIES, build_expr
    from mapnets.gallery import get_net, list_nets

    X = np.linspace(-1.0, 1.0, 33)[:, None]
    for name in list_nets():
        for eps in (0.25, 2.0**-10):
            for pair, rep in sorted(get_net(name).at(eps).locals.items()):
                yield f"{name}@{eps}:{pair}", rep, X
    for family in EXPRESSION_FAMILIES:
        for eps in (0.25, 2.0**-10):
            rep = LocalMap.from_expr(build_expr(family)(eps), name=family)
            yield f"{family}@{eps}", rep, X + 2.0 if family == "exp_recip" else X


def test_expression_deriv_tensor_reads_derivs_upto():
    for label, rep, X in expression_reps():
        assert rep.expr is not None, label
        for k in (1, 2, 3):
            same_bytes(rep.deriv_tensor(X, k), rep.derivs_upto(X, k)[k])


def test_expression_order0_tensor_is_the_value():
    for label, rep, X in expression_reps():
        for x in X:
            assert np.array_equal(rep.deriv_tensor(x, 0), rep(x)), (label, x)
