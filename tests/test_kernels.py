"""Per-point kernels against their numpy reference implementations.

``Box.contains``, ``Box.norm_margin``, ``tensor_norm`` and ``fd_partial``
run once per sampled point and work on Python floats.  The reference
functions below are the numpy bodies they replaced; every test requires the
same bool or the same float (sign of zero and NaN included), on boundary
points, non-finite coordinates and unbounded axes.  The one exception is the
2-norm of a tiny or huge 1x1 matrix, where numpy's SVD may round one ulp
below the exact ``|v|`` that the kernel returns.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mapnets.jets import fd_partial, fd_step
from mapnets.manifold import Box, Chart, _axis_margin, tensor_norm

# -- numpy reference implementations ---------------------------------------


def ref_contains(box, x, margin=0.0, closed=False):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(np.isfinite(x)):
        return False
    if closed:
        return bool(np.all(x >= box.lo - margin) and np.all(x <= box.hi + margin))
    return bool(np.all(x > box.lo + margin) and np.all(x < box.hi - margin))


def ref_norm_margin(box, x):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(np.isfinite(x)):
        return -math.inf
    m = math.inf
    for xi, lo, hi in zip(x, box.lo, box.hi):
        m = min(m, _axis_margin(float(xi), float(lo), float(hi)))
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


def ref_fd_partial(g, x, axis, h=None):
    x = np.asarray(x, dtype=float)
    if h is None:
        h = fd_step(x)
    e = np.zeros_like(x)
    e[axis] = 1.0
    gp2 = np.asarray(g(x + 2 * h * e), dtype=float)
    gp1 = np.asarray(g(x + h * e), dtype=float)
    gm1 = np.asarray(g(x - h * e), dtype=float)
    gm2 = np.asarray(g(x - 2 * h * e), dtype=float)
    if not all(np.all(np.isfinite(v)) for v in (gp2, gp1, gm1, gm2)):
        return np.full(gp1.shape, np.inf)
    return (-gp2 + 8.0 * gp1 - 8.0 * gm1 + gm2) / (12.0 * h)


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


@given(SINGLE_VALUES, st.integers(0, 3), st.integers(0, 3))
@settings(max_examples=400, deadline=None)
def test_single_entry_tensor_norm_matches_reference(v, ndim, order):
    t = np.full((1,) * ndim, v)
    got, ref = tensor_norm(t, order), ref_tensor_norm(t, order)
    if ndim == 2 and order <= 1 and math.isfinite(v) and not 1e-137 <= abs(v) <= 1e137:
        # LAPACK's SVD rescales a matrix whose entries lie outside about
        # [1e-138, 1e138], which can round the singular value of [[v]] one
        # ulp below |v|; the kernel returns the exact |v|
        assert got == abs(v) and ref in (got, float(np.nextafter(got, 0.0)))
    else:
        assert same_float(got, ref)


@given(st.lists(SINGLE_VALUES, min_size=2, max_size=9), st.integers(0, 3))
@settings(max_examples=100, deadline=None)
def test_multi_entry_tensor_norm_matches_reference(vals, order):
    for shape in [(len(vals),), (1, len(vals)), (len(vals), 1, 1)]:
        t = np.array(vals).reshape(shape)
        assert same_float(tensor_norm(t, order), ref_tensor_norm(t, order))


# -- fd_partial -------------------------------------------------------------------


def stencil_map(values):
    """A map that returns the given outputs in stencil call order."""
    it = iter(values)
    return lambda x: next(it)


@given(st.integers(1, 3), st.integers(1, 3), st.data())
@settings(max_examples=200, deadline=None)
def test_fd_partial_one_non_finite_value_gives_all_inf(n_in, n_out, data):
    x = np.array(data.draw(st.lists(st.floats(-5.0, 5.0), min_size=n_in, max_size=n_in)))
    axis = data.draw(st.integers(0, n_in - 1))
    values = [np.array(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=n_out,
                                          max_size=n_out))) for _ in range(4)]
    which = data.draw(st.integers(0, 3))
    comp = data.draw(st.integers(0, n_out - 1))
    values[which][comp] = data.draw(st.sampled_from(NONFINITE))
    got = fd_partial(stencil_map(values), x, axis)
    ref = ref_fd_partial(stencil_map(values), x, axis)
    assert got.shape == (n_out,) and np.all(got == np.inf)
    assert np.array_equal(got, ref)


@given(st.integers(1, 3), st.integers(1, 3), st.data())
@settings(max_examples=100, deadline=None)
def test_fd_partial_finite_matches_reference(n_in, n_out, data):
    x = np.array(data.draw(st.lists(st.floats(-5.0, 5.0), min_size=n_in, max_size=n_in)))
    axis = data.draw(st.integers(0, n_in - 1))
    values = [np.array(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=n_out,
                                          max_size=n_out))) for _ in range(4)]
    got = fd_partial(stencil_map(values), x, axis)
    ref = ref_fd_partial(stencil_map(values), x, axis)
    assert got.tobytes() == ref.tobytes()
