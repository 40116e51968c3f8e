"""Array jets against float jets, and stacked sweeps against per-point ones.

A jet whose coefficients are ``(N,)`` arrays is N float jets evaluated at
once.  Every operation and wrapper, every registered expression family and
every representative of the gallery nets must give, row by row, the bits of
the float jet at that row (-0.0 and inf included, any NaN as NaN), raise
where some row raises, and warn nowhere.  A stacked ``try_call`` must agree with per-point
calls, ``_chart_sups`` must admit exactly the lattice points the per-point
rule admits, and a sweep must evaluate one jet per representative and one
``tensor_norm`` per order for each (piece, target chart) group over all its
(eps, point) rows when the nets take eps columns, not one per eps or per
lattice point.
"""

import collections
import math
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_jet_reference import (
    ANY_FLOAT,
    JET_OPS,
    ORDERS,
    SCALAR_OPS,
    UNARY_OPS,
    WRAPPERS,
    coeff_lists,
)
from test_stacked_tables import escaping_net

from mapnets import gmap, jets
from mapnets.asymptotics import EpsGrid
from mapnets.errors import DerivativeUndefined
from mapnets.exprs import EXPRESSION_FAMILIES, build_expr
from mapnets.gallery import get_atlas, get_net, get_region, list_nets
from mapnets.gmap import (
    MapNet,
    _chart_sups,
    _merge_l_prime,
    check_cbounded,
    check_equiv,
    check_moderate,
    compose,
    effective_reps,
    embed_smooth,
)
from mapnets.jets import Jet
from mapnets.manifold import (
    Box,
    CompactRegion,
    LocalMap,
    SmoothMap,
    euclidean_atlas,
    sphere_atlas,
)

RAISES = (ZeroDivisionError, ValueError, OverflowError)


# -- helpers -------------------------------------------------------------------


def array_jet(rows):
    """The array jet whose row i has the coefficients rows[i]."""
    j = Jet.var(np.zeros(len(rows)), len(rows[0]) - 1)
    j.c = tuple(np.array(col, dtype=float) for col in zip(*rows))
    return j


def bits(v):
    """The bits of a float, any NaN as one: a NaN's sign bit is not a value,
    and numpy's loops set it differently from float arithmetic (and from
    call to call, by code path)."""
    return b"nan" if math.isnan(v) else np.float64(v).tobytes()


def run_quietly(fn, *args):
    """('ok', result) or ('raise', exception type); any warning is an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                return "ok", fn(*args)
            except RAISES as exc:
                return "raise", type(exc)


def same_bits(a, b) -> bool:
    return a.shape == b.shape and list(map(bits, a.ravel().tolist())) == list(
        map(bits, b.ravel().tolist()))


def coeffs_of(out, order):
    """The coefficients of an expression's output (a jet or a constant)."""
    if isinstance(out, Jet):
        return out.c
    return (float(out),) + (0.0,) * order


def assert_rows_match(array_out, row_outs, order):
    """The array outcome is the float outcomes of its rows, bit for bit; it
    raises iff some row raises, with that row's exception type."""
    raised = [o[1] for o in row_outs if o[0] == "raise"]
    if raised:
        assert array_out == ("raise", raised[0]), (array_out, row_outs)
        return
    assert array_out[0] == "ok", array_out
    got = coeffs_of(array_out[1], order)
    n = len(row_outs)
    for i, (_ok, out) in enumerate(row_outs):
        want = coeffs_of(out, order)
        assert len(got) == len(want)
        for a, w in zip(got, want):
            assert type(w) is float
            assert bits(np.broadcast_to(a, (n,))[i]) == bits(w), (i, got, want)


# -- strategies ----------------------------------------------------------------


@st.composite
def stacks(draw, values=ANY_FLOAT):
    """(array jet, per-row coefficient lists): 1-6 rows of one order, either
    the variable at points (float higher coefficients) or arbitrary jets."""
    order = draw(ORDERS)
    n = draw(st.integers(1, 6))
    if draw(st.booleans()):
        x0 = [draw(values) for _ in range(n)]
        rows = [list(Jet.var(x, order).c) for x in x0]
        return Jet.var(np.array(x0), order), rows
    rows = [draw(coeff_lists(order, values)) for _ in range(n)]
    return array_jet(rows), rows


# -- every jet operation, row by row -------------------------------------------


@pytest.mark.parametrize("name", sorted(SCALAR_OPS))
@given(data=stacks(), s=ANY_FLOAT)
@settings(max_examples=60, deadline=None)
def test_scalar_operand_rows(name, data, s):
    jet, rows = data
    op = SCALAR_OPS[name]
    assert_rows_match(run_quietly(op, jet, s), [run_quietly(op, Jet(r), s) for r in rows],
                      len(rows[0]) - 1)


@pytest.mark.parametrize("name", sorted(JET_OPS))
@given(data=stacks(), other=st.data())
@settings(max_examples=60, deadline=None)
def test_jet_operand_rows(name, data, other):
    jet, rows = data
    order, n = len(rows[0]) - 1, len(rows)
    rows2 = [other.draw(coeff_lists(order)) for _ in range(n)]
    op = JET_OPS[name]
    assert_rows_match(run_quietly(op, jet, array_jet(rows2)),
                      [run_quietly(op, Jet(a), Jet(b)) for a, b in zip(rows, rows2)], order)


@pytest.mark.parametrize("name", sorted(UNARY_OPS))
@given(data=stacks())
@settings(max_examples=60, deadline=None)
def test_unary_rows(name, data):
    jet, rows = data
    op = UNARY_OPS[name]
    assert_rows_match(run_quietly(op, jet), [run_quietly(op, Jet(r)) for r in rows],
                      len(rows[0]) - 1)


@pytest.mark.parametrize("name", sorted(WRAPPERS))
@given(data=stacks())
@settings(max_examples=60, deadline=None)
def test_wrapper_rows(name, data):
    jet, rows = data
    fn = WRAPPERS[name][0]
    assert_rows_match(run_quietly(fn, jet), [run_quietly(fn, Jet(r)) for r in rows],
                      len(rows[0]) - 1)


def test_bump_masks_rows_outside_the_support():
    x = np.array([-2.0, -1.0, -0.5, 0.0, 0.999, 1.0, 3.0, math.nan])
    out = run_quietly(jets.bump, Jet.var(x, 3))
    assert out[0] == "ok"
    assert_rows_match(out, [run_quietly(jets.bump, Jet.var(v, 3)) for v in x], 3)
    for k in range(4):
        assert np.all(out[1].c[k][[0, 1, 5, 6]] == 0.0)


def test_derivatives_of_an_array_jet_are_rows_per_order():
    x = np.array([0.3, -1.2])
    d = jets.sin(Jet.var(x, 3)).derivatives()
    assert d.shape == (4, 2)
    for i, v in enumerate(x):
        assert same_bits(d[:, i], jets.sin(Jet.var(v, 3)).derivatives())


# -- expression families and gallery representatives ---------------------------

LATTICE = np.concatenate([np.linspace(-1.0, 1.0, 33), [-0.0, 5.0, 40.0, -300.0]])


@pytest.mark.parametrize("family", EXPRESSION_FAMILIES)
def test_expression_families_match_float_jets(family):
    for eps in (0.25, 2.0**-10, 2.0**-40):
        expr = build_expr(family)(eps)
        for x in (LATTICE, LATTICE + 2.0):
            for order in range(5):
                assert_rows_match(run_quietly(lambda j: expr(j), Jet.var(x, order)),
                                  [run_quietly(lambda j: expr(j), Jet.var(v, order))
                                   for v in x], order)


def gallery_reps():
    """(label, representative) for every local representative of the
    gallery's nets at three eps."""
    for name in list_nets():
        for eps in (0.25, 2.0**-10, 2.0**-16):
            for pair, rep in sorted(get_net(name).at(eps).locals.items()):
                yield f"{name}@{eps}:{pair}", rep


def same_values(a, b):
    return a.shape == b.shape and bool(np.all((a == b) | (np.isnan(a) & np.isnan(b))))


def test_gallery_representatives_stack_like_points():
    X = LATTICE[:, None]
    for label, rep in gallery_reps():
        stacked = rep.derivs_upto(X, 4)
        for i, x in enumerate(X):
            for k, t in enumerate(rep.derivs_upto(x, 4)):
                assert same_bits(stacked[k][i], t), (label, x, k)
        values = rep.try_call(X)
        assert values.shape == (len(X),) + rep.out_shape
        for x, y in zip(X, values):
            want = rep.try_call(x)
            if want is None:
                assert np.all(np.isnan(y)), (label, x)
            else:
                assert same_values(y, want), (label, x, y, want)


# -- overflow and raising rows -------------------------------------------------


def test_overflowing_rows_are_silent_and_match_points():
    rep = LocalMap.from_expr(lambda t: jets.exp(t) * jets.tanh(t * t * t), name="big")
    X = np.array([[0.5], [800.0], [709.5], [-800.0], [1e103], [-0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stacked = rep.derivs_upto(X, 3)
        for i, x in enumerate(X):
            for k, t in enumerate(rep.derivs_upto(x, 3)):
                assert same_bits(stacked[k][i], t), (x, k)
    assert np.isinf(stacked[0][1]).all() and np.isnan(stacked[2][1]).all()


@pytest.mark.parametrize("expr,xs,bad", [
    (lambda t: 1.0 / t, [1.0, -2.0, 0.0, 3.0, 0.0], 2),
    (lambda t: jets.log(t), [1.0, 2.0, 0.0, 3.0, -1.0], 2),
    (lambda t: jets.sin(t), [0.5, math.inf, 1.0, -math.inf], 1),
    (lambda t: jets.sqrt(t * t), [0.5, -0.25, -0.0, 1.0], 2),
], ids=["reciprocal", "log", "sin", "sqrt-square"])
def test_a_raising_row_is_named_as_by_the_point_call(expr, xs, bad):
    rep = LocalMap.from_expr(expr, name="partial")
    X = np.array(xs)[:, None]
    with pytest.raises(DerivativeUndefined) as stacked:
        rep.derivs_upto(X, 2)
    with pytest.raises(DerivativeUndefined) as point:
        rep.derivs_upto(X[bad], 2)
    assert str(stacked.value) == str(point.value)
    values = rep.try_call(X)
    for x, y in zip(X, values):
        want = rep.try_call(x)
        assert np.all(np.isnan(y)) if want is None else same_values(y, want)


def raising_fn(x):
    if x[0] < 0.0:
        raise ValueError("negative")
    return [math.sqrt(x[0]), 2.0 * x[0]]


@pytest.mark.parametrize("rep", [
    LocalMap(1, (2,), fn=raising_fn, defined=lambda x: x[0] != 9.0, name="fn"),
    LocalMap.from_expr(lambda t: jets.sqrt(t * t), name="abs"),
], ids=["fn", "sqrt-square"])
def test_a_raising_stack_reads_each_defined_row_once_by_value(rep, monkeypatch):
    """Where ``_values`` raises, ``_tried`` reads each defined row from one
    ``_value`` call (None where that raises too), after one ``_defined_rows``."""
    X = np.array([[4.0], [-1.0], [0.0], [9.0], [-0.0], [0.25]])
    defined = [rep.defined is None or rep.defined(x) for x in X]
    want = []
    for x, d in zip(X, defined):
        try:
            want.append(rep._value(x) if d else None)
        except ValueError:
            want.append(None)
    calls = collections.Counter()
    for hook in ("_value", "_defined_rows"):
        monkeypatch.setattr(LocalMap, hook, lambda self, P, f=getattr(LocalMap, hook), hook=hook:
                            calls.update([hook]) or f(self, P))
    Y, ok = rep._tried(X)
    assert calls == {"_value": sum(defined), "_defined_rows": 1}
    assert ok.tolist() == [w is not None for w in want]
    for y, w in zip(Y, want):
        assert np.isnan(y).all() if w is None else y.tobytes() == w.tobytes()


# -- admission from the image tables ------------------------------------------

GRID = EpsGrid(0.5, 2, 9)


def ref_lands_in(x, reps, chart_b, b, L_prime):
    """The per-point admission rule the stacked one replaced."""
    for rep in reps:
        y = rep.try_call(x)
        if y is None or not chart_b.contains(y):
            return False
        if L_prime is not None and not any(box.contains(y, closed=True)
                                           for box in L_prime.get(b, ())):
            return False
    return True


def ref_groups(nets, K, grid, L_prime):
    """(eps, src chart, dst chart, admitted lattice points) of every group
    with an admitted point, in sweep order, by the per-point rule; every
    representative of the nets must land a point."""
    out = []
    for eps in grid.values():
        for cid, lat in K.lattices():
            reps = [effective_reps(u.at(eps), cid) for u in nets]
            for b in sorted(set.intersection(*[set(r) for r in reps])):
                rows = [x for x in lat
                        if ref_lands_in(x, [r[b] for r in reps], nets[0].dst.chart(b), b,
                                        L_prime)]
                if rows:
                    out.append((float(eps), cid, b, np.array(rows)))
    return out


def stacked_groups(nets, K, grid, L_prime, cfg):
    """The same groups as ``_chart_sups`` admits them from the nets' image
    tables, read off the stacks it hands to a recording map's ``derivs_upto``
    (a stack at an eps column split by eps), in the per-point rule's order."""
    seen = []

    def pieces(eps, cid):
        reps = [effective_reps(u.at(eps), cid) for u in nets]
        for b in sorted(set.intersection(*[set(r) for r in reps])):
            def derivs_upto(X, k_max, eps=eps, cid=cid, b=b, rep=reps[0][b]):
                col = np.broadcast_to(eps, len(X))
                for e in dict.fromkeys(col.tolist()):
                    seen.append((e, cid, b, X[col == e].copy()))
                return rep.derivs_upto(X, k_max)

            # it owns its rows and differentiates itself (no ``fd_leaf``): one
            # call per eps run
            rep = reps[0][b]
            yield b, types.SimpleNamespace(derivs_upto=derivs_upto, fd_leaf=lambda k_max: None,
                                           owners=lambda P: None, in_dim=rep.in_dim,
                                           out_shape=rep.out_shape)

    _chart_sups(nets, K, grid, 1, L_prime, pieces, lambda pi, cid, b, k: "", cfg)
    return sorted(seen, key=lambda g: -g[0])  # stable: piece, then chart, within an eps


def sphere_net():
    """A plane-to-sphere net with a fn map into 'north' and its inversion,
    undefined at 0, into 'south'."""
    plane = euclidean_atlas([(-3.0, 3.0)] * 2, name="plane")
    sphere = sphere_atlas()

    def factory(eps):
        north = LocalMap(2, (2,), fn=lambda x, s=1.0 + eps: s * x, name="north")
        south = LocalMap(2, (2,), fn=lambda x, s=1.0 + eps: (s * x) / float((s * x) @ (s * x)),
                         defined=lambda x: float(x @ x) > 1e-12, name="south")
        return {("e0", "north"): north, ("e0", "south"): south}

    return MapNet(plane, sphere, factory, tag="sphere-net")


def admission_cases():
    from mapnets.manifold import region_box

    K_unit, K_half = get_region("K_unit"), get_region("K_half")
    for name in list_nets():
        for K in (K_unit, K_half):
            yield name, [get_net(name)], K
    yield "sin-vs-sin_plus_eps2", [get_net("sigma_sin"), get_net("sin_plus_eps2")], K_unit
    yield "sin o tanh", [compose(get_net("sigma_sin"), get_net("sigma_tanh"))], K_unit
    yield "sphere", [sphere_net()], region_box("e0", [-1.0, -1.0], [1.0, 1.0], density=9)
    # images that leave every chart: escaped table rows, and no L' (no c-boundedness report)
    psi = SmoothMap(get_atlas("interval02"), get_atlas("halfline_exp"),
                    {("e0", "e0"): LocalMap.from_expr(lambda y: jets.exp(1.0 / y))},
                    name="exp_recip")
    yield "transformed epsilon_into_0_2", [compose(embed_smooth(psi),
                                                   get_net("epsilon_into_0_2"))], K_unit
    yield "escaping", [escaping_net({"c0": 2.0**-8, "c1": 2.0**-5})], CompactRegion(
        [("c0", Box([-2.5], [-1.5])), ("c1", Box([1.5], [2.5]))], lattice_density=4)


ESCAPING = {"transformed epsilon_into_0_2", "escaping"}
ESCAPE_GRID = EpsGrid(0.5, 2, 11)  # the transformed counterexample escapes below 2^-9


@pytest.mark.parametrize("label,nets,K", list(admission_cases()),
                         ids=[c[0] for c in admission_cases()])
def test_stacked_admission_matches_the_per_point_rule(label, nets, K, cfg):
    grid = ESCAPE_GRID if label in ESCAPING else GRID
    tables = [u.image_table(K, grid) for u in nets]
    assert any(t.escape for t in tables) == (label in ESCAPING)
    assert all(t.margins.max() > -math.inf for t in tables)  # some row is admitted
    L_primes = [None]
    if label not in ESCAPING:
        L_primes.append(_merge_l_prime(*[check_cbounded(u, K, grid, cfg) for u in nets]))
    for L_prime in L_primes:
        want = ref_groups(nets, K, grid, L_prime)
        got = stacked_groups(nets, K, grid, L_prime, cfg)
        assert [g[:3] for g in got] == [w[:3] for w in want], label
        for (*_, X), (*_, Y) in zip(got, want):
            assert X.tobytes() == Y.tobytes(), label


def test_series_builders_evaluate_no_point_once_tables_exist(monkeypatch, cfg):
    """Admission reads the image tables: once they exist, the three derivative
    series builders make no ``try_call`` (the base nets' tables serve the
    matrix parts of vb-homomorphisms)."""
    from mapnets.vbundle import matrix_gap_series, tangent

    u, v, K = get_net("sin_plus_eps2"), get_net("sigma_sin"), get_region("K_unit")
    tu, tv = tangent(u), tangent(v)
    for net in (u, v, tu.base_net, tv.base_net):
        net.image_table(K, GRID)
    calls = []
    try_call = LocalMap.try_call
    monkeypatch.setattr(LocalMap, "try_call",
                        lambda self, x: calls.append(self.name) or try_call(self, x))
    assert gmap.derivative_sup_series(u, K, GRID, 2, None, cfg)
    assert gmap.chart_gap_series(u, v, K, GRID, 2, None, cfg)
    assert matrix_gap_series(tu, tv, K, GRID, 1, None, cfg)
    assert not calls


def test_an_image_of_the_wrong_dimension_is_refused():
    from mapnets.gmap import _in_boxes
    from mapnets.manifold import Box, Chart

    with pytest.raises(ValueError):
        Chart("c", 2, (Box([-1.0, -1.0], [1.0, 1.0]),)).contains(np.zeros((3, 1)))
    inside = _in_boxes(np.array([[0.0, 0.0], [np.inf, 0.0], [np.nan, 0.0], [2.0, 0.0]]),
                       [Box([-np.inf, -1.0], [np.inf, 1.0])])
    assert inside.tolist() == [True, False, False, True]


# -- one jet and one norm per group ---------------------------------------------


@pytest.fixture
def counters(monkeypatch):
    """Jet.var calls by order, and tensor_norm calls made by the sweeps."""
    calls = {"var": [], "norm": 0}
    var = Jet.var.__func__
    norm = gmap.tensor_norm

    def counted_var(cls, x0, order):
        calls["var"].append(order)
        return var(cls, x0, order)

    def counted_norm(t, order):
        calls["norm"] += 1
        return norm(t, order)

    monkeypatch.setattr(Jet, "var", classmethod(counted_var))
    monkeypatch.setattr(gmap, "tensor_norm", counted_norm)
    return calls


def test_check_moderate_evaluates_per_group(counters, cfg):
    """One jet per (piece, target chart) over all its (eps, point) rows."""
    u, K, k_max = get_net("heaviside_tanh"), get_region("K_unit"), 3
    L_prime = _merge_l_prime(check_cbounded(u, K, GRID, cfg))
    groups = ref_groups([u], K, GRID, L_prime)
    counters["var"].clear()
    counters["norm"] = 0
    check_moderate(u, K, GRID, k_max, cfg)
    assert len(groups) == len(GRID)
    assert len({g[1:3] for g in groups}) == 1  # one (piece, target chart)
    assert counters["var"] == [k_max]  # admission reads the image table
    assert counters["norm"] == k_max + 1


def test_check_equiv_evaluates_per_group_and_representative(counters, cfg):
    """One jet per (piece, target chart) and representative over all eps."""
    u, v, K, k_max = get_net("sin_plus_eps2"), get_net("sigma_sin"), get_region("K_unit"), 2
    L_prime = _merge_l_prime(check_cbounded(u, K, GRID, cfg), check_cbounded(v, K, GRID, cfg))
    groups = ref_groups([u, v], K, GRID, L_prime)
    counters["var"].clear()
    counters["norm"] = 0
    check_equiv(u, v, K, GRID, k_max, cfg)
    assert len(groups) == len(GRID)
    assert len({g[1:3] for g in groups}) == 1
    assert counters["var"] == [k_max, k_max]  # admission reads the image tables
    assert counters["norm"] == k_max + 1



def test_a_value_branching_expression_is_differentiated_row_by_row(monkeypatch):
    """An expression that branches on its value cannot take an array jet
    (``bool`` of an array raises), so ``derivs_upto`` on a stack takes the
    float jet of each row: byte for byte the per-point calls."""
    m = LocalMap.from_expr(lambda t: jets.sin(t) if jets.value_of(t) > 0 else -t, name="branch")
    P = np.array([[-0.5], [0.0], [0.3], [0.7], [-1e-300]])
    want = [m.derivs_upto(x, 3) for x in P]
    calls = []
    jet_coeffs = LocalMap._jet_coeffs
    monkeypatch.setattr(LocalMap, "_jet_coeffs",
                        lambda self, x0, k: calls.append(np.ndim(x0)) or jet_coeffs(self, x0, k))
    got = m.derivs_upto(P, 3)
    assert calls == [1] + [0] * len(P)  # the array jet raised, then one float jet per row
    for k, t in enumerate(got):
        assert t.shape == (len(P), 1) + (1,) * k
        for i, w in enumerate(want):
            assert t[i].tobytes() == w[k].tobytes(), (k, i)
    assert got[1][:, 0, 0].tolist() == [-1.0, -1.0, math.cos(0.3), math.cos(0.7), -1.0]
