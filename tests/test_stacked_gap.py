"""The gap between two representatives, differentiated on stacked values.

``gmap._GapMap(ru, rv).derivs_upto(x, k)`` subtracts exact tensors when both
oracles are exact through order k; otherwise its central differences
(``LocalMap.derivs_upto``) read the stacked difference
``ru._values(Q) - rv._values(Q)`` on the grids of the rows (or, when both
maps carry a Jacobian, the stacked difference of their ``jac`` values beyond
order 0).  Its reference is the per-point difference map it replaced
(``ref_difference_map``): every tensor must equal the reference's bit for
bit (any NaN as NaN), at a point and at a stack, for plain fn maps, maps with
a Jacobian, expressions with no ``sqrt`` or ``**``, chained, derived maps
and the matrix parts of composite tangent maps.  An expression operand reads its order-0 jet, as the
image tables and the chart sups do, so a gap whose expression has no jet
where it has a float value raises at every order.

An expression at an eps column takes only stacks of the column's length.
"""

import math

import numpy as np
import pytest
from test_kernels import same_bytes, two_route_chain

from mapnets import jets
from mapnets.errors import DerivativeUndefined
from mapnets.gallery import get_atlas, get_net, get_region
from mapnets.gmap import (
    ChainedLocalMap,
    MapNet,
    _GapMap,
    angle_net,
    check_equiv,
    embed_smooth,
    scalar_net,
)
from mapnets.manifold import LocalMap, SmoothMap
from mapnets.vbundle import tangent, vbhom_compose

LINE, CIRCLE = get_atlas("line"), get_atlas("circle")


def ref_difference_map(a: LocalMap, b: LocalMap) -> LocalMap:
    """The per-point difference map that ``_GapMap`` replaced: a - b as a
    LocalMap whose fn (and jac, when both maps have one) calls each operand
    at a point."""
    if a.out_shape != b.out_shape or a.in_dim != b.in_dim:
        raise ValueError("difference of maps with mismatched shapes")
    jac = None
    if a.jac is not None and b.jac is not None:
        jac = lambda x: np.asarray(a.jac(x), dtype=float) - np.asarray(b.jac(x), dtype=float)
    return LocalMap(a.in_dim, a.out_shape, fn=lambda x: a(x) - b(x), jac=jac,
                    name=f"({a.name})-({b.name})")


# -- operands -----------------------------------------------------------------


def plane_map(which: int, with_jac: bool) -> LocalMap:
    """Two smooth maps of the plane into R^2, with or without their Jacobian."""
    if which == 0:
        fn = lambda x: np.array([math.sin(x[0]) * x[1], math.exp(0.5 * x[0] - x[1])])
        jac = lambda x: np.array([[math.cos(x[0]) * x[1], math.sin(x[0])],
                                  [0.5 * math.exp(0.5 * x[0] - x[1]),
                                   -math.exp(0.5 * x[0] - x[1])]])
    else:
        fn = lambda x: np.array([x[0] * x[1] - x[1] ** 3, math.cos(x[0] + 2.0 * x[1])])
        jac = lambda x: np.array([[x[1], x[0] - 3.0 * x[1] ** 2],
                                  [-math.sin(x[0] + 2.0 * x[1]),
                                   -2.0 * math.sin(x[0] + 2.0 * x[1])]])
    return LocalMap(2, (2,), fn=fn, jac=jac if with_jac else None,
                    name=f"plane{which}{'-jac' if with_jac else ''}")


def line_fn() -> LocalMap:
    return LocalMap(1, (1,), fn=lambda x: np.array([math.tanh(x[0]) - x[0] * x[0]]),
                    name="tanh-fn")


def log_fn() -> LocalMap:
    """log x for x > 0, a NaN row elsewhere."""
    return LocalMap(1, (1,), fn=lambda x: np.array([math.log(x[0]) if x[0] > 0 else math.nan]),
                    name="log-fn")


def line_expr() -> LocalMap:
    return LocalMap.from_expr(lambda t: jets.sin(3.0 * t) + t * t - 0.5 * jets.exp(t),
                              name="sin-expr")


def route_product(slope: float) -> LocalMap:
    """The matrix field of T(psin) o T(angle slope*t) at eps 1/4."""
    f = angle_net(LINE, CIRCLE, lambda eps: (lambda t: slope * t), tag=f"{slope}t")
    g = embed_smooth(SmoothMap(CIRCLE, LINE, {
        ("ang0", "e0"): LocalMap.from_expr(jets.sin, name="sin:ang0"),
        ("angpi", "e0"): LocalMap.from_expr(lambda t: -jets.sin(t), name="sin:angpi")},
        name="psin"), "psin")
    m = vbhom_compose(tangent(g), tangent(f)).matrices_at(0.25)[("e0", "e0")]
    assert isinstance(m, ChainedLocalMap)
    return m


PAIRS = {  # label: (ru, rv), each built afresh
    "fn/fn": lambda: (plane_map(0, False), plane_map(1, False)),
    "jac/jac": lambda: (plane_map(0, True), plane_map(1, True)),
    "fn/jac": lambda: (plane_map(0, False), plane_map(1, True)),
    "fn/fn with NaN rows": lambda: (log_fn(), line_fn()),
    "fn/expr": lambda: (line_fn(), line_expr()),
    "expr/fn": lambda: (line_expr(), line_fn()),
    "fn/chained": lambda: (line_fn(), two_route_chain()[0]),
    "derived/derived": lambda: (plane_map(0, False).derivative_map(),
                                plane_map(1, True).derivative_map()),
    "derived expr/fn": lambda: (line_expr().derivative_map(), line_fn().derivative_map()),
    "route products": lambda: (route_product(3.1), route_product(2.9)),
}
STACKS = {1: np.array([[0.3], [-0.0], [0.0], [-0.7], [1.1], [0.05]]),
          2: np.array([[0.3, -0.2], [-0.0, 0.4], [0.9, 0.0], [-0.6, -0.5]])}


@pytest.mark.parametrize("label", PAIRS)
def test_the_gap_matches_the_per_point_difference_map(label):
    ru, rv = PAIRS[label]()
    X = STACKS[ru.in_dim]
    inexact = [k for k in range(4) if min(ru.exact_order, rv.exact_order) < k]
    assert inexact
    ref = ref_difference_map(ru, rv)
    for k in inexact:
        got, want = _GapMap(ru, rv).derivs_upto(X, k), ref.derivs_upto(X, k)
        assert len(got) == len(want) == k + 1
        for g, w in zip(got, want):
            same_bytes(g, w)
        for x in X:
            for g, w in zip(_GapMap(ru, rv).derivs_upto(x, k), ref.derivs_upto(x, k)):
                same_bytes(g, w)


# -- an expression's jet, at every order ------------------------------------------


@pytest.mark.parametrize("k_max", [0, 1, 2])
def test_an_expression_without_a_jet_at_zero_has_no_gap_at_any_order(k_max):
    """sqrt(t*t) has the float value 0 at t = 0 but no jet there (the jet of
    sqrt is exp(log(.)/2)): its gap to |x| raises at every order, as its
    derivative sweeps do."""
    u = scalar_net(LINE, LINE, lambda eps: lambda t: jets.sqrt(t * t), tag="abs-expr")
    v = MapNet(LINE, LINE, lambda eps: {("e0", "e0"): LocalMap(1, (1,), fn=np.abs,
                                                                 name="abs-fn")}, tag="abs-fn")
    with pytest.raises(DerivativeUndefined, match="abs-expr:e0->e0"):
        check_equiv(u, v, get_region("K_unit"), None, k_max)


# -- the eps-column contract --------------------------------------------------------


def test_an_expression_at_an_eps_column_takes_only_stacks_of_its_length():
    u = get_net("heaviside_tanh")
    (rep3,) = u.at(np.array([0.5, 0.25, 0.125])).locals.values()
    X = np.array([[0.1], [0.2], [0.3], [0.4]])
    for call in (rep3.try_call, lambda P: rep3.derivs_upto(P, 1), rep3._values):
        with pytest.raises(DerivativeUndefined, match="takes only stacks of its rows"):
            call(X[:2])
    got = rep3.try_call(X[:3])
    for r, eps in enumerate((0.5, 0.25, 0.125)):
        same_bytes(got[r], u.at(eps).locals[("e0", "e0")].try_call(X[r:r + 1])[0])
    (rep1,) = u.at(np.array([0.5])).locals.values()
    for call in (rep1.try_call, lambda P: rep1.derivs_upto(P, 2)):
        with pytest.raises(DerivativeUndefined, match="takes only stacks of its rows"):
            call(X)
    same_bytes(rep1.try_call(X[:1]), u.at(0.5).locals[("e0", "e0")].try_call(X[:1]))


def test_a_gap_at_an_eps_column_raises_on_stencil_rows():
    """The grids of an inexact gap have 5x the rows at order 1, which an
    expression at an eps column does not take: the gap raises, and a sweep
    takes one eps at a time."""
    E = np.array([0.5, 0.25, 0.125])
    (ru,) = get_net("heaviside_tanh").at(E).locals.values()
    rv = LocalMap(1, (1,), fn=np.sin, name="sin-fn")
    X = np.array([[0.1], [0.2], [0.3]])
    same_bytes(_GapMap(ru, rv).derivs_upto(X, 0)[0], ru.try_call(X) - rv.try_call(X))
    with pytest.raises(DerivativeUndefined, match="takes only stacks of its rows"):
        _GapMap(ru, rv).derivs_upto(X, 1)
