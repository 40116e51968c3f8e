"""Expression nets at an eps column against the per-eps path.

A net built by ``scalar_net`` or ``angle_net`` from an ``exprs`` family takes
an eps column: its representatives at an (N,) array of eps take stacks of N
points, row r at eps[r], so a sweep or an image table makes one stacked call
per (piece, target chart) or source chart over all (eps, point) rows.  Every
family at an eps column must give each row the bits of the float jet at that
(eps, t); the sweeps and tables of such a net must equal, bit for bit, those
of the same net taken one eps at a time; the work must not grow with the
grid; and a net from a plain factory keeps one difference call per eps.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_array_jets import assert_rows_match, bits, run_quietly

from mapnets import jets, manifold
from mapnets.asymptotics import EpsGrid
from mapnets.config import Config
from mapnets.errors import DerivativeUndefined
from mapnets.exprs import EXPRESSION_FAMILIES, build_expr
from mapnets.gallery import get_atlas, get_net, get_region, list_nets
from mapnets.gmap import (
    MapNet,
    chart_gap_series,
    check_moderate,
    derivative_sup_series,
    scalar_net,
)
from mapnets.jets import Jet
from mapnets.manifold import LocalMap, euclidean_atlas, region_box

SPECS = EXPRESSION_FAMILIES + [
    {"name": "plus_power", "params": {"base": "scaled_step_angle", "order": 1.5,
                                      "shape": "bump", "center": 0.25, "width": 0.4}},
    {"name": "plus_power", "params": {"base": "sin", "order": 2, "coeff": -3.0, "shape": "cos"}},
    {"name": "plus_power", "params": {"base": "smoothed_step", "order": 0.7}},
    {"name": "plus_power", "params": {"base": "winding", "order": 3.25, "coeff": 1e-3}},
    {"name": "plus_flat", "params": {"base": "winding", "rate": 0.3, "coeff": 2.0,
                                     "shape": "bump"}},
    {"name": "plus_flat", "params": {"base": "eps_const", "rate": 5.0, "shape": "cos"}},
    {"name": "plus_flat", "params": {"base": {"name": "plus_power", "params": {"order": 0.5}},
                                     "rate": 0.01}},
    {"name": "poly", "params": {"coeffs": [1.0, -2.0, 0.5]}},
    {"name": "affine", "params": {"a": -0.3, "b": 2.0}},
]
BASES = [0.5, 0.6, 2.0**-0.5]  # 0.6 and 2^-1/2: eps**order off the dyadics
T = st.one_of(st.floats(-3.0, 3.0), st.sampled_from([0.0, -0.0, 0.25, 40.0, -300.0]))


@given(spec=st.sampled_from(SPECS), base=st.sampled_from(BASES),
       rows=st.lists(st.tuples(st.integers(0, 90), T), min_size=1, max_size=8),
       order=st.integers(0, 4))
@settings(max_examples=300, deadline=None)
def test_families_at_an_eps_column_match_float_jets(spec, base, rows, order):
    family = build_expr(spec)
    eps = np.array([base**k for k, _t in rows])
    t = np.array([t for _k, t in rows])
    got = run_quietly(lambda: family(eps)(Jet.var(t, order)))
    want = [run_quietly(lambda e=e, x=x: family(e)(Jet.var(x, order)))
            for e, x in zip(eps.tolist(), t.tolist())]
    assert_rows_match(got, want, order)


@pytest.mark.parametrize("spec", SPECS, ids=[str(s) for s in SPECS])
def test_families_on_whole_eps_grids_match_float_jets(spec):
    """Every grid eps base**k, k = 0..90, of every base, beside t in [-1, 1]."""
    family = build_expr(spec)
    for base in BASES:
        eps = np.array([base**k for k in range(91)])
        t = np.linspace(-1.0, 1.0, 91)
        got = run_quietly(lambda: family(eps)(Jet.var(t, 2)))
        want = [run_quietly(lambda e=e, x=x: family(e)(Jet.var(x, 2)))
                for e, x in zip(eps.tolist(), t.tolist())]
        assert_rows_match(got, want, 2)


ANGLES = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [0.0, -0.0, math.pi, -math.pi, 3 * math.pi, -5 * math.pi, 1e300, -1e300,
     math.nextafter(math.pi, 4.0), math.nextafter(-math.pi, 0.0), math.nextafter(-math.pi, -4.0)])


def ref_wrap_angle(v: float) -> float:
    """``jets.wrap_angle`` of one float in float steps: the reference."""
    v = float(v)
    if not math.isfinite(v):
        return math.nan
    w = v - jets.TWO_PI * math.floor((v + math.pi) / jets.TWO_PI)
    if w <= -math.pi:  # boundary representative is +pi, not -pi
        w += jets.TWO_PI
    return w


@given(st.lists(ANGLES, min_size=1, max_size=30))
@settings(max_examples=300, deadline=None)
def test_wrap_angle_of_an_array_is_the_float_path(angles):
    """An array wraps entry by entry, and a float comes back a float, each with
    the bits of the float steps."""
    want = [bits(ref_wrap_angle(v)) for v in angles]
    got = run_quietly(jets.wrap_angle, np.array(angles))
    assert got[0] == "ok"
    assert [bits(w) for w in got[1].tolist()] == want
    floats = [run_quietly(jets.wrap_angle, v) for v in angles]
    assert all(kind == "ok" and type(w) is float for kind, w in floats)
    assert [bits(w) for _kind, w in floats] == want


# -- sweeps and tables against the same net one eps at a time --------------------

GRID = EpsGrid(0.6, 2, 12)


def per_eps(u: MapNet) -> MapNet:
    """The same net without eps columns: its sweeps take one eps at a time."""
    return MapNet(u.src, u.dst, u.local_factory, tag=u.tag)


def same_series(a: dict, b: dict) -> bool:
    return list(a) == list(b) and all(
        [bits(x) for x in a[k].sup.tolist()] == [bits(x) for x in b[k].sup.tolist()]
        and [repr(p) for p in a[k].args] == [repr(p) for p in b[k].args]
        and a[k].context == b[k].context for k in a)


@pytest.mark.parametrize("name", list_nets())
def test_a_family_net_sweeps_as_it_does_one_eps_at_a_time(name, cfg):
    u = get_net(name)
    assert u.eps_columns
    twin = per_eps(u)
    for K in (get_region("K_unit"), get_region("K_half")):
        tu, tw = u.image_table(K, GRID), twin.image_table(K, GRID)
        for a, b in ((tu.margins, tw.margins), (tu.coords, tw.coords), (tu.chart, tw.chart)):
            assert a.tobytes() == b.tobytes(), name
        assert same_series(derivative_sup_series(u, K, GRID, 3, None, cfg),
                           derivative_sup_series(twin, K, GRID, 3, None, cfg)), name
    v = get_net("sin_plus_eps2" if name != "sin_plus_eps2" else "sigma_sin")
    if v.dst is u.dst:
        K = get_region("K_unit")
        assert same_series(chart_gap_series(u, v, K, GRID, 2, None, cfg),
                           chart_gap_series(twin, per_eps(v), K, GRID, 2, None, cfg)), name


def test_a_column_whose_jet_fails_is_retried_one_eps_at_a_time(cfg):
    """exp(1/t) has no jet at t = 0: a stack at an eps column holding t = 0
    raises instead of retrying row by row, and the image table takes one
    eps at a time, as the per-eps net does (which leaves t = 0 out)."""
    line = get_atlas("line")
    u = scalar_net(line, line, build_expr("exp_recip"), tag="exp_recip")
    twin = per_eps(u)
    (rep,) = u.at(np.array([0.5, 0.5])).locals.values()
    for call in (lambda X: rep.derivs_upto(X, 2), rep.try_call):
        with pytest.raises(DerivativeUndefined):
            call(np.array([[0.5], [0.0]]))
    K = region_box("e0", [-1.0], [1.0], density=5)
    tu, tw = u.image_table(K, GRID), twin.image_table(K, GRID)
    assert tu.margins.tobytes() == tw.margins.tobytes()
    assert tu.coords.tobytes() == tw.coords.tobytes()
    assert math.isnan(tu.coords[0, 2, 0, 0])  # t = 0
    assert same_series(derivative_sup_series(u, K, GRID, 2, None, cfg),
                       derivative_sup_series(twin, K, GRID, 2, None, cfg))


def test_a_representative_at_an_eps_column_takes_only_its_nets_columns():
    with pytest.raises(TypeError):
        per_eps(get_net("sigma_sin")).at(np.array([0.5, 0.25]))
    sm = get_net("heaviside_tanh").at(np.array([0.5, 0.25]))
    (rep,) = sm.locals.values()
    got = rep.derivs_upto(np.array([[0.1], [0.1]]), 2)
    for r, eps in enumerate((0.5, 0.25)):
        want = get_net("heaviside_tanh").at(eps).locals[("e0", "e0")].derivs_upto(
            np.array([0.1]), 2)
        assert [t[r].tobytes() for t in got] == [t.tobytes() for t in want]


# -- the work per sweep --------------------------------------------------------


def test_check_moderate_makes_as_many_jets_on_a_deep_grid(monkeypatch):
    orders = []
    var = Jet.var.__func__
    monkeypatch.setattr(Jet, "var", classmethod(
        lambda cls, x0, order: orders.append(order) or var(cls, x0, order)))
    counts = []
    for k_max in (16, 40):
        cfg = Config(grid_k_max=k_max)
        orders.clear()
        u = get_net("s1_jump")
        u = MapNet(u.src, u.dst, u.local_factory, tag=u.tag, eps_columns=True)  # no tables yet
        assert check_moderate(u, get_region("K_unit"), cfg.grid(), cfg=cfg).status == "Pass"
        counts.append(sorted(orders))
    assert counts[0] == counts[1]
    # per angle chart: the table's value jet and the sweep's jet (the rest: the
    # circle's transitions, rechart of the images)
    assert counts[0] == [0] * 4 + [cfg.k_max] * 2


def test_a_plain_2d_net_differentiates_once_per_piece_and_chart(monkeypatch, cfg):
    plane = euclidean_atlas([(-3.0, 3.0)] * 2, name="plane")

    def factory(eps):
        return {("e0", "e0"): LocalMap(2, (2,), fn=lambda x, s=1.0 + eps: s * np.sin(x),
                                       name="sin")}

    u = MapNet(plane, plane, factory, tag="plain-2d")
    K = region_box("e0", [-1.0, -1.0], [1.0, 1.0], density=3)
    u.image_table(K, GRID)
    calls = []
    fd_tensors = manifold.fd_tensors
    monkeypatch.setattr(manifold, "fd_tensors", lambda values, jacobians, P, k_max: calls.append(
        len(P)) or fd_tensors(values, jacobians, P, k_max))
    series = derivative_sup_series(u, K, GRID, 2, None, cfg)
    assert calls == [9 * len(GRID)]  # one call over the lattice's 9 points at every eps
    assert len(series) == 3
