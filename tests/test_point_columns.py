"""Generalized points as eps columns.

At the eps of a grid a ``GenPoint`` is read once as a column (one row per
eps), ``eval_at`` builds the column of ``u(p)`` as the image table of p's
column, and ``points_equal`` compares two columns.  The per-eps loop they
replaced, ``u.eval(eps, p.at(eps))``, is the reference: every row has its
chart and bits, and a row that escapes raises its ChartEscape at its own
eps only.
"""

import traceback

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapnets import jets
from mapnets.asymptotics import EpsGrid, Status
from mapnets.config import Config
from mapnets.errors import ChartEscape, OutOfDomain, SupportEscape
from mapnets.exprs import EpsFamily
from mapnets.gallery import REGISTRY, get_atlas, get_net
from mapnets.gmap import ImageTable, check_cbounded, compose, scalar_net
from mapnets.gpoints import GenPoint, eval_at, points_equal
from mapnets.manifold import (
    BundleElement,
    LocalMap,
    Point,
    PointStack,
    region_box,
    trivial_bundle,
)
from mapnets.vbundle import VBPoint, vbpoints_equal

CFG = Config()
GRID = CFG.grid()
DEEP = EpsGrid(0.5, 2, 40)
LINE = get_atlas("line")


def same_rows(q: GenPoint, u, p: GenPoint, grid: EpsGrid):
    """q.at(eps) against u.eval(eps, p.at(eps)) at every grid eps: the same
    chart and coordinate bits, or the same ChartEscape."""
    for eps in grid.values():
        try:
            want = u.eval(eps, p.at(eps))
        except ChartEscape as exc:
            with pytest.raises(ChartEscape) as got:
                q.at(eps)
            assert str(got.value) == str(exc)
            continue
        got = q.at(eps)
        assert got.chart == want.chart and got.coords.tobytes() == want.coords.tobytes()


def power_net(which: str):
    """Expression nets that apply sqrt or ``**`` to a jet."""
    shapes = {"sqrt": lambda t: 0.5 * jets.sqrt(1.0 + t * t),
              "pow1.5": lambda t: 0.1 * (2.0 + t) ** 1.5,
              "pow3": lambda t: 0.01 * (2.0 + t) ** 3}
    f = shapes[which]
    return scalar_net(LINE, LINE, EpsFamily(lambda eps: lambda t: (1.0 + eps) * f(t)), tag=which)


@pytest.mark.parametrize("name", sorted(REGISTRY["nets"]))
@pytest.mark.parametrize("grid", [GRID, DEEP], ids=["default", "deep"])
@pytest.mark.parametrize("x", [0.3, -0.75])
def test_the_column_equals_u_eval_bit_for_bit(name, grid, x):
    u = get_net(name)
    p = GenPoint.constant(LINE, Point("e0", [x]), tag="p")
    if check_cbounded(u, p.support, grid, CFG).status is not Status.PASS:
        with pytest.raises(SupportEscape):  # no compact home for the values
            eval_at(u, p, grid, CFG)
        return
    same_rows(eval_at(u, p, grid, CFG), u, p, grid)


@pytest.mark.parametrize("which", ["sqrt", "pow1.5", "pow3"])
@given(xs=st.lists(st.floats(min_value=-1.9, max_value=9.9), min_size=1, max_size=6))
@settings(max_examples=40, deadline=None)
def test_a_table_row_equals_u_eval_on_sqrt_and_power_nets(which, xs):
    u = power_net(which)
    pts = [Point("e0", [x]) for x in xs]
    eps_vals = GRID.values()
    table = ImageTable(u, PointStack.of(LINE, pts), eps_vals)
    for ei, eps in enumerate(eps_vals.tolist()):
        for pi, p in enumerate(pts):
            c = table.chart[ei, pi]
            try:
                want = u.eval(eps, p)
            except ChartEscape:
                assert c == -1
                continue
            assert table.coords[ei, pi, c, :1].tobytes() == want.coords.tobytes()
    col = GenPoint(LINE, lambda eps: pts[int(np.flatnonzero(eps_vals == eps)[0]) % len(pts)],
                   region_box("e0", [-1.0], [1.0]))
    same_rows(eval_at(u, col, GRID, CFG), u, col, GRID)


@pytest.mark.parametrize("net", ["sigma_sin", "composite"])
def test_eval_at_and_points_equal_make_no_point_value_call(net, monkeypatch):
    u = (get_net("sigma_sin") if net == "sigma_sin"
         else compose(get_net("sigma_sin"), get_net("sigma_tanh")))
    p = GenPoint.constant(LINE, Point("e0", [0.3]), tag="p")
    calls = []
    value = LocalMap._value
    monkeypatch.setattr(LocalMap, "_value", lambda self, x: calls.append(x) or value(self, x))
    q = eval_at(u, p, GRID, CFG)
    v = points_equal(q, q, grid=GRID, cfg=CFG)
    assert v.status is Status.PASS
    assert calls == []


def escaping_net():
    """line -> (0, 2), t -> 1 + t/5: the image of t >= 5 escapes every chart."""
    return scalar_net(LINE, get_atlas("interval02"),
                      EpsFamily(lambda eps: lambda t: 1.0 + 0.2 * t), tag="tilt")


def test_an_escaped_row_raises_only_at_its_eps():
    eps_vals = GRID.values()
    p = GenPoint(LINE, lambda eps: Point("e0", [6.0 if eps == eps_vals[2] else 0.5]),
                 region_box("e0", [-1.0], [1.0]), tag="p")
    u = escaping_net()
    q = eval_at(u, p, GRID, CFG)
    same_rows(q, u, p, GRID)
    with pytest.raises(ChartEscape, match="tilt@eps=0.0625"):
        q.at(eps_vals[2])
    assert q.at(eps_vals[3]).coords[0] == 1.1
    with pytest.raises(ChartEscape, match="tilt@eps=0.0625"):
        points_equal(q, q, grid=GRID, cfg=CFG)


def test_a_row_where_the_point_raised_raises_only_at_its_eps():
    """eval_at carries p's error rows through: the error is raised when its
    eps is read, the same object each time without a growing traceback."""
    eps_vals = GRID.values()

    def at(eps):
        if eps == eps_vals[4]:
            raise ZeroDivisionError("no point here")
        return Point("e0", [0.5])

    u = get_net("sigma_sin")
    p = GenPoint(LINE, at, region_box("e0", [-1.0], [1.0]))
    q = eval_at(u, p, GRID, CFG)
    for eps in eps_vals[eps_vals != eps_vals[4]]:
        assert q.at(eps).coords.tobytes() == u.eval(eps, at(eps)).coords.tobytes()
    depths = []
    for _ in range(2):
        with pytest.raises(ZeroDivisionError, match="no point here") as got:
            q.at(eps_vals[4])
        depths.append(len(traceback.extract_tb(got.value.__traceback__)))
    assert depths[0] == depths[1]


def test_a_nested_eval_at_keeps_the_inner_escape_at_its_eps():
    eps_vals = GRID.values()
    p = GenPoint(LINE, lambda eps: Point("e0", [6.0 if eps == eps_vals[2] else 0.5]),
                 region_box("e0", [-1.0], [1.0]), tag="p")
    q = eval_at(escaping_net(), p, GRID, CFG)
    w = scalar_net(get_atlas("interval02"), LINE,
                   EpsFamily(lambda eps: lambda t: (1.0 + eps) * t), tag="w")
    r = eval_at(w, q, GRID, CFG)
    same_rows(r, w, q, GRID)
    with pytest.raises(ChartEscape, match="tilt@eps=0.0625"):
        r.at(eps_vals[2])


def test_points_equal_raises_what_the_eps_loop_raises_first():
    """An error row of a column, after an earlier OutOfDomain of the eps loop."""
    eps_vals = GRID.values()

    def at(eps):
        if eps == eps_vals[4]:
            raise ZeroDivisionError("no point here")
        return Point("e0", [50.0 if eps == eps_vals[2] else 0.5])

    p = GenPoint(LINE, at, region_box("e0", [-1.0], [1.0]))
    with pytest.raises(OutOfDomain, match="50"):
        points_equal(p, p, grid=GRID, cfg=CFG)


def test_a_column_point_is_read_only():
    q = eval_at(get_net("sigma_sin"), GenPoint.constant(LINE, Point("e0", [0.3])), GRID, CFG)
    assert not q.at(GRID.values()[1]).coords.flags.writeable


def test_at_an_eps_off_the_grid_evaluates_the_net():
    u = get_net("sigma_sin")
    p = GenPoint.from_fn(LINE, lambda eps: Point("e0", [0.5 + eps]),
                         region_box("e0", [-1.0], [1.0]), tag="p")
    q = eval_at(u, p, GRID, CFG)
    for eps in (0.3, 1e-7):
        assert q.at(eps).coords.tobytes() == u.eval(eps, p.at(eps)).coords.tobytes()


def test_points_never_co_located_leave_the_chart_route_inconclusive():
    two = get_atlas("two_lines")
    supp = region_box("a.e0", [-1.0], [1.0])
    p = GenPoint.constant(two, Point("a.e0", [0.5]), tag="pa")
    q = GenPoint(two, lambda eps: Point("b.e0", [0.5]), supp, tag="qb")
    v = points_equal(p, q, grid=GRID, cfg=CFG)
    assert v.details["chart"].status is Status.INCONCLUSIVE
    assert v.details["chart"].notes == "points never co-located"
    assert v.status is Status.FAIL  # in different components, at infinite distance


def test_bases_never_co_located_leave_the_fiber_part_inconclusive():
    bundle = trivial_bundle(get_atlas("two_lines"))
    supp = region_box("a.e0", [-1.0], [1.0])
    e = VBPoint(bundle, lambda eps: BundleElement("a.e0", [0.5], [1.0]), supp, tag="ea")
    e2 = VBPoint(bundle, lambda eps: BundleElement("b.e0", [0.5], [1.0]), supp, tag="eb")
    v = vbpoints_equal(e, e2, GRID, CFG)
    assert v.details["fiber"].status is Status.INCONCLUSIVE
    assert v.details["fiber"].notes == "bases never co-located"
