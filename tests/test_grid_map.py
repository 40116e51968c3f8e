"""One image-table call over all grid eps, against one call per eps.

For a net without eps columns, ``MapNet.image_table`` sends the (eps, point)
rows of each source chart through one call of the map of the eps runs'
maps (``gmap._eps_rows``, ``gmap._runs_map``): each representative is the
``gmap._RunsMap`` of the eps runs' maps, whose ``try_call`` is one row loop
over all runs where every run's map is a plain per-point map, and each run's
own ``try_call`` otherwise.  The reference is the table of the same net whose
eps-column call is undefined, so that ``_eps_rows`` makes one ``u.at(eps)``
call per eps: the arrays, the escape and every escaped row's error must be
the same, byte for byte, the user callables must run as often, or the same
error must be raised.  An eps-column call that raises anything is read eps
by eps too, in tables and in ``check_moderate``.
"""

import collections
import json
import math

import numpy as np
import pytest
from test_image_table import K_LINE, K_SQUARE, MULTI, NETS

from mapnets import gmap, jets
from mapnets.asymptotics import Status
from mapnets.cli import verdict_record
from mapnets.config import Config
from mapnets.errors import DerivativeUndefined, OutputShapeMismatch
from mapnets.exprs import build_expr
from mapnets.gallery import get_atlas
from mapnets.gmap import ImageTable, MapNet, angle_net, check_moderate, compose, scalar_net
from mapnets.gpoints import GenPoint
from mapnets.manifold import Box, CompactRegion, LocalMap, Point, PointStack

GRID = Config().grid()
LINE = get_atlas("line")
TWO_SOURCE_K = CompactRegion([("c0", Box([-2.5], [-1.5])), ("c1", Box([1.5], [2.5])),
                              ("c0", Box([-0.5], [0.5]))], lattice_density=5)


def per_eps(u: MapNet) -> MapNet:
    """u, with an eps-column call that is undefined: its tables call u.at(eps)
    once per eps and source chart (``_eps_rows``' fallback)."""
    def factory(eps):
        if isinstance(eps, np.ndarray):
            raise DerivativeUndefined("one eps at a time")
        return u.local_factory(eps)

    return MapNet(u.src, u.dst, factory, tag=u.tag, eps_columns=True)


def lattice_table(u, K):
    return ImageTable(u, PointStack.of_arrays(u.src, K.lattices()), GRID.values())


def assert_same_tables(got, want):
    for attr in ("margins", "coords", "chart", "source"):
        a, b = getattr(got, attr), getattr(want, attr)
        assert a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes(), attr
    assert type(got.escape) is type(want.escape) and str(got.escape) == str(want.escape)
    for ei, pi in zip(*np.nonzero(want.chart < 0)):
        assert str(got.escaped(ei, pi)) == str(want.escaped(ei, pi))


def undefined_net():
    """line -> line, ``defined`` false where |x| >= 0.5 + 4 eps: escaped rows."""
    def factory(eps):
        return {("e0", "e0"): LocalMap(1, (1,), fn=lambda x: (1.0 + eps) * x,
                                       defined=lambda x: abs(x[0]) < 0.5 + 4.0 * eps,
                                       name=f"undef@{eps:g}")}

    return MapNet(LINE, LINE, factory, tag="undefined")


def raising_net():
    """line -> line, ``fn`` raises ValueError where x > 0.5 - eps."""
    def factory(eps):
        def fn(x):
            if x[0] > 0.5 - eps:
                raise ValueError("outside the domain")
            return np.sin(x) + eps
        return {("e0", "e0"): LocalMap(1, (1,), fn=fn, name=f"raise@{eps:g}")}

    return MapNet(LINE, LINE, factory, tag="raising")


def changing_pairs_net():
    """MULTI -> MULTI: (a, c0) at every eps, (a, c1) only for eps < 2^-6, and
    out of c1 only for eps >= 2^-9."""
    def factory(eps):
        reps = {("c0", "c0"): LocalMap(1, (1,), fn=lambda x: 0.5 * x - eps)}
        if eps < 2.0**-6:
            reps["c0", "c1"] = LocalMap(1, (1,), fn=lambda x: 0.5 * x - eps,
                                        defined=lambda x: x[0] > -1.0)
        if eps >= 2.0**-9:
            reps["c1", "c1"] = LocalMap(1, (1,), fn=lambda x: 0.5 * x + eps)
        return reps

    return MapNet(MULTI, MULTI, factory, tag="changing")


CASES = {
    "defined false": (undefined_net(), K_LINE),
    "fn raises": (raising_net(), K_LINE),
    "pairs change": (changing_pairs_net(), TWO_SOURCE_K),
    "sphere, two targets": (NETS["sphere-meridian"][0], K_SQUARE),
    # maps that are not plain fn maps: each run's own try_call
    "expression": (scalar_net(LINE, LINE, lambda eps: lambda t: jets.sin(t) + eps * t,
                              tag="sin_eps"), K_LINE),
    "composite": (compose(raising_net(), undefined_net()), K_LINE),
    "circle, two targets": (angle_net(LINE, get_atlas("circle"),
                                      lambda eps: lambda t: 3.0 * jets.tanh(t / eps), tag="jump"),
                            K_LINE),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_the_lattice_table_is_the_per_eps_table(name):
    u, K = CASES[name]
    assert not u.eps_columns
    assert_same_tables(u.image_table(K, GRID), lattice_table(per_eps(u), K))


@pytest.mark.parametrize("name", sorted(CASES))
def test_a_table_with_extras_is_the_per_eps_table(name):
    u, K = CASES[name]
    got = u.image_table(K, GRID, 3, 5)
    extras = K.samples(np.random.default_rng(5), 3)[len(K.pieces):]  # the extras alone
    want = ImageTable(per_eps(u), PointStack.of_arrays(u.src, extras), GRID.values())
    assert_same_tables(got, want)


@pytest.mark.parametrize("name", ["defined false", "fn raises", "sphere, two targets"])
def test_a_column_table_is_the_per_eps_table(name):
    u, K = CASES[name]
    cid, box = K.pieces[0]
    p = GenPoint(u.src, lambda eps: Point(cid, box.lo + (box.hi - box.lo) * (0.5 + eps)),
                 K, tag="p")
    got = ImageTable(u, p.column(GRID), GRID.values(), column=True)
    assert_same_tables(got, ImageTable(per_eps(u), p.column(GRID), GRID.values(),
                                       column=True))


def test_the_defined_and_raising_cases_escape():
    for name in ("defined false", "fn raises"):
        u, K = CASES[name]
        table = u.image_table(K, GRID)
        assert table.escape is not None and 0 < (table.chart < 0).sum() < table.chart.size


def mismatch_net(bad_eps: float):
    """line -> line; at eps <= bad_eps the outputs for x > 0.3 have the wrong
    size, which names the row: 2 + its index in K_LINE's lattice."""
    def factory(eps):
        def fn(x):
            if eps <= bad_eps and x[0] > 0.3:
                return np.zeros(2 + int(round(4.0 * (x[0] + 1.0))))
            return x * eps
        return {("e0", "e0"): LocalMap(1, (1,), fn=fn, name=f"mismatch@{eps:g}")}

    return MapNet(LINE, LINE, factory, tag="mismatch")


@pytest.mark.parametrize("bad_eps", [GRID.values()[0], 2.0**-9, GRID.values()[-1]])
def test_an_output_of_the_wrong_size_raises_the_per_eps_error(bad_eps):
    u = mismatch_net(bad_eps)
    with pytest.raises(OutputShapeMismatch) as want:
        lattice_table(per_eps(u), K_LINE)
    with pytest.raises(OutputShapeMismatch) as got:
        u.image_table(K_LINE, GRID)
    assert str(got.value) == str(want.value)
    assert f"mismatch@{bad_eps:g}" in str(got.value) and "(8,)" in str(got.value)


def test_an_eps_column_net_keeps_its_column_call(monkeypatch):
    u = scalar_net(LINE, LINE, build_expr("exp_recip"), tag="exp_recip")
    assert u.eps_columns
    want = lattice_table(per_eps(u), K_LINE)
    built, runs_map = [], gmap._RunsMap

    def counted(runs):
        built.append(runs)
        return runs_map(runs)

    monkeypatch.setattr(gmap, "_RunsMap", counted)
    assert_same_tables(u.image_table(K_LINE, GRID), want)
    assert not built, "an eps-column net built the map of its eps runs"


def counted_net(bad_eps: float, calls: dict) -> MapNet:
    """line -> line, counting its ``defined`` and ``fn`` calls, defined where
    x < 0.8; at eps <= bad_eps ``fn`` raises ValueError where x > 0.3 (two
    undefined rows of K_LINE's lattice, after the first defined ones)."""
    def factory(eps):
        def defined(x):
            calls["defined"] += 1
            return x[0] < 0.8
        def fn(x):
            calls["fn"] += 1
            if eps <= bad_eps and x[0] > 0.3:
                raise ValueError("outside the domain")
            return x * (1.0 + eps)
        return {("e0", "e0"): LocalMap(1, (1,), fn=fn, defined=defined)}

    return MapNet(LINE, LINE, factory, tag="counted")


@pytest.mark.parametrize("bad_eps", [0.0, GRID.values()[-1], 2.0**-9])
def test_each_callable_runs_as_often_as_eps_by_eps(bad_eps):
    """``defined`` once per (eps, point) row, ``fn`` once per defined row, and
    where ``fn`` raises at some eps, only that eps's rows again (as
    ``LocalMap.try_call`` does at one eps): no run is read twice."""
    got, want = collections.Counter(), collections.Counter()
    counted_net(bad_eps, got).image_table(K_LINE, GRID)
    lattice_table(per_eps(counted_net(bad_eps, want)), K_LINE)
    assert got == want
    lat = K_LINE.lattices()[0][1][:, 0]
    assert got["defined"] == len(GRID) * len(lat)
    # a run that raises reads its rows through the first raise, then each defined row alone
    n_bad, first = int((GRID.values() <= bad_eps).sum()), int((lat <= 0.3).sum()) + 1
    assert got["fn"] == len(GRID) * int((lat < 0.8).sum()) + n_bad * first


def two_raising_net():
    """line -> MULTI: (e0, c0) raises at the last grid eps, (e0, c1) at the
    first, so the first error eps by eps is (e0, c1)'s, pair by pair (e0, c0)'s."""
    first, last = GRID.values()[0], GRID.values()[-1]

    def factory(eps):
        def rep(b, bad):
            def fn(x):
                if eps == bad:
                    raise RuntimeError(f"{b} fails at eps {eps:g}")
                return 0.5 * x
            return LocalMap(1, (1,), fn=fn)
        return {("e0", "c0"): rep("c0", last), ("e0", "c1"): rep("c1", first)}

    return MapNet(LINE, MULTI, factory, tag="two raising")


def test_two_raising_representatives_raise_the_first_eps_error():
    u = two_raising_net()
    with pytest.raises(RuntimeError) as want:
        lattice_table(per_eps(u), K_LINE)
    with pytest.raises(RuntimeError) as got:
        u.image_table(K_LINE, GRID)
    assert str(got.value) == str(want.value) == f"c1 fails at eps {GRID.values()[0]:g}"


def test_check_moderate_raises_the_first_eps_error():
    u = two_raising_net()
    with pytest.raises(RuntimeError) as want:
        check_moderate(per_eps(u), K_LINE, GRID)
    with pytest.raises(RuntimeError) as got:
        check_moderate(u, K_LINE, GRID)
    assert str(got.value) == str(want.value) == f"c1 fails at eps {GRID.values()[0]:g}"


def column_raising_net() -> MapNet:
    """line -> line with ``eps_columns``, whose factory raises TypeError at an
    eps column (``math.exp`` takes no array), so every read is made eps by eps."""
    def factory(eps):
        scale = math.exp(-eps)
        return {("e0", "e0"): LocalMap(1, (1,), fn=lambda x: np.sin(x) + eps * scale,
                                       name=f"sin@{eps:g}")}

    return MapNet(LINE, LINE, factory, tag="column raising", eps_columns=True)


def test_a_raising_eps_column_is_read_eps_by_eps():
    u = column_raising_net()
    with pytest.raises(TypeError):
        u.at(GRID.values())
    assert_same_tables(u.image_table(K_LINE, GRID), lattice_table(per_eps(u), K_LINE))
    got, want = check_moderate(u, K_LINE, GRID), check_moderate(per_eps(u), K_LINE, GRID)
    assert got.status is Status.PASS
    assert json.dumps(verdict_record("moderate", {}, got)) == \
        json.dumps(verdict_record("moderate", {}, want))
    assert sorted(got.details) == sorted(want.details)


def test_lattices_are_built_once_per_content_and_read_only():
    K = CompactRegion([("e0", Box([-1.0], [1.0]))], lattice_density=5)
    first = K.lattices()
    assert K.lattices()[0][1] is first[0][1]
    with pytest.raises(ValueError):
        first[0][1][0, 0] = 7.0
    K.lattice_density = 6  # new content: new lattices
    assert len(K.lattices()[0][1]) == 6
    assert [p.coords.tobytes() for p in K.sample_points()] == \
        [x.tobytes() for x in K.lattices()[0][1]]


def test_a_stack_of_points_is_the_stack_of_their_arrays():
    pts = [Point("c1", [0.5]), None, Point("c0", [-2.0]), Point("c0", [0.25])]
    got = PointStack.of(MULTI, pts, lambda i: KeyError(i))
    want = PointStack.of_arrays(MULTI, [("c1", np.array([[0.5]])), (None, np.empty((1, 0))),
                                        ("c0", np.array([[-2.0], [0.25]]))])
    assert got.chart.tolist() == want.chart.tolist() == [1, -1, 0, 0]
    assert got.coords.tobytes() == want.coords.tobytes()
    assert [got.point(i).coords.tobytes() for i in (0, 2, 3)] == \
        [p.coords.tobytes() for p in pts if p is not None]
    with pytest.raises(KeyError):
        got.point(1)
    assert len(PointStack.of(MULTI, []).chart) == 0
