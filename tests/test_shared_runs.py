"""Eps runs of one pure function share their evaluations.

Where a grid's eps runs become one map (``gmap._RunsMap``), adjacent runs
whose maps are the same (``manifold.same_pure_map``: one object, or plain
``fn`` maps whose callables are the same code over the same objects) are one
run, which reads each distinct input row once, in the image tables and in
the derivative sweeps (``manifold.owned_tensors``).  The tests count the user's ``fn`` calls,
and require of every merged net the records of its unmerged twin, byte for
byte, whose per-eps maps close over their own copies of the parameters.  The
last test pins the reads of a derivative sweep whose map raises: the fused
pass, then the reader eps run by eps run (``gmap._eps_rows``), no third.
"""

import collections
import functools
import json
import math

import numpy as np
import pytest
from test_grid_map import per_eps

from mapnets import gmap
from mapnets.cli import verdict_record
from mapnets.config import Config
from mapnets.gallery import get_atlas
from mapnets.gmap import ImageTable, MapNet, check_moderate
from mapnets.manifold import (
    Box,
    CompactRegion,
    LocalMap,
    PointStack,
    distinct_owners,
    euclidean_atlas,
    same_pure_map,
    region_box,
)

GRID = Config().grid()
E = len(GRID)
LINE = get_atlas("line")
PLANE = euclidean_atlas([(-10.0, 10.0), (-10.0, 10.0)], name="plane")
K3 = region_box("e0", [-1.0, -1.0], [1.0, 1.0], density=3)  # 9 lattice points
GRID_ROWS = 25  # fd grid of one root at k_max = 2 in two dimensions
R = np.array([[0.6, -0.8], [0.8, 0.6]])
C = np.array([0.25, -0.5])


def net(tag, fn_of_eps) -> MapNet:
    return MapNet(PLANE, PLANE, lambda eps: {("e0", "e0"): LocalMap(2, (2,), fn=fn_of_eps(eps),
                                                                    name=tag)}, tag=tag)


def rotation(calls) -> MapNet:
    """A fresh lambda per eps over eps-independent objects: runs merge."""
    def fn_of_eps(eps):
        return lambda x: (calls.update(["fn"]), R @ np.sin(x) + C)[1]
    return net("rot", fn_of_eps)


def rotation_twin(calls) -> MapNet:
    """The same map, each eps's lambda over its own copies of R and C: no runs merge."""
    def fn_of_eps(eps):
        R_eps, C_eps = R.copy(), C.copy()
        return lambda x: (calls.update(["fn"]), R_eps @ np.sin(x) + C_eps)[1]
    return net("rot", fn_of_eps)


def record(u, K=K3, k_max=2) -> str:
    return json.dumps(verdict_record("moderate", {}, check_moderate(u, K, GRID, k_max=k_max)))


def test_a_constant_net_calls_fn_once_per_distinct_input():
    calls = collections.Counter()
    record(rotation(calls))
    assert calls["fn"] == 9 + 9 * GRID_ROWS  # the table's rows, then each root's grid


def test_the_same_map_object_at_every_eps_is_one_run():
    calls = collections.Counter()
    m = LocalMap(2, (2,), fn=lambda x: (calls.update(["fn"]), R @ np.sin(x) + C)[1])
    record(MapNet(PLANE, PLANE, lambda eps: {("e0", "e0"): m}, tag="same"))
    assert calls["fn"] == 9 + 9 * GRID_ROWS


def test_a_merged_net_has_the_records_of_its_unmerged_twin():
    got, want = collections.Counter(), collections.Counter()
    assert record(rotation(got)) == record(rotation_twin(want))
    assert want["fn"] == E * (9 + 9 * GRID_ROWS) and got["fn"] == 9 + 9 * GRID_ROWS
    K = region_box("e0", [-1.0, -1.0], [1.0, 1.0], density=4)
    for k_max in (1, 3):
        assert record(rotation(got), K, k_max) == record(rotation_twin(want), K, k_max)


def eps_closure(calls) -> MapNet:
    return net("eps", lambda eps: lambda x: (calls.update(["fn"]), R @ np.sin(x / (1 + eps)))[1])


def eps_default(calls) -> MapNet:  # as fd_2d's ``repro`` and ``osc``: a default of eps
    return net("default", lambda eps: lambda x, r=math.sqrt(eps): (
        calls.update(["fn"]), np.array([x[0] + r * math.sin(x[1] / r), x[1]]))[1])


@pytest.mark.parametrize("make", [eps_closure, eps_default])
def test_maps_of_eps_never_merge(make):
    """``fn`` runs as often as where every read is made eps by eps."""
    got, want = collections.Counter(), collections.Counter()
    assert record(make(got)) == record(per_eps(make(want)))
    assert got == want and got["fn"] > E * 9 * GRID_ROWS


def test_the_sameness_rule():
    shared = np.ones(2)

    def fresh():
        return lambda x: shared * x

    def empty_cell():
        def f(x):
            return later * x
        return f
        later = 1.0  # noqa: F841 -- never bound: f's cell stays empty

    def plain(fn, **kw):
        return LocalMap(2, (2,), fn=fn, **kw)

    assert same_pure_map(plain(fresh()), plain(fresh()))
    f = empty_cell()
    assert same_pure_map(plain(f), plain(f)) and not same_pure_map(plain(f), plain(empty_cell()))
    assert not same_pure_map(plain(fresh(), jac=fresh()), plain(fresh()))
    assert same_pure_map(plain(fresh(), defined=fresh()), plain(fresh(), defined=fresh()))
    assert not same_pure_map(plain(fresh()), LocalMap(2, (1, 2), fn=fresh()))
    assert same_pure_map(plain(np.sin), plain(np.sin))
    assert not same_pure_map(plain(functools.partial(np.multiply, 2.0)),  # not a function:
                             plain(functools.partial(np.multiply, 2.0)))  # only itself
    copies = [lambda x, s=np.ones(2): s * x for _ in range(2)]  # a default made per map
    assert not same_pure_map(plain(copies[0]), plain(copies[1]))
    keyword = [lambda x, *, s=s: s * x for s in (shared, shared, np.ones(2))]
    assert same_pure_map(plain(keyword[0]), plain(keyword[1]))
    assert not same_pure_map(plain(keyword[0]), plain(keyword[2]))
    expr = LocalMap.from_expr(lambda t: t)
    assert same_pure_map(expr, expr) and not same_pure_map(expr, LocalMap.from_expr(expr.expr))


def test_signed_zeros_stay_separate_rows():
    P = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0], [2.0, 1.0], [-0.0, 1.0]])
    owners = [(np.arange(5), "a"), (np.array([4, 2, 1]), "b"), (np.array([0, 2]), "c")]
    got, copies = distinct_owners(P, owners, [True, True, False])
    assert [(rows.tolist(), m) for rows, m in got] == [([0, 1, 3], "a"), ([4, 2], "b"),
                                                       ([0, 2], "c")]
    assert [(rows.tolist(), src.tolist()) for rows, src in copies] == [
        ([0, 1, 2, 3, 4], [0, 1, 0, 3, 1]), ([4, 2, 1], [4, 2, 4])]
    assert distinct_owners(P, owners, None) == (owners, [])


def signed(fn_of_eps) -> MapNet:  # the sign of a zero shows in the value
    return MapNet(LINE, LINE, lambda eps: {("e0", "e0"): LocalMap(1, (1,), fn=fn_of_eps(eps))},
                  tag="signed")


def test_a_root_at_minus_zero_is_not_the_root_at_zero():
    scale = np.array([0.5])
    merged = signed(lambda eps: lambda x: math.copysign(1.0, x[0]) * scale + x)
    twin = signed(lambda eps: lambda x, s=scale.copy(): math.copysign(1.0, x[0]) * s + x)
    X = np.tile([[0.0], [-0.0], [0.25], [-0.0]], (E, 1))
    eis = np.repeat(np.arange(E), 4)
    pts = PointStack.of_arrays(LINE, [("e0", X[:4])])
    tables = [ImageTable(u, pts, GRID.values()) for u in (merged, twin)]
    assert tables[0].coords.tobytes() == tables[1].coords.tobytes()
    assert tables[0].coords[0, :2, 0, 0].tolist() == [0.5, -0.5]
    got, want = [gmap._group_tensors((u,), GRID.values(), eis, X, 2,
                                     lambda eps, u=u: u.at(eps).locals["e0", "e0"])
                 for u in (merged, twin)]
    assert got[0].tolist() == want[0].tolist()
    assert [t.tobytes() for t in got[1]] == [t.tobytes() for t in want[1]]
    assert got[1][0][:2, 0].tolist() == [0.5, -0.5]


def raising_at(bad) -> tuple:
    """A merged net and its unmerged twin whose ``fn`` raises where ``bad(x)``."""
    def fn(x, R=R):
        if bad(x):
            raise RuntimeError(f"no value at {x.tolist()}")
        return R @ x
    return (net("raise", lambda eps: lambda x: fn(x)),
            net("raise", lambda eps: lambda x, R=R.copy(): fn(x, R)))


@pytest.mark.parametrize("where", ["a lattice point", "a grid point only"])
def test_a_raising_constant_map_raises_the_unmerged_error(where):
    bad = ((lambda x: x[0] == 0.0 and x[1] == 0.0) if where == "a lattice point"
           else (lambda x: 0.0 < x[0] < 1e-3 and x[1] == 0.0))
    errors = []
    for u in raising_at(bad):
        with pytest.raises(RuntimeError) as exc:
            check_moderate(u, K3, GRID, k_max=2)
        errors.append((type(exc.value), str(exc.value)))
    assert errors[0] == errors[1]
    assert errors[0][1].startswith("no value at [0.0, 0.0]" if where == "a lattice point"
                                   else "no value at [0.0001")


def test_a_raising_derivative_sweep_reads_each_earlier_eps_twice():
    """The fused pass, then the reader eps run by eps run: 2 x 25 grid rows
    of the 5 lattice points at each eps before the first that raises."""
    K = CompactRegion([("e0", Box([-1.0], [1.0]))], lattice_density=5)
    eps_vals, calls, armed = GRID.values(), collections.Counter(), [False]

    def factory(eps):
        ei = int(np.flatnonzero(eps_vals == eps)[0])

        def fn(x):
            calls[ei] += 1
            if armed[0] and ei >= 10:
                raise RuntimeError(f"no value at eps index {ei}")
            return 0.5 * x
        return {("e0", "e0"): LocalMap(1, (1,), fn=fn)}

    u = MapNet(LINE, LINE, factory, tag="raises late")
    u.image_table(K, GRID)
    calls.clear()
    armed[0] = True
    with pytest.raises(RuntimeError, match="eps index 10"):
        check_moderate(u, K, GRID, k_max=2)
    assert [calls[ei] for ei in range(10)] == [50] * 10
