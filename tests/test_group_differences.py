"""The derivative sweeps difference each (piece, target chart) group once.

For a net without eps columns, ``gmap._chart_sups`` makes one
``derivs_upto`` over a group's admitted (eps, point) rows of all grid eps
when the representatives take differences.  ``ref_sup_series`` is the
sweep it replaced: one ``derivs_upto`` of the eps's representative per
(piece, target chart, eps).  The two must give the same series, sups and
args byte for byte, skip the eps without a representative alike, and raise
the same error, the first failing eps's.  ``tangent_norm_series`` takes its
Jacobians as order 1 of the same ``gmap._group_tensors``: one difference
pass per chart pair of the image table's rows, bit for bit the norms of one
stacked ``jacobian`` per (eps, chart pair).  So does
``check_section_moderate``: one difference pass per piece of K, and the
verdict of one ``derivs_upto`` per (piece, eps) byte for byte.
"""

import math

import numpy as np
import pytest
from test_asymptotics import ref_sweep_sups

from mapnets import gmap, jets, manifold
from mapnets.asymptotics import conjunction, judge_moderate, sweep_stacks
from mapnets.config import Config
from mapnets.gallery import get_atlas
from mapnets.gmap import MapNet, derivative_sup_series, effective_reps
from mapnets.manifold import (
    Box,
    CompactRegion,
    LocalMap,
    PointStack,
    euclidean_atlas,
    euclidean_multichart,
    riemannian_operator_norm,
    tensor_norm,
    trivial_bundle,
)
from mapnets.vbundle import (
    SectionNet,
    check_section_moderate,
    section_norm_series,
    tangent_norm_series,
)

CFG = Config()
GRID = CFG.grid()
EPS = GRID.values().tolist()
PLANE = euclidean_atlas([(-10.0, 10.0), (-10.0, 10.0)], name="plane")
TWO_CHARTS = euclidean_multichart({"c0": [(-10.0, 1.0), (-10.0, 10.0)],
                                   "c1": [(-1.0, 10.0), (-10.0, 10.0)]}, name="two")
K = CompactRegion([("e0", Box([-1.0, -1.0], [0.0, 0.0])),
                   ("e0", Box([0.2, -0.5], [0.9, 0.5]))], lattice_density=3)


def ref_sup_series(u, K, grid, k_max, L_prime, cfg):
    """One ``derivs_upto`` per (piece, target chart, eps) on the admitted
    lattice points, in grid order, then the same sweep."""
    table = u.image_table(K, grid)
    ok = gmap._admitted([table], L_prime)
    stacks = []
    for pi, cid, cols, lat, at in gmap._lattice_pieces(K):
        for c, b in enumerate(table.charts):
            for ei, eps in enumerate(grid.values()):
                js = np.flatnonzero(ok[ei, cols, c])
                rep = effective_reps(u.at(eps), cid).get(b)
                if rep is None or not len(js):
                    continue
                ts = rep.derivs_upto(lat[js], k_max)
                for k in range(k_max + 1):
                    stacks.append(((pi, cid, b, k), np.full(len(js), ei),
                                   tensor_norm(ts[k], k), lambda i, js=js, at=at: at(js[i])))
    return sweep_stacks(grid, stacks, cfg.zero_tol,
                        lambda key: f"|D^{key[3]}| K[{key[0]}] {key[1]}->{key[2]} of {u.tag}")


def assert_same_series(got, want):
    assert list(got) == list(want)
    for key, s in want.items():
        g = got[key]
        assert g.context == s.context
        assert g.eps.tobytes() == s.eps.tobytes()
        assert g.sup.tobytes() == s.sup.tobytes(), key
        assert [None if a is None else (a.chart, a.coords.tobytes()) for a in g.args] == [
            None if a is None else (a.chart, a.coords.tobytes()) for a in s.args], key


def fresh(u):
    """The same net with no cached maps or tables."""
    return MapNet(u.src, u.dst, u.local_factory, tag=u.tag)


def steep(eps, x):
    return np.array([math.tanh(x[0] / eps) + x[1] ** 3, math.sin(x[1] / math.sqrt(eps))])


@pytest.mark.parametrize("k_max", [1, 2, 3])
def test_plain_net_matches_per_eps_calls(k_max):
    u = MapNet(PLANE, PLANE, lambda eps: {("e0", "e0"): LocalMap(
        2, (2,), fn=lambda x, eps=eps: steep(eps, x), name="steep")}, tag="steep")
    assert_same_series(derivative_sup_series(u, K, GRID, k_max, None, CFG),
                       ref_sup_series(fresh(u), K, GRID, k_max, None, CFG))


def test_an_eps_without_a_representative_is_skipped_alike():
    """Into two charts, with a chart-c1 representative at every other eps
    only: c1's group has rows at those eps alone, one call over them."""

    def factory(eps):
        reps = {("e0", "c0"): LocalMap(2, (2,), fn=lambda x, eps=eps: 0.5 * steep(eps, x),
                                       name="to-c0")}
        if EPS.index(eps) % 2:
            reps["e0", "c1"] = LocalMap(2, (2,), fn=lambda x, eps=eps: 0.5 * steep(eps, x),
                                        name="to-c1")
        return reps

    u = MapNet(PLANE, TWO_CHARTS, factory, tag="half")
    got = derivative_sup_series(u, K, GRID, 2, None, CFG)
    want = ref_sup_series(fresh(u), K, GRID, 2, None, CFG)
    assert_same_series(got, want)
    c1 = got[0, "e0", "c1", 1].sup
    assert not c1[0::2].any() and c1[1::2].all()


def test_runs_of_every_kind_interleave_alike():
    """1-D, eps by eps an expression (its own call per run), a plain map
    and a map with a Jacobian (one fused call per leaf kind): the tensors
    come back in row order."""
    line = euclidean_atlas([(-10.0, 10.0)], name="line")

    def factory(eps):
        kind = EPS.index(eps) % 3
        if kind == 0:
            return {("e0", "e0"): LocalMap.from_expr(lambda t, eps=eps: jets.tanh(t / eps),
                                                     name="expr")}
        return {("e0", "e0"): LocalMap(
            1, (1,), fn=lambda x, eps=eps: np.array([math.tanh(x[0] / eps)]),
            jac=None if kind == 1 else (
                lambda x, eps=eps: np.array([[1.0 - math.tanh(x[0] / eps) ** 2]]) / eps),
            name="fn")}

    u = MapNet(line, line, factory, tag="mixed")
    K1 = CompactRegion([("e0", Box([-1.0], [1.0]))], lattice_density=7)
    assert_same_series(derivative_sup_series(u, K1, GRID, 3, None, CFG),
                       ref_sup_series(fresh(u), K1, GRID, 3, None, CFG))
    lat = K1.lattices()[0][1]
    eis = np.repeat(np.arange(len(EPS)), len(lat))
    rows, ts = gmap._group_tensors((u,), GRID.values(), eis, np.tile(lat, (len(EPS), 1)), 3,
                                   lambda eps: u.at(eps).local("e0", "e0"))
    assert rows.tolist() == list(range(len(eis)))
    for ei, eps in enumerate(EPS):
        want = u.at(eps).local("e0", "e0").derivs_upto(lat, 3)
        for t, w in zip(ts, want):
            assert t[ei * len(lat):(ei + 1) * len(lat)].tobytes() == w.tobytes()


def raising_net(fn_from, jac_from=None):
    """steep, whose fn raises at grid eps index ``fn_from`` and beyond once
    ``net.armed[0]`` is set and, with ``jac_from``, carries a Jacobian that
    raises from there on."""
    armed = [False]

    def factory(eps):
        ei = EPS.index(eps)

        def fn(x):
            if armed[0] and ei >= fn_from:
                raise ValueError(f"fn fails at eps={eps!r}")
            return steep(eps, x)

        def jac(x):
            if armed[0] and ei >= jac_from:
                raise ZeroDivisionError(f"jac fails at eps={eps!r}")
            return np.eye(2)

        return {("e0", "e0"): LocalMap(2, (2,), fn=fn, jac=None if jac_from is None else jac,
                                       name="raising")}

    net = MapNet(PLANE, PLANE, factory, tag="raising")
    net.armed = armed
    return net


@pytest.mark.parametrize("fn_from,jac_from", [(4, None), (4, 2), (2, 4)])
def test_the_first_failing_eps_raises(fn_from, jac_from):
    """The image tables are built before the maps fail; the sweep then raises
    as one call per eps did: with a Jacobian, an eps's values come before its
    Jacobians, and a Jacobian failing at an earlier eps than the values fails
    first (the fused call fails at the values, and the runs are redone one by
    one)."""
    u, ref = raising_net(fn_from, jac_from), raising_net(fn_from, jac_from)
    for net in (u, ref):
        net.image_table(K, GRID)
        net.armed[0] = True
    with pytest.raises(Exception) as want:
        ref_sup_series(ref, K, GRID, 2, None, CFG)
    with pytest.raises(type(want.value)) as got:
        derivative_sup_series(u, K, GRID, 2, None, CFG)
    assert str(got.value) == str(want.value)
    first = min(fn_from, math.inf if jac_from is None else jac_from)
    assert repr(EPS[first]) in str(got.value)


def per_eps_tangent_norm_series(u, K, grid, cfg):
    """The tangent norm series from one stacked ``jacobian`` per (eps, chart
    pair), each row's chart pair read from u's image table, in lattice order."""
    table = u.image_table(K, grid)
    pts = PointStack.of_arrays(u.src, K.lattices())

    def samples(eps):
        ei, norms = table.rows[eps], np.full(table.chart.shape[1], math.nan)
        for ai, a in enumerate(u.src.chart_ids):
            for c, b in enumerate(table.charts):
                pis = np.flatnonzero((table.source[ei] == ai) & (table.chart[ei] == c))
                if len(pis):
                    X = pts.rechart(a)[pis]
                    norms[pis] = riemannian_operator_norm(
                        u.at(eps).locals[a, b].jacobian(X), u.src.metric.at(a, X),
                        u.dst.metric.at(b, table.coords[ei, pis, c, :table.dims[c]]))
        for pi in np.flatnonzero(table.chart[ei] >= 0):
            yield None, norms[pi], pts.point(pi)

    return ref_sweep_sups(grid, samples, cfg.zero_tol,
                          lambda _key: f"sup |T {u.tag}|_g,h on K")[None]


def two_chart_net(with_jac: bool) -> MapNet:
    """plane -> TWO_CHARTS by plain per-point callables into both charts, with
    or without a Jacobian, so a table's rows fall into two chart pairs."""

    def jac(eps, x):
        d = 1.0 - math.tanh(x[0] / eps) ** 2
        return np.array([[d / eps, 3.0 * x[1] ** 2],
                         [0.0, math.cos(x[1] / math.sqrt(eps)) / math.sqrt(eps)]])

    def factory(eps):
        return {("e0", b): LocalMap(2, (2,), fn=lambda x, eps=eps: 0.5 * steep(eps, x),
                                    jac=(lambda x, eps=eps: 0.5 * jac(eps, x)) if with_jac else None,
                                    name=f"to-{b}") for b in ("c0", "c1")}

    return MapNet(PLANE, TWO_CHARTS, factory, tag="two-chart")


@pytest.mark.parametrize("with_jac", [False, True])
def test_tangent_norms_take_one_difference_pass_per_chart_pair(with_jac, monkeypatch):
    u = two_chart_net(with_jac)
    want = per_eps_tangent_norm_series(two_chart_net(with_jac), K, GRID, CFG)
    table = u.image_table(K, GRID)
    pairs = {(a, c) for a, c in zip(table.source.ravel().tolist(), table.chart.ravel().tolist())
             if c >= 0}
    assert len(pairs) == 2
    passes, fd_tensors = [], manifold.fd_tensors

    def counted(values, jacobians, P, k_max):
        passes.append(len(P))
        return fd_tensors(values, jacobians, P, k_max)

    monkeypatch.setattr(manifold, "fd_tensors", counted)
    got = tangent_norm_series(u, K, GRID, CFG)
    assert len(passes) == len(pairs) and sum(passes) == (table.chart >= 0).sum()
    assert got.context == want.context and got.eps.tobytes() == want.eps.tobytes()
    assert got.sup.tobytes() == want.sup.tobytes()
    assert [repr(p) for p in got.args] == [repr(p) for p in want.args]


def ref_section_moderate(s, K, grid, k_max, cfg):
    """``check_section_moderate`` from one ``derivs_upto`` per (piece, eps),
    an eps without a field reading one zero sample."""
    parts = {"fiber-norm": judge_moderate(section_norm_series(s, K, grid, cfg),
                                          cfg.n_cap, cfg.r2_min)}
    stacks = []
    for pi, (cid, lat) in enumerate(K.lattices()):
        ts = [None if (fld := s.coeffs_at(eps).get(cid)) is None else fld.derivs_upto(lat, k_max)
              for eps in grid.values()]
        for k in range(1, k_max + 1):
            norms = [np.zeros(1) if t is None else tensor_norm(t[k], k) for t in ts]
            eis = np.repeat(np.arange(len(ts)), [len(n) for n in norms])
            stacks.append(((pi, cid, k), eis, np.concatenate(norms), lambda _i: None))
    series = sweep_stacks(grid, stacks, cfg.zero_tol,
                          lambda key: f"|D^{key[2]} coeffs| K[{key[0]}] {key[1]} of {s.tag}")
    for (pi, cid, k), ser in sorted(series.items()):
        parts[f"k={k}|K[{pi}]|{cid}"] = judge_moderate(ser, cfg.n_cap, cfg.r2_min)
    return conjunction(parts, notes=f"section moderateness of {s.tag}")


def assert_same_verdicts(got, want):
    assert (got.status, got.notes, list(got.details)) == (want.status, want.notes,
                                                           list(want.details))
    assert repr(got.estimate) == repr(want.estimate) and repr(got.witness) == repr(want.witness)
    if want.series is not None:
        assert got.series.context == want.series.context
        assert got.series.sup.tobytes() == want.series.sup.tobytes()
    for key, part in want.details.items():
        assert_same_verdicts(got.details[key], part)


CIRCLE = get_atlas("circle")
LINE = euclidean_atlas([(-10.0, 10.0)], name="line")


def section_case(name):
    """(section, region, difference passes of its sweep: one per piece for
    plain per-point fields, none for an expression)."""
    if name == "fn":
        return SectionNet(trivial_bundle(PLANE, 2), lambda eps: {"e0": LocalMap(
            2, (2,), fn=lambda x: steep(eps, x), name="steep")}, tag="fn"), K, 2
    if name == "expression":
        K1 = CompactRegion([("e0", Box([-1.0], [1.0]))], lattice_density=7)
        return SectionNet(trivial_bundle(LINE, 1), lambda eps: {"e0": LocalMap.from_expr(
            lambda t: jets.tanh(t / eps) + t ** 3, name="expr")}, tag="expr"), K1, 0
    if name == "circle":
        Kc = CompactRegion([("ang0", Box([-1.0], [1.0])), ("angpi", Box([-0.5], [0.5]))],
                           lattice_density=5)
        return SectionNet(trivial_bundle(CIRCLE, 1), lambda eps: {cid: LocalMap(
            1, (1,), fn=lambda x, s=s: np.array([s * math.tanh(x[0] / eps)]), name=cid)
            for cid, s in (("ang0", 1.0), ("angpi", -1.0))}, tag="circle"), Kc, 2
    # a chart missing at every other eps (c1's piece lies in c0 too, for the fiber norms)
    Kt = CompactRegion([("c0", Box([-2.0, -1.0], [0.0, 1.0])),
                        ("c1", Box([0.0, -1.0], [0.8, 1.0]))], lattice_density=3)

    def coeffs(eps):
        flds = {"c0": LocalMap(2, (2,), fn=lambda x: steep(eps, x), name="c0")}
        if EPS.index(eps) % 2:
            flds["c1"] = LocalMap(2, (2,), fn=lambda x: eps * steep(eps, x), name="c1")
        return flds

    return SectionNet(trivial_bundle(TWO_CHARTS, 2), coeffs, tag="half"), Kt, 2


@pytest.mark.parametrize("name", ["fn", "expression", "circle", "chart missing"])
def test_section_moderate_takes_one_difference_pass_per_piece(name, monkeypatch):
    s, region, n_passes = section_case(name)
    want = ref_section_moderate(section_case(name)[0], region, GRID, 3, CFG)
    passes, fd_tensors = [], manifold.fd_tensors

    def counted(values, jacobians, P, k_max):
        passes.append(len(P))
        return fd_tensors(values, jacobians, P, k_max)

    monkeypatch.setattr(manifold, "fd_tensors", counted)
    got = check_section_moderate(s, region, GRID, 3, CFG)
    assert len(passes) == n_passes
    assert_same_verdicts(got, want)


def test_section_moderate_raises_the_first_failing_eps():
    """The field fails off the lattice from eps index 4 on: the fiber norms
    (lattice points only) pass, and the derivatives raise the first eps's error."""
    lattice = {tuple(x) for _cid, lat in K.lattices() for x in lat.tolist()}

    def section():
        def coeffs(eps):
            def fn(x):
                if EPS.index(eps) >= 4 and tuple(x.tolist()) not in lattice:
                    raise ValueError(f"field fails at eps={eps!r}")
                return steep(eps, x)
            return {"e0": LocalMap(2, (2,), fn=fn, name="raising")}

        return SectionNet(trivial_bundle(PLANE, 2), coeffs, tag="raising")

    section_norm_series(section(), K, GRID, CFG)  # the fiber norms pass
    with pytest.raises(ValueError) as want:
        ref_section_moderate(section(), K, GRID, 2, CFG)
    with pytest.raises(ValueError) as got:
        check_section_moderate(section(), K, GRID, 2, CFG)
    assert str(got.value) == str(want.value) and repr(EPS[4]) in str(got.value)
