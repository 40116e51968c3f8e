"""Order fitting and the three judges, against closed-form series.

Expected values are generated by evaluating the stated closed forms on the
grid, independently of the fitting path under test.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapnets import asymptotics as asy
from mapnets.asymptotics import (
    EpsGrid,
    Status,
    SupSeries,
    Verdict,
    OrderEstimate,
    conjunction,
    fit_order,
    judge_moderate,
    judge_negligible,
    judge_vanishing,
    sweep_stacks,
)
from mapnets.errors import TooFewSamples

GRID = EpsGrid(0.5, 2, 16)


def ref_sweep_sups(grid: EpsGrid, samples, zero_tol: float = 0.0,
                   context=lambda key: "") -> dict:
    """The per-eps reducer ``sweep_stacks`` replaced, kept as the reference:
    ``samples(eps)`` yields (key, value, location); per key and eps the first
    location of the largest value wins, NaN counts as inf, values <= zero_tol
    read 0, and a key reads 0 at every eps where it yields nothing."""
    eps_vals = grid.values()
    sups: dict = {}
    args: dict = {}
    for ei, eps in enumerate(eps_vals):
        for key, value, location in samples(eps):
            if key not in sups:
                sups[key] = np.zeros(len(eps_vals))
                args[key] = [None] * len(eps_vals)
            if math.isnan(value):
                value = math.inf
            if value > sups[key][ei]:
                sups[key][ei] = value
                args[key][ei] = location
    return {key: SupSeries(eps_vals, np.where(vals <= zero_tol, 0.0, vals),
                           context=context(key), args=args[key])
            for key, vals in sups.items()}


def closed_form_series(fn, grid: EpsGrid = GRID) -> SupSeries:
    """fn sampled on the grid: one row per eps, reduced by ``sweep_stacks``."""
    values = np.array([float(fn(e)) for e in grid.values()])
    return sweep_stacks(grid, [(None, np.arange(len(grid)), values, lambda _i: None)])[None]


class TestEpsGrid:
    def test_values_decreasing(self):
        v = GRID.values()
        assert len(v) == 15
        assert np.all(np.diff(v) < 0)
        assert v[0] == 0.25 and v[-1] == 2.0**-16

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            EpsGrid(0.5, 2, 6)

    def test_bad_base_rejected(self):
        with pytest.raises(ValueError):
            EpsGrid(1.5, 2, 16)


class TestFitOrder:
    def test_inverse_power(self):
        est = fit_order(closed_form_series(lambda e: 1.0 / e))
        assert est.slope == pytest.approx(-1.0, abs=0.05)
        assert est.r2 > 0.999

    def test_cubic(self):
        est = fit_order(closed_form_series(lambda e: e**3))
        assert est.slope == pytest.approx(3.0, abs=0.05)

    def test_exponential_blowup_slope_diverges(self):
        s = closed_form_series(lambda e: math.exp(1.0 / e) if 1.0 / e < 709 else math.inf)
        est = fit_order(s)
        assert est.slope < -50.0

    def test_too_few_samples(self):
        s = SupSeries(GRID.values(), np.r_[np.ones(3), np.zeros(12)])
        with pytest.raises(TooFewSamples):
            fit_order(s)

    def test_all_zero_sentinel(self):
        s = SupSeries(GRID.values(), np.zeros(15))
        assert fit_order(s).slope == math.inf


class TestJudgeModerate:
    def test_eps_independent_map_passes_n0(self):
        v = judge_moderate(closed_form_series(lambda e: 2.375), n_cap=10)
        assert v.status is Status.PASS
        assert v.estimate.n_or_m == 0

    def test_inverse_power_passes_n1(self):
        v = judge_moderate(closed_form_series(lambda e: 1.0 / e), n_cap=10)
        assert v.status is Status.PASS
        assert v.estimate.n_or_m == 1

    def test_exponential_blowup_fails_with_witness(self):
        s = closed_form_series(lambda e: math.exp(1.0 / e) if 1.0 / e < 709 else math.inf)
        v = judge_moderate(s, n_cap=10)
        assert v.status is Status.FAIL
        assert v.witness is not None
        assert v.estimate.slope < -50.0

    def test_bounded_noisy_series_passes(self):
        rng = np.random.default_rng(0)
        vals = 1.0 + 0.01 * rng.standard_normal(15)
        v = judge_moderate(SupSeries(GRID.values(), np.abs(vals)), n_cap=10)
        assert v.status is Status.PASS
        assert v.estimate.n_or_m == 0


class TestJudgeNegligible:
    def test_identical_nets_all_zero(self):
        v = judge_negligible(SupSeries(GRID.values(), np.zeros(15)), m_probe=5)
        assert v.status is Status.PASS

    @pytest.mark.parametrize("m_probe", [5, 20, 50])
    def test_exponential_decay_passes(self, m_probe):
        v = judge_negligible(closed_form_series(lambda e: math.exp(-1.0 / e)), m_probe)
        assert v.status is Status.PASS

    def test_slow_power_fails(self):
        v = judge_negligible(closed_form_series(lambda e: e**0.3), m_probe=5)
        assert v.status is Status.FAIL
        assert v.witness is not None

    def test_power_two_fails_at_probe_five(self):
        v = judge_negligible(closed_form_series(lambda e: e**2), m_probe=5)
        assert v.status is Status.FAIL
        assert v.estimate.slope == pytest.approx(2.0, abs=0.05)


class TestJudgeVanishing:
    def test_linear_decay_passes(self):
        assert judge_vanishing(closed_form_series(lambda e: e)).status is Status.PASS

    def test_constant_fails(self):
        v = judge_vanishing(closed_form_series(lambda e: 1.0))
        assert v.status is Status.FAIL
        assert v.witness is not None

    def test_log_decay_passes(self):
        # slope near zero but tail still heads to zero
        v = judge_vanishing(closed_form_series(lambda e: 1.0 / math.log(1.0 / e)))
        assert v.status is Status.PASS


class TestInvariants:
    @given(st.floats(min_value=1e-6, max_value=1e6),
           st.sampled_from([0.5, 1.0, 2.0, 3.0]))
    @settings(max_examples=60, deadline=None)
    def test_scale_equivariance(self, c, a):
        base = closed_form_series(lambda e: e**-a)
        scaled = closed_form_series(lambda e: c * e**-a)
        assert fit_order(scaled).slope == pytest.approx(fit_order(base).slope,
                                                        abs=1e-9)

    @pytest.mark.parametrize("a,n", [(0, 0), (0.5, 1), (1, 1), (2, 2), (3, 3)])
    def test_power_law_order(self, a, n):
        v = judge_moderate(closed_form_series(lambda e: e**-a), n_cap=10)
        assert v.status is Status.PASS
        assert v.estimate.n_or_m == n

    @pytest.mark.parametrize("fn", [lambda e: math.exp(-1 / e), lambda e: e**7,
                                    lambda e: 0.0])
    def test_negligible_pass_implies_moderate_n0(self, fn):
        s = closed_form_series(fn)
        if judge_negligible(s, m_probe=5).status is Status.PASS:
            v = judge_moderate(s, n_cap=10)
            assert v.status is Status.PASS
            assert v.estimate.n_or_m == 0

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0, 3.0])
    def test_monotone_refinement(self, a):
        coarse = closed_form_series(lambda e: e**-a, EpsGrid(0.5, 2, 16))
        fine = closed_form_series(lambda e: e**-a, EpsGrid(0.5, 2, 20))
        vc = judge_moderate(coarse, n_cap=10)
        vf = judge_moderate(fine, n_cap=10)
        assert vc.status is Status.PASS
        assert vf.status is Status.PASS


class TestSeriesPlumbing:
    def test_zero_counting(self):
        s = SupSeries(GRID.values(), np.r_[np.ones(10), np.zeros(5)])
        assert s.n_zero == 5

    def test_eps_must_decrease(self):
        with pytest.raises(ValueError):
            SupSeries(np.array([0.1, 0.2]), np.array([1.0, 1.0]))

    def test_csv_format(self):
        s = SupSeries(np.array([0.25, 0.125]), np.array([1.0, 0.5]))
        text = s.to_csv()
        assert text.splitlines() == ["eps,sup", "0.25,1.0", "0.125,0.5"]
        assert text.endswith("\n")
        assert "\r" not in text

    def test_fail_requires_witness(self):
        with pytest.raises(ValueError):
            Verdict(Status.FAIL)

    def test_pass_requires_estimate(self):
        with pytest.raises(ValueError):
            Verdict(Status.PASS)
        Verdict(Status.PASS, estimate=OrderEstimate(0.0, 1.0, (0, 1)))

    def test_nan_is_not_negligible(self):
        # NaN is overflow, never an exact zero
        s = closed_form_series(lambda e: math.nan)
        assert s.n_overflow == len(GRID)
        assert judge_negligible(s, 5).status is Status.FAIL


class TestSweepStacks:
    EPS = GRID.values()
    E = len(GRID)

    def rows(self, values, names):
        """A key-0 stack holding the same rows at every eps: values[j] at names[j]."""
        eis = np.repeat(np.arange(self.E), len(values))
        return 0, eis, np.tile(values, self.E), lambda i: names[i % len(names)]

    def test_lazy_keys_read_zero_elsewhere(self):
        out = sweep_stacks(GRID, [("a", np.arange(self.E), np.ones(self.E), lambda i: "pa"),
                                  ("b", np.array([3]), np.array([2.0]), lambda i: "pb")],
                           context=lambda key: f"sup {key}")
        assert list(out) == ["a", "b"]
        b = out["b"]
        assert b.context == "sup b"
        assert b.sup[3] == 2.0 and b.arg_at(3) == "pb"
        assert b.n_zero == len(GRID) - 1
        assert b.arg_at(0) is None

    def test_a_stack_without_rows_reads_zero_and_an_unnamed_key_is_absent(self):
        out = sweep_stacks(GRID, [("empty", np.array([], dtype=int), np.array([]), None)])
        assert list(out) == ["empty"]
        assert out["empty"].n_zero == len(GRID) and out["empty"].args == [None] * len(GRID)
        assert sweep_stacks(GRID, []) == {}

    def test_first_location_wins_exact_ties(self):
        out = sweep_stacks(GRID, [self.rows([0.5, 0.5, 0.25], ["first", "second", "third"])])
        assert np.all(out[0].sup == 0.5)
        assert out[0].args == ["first"] * len(GRID)

    def test_first_stack_wins_exact_ties_across_stacks(self):
        later = (0, np.arange(self.E), np.full(self.E, 0.5), lambda i: "later")
        out = sweep_stacks(GRID, [self.rows([0.25, 0.5], ["low", "first"]), later])
        assert out[0].args == ["first"] * len(GRID)
        out = sweep_stacks(GRID, [later, self.rows([0.25, 0.5], ["low", "first"])])
        assert out[0].args == ["later"] * len(GRID)

    def test_zero_tol_clamps_to_exact_zero(self):
        eps = self.EPS
        out = sweep_stacks(GRID, [(0, np.arange(self.E), eps**2, lambda i: None)], zero_tol=1e-6)
        assert np.all(out[0].sup[eps**2 <= 1e-6] == 0.0)
        assert np.all(out[0].sup[eps**2 > 1e-6] == eps[eps**2 > 1e-6] ** 2)

    def test_nonpositive_values_stay_zero(self):
        out = sweep_stacks(GRID, [self.rows([-1.0, -math.inf], ["neg", "ninf"])])
        assert out[0].n_zero == len(GRID)
        assert out[0].args == [None] * len(GRID)

    def test_nan_counts_as_overflow(self):
        out = sweep_stacks(GRID, [self.rows([1.0, math.nan, math.inf], ["finite", "nan", "inf"])])
        assert out[0].n_overflow == len(GRID)
        assert out[0].args == ["nan"] * len(GRID)


VALUES = st.one_of(st.sampled_from([0.0, -1.0, 0.5, 1.0, math.inf, -math.inf, math.nan]),
                   st.floats(min_value=-2.0, max_value=2.0))


@st.composite
def stack_lists(draw):
    """Stacks of keys 0-2 with non-decreasing eps indices, ties and NaN included."""
    out = []
    for _ in range(draw(st.integers(0, 5))):
        eis = sorted(draw(st.lists(st.integers(0, len(GRID) - 1), max_size=12)))
        vals = draw(st.lists(VALUES, min_size=len(eis), max_size=len(eis)))
        out.append((draw(st.integers(0, 2)), np.array(eis, dtype=int), np.array(vals)))
    return out


@given(stacks=stack_lists(), zero_tol=st.sampled_from([0.0, 0.3]))
@settings(max_examples=200, deadline=None)
def test_sweep_stacks_matches_the_per_eps_reducer(stacks, zero_tol):
    """Rows fed one eps at a time, stack by stack, give the same series; keys
    come in the order of the first stack naming each."""
    def samples(eps):
        ei = int(np.flatnonzero(GRID.values() == eps)[0])
        for si, (key, eis, vals) in enumerate(stacks):
            if not len(eis):
                if ei == 0:  # a stack without rows names its key
                    yield key, 0.0, None
                continue
            for i in np.flatnonzero(eis == ei).tolist():
                yield key, float(vals[i]), (si, i)

    got = sweep_stacks(GRID, [(key, eis, vals, lambda i, si=si: (si, i))
                              for si, (key, eis, vals) in enumerate(stacks)], zero_tol, str)
    want = ref_sweep_sups(GRID, samples, zero_tol, str)
    assert list(got) == list(dict.fromkeys(key for key, _eis, _vals in stacks))
    assert sorted(got) == sorted(want)
    for key, s in want.items():
        assert got[key].sup.tobytes() == s.sup.tobytes()
        assert got[key].args == s.args and got[key].context == s.context


class TestShortAndOverflowingSeries:
    """Verdict branches for power laws past the cap, series with fewer than
    three positive samples and overflowing series, on the default grid."""

    @staticmethod
    def series(values: dict) -> SupSeries:
        """Zeros on the grid, except {grid index: value}."""
        sup = np.zeros(len(GRID))
        for i, v in values.items():
            sup[i] = v
        return SupSeries(GRID.values(), sup)

    @pytest.mark.parametrize("a", [11, 12])
    def test_a_power_law_past_the_cap_fails(self, a):
        v = judge_moderate(closed_form_series(lambda e: e ** -a), n_cap=10)
        assert v.status is Status.FAIL and v.witness is not None
        assert v.notes == f"slope {-a} below -n_cap=-10"

    def test_a_power_law_at_the_cap_passes(self):
        v = judge_moderate(closed_form_series(lambda e: e ** -10), n_cap=10)
        assert v.status is Status.PASS and v.estimate.n_or_m == 10

    def test_two_positives_then_zeros_are_bounded(self):
        v = judge_moderate(self.series({0: 1.0, 1: 2.0}), n_cap=10)
        assert v.status is Status.PASS and v.notes == "bounded head with zero tail"
        assert v.estimate.n_or_m == 0 and v.estimate.window == (0, 1)

    def test_two_positives_at_the_end_are_inconclusive(self):
        v = judge_moderate(self.series({13: 1.0, 14: 2.0}), n_cap=10)
        assert v.status is Status.INCONCLUSIVE and v.notes == "too few positive samples"

    def test_three_positives_at_the_end_are_not_bounded_without_a_head(self):
        # the 3-point window holds every positive sample: no head bounds it
        v = judge_moderate(self.series({12: 1.0, 13: 4.0, 14: 16.0}), n_cap=10)
        assert v.estimate.window == (12, 14)
        assert v.status is Status.PASS and v.estimate.n_or_m == 2

    def test_three_level_positives_at_the_end_pass_as_level(self):
        v = judge_moderate(self.series({12: 1.0, 13: 1.5, 14: 1.2}), n_cap=10)
        assert v.status is Status.PASS and v.estimate.n_or_m == 0

    def test_an_overflow_with_one_positive_fails_with_slope_minus_inf(self):
        v = judge_moderate(self.series({3: 1.0, 14: math.inf}), n_cap=10)
        assert v.status is Status.FAIL and v.notes == "overflow in sup series"
        assert v.estimate.slope == -math.inf
        assert v.witness.eps == GRID.values()[14] and v.witness.value == math.inf

    @pytest.mark.parametrize("values", [{13: 1e-3, 14: 1e-4},  # no zero tail
                                        {0: 1.0, 1: 0.5},  # slope 1 < m_probe
                                        {0: 1.0}])  # no slope at all
    def test_uncorroborated_short_series_are_not_negligible(self, values):
        v = judge_negligible(self.series(values), m_probe=5)
        assert v.status is Status.INCONCLUSIVE and v.notes == "too few positive samples"

    def test_an_overflow_does_not_vanish(self):
        v = judge_vanishing(self.series({3: 1.0, 14: math.inf}))
        assert v.status is Status.FAIL and v.notes == "overflow in sup series"
        assert v.witness.value == math.inf

    def test_two_positives_above_vanish_tol_are_inconclusive(self):
        v = judge_vanishing(self.series({0: 1.0, 14: 0.5}), vanish_tol=1e-3)
        assert v.status is Status.INCONCLUSIVE and v.notes == "too few positive samples"

    def test_a_conjunction_of_nothing_raises(self):
        with pytest.raises(ValueError, match="no verdicts"):
            conjunction({})

    def test_a_pass_conjunction_carries_its_worst_estimate(self):
        parts = {"a": judge_moderate(closed_form_series(lambda e: 1.0 / e), n_cap=10),
                 "b": judge_moderate(closed_form_series(lambda e: e ** -3), n_cap=10)}
        v = conjunction(parts)
        assert v.status is Status.PASS
        assert v.estimate.slope == parts["b"].estimate.slope and v.estimate.n_or_m == 3


# -- the judges before one fit path, kept as the reference ---------------

def ref_fit_positive(series: SupSeries, min_points: int) -> OrderEstimate:
    """The fit path whose short series raised TooFewSamples."""
    idx = series.finite_positive()
    if len(idx) == 0:
        return asy.ALL_ZERO_ESTIMATE
    if len(idx) < min_points:
        raise TooFewSamples(
            f"{len(idx)} positive finite samples, need {min_points} ({series.context})"
        )
    w = min(len(idx) // 2, max(0, len(idx) - 3))
    win = idx[w:]
    slope, r2 = asy._fit(series.eps[win], series.sup[win])
    return OrderEstimate(slope=slope, r2=r2, window=(int(win[0]), int(win[-1])))


def ref_fit_order(series: SupSeries) -> OrderEstimate:
    return ref_fit_positive(series, min_points=6)


def ref_judge_moderate(series: SupSeries, n_cap: int, r2_min: float = 0.9) -> Verdict:
    if series.n_overflow:
        try:
            est = ref_fit_positive(series, min_points=3)
        except TooFewSamples:
            est = OrderEstimate(slope=-math.inf, r2=0.0, window=(0, 0))
        return Verdict(Status.FAIL, estimate=est, witness=asy._tail_witness(series),
                       notes="overflow in sup series", series=series)
    idx = series.finite_positive()
    if len(idx) == 0:
        est = OrderEstimate(math.inf, 1.0, (0, 0), n_or_m=0)
        return Verdict(Status.PASS, estimate=est,
                       notes="all-zero series (empty-sup convention)", series=series)
    if len(idx) < 3:
        if int(idx[-1]) + 1 < len(series) and np.all(series.sup[int(idx[-1]) + 1:] == 0.0):
            est = OrderEstimate(0.0, 1.0, (int(idx[0]), int(idx[-1])), n_or_m=0)
            return Verdict(Status.PASS, estimate=est,
                           notes="bounded head with zero tail", series=series)
        return Verdict(Status.INCONCLUSIVE, notes="too few positive samples", series=series)
    est = ref_fit_positive(series, min_points=3)
    wmax, wmin, hmax = asy._window_stats(series, est)
    level = wmin > 0.0 and wmax <= asy.LEVEL_RATIO * wmin
    bounded = wmax <= 1.1 * hmax
    if est.slope >= -float(n_cap) and (est.r2 >= r2_min or level or bounded):
        n = 0 if bounded or level else max(0, math.ceil(-est.slope - asy.CEIL_GUARD))
        if est.slope >= 0.0:
            n = 0
        est.n_or_m = n
        return Verdict(Status.PASS, estimate=est, series=series)
    if est.slope < -float(n_cap) and (
        est.r2 >= r2_min or est.slope < -asy.STRONG_FACTOR * float(n_cap)
    ):
        return Verdict(Status.FAIL, estimate=est, witness=asy._tail_witness(series),
                       notes=f"slope {est.slope:.3g} below -n_cap={-n_cap}", series=series)
    return Verdict(Status.INCONCLUSIVE, estimate=est,
                   notes="fit quality below r2_min", series=series)


def ref_judge_negligible(series: SupSeries, m_probe: int, r2_min: float = 0.9,
                         floor: float = 0.0) -> Verdict:
    if series.n_overflow:
        return Verdict(Status.FAIL, estimate=OrderEstimate(-math.inf, 0.0, (0, 0)),
                       witness=asy._tail_witness(series), notes="overflow in sup series",
                       series=series)
    idx = series.finite_positive()
    if len(idx) == 0:
        est = OrderEstimate(math.inf, 1.0, (0, 0), n_or_m=m_probe)
        return Verdict(Status.PASS, estimate=est, notes="all-zero series", series=series)
    if len(idx) < 3:
        v = asy._floor_corroborated(series, idx, m_probe, floor)
        if v is not None:
            return v
        return Verdict(Status.INCONCLUSIVE, notes="too few positive samples", series=series)
    est = ref_fit_positive(series, min_points=3)
    est.n_or_m = m_probe
    if est.slope >= float(m_probe) and (
        est.r2 >= r2_min or est.slope >= asy.STRONG_FACTOR * max(1.0, float(m_probe))
    ):
        return Verdict(Status.PASS, estimate=est, series=series)
    if est.slope <= float(m_probe) - asy.M_FAIL_GAP and est.r2 >= r2_min:
        return Verdict(Status.FAIL, estimate=est, witness=asy._tail_witness(series),
                       notes=f"slope {est.slope:.3g} below m_probe={m_probe}", series=series)
    return Verdict(Status.INCONCLUSIVE, estimate=est, series=series)


def ref_judge_vanishing(series: SupSeries, vanish_tol: float = 1e-3,
                        r2_min: float = 0.9) -> Verdict:
    if series.n_overflow:
        return Verdict(Status.FAIL, estimate=OrderEstimate(-math.inf, 0.0, (0, 0)),
                       witness=asy._tail_witness(series), notes="overflow in sup series",
                       series=series)
    n = len(series)
    tail = series.sup[n - max(1, n // 3):]
    tail_max = float(np.max(tail))
    tail_min = float(np.min(tail))
    if tail_max <= vanish_tol:
        try:
            est = ref_fit_positive(series, min_points=3)
        except TooFewSamples:
            est = asy.ALL_ZERO_ESTIMATE
        return Verdict(Status.PASS, estimate=est, notes="tail below vanish_tol",
                       series=series)
    try:
        est = ref_fit_positive(series, min_points=3)
    except TooFewSamples:
        return Verdict(Status.INCONCLUSIVE, notes="too few positive samples", series=series)
    if est.slope > 0.0 and est.r2 >= r2_min:
        return Verdict(Status.PASS, estimate=est, series=series)
    if tail_min > vanish_tol and abs(est.slope) <= asy.FLAT_SLOPE:
        return Verdict(Status.FAIL, estimate=est, witness=asy._tail_witness(series),
                       notes=f"tail level {tail_min:.3g} above vanish_tol", series=series)
    return Verdict(Status.INCONCLUSIVE, estimate=est, series=series)


@st.composite
def judged_series(draw):
    """Series on the default grid mixing exact zeros, a power law c*eps^a,
    1e300 and inf: 0, 1, 2 or more finite positive samples, at spread grid
    indices or ahead of a zero tail."""
    n = len(GRID)
    n_pos = draw(st.one_of(st.integers(0, 2), st.integers(3, n)))
    room = draw(st.integers(n_pos, n)) if draw(st.booleans()) else n  # < n: a zero tail
    pos = draw(st.permutations(range(room)))[:n_pos]
    c = draw(st.sampled_from([1e-3, 1.0, 2.375]))
    a = draw(st.sampled_from([-12.0, -3.0, -1.0, -0.5, 0.0, 0.3, 1.0, 2.0, 5.0, 20.0]))
    eps = GRID.values()
    sup = np.zeros(n)
    for i in pos:
        sup[i] = 1e300 if draw(st.integers(0, 5)) == 0 else c * eps[i] ** a
    free = [i for i in range(n) if i not in pos]
    for i in draw(st.lists(st.sampled_from(free), max_size=2)) if free else []:
        sup[i] = math.inf
    return SupSeries(eps, sup, context="drawn")


def verdict_key(v: Verdict) -> str:
    est = v.estimate and (v.estimate.slope, v.estimate.r2, v.estimate.window, v.estimate.n_or_m)
    wit = v.witness and (v.witness.eps, v.witness.value)
    return repr((str(v.status), v.notes, est, wit))


def fit_order_key(fit, series: SupSeries) -> str:
    try:
        est = fit(series)
    except TooFewSamples as exc:
        return f"TooFewSamples: {exc}"
    return repr((est.slope, est.r2, est.window, est.n_or_m))


@given(series=judged_series(), n_cap=st.sampled_from([0, 3, 10]),
       m_probe=st.sampled_from([1, 5, 20]), floor=st.sampled_from([0.0, 1e-8]),
       vanish_tol=st.sampled_from([1e-3, 3.0]))
@settings(max_examples=300, deadline=None)
def test_the_judges_match_their_reference(series, n_cap, m_probe, floor, vanish_tol):
    """One fit path reads every series as the judges did when a short series
    raised TooFewSamples: status, notes, estimate and witness."""
    assert verdict_key(judge_moderate(series, n_cap)) == \
        verdict_key(ref_judge_moderate(series, n_cap))
    assert verdict_key(judge_negligible(series, m_probe, floor=floor)) == \
        verdict_key(ref_judge_negligible(series, m_probe, floor=floor))
    assert verdict_key(judge_vanishing(series, vanish_tol)) == \
        verdict_key(ref_judge_vanishing(series, vanish_tol))
    assert fit_order_key(fit_order, series) == fit_order_key(ref_fit_order, series)


class TestSuperpolynomialGrowth:
    """ROADMAP item 2: e^{c/eps} is not O(eps^-N) for any N, yet its log-log
    slope on a finite grid looks like a steep power law."""

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 2: no judge tells e^{c/eps} from "
                       "eps^-N yet; the FD sup saturates to slope -2.26 with r2 0.912, "
                       "only 0.012 above r2_min")
    def test_the_fd_2d_repro_net_is_not_moderate(self):
        from mapnets.gmap import MapNet, check_moderate
        from mapnets.manifold import LocalMap, euclidean_atlas, region_box

        plane = euclidean_atlas([(-10.0, 10.0), (-10.0, 10.0)], name="plane")
        u = MapNet(plane, plane, lambda eps: {("e0", "e0"): LocalMap(
            2, (2,), name="repro",
            fn=lambda x, s=math.exp(0.0005 / eps): np.array([math.tanh(x[0] * s), x[1]]))},
            tag="repro")
        K = region_box("e0", [-1.0, -1.0], [1.0, 1.0], density=3)
        assert check_moderate(u, K, k_max=1).status is not Status.PASS

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 2: the power-law fit of e^{0.0005/eps} "
                       "has r2 0.723, so the judge reads Inconclusive; a log sup = a + b/eps "
                       "fit would show it")
    def test_the_exact_repro_series_fails(self):
        v = judge_moderate(closed_form_series(lambda e: math.exp(0.0005 / e)), n_cap=10)
        assert v.status is Status.FAIL and v.witness is not None
