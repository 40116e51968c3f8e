"""Order fitting and the three judges, against closed-form series.

Expected values are generated by evaluating the stated closed forms on the
grid, independently of the fitting path under test.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapnets.asymptotics import (
    EpsGrid,
    Status,
    SupSeries,
    Verdict,
    OrderEstimate,
    fit_order,
    judge_moderate,
    judge_negligible,
    judge_vanishing,
    series_from_fn,
    sweep_sups,
)
from mapnets.errors import TooFewSamples

GRID = EpsGrid(0.5, 2, 16)


def closed_form_series(fn) -> SupSeries:
    return series_from_fn(fn, GRID)


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
        coarse = series_from_fn(lambda e: e**-a, EpsGrid(0.5, 2, 16))
        fine = series_from_fn(lambda e: e**-a, EpsGrid(0.5, 2, 20))
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
        s = series_from_fn(lambda e: math.nan, GRID)
        assert s.n_overflow == len(GRID)
        assert judge_negligible(s, 5).status is Status.FAIL


class TestSweepSups:
    EPS = GRID.values()

    def test_lazy_keys_read_zero_elsewhere(self):
        def samples(eps):
            yield "a", 1.0, "pa"
            if eps == self.EPS[3]:
                yield "b", 2.0, "pb"

        out = sweep_sups(GRID, samples, context=lambda key: f"sup {key}")
        assert list(out) == ["a", "b"]
        b = out["b"]
        assert b.context == "sup b"
        assert b.sup[3] == 2.0 and b.arg_at(3) == "pb"
        assert b.n_zero == len(GRID) - 1
        assert b.arg_at(0) is None

    def test_first_location_wins_exact_ties(self):
        out = sweep_sups(GRID, lambda eps: [(0, 0.5, "first"), (0, 0.5, "second"),
                                            (0, 0.25, "third")])
        assert np.all(out[0].sup == 0.5)
        assert out[0].args == ["first"] * len(GRID)

    def test_zero_tol_clamps_to_exact_zero(self):
        out = sweep_sups(GRID, lambda eps: [(0, eps**2, None)], zero_tol=1e-6)
        eps = self.EPS
        assert np.all(out[0].sup[eps**2 <= 1e-6] == 0.0)
        assert np.all(out[0].sup[eps**2 > 1e-6] == eps[eps**2 > 1e-6] ** 2)

    def test_nonpositive_values_stay_zero(self):
        out = sweep_sups(GRID, lambda eps: [(0, -1.0, "neg"), (0, -math.inf, "ninf")])
        assert out[0].n_zero == len(GRID)
        assert out[0].args == [None] * len(GRID)

    def test_nan_counts_as_overflow(self):
        out = sweep_sups(GRID, lambda eps: [(0, 1.0, "finite"), (0, math.nan, "nan"),
                                            (0, math.inf, "inf")])
        assert out[0].n_overflow == len(GRID)
        assert out[0].args == ["nan"] * len(GRID)
