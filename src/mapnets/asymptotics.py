"""Asymptotic-order verdicts from epsilon-grid samples.

Growth and decay clauses of the form ``sup = O(eps^-N)``, ``= O(eps^m) for
all m`` and ``sup -> 0`` are semidecidable numerically; each judge returns a
three-valued ``Verdict`` (Pass / Fail / Inconclusive) carrying the fitted
log-log slope, the fit quality, and a failure witness where applicable.

Numerical floors: sup values at or below ``zero_tol`` are recorded as exact
zeros (legitimate zeros arise from the empty-supremum convention); overflowed
values are kept as ``inf`` markers and force growth verdicts to Fail.  NaN
counts as overflow, never as zero.  Order fitting always works on the finite
positive part of a series.  Every sup series is built by ``sweep_stacks``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import TooFewSamples

# A window whose values stay within this ratio counts as level (hence O(1)).
LEVEL_RATIO = 2.0
# |slope| >= STRONG_FACTOR * threshold waives the r2 gate: super-polynomial
# blow-up/decay bends the log-log plot, wrecking r2 exactly when the verdict
# is most clear-cut.
STRONG_FACTOR = 5.0
# Slopes within this of zero count as flat for the vanishing judge.
FLAT_SLOPE = 0.05
# Fail margin below m_probe for the negligibility judge.
M_FAIL_GAP = 0.5
# Guard so exact power laws eps^-a yield N = ceil(a), not ceil(a) + 1.
CEIL_GUARD = 1e-9


class Status(str, enum.Enum):
    PASS = "Pass"
    FAIL = "Fail"
    INCONCLUSIVE = "Inconclusive"

    def __str__(self) -> str:  # keep JSON/record output plain
        return self.value


@dataclass(frozen=True)
class EpsGrid:
    """Geometric grid eps_k = base**k for k_min <= k <= k_max."""

    base: float = 0.5
    k_min: int = 2
    k_max: int = 16

    def __post_init__(self):
        if not 0.0 < self.base < 1.0:
            raise ValueError("grid base must lie in (0,1)")
        if self.k_max - self.k_min + 1 < 6:
            raise ValueError("grid needs at least 6 points")
        if not 0.0 < self.base**self.k_max < self.base**self.k_min <= 1.0:
            raise ValueError("grid must satisfy 0 < eps_kmax < eps_kmin <= 1")

    def values(self) -> np.ndarray:
        return np.array([self.base**k for k in range(self.k_min, self.k_max + 1)])

    def __len__(self) -> int:
        return self.k_max - self.k_min + 1

    @property
    def mid_index(self) -> int:
        return len(self) // 2


@dataclass
class SupSeries:
    """Sampled suprema (eps strictly decreasing) with provenance.

    ``args`` optionally records, per sample, where the supremum was attained
    (used to attach locations to failure witnesses).  Zeros are legitimate:
    a supremum over an empty admissible set is recorded as 0 and flagged.
    """

    eps: np.ndarray
    sup: np.ndarray
    context: str = ""
    args: Optional[list] = None

    def __post_init__(self):
        self.eps = np.asarray(self.eps, dtype=float)
        self.sup = np.asarray(self.sup, dtype=float)
        if len(self.eps) != len(self.sup):
            raise ValueError("eps and sup must have equal length")
        if len(self.eps) >= 2 and not np.all(np.diff(self.eps) < 0):
            raise ValueError("eps must be strictly decreasing")
        if np.any(self.sup < 0):
            raise ValueError("sup values must be nonnegative")

    def __len__(self) -> int:
        return len(self.eps)

    @property
    def n_zero(self) -> int:
        return int(np.sum(self.sup == 0.0))

    @property
    def n_overflow(self) -> int:
        return int(np.sum(np.isinf(self.sup)))

    def finite_positive(self) -> np.ndarray:
        """Indices of samples usable for log-log fitting."""
        return np.where((self.sup > 0.0) & np.isfinite(self.sup))[0]

    def arg_at(self, index: int):
        if self.args is None:
            return None
        return self.args[index]

    def to_csv(self) -> str:
        lines = ["eps,sup"]
        for e, s in zip(self.eps, self.sup):
            lines.append(f"{float(e)!r},{float(s)!r}")
        return "\n".join(lines) + "\n"


def sweep_stacks(grid: EpsGrid, stacks, zero_tol: float = 0.0,
                 context=lambda key: "") -> dict:
    """Per-key suprema over the grid of stacks ``(key, eis, values, where)``:
    the values of (eps, point) rows with non-decreasing grid eps indices
    ``eis``, and ``where(i)`` the location of row i.

    Per key and eps the first row of the largest value wins, over the key's
    stacks in order.  A key exists once a stack names it, a stack without
    rows too, and reads 0 at every eps where it has no row (empty-sup
    convention).  NaN counts as overflow (``inf``); values <= zero_tol clamp
    to exact 0.  Returns {key: SupSeries} labelled by ``context(key)``, keys
    in the order of the first stack naming each.
    """
    eps_vals = grid.values()
    sups: dict = {}
    args: dict = {}
    for key, eis, values, where in stacks:
        if key not in sups:
            sups[key], args[key] = np.zeros(len(eps_vals)), [None] * len(eps_vals)
        starts = np.flatnonzero(np.diff(eis, prepend=-1))
        values = np.where(np.isnan(values), math.inf, values)
        peaks = np.maximum.reduceat(values, starts)
        firsts = np.flatnonzero(values == np.repeat(peaks, np.diff(starts, append=len(eis))))
        sup, arg = sups[key], args[key]
        for ei, peak, row in zip(eis[starts].tolist(), peaks.tolist(),
                                 firsts[np.searchsorted(firsts, starts)].tolist()):
            if peak > sup[ei]:
                sup[ei] = peak
                arg[ei] = where(row)
    return {key: SupSeries(eps_vals, np.where(vals <= zero_tol, 0.0, vals),
                           context=context(key), args=args[key])
            for key, vals in sups.items()}


@dataclass
class OrderEstimate:
    """Least-squares slope of log(sup) against log(eps) over a fit window."""

    slope: float
    r2: float
    window: tuple[int, int]
    n_or_m: Optional[int] = None

    def as_record(self) -> dict:
        return {
            "slope": self.slope,
            "r2": self.r2,
            "window": list(self.window),
            "n_or_m": self.n_or_m,
        }


ALL_ZERO_ESTIMATE = OrderEstimate(slope=math.inf, r2=1.0, window=(0, 0))


@dataclass
class Witness:
    eps: float
    location: object = None
    value: float = 0.0

    def as_record(self) -> dict:
        loc = self.location
        if loc is not None and not isinstance(loc, (str, int, float, list, dict)):
            loc = str(loc)
        return {"eps": self.eps, "location": loc, "value": self.value}


@dataclass
class Verdict:
    status: Status
    estimate: Optional[OrderEstimate] = None
    witness: Optional[Witness] = None
    notes: str = ""
    details: dict = field(default_factory=dict)
    series: Optional[SupSeries] = None

    def __post_init__(self):
        if self.status is Status.FAIL and self.witness is None:
            raise ValueError("Fail verdicts must carry a witness")
        if self.status is Status.PASS and self.estimate is None:
            raise ValueError("Pass verdicts must carry an estimate")

    def __bool__(self) -> bool:
        return self.status is Status.PASS


def _fit(eps: np.ndarray, sup: np.ndarray) -> tuple[float, float]:
    """Slope and r2 of log(sup) vs log(eps). Degenerate spreads give r2=1."""
    x = np.log(eps)
    y = np.log(sup)
    xm = x - x.mean()
    ym = y - y.mean()
    sxx = float(np.dot(xm, xm))
    syy = float(np.dot(ym, ym))
    sxy = float(np.dot(xm, ym))
    if syy <= 1e-24 * max(1.0, y.mean() ** 2):
        return 0.0, 1.0  # constant series: perfect flat fit
    slope = sxy / sxx
    r2 = (sxy * sxy) / (sxx * syy)
    return slope, min(1.0, r2)


def _fit_positive(series: SupSeries, min_points: int) -> OrderEstimate:
    idx = series.finite_positive()
    if len(idx) == 0:
        return ALL_ZERO_ESTIMATE
    if len(idx) < min_points:
        raise TooFewSamples(
            f"{len(idx)} positive finite samples, need {min_points} ({series.context})"
        )
    # the last half (small-eps side), never fewer than 3 points: a 2-point fit has r2 = 1
    w = min(len(idx) // 2, max(0, len(idx) - 3))
    win = idx[w:]
    slope, r2 = _fit(series.eps[win], series.sup[win])
    return OrderEstimate(slope=slope, r2=r2, window=(int(win[0]), int(win[-1])))


def fit_order(series: SupSeries) -> OrderEstimate:
    """Fit the asymptotic order of a sup series.

    Requires at least 6 positive finite samples after dropping zeros; an
    all-zero series short-circuits to the slope = +inf sentinel.
    """
    return _fit_positive(series, min_points=6)


def _tail_witness(series: SupSeries) -> Witness:
    idx = series.finite_positive()
    if series.n_overflow:
        i = int(np.where(np.isinf(series.sup))[0][0])
    elif len(idx):
        i = int(idx[-1])
    else:
        i = len(series) - 1
    return Witness(eps=float(series.eps[i]), location=series.arg_at(i), value=float(series.sup[i]))


def _window_stats(series: SupSeries, est: OrderEstimate):
    idx = series.finite_positive()
    win = series.sup[[i for i in idx if est.window[0] <= i <= est.window[1]]]
    head = series.sup[[i for i in idx if i < est.window[0]]]
    wmax = float(win.max()) if len(win) else 0.0
    wmin = float(win.min()) if len(win) else 0.0
    hmax = float(head.max()) if len(head) else 0.0  # no head: nothing shows a bound
    return wmax, wmin, hmax


def judge_moderate(series: SupSeries, n_cap: int, r2_min: float = 0.9) -> Verdict:
    """Judge ``sup = O(eps^-N)`` for some N <= n_cap.

    Pass records N = max(0, ceil(-slope)); bounded series pass with N = 0
    regardless of fit quality; overflow in the series forces Fail.
    """
    if series.n_overflow:
        try:
            est = _fit_positive(series, min_points=3)
        except TooFewSamples:
            est = OrderEstimate(slope=-math.inf, r2=0.0, window=(0, 0))
        return Verdict(Status.FAIL, estimate=est, witness=_tail_witness(series),
                       notes="overflow in sup series", series=series)
    idx = series.finite_positive()
    if len(idx) == 0:
        est = OrderEstimate(math.inf, 1.0, (0, 0), n_or_m=0)
        return Verdict(Status.PASS, estimate=est,
                       notes="all-zero series (empty-sup convention)", series=series)
    if len(idx) < 3:
        if int(idx[-1]) + 1 < len(series) and np.all(series.sup[int(idx[-1]) + 1:] == 0.0):
            # a short positive head then exact zeros is bounded, hence O(1)
            est = OrderEstimate(0.0, 1.0, (int(idx[0]), int(idx[-1])), n_or_m=0)
            return Verdict(Status.PASS, estimate=est,
                           notes="bounded head with zero tail", series=series)
        return Verdict(Status.INCONCLUSIVE, notes="too few positive samples", series=series)
    est = _fit_positive(series, min_points=3)
    wmax, wmin, hmax = _window_stats(series, est)
    level = wmin > 0.0 and wmax <= LEVEL_RATIO * wmin
    bounded = wmax <= 1.1 * hmax
    if est.slope >= -float(n_cap) and (est.r2 >= r2_min or level or bounded):
        n = 0 if bounded or level else max(0, math.ceil(-est.slope - CEIL_GUARD))
        if est.slope >= 0.0:
            n = 0
        est.n_or_m = n
        return Verdict(Status.PASS, estimate=est, series=series)
    if est.slope < -float(n_cap) and (
        est.r2 >= r2_min or est.slope < -STRONG_FACTOR * float(n_cap)
    ):
        return Verdict(Status.FAIL, estimate=est, witness=_tail_witness(series),
                       notes=f"slope {est.slope:.3g} below -n_cap={-n_cap}", series=series)
    return Verdict(Status.INCONCLUSIVE, estimate=est,
                   notes="fit quality below r2_min", series=series)


def judge_negligible(series: SupSeries, m_probe: int, r2_min: float = 0.9,
                     floor: float = 0.0) -> Verdict:
    """Judge ``sup = O(eps^m)`` for all m, probed at m_probe.

    A reliably fitted slope below m_probe - 0.5 demonstrates a power-law
    obstruction and Fails; slope >= m_probe Passes (m_probe is the documented
    cutoff for "faster than every power").  ``floor`` is the clamping
    threshold below which the series builder recorded exact zeros: a head of
    positives followed by clamped zeros passes when the implied decay order
    reaches m_probe.
    """
    if series.n_overflow:
        return Verdict(Status.FAIL, estimate=OrderEstimate(-math.inf, 0.0, (0, 0)),
                       witness=_tail_witness(series), notes="overflow in sup series",
                       series=series)
    idx = series.finite_positive()
    if len(idx) == 0:
        est = OrderEstimate(math.inf, 1.0, (0, 0), n_or_m=m_probe)
        return Verdict(Status.PASS, estimate=est, notes="all-zero series", series=series)
    if len(idx) < 3:
        v = _floor_corroborated(series, idx, m_probe, floor)
        if v is not None:
            return v
        return Verdict(Status.INCONCLUSIVE, notes="too few positive samples", series=series)
    est = _fit_positive(series, min_points=3)
    est.n_or_m = m_probe
    if est.slope >= float(m_probe) and (
        est.r2 >= r2_min or est.slope >= STRONG_FACTOR * max(1.0, float(m_probe))
    ):
        return Verdict(Status.PASS, estimate=est, series=series)
    if est.slope <= float(m_probe) - M_FAIL_GAP and est.r2 >= r2_min:
        return Verdict(Status.FAIL, estimate=est, witness=_tail_witness(series),
                       notes=f"slope {est.slope:.3g} below m_probe={m_probe}", series=series)
    return Verdict(Status.INCONCLUSIVE, estimate=est, series=series)


def _floor_corroborated(series: SupSeries, idx: np.ndarray, m_probe: int,
                        floor: float) -> Optional[Verdict]:
    """Pass for a short positive head followed only by clamped zeros.

    The decay rate is bounded from observed pairwise slopes and, when the
    clamping floor is known, from the drop below the floor at the first
    zeroed sample.
    """
    last = int(idx[-1])
    if last + 1 >= len(series) or np.any(series.sup[last + 1:] != 0.0):
        return None
    slopes = []
    if len(idx) >= 2:
        i, j = int(idx[0]), last
        slopes.append((math.log(series.sup[j]) - math.log(series.sup[i]))
                      / (math.log(series.eps[j]) - math.log(series.eps[i])))
    if floor > 0.0 and series.sup[idx[0]] > floor:
        i = int(idx[0])
        slopes.append((math.log(floor) - math.log(series.sup[i]))
                      / (math.log(series.eps[last + 1]) - math.log(series.eps[i])))
    if slopes and max(slopes) >= float(m_probe):
        est = OrderEstimate(max(slopes), 1.0, (int(idx[0]), last), n_or_m=m_probe)
        return Verdict(Status.PASS, estimate=est,
                       notes="decay corroborated by clamped-zero tail",
                       series=series)
    return None


def judge_vanishing(series: SupSeries, vanish_tol: float = 1e-3,
                    r2_min: float = 0.9) -> Verdict:
    """Judge ``sup -> 0`` as eps -> 0.

    The tail-max rule (last third of the grid at or below vanish_tol) covers
    decay too slow for a positive fitted slope.
    """
    if series.n_overflow:
        return Verdict(Status.FAIL, estimate=OrderEstimate(-math.inf, 0.0, (0, 0)),
                       witness=_tail_witness(series), notes="overflow in sup series",
                       series=series)
    n = len(series)
    tail = series.sup[n - max(1, n // 3):]
    tail_max = float(np.max(tail))
    tail_min = float(np.min(tail))
    if tail_max <= vanish_tol:
        try:
            est = _fit_positive(series, min_points=3)
        except TooFewSamples:
            est = ALL_ZERO_ESTIMATE
        return Verdict(Status.PASS, estimate=est, notes="tail below vanish_tol",
                       series=series)
    try:
        est = _fit_positive(series, min_points=3)
    except TooFewSamples:
        return Verdict(Status.INCONCLUSIVE, notes="too few positive samples", series=series)
    if est.slope > 0.0 and est.r2 >= r2_min:
        return Verdict(Status.PASS, estimate=est, series=series)
    if tail_min > vanish_tol and abs(est.slope) <= FLAT_SLOPE:
        return Verdict(Status.FAIL, estimate=est, witness=_tail_witness(series),
                       notes=f"tail level {tail_min:.3g} above vanish_tol", series=series)
    return Verdict(Status.INCONCLUSIVE, estimate=est, series=series)


def conjunction(parts: dict[str, Verdict], notes: str = "") -> Verdict:
    """Combine sub-verdicts: any Fail fails, else any Inconclusive, else Pass.

    The combined estimate is the worst one (most negative slope); N/m is the
    max over sub-verdicts.
    """
    if not parts:
        raise ValueError("conjunction of no verdicts")
    worst: Optional[OrderEstimate] = None
    worst_series = None
    n_or_m = None
    for v in parts.values():
        if v.estimate is not None:
            if worst is None or v.estimate.slope < worst.slope:
                worst = v.estimate
                worst_series = v.series
            if v.estimate.n_or_m is not None:
                n_or_m = v.estimate.n_or_m if n_or_m is None else max(n_or_m, v.estimate.n_or_m)
    status = next(s for s in (Status.FAIL, Status.INCONCLUSIVE, Status.PASS)
                  if any(v.status is s for v in parts.values()))
    witness = next((v.witness for v in parts.values() if v.status is Status.FAIL), None)
    if worst is not None and n_or_m is not None:
        worst = OrderEstimate(worst.slope, worst.r2, worst.window, n_or_m)
    return Verdict(status, estimate=worst, witness=witness, notes=notes,
                   details=dict(parts), series=worst_series)
