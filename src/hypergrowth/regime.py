"""Diversion detection and two-regime segmentation.

A diversion is a systematic departure of observed reciprocals from the fitted
line after the fit window: upward bending (positive reciprocal residuals)
means the growth fell onto a slower trajectory, downward bending a faster
one.  Detection compares post-window residuals against a robust scale
estimated from the in-window residuals, so the training window itself can
never fire.

Segmentation splits a series into two hyperbolic regimes at the observed year
minimizing the total squared reciprocal residual of the two side fits, the
pattern seen where a slow hyperbolic growth hands over to a distinctly faster
one.  Every split is screened from one set of cumulative sums in O(n), and
only the best is fitted exactly (see ``fit``).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import FitError, NegativeProximityError, TooFewPointsError, _finite
from .fit import (
    FitWindow,
    HyperbolicFit,
    _CumulativeSums,
    _line,
    _mean_sse,
    _prefix,
    _sse,
    _suffix,
    _sum,
    _weights,
    fit_hyperbolic,
)
from .model import HyperbolicModel, reciprocal_line, round_half_up
from .series import YearValueSeries

# MAD -> sigma for a normal distribution.
_MAD_TO_SIGMA = 1.4826


@dataclass(frozen=True)
class DiversionFinding:
    """First year of systematic departure from a fitted trajectory.

    ``evidence`` holds read-only arrays over the offending run: its years, the
    observed reciprocals and the fitted reciprocals.
    """

    year: float
    direction: str  # "slower" | "faster"
    evidence: tuple[np.ndarray, np.ndarray, np.ndarray]
    proximity_years: int | None  # only meaningful for direction == "slower"


def proximity(model: HyperbolicModel, diversion_year: float) -> int:
    """Integer years between the singularity and the diversion.

    Both years are rounded half-up before subtracting.  A negative result is
    an error: a slower diversion after the singularity is impossible.
    """
    p = round_half_up(model.singularity_year) - round_half_up(diversion_year)
    if p < 0:
        raise NegativeProximityError(
            f"diversion year {diversion_year} lies after the singularity "
            f"{model.singularity_year:.6g}"
        )
    return p


def _median(values: list[float]) -> float:
    """np.median of finite values, bit for bit, from one sort."""
    s = sorted(values)
    h = len(s) // 2
    # np.median averages the middle value or pair with np.mean, whose sum
    # starts from +0.0.  Starting from it too gives the same signed zeros.
    if len(s) % 2:
        return 0.0 + s[h]
    return (0.0 + s[h - 1] + s[h]) / 2


def _robust_scale(deltas: np.ndarray, fallback: float) -> float:
    d = deltas.tolist()
    med = _median(d)
    scale = _MAD_TO_SIGMA * _median([abs(x - med) for x in d])
    return scale if scale > 0 else fallback


def detect_diversion(
    series: YearValueSeries,
    fit: HyperbolicFit,
    m: int = 2,
    tau: float = 3.0,
) -> DiversionFinding | None:
    """First post-window run of m same-sign residuals beyond tau * scale.

    Scanning forward from the window end, reports the first year opening a
    run of at least ``m`` consecutive reciprocal residuals that share a sign
    and each exceed tau times the robust (MAD-based) scale of the in-window
    residuals.  When the in-window residuals vanish (exact data) the scale
    falls back to 1e-9 times the largest in-window reciprocal.  Returns None
    when no qualifying run exists.
    """
    try:
        m_ok = operator.index(m) >= 1
    except TypeError:  # a float, text or None is no run length
        m_ok = False
    if not m_ok:
        raise ValueError(f"m must be an integer >= 1, got {m!r}")
    if not (_finite(tau) and tau > 0):
        raise ValueError(f"tau must be finite and > 0, got {tau}")
    first = int(series.years.searchsorted(fit.window.end_year, side="right"))
    if first == len(series):
        raise TooFewPointsError("series does not extend beyond the fit window")

    scale = _robust_scale(fit.deltas, fallback=1e-9 * float(fit.reciprocals.max()))
    threshold = tau * scale

    years = series.years[first:]
    recips = 1.0 / series.values[first:]
    fitted = reciprocal_line(fit.model, years)
    deltas = recips - fitted
    # +1/-1 where a residual exceeds the threshold, else 0: a run qualifies
    # when its m flags equal its first, non-zero flag.
    flags = np.where(np.abs(deltas) > threshold, np.sign(deltas), 0.0).tolist()

    for i in range(len(flags) - m + 1):
        if flags[i] and flags[i:i + m].count(flags[i]) == m:
            direction = "slower" if flags[i] > 0 else "faster"
            evidence = tuple(arr[i:i + m].copy() for arr in (years, recips, fitted))
            for arr in evidence:
                arr.setflags(write=False)
            year = float(years[i])
            prox = proximity(fit.model, year) if direction == "slower" else None
            return DiversionFinding(year, direction, evidence, prox)
    return None


@dataclass(frozen=True)
class Segment:
    """One span of a segmentation: a fitted regime or an unmodeled stretch."""

    window: FitWindow
    kind: str  # "hyperbolic" | "unmodeled"
    fit: HyperbolicFit | None = None


@dataclass(frozen=True)
class RegimeSegmentation:
    """Ordered, non-overlapping segments covering the analyzed span."""

    segments: tuple[Segment, ...]
    breakpoint_year: float
    k_ratio: float | None  # k_second / k_first when both sides are valid
    total_sse: float

    def hyperbolic_segments(self) -> list[Segment]:
        return [s for s in self.segments if s.kind == "hyperbolic"]


def _fit_side(series: YearValueSeries, window: FitWindow, weighting: str):
    """(fit, squared reciprocal residual) of one side; fit is None when it fails."""
    try:
        fit = fit_hyperbolic(series, window, weighting)
    except FitError:
        # An unfittable side is penalized by the residuals around its own
        # mean reciprocal, so fully-modeled splits win when they exist.
        r = 1.0 / series.slice_window(window.start_year, window.end_year).values
        return None, float(_sum((r - r.mean()) ** 2))
    return fit, float(_sum(fit.deltas**2))


def segment_two_hyperbolic(series: YearValueSeries,
                           weighting: str = "uniform") -> RegimeSegmentation:
    """Best split of the series into two hyperbolic regimes.

    Exhaustive search over breakpoints at observed years, each side holding
    at least 3 points; the breakpoint year belongs to both sides, matching a
    spliced series whose splice point lies on both reciprocal lines.
    Objective is the total squared reciprocal residual; costs within the
    tie tolerance of the least (see ``fit``) tie, and ties go to the earliest
    breakpoint.  A side whose fit fails becomes an unmodeled segment, costs
    the squared residual about its mean reciprocal and contributes nothing to
    the k-ratio.

    Cumulative sums screen every break in O(n), in one stacked pass over all
    prefix runs, then all suffix runs: each side's line, fit_hyperbolic's
    checks as signs, and its cost, the line's own closed form under
    ``uniform``, else the plain cost from a plain table stacked below.  Only
    the chosen break's sides are fitted exactly, and those fits are returned.
    """
    if len(series) < 6:
        raise TooFewPointsError(f"two-regime segmentation needs >= 6 points, got {len(series)}")
    years, s = series.years, series.values
    n = len(years)
    y, weights = 1.0 / s, _weights(s, weighting)
    sums = _CumulativeSums(years, y, weights)
    # A side costs the plain squared residual about its weighted line.
    plain = sums if weights is None else _CumulativeSums(years, y)
    P = sums.P if plain is sums else np.vstack((sums.P, plain.P))
    breaks, m = slice(2, n - 2), n - 4
    with np.errstate(divide="ignore", invalid="ignore"):
        W = np.concatenate((_prefix(P, breaks), _suffix(P, breaks)), axis=1)
        S = W[-6:]  # the plain rows: W itself under uniform
        slope, level, fitted = _line(W)
        if plain is not sums:
            fitted = _sse(S, slope, level)
        unfitted = _mean_sse(S)
    end_year = np.append(years[breaks], np.full(m, years[-1]))
    cost = np.where(sums.passes(slope, level, end_year), fitted, unfitted)
    cost = cost[:m] + cost[m:]
    b = float(years[2 + np.argmax(cost <= cost.min() + plain.tolerance)])
    windows = (FitWindow(float(years[0]), b), FitWindow(b, float(years[-1])))
    (left, left_sse), (right, right_sse) = (_fit_side(series, w, weighting) for w in windows)
    segments = tuple(
        Segment(w, "unmodeled") if f is None else Segment(w, "hyperbolic", f)
        for w, f in zip(windows, (left, right))
    )
    k_ratio = None if left is None or right is None else right.model.k / left.model.k
    return RegimeSegmentation(segments, b, k_ratio, left_sse + right_sse)
