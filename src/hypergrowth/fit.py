"""Hyperbolic-model estimation by linear regression on reciprocal values.

A hyperbolic series is a straight line a - k*t after the reciprocal
transform, so fitting reduces to ordinary (or weighted) least squares on
(year, 1/value) pairs.  Years are centered on their (weighted) mean before
solving the normal equations: raw year values near 2000 against slopes of
order 1e-5 make the uncentered system needlessly ill-conditioned.

Two weightings are offered.  ``uniform`` minimizes the plain squared
reciprocal residuals, matching a straight-line fit drawn through reciprocal
data.  ``direct`` weights each squared reciprocal residual by S_i^2, which
approximates relative-error fitting of the original values: the reciprocal
difference -(dS)/(S1*S2) blows up at small S, so uniform weighting
over-weights the early, small-value points.

The searches over many candidate lines (``scan_windows`` here, the
two-regime split in ``regime`` and the takeoff break in ``takeoff``) screen,
then refit.  One 6-row table of cumulative sums of 1, t, y, t^2, t*y and
y^2, weighted as the line is, gives every contiguous run's line and costs in
closed form, O(1) per run; a plain table is built only where a search reads
a plain cost of a weighted line.  Each search computes only the costs it
ranks by and takes the best under one tie rule: costs within ``_TIE_RTOL``
times the series' total sum of squares about its mean tie, so rounding
noise on exact data cannot decide.  Only the chosen candidate is refitted,
by ``fit_hyperbolic`` or ``_centred_line``, so every returned fit is the
exact solver's own.

The automatic window (``scan_windows``, behind ``best_fit``) is the paper's
account of a series: hyperbolic growth from the series start up to a
diversion, then some other growth, modelled as a log-linear tail.  The break,
or no break at all, is chosen by BIC, and the result is that one window's
fit: a list of one ``HyperbolicFit``, or an empty list when no window fits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    FitError, NonHyperbolicError, SingularityInWindowError, TooFewPointsError, _finite,
)
from .model import HyperbolicModel
from .series import YearValueSeries

WEIGHTINGS = ("uniform", "direct")


@dataclass(frozen=True)
class FitWindow:
    """Inclusive year window over which a single model is fitted."""

    start_year: float
    end_year: float

    def __post_init__(self):
        if not (_finite(self.start_year) and _finite(self.end_year)
                and self.start_year < self.end_year):
            raise TooFewPointsError(
                f"window start {self.start_year} must precede end {self.end_year}"
            )

    def contains(self, year) -> bool:
        return self.start_year <= year <= self.end_year


@dataclass(frozen=True)
class HyperbolicFit:
    """A fitted model plus in-window diagnostics, as read-only per-point arrays.

    ``years`` is a view of the series' own years over the window;
    ``reciprocals`` and ``deltas`` (observed minus fitted reciprocal) are the
    fit's own arrays.
    """

    model: HyperbolicModel
    window: FitWindow
    years: np.ndarray
    reciprocals: np.ndarray
    deltas: np.ndarray
    rmse_reciprocal: float
    r2_reciprocal: float
    max_abs_relative_deviation: float
    weighting: str

    @property
    def n_points(self) -> int:
        return len(self.years)


def _centred_line(t: np.ndarray, y: np.ndarray, w: np.ndarray | None = None):
    """Weighted least-squares line y ~ ybar + slope * (t - tc): (slope, tc, ybar).

    ``w=None`` weighs every point 1.  It skips the multiplications by 1.0,
    which change no bit of the result.
    """
    if w is None:
        tc, ybar = t.sum() / len(t), y.sum() / len(t)
        dt = t - tc
        return (dt * (y - ybar)).sum() / (dt**2).sum(), tc, ybar
    wsum = w.sum()
    tc = (w * t).sum() / wsum
    ybar = (w * y).sum() / wsum
    dt = t - tc
    slope = (w * dt * (y - ybar)).sum() / (w * dt**2).sum()
    return slope, tc, ybar


def _weights(values: np.ndarray, weighting: str) -> np.ndarray | None:
    """Each reciprocal's least-squares weight, None if all are 1; ValueError if unknown."""
    if weighting not in WEIGHTINGS:
        raise ValueError(f"weighting must be one of {WEIGHTINGS}, got {weighting!r}")
    return values**2 if weighting == "direct" else None


def fit_hyperbolic(
    series: YearValueSeries,
    window: FitWindow,
    weighting: str = "uniform",
) -> HyperbolicFit:
    """Least-squares line through the in-window reciprocals.

    Raises TooFewPointsError (< 3 points in window), NonHyperbolicError
    (fitted slope not decreasing, or intercept not positive) or
    SingularityInWindowError (fitted a/k falls inside the window, i.e. the
    model cannot describe the data it was fitted to).
    """
    # Years are strictly increasing, so the window is one contiguous run.
    years = series.years
    lo = years.searchsorted(window.start_year, side="left")
    hi = years.searchsorted(window.end_year, side="right")
    t, s = years[lo:hi], series.values[lo:hi]
    w = _weights(s, weighting)
    if len(t) < 3:
        raise TooFewPointsError(
            f"window [{window.start_year}, {window.end_year}] holds {len(t)} points; need >= 3"
        )
    y = 1.0 / s

    slope, tc, ybar = _centred_line(t, y, w)
    k = -slope
    a = ybar + k * tc
    if k <= 0:
        raise NonHyperbolicError(
            f"fitted reciprocal slope {slope:.3e} is not decreasing"
        )
    if a <= 0:
        raise NonHyperbolicError(f"fitted intercept a = {a:.3e} is not positive")
    model = HyperbolicModel(a, k)
    if model.singularity_year <= window.end_year:
        raise SingularityInWindowError(
            f"fitted singularity {model.singularity_year:.6g} lies inside the "
            f"window ending {window.end_year}"
        )

    fitted = a - k * t
    deltas = y - fitted
    sq_tot, sq_res = (y - ybar) ** 2, deltas**2
    rmse = math.sqrt(float(sq_res.sum()) / len(t))
    if w is not None:
        sq_tot, sq_res = w * sq_tot, w * sq_res
    ss_tot, ss_res = float(sq_tot.sum()), float(sq_res.sum())
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    inv = 1.0 / fitted
    # 100 * |s - 1/f| / (1/f), multiplied before dividing: the order sets the bits.
    max_dev = float((100.0 * np.abs(s - inv) / inv).max())
    for arr in (t, y, deltas):
        arr.setflags(write=False)
    return HyperbolicFit(
        model=model,
        window=window,
        years=t,
        reciprocals=y,
        deltas=deltas,
        rmse_reciprocal=rmse,
        r2_reciprocal=r2,
        max_abs_relative_deviation=max_dev,
        weighting=weighting,
    )


# Rows of a _CumulativeSums table: sums of 1, t, y, t^2, t*y and y^2.
_N, _T, _Y, _TT, _TY, _YY = range(6)
# Screened costs within this share of the total sum of squares about the mean tie.
_TIE_RTOL = 1e-12


# Helpers on the six sums of many runs; a degenerate run divides by zero, so
# callers run them under np.errstate(divide="ignore", invalid="ignore").
def _prefix(P: np.ndarray, ends: slice) -> np.ndarray:
    """Sums over the runs 0..e, one column per end e: P's own, as column 0 is zero."""
    return P[:, 1:][:, ends]


def _suffix(P: np.ndarray, starts: slice) -> np.ndarray:
    """Sums over the runs s..n-1, one column per start s."""
    return P[:, -1:] - P[:, starts]


def _line(W):
    """Slope and level of each run's weighted line y = mu_y + level + slope * (t - mu_t)."""
    tc, yc = W[_T] / W[_N], W[_Y] / W[_N]
    slope = (W[_TY] - W[_T] * yc) / (W[_TT] - W[_T] * tc)
    return slope, yc - slope * tc


def _sse(S, slope, level):
    """Plain squared residual of each run about the line (slope, level)."""
    return (S[_YY] - 2 * level * S[_Y] - 2 * slope * S[_TY] + S[_N] * level**2
            + 2 * level * slope * S[_T] + slope**2 * S[_TT])


def _wsse(W):
    """Weighted squared residual of each run about its weighted line."""
    yc = W[_Y] / W[_N]
    return W[_YY] - W[_Y] * yc - _line(W)[0] * (W[_TY] - W[_T] * yc)


def _mean_sse(S):
    """Plain squared residual of each run about its plain mean."""
    return S[_YY] - S[_Y] ** 2 / S[_N]


class _CumulativeSums:
    """Running sums of one series, behind the least-squares line of any run.

    ``P[:, j + 1] - P[:, i]`` sums the rows, w-weighted or plain for w=None,
    over points i..j.  t and y are centred on their plain means ``mu_t`` and
    ``mu_y`` first, which keeps the cancellation in a run's centred moments
    small.  Screened costs closer than ``tolerance``, _TIE_RTOL times a plain
    table's total sum of squares of y about its mean, tie.
    """

    def __init__(self, t: np.ndarray, y: np.ndarray, w: np.ndarray | None = None):
        n = len(t)
        # sum / n is ndarray.mean's own arithmetic, without its Python wrapper.
        self.mu_t, self.mu_y = t.sum() / n, y.sum() / n
        self.tc = tc = t - self.mu_t
        # The rows are filled in place: 1 (or w), t, y, then the products,
        # which are formed before weighting, as (t * t) * w, for their bits.
        self.P = np.empty((6, n + 1))
        self.P[:, 0] = 0.0
        R = self.P[:, 1:]
        R[_N] = 1.0 if w is None else w
        R[_T] = tc
        yc = np.subtract(y, self.mu_y, out=R[_Y])
        np.multiply(tc, tc, out=R[_TT])
        np.multiply(tc, yc, out=R[_TY])
        np.multiply(yc, yc, out=R[_YY])
        if w is not None:
            R[_T:] *= w
        np.cumsum(R, axis=1, out=R)

    @property
    def tolerance(self) -> float:
        return _TIE_RTOL * float(self.P[_YY, -1] - self.P[_Y, -1] ** 2 / len(self.tc))

    def hinges(self, breaks: slice) -> np.ndarray:
        """Plain SSE of the lines y ~ c + r * max(t - t[b], 0), one per break index b.

        The hinge regressor is 0 up to the break and t - t[b] after it, so its
        sums come from the suffix sums of 1, t, t^2, t*y and y, O(1) per break.
        """
        P, n, b = self.P, len(self.tc), self.tc[breaks]
        S = _suffix(P, slice(breaks.start + 1, breaks.stop + 1))
        x = S[_T] - b * S[_N]
        xx = S[_TT] - 2 * b * S[_T] + b**2 * S[_N]
        xy = S[_TY] - b * S[_Y]
        rows = (n, x, P[_Y, n], xx, xy, P[_YY, n])
        with np.errstate(divide="ignore", invalid="ignore"):
            return _sse(rows, *_line(rows))

    def passes(self, slope, level, end_year) -> np.ndarray:
        """fit_hyperbolic's checks as signs of the screened k = -slope, a and a - k * end_year."""
        a = self.mu_y + level - slope * self.mu_t
        return (slope < 0) & (a > 0) & (a + slope * end_year > 0)


def scan_windows(
    series: YearValueSeries,
    weighting: str = "uniform",
) -> list[HyperbolicFit]:
    """The automatic window's fit: hyperbolic growth, then a diversion.

    Every candidate window starts at the first observed year and ends at an
    observed year t[b].  With a break (K = 2), a hyperbola fits t[0]..t[b]
    (at least 3 points) and a log-linear tail the points after t[b] (at least
    2); without one (K = 1), a hyperbola fits the whole series.  The
    hyperbola's cost is its direct-weighted reciprocal SSE, about its squared
    relative error, and the tail's the SSE of its log values.  Candidates
    rank by BIC, n*log(SSE/n) + p*log(n) with p = 2 for K = 1 and 5 for
    K = 2, each SSE floored at the tie tolerance.  Costs within _TIE_RTOL
    times the total sum of squares of the log values about their mean tie
    with the best, and ties go to the longer window.  A window whose
    screened line under ``weighting`` fails one of fit_hyperbolic's checks
    is no candidate.

    Every cost comes from cumulative sums, O(n) in all.  Candidates are
    refitted exactly by ``fit_hyperbolic(series, window, weighting)`` in rank
    order, and the first whose exact fit passes is the result, a list of
    that one fit; one that fails a check is skipped, so the exact verdict
    wins.  The list is empty when no candidate passes.
    """
    t, s = series.years, series.values
    n = len(t)
    w = _weights(s, weighting)
    if n < 3:
        return []
    y = 1.0 / s
    head = _CumulativeSums(t, y, _weights(s, "direct"))
    logs = _CumulativeSums(t, np.log(s))
    line = head if weighting == "direct" else _CumulativeSums(t, y, w)
    ends = np.arange(2, n)  # head ends; n - 2 leaves a 1-point tail and is no candidate
    with np.errstate(divide="ignore", invalid="ignore"):
        tail = _suffix(logs.P, slice(3, n))
        tail = _sse(tail, *_line(tail))
        sse = _wsse(_prefix(head.P, slice(2, None))) + np.append(tail, 0.0)
        slope, level = _line(_prefix(line.P, slice(2, None)))
    # BIC, n * log(SSE / n) + p * log(n), rises with SSE * n**(p / n).
    cost = np.maximum(sse, logs.tolerance) * float(n) ** (np.where(ends < n - 1, 5, 2) / n)
    ok = line.passes(slope, level, t[2:]) & (ends != n - 2)
    cost, ends = cost[ok], ends[ok]
    if len(ends):
        cost = np.where(cost <= cost.min() + logs.tolerance, cost.min(), cost)
    for b in ends[np.lexsort((-ends, cost))]:
        try:
            return [fit_hyperbolic(series, FitWindow(float(t[0]), float(t[b])), weighting)]
        except (NonHyperbolicError, SingularityInWindowError):
            pass
    return []


def best_fit(series: YearValueSeries, window: FitWindow | None, weighting: str) -> HyperbolicFit:
    """The fit over ``window``, else the top scan_windows fit; FitError if none."""
    if window is not None:
        return fit_hyperbolic(series, window, weighting)
    ranked = scan_windows(series, weighting=weighting)
    if not ranked:
        raise FitError(f"no hyperbolic window found for {series.label!r}")
    return ranked[0]
