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

A fit keeps its window's arrays (years, values, reciprocals and residuals)
and nothing computed from them: ``report.fit_record`` computes the summary
diagnostics (reciprocal RMSE, R^2 and the largest relative deviation), so a
fit whose diagnostics nobody reads does not pay for them.

The searches over many candidate lines (``scan_windows`` here, the
two-regime split in ``regime`` and the takeoff break in ``takeoff``) screen,
then refit.  One 6-row table of cumulative sums of 1, t, y, t^2, t*y and
y^2, weighted as the line is, gives every contiguous run's line, and its
cost about that line by one centred closed form (``_line``), O(1) per run.
``_sse``, a plain cost about another line, serves only the plain cost of a
weighted line, from a plain table: the split under ``direct``.  Each search
ranks by its own costs alone and takes the best under one tie rule: costs
within ``_TIE_RTOL`` times the series' total sum of squares about its mean
tie, so rounding noise on exact data cannot decide.  Only the chosen
candidate is refitted, by ``fit_hyperbolic`` or ``_centred_line``, so every
returned fit is the exact solver's own.

The automatic window (``scan_windows``, behind ``best_fit``) is the paper's
account of a series: hyperbolic growth from the series start up to a
diversion, then some other growth, modelled as a log-linear tail.  The break,
or no break at all, is chosen by BIC, and the result is that one window's
fit: a list of one ``HyperbolicFit``, or an empty list when no window fits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (ArgumentError, FitError, NonHyperbolicError, SingularityInWindowError,
                     TooFewPointsError, _finite)
from .model import HyperbolicModel
from .series import YearValueSeries

WEIGHTINGS = ("uniform", "direct")
DEFAULT_WEIGHTING = WEIGHTINGS[0]  # of every fit, search and report
# ndarray.sum(), .min() and .max() without their Python wrappers; the same bits on 1-d floats.
_sum, _min, _max = np.add.reduce, np.minimum.reduce, np.maximum.reduce


@dataclass(frozen=True)
class FitWindow:
    """Inclusive year window over which a single model is fitted."""

    start_year: float
    end_year: float

    def __post_init__(self):
        start, end = self.start_year, self.end_year
        if not (_finite(start) and _finite(end)):
            raise TooFewPointsError(f"window start {start!r} and end {end!r} must be finite numbers")
        if not start < end:
            raise TooFewPointsError(f"window start {start} must precede end {end}")

    def contains(self, year) -> bool:
        return self.start_year <= year <= self.end_year


@dataclass(frozen=True, eq=False)
class HyperbolicFit:
    """A fitted model and its window's points, as read-only per-point arrays.

    ``years`` and ``values`` are views of the series' own years and values
    over the window; ``reciprocals`` and ``deltas`` (observed minus fitted
    reciprocal) are the fit's own arrays.  The fit is a plain result record:
    ``report.fit_record`` builds its reported fields, diagnostics included.
    A fit equals only itself and hashes by identity, as its arrays have no
    single truth value.
    """

    model: HyperbolicModel
    window: FitWindow
    years: np.ndarray
    values: np.ndarray
    reciprocals: np.ndarray
    deltas: np.ndarray
    weighting: str


def _centred_line(t: np.ndarray, y: np.ndarray, w: np.ndarray | None = None):
    """Weighted least-squares line y ~ ybar + slope * (t - tc): (slope, tc, ybar).

    ``w=None`` weighs every point 1.  It skips the multiplications by 1.0,
    which change no bit of the result.
    """
    if w is None:
        tc, ybar = _sum(t) / len(t), _sum(y) / len(t)
        dt = t - tc
        return _sum(dt * (y - ybar)) / _sum(dt**2), tc, ybar
    wsum = _sum(w)
    tc = _sum(w * t) / wsum
    ybar = _sum(w * y) / wsum
    dt = t - tc
    slope = _sum(w * dt * (y - ybar)) / _sum(w * dt**2)
    return slope, tc, ybar


def _solve(t: np.ndarray, y: np.ndarray, w: np.ndarray | None, end_year: float):
    """The model of the line through (t, y): fit_hyperbolic's solve and checks."""
    slope, tc, ybar = _centred_line(t, y, w)
    k = -slope
    a = ybar + k * tc
    if k <= 0:
        raise NonHyperbolicError(f"fitted reciprocal slope {slope:.3e} is not decreasing")
    if a <= 0:
        raise NonHyperbolicError(f"fitted intercept a = {a:.3e} is not positive")
    model = HyperbolicModel(a, k)
    if model.singularity_year <= end_year:
        raise SingularityInWindowError(f"fitted singularity {model.singularity_year:.6g} lies "
                                       f"inside the window ending {end_year}")
    return model


def _weights(values: np.ndarray, weighting: str) -> np.ndarray | None:
    """Each reciprocal's least-squares weight, None if all are 1; ArgumentError if unknown."""
    if weighting not in WEIGHTINGS:
        raise ArgumentError(f"weighting must be one of {WEIGHTINGS}, got {weighting!r}")
    return values**2 if weighting == "direct" else None


def fit_hyperbolic(series: YearValueSeries, window: FitWindow,
                   weighting: str = DEFAULT_WEIGHTING) -> HyperbolicFit:
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
    model = _solve(t, y, w, window.end_year)
    deltas = y - (model.a - model.k * t)
    # t and s are slices of the series' read-only arrays.
    y.setflags(write=False)
    deltas.setflags(write=False)
    return HyperbolicFit(
        model=model,
        window=window,
        years=t,
        values=s,
        reciprocals=y,
        deltas=deltas,
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
    """(slope, level, sse) of each run's weighted line y = mu_y + level + slope * (t - mu_t).

    sse, the weighted SSE about it, is S_yy - S_y*ybar - slope*(S_ty - S_t*ybar)."""
    tc, yc = W[_T] / W[_N], W[_Y] / W[_N]
    ty = W[_TY] - W[_T] * yc
    slope = ty / (W[_TT] - W[_T] * tc)
    return slope, yc - slope * tc, W[_YY] - W[_Y] * yc - slope * ty


def _sse(S, slope, level):
    """Plain squared residual of each run about the line (slope, level)."""
    return (S[_YY] - 2 * level * S[_Y] - 2 * slope * S[_TY] + S[_N] * level**2
            + 2 * level * slope * S[_T] + slope**2 * S[_TT])


def _mean_sse(S):
    """Plain squared residual of each run about its plain mean."""
    return S[_YY] - S[_Y] ** 2 / S[_N]


class _CumulativeSums:
    """Running sums of one series, behind the least-squares line of any run.

    ``P[:, j + 1] - P[:, i]`` sums the rows, w-weighted or plain for w=None,
    over points i..j.  t and y are centred on their plain means ``mu_t`` and
    ``mu_y`` first, which keeps the cancellation in a run's centred moments
    small.  Screened costs closer than ``tolerance`` tie: _TIE_RTOL times a
    plain table's sum of squares of the centred y, so a constant series, whose
    centred values all carry the mean's rounding, still gets a tolerance.
    """

    def __init__(self, t: np.ndarray, y: np.ndarray, w: np.ndarray | None = None):
        n = len(t)
        # sum / n is ndarray.mean's own arithmetic, without its Python wrapper.
        self.mu_t, self.mu_y = _sum(t) / n, _sum(y) / n
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
        R.cumsum(axis=1, out=R)

    @property
    def tolerance(self) -> float:
        return _TIE_RTOL * float(self.P[_YY, -1])

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
            return _line(rows)[2]

    def passes(self, slope, level, end_year) -> np.ndarray:
        """fit_hyperbolic's checks as signs of the screened k = -slope, a and a - k * end_year."""
        a = self.mu_y + level - slope * self.mu_t
        return (slope < 0) & (a > 0) & (a + slope * end_year > 0)


def scan_windows(
    series: YearValueSeries,
    weighting: str = DEFAULT_WEIGHTING,
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
        tail = _line(_suffix(logs.P, slice(3, n)))[2]
        slope, level, head_sse = _line(_prefix(head.P, slice(2, None)))
        if line is not head:
            slope, level, _ = _line(_prefix(line.P, slice(2, None)))
        sse = head_sse + np.concatenate((tail, (0.0,)))
    # BIC, n * log(SSE / n) + p * log(n), rises with SSE * n**(p / n).
    cost = np.maximum(sse, logs.tolerance) * float(n) ** (np.where(ends < n - 1, 5, 2) / n)
    ok = line.passes(slope, level, t[2:]) & (ends != n - 2)
    cost, ends = cost[ok], ends[ok]
    if len(ends):
        least = _min(cost)
        cost = np.where(cost <= least + logs.tolerance, least, cost)
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
