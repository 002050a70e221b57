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
then confirm.  Cumulative sums of 1, t, y, t^2, t*y and y^2 (weighted for the
line, plain for the residual sum of squares that ranks candidates) give
every contiguous run's line and rank key in closed form, with a bound on
their rounding derived from the magnitudes of the summed terms.  Each search
then hands ``_best_first`` a lower bound per candidate and the exact refit:
only the candidates whose bounds reach the best exact key are refitted, and
they are ranked by that key, so every result is the exact solver's own.
"""

from __future__ import annotations

import heapq
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    FitError,
    NonHyperbolicError,
    SingularityInWindowError,
    TooFewPointsError,
)
from .model import HyperbolicModel, reciprocal_line
from .series import YearValueSeries

WEIGHTINGS = ("uniform", "direct")


@dataclass(frozen=True)
class FitWindow:
    """Inclusive year window over which a single model is fitted."""

    start_year: float
    end_year: float

    def __post_init__(self):
        if not self.start_year < self.end_year:
            raise TooFewPointsError(
                f"window start {self.start_year} must precede end {self.end_year}"
            )

    @property
    def span(self) -> float:
        return self.end_year - self.start_year

    def contains(self, year) -> bool:
        return self.start_year <= year <= self.end_year


@dataclass(frozen=True)
class HyperbolicFit:
    """A fitted model plus in-window diagnostics; ``years``, ``reciprocals`` and
    ``deltas`` (observed minus fitted reciprocal) are read-only per-point arrays."""

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

    @property
    def rmse_per_dof(self) -> float:
        """sqrt(SSE / (n - 2)); the scan_windows ranking score."""
        # A Python sum in observation order: which of two near-tied windows
        # ranks first, and so the automatic window, rests on the last bits.
        sse = sum((self.deltas**2).tolist())
        return float(np.sqrt(sse / (self.n_points - 2))) if self.n_points > 2 else 0.0


def _centred_line(t: np.ndarray, y: np.ndarray, w: np.ndarray):
    """Weighted least-squares line y ~ ybar + slope * (t - tc): (slope, tc, ybar)."""
    wsum = w.sum()
    tc = (w * t).sum() / wsum
    ybar = (w * y).sum() / wsum
    dt = t - tc
    slope = (w * dt * (y - ybar)).sum() / (w * dt**2).sum()
    return slope, tc, ybar


def _weights(values: np.ndarray, weighting: str) -> np.ndarray:
    """Least-squares weight of each reciprocal; ValueError for an unknown weighting."""
    if weighting not in WEIGHTINGS:
        raise ValueError(f"weighting must be one of {WEIGHTINGS}, got {weighting!r}")
    return values**2 if weighting == "direct" else np.ones_like(values)


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
    mask = (series.years >= window.start_year) & (series.years <= window.end_year)
    t = series.years[mask]
    s = series.values[mask]
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

    fitted = reciprocal_line(model, t)
    deltas = y - fitted
    rmse = float(np.sqrt(np.mean(deltas**2)))
    ss_tot = float((w * (y - ybar) ** 2).sum())
    ss_res = float((w * deltas**2).sum())
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    rel_dev = 100.0 * np.abs(s - 1.0 / fitted) / (1.0 / fitted)
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
        max_abs_relative_deviation=float(rel_dev.max()),
        weighting=weighting,
    )


# Rows of _CumulativeSums.P: w-weighted 1, t, y, t^2, t*y, y^2, then plain.
_W, _WT, _WY, _WTT, _WTY, _WYY, _N, _T, _Y, _TT, _TY, _YY = range(12)
_EPS = float(np.finfo(float).eps)
_CHUNK = 1 << 15  # windows screened per block, to bound scan_windows' temporaries


class _Lines(NamedTuple):
    """Screened weighted lines y = mu_y + level + slope * (t - mu_t) of many runs.

    ``sse`` is the plain (unweighted) squared residual about the line and
    ``mean_sse`` about the run's plain mean.  Each ``e_*`` bounds the gap
    between the screened value and the exact solver's result, from the
    magnitudes of the summed terms; it is inf where the screen cannot tell.
    """

    slope: np.ndarray
    level: np.ndarray
    sse: np.ndarray
    mean_sse: np.ndarray
    e_slope: np.ndarray
    e_level: np.ndarray
    e_sse: np.ndarray
    e_mean_sse: np.ndarray


def _screen_lines(S: np.ndarray, E: np.ndarray, mu_t: float, mu_y: float) -> _Lines:
    """The weighted line, its plain SSE and their error bounds from run sums.

    ``S`` and ``E`` are (12, m) arrays of run sums (rows as in
    _CumulativeSums) and bounds on their rounding, each at least 8 * eps times
    the sum's magnitude; ``mu_t`` and ``mu_y`` turn the centred t and y back
    into the raw values the exact solver sees.  Each bound is first order in
    the rounding: the sums' errors carried through, doubled to cover the
    rounding of the arithmetic on them, then doubled again.
    """
    W, Wt, Wy, Wtt, Wty, Wyy, N, St, Sy, Stt, Sty, Syy = S
    eW, eWt, eWy, eWtt, eWty, _, _, eSt, eSy, eStt, eSty, eSyy = E
    with np.errstate(divide="ignore", invalid="ignore"):
        tc, yc = Wt / W, Wy / W
        ctt = Wtt - Wt * tc
        slope = (Wty - Wt * yc) / ctt
        level = yc - slope * tc
        sse = (Syy - 2 * level * Sy - 2 * slope * Sty + N * level**2
               + 2 * level * slope * St + slope**2 * Stt)
        ybar = Sy / N
        mean_sse = Syy - Sy * ybar

        # The screen: each quantity moves with the errors of the sums it uses.
        e_ctt = 2 * (eWtt + 2 * abs(tc) * eWt + tc**2 * eW)
        e_slope = 2 * (eWty + abs(yc) * eWt + abs(tc) * eWy + abs(tc * yc) * eW) / ctt
        e_slope += abs(slope) * e_ctt / ctt
        e_level = 2 * (eWy + abs(yc) * eW + abs(slope) * (eWt + abs(tc) * eW)) / W
        # The exact solver: rounding of its own sums over the raw t and y.
        gamma = (N + 3) * _EPS
        root_y = np.sqrt(Wyy) + np.sqrt(W) * abs(mu_y)
        root_t = np.sqrt(Wtt) + np.sqrt(W) * abs(mu_t)
        e_slope += 3 * gamma * (root_y + abs(slope) * root_t) / np.sqrt(ctt)
        e_level += gamma * (root_y + abs(slope) * root_t) / np.sqrt(W) + abs(tc) * e_slope

        # A line off by at most e_level + |t| * e_slope over the run moves the
        # SSE by at most 2 * sqrt(SSE) * D + D^2, D the root-sum-square offset;
        # the exact solver's residuals round at the scale of the raw values.
        e_terms = 2 * (eSyy + 2 * abs(level) * eSy + 2 * abs(slope) * eSty
                       + 2 * abs(level * slope) * eSt + slope**2 * eStt)
        raw = (np.sqrt(Syy) + np.sqrt(N) * (abs(mu_y) + abs(mu_y + level - slope * mu_t))
               + abs(slope) * (np.sqrt(Stt) + np.sqrt(N) * abs(mu_t)))
        D = np.sqrt(N) * e_level + np.sqrt(Stt) * e_slope + 8 * _EPS * raw
        e_sse = 2 * (e_terms + D * (2 * np.sqrt(np.maximum(sse, 0) + e_terms) + D)
                     + gamma * (abs(sse) + e_terms))
        e_mean = 2 * (eSyy + 2 * abs(ybar) * eSy)
        Dm = eSy / np.sqrt(N) + 2 * gamma * (np.sqrt(Syy) + np.sqrt(N) * abs(mu_y))
        e_mean_sse = 2 * (e_mean + Dm * (2 * np.sqrt(np.maximum(mean_sse, 0) + e_mean) + Dm)
                          + gamma * abs(mean_sse))
    # The first-order bounds need a well-determined slope; where it is not,
    # the screen knows nothing of the line and its SSE.
    unsure = ~(e_ctt < 0.5 * ctt)
    inf = np.inf
    return _Lines(slope, level, np.where(unsure, 0.0, sse), mean_sse,
                  np.where(unsure, inf, e_slope), np.where(unsure, inf, e_level),
                  np.where(unsure, inf, e_sse), e_mean_sse)


class _CumulativeSums:
    """Running sums of one series, behind the least-squares line of any run.

    ``P[:, j + 1] - P[:, i]`` sums the rows (w-weighted 1, t, y, t^2, t*y,
    y^2, then the plain ones) over points i..j.  t and y are centred on their
    plain means ``mu_t`` and ``mu_y`` first, which keeps the cancellation in a
    run's centred moments small.
    """

    def __init__(self, t: np.ndarray, y: np.ndarray, w: np.ndarray):
        self.mu_t, self.mu_y = t.mean(), y.mean()
        self.tc, yc = t - self.mu_t, y - self.mu_y
        terms = np.stack([np.ones_like(t), self.tc, yc, self.tc**2, self.tc * yc, yc**2])
        self.P = np.zeros((12, len(t) + 1))
        np.cumsum(terms * w, axis=1, out=self.P[:6, 1:])
        np.cumsum(terms, axis=1, out=self.P[6:, 1:])

    def _sums(self, i, j):
        """Sums over points i..j (inclusive) and bounds on their rounding.

        A running sum of k terms is off by at most about k * eps times the
        running sum of their magnitudes, and forming the terms adds a few eps;
        the signed rows' magnitudes are bounded by Cauchy-Schwarz from the
        non-negative ones.
        """
        top = self.P[:, j + 1]
        mag = top.copy()
        for r, (p, q) in ((_WT, (_W, _WTT)), (_WY, (_W, _WYY)), (_WTY, (_WTT, _WYY)),
                          (_T, (_N, _TT)), (_Y, (_N, _YY)), (_TY, (_TT, _YY))):
            mag[r] = np.sqrt(top[p] * top[q])
        return top - self.P[:, i], (self.P.shape[1] + 7) * _EPS * mag

    def runs(self, i, j) -> _Lines:
        """Screened lines of the runs i..j (index arrays or integers)."""
        return _screen_lines(*self._sums(i, j), self.mu_t, self.mu_y)

    def hinges(self, breaks: np.ndarray) -> _Lines:
        """Screened lines y ~ c + r * max(t - t[b], 0), one per break index b.

        The hinge regressor is 0 up to the break and t - t[b] after it, so its
        sums come from the suffix sums of 1, t, t^2, t*y and y, O(1) per break.
        """
        n = self.P.shape[1] - 1
        S, E = self._sums(breaks + 1, np.full_like(breaks, n - 1))
        m, b, eps = S[_N], self.tc[breaks], _EPS
        x = S[_T] - b * m
        xx = S[_TT] - 2 * b * S[_T] + b**2 * m
        xy = S[_TY] - b * S[_Y]
        # The suffix sums' own rounding plus that of shifting t by the break,
        # at the scale of sqrt(sum (|t| + |b|)^2).
        scale = np.sqrt(S[_TT]) + np.sqrt(m) * abs(b)
        e_x = E[_T] + 8 * eps * np.sqrt(m) * scale
        e_xx = E[_TT] + 2 * abs(b) * E[_T] + 8 * eps * scale**2
        e_xy = E[_TY] + abs(b) * E[_Y] + 8 * eps * scale * np.sqrt(S[_YY])
        whole, e_whole = self._sums(0, n - 1)
        ones = np.ones_like(x)
        rows = [n * ones, x, whole[_Y] * ones, xx, xy, whole[_YY] * ones]
        errs = [0 * ones, e_x, e_whole[_Y] * ones, e_xx, e_xy, e_whole[_YY] * ones]
        # The regressor is t - t[b] itself, not centred: its offset is 0.
        return _screen_lines(np.stack(rows * 2), np.stack(errs * 2), 0.0, self.mu_y)

    def verdicts(self, lines: _Lines, end_year):
        """(accept, reject): where the screen is sure of fit_hyperbolic's checks.

        Runs in neither mask sit within rounding of a check's threshold; only
        the exact solver can decide them.
        """
        eps, mu_t, mu_y = _EPS, self.mu_t, self.mu_y
        k = -lines.slope
        e_k = lines.e_slope + eps * abs(k)
        a = mu_y + lines.level + k * mu_t
        e_a = (lines.e_level + abs(mu_t) * lines.e_slope
               + 4 * eps * (abs(mu_y) + abs(lines.level) + abs(k * mu_t)))
        g = a - k * end_year  # > 0 iff the singularity a/k lies past the window
        e_g = e_a + abs(end_year) * e_k + 4 * eps * (abs(a) + abs(k * end_year))
        falling, positive = k > e_k, a > e_a
        accept = falling & positive & (g > e_g)
        reject = (k < -e_k) | (falling & (a < -e_a)) | (falling & positive & (g < -e_g))
        return accept, reject


def _best_first(lo: np.ndarray, confirm):
    """Screened candidates in the order of their exact keys, refitted as reached.

    ``lo[u]`` is a lower bound on the first element of candidate u's exact
    key, and ``confirm(u)`` refits u exactly, returning (key, result).
    Candidates are refitted in order of their bounds, and (key, result) pairs
    are yielded by key, each once every candidate not yet refitted has a bound
    above its key.  So only candidates the screen cannot separate from those
    asked for are refitted, and ties among them fall to the exact key.
    """
    pending: list = []  # heap of (key, candidate, result), refitted but not yet yielded
    for u in np.argsort(lo, kind="stable"):
        while pending and pending[0][0][0] < lo[u]:
            key, _, result = heapq.heappop(pending)
            yield key, result
        key, result = confirm(u)
        heapq.heappush(pending, (key, u, result))
    while pending:
        key, _, result = heapq.heappop(pending)
        yield key, result


class _RankedFits(Sequence):
    """The accepted windows of a scan, in rank order, fitted as they are reached."""

    def __init__(self, count: int, fits):
        self._count, self._fits = count, fits
        self._ranked: list[HyperbolicFit] = []

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[r] for r in range(len(self))[index]]
        r = range(len(self))[index]
        while len(self._ranked) <= r:
            self._ranked.append(next(self._fits)[1])
        return self._ranked[r]


def scan_windows(
    series: YearValueSeries,
    weighting: str = "uniform",
) -> Sequence[HyperbolicFit]:
    """Fit every contiguous window with observed-year endpoints.

    Candidates are all (start, end) pairs of observed years enclosing at
    least 3 observations.  Windows whose fit fails (non-hyperbolic or
    singularity-in-window) are silently dropped.  Results are ranked by rmse
    per degree of freedom, ties broken by longer window, then earlier start,
    so ordering is fully deterministic.

    The result is a lazy sequence: ``len()`` is known at once, and items are
    ``fit_hyperbolic`` results built as they are reached.  Cumulative sums
    screen every window in O(n^2) array work: its line, its rank key with a
    rounding bound, and fit_hyperbolic's checks.  Only windows whose keys
    the screen cannot separate are refitted exactly and ordered by the exact
    key, and only a check that lies within rounding of its threshold is left
    to the exact solver, so every item is what the exact solver returns.
    On exact data every key ties and the cost falls back to one exact fit per
    window.
    """
    t, s = series.years, series.values
    sums = _CumulativeSums(t, 1.0 / s, _weights(s, weighting))
    first, last = np.triu_indices(len(t), 2)
    accept, lo, known = np.zeros(len(first), dtype=bool), np.zeros(len(first)), {}
    for c in range(0, len(first), _CHUNK):
        block = slice(c, c + _CHUNK)
        i, j = first[block], last[block]
        lines = sums.runs(i, j)
        accept[block], reject = sums.verdicts(lines, t[j])
        # A lower bound on the exact rmse_per_dof, rounding of the sqrt included.
        dof = j - i - 1.0
        lo[block] = np.sqrt(np.maximum((lines.sse - lines.e_sse) / dof, 0.0)) * (1 - 4 * _EPS)
        for u in c + np.flatnonzero(~(accept[block] | reject)):
            window = FitWindow(float(t[first[u]]), float(t[last[u]]))
            try:
                fit = fit_hyperbolic(series, window, weighting)
            except (NonHyperbolicError, SingularityInWindowError):
                continue
            accept[u], lo[u], known[u] = True, fit.rmse_per_dof, fit
    keep = np.flatnonzero(accept)

    def confirm(c):
        u = keep[c]
        fit = known.get(u) or fit_hyperbolic(
            series, FitWindow(float(t[first[u]]), float(t[last[u]])), weighting)
        return (fit.rmse_per_dof, -fit.window.span, fit.window.start_year), fit

    return _RankedFits(len(keep), _best_first(lo[keep], confirm))


def best_fit(series: YearValueSeries, window: FitWindow | None, weighting: str) -> HyperbolicFit:
    """The fit over ``window``, else the top scan_windows fit; FitError if none."""
    if window is not None:
        return fit_hyperbolic(series, window, weighting)
    ranked = scan_windows(series, weighting=weighting)
    if not ranked:
        raise FitError(f"no hyperbolic window found for {series.label!r}")
    return ranked[0]
