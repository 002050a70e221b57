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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    FitError,
    NonHyperbolicError,
    SingularityInWindowError,
    TooFewPointsError,
)
from .model import HyperbolicModel, evaluate, reciprocal_line
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
    if weighting not in WEIGHTINGS:
        raise ValueError(f"weighting must be one of {WEIGHTINGS}, got {weighting!r}")
    mask = (series.years >= window.start_year) & (series.years <= window.end_year)
    t = series.years[mask]
    s = series.values[mask]
    if len(t) < 3:
        raise TooFewPointsError(
            f"window [{window.start_year}, {window.end_year}] holds {len(t)} points; need >= 3"
        )
    y = 1.0 / s
    w = s**2 if weighting == "direct" else np.ones_like(s)

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


@dataclass(frozen=True)
class GoodnessReport:
    """Whole-series diagnostics for one fit.

    ``deviations`` holds a signed percent deviation for every observed year of
    the series (also outside the fit window); None where the model is not
    evaluable (year at or past the singularity).
    """

    rmse_reciprocal: float
    r2_reciprocal: float
    deviations: tuple[tuple[float, float | None], ...]

    def deviation_at(self, year: float) -> float | None:
        for y, d in self.deviations:
            if y == year:
                return d
        raise KeyError(f"year {year} not in series")


def goodness(fit: HyperbolicFit, series: YearValueSeries) -> GoodnessReport:
    """In-window error summary plus out-of-window deviations.

    Out-of-window deviations support the characteristic commentary of this
    analysis style, e.g. how far the earliest observation sits above a curve
    fitted to later data.
    """
    sing = fit.model.singularity_year
    devs = []
    for year, value in zip(series.years, series.values):
        if year >= sing:
            devs.append((float(year), None))
        else:
            fitted = evaluate(fit.model, year)
            devs.append((float(year), 100.0 * (value - fitted) / fitted))
    return GoodnessReport(
        rmse_reciprocal=fit.rmse_reciprocal,
        r2_reciprocal=fit.r2_reciprocal,
        deviations=tuple(devs),
    )


def scan_windows(
    series: YearValueSeries,
    weighting: str = "uniform",
) -> list[HyperbolicFit]:
    """Fit every contiguous window with observed-year endpoints.

    Candidates are all (start, end) pairs of observed years enclosing at
    least 3 observations.  Windows whose fit fails (non-hyperbolic or
    singularity-in-window) are silently dropped.  Results are ranked by rmse
    per degree of freedom, ties broken by longer window, then earlier start,
    so ordering is fully deterministic.
    """
    years = series.years
    fits = []
    for i in range(len(years)):
        for j in range(i + 2, len(years)):
            window = FitWindow(float(years[i]), float(years[j]))
            try:
                fits.append(fit_hyperbolic(series, window, weighting))
            except (NonHyperbolicError, SingularityInWindowError):
                continue
    fits.sort(
        key=lambda f: (f.rmse_per_dof, -f.window.span, f.window.start_year)
    )
    return fits


def best_fit(series: YearValueSeries, window: FitWindow | None, weighting: str) -> HyperbolicFit:
    """The fit over ``window``, else the top scan_windows fit; FitError if none."""
    if window is not None:
        return fit_hyperbolic(series, window, weighting)
    ranked = scan_windows(series, weighting=weighting)
    if not ranked:
        raise FitError(f"no hyperbolic window found for {series.label!r}")
    return ranked[0]
