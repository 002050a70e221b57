"""Ordered (year, value) observation series.

Years are real-valued Gregorian year numbers (AD 1 = 1); values are GDP in
billions of 1990 Geary-Khamis dollars.  Gaps between observations are allowed
and preserved: nothing in this package ever interpolates across them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SeriesError

_INF = float("inf")
_all, _any = np.logical_and.reduce, np.logical_or.reduce
# The range of every value.  A fit squares each reciprocal y = 1/v and, under
# "direct", weighs by w = v^2, multiplying w by t^2 and by squared centred
# reciprocals; each must stay a normal float, within [2.2e-308, 1.8e308].  In
# this range y^2 and w lie within [1e-100, 1e100] and their products below
# 1e200, which leaves a factor of 1e108 for t^2 and the sums over a series'
# points: years up to 1e50 and up to 1e8 points.
VALUE_MIN, VALUE_MAX = 1e-50, 1e50


@dataclass(frozen=True)
class YearValueSeries:
    """Immutable, strictly-increasing series of positive observations.

    Parameters
    ----------
    years : array-like of float
        Strictly increasing calendar years, no duplicates.
    values : array-like of float
        Positive values within [VALUE_MIN, VALUE_MAX], same length as ``years``.
    label : str
        Free-text identifier (region name, generator tag, ...).
    """

    years: np.ndarray
    values: np.ndarray
    label: str = ""

    def __post_init__(self):
        # Copies: freezing the caller's own arrays would make them read-only.
        years = np.array(self.years, dtype=float)
        values = np.array(self.values, dtype=float)
        object.__setattr__(self, "years", years)
        object.__setattr__(self, "values", values)
        if years.ndim != 1 or values.ndim != 1:
            raise SeriesError("years and values must be one-dimensional")
        if len(years) != len(values):
            raise SeriesError("years and values must have the same length")
        if len(years) < 1:
            raise SeriesError("series must contain at least one observation")
        # One comparison pass per array on clean input.  Strictly increasing
        # years with finite ends are all finite, and a NaN fails every
        # comparison, so only a faulty series reaches the checks that name
        # its first fault.  The ufunc reductions skip ndarray.all's wrapper.
        if not (_all(years[1:] > years[:-1]) and -_INF < years[0] and years[-1] < _INF
                and _all((values >= VALUE_MIN) & (values <= VALUE_MAX))):
            if not (_all(np.isfinite(years)) and _all(np.isfinite(values))):
                raise SeriesError("years and values must be finite")
            if _any(years[1:] <= years[:-1]):
                raise SeriesError("years must be strictly increasing (no duplicates)")
            if _any(values <= 0):
                raise SeriesError("all values must be strictly positive")
            raise SeriesError(f"all values must lie within [{VALUE_MIN:g}, {VALUE_MAX:g}]")
        years.setflags(write=False)
        values.setflags(write=False)

    def __len__(self) -> int:
        return len(self.years)

    def __eq__(self, other) -> bool:
        if not isinstance(other, YearValueSeries):
            return NotImplemented
        return (
            self.label == other.label
            and np.array_equal(self.years, other.years)
            and np.array_equal(self.values, other.values)
        )

    def points(self) -> list[tuple[float, float]]:
        """Return the observations as a list of (year, value) tuples."""
        return list(zip(self.years.tolist(), self.values.tolist()))

    def slice_window(self, start_year: float, end_year: float) -> "YearValueSeries":
        """Sub-series with start_year <= year <= end_year (inclusive)."""
        lo = self.years.searchsorted(start_year, side="left")
        hi = self.years.searchsorted(end_year, side="right")
        # searchsorted places a NaN bound after every year; a NaN window holds none.
        if not (lo < hi and start_year <= end_year):
            raise SeriesError(
                f"no observations in window [{start_year}, {end_year}]"
            )
        return YearValueSeries(self.years[lo:hi], self.values[lo:hi], self.label)

    def after(self, year: float) -> "YearValueSeries | None":
        """Sub-series strictly after ``year``, or None if empty."""
        # A NaN year sorts after every year, so it leaves nothing, as ``>`` does.
        lo = self.years.searchsorted(year, side="right")
        if lo == len(self.years):
            return None
        return YearValueSeries(self.years[lo:], self.values[lo:], self.label)
