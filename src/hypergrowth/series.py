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


@dataclass(frozen=True)
class YearValueSeries:
    """Immutable, strictly-increasing series of positive observations.

    Parameters
    ----------
    years : array-like of float
        Strictly increasing calendar years, no duplicates.
    values : array-like of float
        Strictly positive values, same length as ``years``.
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
                and _all((values > 0) & (values < _INF))):
            if not (_all(np.isfinite(years)) and _all(np.isfinite(values))):
                raise SeriesError("years and values must be finite")
            if _any(years[1:] <= years[:-1]):
                raise SeriesError("years must be strictly increasing (no duplicates)")
            raise SeriesError("all values must be strictly positive")
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
