"""Core model formulas: evaluation, reciprocals, singularity arithmetic."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hypergrowth import (
    EvaluationDomainError,
    HyperbolicModel,
    SeriesError,
    YearValueSeries,
    evaluate,
    reciprocal_delta,
    reciprocal_line,
    relative_deviation,
    round_half_up,
)

WORLD = HyperbolicModel(1.684e-2, 8.539e-6)


class TestEvaluate:
    def test_at_year_zero(self):
        assert evaluate(HyperbolicModel(1.0, 0.001), 0.0) == pytest.approx(1.0)

    def test_halfway_to_singularity(self):
        assert evaluate(HyperbolicModel(1.0, 0.001), 500.0) == pytest.approx(2.0)

    def test_world_parameters_at_1900(self):
        # Oracle: exact rational arithmetic on the same decimal literals.
        expected = float(1 / (Fraction("1.684e-2") - Fraction("8.539e-6") * 1900))
        assert evaluate(WORLD, 1900.0) == pytest.approx(expected, rel=1e-9)
        assert evaluate(WORLD, 1900.0) == pytest.approx(1623.6, abs=0.05)

    def test_domain_error_at_singularity(self):
        with pytest.raises(EvaluationDomainError):
            evaluate(HyperbolicModel(1.0, 0.001), 1000.0)
        with pytest.raises(EvaluationDomainError):
            evaluate(HyperbolicModel(1.0, 0.001), 1500.0)

    @given(
        a=st.floats(0.01, 10.0),
        k=st.floats(1e-6, 1e-2),
    )
    def test_strictly_increasing_before_singularity(self, a, k):
        model = HyperbolicModel(a, k)
        grid = np.linspace(0.0, 0.999 * model.singularity_year, 500)
        values = evaluate(model, grid)
        assert np.all(np.diff(values) > 0)


class TestSingularity:
    def test_world_row(self):
        assert round_half_up(WORLD.singularity_year) == 1972

    def test_asia_row(self):
        assert round_half_up(HyperbolicModel(2.303e-2, 1.129e-5).singularity_year) == 2040

    def test_unit_model(self):
        assert HyperbolicModel(1.0, 1.0).singularity_year == pytest.approx(1.0)

    def test_parameters_must_be_positive(self):
        with pytest.raises(SeriesError):
            HyperbolicModel(-1.0, 0.5)
        with pytest.raises(SeriesError):
            HyperbolicModel(1.0, 0.0)

    # These raised a raw OverflowError or TypeError.
    @pytest.mark.parametrize("a, k, name", [
        pytest.param(10**400, 1.0, "a", id="10**400-1.0-a"),
        pytest.param(1.0, 10**400, "k", id="1.0-10**400-k"),
        ("1", 1e-3, "a"), (1.0, None, "k"),
    ])
    def test_parameters_must_be_finite_numbers(self, a, k, name):
        with pytest.raises(SeriesError, match=f"parameter {name} must be finite and positive"):
            HyperbolicModel(a, k)


class TestReciprocalTransform:
    def test_model_series_is_collinear(self):
        model = HyperbolicModel(1.0, 0.001)
        years = np.arange(0.0, 901.0, 100.0)
        recip = 1.0 / evaluate(model, years)
        np.testing.assert_allclose(recip, reciprocal_line(model, years), rtol=1e-12)
        np.testing.assert_allclose(recip, model.a - model.k * years, rtol=1e-12)


def _identity_discrepancy(delta):
    """Largest |delta(s1, s2) - (1/s2 - 1/s1)| over 1e6 pairs, relative to the reciprocals.

    Both forms approach zero when s1 ~ s2, so the discrepancy is judged
    against max(1/s1, 1/s2), the natural scale of the identity.
    """
    rng = np.random.default_rng(7)
    s1 = np.exp(rng.uniform(-6, 6, 1_000_000))
    s2 = np.exp(rng.uniform(-6, 6, 1_000_000))
    scale = np.maximum(1.0 / s1, 1.0 / s2)
    return float(np.max(np.abs(delta(s1, s2) - (1.0 / s2 - 1.0 / s1)) / scale))


class TestReciprocalDelta:
    def test_simple_pair(self):
        assert reciprocal_delta(2.0, 4.0) == pytest.approx(-0.25)

    def test_identity_case(self):
        assert reciprocal_delta(3.7, 3.7) == 0.0

    def test_magnification_at_small_values(self):
        assert reciprocal_delta(0.1, 0.2) == pytest.approx(-5.0)

    @given(st.floats(1e-6, 1e6), st.floats(1e-6, 1e6))
    def test_antisymmetry(self, s1, s2):
        assert reciprocal_delta(s1, s2) + reciprocal_delta(s2, s1) == pytest.approx(
            0.0, abs=1e-12 * (1 / s1 + 1 / s2)
        )

    def test_rejects_nonpositive(self):
        with pytest.raises(SeriesError):
            reciprocal_delta(-1.0, 2.0)

    def test_identity_holds_to_1e_12_relative(self):
        discrepancy = _identity_discrepancy(reciprocal_delta)
        assert f"{discrepancy:.2e}" == "4.44e-16"
        assert discrepancy < 1e-12

    def test_off_by_1e_10_relative_breaks_the_identity(self):
        discrepancy = _identity_discrepancy(
            lambda s1, s2: reciprocal_delta(s1, s2) * (1.0 + 1e-10))
        assert f"{discrepancy:.2e}" == "1.00e-10"
        assert not discrepancy < 1e-12


class TestRelativeDeviation:
    def test_on_curve(self):
        fitted = evaluate(WORLD, 1900.0)
        assert relative_deviation(1900.0, fitted, WORLD) == pytest.approx(0.0)

    def test_double_the_curve(self):
        fitted = evaluate(WORLD, 1900.0)
        assert relative_deviation(1900.0, 2 * fitted, WORLD) == pytest.approx(100.0)

    def test_propagates_domain_error(self):
        with pytest.raises(EvaluationDomainError):
            relative_deviation(2000.0, 1.0, WORLD)


class TestSeriesInvariants:
    def test_rejects_unsorted_years(self):
        with pytest.raises(SeriesError):
            YearValueSeries([1900.0, 1850.0], [1.0, 2.0])

    def test_rejects_duplicate_years(self):
        with pytest.raises(SeriesError):
            YearValueSeries([1900.0, 1900.0], [1.0, 2.0])

    def test_rejects_nonpositive_values(self):
        with pytest.raises(SeriesError):
            YearValueSeries([1900.0, 1910.0], [1.0, 0.0])

    def test_rejects_empty(self):
        with pytest.raises(SeriesError):
            YearValueSeries([], [])

    def test_never_equals_a_non_series(self):
        s = YearValueSeries([1900.0], [1.0])
        assert s.__eq__([(1900.0, 1.0)]) is NotImplemented
        assert s != [(1900.0, 1.0)] and not s == 1.0

    def test_caller_arrays_stay_writable(self):
        years, values = np.array([1900.0, 1910.0]), np.array([1.0, 2.0])
        s = YearValueSeries(years, values)
        years[0], values[0] = 1800.0, 5.0
        assert (s.years.tolist(), s.values.tolist()) == ([1900.0, 1910.0], [1.0, 2.0])
        assert not (s.years.flags.writeable or s.values.flags.writeable)

    # Two faults at once: the checks run in a fixed order, so the first
    # fault in that order names the error.
    @pytest.mark.parametrize("years, values, message", [
        ([[1900.0, 1910.0]], [1.0], "years and values must be one-dimensional"),
        ([1900.0, float("nan")], [1.0], "years and values must have the same length"),
        ([1910.0, float("nan"), 1900.0], [1.0, 2.0, 3.0], "years and values must be finite"),
        ([1900.0, 1910.0], [float("inf"), 0.0], "years and values must be finite"),
        ([1900.0, 1900.0], [float("nan"), 1.0], "years and values must be finite"),
        ([1910.0, 1900.0], [1.0, -2.0], "years must be strictly increasing (no duplicates)"),
        ([1900.0, 1900.0], [0.0, 1.0], "years must be strictly increasing (no duplicates)"),
        # One fault each: the one-pass check on clean input hands it to the
        # ordered checks, which name it as before.
        ([-math.inf, 1900.0, 1910.0], [1.0, 2.0, 3.0], "years and values must be finite"),
        ([1900.0, 1910.0, math.inf], [1.0, 2.0, 3.0], "years and values must be finite"),
        ([1900.0, math.nan, 1920.0], [1.0, 2.0, 3.0], "years and values must be finite"),
        ([math.nan], [1.0], "years and values must be finite"),
        ([math.inf], [1.0], "years and values must be finite"),
        ([-math.inf], [1.0], "years and values must be finite"),
        ([1900.0, 1910.0], [1.0, math.inf], "years and values must be finite"),
        ([1900.0, 1910.0], [math.nan, 2.0], "years and values must be finite"),
        ([1900.0, 1910.0], [1.0, 0.0], "all values must be strictly positive"),
        ([1900.0, 1910.0], [-1.0, 2.0], "all values must be strictly positive"),
        ([1900.0, 1910.0], [1e-300, 0.0], "all values must be strictly positive"),
        ([1900.0, 1910.0], [1.0, 1.01e50], "all values must lie within [1e-50, 1e+50]"),
        ([1900.0, 1910.0], [9.9e-51, 1.0], "all values must lie within [1e-50, 1e+50]"),
    ])
    def test_first_of_two_faults_names_the_error(self, years, values, message):
        with pytest.raises(SeriesError) as exc:
            YearValueSeries(years, values)
        assert str(exc.value) == message

    def test_value_range_holds_its_ends(self):
        assert YearValueSeries([1900.0, 1910.0], [1e-50, 1e50]).values.tolist() == [1e-50, 1e50]


class TestSubSeries:
    """slice_window and after cut by searchsorted; a NaN bound holds no year."""

    SERIES = YearValueSeries([1900.0, 1910.0, 1920.0, 1930.0], [1.0, 2.0, 3.0, 4.0], "s")

    @pytest.mark.parametrize("start, end, want", [
        (1910.0, 1920.0, [1910.0, 1920.0]),
        (1905.0, 1925.0, [1910.0, 1920.0]),
        (-math.inf, 1900.0, [1900.0]),
        (1930.0, math.inf, [1930.0]),
        (-math.inf, math.inf, [1900.0, 1910.0, 1920.0, 1930.0]),
    ])
    def test_slice_window_rows(self, start, end, want):
        sub = self.SERIES.slice_window(start, end)
        assert (sub.years.tolist(), sub.label) == (want, "s")
        assert sub.values.tolist() == [v for y, v in self.SERIES.points() if y in want]

    @pytest.mark.parametrize("start, end", [
        (1911.0, 1919.0), (1920.0, 1910.0), (1931.0, 2000.0), (1800.0, 1899.0),
        (math.nan, 1920.0), (1910.0, math.nan), (math.nan, math.nan), (-math.inf, math.nan),
    ])
    def test_empty_window_raises(self, start, end):
        with pytest.raises(SeriesError) as exc:
            self.SERIES.slice_window(start, end)
        assert str(exc.value) == f"no observations in window [{start}, {end}]"

    @pytest.mark.parametrize("year, want", [
        (1910.0, [1920.0, 1930.0]), (1915.0, [1920.0, 1930.0]),
        (1899.0, [1900.0, 1910.0, 1920.0, 1930.0]), (-math.inf, [1900.0, 1910.0, 1920.0, 1930.0]),
        (1930.0, None), (math.inf, None), (math.nan, None),
    ])
    def test_after(self, year, want):
        sub = self.SERIES.after(year)
        assert (None if sub is None else sub.years.tolist()) == want
        if sub is not None:
            assert sub.values.tolist() == self.SERIES.values[-len(want):].tolist()
