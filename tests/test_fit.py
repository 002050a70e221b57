"""Reciprocal-space regression: recovery, equivariances, window scanning."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hypergrowth import (
    FitError,
    FitWindow,
    GeneratorSpec,
    HyperbolicModel,
    NonHyperbolicError,
    TooFewPointsError,
    YearValueSeries,
    fit_hyperbolic,
    fit_record,
    generate,
    reciprocal_line,
    relative_deviation,
    scan_windows,
)
from hypergrowth.fit import _centred_line, _CumulativeSums


def hyperbolic_series(a=1.0, k=0.001, years=None, noise=0.0, seed=0):
    years = years or tuple(float(y) for y in range(0, 901, 100))
    return generate(GeneratorSpec("hyperbolic", {"a": a, "k": k}, years, noise, seed))


def reference_uniform_fit(series, window):
    """The former uniform fit, through explicit unit weights: (a, k, rmse, r2, deltas)."""
    mask = (series.years >= window.start_year) & (series.years <= window.end_year)
    t, s = series.years[mask], series.values[mask]
    w, y = np.ones_like(s), 1.0 / s
    slope, tc, ybar = _centred_line(t, y, w)
    k = -slope
    a = ybar + k * tc
    deltas = y - reciprocal_line(HyperbolicModel(a, k), t)
    ss_tot = float((w * (y - ybar) ** 2).sum())
    ss_res = float((w * deltas**2).sum())
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return a, k, float(np.sqrt(np.mean(deltas**2))), r2, deltas


class TestUniformWeightsSkipped:
    """Uniform fits skip the unit weights and change no bit."""

    def test_fit_matches_explicit_unit_weights(self):
        compared = 0
        for seed in range(150):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(3, 80))
            years = np.cumsum(rng.uniform(0.5, 30.0, n)) + rng.uniform(-2000.0, 1500.0)
            k = 1.0 / (years[-1] - years[0]) / rng.uniform(1.05, 20.0)
            values = 1.0 / (k * (years[-1] + rng.uniform(1.0, 500.0) - years))
            values *= np.exp(rng.normal(0.0, (0.0, 1e-3, 0.02)[seed % 3], n))
            s = YearValueSeries(years, values * 10.0 ** rng.integers(-3, 4))
            lo = int(rng.integers(0, n - 2))
            window = FitWindow(float(years[lo]), float(years[rng.integers(lo + 2, n)]))
            try:
                fit = fit_hyperbolic(s, window)
            except FitError:
                continue
            compared += 1
            a, k, rmse, r2, deltas = reference_uniform_fit(s, window)
            rec = fit_record(fit)
            assert (fit.model.a, fit.model.k, rec["rmse_reciprocal"], rec["r2_reciprocal"]) == (
                a, k, rmse, r2), seed
            assert fit.deltas.tobytes() == deltas.tobytes()
        assert compared >= 100

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.floats(-1e4, 1e4), st.floats(-1e3, 1e3)),
                    min_size=2, max_size=60, unique_by=lambda p: p[0]))
    def test_centred_line_matches_unit_weights(self, points):
        t, y = (np.array(c) for c in zip(*sorted(points)))
        with np.errstate(divide="ignore", invalid="ignore"):
            got = _centred_line(t, y)
            want = _centred_line(t, y, np.ones_like(t))
        assert np.array(got).tobytes() == np.array(want).tobytes()


def reference_masked_fit(series, window, weighting):
    """fit_hyperbolic as first written: boolean masks copy the window out.

    Returns the fit's fields, or None where fit_hyperbolic must raise.
    """
    mask = (series.years >= window.start_year) & (series.years <= window.end_year)
    t, s = series.years[mask], series.values[mask]
    if len(t) < 3:
        return None
    w = s**2 if weighting == "direct" else None
    y = 1.0 / s
    slope, tc, ybar = _centred_line(t, y, w)
    k = -slope
    a = ybar + k * tc
    if k <= 0 or a <= 0 or a / k <= window.end_year:
        return None
    fitted = reciprocal_line(HyperbolicModel(a, k), t)
    deltas = y - fitted
    sq_tot, sq_res = (y - ybar) ** 2, deltas**2
    rmse = math.sqrt(float(sq_res.sum()) / len(t))
    if w is not None:
        sq_tot, sq_res = w * sq_tot, w * sq_res
    ss_tot, ss_res = float(sq_tot.sum()), float(sq_res.sum())
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    rel_dev = 100.0 * np.abs(s - 1.0 / fitted) / (1.0 / fitted)
    return a, k, rmse, r2, float(rel_dev.max()), t, y, deltas


class TestWindowSlice:
    """fit_hyperbolic slices its window out of the sorted years; no bit changes."""

    @pytest.mark.parametrize("weighting", ["uniform", "direct"])
    def test_matches_masked_reference(self, weighting):
        compared = rejected = 0
        for seed in range(200):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(3, 120))
            years = np.cumsum(rng.uniform(0.5, 30.0, n)) + rng.uniform(-2000.0, 1500.0)
            k = 1.0 / (years[-1] - years[0]) / rng.uniform(1.05, 20.0)
            values = 1.0 / (k * (years[-1] + rng.uniform(1.0, 500.0) - years))
            values *= np.exp(rng.normal(0.0, (0.0, 1e-3, 0.05)[seed % 3], n))
            s = YearValueSeries(years, values * 10.0 ** rng.integers(-3, 4))
            i, j = sorted(int(x) for x in rng.integers(0, n, 2))
            # Edges on an observed year, between two years, or beyond the series.
            start, end = (
                (years[i], years[j]),
                (years[i] - rng.uniform(0.01, 0.49), years[j] + rng.uniform(0.01, 0.49)),
                (years[0] - 100.0, years[j]),
                (years[i], years[-1] + 100.0),
            )[seed % 4]
            if not start < end:
                continue
            window = FitWindow(float(start), float(end))
            want = reference_masked_fit(s, window, weighting)
            try:
                fit = fit_hyperbolic(s, window, weighting)
            except FitError:
                assert want is None, seed
                rejected += 1
                continue
            assert want is not None, seed
            compared += 1
            a, k, rmse, r2, max_dev, t, y, deltas = want
            rec = fit_record(fit)
            assert (fit.model.a, fit.model.k, rec["rmse_reciprocal"], rec["r2_reciprocal"],
                    rec["max_abs_relative_deviation"]) == (a, k, rmse, r2, max_dev), seed
            for got, arr in ((fit.years, t), (fit.reciprocals, y), (fit.deltas, deltas)):
                assert got.dtype == arr.dtype and got.tobytes() == arr.tobytes(), seed
                assert not got.flags.writeable
            values = s.values[(s.years >= window.start_year) & (s.years <= window.end_year)]
            assert fit.values.dtype == values.dtype, seed
            assert fit.values.tobytes() == values.tobytes(), seed
            assert not fit.values.flags.writeable
        assert compared >= 100 and rejected >= 5

    def test_years_view_keeps_series_intact(self):
        s = hyperbolic_series()
        fit = fit_hyperbolic(s, FitWindow(150.0, 750.0))
        np.testing.assert_array_equal(fit.years, [200.0, 300.0, 400.0, 500.0, 600.0, 700.0])
        assert np.shares_memory(fit.years, s.years)
        assert not np.shares_memory(fit.reciprocals, s.values)
        assert not s.years.flags.writeable and not s.values.flags.writeable


class TestCumulativeSums:
    """The table, filled in place, equals the stacked terms' cumulative sums."""

    @pytest.mark.parametrize("weighted", [False, True])
    def test_matches_stacked_reference(self, weighted):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(1, 300))
            t = np.cumsum(rng.uniform(0.5, 30.0, n)) + rng.uniform(-2000.0, 1500.0)
            y = rng.lognormal(0.0, 2.0, n) * 10.0 ** rng.integers(-6, 3)
            w = rng.lognormal(0.0, 3.0, n) if weighted else None
            sums = _CumulativeSums(t, y, w)
            tc, yc = t - t.mean(), y - y.mean()
            terms = np.stack([np.ones_like(t), tc, yc, tc**2, tc * yc, yc**2])
            want = np.zeros((6, n + 1))
            np.cumsum(terms if w is None else terms * w, axis=1, out=want[:, 1:])
            assert sums.P.tobytes() == want.tobytes(), seed
            assert sums.tc.tobytes() == tc.tobytes(), seed
            assert (sums.mu_t, sums.mu_y) == (t.mean(), y.mean()), seed


class TestFitHyperbolic:
    @pytest.mark.parametrize("weighting", ["uniform", "direct"])
    def test_exact_recovery(self, weighting):
        s = hyperbolic_series()
        fit = fit_hyperbolic(s, FitWindow(0.0, 900.0), weighting)
        assert fit.model.a == pytest.approx(1.0, rel=1e-9)
        assert fit.model.k == pytest.approx(0.001, rel=1e-9)

    def test_decreasing_series_is_non_hyperbolic(self):
        s = YearValueSeries([0.0, 1.0, 2.0], [3.0, 2.0, 1.0])
        with pytest.raises(NonHyperbolicError):
            fit_hyperbolic(s, FitWindow(0.0, 2.0))

    # Text windows were accepted, and fit_hyperbolic then failed inside numpy;
    # None raised a raw TypeError, and an infinite end was accepted.
    @pytest.mark.parametrize("start, end", [
        ("0", "600"), (0.0, "600"), (None, 600.0), (0.0, math.inf), (-math.inf, 600.0),
        pytest.param(0.0, 10**400, id="0.0-10**400"),
    ])
    def test_window_years_must_be_finite_numbers(self, start, end):
        with pytest.raises(TooFewPointsError, match="window start"):
            FitWindow(start, end)

    # A year that is no finite number was reported as an empty window,
    # "window start 0 must precede end 600"; the message now names the values.
    @pytest.mark.parametrize("start, end, message", [
        ("0", "600", "window start '0' and end '600' must be finite numbers"),
        (0.0, math.inf, "window start 0.0 and end inf must be finite numbers"),
        (math.nan, 5.0, "window start nan and end 5.0 must be finite numbers"),
        (None, 600.0, "window start None and end 600.0 must be finite numbers"),
    ])
    def test_non_number_window_message_names_the_values(self, start, end, message):
        with pytest.raises(TooFewPointsError) as err:
            FitWindow(start, end)
        assert str(err.value) == message

    @pytest.mark.parametrize("start, end", [(600.0, 0.0), (5.0, 5.0), (5, 5)])
    def test_empty_window_message_unchanged(self, start, end):
        with pytest.raises(TooFewPointsError) as err:
            FitWindow(start, end)
        assert str(err.value) == f"window start {start} must precede end {end}"

    def test_too_few_points(self):
        s = YearValueSeries([0.0, 1.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(TooFewPointsError):
            fit_hyperbolic(s, FitWindow(0.0, 1.0))

    def test_residual_orthogonality_uniform(self):
        s = hyperbolic_series(noise=0.05, seed=11)
        fit = fit_hyperbolic(s, FitWindow(0.0, 900.0), "uniform")
        deltas, years = fit.deltas, fit.years
        scale = np.abs(deltas).max()
        assert abs(deltas.sum()) < 1e-10 * max(scale, 1e-30) * len(deltas)
        assert abs((deltas * (years - years.mean())).sum()) < 1e-7 * max(scale, 1e-30) * 900

    def test_point_arrays_are_read_only(self):
        fit = fit_hyperbolic(hyperbolic_series(), FitWindow(0.0, 900.0))
        for arr in (fit.years, fit.reciprocals, fit.deltas):
            assert len(arr) == 10
            with pytest.raises(ValueError):
                arr[0] = 1.0

    @given(c=st.floats(1e-3, 1e3))
    @settings(max_examples=25, deadline=None)
    def test_unit_equivariance(self, c):
        s = hyperbolic_series(noise=0.02, seed=5)
        scaled = YearValueSeries(s.years, s.values * c)
        f1 = fit_hyperbolic(s, FitWindow(0.0, 900.0))
        f2 = fit_hyperbolic(scaled, FitWindow(0.0, 900.0))
        assert f2.model.a == pytest.approx(f1.model.a / c, rel=1e-9)
        assert f2.model.k == pytest.approx(f1.model.k / c, rel=1e-9)
        assert f2.model.singularity_year == pytest.approx(
            f1.model.singularity_year, rel=1e-9
        )

    @pytest.mark.parametrize("t0", [-500.0, 137.0, 2000.0])
    def test_shift_equivariance(self, t0):
        s = hyperbolic_series(noise=0.02, seed=5)
        shifted = YearValueSeries(s.years + t0, s.values)
        f1 = fit_hyperbolic(s, FitWindow(0.0, 900.0))
        f2 = fit_hyperbolic(shifted, FitWindow(0.0 + t0, 900.0 + t0))
        assert f2.model.k == pytest.approx(f1.model.k, rel=1e-9)
        assert f2.model.singularity_year == pytest.approx(
            f1.model.singularity_year + t0, rel=1e-9, abs=1e-6
        )

    def test_window_with_internal_singularity_rejected(self):
        # Reciprocals fall steeply then flatten near zero; the least-squares
        # line crosses zero around year 322, inside the window.
        years = [0.0, 100.0, 200.0, 300.0, 400.0]
        values = [1.0, 2.0, 100.0, 200.0, 500.0]
        s = YearValueSeries(years, values)
        from hypergrowth import SingularityInWindowError

        with pytest.raises(SingularityInWindowError):
            fit_hyperbolic(s, FitWindow(0.0, 400.0))


class TestGoodness:
    """In-window error summary, and relative_deviation over a whole series."""

    def test_exact_data(self):
        s = hyperbolic_series()
        fit = fit_hyperbolic(s, FitWindow(0.0, 900.0))
        assert fit_record(fit)["rmse_reciprocal"] == pytest.approx(0.0, abs=1e-14)
        assert fit_record(fit)["r2_reciprocal"] == pytest.approx(1.0)
        devs = relative_deviation(s.years, s.values, fit.model)
        np.testing.assert_allclose(devs, 0.0, atol=1e-9)

    def test_doubling_one_point(self):
        s = hyperbolic_series()
        values = s.values.copy()
        values[3] *= 2.0
        fit = fit_hyperbolic(s, FitWindow(0.0, 900.0))
        devs = relative_deviation(s.years, values, fit.model)
        assert s.years[3] == 300.0
        assert devs[3] == pytest.approx(100.0, abs=1e-9)
        assert np.abs(np.delete(devs, 3)).max() < 1e-9

    def test_out_of_window_deviation_reported(self):
        s = hyperbolic_series(years=tuple(float(y) for y in range(0, 951, 50)))
        fit = fit_hyperbolic(s, FitWindow(200.0, 900.0))
        devs = relative_deviation(s.years, s.values, fit.model)
        assert devs.shape == (len(s),)
        assert s.years[0] == 0.0
        assert devs[0] == pytest.approx(0.0, abs=1e-9)


class TestScanWindows:
    def test_pure_hyperbolic_all_windows_near_perfect(self):
        # On exact data the whole series fits to rounding noise, so the top
        # candidate is the full range, and it recovers the true model.
        s = hyperbolic_series()
        (top,) = scan_windows(s)
        assert top.model.a == pytest.approx(1.0, rel=1e-6)
        assert top.model.k == pytest.approx(0.001, rel=1e-6)
        full = fit_hyperbolic(s, FitWindow(0.0, 900.0))
        assert fit_record(full)["rmse_reciprocal"] == pytest.approx(0.0, abs=1e-12)
        assert top.window == full.window
        assert (top.model.a, top.model.k) == (full.model.a, full.model.k)

    def test_spliced_series_full_range_not_on_top(self):
        params = {"a": 0.242, "k": 1e-4, "break_year": 1820.0, "k_ratio": 4.2}
        s = generate(
            GeneratorSpec(
                "spliced-two-hyperbolic", params,
                tuple(float(y) for y in range(1000, 1951, 50)),
            )
        )
        (top,) = scan_windows(s)
        full = fit_hyperbolic(s, FitWindow(1000.0, 1950.0))
        within_first = fit_hyperbolic(s, FitWindow(1000.0, 1800.0))
        rmse = {f: fit_record(f)["rmse_reciprocal"] for f in (top, full, within_first)}
        assert rmse[within_first] < rmse[full]
        assert rmse[top] < rmse[full]

    def test_three_points_single_candidate(self):
        s = hyperbolic_series(years=(0.0, 100.0, 200.0))
        assert len(scan_windows(s)) == 1

    def test_deterministic_order(self):
        s = hyperbolic_series(noise=0.03, seed=2)
        first = scan_windows(s)
        second = scan_windows(s)
        assert [(f.window.start_year, f.window.end_year) for f in first] == [
            (f.window.start_year, f.window.end_year) for f in second
        ]
