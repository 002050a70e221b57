"""Takeoff-from-stagnation signature tests."""

import dataclasses
import math

import numpy as np
import pytest

import hypergrowth.takeoff
from hypergrowth import (
    ArgumentError,
    FitError,
    FitWindow,
    GeneratorSpec,
    NonHyperbolicError,
    SingularityInWindowError,
    TakeoffHypothesis,
    TakeoffTestResult,
    TooFewPointsError,
    YearValueSeries,
    evaluate,
    fit_hyperbolic,
    generate,
    maddison_year_grid,
    takeoff_scan,
    takeoff_test,
)

from hypergrowth.fit import _centred_line
from hypergrowth.takeoff import _aicc

GRID = tuple(sorted(set(maddison_year_grid()) | {1750.0}))


def stagnation_series(break_year=1750.0, rate=0.02, noise=0.0, seed=0):
    return generate(
        GeneratorSpec(
            "stagnation-then-takeoff",
            {"level": 1.0, "break_year": break_year, "rate": rate},
            GRID, noise, seed,
        )
    )


def hyperbolic_series():
    years = tuple(y for y in GRID if y < 1971)
    return generate(GeneratorSpec("hyperbolic", {"a": 1.684e-2, "k": 8.539e-6}, years))


class TestTakeoffTest:
    def test_true_takeoff_is_positive(self):
        result = takeoff_test(stagnation_series(), TakeoffHypothesis(1750.0))
        assert result.positive
        assert result.stagnation_ok and result.prominence_ok and result.timing_ok
        assert result.break_year == 1750.0

    def test_pure_hyperbolic_is_negative(self):
        result = takeoff_test(hyperbolic_series(), TakeoffHypothesis(1750.0))
        assert not result.positive
        # Hyperbolic growth is growth throughout: the pre-break trend is not
        # stagnant and the single-model description is not decisively beaten.
        assert not result.stagnation_ok or result.ic_gap <= 10

    def test_constant_series_is_negative(self):
        s = generate(GeneratorSpec("constant", {"level": 5.0}, GRID))
        result = takeoff_test(s, TakeoffHypothesis(1750.0))
        assert not result.positive
        assert not result.prominence_ok

    def test_exactly_constant_series_never_positive(self):
        # Every break fits a flat series to rounding noise, so the fitted
        # rates are rounding noise too; their sign must not read as a
        # stagnation followed by growth.  All breaks tie and the earliest
        # wins, so 1050 puts it inside the search window.
        grid = [1050.0, 1100.0, 1300.0, 1500.0, 1750.0, 1900.0]
        positives = 0
        for step in (5.0, 10.0, 20.0):
            years = np.arange(1000.0, 2000.0 + step / 2, step)
            for level in np.linspace(0.11, 50.0, 200):
                s = YearValueSeries(years, np.full(len(years), level))
                positives += sum(r.positive for r in takeoff_scan(s, grid))
        assert positives == 0

    def test_wrongly_timed_hypothesis_is_negative(self):
        # Halfwidth 150 keeps the sparse grid feasible (two points in the
        # search window) while still excluding the true break at 1750.
        result = takeoff_test(stagnation_series(), TakeoffHypothesis(1500.0, 150.0))
        assert not result.positive
        assert not result.timing_ok

    def test_requires_points_both_sides(self):
        s = generate(GeneratorSpec("constant", {"level": 5.0}, (1800.0, 1900.0, 2000.0)))
        with pytest.raises(TooFewPointsError):
            takeoff_test(s, TakeoffHypothesis(1750.0))

    def test_verdict_invariant_under_rescaling(self):
        s = stagnation_series(noise=0.01, seed=9)
        scaled = YearValueSeries(s.years, s.values * 1e3)
        r1 = takeoff_test(s, TakeoffHypothesis(1750.0))
        r2 = takeoff_test(scaled, TakeoffHypothesis(1750.0))
        assert r1.verdict == r2.verdict
        assert r1.break_year == r2.break_year

    def test_verdict_invariant_under_year_shift(self):
        s = stagnation_series(noise=0.01, seed=9)
        shifted = YearValueSeries(s.years + 100.0, s.values)
        r1 = takeoff_test(s, TakeoffHypothesis(1750.0))
        r2 = takeoff_test(shifted, TakeoffHypothesis(1850.0))
        assert r1.verdict == r2.verdict
        assert r2.break_year == r1.break_year + 100.0


class TestHypothesis:
    @pytest.mark.parametrize("predicted_year, halfwidth, field", [
        (math.nan, 50.0, "predicted_year"),
        (-math.inf, 50.0, "predicted_year"),
        (1750.0, math.inf, "search_halfwidth"),
        (1750.0, math.nan, "search_halfwidth"),
        (1750.0, 0.0, "search_halfwidth"),
        (1750.0, -5.0, "search_halfwidth"),
        ("1750", 50.0, "predicted_year"),
        (1750.0, "50", "search_halfwidth"),
        # An int too large for a float raised a raw OverflowError.
        pytest.param(10**400, 50.0, "predicted_year", id="10**400-50.0-predicted_year"),
        pytest.param(1750.0, 10**400, "search_halfwidth", id="1750.0-10**400-search_halfwidth"),
    ])
    def test_invalid_field_rejected(self, predicted_year, halfwidth, field):
        with pytest.raises(ArgumentError, match=field):
            TakeoffHypothesis(predicted_year, halfwidth)


ONE_SIDED = "series needs observations on both sides of the predicted year"
TOO_FEW = "search window contains fewer than 2 observed points"


class TestFeasibility:
    """takeoff_test needs a point on each side of the predicted year, then 2
    points in the search window; the first unmet need is the message."""

    SERIES = YearValueSeries([1800.0, 1900.0, 2000.0], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("predicted_year, halfwidth, message", [
        (2000.0, 500.0, ONE_SIDED),  # three points in the window, none after
        (1700.0, 500.0, ONE_SIDED),  # none before
        (1850.0, 10.0, TOO_FEW),  # no point in the window
        (1900.0, 50.0, TOO_FEW),  # one point in the window
        (1800.0, 50.0, ONE_SIDED),  # both needs unmet: the sides are named
        (2500.0, 10.0, ONE_SIDED),
    ])
    def test_message_names_first_unmet_need(self, predicted_year, halfwidth, message):
        with pytest.raises(TooFewPointsError) as exc:
            takeoff_test(self.SERIES, TakeoffHypothesis(predicted_year, halfwidth))
        assert str(exc.value) == message

    def test_feasible_at_two_points_in_window(self):
        result = takeoff_test(self.SERIES, TakeoffHypothesis(1850.0, 50.0))
        assert result.break_year is None  # fewer than 4 points: no candidate break

    @staticmethod
    def count_tests(monkeypatch):
        """The series of each evidence computation, the break search behind every test."""
        calls = []
        evidence = hypergrowth.takeoff._evidence
        monkeypatch.setattr(hypergrowth.takeoff, "_evidence",
                            lambda series: calls.append(series) or evidence(series))
        return calls

    def test_scan_tests_once_at_first_feasible_year(self, monkeypatch):
        calls = self.count_tests(monkeypatch)
        grid = [500.0, 2100.0, 1750.0, 1820.0, 1500.0]
        s = stagnation_series()
        results = takeoff_scan(s, grid)
        assert len(calls) == 1 and calls[0] is s
        assert len(results) == len(grid)
        assert [r.break_year is None for r in results] == [True, True, False, False, True]

    def test_scan_never_tests_without_a_feasible_year(self, monkeypatch):
        calls = self.count_tests(monkeypatch)
        results = takeoff_scan(stagnation_series(), [500.0, 2100.0, 3000.0])
        assert calls == []
        assert [r.break_year for r in results] == [None, None, None]


class TestTakeoffScan:
    SCAN_GRID = [1000.0, 1500.0, 1600.0, 1700.0, 1750.0, 1820.0, 1900.0]

    def test_pure_hyperbolic_all_negative(self):
        results = takeoff_scan(hyperbolic_series(), self.SCAN_GRID)
        assert len(results) == len(self.SCAN_GRID)
        assert all(not r.positive for r in results)

    def test_positive_only_near_true_break(self):
        results = takeoff_scan(stagnation_series(), self.SCAN_GRID)
        verdicts = {
            r.hypothesis.predicted_year: r.positive for r in results
        }
        assert verdicts[1750.0]
        for year, positive in verdicts.items():
            if abs(year - 1750.0) > 50.0:
                assert not positive, f"false positive at {year}"

    def test_empty_grid(self):
        assert takeoff_scan(hyperbolic_series(), []) == []

    def test_infeasible_years_reported_negative(self):
        s = generate(GeneratorSpec("constant", {"level": 5.0}, (1800.0, 1900.0, 2000.0)))
        results = takeoff_scan(s, [1000.0, 1900.0])
        assert len(results) == 2
        assert not results[0].positive

    @pytest.mark.parametrize("make", [stagnation_series, hyperbolic_series])
    def test_equals_takeoff_test_at_every_year(self, make):
        # Infeasible: 500 to 1600 hold < 2 points within 50 years on the
        # sparse grid; 2100 lies past the data.
        grid = [500.0, *self.SCAN_GRID, 2100.0]
        s = make()
        infeasible = 0
        for result in takeoff_scan(s, grid):
            try:
                expected = takeoff_test(s, result.hypothesis)
            except TooFewPointsError:
                infeasible += 1
                assert not result.positive and result.break_year is None
                continue
            for f in dataclasses.fields(expected):
                want, got = getattr(expected, f.name), getattr(result, f.name)
                both_nan = isinstance(want, float) and math.isnan(want) and math.isnan(got)
                assert both_nan or got == want, f.name
        assert infeasible == 5

    def test_equals_takeoff_test_below_four_points(self):
        # Feasible at 1850, but 3 points hold no candidate break.
        s = YearValueSeries([1800.0, 1850.0, 1900.0], [1.0, 2.0, 3.0])
        (result,) = takeoff_scan(s, [1850.0], 50.0)
        expected = takeoff_test(s, TakeoffHypothesis(1850.0, 50.0))
        assert not result.positive and result.break_year is None
        for f in dataclasses.fields(expected):
            want, got = getattr(expected, f.name), getattr(result, f.name)
            both_nan = isinstance(want, float) and math.isnan(want) and math.isnan(got)
            assert both_nan or got == want, f.name

    def test_one_hyperbolic_fit_per_scan(self, monkeypatch):
        calls = []
        solve = hypergrowth.takeoff._solve
        monkeypatch.setattr(
            hypergrowth.takeoff, "_solve",
            lambda *args, **kwargs: calls.append(1) or solve(*args, **kwargs),
        )
        takeoff_scan(stagnation_series(noise=0.01, seed=3), self.SCAN_GRID)
        assert len(calls) == 1


# Kept apart from the takeoff module so the reference shares none of its
# code: a feasibility check by boolean masks, one hypothesis at a time.
def _negative(hypothesis: TakeoffHypothesis) -> TakeoffTestResult:
    return TakeoffTestResult(
        verdict="negative",
        prominence_ok=False,
        prominence_score=0.0,
        stagnation_ok=False,
        pre_break_rate=math.nan,
        timing_ok=False,
        break_year=None,
        ic_gap=0.0,
        hypothesis=hypothesis,
    )


def _require_feasible(t: np.ndarray, hypothesis: TakeoffHypothesis):
    p = hypothesis.predicted_year
    hw = hypothesis.search_halfwidth
    if not ((t < p).any() and (t > p).any()):
        raise TooFewPointsError("series needs observations on both sides of the predicted year")
    if ((t >= p - hw) & (t <= p + hw)).sum() < 2:
        raise TooFewPointsError("search window contains fewer than 2 observed points")


class TestOnePassFeasibility:
    """takeoff_scan decides feasibility for the whole grid at once; it must
    equal _require_feasible and takeoff_test run year by year."""

    SERIES = generate(GeneratorSpec(
        "stagnation-then-takeoff", {"level": 1.0, "break_year": 1050.0, "rate": 0.02},
        tuple(float(y) for y in range(1000, 1101, 10)), noise=0.01, seed=4))

    @staticmethod
    def per_year(series, grid, halfwidth):
        results = []
        for year in grid:
            hyp = TakeoffHypothesis(float(year), halfwidth)
            try:
                _require_feasible(series.years, hyp)
            except TooFewPointsError:
                results.append(_negative(hyp))
                continue
            results.append(takeoff_test(series, hyp))
        return results

    @pytest.mark.parametrize("grid, halfwidth", [
        # The first and last observed years, and years outside the series.
        pytest.param([1000.0, 1100.0, 990.0, 1110.0, 500.0, 2000.0, 1050.0], 50.0, id="edges"),
        # p - hw and p + hw land on observed years: exactly 2 points at 1045,
        # 1005 and 1095 with hw 5, exactly 1 at 1042.5 and 1047.5 with hw 2.5.
        pytest.param([1045.0, 1005.0, 1095.0, 1040.0, 1044.0], 5.0, id="two-in-window"),
        pytest.param([1042.5, 1047.5, 1045.0, 1040.0], 2.5, id="one-in-window"),
        pytest.param([1060.0, 1020.0, 1060.0, 1000.0, 1020.0, 1100.0, 1030.0], 10.0,
                     id="unsorted-repeats"),
        pytest.param([], 50.0, id="empty"),
    ])
    def test_equals_per_year_check(self, grid, halfwidth):
        self.assert_same(takeoff_scan(self.SERIES, grid, halfwidth),
                         self.per_year(self.SERIES, grid, halfwidth), len(grid))

    def test_generator_grid_read_once(self):
        grid = [1060.0, 1020.0, 990.0]
        self.assert_same(takeoff_scan(self.SERIES, (y for y in grid), 10.0),
                         self.per_year(self.SERIES, grid, 10.0), len(grid))

    @staticmethod
    def assert_same(got, want, n):
        assert len(got) == len(want) == n
        for g, w in zip(got, want):
            for f in dataclasses.fields(w):
                a, b = getattr(g, f.name), getattr(w, f.name)
                both_nan = isinstance(b, float) and math.isnan(b) and math.isnan(a)
                assert both_nan or a == b, (g.hypothesis, f.name)

    def test_window_edges_hold_the_stated_points(self):
        t = self.SERIES.years

        def count(p, hw):
            return int(((t >= p - hw) & (t <= p + hw)).sum())

        assert [count(p, 5.0) for p in (1045.0, 1005.0, 1095.0)] == [2, 2, 2]
        assert [count(p, 2.5) for p in (1042.5, 1047.5)] == [1, 1]

    def test_text_years_convert_and_bad_years_raise(self):
        assert takeoff_scan(self.SERIES, ["1050"]) == takeoff_scan(self.SERIES, [1050.0])
        with pytest.raises(ArgumentError, match="^predicted_year must be finite, got nan$"):
            takeoff_scan(self.SERIES, [1050.0, math.nan])


def former_ic_gap(series, break_year):
    """The IC gap as computed before the bare solve: a whole-span HyperbolicFit."""
    t, logy = series.years, np.log(series.values)
    n = len(t)
    x = np.maximum(t - break_year, 0.0)
    best_r, xc, ybar = _centred_line(x, logy)
    best_sse = float(((logy - ybar - best_r * (x - xc)) ** 2).sum())
    try:
        hyp_fit = fit_hyperbolic(series, FitWindow(float(t[0]), float(t[-1])))
    except FitError:
        return math.inf
    fitted = np.asarray(evaluate(hyp_fit.model, t))
    sse_hyp = float(((logy - np.log(fitted)) ** 2).sum())
    return _aicc(n, sse_hyp, 2) - _aicc(n, best_sse, 3)


class TestICGap:
    """takeoff_test's IC gap equals the former whole-span fit's, bit for bit."""

    def test_seeded_series(self):
        for seed in range(120):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(4, 400))
            years = 1000.0 + np.cumsum(rng.uniform(0.5, 10.0, n))
            u = (years - years[0]) / (years[-1] - years[0])
            shapes = (1.0 / (1.0 - 0.9 * u), np.exp(3.0 * np.maximum(u - 0.5, 0.0)),
                      1.0 / (0.1 + 0.9 * u), rng.lognormal(0.0, 1.0, n))
            values = shapes[seed % 4] * rng.lognormal(0.0, rng.choice([1e-6, 1e-2, 5e-2]), n)
            s = YearValueSeries(years, values)
            got = takeoff_test(s, TakeoffHypothesis(float(years[n // 2]), 50.0))
            assert got.ic_gap == former_ic_gap(s, got.break_year), seed

    @pytest.mark.parametrize("values, error", [
        (np.full(60, 5.0), NonHyperbolicError),  # a constant level: no decreasing line
        ((1.0 - 0.99 * np.linspace(0.0, 1.0, 60)) ** -3, SingularityInWindowError),
    ], ids=["constant", "singularity-inside"])
    def test_failed_solve_gives_inf(self, values, error):
        years = np.arange(1700.0, 1760.0)
        s = YearValueSeries(years, values)
        with pytest.raises(error):
            fit_hyperbolic(s, FitWindow(float(years[0]), float(years[-1])))
        got = takeoff_test(s, TakeoffHypothesis(1730.0, 50.0))
        assert got.ic_gap == math.inf == former_ic_gap(s, got.break_year)
