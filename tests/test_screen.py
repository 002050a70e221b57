"""The screened searches equal a plain scan of every candidate with the exact solver.

``scan_windows``, ``segment_two_hyperbolic`` and ``takeoff_test`` rank their
candidates from cumulative sums and refit only the best exactly.  The
references below fit every candidate exactly and rank by the same rule, and
the best must agree to the last bit.  Where every candidate fits an exact
series to rounding noise, the stated tie rule decides instead.  Call counts
guard the speedup without timing anything.
"""

import dataclasses
import math

import numpy as np
import pytest

import hypergrowth.fit
import hypergrowth.regime
from hypergrowth import (
    FitError,
    FitWindow,
    GeneratorSpec,
    NonHyperbolicError,
    SingularityInWindowError,
    TakeoffHypothesis,
    TooFewPointsError,
    YearValueSeries,
    fit_hyperbolic,
    generate,
    scan_windows,
    segment_two_hyperbolic,
    takeoff_test,
)
from hypergrowth.fit import _TIE_RTOL, _centred_line, best_fit
from hypergrowth.model import evaluate
from hypergrowth.regime import _fit_side
from hypergrowth.takeoff import (
    IC_MIN_GAP,
    PROMINENCE_MIN_RATIO,
    STAGNATION_MAX_RATE,
    TakeoffTestResult,
    _aicc,
)

WEIGHTINGS = ("uniform", "direct")


def reference_scan(series, weighting):
    """Every window of the break model fitted exactly, ranked by the same rule."""
    t, s = series.years, series.values
    n = len(t)
    if n < 3:
        return []
    logy, ones = np.log(s), np.ones_like(t)
    tol = _TIE_RTOL * float(((logy - logy.mean()) ** 2).sum())

    def sse(i, j, y, w):
        slope, tc, ybar = _centred_line(t[i:j + 1], y[i:j + 1], w[i:j + 1])
        return float((w[i:j + 1] * (y[i:j + 1] - ybar - slope * (t[i:j + 1] - tc)) ** 2).sum())

    candidates = []
    for b in [*range(2, n - 2), n - 1]:
        try:
            fit = fit_hyperbolic(series, FitWindow(float(t[0]), float(t[b])), weighting)
        except (NonHyperbolicError, SingularityInWindowError):
            continue
        total = sse(0, b, 1.0 / s, s**2) + (sse(b + 1, n - 1, logy, ones) if b < n - 1 else 0.0)
        p = 5 if b < n - 1 else 2
        candidates.append((max(total, tol) * n ** (p / n), b, fit))
    if not candidates:
        return []
    best = min(c for c, _, _ in candidates)
    candidates.sort(key=lambda c: (best if c[0] <= best + tol else c[0], -c[1]))
    return [fit for _, _, fit in candidates]


def reference_segment(series, weighting):
    years = series.years
    best = None
    for bi in range(2, len(years) - 2):
        b = float(years[bi])
        windows = (FitWindow(float(years[0]), b), FitWindow(b, float(years[-1])))
        (left, left_sse), (right, right_sse) = (_fit_side(series, w, weighting) for w in windows)
        cand = (left_sse + right_sse, -((left is not None) + (right is not None)), b)
        if best is None or cand < best[0]:
            best = (cand, (left, right))
    (sse, _, b), (left, right) = best
    return b, sse, None if left is None or right is None else right.model.k / left.model.k


# Kept apart from the takeoff module so the reference shares none of its
# code: a feasibility check by boolean masks, one hypothesis at a time, and
# results built field by field.
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


def _judged(result: TakeoffTestResult, hypothesis: TakeoffHypothesis) -> TakeoffTestResult:
    """``result`` with timing and verdict judged at ``hypothesis``."""
    if result.break_year is None:
        return _negative(hypothesis)
    return _verdict(result.prominence_ok, result.prominence_score, result.stagnation_ok,
                    result.pre_break_rate, result.break_year, result.ic_gap, hypothesis)


def _verdict(prominence_ok, score, stagnation_ok, pre_rate, break_year, ic_gap,
             hypothesis: TakeoffHypothesis) -> TakeoffTestResult:
    """The result for a series' break evidence, with timing judged at ``hypothesis``."""
    timing_ok = abs(break_year - hypothesis.predicted_year) <= hypothesis.search_halfwidth
    positive = stagnation_ok and prominence_ok and timing_ok and ic_gap > IC_MIN_GAP
    return TakeoffTestResult("positive" if positive else "negative", prominence_ok, score,
                             stagnation_ok, pre_rate, timing_ok, break_year, ic_gap, hypothesis)


def reference_takeoff(series, hypothesis):
    t = series.years
    _require_feasible(t, hypothesis)
    n = len(series)
    if n < 4:
        return _negative(hypothesis)
    logy = np.log(series.values)
    ones = np.ones_like(t)
    best_i, best_r, best_sse = None, None, math.inf
    for i in range(1, n - 2):
        x = np.maximum(t - t[i], 0.0)
        r, xc, ybar = _centred_line(x, logy, ones)
        sse = float(((logy - ybar - r * (x - xc)) ** 2).sum())
        if sse < best_sse:
            best_i, best_r, best_sse = i, float(r), sse
    pre_rate = float(_centred_line(t[: best_i + 1], logy[: best_i + 1], ones[: best_i + 1])[0])
    if best_r <= 0:
        prominence_ok, score = False, 0.0
    elif pre_rate <= 0:
        prominence_ok, score = True, math.inf
    else:
        score = best_r / pre_rate
        prominence_ok = score > PROMINENCE_MIN_RATIO
    try:
        hyp = fit_hyperbolic(series, FitWindow(float(t[0]), float(t[-1])))
        sse_hyp = float(((logy - np.log(np.asarray(evaluate(hyp.model, t)))) ** 2).sum())
        ic_gap = _aicc(n, sse_hyp, 2) - _aicc(n, best_sse, 3)
    except FitError:
        ic_gap = math.inf
    evidence = dataclasses.replace(
        _negative(hypothesis), prominence_ok=prominence_ok, prominence_score=score,
        stagnation_ok=pre_rate < STAGNATION_MAX_RATE, pre_break_rate=pre_rate,
        break_year=float(t[best_i]), ic_gap=ic_gap,
    )
    return _judged(evidence, hypothesis)


def noisy_series(seed):
    """A seeded noisy series of 6 to 30 points, of varying shape, scale and spacing."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 31))
    years = np.round(1000.0 + np.cumsum(rng.uniform(1.0, 30.0, n)), 1)
    kind = seed % 4
    if kind == 0:  # hyperbolic
        values = 1.0 / (0.242 - 1e-4 * (years - years[0] + 1000.0))
    elif kind == 1:  # hyperbolic, then a slope four times steeper
        mid = years[n // 2]
        recip = 0.5 - 1e-4 * (years - years[0]) - 3e-4 * np.maximum(years - mid, 0.0)
        values = 1.0 / np.maximum(recip, 0.01)
    elif kind == 2:  # stagnation, then exponential growth
        values = np.exp(0.02 * np.maximum(years - years[n // 3], 0.0))
    else:  # no structure at all
        values = rng.lognormal(0.0, 1.0, n)
    noise = rng.lognormal(0.0, rng.choice([1e-6, 1e-3, 1e-2, 5e-2]), n)
    return YearValueSeries(years, values * noise * 10.0 ** rng.integers(-3, 4))


def exact_series():
    """Noiseless series: every window or break fits to rounding noise."""
    years = tuple(float(y) for y in range(1000, 1401, 20))
    return [
        generate(GeneratorSpec("hyperbolic", {"a": 0.242, "k": 1e-4}, years)),
        generate(GeneratorSpec("constant", {"level": 0.37}, years)),
        generate(GeneratorSpec("spliced-two-hyperbolic",
                               {"a": 0.242, "k": 1e-4, "break_year": 1200.0, "k_ratio": 4.2},
                               years)),
    ]


CASES = [pytest.param(noisy_series(seed), id=f"noisy{seed}") for seed in range(52)] + [
    pytest.param(s, id=f"exact{i}") for i, s in enumerate(exact_series())
]


def window_order(fits):
    return [(f.window.start_year, f.window.end_year) for f in fits]


@pytest.mark.parametrize("weighting", WEIGHTINGS)
@pytest.mark.parametrize("series", CASES)
def test_scan_equals_every_window_fitted(series, weighting):
    got = scan_windows(series, weighting)
    expected = reference_scan(series, weighting)[:1]
    assert isinstance(got, list)
    assert window_order(got) == window_order(expected)
    assert [(f.model.a, f.model.k) for f in got] == [(f.model.a, f.model.k) for f in expected]


@pytest.mark.parametrize("weighting", WEIGHTINGS)
@pytest.mark.parametrize("series", CASES)
def test_segment_equals_every_break_fitted(series, weighting):
    seg = segment_two_hyperbolic(series, weighting)
    if series.label in ("hyperbolic", "constant"):
        # Every split of an exact hyperbola or constant fits to rounding
        # noise: all tie, and the earliest break wins.
        assert seg.breakpoint_year == series.years[2]
        return
    assert (seg.breakpoint_year, seg.total_sse, seg.k_ratio) == reference_segment(series, weighting)


@pytest.mark.parametrize("series", CASES)
def test_takeoff_equals_every_break_fitted(series):
    hyp = TakeoffHypothesis(float(series.years[len(series) // 2]), 50.0)
    got = takeoff_test(series, hyp)
    if series.label == "constant":
        # Every hinge of a constant fits to rounding noise: all tie, the
        # earliest break wins, and both rates read as zero.
        assert (got.break_year, got.pre_break_rate, got.positive) == (series.years[1], 0.0, False)
        return
    want = reference_takeoff(series, hyp)
    names = [f.name for f in dataclasses.fields(want)]
    for name in names:
        a, b = getattr(got, name), getattr(want, name)
        assert a == b or (isinstance(a, float) and math.isnan(a) and math.isnan(b)), name


class TestEdges:
    def test_two_points_scan_empty(self):
        s = YearValueSeries([1900.0, 1950.0], [1.0, 2.0])
        assert len(scan_windows(s)) == 0
        assert list(scan_windows(s)) == []
        with pytest.raises(FitError):
            best_fit(s, None, "uniform")

    def test_three_points_one_window(self):
        s = YearValueSeries([1900.0, 1925.0, 1950.0], [1.0, 1.5, 2.5])
        ranked = scan_windows(s)
        assert len(ranked) == 1
        assert ranked[0].window == FitWindow(1900.0, 1950.0)
        assert ranked[-1] is ranked[0]
        with pytest.raises(IndexError):
            ranked[1]

    def test_six_points_split(self):
        s = generate(GeneratorSpec("spliced-two-hyperbolic",
                                   {"a": 0.242, "k": 1e-4, "break_year": 1100.0, "k_ratio": 4.2},
                                   (1000.0, 1050.0, 1100.0, 1150.0, 1200.0, 1250.0)))
        seg = segment_two_hyperbolic(s)
        assert seg.breakpoint_year == 1100.0
        assert (seg.breakpoint_year, seg.total_sse, seg.k_ratio) == reference_segment(s, "uniform")

    def test_unknown_weighting_rejected(self):
        s = noisy_series(1)
        with pytest.raises(ValueError):
            scan_windows(s, "relative")
        with pytest.raises(ValueError):
            segment_two_hyperbolic(s, "relative")

    def test_failed_exact_fit_is_dropped(self, monkeypatch):
        # The top candidate passes the screen, but its exact fit fails a
        # check: the next candidate in rank order is the result.
        s = noisy_series(5)
        expected = reference_scan(s, "uniform")[1:2]
        calls = []

        def fit(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise NonHyperbolicError("rounding put k on the wrong side of 0")
            return fit_hyperbolic(*args, **kwargs)

        monkeypatch.setattr(hypergrowth.fit, "fit_hyperbolic", fit)
        got = scan_windows(s)
        assert len(calls) == 2
        assert window_order(got) == window_order(expected)
        assert (got[0].model.a, got[0].model.k) == (expected[0].model.a, expected[0].model.k)


def counted(monkeypatch, module):
    calls = []
    fit = hypergrowth.fit.fit_hyperbolic
    monkeypatch.setattr(module, "fit_hyperbolic",
                        lambda *args, **kwargs: calls.append(1) or fit(*args, **kwargs))
    return calls


def annual(kind, params, start, stop, seed):
    years = tuple(float(y) for y in range(start, stop + 1))
    return generate(GeneratorSpec(kind, params, years, noise=0.01, seed=seed))


WORLD = {"a": 1.684e-2, "k": 8.539e-6, "break_year": 1930.0, "slow_factor": 0.4}
SPLICE = {"a": 0.242, "k": 1e-4, "break_year": 1820.0, "k_ratio": 4.2}


class TestExactSolves:
    def test_scan_top_of_annual_series(self, monkeypatch):
        s = annual("hyperbolic-then-slower", WORLD, 1836, 1955, 1)
        calls = counted(monkeypatch, hypergrowth.fit)
        ranked = scan_windows(s)
        assert ranked[0].n_points >= 3
        assert len(calls) <= 10  # against 117 windows fitted one by one

    def test_segment_of_long_annual_series(self, monkeypatch):
        s = annual("spliced-two-hyperbolic", SPLICE, 1000, 1950, 2)
        calls = counted(monkeypatch, hypergrowth.regime)
        seg = segment_two_hyperbolic(s)
        assert abs(seg.breakpoint_year - 1820.0) <= 10
        assert len(calls) <= 10  # against 2 * 947 side fits

    def test_scan_top_of_long_annual_series(self, monkeypatch):
        s = annual("hyperbolic-then-slower", WORLD, 1000, 1950, 3)
        calls = counted(monkeypatch, hypergrowth.fit)
        assert scan_windows(s)[0].n_points >= 3
        assert len(calls) <= 1000

    def test_scan_top_of_noiseless_series(self, monkeypatch):
        # Windows ending in 1954 and 1955 both fit exactly (the year 1955 lies
        # on both the hyperbola and the tail); the tie goes to the longer.
        params = dict(WORLD, break_year=1955.0)
        years = tuple(float(y) for y in range(1000, 2001))
        s = generate(GeneratorSpec("hyperbolic-then-slower", params, years))
        calls = counted(monkeypatch, hypergrowth.fit)
        top = scan_windows(s)[0]
        assert top.window == FitWindow(1000.0, 1955.0)
        assert top.model.k == pytest.approx(WORLD["k"], rel=1e-9)
        assert len(calls) <= 2  # one exact fit per window took 7021 at step 8
