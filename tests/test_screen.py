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
    ArgumentError,
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
from hypergrowth.fit import (
    _N, _T, _TIE_RTOL, _TT, _TY, _Y, _YY, _centred_line, _CumulativeSums, _line, _prefix,
    _suffix, best_fit,
)
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
        for search in (scan_windows, segment_two_hyperbolic):
            with pytest.raises(ArgumentError, match="^weighting must be one of "):
                search(s, "relative")

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


# The screen's costs before the one closed form, kept as the reference: each
# run's plain SSE about its own line by the expanded formula, and the split's
# prefix and suffix runs screened in two separate passes.
def _expanded_line(W):
    tc, yc = W[_T] / W[_N], W[_Y] / W[_N]
    slope = (W[_TY] - W[_T] * yc) / (W[_TT] - W[_T] * tc)
    return slope, yc - slope * tc


def _expanded_sse(S, slope, level):
    return (S[_YY] - 2 * level * S[_Y] - 2 * slope * S[_TY] + S[_N] * level**2
            + 2 * level * slope * S[_T] + slope**2 * S[_TT])


def _own_sse(W):
    return _expanded_sse(W, *_expanded_line(W))


def _wide_sse(W):
    """The same cost from the same sums, in extended precision where numpy has it."""
    N, T, Y, TT, TY, YY = (np.asarray(r, dtype=np.longdouble) for r in W)
    return YY - Y * Y / N - (TY - T * Y / N) ** 2 / (TT - T * T / N)


def hinge_rows(sums, breaks):
    P, n, b = sums.P, len(sums.tc), sums.tc[breaks]
    S = _suffix(P, slice(breaks.start + 1, breaks.stop + 1))
    x = S[_T] - b * S[_N]
    xx = S[_TT] - 2 * b * S[_T] + b**2 * S[_N]
    xy = S[_TY] - b * S[_Y]
    return (n, x, P[_Y, n], xx, xy, P[_YY, n])


def ranked_ends(series, weighting, tail_cost):
    """scan_windows' candidate ends in rank order, with its log tail's costs given."""
    t, s = series.years, series.values
    n = len(t)
    y = 1.0 / s
    head = _CumulativeSums(t, y, s**2)
    logs = _CumulativeSums(t, np.log(s))
    line = _CumulativeSums(t, y, s**2 if weighting == "direct" else None)
    ends = np.arange(2, n)
    W = _prefix(head.P, slice(2, None))
    yc = W[_Y] / W[_N]
    sse = (W[_YY] - W[_Y] * yc - _expanded_line(W)[0] * (W[_TY] - W[_T] * yc)
           + np.append(tail_cost(_suffix(logs.P, slice(3, n))), 0.0))
    slope, level = _expanded_line(_prefix(line.P, slice(2, None)))
    cost = np.maximum(sse, logs.tolerance) * float(n) ** (np.where(ends < n - 1, 5, 2) / n)
    ok = line.passes(slope, level, t[2:]) & (ends != n - 2)
    cost, ends = cost[ok], ends[ok]
    if len(ends):
        cost = np.where(cost <= cost.min() + logs.tolerance, cost.min(), cost)
    return ends[np.lexsort((-ends, cost))].tolist()


def two_pass_split(series, weighting):
    """The split's screened cost per break, prefix and suffix runs in two passes."""
    years, s = series.years, series.values
    n = len(years)
    y = 1.0 / s
    sums = _CumulativeSums(years, y, s**2 if weighting == "direct" else None)
    plain = _CumulativeSums(years, y)
    breaks = slice(2, n - 2)
    cost = 0.0
    for runs, end_year in ((_prefix, years[breaks]), (_suffix, years[-1])):
        W, S = runs(sums.P, breaks), runs(plain.P, breaks)
        slope, level = _expanded_line(W)
        fitted, unfitted = _expanded_sse(S, slope, level), S[_YY] - S[_Y] ** 2 / S[_N]
        cost = cost + np.where(sums.passes(slope, level, end_year), fitted, unfitted)
    return cost, plain


def tie_ruled_first(cost, tolerance):
    return int(np.argmax(cost <= cost.min() + tolerance))


def assert_within_rounding(W, seed):
    """The closed form's cost is within a first-order bound on its rounding error
    of the same sums' cost in wide precision.  The bound counts each term's size
    and the slope's sensitivity to cancellation in the centred sums S_ty and S_tt."""
    N, T, Y, TT, TY, YY = (np.asarray(r, dtype=float) for r in W)
    tc, yc = T / N, Y / N
    ty, tt = TY - T * yc, TT - T * tc
    slope = ty / tt
    bound = 16 * np.finfo(float).eps * (
        abs(YY) + abs(Y * yc) + abs(slope) * (abs(TY) + abs(T * yc))
        + abs(slope * ty) * (abs(TT) + abs(T * tc)) / abs(tt))
    assert (np.abs(_line(W)[2] - _wide_sse(W)) <= bound).all(), seed


def screen_series(seed):
    """Seeded series of 6 to 999 points: rising and falling, noiseless and noisy."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 1000))
    step = rng.choice([1.0, 10.0, 25.0])
    years = 1000.0 + step * np.arange(n) + (rng.uniform(0.0, 0.5, n) if seed % 3 else 0.0)
    u = (years - years[0]) / (years[-1] - years[0])
    kind = seed % 6
    if kind == 0:  # hyperbolic
        values = 1.0 / (1.0 - 0.9 * u)
    elif kind == 1:  # hyperbolic, then a steeper reciprocal slope
        values = 1.0 / (1.0 - 0.3 * u - 0.6 * np.maximum(u - rng.uniform(0.2, 0.8), 0.0))
    elif kind == 2:  # stagnation, then exponential growth
        values = np.exp(3.0 * np.maximum(u - rng.uniform(0.2, 0.8), 0.0))
    elif kind == 3:  # hyperbolic, then log-linear
        c = rng.uniform(0.3, 0.9)
        values = np.where(u < c, 1.0 / (1.0 - 0.9 * np.minimum(u, c)),
                          np.exp(u - c) / (1.0 - 0.9 * c))
    elif kind == 4:  # falling
        values = 1.0 / (0.1 + 0.9 * u)
    else:  # no structure at all
        values = rng.lognormal(0.0, 1.0, n)
    noise = 0.0 if seed % 4 == 0 else rng.choice([1e-6, 1e-3, 1e-2, 5e-2])
    values = values * np.exp(noise * rng.standard_normal(n)) * 10.0 ** rng.integers(-3, 4)
    return YearValueSeries(years, values)


class TestOneClosedForm:
    """Each run's cost about its own line, by the centred closed form, is the
    same sums' cost to within rounding, and every search picks what the
    expanded formula and separate prefix and suffix passes pick."""

    SEEDS = range(320)

    def test_hinges(self):
        for seed in self.SEEDS:
            s = screen_series(seed)
            n, logy = len(s), np.log(s.values)
            sums = _CumulativeSums(s.years, logy)
            rows = hinge_rows(sums, slice(1, n - 2))
            got, tol = sums.hinges(slice(1, n - 2)), sums.tolerance
            assert got.tobytes() == _line(rows)[2].tobytes(), seed
            assert_within_rounding(rows, seed)
            first = tie_ruled_first(_own_sse(rows), tol)
            assert tie_ruled_first(got, tol) == first, seed
            hyp = TakeoffHypothesis(float(s.years[n // 2]), 50.0)
            assert takeoff_test(s, hyp).break_year == s.years[1 + first], seed

    @pytest.mark.parametrize("weighting", WEIGHTINGS)
    def test_scan(self, weighting):
        for seed in self.SEEDS:
            s = screen_series(seed)
            n, t = len(s), s.years
            logs = _CumulativeSums(t, np.log(s.values))
            with np.errstate(divide="ignore", invalid="ignore"):
                # Tails of at least 2 points; a 1-point tail is no candidate.
                assert_within_rounding(_suffix(logs.P, slice(3, n - 1)), seed)
                want = ranked_ends(s, weighting, _own_sse)
                assert ranked_ends(s, weighting, lambda W: _line(W)[2]) == want, seed
            for b in want:  # the first candidate whose exact fit passes is the result
                try:
                    fit_hyperbolic(s, FitWindow(float(t[0]), float(t[b])), weighting)
                except (NonHyperbolicError, SingularityInWindowError):
                    continue
                assert [f.window.end_year for f in scan_windows(s, weighting)] == [t[b]], seed
                break
            else:
                assert scan_windows(s, weighting) == [], seed

    @pytest.mark.parametrize("weighting", WEIGHTINGS)
    def test_split(self, weighting):
        for seed in self.SEEDS:
            s = screen_series(seed)
            n, years = len(s), s.years
            want, plain = two_pass_split(s, weighting)
            if weighting == "uniform":  # a side's cost about its own line
                for runs in (_prefix, _suffix):
                    assert_within_rounding(runs(plain.P, slice(2, n - 2)), seed)
            b = years[2 + tie_ruled_first(want, plain.tolerance)]
            assert segment_two_hyperbolic(s, weighting).breakpoint_year == b, seed


class TestConstantSeries:
    """On a constant series every candidate fits to rounding noise.  Centred
    values that all carry the mean's rounding offset gave a tie tolerance of
    exactly 0, so that noise picked the break; now all tie, and the earliest wins."""

    @pytest.mark.parametrize("seed", range(6))
    def test_earliest_break_wins(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(100, 1000))
        years = 1000.0 + np.arange(n) + rng.uniform(0.0, 0.5, n)
        for level in (0.00037, 37.0, 0.037):
            s = YearValueSeries(years, np.full(n, level))
            hyp = TakeoffHypothesis(float(years[n // 2]), 50.0)
            assert takeoff_test(s, hyp).break_year == years[1]
            for weighting in WEIGHTINGS:
                assert segment_two_hyperbolic(s, weighting).breakpoint_year == years[2]
