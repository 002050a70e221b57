"""Diversion detection and two-regime segmentation."""

import inspect
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from hypergrowth import (
    FitError,
    FitWindow,
    GeneratorSpec,
    HyperbolicModel,
    NegativeProximityError,
    TooFewPointsError,
    YearValueSeries,
    detect_diversion,
    fit_hyperbolic,
    generate,
    proximity,
    reciprocal_line,
    segment_two_hyperbolic,
)
from hypergrowth import regime
from hypergrowth.acceptance import _noisy_series
from hypergrowth.regime import _MAD_TO_SIGMA, _robust_scale
from hypergrowth.synth import spliced_models


class TestProximity:
    def test_world_values(self):
        assert proximity(HyperbolicModel(1.684e-2, 8.539e-6), 1955.0) == 17

    def test_asia_values(self):
        assert proximity(HyperbolicModel(2.303e-2, 1.129e-5), 1950.0) == 90

    def test_equal_years(self):
        model = HyperbolicModel(1.0, 0.001)  # singularity exactly 1000
        assert proximity(model, 1000.0) == 0

    def test_diversion_after_singularity_rejected(self):
        with pytest.raises(NegativeProximityError):
            proximity(HyperbolicModel(1.0, 0.001), 1500.0)


class TestDetectDiversion:
    def test_on_model_extension_has_no_diversion(self):
        years = tuple(float(y) for y in range(0, 951, 10))
        s = generate(GeneratorSpec("hyperbolic", {"a": 1.0, "k": 0.001}, years,
                                   noise=0.01, seed=4))
        fit = fit_hyperbolic(s, FitWindow(0.0, 700.0))
        assert detect_diversion(s, fit) is None

    def test_spliced_slower_found_at_splice(self):
        years = tuple(float(y) for y in range(980, 1000))
        spec = GeneratorSpec(
            "hyperbolic-then-slower",
            {"a": 1.0, "k": 0.001, "break_year": 995.0, "slow_factor": 0.1},
            years, noise=0.01, seed=8,
        )
        s = generate(spec)
        fit = fit_hyperbolic(s, FitWindow(980.0, 995.0))
        finding = detect_diversion(s, fit)
        assert finding is not None
        assert finding.direction == "slower"
        assert abs(finding.year - 995.0) <= 1.0
        years, observed, fitted = finding.evidence
        np.testing.assert_array_equal(years, [finding.year, finding.year + 1.0])
        assert np.all(observed - fitted > 0)
        for arr in finding.evidence:
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_faster_departure_detected_with_flipped_sign(self):
        # A series that accelerates beyond the fitted trajectory bends the
        # reciprocals downward.
        years = np.arange(900.0, 1000.0)
        model_values = 1.0 / (1.0 - 0.001 * np.minimum(years, 980.0))
        boost = np.where(years > 980.0, np.exp(0.2 * (years - 980.0)), 1.0)
        s = YearValueSeries(years, model_values * boost)
        fit = fit_hyperbolic(s, FitWindow(900.0, 980.0))
        finding = detect_diversion(s, fit)
        assert finding is not None
        assert finding.direction == "faster"
        assert finding.proximity_years is None

    def test_exact_data_uses_absolute_fallback(self):
        years = tuple(float(y) for y in range(0, 981, 10))
        s = generate(
            GeneratorSpec(
                "hyperbolic-then-slower",
                {"a": 1.0, "k": 0.001, "break_year": 900.0, "slow_factor": 0.5},
                years,
            )
        )
        fit = fit_hyperbolic(s, FitWindow(0.0, 900.0))
        finding = detect_diversion(s, fit)
        assert finding is not None
        assert finding.direction == "slower"
        assert finding.year == 910.0

    # One rule, no knobs: the run length and the threshold are regime constants.
    def test_takes_no_tuning_arguments(self):
        assert list(inspect.signature(detect_diversion).parameters) == ["series", "fit"]
        assert (regime.RUN_LENGTH, regime.TAU) == (2, 3.0)

    def test_requires_points_beyond_window(self):
        s = generate(
            GeneratorSpec("hyperbolic", {"a": 1.0, "k": 0.001},
                          tuple(float(y) for y in range(0, 901, 100)))
        )
        fit = fit_hyperbolic(s, FitWindow(0.0, 900.0))
        with pytest.raises(TooFewPointsError):
            detect_diversion(s, fit)


SPLICE = {"a": 0.242, "k": 1e-4, "break_year": 1820.0, "k_ratio": 4.2}


class TestSegmentation:
    def test_exact_breakpoint_recovery(self):
        years = tuple(float(y) for y in range(1000, 1951, 5))
        s = generate(GeneratorSpec("spliced-two-hyperbolic", SPLICE, years))
        seg = segment_two_hyperbolic(s)
        assert seg.breakpoint_year == 1820.0
        m1, m2 = spliced_models(SPLICE)
        segs = seg.hyperbolic_segments()
        assert len(segs) == 2
        assert segs[0].fit.model.a == pytest.approx(m1.a, rel=1e-9)
        assert segs[0].fit.model.k == pytest.approx(m1.k, rel=1e-9)
        assert segs[1].fit.model.a == pytest.approx(m2.a, rel=1e-9)
        assert segs[1].fit.model.k == pytest.approx(m2.k, rel=1e-9)
        assert seg.k_ratio == pytest.approx(4.2, rel=1e-9)

    def test_single_regime_k_ratio_centred_on_one(self):
        # A genuine single regime gives no systematic contrast between the
        # two sides; individual splits are noisy (small segments overfit),
        # so the claim is about the ensemble, not each trial.
        years = tuple(float(y) for y in range(1000, 1901, 2))
        ratios = []
        for seed in range(50):
            s = generate(
                GeneratorSpec("hyperbolic", {"a": 0.242, "k": 1e-4}, years,
                              noise=0.01, seed=seed)
            )
            seg = segment_two_hyperbolic(s)
            if seg.k_ratio is not None:
                ratios.append(seg.k_ratio)
        assert len(ratios) >= 40
        assert 0.9 <= float(np.median(ratios)) <= 1.1

    def test_insufficient_points(self):
        s = generate(
            GeneratorSpec("hyperbolic", {"a": 1.0, "k": 0.001},
                          tuple(float(y) for y in range(0, 500, 100)))
        )
        with pytest.raises(TooFewPointsError):
            segment_two_hyperbolic(s)

    def test_unit_rescaling_preserves_breakpoint_and_ratio(self):
        years = tuple(float(y) for y in range(1000, 1951, 10))
        s = generate(GeneratorSpec("spliced-two-hyperbolic", SPLICE, years,
                                   noise=0.005, seed=3))
        seg1 = segment_two_hyperbolic(s)
        seg2 = segment_two_hyperbolic(YearValueSeries(s.years, s.values * 1e3))
        assert seg1.breakpoint_year == seg2.breakpoint_year
        assert seg1.k_ratio == pytest.approx(seg2.k_ratio, rel=1e-9)


# Residual draws for the MAD scale: any finite values up to 1e300 (so that no
# deviation overflows), values drawn from a pool of a few (ties), all-equal
# lists, and about 1000 normal residuals at a fixed magnitude, rounded to one
# decimal of it in half the draws (ties at large n).
_RESIDUAL = st.one_of(st.floats(-1e300, 1e300),
                      st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-300, -1e-300, 5e-324, 1e-3, 1e5]))


def _large_draw(seed, n, magnitude, rounded):
    d = np.random.default_rng(seed).normal(0.0, 1.0, n)
    return ((np.round(d, 1) if rounded else d) * magnitude).tolist()


@settings(max_examples=400, deadline=None)
@given(st.one_of(
    st.lists(_RESIDUAL, min_size=1, max_size=64),
    st.lists(_RESIDUAL, min_size=1, max_size=4).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=64)),
    st.builds(lambda x, n: [x] * n, _RESIDUAL, st.integers(1, 64)),
    st.builds(_large_draw, st.integers(0, 2**32 - 1), st.integers(990, 1010),
              st.sampled_from([1e-300, 1e-3, 1.0, 1e5]), st.booleans()),
))
@example([-0.0])
@example([-0.0, -0.0])
@example([0.0, -0.0, -0.0])
@example([-1.0, 0.0, -0.0, 1.0])
@example([1e308, 1e308])  # the median overflows to inf, and so does the scale
@example([0.0, 0.0, -1.0, -5e-324])  # the middle pair halves to -0.0
@example([1.0, 1.0000000000000002])  # the median rounds onto the lower value
@example([3.0, 1.0, 2.0, 2.0, 7.0, -4.0])
def test_robust_scale_is_numpy_mad_bit_for_bit(residuals):
    d = np.array(residuals)
    reciprocals = np.array([2.0, 3.0])
    with np.errstate(over="ignore"):
        expected = _MAD_TO_SIGMA * np.median(np.abs(d - np.median(d)))
    scale = _robust_scale(d, reciprocals)
    if expected > 0:
        assert np.float64(scale).tobytes() == expected.tobytes()
    else:  # all residuals at the median: the fallback scale
        assert scale == 1e-9 * 3.0


def detect_at(series, fit, m, tau):
    """``detect_diversion`` with its run length set to ``m`` and its threshold to ``tau``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(regime, "RUN_LENGTH", m)
        mp.setattr(regime, "TAU", tau)
        return detect_diversion(series, fit)


def former_scan_reference(series, fit, m, tau):
    """The former scan, kept as the reference: np.median for the scale, a
    validated tail sub-series, and three numpy calls per candidate run.

    Returns (finding as a tuple or None, whether the fallback scale fired,
    the tail residuals).
    """
    tail = series.after(fit.window.end_year)
    scale = _MAD_TO_SIGMA * float(np.median(np.abs(fit.deltas - np.median(fit.deltas))))
    fell_back = not scale > 0
    if fell_back:
        scale = 1e-9 * float(fit.reciprocals.max())
    threshold = tau * scale
    recips = 1.0 / tail.values
    fitted = reciprocal_line(fit.model, tail.years)
    deltas = recips - fitted
    signs = np.sign(deltas)
    exceeds = np.abs(deltas) > threshold
    for i in range(len(deltas) - m + 1):
        run = slice(i, i + m)
        if exceeds[run].all() and np.all(signs[run] == signs[i]) and signs[i] != 0:
            direction = "slower" if signs[i] > 0 else "faster"
            evidence = tuple(arr[run] for arr in (tail.years, recips, fitted))
            year = float(tail.years[i])
            prox = proximity(fit.model, year) if direction == "slower" else None
            return (year, direction, evidence, prox), fell_back, deltas
    return None, fell_back, deltas


def diversion_case(seed):
    """One seeded (series, fit): slower, faster or no departure; noisy, exact,
    or on a dyadic line whose tail has exactly zero residuals."""
    rng = np.random.default_rng(seed)
    noise = (0.0, 0.001, 0.01)[seed % 3]
    kind = seed % 4
    if kind == 0:
        years = tuple(float(y) for y in range(int(rng.integers(960, 985)), 1000))
        params = {"a": 1.0, "k": 1e-3, "break_year": float(rng.integers(988, 997)),
                  "slow_factor": float(rng.uniform(0.05, 0.9))}
        s = generate(GeneratorSpec("hyperbolic-then-slower", params, years, noise, seed))
        end = params["break_year"] - float(rng.integers(0, 4))
    elif kind == 1:
        years = tuple(float(y) for y in range(900, 1000, int(rng.integers(1, 6))))
        s = generate(GeneratorSpec("hyperbolic", {"a": 1.0, "k": 1e-3}, years, noise, seed))
        end = float(years[int(rng.integers(4, len(years) - 1))])
    elif kind == 2:
        years = tuple(float(y) for y in range(1600, 1951, 10))
        s = generate(GeneratorSpec("spliced-two-hyperbolic", SPLICE, years, noise, seed))
        end = float(rng.choice([1780.0, 1800.0, 1820.0, 1840.0]))
    else:
        t = np.arange(0.0, float(rng.integers(12, 40)))
        values = 1.0 / (1.0 - t / 64)  # reciprocals on a dyadic line
        end = float(rng.integers(5, len(t) - 2))
        tail = t > end
        bump = rng.choice([1.0, 1.0, 1.0 + 1e-3, 1.0 - 1e-3, 1.05, 0.95], size=len(t))
        s = YearValueSeries(t, np.where(tail, values * bump, values))
    return s, fit_hyperbolic(s, FitWindow(float(s.years[0]), end))


class TestDetectDiversionReference:
    """The single-list scan against the former per-candidate numpy scan."""

    def test_matches_former_scan(self):
        outcomes, fallbacks, zero_tails, cases = set(), 0, 0, 0
        for seed in range(240):
            try:
                s, fit = diversion_case(seed)
            except FitError:
                continue
            cases += 1
            for m in (1, 2, 3, 5):
                for tau in (0.5, 3.0, 10.0):
                    expected, fell_back, deltas = former_scan_reference(s, fit, m, tau)
                    finding = detect_at(s, fit, m, tau)
                    fallbacks += fell_back
                    zero_tails += bool((deltas == 0).any())
                    if expected is None:
                        assert finding is None, (seed, m, tau)
                        outcomes.add(None)
                        continue
                    year, direction, evidence, prox = expected
                    assert (finding.year, finding.direction, finding.proximity_years) == (
                        year, direction, prox), (seed, m, tau)
                    for got, want in zip(finding.evidence, evidence):
                        assert got.tobytes() == want.tobytes() and not got.flags.writeable
                    outcomes.add(direction)
        assert cases >= 200
        assert outcomes == {None, "slower", "faster"}
        assert fallbacks > 0 and zero_tails > 0


def reference_detect_diversion(series, fit, m=2, tau=3.0):
    """detect_diversion before its one-pass run scan, kept as the reference:
    numpy flags over the whole tail, then a slice-and-count at each start.
    ``m`` and ``tau`` are taken as valid."""
    first = int(series.years.searchsorted(fit.window.end_year, side="right"))
    if first == len(series):
        raise TooFewPointsError("series does not extend beyond the fit window")
    d = fit.deltas
    scale = _MAD_TO_SIGMA * np.median(np.abs(d - np.median(d)))
    if not scale > 0:
        scale = 1e-9 * float(np.maximum.reduce(fit.reciprocals))
    threshold = tau * scale
    years = series.years[first:]
    recips = 1.0 / series.values[first:]
    fitted = reciprocal_line(fit.model, years)
    deltas = recips - fitted
    flags = np.where(np.abs(deltas) > threshold, np.sign(deltas), 0.0).tolist()
    for i in range(len(flags) - m + 1):
        if flags[i] and flags[i:i + m].count(flags[i]) == m:
            direction = "slower" if flags[i] > 0 else "faster"
            evidence = tuple(arr[i:i + m].copy() for arr in (years, recips, fitted))
            year = float(years[i])
            prox = proximity(fit.model, year) if direction == "slower" else None
            return year, direction, evidence, prox
    return None


def scan_outcome(detect, series, fit, m, tau):
    """(year, direction, proximity, evidence bytes), None, or (exception type, message)."""
    try:
        found = detect(series, fit, m, tau)
    except Exception as exc:  # the reference and the scan must raise alike
        return type(exc), str(exc)
    if found is None:
        return None
    if not isinstance(found, tuple):
        assert not any(arr.flags.writeable for arr in found.evidence)
        found = found.year, found.direction, found.evidence, found.proximity_years
    year, direction, evidence, prox = found
    return year, direction, prox, tuple(arr.tobytes() for arr in evidence)


# Bumps of a post-window value: 1 keeps it on its path, below 1 raises its
# reciprocal (a slower flag), above 1 lowers it (a faster flag).
BUMPS = (1.0, 1.001, 0.999, 1.05, 0.95, 1.3, 0.7)


def line_case(t0, n, end, gap, tail, bumps, sigma, seed):
    """A series on the reciprocal line 1 - t/64 (singularity 64) up to ``end``,
    with log-normal noise ``sigma``, fitted over [t0, end].

    The post-window years resume ``gap`` years late.  There the series stays
    on the line (``tail="line"``, cut before 64) or grows exponentially at
    ``tail`` times the hyperbola's rate at ``end``, also past 64; each
    post-window value is then multiplied by its bump.  Returns (series, fit),
    or None when the fit fails.
    """
    t = np.arange(t0, t0 + n, dtype=float)
    t[t > end] += gap
    if tail == "line":
        t = t[t < 64]
        values = 1.0 / (1.0 - t / 64)
    else:
        values = np.exp(tail / (64 - end) * (t - end)) / (1.0 - end / 64)
        values[t <= end] = 1.0 / (1.0 - t[t <= end] / 64)
    k = int((t <= end).sum())  # the window's points lead the series
    noise = np.exp(np.random.default_rng(seed).normal(0.0, sigma, k))
    values = values * np.concatenate((noise, np.resize(bumps, len(t) - k)))
    series = YearValueSeries(t, values)
    try:
        return series, fit_hyperbolic(series, FitWindow(float(t0), float(end)))
    except FitError:
        return None


@st.composite
def line_draws(draw):
    t0 = draw(st.integers(0, 56))
    n = draw(st.integers(6, 44))
    end = draw(st.integers(t0 + 2, min(t0 + n - 1, 63)))
    case = line_case(t0, n, end, draw(st.sampled_from([0, 0, 8])),
                     draw(st.sampled_from(["line", 0.2, 1.0, 3.0])),
                     draw(st.lists(st.sampled_from(BUMPS), min_size=1, max_size=12)),
                     draw(st.sampled_from([0.0, 0.0, 1e-4, 1e-2])), draw(st.integers(0, 99)))
    assume(case is not None)
    return (*case, draw(st.integers(1, 4)), draw(st.sampled_from([0.5, 1.0, 3.0, 10.0])))


# Named draws: exact data on the line, which takes the fallback scale; a
# slower run broken by a faster flag; a slower run past the singularity.
EXACT = (*line_case(0, 30, 20, 0, 1.0, [1.0], 0.0, 0), 2, 3.0)
FLIPPED = (*line_case(0, 30, 20, 0, "line", [0.95, 0.95, 1.05, 0.95, 0.95, 0.95], 0.0, 0),
           3, 3.0)
PAST = (*line_case(40, 24, 60, 8, 0.2, [1.0], 1e-4, 3), 2, 3.0)


class TestRunScan:
    """The one-pass run scan against the former flag loop."""

    @settings(max_examples=400, deadline=None)
    @given(line_draws())
    @example(EXACT)
    @example(FLIPPED)
    @example(PAST)
    def test_matches_flag_loop(self, draw):
        assert scan_outcome(detect_at, *draw) == scan_outcome(reference_detect_diversion, *draw)

    def test_named_draws_reach_their_paths(self):
        fit = EXACT[1]
        assert _robust_scale(fit.deltas, fit.reciprocals) == 1e-9 * float(fit.reciprocals.max())
        assert detect_diversion(*EXACT[:2]).year == 21.0
        s, fit = FLIPPED[:2]
        assert detect_at(s, fit, 3, 3.0).year == 24.0  # the run 21-22 is broken at 23
        assert detect_diversion(s, fit).year == 21.0
        with pytest.raises(NegativeProximityError, match="after the singularity"):
            detect_diversion(*PAST[:2])

    @pytest.mark.parametrize("bump, direction", [(0.9, "slower"), (1.1, "faster")])
    def test_residual_at_threshold_not_flagged(self, bump, direction):
        t = np.arange(0.0, 21.0)
        noise = np.exp(np.random.default_rng(1).normal(0.0, 0.01, 21))
        values = np.append(noise[:20], bump) / (1.0 - t / 64)
        s = YearValueSeries(t, values)
        fit = fit_hyperbolic(s, FitWindow(0.0, 19.0))
        d = abs(float(1.0 / values[20] - (fit.model.a - fit.model.k * 20.0)))
        scale = _robust_scale(fit.deltas, fit.reciprocals)
        tau = d / scale
        assert tau * scale == d  # the residual equals the threshold exactly
        below = math.nextafter(tau, 0.0)
        assert below * scale < d
        for detect in (detect_at, reference_detect_diversion):
            assert detect(s, fit, 1, tau) is None
        finding = detect_at(s, fit, 1, below)
        assert (finding.year, finding.direction) == (20.0, direction)
        assert scan_outcome(detect_at, s, fit, 1, below) == scan_outcome(
            reference_detect_diversion, s, fit, 1, below)


class TestTrialCalls:
    """A verify-style trial builds one series and never calls np.median."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = {"series": 0, "median": 0}
        post_init, median = YearValueSeries.__post_init__, np.median

        def counted_post_init(self):
            calls["series"] += 1
            post_init(self)

        def counted_median(*args, **kwargs):
            calls["median"] += 1
            return median(*args, **kwargs)

        monkeypatch.setattr(YearValueSeries, "__post_init__", counted_post_init)
        monkeypatch.setattr(np, "median", counted_median)
        return calls

    def test_recovery_trial(self, calls):
        years = tuple(float(y) for y in range(0, 900, 30))
        s = generate(GeneratorSpec("hyperbolic", {"a": 1.0, "k": 1e-3}, years,
                                   noise=0.01, seed=5))
        fit_hyperbolic(s, FitWindow(years[0], years[-1]))
        assert calls == {"series": 1, "median": 0}

    def test_diversion_trial(self, calls):
        years = tuple(float(y) for y in range(980, 1000))
        params = {"a": 1.0, "k": 1e-3, "break_year": 995.0, "slow_factor": 0.1}
        (s,) = _noisy_series("hyperbolic-then-slower", params, years, (8,))
        assert detect_diversion(s, fit_hyperbolic(s, FitWindow(980.0, 995.0))) is not None
        assert calls == {"series": 1, "median": 0}


def test_fits_segmentations_and_findings_compare_by_identity():
    # Their generated __eq__ compared array fields, so == between two fits
    # raised ValueError, and hash() raised TypeError.
    years = tuple(float(y) for y in range(980, 1000))
    s = generate(GeneratorSpec(
        "hyperbolic-then-slower", {"a": 1.0, "k": 0.001, "break_year": 995.0, "slow_factor": 0.1},
        years, noise=0.01, seed=8))
    fits = [fit_hyperbolic(s, FitWindow(980.0, 995.0)) for _ in range(2)]
    pairs = (fits, [segment_two_hyperbolic(s) for _ in range(2)],
             [detect_diversion(s, fits[0]) for _ in range(2)])
    for one, other in pairs:
        assert one is not None and one == one and not one != one
        assert one != other and not one == other
        assert hash(one) == hash(one)
        assert len({one, other}) == 2
