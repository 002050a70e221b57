"""Diversion detection and two-regime segmentation."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
from hypergrowth.acceptance import _diversion_scenario
from hypergrowth.regime import _MAD_TO_SIGMA, _median
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

    # tau = -1 made any two same-sign residuals a diversion (a "faster" one
    # at 630 on this pure hyperbolic series); nan silently found nothing; the
    # text "3" raised a raw TypeError from math.isfinite, and an int too large
    # for a float a raw OverflowError.
    @pytest.mark.parametrize("tau", [-1.0, 0.0, float("nan"), float("inf"), "3",
                                     pytest.param(10**400, id="10**400")])
    def test_tau_must_be_finite_and_positive(self, tau):
        years = tuple(float(y) for y in range(0, 900, 30))
        s = generate(GeneratorSpec("hyperbolic", {"a": 1.0, "k": 1e-3}, years,
                                   noise=0.01, seed=3))
        fit = fit_hyperbolic(s, FitWindow(0.0, 600.0))
        assert detect_diversion(s, fit) is None
        with pytest.raises(ValueError, match="tau"):
            detect_diversion(s, fit, tau=tau)

    # A float, text or None run length raised a raw TypeError.
    @pytest.mark.parametrize("m", [0, -1, 2.0, "2", None])
    def test_m_must_be_a_positive_integer(self, m):
        years = tuple(float(y) for y in range(0, 900, 30))
        s = generate(GeneratorSpec("hyperbolic", {"a": 1.0, "k": 1e-3}, years,
                                   noise=0.01, seed=3))
        fit = fit_hyperbolic(s, FitWindow(0.0, 600.0))
        assert detect_diversion(s, fit, m=np.int64(2)) is None
        with pytest.raises(ValueError, match="m must be an integer >= 1"):
            detect_diversion(s, fit, m=m)

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


@settings(max_examples=250, deadline=None)
@given(st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                          st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324])),
                min_size=1, max_size=60))
@example([-0.0])
@example([-0.0, -0.0])
@example([0.0, -0.0, -0.0])
@example([1e308, 1e308])
@example([0.0, 0.0, -1.0, -5e-324])
def test_median_matches_numpy_bit_for_bit(values):
    with np.errstate(over="ignore"):
        expected = np.float64(np.median(np.array(values)))
    assert np.float64(_median(values)).tobytes() == expected.tobytes()


def reference_detect_diversion(series, fit, m, tau):
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
                    expected, fell_back, deltas = reference_detect_diversion(s, fit, m, tau)
                    finding = detect_diversion(s, fit, m=m, tau=tau)
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
        assert _diversion_scenario(8, spliced=True) is not None
        assert calls == {"series": 1, "median": 0}
