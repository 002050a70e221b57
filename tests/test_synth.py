"""Synthetic-series generators: exactness, determinism, grid structure."""

from fractions import Fraction
from types import MappingProxyType

import numpy as np
import pytest

from hypergrowth import GeneratorError, GeneratorSpec, generate, maddison_year_grid, synth
from hypergrowth.synth import KINDS, _exact_values, spliced_models


def years(*args):
    return tuple(float(y) for y in args)


class TestGenerate:
    def test_noiseless_hyperbolic_is_exact(self):
        spec = GeneratorSpec(
            "hyperbolic", {"a": 1.0, "k": 0.001}, tuple(float(y) for y in range(0, 901, 100))
        )
        s = generate(spec)
        expected = 1.0 / (1.0 - 0.001 * s.years)
        np.testing.assert_allclose(s.values, expected, rtol=1e-15)

    def test_constant(self):
        s = generate(GeneratorSpec("constant", {"level": 5.0}, years(1, 1000, 1500)))
        assert np.all(s.values == 5.0)

    def test_spliced_halves_are_collinear(self):
        params = {"a": 0.242, "k": 1e-4, "break_year": 1820.0, "k_ratio": 4.2}
        spec = GeneratorSpec(
            "spliced-two-hyperbolic", params, tuple(float(y) for y in range(1000, 1951, 10))
        )
        s = generate(spec)
        m1, m2 = spliced_models(params)
        left = s.years <= 1820.0
        np.testing.assert_allclose(
            1.0 / s.values[left], m1.a - m1.k * s.years[left], rtol=1e-12
        )
        np.testing.assert_allclose(
            1.0 / s.values[~left], m2.a - m2.k * s.years[~left], rtol=1e-12
        )
        assert m2.k / m1.k == pytest.approx(4.2)

    def test_splice_point_on_both_lines(self):
        params = {"a": 0.242, "k": 1e-4, "break_year": 1820.0, "k_ratio": 4.2}
        m1, m2 = spliced_models(params)
        assert m1.a - m1.k * 1820.0 == pytest.approx(m2.a - m2.k * 1820.0, rel=1e-12)

    def test_seed_determinism(self):
        spec = GeneratorSpec(
            "hyperbolic", {"a": 1.0, "k": 0.001}, years(0, 100, 200), noise=0.05, seed=123
        )
        a, b = generate(spec), generate(spec)
        np.testing.assert_array_equal(a.values, b.values)

    def test_different_seeds_differ(self):
        base = dict(kind="hyperbolic", parameters={"a": 1.0, "k": 0.001},
                    sample_years=years(0, 100, 200), noise=0.05)
        a = generate(GeneratorSpec(**base, seed=1))
        b = generate(GeneratorSpec(**base, seed=2))
        assert not np.array_equal(a.values, b.values)

    def test_zero_noise_is_identity(self):
        base = dict(kind="hyperbolic", parameters={"a": 1.0, "k": 0.001},
                    sample_years=years(0, 100, 200))
        clean = generate(GeneratorSpec(**base))
        noiseless = generate(GeneratorSpec(**base, noise=0.0, seed=99))
        np.testing.assert_array_equal(clean.values, noiseless.values)

    def test_stagnation_then_takeoff_shape(self):
        spec = GeneratorSpec(
            "stagnation-then-takeoff",
            {"level": 2.0, "break_year": 1750.0, "rate": 0.02},
            years(1600, 1700, 1750, 1800, 1850),
        )
        s = generate(spec)
        assert np.all(s.values[:3] == 2.0)
        np.testing.assert_allclose(s.values[3], 2.0 * np.exp(0.02 * 50), rtol=1e-12)

    def test_hyperbolic_then_slower_is_continuous_and_slower(self):
        spec = GeneratorSpec(
            "hyperbolic-then-slower",
            {"a": 1.0, "k": 0.001, "break_year": 900.0, "slow_factor": 0.5},
            tuple(float(y) for y in range(850, 991, 10)),
        )
        s = generate(spec)
        hyperbolic = 1.0 / (1.0 - 0.001 * s.years)
        post = s.years > 900.0
        assert np.all(s.values[post] < hyperbolic[post])
        assert np.all(np.diff(s.values) > 0)


class TestInvalidSpecs:
    def test_years_at_singularity_rejected(self):
        with pytest.raises(GeneratorError):
            generate(GeneratorSpec("hyperbolic", {"a": 1.0, "k": 0.001}, years(0, 1000)))

    def test_nonpositive_parameter_rejected(self):
        with pytest.raises(GeneratorError):
            GeneratorSpec("constant", {"level": 0.0}, years(0, 1))

    def test_unknown_kind_rejected(self):
        with pytest.raises(GeneratorError):
            GeneratorSpec("logistic", {"level": 1.0}, years(0, 1))

    def test_unsorted_years_rejected(self):
        with pytest.raises(GeneratorError):
            GeneratorSpec("constant", {"level": 1.0}, (10.0, 5.0))

    @pytest.mark.parametrize("sample_years", [(0.0, float("nan"), 2.0), (0.0, 1.0, float("inf")),
                                              (float("-inf"), 0.0, 1.0)])
    def test_non_finite_years_rejected(self, sample_years):
        with pytest.raises(GeneratorError, match="finite"):
            GeneratorSpec("hyperbolic", {"a": 1.0, "k": 1e-4}, sample_years)

    # The strictly-increasing check runs first, and a NaN fails no comparison.
    @pytest.mark.parametrize("sample_years", [(0.0, 1.0, float("nan"), 3.0, 4.0),
                                              (0.0, float("nan"), 1.0)])
    def test_mid_sequence_nan_year_named_not_finite(self, sample_years):
        with pytest.raises(GeneratorError) as exc:
            GeneratorSpec("hyperbolic", {"a": 1.0, "k": 1e-4}, sample_years)
        assert str(exc.value) == "sample_years must be finite"

    @pytest.mark.parametrize("sample_years, message", [
        pytest.param((), "sample_years must be non-empty and strictly increasing", id="empty"),
        pytest.param((0.0, 1.0, 1.0, 2.0), "sample_years must be non-empty and strictly increasing",
                     id="repeated"),
        pytest.param((0.0, 2.0, 1.0), "sample_years must be non-empty and strictly increasing",
                     id="decreasing"),
        pytest.param((float("nan"),), "sample_years must be finite", id="lone-nan"),
        pytest.param((float("inf"),), "sample_years must be finite", id="lone-inf"),
        pytest.param((float("-inf"), 0.0, 1.0), "sample_years must be finite", id="-inf-first"),
        pytest.param((0.0, 1.0, float("inf")), "sample_years must be finite", id="inf-last"),
        # The ordered checks: a decreasing pair is named before a NaN.
        pytest.param((2.0, 1.0, float("nan")),
                     "sample_years must be non-empty and strictly increasing",
                     id="decreasing-then-nan"),
    ])
    def test_faulty_grid_message(self, sample_years, message):
        with pytest.raises(GeneratorError) as exc:
            GeneratorSpec("hyperbolic", {"a": 1.0, "k": 1e-4}, sample_years)
        assert str(exc.value) == message

    @pytest.mark.parametrize("kind, parameters, message", [
        pytest.param("hyperbolic", {"zeta": 1.0, "a": 1.0, "k": 1e-3, "break_year": 2.0, "b": 3.0},
                     "hyperbolic takes no parameters ['b', 'break_year', 'zeta']", id="hyperbolic"),
        pytest.param("hyperbolic", {"a": 1.0, "k": 1e-3, "ref_year": 0.0},
                     "hyperbolic takes no parameters ['ref_year']", id="ref-year-unread"),
        pytest.param("exponential",
                     {"level": 1.0, "rate": 0.01, "ref_year": 0.0, "beta": 1.0, "alpha": 1.0},
                     "exponential takes no parameters ['alpha', 'beta']", id="exponential"),
    ])
    def test_unknown_parameters_listed_sorted(self, kind, parameters, message):
        with pytest.raises(GeneratorError) as exc:
            GeneratorSpec(kind, parameters, years(0, 1))
        assert str(exc.value) == message

    @pytest.mark.parametrize("parameters, shown", [
        (None, "None"), (5, "5"), ("ak", "'ak'"), (["a", "k"], "['a', 'k']"),
        (("a", "k"), "('a', 'k')"),
    ])
    def test_non_mapping_parameters_named(self, parameters, shown):
        with pytest.raises(GeneratorError) as exc:
            GeneratorSpec("hyperbolic", parameters, years(0, 1))
        assert str(exc.value) == f"parameters must be a mapping of names to numbers, got {shown}"

    def test_read_only_mapping_parameters_allowed(self):
        params = {"a": 1.0, "k": 1e-3}
        assert generate(GeneratorSpec("hyperbolic", MappingProxyType(params), years(0, 1))) == \
            generate(GeneratorSpec("hyperbolic", params, years(0, 1)))

    @pytest.mark.parametrize("seed", [1.5, 2.0, "3", None])
    def test_non_integer_seed_rejected(self, seed):
        with pytest.raises(GeneratorError, match="seed must be an integer"):
            GeneratorSpec("hyperbolic", {"a": 1.0, "k": 1e-3}, years(0, 1), noise=0.01, seed=seed)

    def test_numpy_integer_seed_allowed(self):
        spec = {"kind": "hyperbolic", "parameters": {"a": 1.0, "k": 1e-3},
                "sample_years": years(*range(0, 100, 10)), "noise": 0.01}
        assert generate(GeneratorSpec(**spec, seed=np.int64(7))) == generate(
            GeneratorSpec(**spec, seed=7))

    def test_missing_parameter_rejected(self):
        with pytest.raises(GeneratorError):
            GeneratorSpec("hyperbolic", {"a": 1.0}, years(0, 1))

    def test_unread_parameter_rejected(self):
        with pytest.raises(GeneratorError, match="break_year"):
            GeneratorSpec("hyperbolic", {"a": 1.0, "k": 1e-3, "break_year": 900.0}, years(0, 1))

    @pytest.mark.parametrize("kind, parameters, sample_years, noise", [
        pytest.param("constant", {"level": 1.0}, ("a", "b"), 0.0, id="sample-years-text"),
        pytest.param("constant", {"level": 1.0}, 1900.0, 0.0, id="sample-years-scalar"),
        pytest.param("constant", {"level": "1"}, (0.0, 1.0), 0.0, id="parameter-text"),
        pytest.param("constant", {"level": 1.0}, (0.0, 1.0), "x", id="noise-text"),
        pytest.param("exponential", {"level": 1.0, "rate": 0.01, "ref_year": float("nan")},
                     (0.0, 1.0), 0.0, id="ref-year-nan"),
        pytest.param("exponential", {"level": 1.0, "rate": 0.01, "ref_year": "x"},
                     (0.0, 1.0), 0.0, id="ref-year-text"),
    ])
    def test_malformed_field_rejected(self, kind, parameters, sample_years, noise):
        with pytest.raises(GeneratorError):
            GeneratorSpec(kind, parameters, sample_years, noise)

    # Numeric text parsed as years, while a parameter "1" was rejected.
    @pytest.mark.parametrize("sample_years", [
        pytest.param(("1", "2"), id="str"),
        pytest.param((b"1", b"2"), id="bytes"),
        pytest.param((1.0, "2"), id="mixed"),
        pytest.param(np.array(["1", "2"]), id="numpy-str"),
        pytest.param((Fraction(1), "2"), id="object-with-str"),
    ])
    def test_text_sample_years_rejected(self, sample_years):
        with pytest.raises(GeneratorError, match="sample_years must be a sequence of numbers"):
            GeneratorSpec("constant", {"level": 1.0}, sample_years)

    # np.asarray raises ValueError on a ragged sequence, which is no sequence of numbers.
    def test_ragged_sample_years_rejected(self):
        with pytest.raises(GeneratorError, match="^sample_years must be a sequence of numbers$"):
            GeneratorSpec("constant", {"level": 1.0}, [1.0, [2.0, 3.0]])

    def test_numeric_sample_years_allowed(self):
        for sample_years in ((1, 2), (Fraction(1), 2), np.array([1.0, 2.0]), (True, 2)):
            assert GeneratorSpec("constant", {"level": 1.0}, sample_years).sample_years == (1.0, 2.0)

    def test_exponential_reference_year_allowed(self):
        spec = GeneratorSpec("exponential", {"level": 2.0, "rate": 0.01, "ref_year": 1.0},
                             years(0, 1))
        assert generate(spec).values[1] == pytest.approx(2.0)


class TestModelErrors:
    """Errors raised while sampling the exact model; none is cached."""

    @pytest.mark.parametrize("kind, parameters, sample_years, message", [
        pytest.param("hyperbolic", {"a": 1.0, "k": 1e-3}, years(0, 500, 1000),
                     "sample years reach the singularity at 1000", id="hyperbolic"),
        pytest.param("spliced-two-hyperbolic",
                     {"a": 1.0, "k": 1e-3, "break_year": 1500.0, "k_ratio": 2.0},
                     years(0, 1000, 1600), "first-regime sample years reach its singularity",
                     id="spliced-first"),
        pytest.param("spliced-two-hyperbolic",
                     {"a": 1.0, "k": 1e-3, "break_year": 500.0, "k_ratio": 2.0},
                     years(0, 400, 800), "second-regime sample years reach its singularity",
                     id="spliced-second"),
        pytest.param("hyperbolic-then-slower",
                     {"a": 1.0, "k": 1e-3, "break_year": 900.0, "slow_factor": 1.0},
                     years(0, 950), "slow_factor must be in (0, 1)", id="slow-factor"),
        pytest.param("hyperbolic-then-slower",
                     {"a": 1.0, "k": 1e-3, "break_year": 1000.0, "slow_factor": 0.5},
                     years(0, 950), "break_year must precede the singularity", id="break-year"),
    ])
    @pytest.mark.parametrize("noise", [0.0, 0.01])
    def test_raised_on_every_call(self, kind, parameters, sample_years, message, noise):
        spec = GeneratorSpec(kind, parameters, sample_years, noise=noise, seed=3)
        for _ in range(2):
            with pytest.raises(GeneratorError) as exc:
                generate(spec)
            assert type(exc.value) is GeneratorError
            assert str(exc.value) == message

    # Years up to the break precede it, and the break precedes the
    # singularity, so no year before the break can reach the singularity.
    def test_slower_samples_up_to_a_break_just_before_the_singularity(self):
        spec = GeneratorSpec("hyperbolic-then-slower",
                             {"a": 1.0, "k": 1e-3, "break_year": 999.999, "slow_factor": 0.5},
                             years(0, 999.999, 1000, 1000.001))
        s = generate(spec)
        assert s.values[1] == pytest.approx(1.0 / (1.0 - 0.999999))
        assert np.all(np.diff(s.values) > 0)


# One spec per kind, each valid on both grids of the interleaving test.
_CACHE_SPECS = {
    "hyperbolic": {"a": 1.0, "k": 1e-3},
    "constant": {"level": 3.0},
    "exponential": {"level": 2.0, "rate": 0.01, "ref_year": 100.0},
    "stagnation-then-takeoff": {"level": 2.0, "break_year": 500.0, "rate": 0.02},
    "spliced-two-hyperbolic": {"a": 1.0, "k": 1e-3, "break_year": 500.0, "k_ratio": 1.2},
    "hyperbolic-then-slower": {"a": 1.0, "k": 1e-3, "break_year": 800.0, "slow_factor": 0.4},
}


def _direct(spec):
    """The bytes of one generate() call, computed without the cache."""
    values = _exact_values(spec, np.asarray(spec.sample_years, dtype=float))
    if spec.noise > 0:
        rng = np.random.default_rng(spec.seed)
        values = values * np.exp(rng.normal(0.0, spec.noise, size=len(values)))
    return values.tobytes()


class TestExactCache:
    """generate() evaluates a spec's exact series once; the bytes never change."""

    @pytest.fixture(autouse=True)
    def empty_cache(self):
        synth._EXACT.clear()
        yield
        synth._EXACT.clear()

    def test_interleaved_specs_give_direct_bytes(self):
        assert set(_CACHE_SPECS) == set(KINDS)
        grids = (years(*range(0, 900, 30)), years(0, 1, 250, 400, 600, 801, 850))
        specs = [GeneratorSpec(kind, params, grid, noise=noise, seed=seed)
                 for grid in grids for kind, params in _CACHE_SPECS.items()
                 for noise, seed in ((0.0, 0), (0.02, 7), (0.02, 8))]
        expected = [_direct(spec) for spec in specs]
        # Forwards, backwards, then forwards again: each spec is generated
        # before and after every other, across clears of the full cache.
        for order in (range(len(specs)), reversed(range(len(specs))), range(len(specs))):
            for i in order:
                assert generate(specs[i]).values.tobytes() == expected[i]
        assert not any(v.flags.writeable for v in synth._EXACT.values())

    def test_cache_never_exceeds_its_bound(self):
        sizes = []
        for level in range(1, 30):
            generate(GeneratorSpec("constant", {"level": float(level)}, years(0, 1)))
            sizes.append(len(synth._EXACT))
        assert max(sizes) == synth._EXACT_SIZE == 8

    def test_signed_zero_years_keep_their_own_bytes(self):
        params = {"level": 2.0, "rate": 0.01}
        neg = GeneratorSpec("exponential", params, (-0.0, 1.0))
        pos = GeneratorSpec("exponential", params, (0.0, 1.0))
        for spec in (neg, pos, neg, pos):
            s = generate(spec)
            assert s.years.tobytes() == np.array(spec.sample_years).tobytes()
            assert s.values.tobytes() == _direct(spec)
        assert len(synth._EXACT) == 2

    # The key's parameters compare as floats, so a ref_year of -0.0 finds
    # 0.0's entry; its direct bytes are the same.
    def test_signed_zero_reference_year_shares_bytes(self):
        grid = (-5.0, -0.0, 3.0)
        for ref in (0.0, -0.0):
            spec = GeneratorSpec("exponential", {"level": 2.0, "rate": 2.0, "ref_year": ref}, grid)
            assert generate(spec).values.tobytes() == _direct(spec)
        assert len(synth._EXACT) == 1

    @pytest.mark.parametrize("convert", [
        pytest.param(int, id="int"),
        pytest.param(lambda v: v == 1 or v, id="bool"),
        pytest.param(np.float64, id="np.float64"),
    ])
    @pytest.mark.parametrize("mapping", [dict, MappingProxyType], ids=["dict", "mapping-proxy"])
    def test_parameter_types_give_the_float_bytes(self, convert, mapping):
        floats = {"a": 2000.0, "k": 1.0, "break_year": 900.0, "k_ratio": 2.0}
        other = mapping({name: convert(v) for name, v in floats.items()})
        grid = years(0, 300, 600, 900, 1000, 1100)
        spec = GeneratorSpec("spliced-two-hyperbolic", other, grid)
        assert all(type(v) is float for v in spec.parameters.values())
        assert spec.parameters == floats and type(spec.parameters) is dict
        float_spec = GeneratorSpec("spliced-two-hyperbolic", floats, grid)
        assert generate(spec).values.tobytes() == _direct(float_spec)
        assert generate(float_spec).values.tobytes() == _direct(float_spec)

    def test_editing_the_callers_dict_changes_nothing(self):
        params = {"a": 1.0, "k": 1e-3}
        spec = GeneratorSpec("hyperbolic", params, years(0, 100, 200))
        before = generate(spec).values.tobytes()
        params["k"] = 2e-3
        params["zeta"] = 1.0
        assert spec.parameters == {"a": 1.0, "k": 1e-3}
        assert generate(spec).values.tobytes() == before
        synth._EXACT.clear()
        assert generate(spec).values.tobytes() == before

    def test_callers_year_array_stays_writable(self):
        grid = np.array([0.0, 100.0, 200.0])
        spec = GeneratorSpec("hyperbolic", {"a": 1.0, "k": 1e-3}, grid)
        s = generate(spec)
        generate(spec)
        assert grid.flags.writeable
        grid[0] = -1.0
        assert s.years[0] == 0.0 and generate(spec).years[0] == 0.0


class TestMaddisonGrid:
    def test_starts_with_sparse_benchmarks(self):
        grid = maddison_year_grid()
        assert grid[:3] == [1.0, 1000.0, 1500.0]

    def test_strictly_increasing(self):
        grid = maddison_year_grid()
        assert np.all(np.diff(grid) > 0)

    def test_first_millennium_gap(self):
        assert not [y for y in maddison_year_grid() if 1 < y < 1000]

    def test_annual_tail(self):
        grid = maddison_year_grid()
        tail = [y for y in grid if y >= 1950]
        assert tail == [float(y) for y in range(1950, 2009)]
