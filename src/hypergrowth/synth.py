"""Deterministic synthetic-series generators.

Every detector in this package is validated against series whose ground truth
is known by construction.  Generators are pure functions of (spec, seed):
identical inputs produce bit-identical output.  Noise, when requested, is
multiplicative log-normal, exp(N(0, sigma^2)) per point, so values stay
positive across the four orders of magnitude a GDP series can span.
"""

from __future__ import annotations

import operator
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .errors import GeneratorError, _finite
from .model import HyperbolicModel, evaluate
from .series import YearValueSeries

KINDS = (
    "hyperbolic",
    "constant",
    "exponential",
    "stagnation-then-takeoff",
    "spliced-two-hyperbolic",
    "hyperbolic-then-slower",
)

# Parameters required by each kind.  All must be positive reals except where
# noted in the generator functions.
_REQUIRED = {
    "hyperbolic": ("a", "k"),
    "constant": ("level",),
    "exponential": ("level", "rate"),
    "stagnation-then-takeoff": ("level", "break_year", "rate"),
    "spliced-two-hyperbolic": ("a", "k", "break_year", "k_ratio"),
    "hyperbolic-then-slower": ("a", "k", "break_year", "slow_factor"),
}
# Parameters a kind reads when given; any other parameter is an error.
_OPTIONAL = {"exponential": ("ref_year",)}
_ALLOWED = {kind: frozenset(_REQUIRED[kind] + _OPTIONAL.get(kind, ())) for kind in KINDS}
_INF = float("inf")


def _real_array(v) -> np.ndarray | None:
    """``v`` as a float array if it holds real numbers only, else None.

    Text is no number, even where float() would parse it, as in ``_finite``.
    """
    try:
        a = np.asarray(v)
        if a.dtype.kind in "biuf" or a.dtype.kind == "O" and not any(
                isinstance(x, (str, bytes)) for x in a.flat):
            return np.asarray(a, dtype=float)
    except (TypeError, ValueError, OverflowError):
        pass
    return None


@dataclass(frozen=True)
class GeneratorSpec:
    """Recipe for one synthetic series.

    ``parameters`` are kind-specific (see _REQUIRED and _OPTIONAL) and are
    kept as a new dict of floats, as ``sample_years`` is kept as a tuple of
    floats; ``noise`` is the sigma of the per-point multiplicative log-normal
    factor; ``seed`` feeds a dedicated PCG64 stream so runs are reproducible.
    """

    kind: str
    parameters: dict
    sample_years: tuple
    noise: float = 0.0
    seed: int = 0
    label: str = ""

    def __post_init__(self):
        if self.kind not in KINDS:
            raise GeneratorError(f"unknown generator kind {self.kind!r}")
        years = _real_array(self.sample_years)
        if years is None or years.ndim != 1:
            raise GeneratorError("sample_years must be a sequence of numbers")
        # One comparison pass on a clean grid, as in YearValueSeries; a faulty
        # grid goes through the ordered checks that name its first fault.
        if not (len(years) and np.logical_and.reduce(years[1:] > years[:-1])
                and -_INF < years[0] and years[-1] < _INF):
            if len(years) < 1 or np.logical_or.reduce(years[1:] <= years[:-1]):
                raise GeneratorError("sample_years must be non-empty and strictly increasing")
            raise GeneratorError("sample_years must be finite")
        if not isinstance(self.parameters, Mapping):
            raise GeneratorError(f"parameters must be a mapping of names to numbers, "
                                 f"got {self.parameters!r}")
        missing = [p for p in _REQUIRED[self.kind] if p not in self.parameters]
        if missing:
            raise GeneratorError(f"{self.kind} requires parameters {missing}")
        unknown = set(self.parameters) - _ALLOWED[self.kind]
        if unknown:
            raise GeneratorError(f"{self.kind} takes no parameters {sorted(unknown)}")
        # A new dict of floats: the exact series depends on hashable values
        # only, and editing the caller's dict later does not change the spec.
        parameters = {}
        for name in _REQUIRED[self.kind]:
            v = self.parameters[name]
            if not (_finite(v) and v > 0):
                raise GeneratorError(f"parameter {name} must be finite and positive, got {v!r}")
            parameters[name] = float(v)
        for name in _OPTIONAL.get(self.kind, ()):
            if name in self.parameters:
                v = self.parameters[name]
                if not _finite(v):
                    raise GeneratorError(f"parameter {name} must be finite, got {v!r}")
                parameters[name] = float(v)
        if not (_finite(self.noise) and self.noise >= 0):
            raise GeneratorError("noise sigma must be finite and >= 0")
        try:
            seed = operator.index(self.seed)
        except TypeError:
            raise GeneratorError(f"seed must be an integer, got {self.seed!r}") from None
        if seed < 0:
            raise GeneratorError(f"seed must be >= 0, got {self.seed}")
        object.__setattr__(self, "parameters", parameters)
        object.__setattr__(self, "sample_years", tuple(years.tolist()))


def _exact_values(spec: GeneratorSpec, years: np.ndarray) -> np.ndarray:
    p = spec.parameters
    if spec.kind == "hyperbolic":
        model = HyperbolicModel(p["a"], p["k"])
        if years[-1] >= model.singularity_year:
            raise GeneratorError(
                f"sample years reach the singularity at {model.singularity_year:.6g}"
            )
        return np.asarray(evaluate(model, years))
    if spec.kind == "constant":
        return np.full_like(years, p["level"])
    if spec.kind == "exponential":
        ref = p.get("ref_year", years[0])
        return p["level"] * np.exp(p["rate"] * (years - ref))
    if spec.kind == "stagnation-then-takeoff":
        b, r = p["break_year"], p["rate"]
        return np.where(years <= b, p["level"], p["level"] * np.exp(r * (years - b)))
    if spec.kind == "spliced-two-hyperbolic":
        return _spliced_values(p, years)
    # GeneratorSpec admits only KINDS, so the kind left is "hyperbolic-then-slower".
    return _slower_values(p, years)


def _spliced_values(p: dict, years: np.ndarray) -> np.ndarray:
    m1, m2 = spliced_models(p)
    i = years.searchsorted(p["break_year"], side="right")  # years[:i] <= break_year
    if i and years[i - 1] >= m1.singularity_year:
        raise GeneratorError("first-regime sample years reach its singularity")
    if years[-1] >= m2.singularity_year:
        raise GeneratorError("second-regime sample years reach its singularity")
    out = np.empty_like(years)
    out[:i] = evaluate(m1, years[:i])
    out[i:] = evaluate(m2, years[i:])
    return out


def _slower_values(p: dict, years: np.ndarray) -> np.ndarray:
    a, k, b, f = p["a"], p["k"], p["break_year"], p["slow_factor"]
    if not f < 1:
        raise GeneratorError("slow_factor must be in (0, 1)")
    model = HyperbolicModel(a, k)
    if b >= model.singularity_year:
        raise GeneratorError("break_year must precede the singularity")
    # years[:i] <= b, so they precede the singularity too.
    i = years.searchsorted(b, side="right")
    s_b = evaluate(model, b)
    # Post-break growth continues exponentially at a fraction of the model's
    # instantaneous log-growth rate k/(a - k*b) at the break.
    r = f * k / (a - k * b)
    out = np.empty_like(years)
    out[:i] = evaluate(model, years[:i])
    out[i:] = s_b * np.exp(r * (years[i:] - b))
    return out


def spliced_models(p: dict) -> tuple[HyperbolicModel, HyperbolicModel]:
    """The two exact models behind a spliced-two-hyperbolic spec."""
    a1, k1, b, ratio = p["a"], p["k"], p["break_year"], p["k_ratio"]
    k2 = ratio * k1
    # Continuity of the reciprocal at the break: a2 - k2*b = a1 - k1*b.
    return HyperbolicModel(a1, k1), HyperbolicModel(a1 + (k2 - k1) * b, k2)


# Exact series of the specs generated last, keyed by kind, parameters and the
# years' bytes (which keep -0.0 apart from 0.0; a ref_year of -0.0 shares 0.0's
# entry, and both give the same bytes).  Monte-Carlo trials sample one spec on
# one grid many times with only the seed changed.  Errors are not stored.
_EXACT: dict = {}
_EXACT_SIZE = 8


def generate(spec: GeneratorSpec) -> YearValueSeries:
    """Sample the exact model on spec.sample_years, then apply noise."""
    years = np.asarray(spec.sample_years, dtype=float)
    key = (spec.kind, tuple(spec.parameters.items()), years.tobytes())
    values = _EXACT.get(key)
    if values is None:
        values = _exact_values(spec, years)
        values.setflags(write=False)
        if len(_EXACT) >= _EXACT_SIZE:
            _EXACT.clear()
        _EXACT[key] = values
    if spec.noise > 0:
        rng = np.random.default_rng(spec.seed)
        values = values * np.exp(rng.normal(0.0, spec.noise, size=len(years)))
    label = spec.label or spec.kind
    return YearValueSeries(years, values, label)


def maddison_year_grid() -> list[float]:
    """Sparse historical sampling grid of the Maddison (2010) tables.

    Isolated benchmark years up to 1913 (with the large AD 1 -> 1000 -> 1500
    gaps), then annual coverage 1950-2008.
    """
    head = [1.0, 1000.0, 1500.0, 1600.0, 1700.0, 1820.0, 1870.0, 1900.0, 1913.0]
    return head + [float(y) for y in range(1950, 2009)]
