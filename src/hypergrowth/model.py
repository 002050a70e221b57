"""Hyperbolic growth model S(t) = 1/(a - k*t) and reciprocal-space helpers.

The reciprocal of the model is the decreasing straight line a - k*t, which is
the representation every fitting and diagnostic routine in this package works
in.  ``a`` is the reciprocal intercept at year 0 (1/billion$) and ``k`` the
reciprocal slope magnitude (1/billion$/year); both are strictly positive, and
the model escapes to infinity at the singularity year a/k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationDomainError, SeriesError, _finite


def round_half_up(x: float) -> int:
    """Round to the nearest integer, halves away from the floor."""
    return int(math.floor(x + 0.5))


@dataclass(frozen=True)
class HyperbolicModel:
    """Parameters of S(t) = 1/(a - k*t), a > 0, k > 0."""

    a: float
    k: float

    def __post_init__(self):
        if not (_finite(self.a) and self.a > 0):
            raise SeriesError(f"parameter a must be finite and positive, got {self.a}")
        if not (_finite(self.k) and self.k > 0):
            raise SeriesError(f"parameter k must be finite and positive, got {self.k}")

    @property
    def singularity_year(self) -> float:
        """Real-valued year a/k at which the model diverges."""
        return self.a / self.k


def evaluate(model: HyperbolicModel, t):
    """Evaluate S(t) = 1/(a - k*t); scalar or array ``t``.

    Raises
    ------
    EvaluationDomainError
        If any t satisfies a - k*t <= 0 (at or past the singularity).
    """
    t = np.asarray(t, dtype=float)
    denom = model.a - model.k * t
    # axis=None: a scalar t makes denom 0-d.
    if np.logical_or.reduce(denom <= 0, axis=None):
        raise EvaluationDomainError(
            f"model with singularity at {model.singularity_year:.6g} "
            f"evaluated at or past it"
        )
    out = 1.0 / denom
    return float(out) if out.ndim == 0 else out


def reciprocal_line(model: HyperbolicModel, t):
    """Reciprocal-space line a - k*t (defined for all t)."""
    t = np.asarray(t, dtype=float)
    out = model.a - model.k * t
    return float(out) if out.ndim == 0 else out


def reciprocal_delta(s1, s2):
    """Difference of reciprocals, 1/s2 - 1/s1, via -(s2 - s1)/(s1*s2).

    Both inputs must be positive; accepts scalars or arrays.  The product-form
    expression makes explicit how the difference is magnified when the values
    themselves are small.
    """
    s1 = np.asarray(s1, dtype=float)
    s2 = np.asarray(s2, dtype=float)
    if np.any(s1 <= 0) or np.any(s2 <= 0):
        raise SeriesError("reciprocal_delta requires strictly positive values")
    out = -(s2 - s1) / (s1 * s2)
    return float(out) if out.ndim == 0 else out


def relative_deviation(year, value, model: HyperbolicModel):
    """Signed percent deviation of observations from the fitted curve.

    100 * (observed - fitted) / fitted; positive means the observation lies
    above the curve.  ``year`` and ``value`` are scalars or aligned arrays.
    Raises EvaluationDomainError at or past the singularity.
    """
    fitted = evaluate(model, year)
    return 100.0 * (value - fitted) / fitted
