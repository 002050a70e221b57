"""Exception types, and the number check behind many of them, shared across the package."""

import math


def _finite(v) -> bool:
    """Whether ``v`` is a finite real number; False for anything else, text included."""
    try:
        return math.isfinite(v)
    except (TypeError, OverflowError):
        return False


class ArgumentError(ValueError):
    """An argument out of its range.  No ``HypergrowthError``, so that neither
    ``run_analysis`` nor the acceptance battery makes it one region's or one check's fault."""


class HypergrowthError(Exception):
    """Base class for all package-specific errors."""


class SeriesError(HypergrowthError, ValueError):
    """Invalid year/value series (ordering, positivity, emptiness)."""


class EvaluationDomainError(HypergrowthError, ValueError):
    """Model evaluated at or past its singularity."""


class FitError(HypergrowthError, ValueError):
    """Base class for fitting failures."""


class TooFewPointsError(FitError):
    """Not enough observed points for the requested operation."""


class NonHyperbolicError(FitError):
    """Fitted reciprocal line is not decreasing (slope of growth <= 0)."""


class SingularityInWindowError(FitError):
    """Fitted singularity falls inside the fit window."""


class NegativeProximityError(HypergrowthError, ValueError):
    """Diversion year claimed after the singularity."""


class ParseError(HypergrowthError, ValueError):
    """Malformed input table, config file or report document, or a name the long
    CSV cannot hold."""


class RegionError(HypergrowthError, ValueError):
    """Region definition cannot be resolved against a dataset table."""


class GeneratorError(HypergrowthError, ValueError):
    """Invalid synthetic-series generator specification."""
