"""Hyperbolic growth-regime analysis of historical time series.

Identifies hyperbolic growth S(t) = 1/(a - k*t) by straight-line fitting of
reciprocal values, computes finite-time singularities and diversions from the
fitted trajectory, segments series into multiple hyperbolic regimes, and
tests for the takeoff-from-stagnation signature.
"""

from .errors import (
    ArgumentError,
    EvaluationDomainError,
    FitError,
    GeneratorError,
    HypergrowthError,
    NegativeProximityError,
    NonHyperbolicError,
    ParseError,
    RegionError,
    SeriesError,
    SingularityInWindowError,
    TooFewPointsError,
)
from .fit import FitWindow, HyperbolicFit, fit_hyperbolic, scan_windows
from .ingest import (
    AnalysisConfigFile,
    DatasetTable,
    RegionConfig,
    RegionDefinition,
    build_region_series,
    parse_long_csv,
    parse_region_config,
    parse_wide_table,
    serialize_long_csv,
    series_to_long_csv,
)
from .model import (
    HyperbolicModel,
    evaluate,
    reciprocal_delta,
    reciprocal_line,
    relative_deviation,
    round_half_up,
)
from .plots import PlotSheet, build_plot_sheet, plot_sheet_csv, plot_sheet_svg
from .regime import (
    DiversionFinding,
    RegimeSegmentation,
    Segment,
    detect_diversion,
    proximity,
    segment_two_hyperbolic,
)
from .report import (
    AnalysisReportRow,
    RegionErrorEntry,
    format_sci,
    parse_report_json,
    render_report,
    run_analysis,
)
from .series import YearValueSeries
from .synth import GeneratorSpec, generate, maddison_year_grid
from .takeoff import (
    TakeoffHypothesis,
    TakeoffTestResult,
    takeoff_scan,
    takeoff_test,
)

__version__ = "0.1.0"
