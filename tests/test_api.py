"""The public names of the package, pinned so that an addition or removal is deliberate."""

import types

import hypergrowth

PUBLIC = [
    "AnalysisConfigFile", "AnalysisReportRow", "ArgumentError", "DatasetTable", "DiversionFinding",
    "EvaluationDomainError", "FitError", "FitWindow", "GeneratorError", "GeneratorSpec",
    "HyperbolicFit", "HyperbolicModel", "HypergrowthError", "NegativeProximityError",
    "NonHyperbolicError", "ParseError", "PlotSheet", "RegimeSegmentation", "RegionConfig",
    "RegionDefinition", "RegionError", "RegionErrorEntry", "Segment", "SeriesError",
    "SingularityInWindowError", "TakeoffHypothesis", "TakeoffTestResult", "TooFewPointsError",
    "YearValueSeries", "build_plot_sheet", "build_region_series", "detect_diversion",
    "evaluate", "fit_hyperbolic", "fit_record", "format_sci", "generate", "maddison_year_grid",
    "parse_long_csv", "parse_region_config", "parse_report_json", "parse_wide_table",
    "plot_sheet_csv", "plot_sheet_svg", "proximity", "reciprocal_delta", "reciprocal_line",
    "relative_deviation", "render_report", "round_half_up", "run_analysis", "scan_windows",
    "segment_two_hyperbolic", "serialize_long_csv", "series_to_long_csv", "takeoff_scan",
    "takeoff_test",
]

# Removed with the move of per-point diagnostics to arrays: two record types,
# the function that built one of them, and two helpers that duplicated others.
RETIRED = ["GoodnessReport", "ReciprocalResidual", "goodness", "reciprocal_transform",
           "singularity"]


def test_public_names():
    names = sorted(
        n for n, v in vars(hypergrowth).items()
        if not n.startswith("_") and not isinstance(v, types.ModuleType)
    )
    assert names == PUBLIC
    assert not set(RETIRED) & set(names)
