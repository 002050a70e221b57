"""Region analysis pipeline and report rendering.

``run_analysis`` turns a dataset table plus a region config into one report
row per fitted regime: parameters, hyperbolic range, singularity year,
proximity of the detected diversion and the takeoff verdict.  Regions that
fail are collected as error entries without aborting the rest.

Reports render to JSON (full precision, versioned schema), CSV and a
markdown table; human-readable formats print parameters with 4 significant
digits in compact scientific notation (``1.684e-2``).
"""

from __future__ import annotations

import contextlib
import json
import math
import re
from dataclasses import asdict, dataclass, fields

from .errors import (ArgumentError, FitError, HypergrowthError, ParseError, TooFewPointsError,
                     _finite)
from .fit import (DEFAULT_WEIGHTING, FitWindow, HyperbolicFit, _centred_line, _max, _sum,
                  _weights, best_fit)
from .ingest import AnalysisConfigFile, DatasetTable, _csv_bytes, build_region_series
from .model import relative_deviation, round_half_up
from .regime import detect_diversion, segment_two_hyperbolic
from .series import YearValueSeries
from .takeoff import TakeoffHypothesis, takeoff_test

SCHEMA_VERSION = 1


def format_sci(x: float) -> str:
    """4-significant-digit scientific notation with a bare exponent."""
    mantissa, exp = f"{x:.3e}".split("e")
    return f"{mantissa}e{int(exp)}"


@dataclass(frozen=True)
class AnalysisReportRow:
    """One fitted regime in the summary table."""

    region: str
    a: float
    k: float
    range_start: float
    range_end: float
    singularity: int
    proximity: int | None
    takeoff: str  # "X" = tested, none found; a year string if found; "" = not tested


@dataclass(frozen=True)
class RegionErrorEntry:
    region: str
    message: str


def _study(series: YearValueSeries, window: FitWindow | None, two_regime: bool, weighting,
           takeoff: TakeoffHypothesis | None = None):
    """One region's study: ``(fits, breakpoint, finding, takeoff_result)``.

    ``fits`` are the regimes in time order.  Without ``two_regime`` the one
    regime is ``best_fit``'s and the breakpoint is None; with it, the series
    is cut to ``window`` and split in two.  ``finding`` is the latest regime's
    diversion, None when the series ends in its window.  ``takeoff_result``
    is ``takeoff_test`` at ``takeoff``, None when no hypothesis is given or
    the test is infeasible.
    """
    if not two_regime:
        fits, breakpoint = [best_fit(series, window, weighting)], None
    else:
        span = series if window is None else series.slice_window(window.start_year, window.end_year)
        seg = segment_two_hyperbolic(span, weighting=weighting)
        fits, breakpoint = [s.fit for s in seg.hyperbolic_segments()], seg.breakpoint_year
        if not fits:
            raise FitError(f"no hyperbolic regime found for {series.label!r}")
    last = fits[-1]
    finding = detect_diversion(series, last) if series.years[-1] > last.window.end_year else None
    result = None
    if takeoff is not None:
        with contextlib.suppress(TooFewPointsError):
            result = takeoff_test(series, takeoff)
    return fits, breakpoint, finding, result


def run_analysis(
    table: DatasetTable,
    config: AnalysisConfigFile,
    weighting: str = DEFAULT_WEIGHTING,
) -> tuple[list[AnalysisReportRow], list[RegionErrorEntry]]:
    """Run the full per-region pipeline; never aborts on a single region.

    Each regime is a row; the latest carries the proximity and takeoff cell.
    """
    rows: list[AnalysisReportRow] = []
    errors: list[RegionErrorEntry] = []
    for cfg in config.regions:
        try:
            series = build_region_series(table, cfg.definition)
            fits, _, finding, result = _study(series, cfg.window, cfg.two_regime, weighting,
                                              cfg.takeoff)
        except HypergrowthError as exc:
            errors.append(RegionErrorEntry(cfg.definition.name, str(exc)))
            continue
        prox = finding.proximity_years if finding is not None else None
        cell = ("" if result is None
                else str(round_half_up(result.break_year)) if result.positive else "X")
        for fit in fits:
            latest = fit is fits[-1]
            rows.append(AnalysisReportRow(
                series.label, fit.model.a, fit.model.k, fit.window.start_year,
                fit.window.end_year, round_half_up(fit.model.singularity_year),
                prox if latest else None, cell if latest else ""))
    return rows, errors


def fit_record(fit: HyperbolicFit) -> dict:
    """The reported fields of ``fit``: its model, window and weighting, the RMSE of its plain
    reciprocal residuals, the R^2 of its reciprocal line, weighted as the fit was, and its
    largest |observed - fitted| in percent of the fitted value."""
    t, y, model = fit.years, fit.reciprocals, fit.model
    w = _weights(fit.values, fit.weighting)
    sq_tot, sq_res = (y - _centred_line(t, y, w)[2]) ** 2, fit.deltas**2
    rmse = math.sqrt(float(_sum(sq_res)) / len(t))
    if w is not None:
        sq_tot, sq_res = w * sq_tot, w * sq_res
    ss_tot, ss_res = float(_sum(sq_tot)), float(_sum(sq_res))
    return {
        "a": model.a,
        "k": model.k,
        "singularity": model.singularity_year,
        "singularity_year": round_half_up(model.singularity_year),
        "window": [fit.window.start_year, fit.window.end_year],
        "n_points": len(t),
        "rmse_reciprocal": rmse,
        "r2_reciprocal": 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot,
        "max_abs_relative_deviation": float(_max(abs(relative_deviation(t, fit.values, model)))),
        "weighting": fit.weighting,
    }


def _finite_json(obj):
    """``obj`` with each non-finite float, in any dict or list, as the text
    ``inf``, ``-inf`` or ``nan``: JSON has no such numbers."""
    if isinstance(obj, dict):
        return {k: _finite_json(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_json(v) for v in obj]
    if isinstance(obj, float) and not _finite(obj):
        return str(obj)
    return obj


def _json_bytes(obj) -> bytes:
    """The JSON document of every JSON output: sorted keys, 2-space indent, final
    newline, and each non-finite float written as text."""
    return (json.dumps(_finite_json(obj), indent=2, sort_keys=True, allow_nan=False)
            + "\n").encode("utf-8")


_MD_LINE_BREAK = re.compile(r"\r\n?|\n")

_HEADERS = {
    "csv": ("region", "a", "k", "range_start", "range_end", "singularity", "proximity",
            "takeoff"),
    "markdown": ("Region", "a", "k", "Hyperbolic Range", "Singularity", "Proximity", "Takeoff"),
}


def render_report(rows, fmt: str = "json") -> bytes:
    """Serialize report rows; deterministic byte output per format.

    CSV and markdown share the cells; CSV gives the range as two columns and
    is written by ``ingest._csv_bytes``; markdown gives it as one ``start - end``
    cell, and writes each ``|`` in a cell as ``\\|`` and each CR LF, CR or LF as
    ``<br>``, so that every row stays on one line.
    """
    if fmt == "json":
        doc = {
            "schema_version": SCHEMA_VERSION,
            "rows": [asdict(r) for r in rows],
        }
        return _json_bytes(doc)
    if fmt not in _HEADERS:
        raise ArgumentError(f"unknown report format {fmt!r}")
    table = [_HEADERS[fmt]]
    for r in rows:
        start, end = round_half_up(r.range_start), round_half_up(r.range_end)
        span = (start, end) if fmt == "csv" else (f"{start} - {end}",)
        table.append((r.region, format_sci(r.a), format_sci(r.k), *span, r.singularity,
                      "" if r.proximity is None else r.proximity, r.takeoff))
    if fmt == "csv":
        return _csv_bytes(table)
    table.insert(1, ("---",) * len(table[0]))
    lines = (" | ".join(_MD_LINE_BREAK.sub("<br>", str(c).replace("|", r"\|")) for c in cells)
             for cells in table)
    return "".join(f"| {line} |\n" for line in lines).encode("utf-8")


def _integer(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


# What each annotated type of a row field admits in a JSON report, and its name.
_JSON_TYPES = {
    "str": (lambda v: isinstance(v, str), "text"),
    "float": (lambda v: not isinstance(v, bool) and _finite(v), "a finite number"),
    "int": (_integer, "an integer"),
    "int | None": (lambda v: v is None or _integer(v), "an integer or null"),
}
_FIELDS = {f.name: _JSON_TYPES[f.type] for f in fields(AnalysisReportRow)}


def parse_report_json(data: bytes) -> list[AnalysisReportRow]:
    """Inverse of render_report(fmt='json'); bytes that are not UTF-8 JSON, a
    malformed document, or a field of the wrong type, are a ParseError."""
    try:
        doc = json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"report document is not UTF-8 JSON ({type(exc).__name__}: "
                         f"{exc})") from None
    if not isinstance(doc, dict):
        raise ParseError("report document is not a JSON object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ParseError(f"unsupported schema_version {doc.get('schema_version')!r}")
    if not isinstance(doc.get("rows"), list):
        raise ParseError("report document has no 'rows' list")
    for i, row in enumerate(doc["rows"]):
        if not isinstance(row, dict):
            raise ParseError(f"report row {i} is not a JSON object")
        if row.keys() != _FIELDS.keys():
            raise ParseError(f"report row {i}: missing fields "
                             f"{sorted(_FIELDS.keys() - row.keys())}, "
                             f"unknown fields {sorted(row.keys() - _FIELDS.keys())}")
        for name, (admits, kind) in _FIELDS.items():
            if not admits(row[name]):
                raise ParseError(f"report row {i}: {name} {row[name]!r} is not {kind}")
    return [AnalysisReportRow(**row) for row in doc["rows"]]
