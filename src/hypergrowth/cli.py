"""Command-line front end.

Subcommands: ``fit``, ``segment``, ``diversion``, ``takeoff``, ``report``,
``plot``, ``synth``, ``verify``.  Exit codes: 0 success, 1 analysis/region
error, 2 usage or config error, an argument out of range (``ArgumentError``) included.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import sys
from decimal import Decimal, InvalidOperation
from pathlib import Path

from .errors import ArgumentError, GeneratorError, HypergrowthError, ParseError
from .fit import DEFAULT_WEIGHTING, WEIGHTINGS, FitWindow, best_fit
from .ingest import (
    DatasetTable,
    _utf8,
    build_region_series,
    parse_long_csv,
    parse_region_config,
    parse_wide_table,
    parse_window,
    series_to_long_csv,
)
from .model import relative_deviation, round_half_up
from .plots import build_plot_sheet, plot_sheet_csv, plot_sheet_svg
from .regime import detect_diversion, segment_two_hyperbolic
from .report import _json_bytes, _study, render_report, run_analysis
from .series import YearValueSeries
from .synth import KINDS, GeneratorSpec, generate, maddison_year_grid
from .takeoff import SEARCH_HALFWIDTH, TakeoffHypothesis, takeoff_test

USAGE_ERROR = 2
ANALYSIS_ERROR = 1
# The most sample years ``synth --years`` builds, a bound on its time and memory.
MAX_SYNTH_YEARS = 100_000


def _write_output(data: bytes, out: str | None):
    if out:
        Path(out).write_bytes(data)
    else:
        sys.stdout.write(data.decode("utf-8"))


def _add_input_args(p: argparse.ArgumentParser):
    p.add_argument("--input", required=True, help="input CSV file")
    p.add_argument("--format", choices=("long", "wide"), default="long")
    p.add_argument("--unit-scale", type=float,
                   help="factor converting source units to billions "
                        "(default: [global] unit_scale of --regions-config, else 1)")
    p.add_argument("--region", help="region (with --regions-config) or entity name")
    p.add_argument("--regions-config", help="region definition file")


def _add_common_args(p: argparse.ArgumentParser):
    p.add_argument("--out", help="output file (default: stdout)")


def _load_config(args):
    if not args.regions_config:
        return None
    try:
        text = _utf8(Path(args.regions_config).read_bytes())
    except UnicodeDecodeError as exc:
        raise ArgumentError(f"{args.regions_config}: not UTF-8 text ({exc})") from None
    # Universal newlines, as a text-mode read gives: CRLF and CR end lines too.
    return parse_region_config(text.replace("\r\n", "\n").replace("\r", "\n"))


def _load_table(args, config) -> DatasetTable:
    """The --input table; --unit-scale wins over the config's, which wins over 1."""
    unit_scale = args.unit_scale
    if unit_scale is None:
        unit_scale = config.unit_scale if config is not None else 1.0
    parse = parse_wide_table if args.format == "wide" else parse_long_csv
    return parse(Path(args.input).read_bytes(), unit_scale)


def _load_series(args) -> YearValueSeries:
    config = _load_config(args)
    table = _load_table(args, config)
    if config is not None:
        if not args.region:
            raise ArgumentError("--region is required with --regions-config")
        for rc in config.regions:
            if rc.definition.name == args.region:
                return build_region_series(table, rc.definition)
        raise ArgumentError(f"region {args.region!r} not in {args.regions_config}")
    if args.region:
        return table.entity_series(args.region)
    if len(table.entities) == 1:
        return table.entity_series(table.entities[0])
    raise ArgumentError(
        f"input holds {len(table.entities)} entities; select one with --region"
    )


def _fit_summary(fit) -> dict:
    return {
        "a": fit.model.a,
        "k": fit.model.k,
        "singularity": fit.model.singularity_year,
        "singularity_year": round_half_up(fit.model.singularity_year),
        "window": [fit.window.start_year, fit.window.end_year],
        "n_points": fit.n_points,
        "rmse_reciprocal": fit.rmse_reciprocal,
        "r2_reciprocal": fit.r2_reciprocal,
        "max_abs_relative_deviation": fit.max_abs_relative_deviation,
        "weighting": fit.weighting,
    }


def _window(args) -> FitWindow | None:
    return FitWindow(*parse_window(args.window, "--window")) if args.window else None


def cmd_fit(args) -> int:
    series = _load_series(args)
    fit = best_fit(series, _window(args), args.weighting)
    # Years increase, so the years at or past the singularity, where the model
    # cannot be evaluated, come last; their deviation is null.
    n = int((series.years < fit.model.singularity_year).sum())
    devs = relative_deviation(series.years[:n], series.values[:n], fit.model).tolist()
    devs += [None] * (len(series) - n)
    doc = _fit_summary(fit)
    doc["deviations_percent"] = [[y, d] for y, d in zip(series.years.tolist(), devs)]
    _write_output(_json_bytes(doc), args.out)
    return 0


def cmd_segment(args) -> int:
    series = _load_series(args)
    window = _window(args)
    if window is not None:
        series = series.slice_window(window.start_year, window.end_year)
    seg = segment_two_hyperbolic(series, weighting=args.weighting)
    doc = {
        "breakpoint_year": seg.breakpoint_year,
        "k_ratio": seg.k_ratio,
        "total_sse_reciprocal": seg.total_sse,
        "segments": [
            {
                "window": [s.window.start_year, s.window.end_year],
                "kind": s.kind,
                **({"fit": _fit_summary(s.fit)} if s.fit else {}),
            }
            for s in seg.segments
        ],
    }
    _write_output(_json_bytes(doc), args.out)
    return 0


def cmd_diversion(args) -> int:
    series = _load_series(args)
    fit = best_fit(series, _window(args), args.weighting)
    finding = detect_diversion(series, fit)
    doc = {"fit": _fit_summary(fit), "finding": None}
    if finding is not None:
        doc["finding"] = {
            "year": finding.year,
            "direction": finding.direction,
            "proximity_years": finding.proximity_years,
            "evidence": [
                {
                    "year": y,
                    "observed_reciprocal": r,
                    "fitted_reciprocal": f,
                    "delta": r - f,
                }
                for y, r, f in zip(*(arr.tolist() for arr in finding.evidence))
            ],
        }
    _write_output(_json_bytes(doc), args.out)
    return 0


def cmd_takeoff(args) -> int:
    hyp = TakeoffHypothesis(args.predicted_year, args.halfwidth)  # a bad flag before the input
    series = _load_series(args)
    doc = dataclasses.asdict(takeoff_test(series, hyp))
    _write_output(_json_bytes(_sanitize(doc)), args.out)
    return 0


def _sanitize(obj):
    # JSON has no inf/nan; report them as strings.
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, float) and (obj != obj or obj in (float("inf"), float("-inf"))):
        return str(obj)
    return obj


def cmd_report(args) -> int:
    if not args.regions_config:
        raise ArgumentError("report requires --regions-config")
    config = _load_config(args)
    table = _load_table(args, config)
    rows, errors = run_analysis(table, config, weighting=args.weighting)
    _write_output(render_report(rows, args.emit), args.out)
    for err in errors:
        print(f"error: {err.region}: {err.message}", file=sys.stderr)
    return ANALYSIS_ERROR if errors else 0


def cmd_plot(args) -> int:
    series = _load_series(args)
    fits, breakpoint, finding, _ = _study(series, _window(args), args.two_regime,
                                          args.weighting)
    annotations = [] if breakpoint is None else [("breakpoint", breakpoint)]
    annotations.append(("singularity", fits[-1].model.singularity_year))
    if finding is not None:
        annotations.append((f"diversion ({finding.direction})", finding.year))
    mode = "reciprocal-linear" if args.mode == "reciprocal" else "semilog-direct"
    sheet = build_plot_sheet(series, fits, mode, annotations)
    if args.emit == "svg":
        _write_output(plot_sheet_svg(sheet), args.out)
    else:
        _write_output(plot_sheet_csv(sheet), args.out)
    return 0


def _parse_params(pairs) -> dict:
    params = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise ArgumentError(f"--param expects key=value, got {pair!r}")
        key, _, value = pair.partition("=")
        try:
            params[key.strip()] = float(value)
        except ValueError:
            raise ArgumentError(f"--param {key}: {value!r} is not a number") from None
    return params


def cmd_synth(args) -> int:
    if args.maddison_grid:
        years = maddison_year_grid()
    elif args.years:
        parts = args.years.split(":")
        if len(parts) not in (2, 3):
            raise ArgumentError(f"--years must be START:END[:STEP], got {args.years!r}")
        try:
            start, end, step = (Decimal(p) for p in parts + ["1"] * (3 - len(parts)))
        except InvalidOperation:
            raise ArgumentError(f"bad --years {args.years!r}") from None
        if not (all(d.is_finite() and math.isfinite(float(d)) for d in (start, end, step))
                and float(step) > 0):
            raise ArgumentError(f"--years needs finite START, END and STEP > 0, got {args.years!r}")
        count = math.floor((end - start) / step) + 1
        if count > MAX_SYNTH_YEARS:
            raise ArgumentError(f"--years {args.years!r} gives {count} sample years, "
                                f"more than {MAX_SYNTH_YEARS}")
        # Each year is START + i*STEP in decimal, so rounding does not build up.
        years = [float(start + i * step) for i in range(count)]
    else:
        raise ArgumentError("synth requires --years or --maddison-grid")
    spec = GeneratorSpec(
        kind=args.kind,
        parameters=_parse_params(args.param),
        sample_years=tuple(years),
        noise=args.noise,
        seed=args.seed,
        label=args.label,
    )
    series = generate(spec)
    _write_output(series_to_long_csv(series), args.out)
    return 0


def cmd_verify(args) -> int:
    # Imported here: no other verb runs the acceptance battery.
    from .acceptance import check_world_reproduction, run_all_checks

    # The --maddison table is read as --input (see build_parser).
    table = _load_table(args, None) if args.input else None
    results = run_all_checks(trials=args.trials)
    if table is not None:
        results.append(check_world_reproduction(table))
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status}  {r.name}: {r.detail}")
        failed += 0 if r.passed else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else ANALYSIS_ERROR


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypergrowth",
        description="Hyperbolic growth-regime analysis of historical time series",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help_text, run):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=run)
        return p

    def analysis_command(name, help_text, run):
        p = command(name, help_text, run)
        _add_input_args(p)
        _add_common_args(p)
        p.add_argument("--window", help="fit window START:END (inclusive years)")
        p.add_argument("--weighting", choices=WEIGHTINGS, default=DEFAULT_WEIGHTING)
        return p

    analysis_command("fit", "fit one hyperbolic model and report diagnostics", cmd_fit)
    analysis_command("segment", "split a series into two hyperbolic regimes", cmd_segment)

    analysis_command("diversion", "detect departure from a fitted trajectory", cmd_diversion)

    p = analysis_command("takeoff", "test the takeoff-from-stagnation signature", cmd_takeoff)
    p.add_argument("--predicted-year", type=float, required=True)
    p.add_argument("--halfwidth", type=float, default=SEARCH_HALFWIDTH)

    p = command("report", "run the full per-region pipeline", cmd_report)
    _add_input_args(p)
    _add_common_args(p)
    p.add_argument("--weighting", choices=WEIGHTINGS, default=DEFAULT_WEIGHTING)
    p.add_argument("--emit", choices=("json", "csv", "markdown"), default="markdown")

    p = analysis_command("plot", "emit figure data as CSV or SVG", cmd_plot)
    p.add_argument("--mode", choices=("reciprocal", "semilog"), default="reciprocal")
    p.add_argument("--two-regime", action="store_true")
    p.add_argument("--emit", choices=("csv", "svg"), default="svg")

    p = command("synth", "generate a synthetic series as long CSV", cmd_synth)
    _add_common_args(p)
    p.add_argument("--kind", required=True, choices=KINDS)
    p.add_argument("--param", action="append", metavar="KEY=VALUE",
                   help="generator parameter, repeatable")
    p.add_argument("--years", help="sample years START:END[:STEP]")
    p.add_argument("--maddison-grid", action="store_true",
                   help="use the sparse historical sampling grid")
    p.add_argument("--noise", type=float, default=0.0,
                   help="multiplicative log-normal sigma")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--label", default="")

    p = command("verify", "run the built-in acceptance checks", cmd_verify)
    p.add_argument("--trials", type=int, default=1000,
                   help="Monte-Carlo trials per statistical check")
    p.add_argument("--maddison", dest="input", help="optional Maddison-2010 CSV for the "
                                                    "data-dependent reproduction check")
    p.add_argument("--format", choices=("long", "wide"), default="wide")
    p.add_argument("--unit-scale", type=float, default=1e-3)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of this process, built once: parse_args writes only to a
    fresh Namespace, so one parser serves every call of ``main``."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.run(args)
    except (ArgumentError, ParseError, GeneratorError, OSError) as exc:
        # OSError: an input that cannot be read or an output that cannot be written.
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except HypergrowthError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ANALYSIS_ERROR


if __name__ == "__main__":
    sys.exit(main())
