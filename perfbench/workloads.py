"""The three workloads: one op each, its output checks and its ground truth.

Each op calls the program through module attributes (``fit.scan_windows``,
not a name bound at import), so the traced run's wrappers see every call.
An op that raises fails.  Otherwise it returns an ``Outcome``: how many
series it analysed, how many of them match the generator's ground truth,
the error that made it fail (if any), and a canonical rendering of its
outputs for the digest.  ``input_sizes(i)`` gives the sizes of op ``i``'s
inputs, taken from what the benchmark generated, for the per-layer counts.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import inputs
from hypergrowth import cli, fit, regime, report, series, synth, takeoff


@dataclass
class Outcome:
    series: int
    true: int
    error: str | None
    rendered: bytes


def _singularity_ok(p: dict, years: np.ndarray, rel_sd: float, singularity: float) -> bool:
    truth_years = years[years <= p["break_year"]]
    tol = inputs.singularity_tolerance(p, truth_years, rel_sd)
    return abs(singularity - p["a"] / p["k"]) <= tol


def _diversion_ok(p: dict, diversion_year: float | None) -> bool:
    b = p["break_year"]
    return diversion_year is not None and b < diversion_year <= b + inputs.DIVERSION_LAG


class ReportMaddison:
    """In-process ``hypergrowth report --emit json`` on a Maddison-scale table."""

    name = "report-maddison"
    traced_ops = inputs.TABLE_VARIANTS
    series_per_op = len(inputs.REGIONS)

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self.config = workdir / "regions.ini"
        self.config.write_text(inputs.region_config())
        self.tables, self.sizes = [], []
        for v in range(inputs.TABLE_VARIANTS):
            table = inputs.maddison_table(seed, v)
            path = workdir / f"table-{v}.csv"
            path.write_bytes(table.csv)
            self.tables.append((path, table.truths))
            self.sizes.append({"bytes": len(table.csv), "cells": table.cells,
                               "table_years": table.years, "regions": len(inputs.REGIONS)})

    @staticmethod
    def input_key(i: int) -> int:
        return i % inputs.TABLE_VARIANTS

    def input_sizes(self, i: int) -> dict:
        return self.sizes[self.input_key(i)]

    def op(self, i: int, clock) -> Outcome:
        path, truths = self.tables[self.input_key(i)]
        out = self.workdir / f"report-{self.input_key(i)}.json"
        argv = ["report", "--input", str(path), "--regions-config", str(self.config),
                "--emit", "json", "--out", str(out)]
        stderr = io.StringIO()
        with redirect_stderr(stderr):
            code = clock.step(cli.main, argv)
        n = self.series_per_op
        if code != 0:
            return Outcome(n, 0, f"exit {code}: {stderr.getvalue().strip()}", b"")
        data = out.read_bytes()
        try:
            rows = report.parse_report_json(data)
        except (ValueError, TypeError) as exc:
            return Outcome(n, 0, f"report does not parse: {exc}", data)
        by_region: dict[str, list] = {}
        for row in rows:
            by_region.setdefault(row.region, []).append(row)
        missing = [t.spec.name for t in truths if t.spec.name not in by_region]
        if missing:
            return Outcome(n, 0, f"no row for {missing}", data)
        true = sum(self._region_true(t, by_region[t.spec.name]) for t in truths)
        return Outcome(n, true, None, data)

    @staticmethod
    def _region_true(truth: inputs.RegionTruth, rows) -> bool:
        spec, p = truth.spec, truth.spec.params
        if spec.two_regime:
            if len(rows) != 2:
                return False
            breakpoint = rows[0].range_end
            ratio = rows[1].k / rows[0].k
            return (abs(breakpoint - p["break_year"]) <= inputs.BREAKPOINT_TOL
                    and abs(ratio / p["k_ratio"] - 1.0) <= inputs.K_RATIO_TOL)
        (row,) = rows
        years = truth.years
        if spec.window is not None:
            years = years[years >= spec.window[0]]
        div_year = None if row.proximity is None else row.singularity - row.proximity
        ok = _singularity_ok(p, years, truth.rel_sd, row.singularity) and _diversion_ok(p, div_year)
        if spec.takeoff_year is not None:
            ok = ok and row.takeoff == "X"  # hyperbolic data never take off
        return ok


def _series(s: inputs.StudySeries):
    return series.YearValueSeries(s.years, s.values, s.kind)


def _scan_and_detect(s):
    ranked = fit.scan_windows(s)
    best = ranked[0]
    finding = None
    if s.after(best.window.end_year) is not None:
        finding = regime.detect_diversion(s, best)
    return best, finding


class SearchAnnual:
    """An annual study: auto-window scan, two-regime split, takeoff scan."""

    name = "search-annual"
    traced_ops = 2
    series_per_op = 3

    @staticmethod
    def input_key(i: int) -> int:
        return i

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    @staticmethod
    def input_sizes(i: int) -> dict:
        return {}  # the counts of this workload's layers come from series lengths

    def op(self, i: int, clock) -> Outcome:
        world, spliced, stagnant = inputs.annual_study(self.seed, i)
        best, finding = clock.step(_scan_and_detect, _series(world))
        seg = clock.step(regime.segment_two_hyperbolic, _series(spliced))
        verdicts = clock.step(takeoff.takeoff_scan, _series(stagnant), inputs.TAKEOFF_GRID,
                              inputs.TAKEOFF_HALFWIDTH)
        div_year = finding.year if finding is not None and finding.direction == "slower" else None
        p = world.params
        true = int(_singularity_ok(p, world.years, inputs.NOISE, best.model.singularity_year)
                   and _diversion_ok(p, div_year))
        sp = spliced.params
        true += int(seg.k_ratio is not None
                    and abs(seg.breakpoint_year - sp["break_year"]) <= inputs.BREAKPOINT_TOL
                    and abs(seg.k_ratio / sp["k_ratio"] - 1.0) <= inputs.K_RATIO_TOL)
        true += int(self._takeoff_true(stagnant.params["break_year"], verdicts))
        rendered = json.dumps({
            "window": [best.window.start_year, best.window.end_year],
            "a": best.model.a, "k": best.model.k,
            "diversion": None if finding is None else [finding.year, finding.direction],
            "breakpoint": seg.breakpoint_year, "k_ratio": seg.k_ratio, "sse": seg.total_sse,
            "takeoff": [[r.verdict, r.break_year] for r in verdicts],
        }).encode()
        return Outcome(3, true, None, rendered)

    @staticmethod
    def _takeoff_true(b: float, verdicts) -> bool:
        grid = np.array(inputs.TAKEOFF_GRID)
        nearest = int(np.argmin(np.abs(grid - b)))
        hit = verdicts[nearest]
        if not (hit.positive and abs(hit.break_year - b) <= inputs.TAKEOFF_BREAK_TOL):
            return False
        far = np.abs(grid - b) > inputs.TAKEOFF_HALFWIDTH + inputs.TAKEOFF_BREAK_TOL
        return not any(v.positive for v, is_far in zip(verdicts, far) if is_far)


def _trial(spec: inputs.TrialSpec):
    s = synth.generate(synth.GeneratorSpec(spec.generator_kind, spec.params, spec.years,
                                           noise=inputs.NOISE, seed=spec.noise_seed))
    if spec.kind == "recovery":
        return fit.fit_hyperbolic(s, fit.FitWindow(spec.years[0], spec.years[-1])), None
    f = fit.fit_hyperbolic(s, fit.FitWindow(*inputs.DIVERSION_WINDOW))
    return f, regime.detect_diversion(s, f)


class MontecarloSmall:
    """One ``verify``-style trial per op, rotating over the three kinds."""

    name = "montecarlo-small"
    traced_ops = 3000
    series_per_op = 1

    @staticmethod
    def input_key(i: int) -> int:
        return i

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def input_sizes(self, i: int) -> dict:
        return {"points": len(inputs.trial_spec(self.seed, i).years)}

    def op(self, i: int, clock) -> Outcome:
        spec = inputs.trial_spec(self.seed, i)
        f, finding = clock.step(_trial, spec)
        p = spec.params
        if spec.kind == "recovery":
            true = (abs(f.model.a / p["a"] - 1) < inputs.RECOVERY_TOL
                    and abs(f.model.k / p["k"] - 1) < inputs.RECOVERY_TOL)
        elif spec.kind == "diversion":
            true = (finding is not None and finding.direction == "slower"
                    and abs(finding.year - p["break_year"]) <= inputs.DIVERSION_YEAR_TOL)
        else:
            true = finding is None
        rendered = repr((f.model.a, f.model.k, None if finding is None else finding.year)).encode()
        return Outcome(1, int(true), None, rendered)


WORKLOADS = {w.name: w for w in (ReportMaddison, SearchAnnual, MontecarloSmall)}
