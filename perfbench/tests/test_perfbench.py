"""Self-tests of the benchmark (not of the library).

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import clock  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402
from spans import Span  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_inputs_are_a_function_of_the_seed():
    a, b = inputs.maddison_table(7, 1), inputs.maddison_table(7, 1)
    assert a.csv == b.csv
    assert inputs.maddison_table(8, 1).csv != a.csv
    assert inputs.maddison_table(7, 2).csv != a.csv
    assert inputs.region_config() == inputs.region_config()
    for x, y in zip(inputs.annual_study(7, 3), inputs.annual_study(7, 3)):
        assert x.params == y.params
        assert x.years.tobytes() == y.years.tobytes() and x.values.tobytes() == y.values.tobytes()
    assert inputs.trial_spec(7, 5) == inputs.trial_spec(7, 5)
    assert (a.cells, a.years) == (b.cells, b.years)
    assert [inputs.trial_spec(7, i).kind for i in range(4)] == [
        "recovery", "diversion", "false-positive", "recovery"]


def test_table_shape_matches_the_workload_description():
    table = inputs.maddison_table(3, 0)
    lines = table.csv.decode().splitlines()
    entities = {line.split(",")[0] for line in lines[1:]}
    assert len(entities) == inputs.N_ENTITIES
    assert any(line.endswith(",") for line in lines[1:])  # gaps are written empty
    with_value = [line.split(",") for line in lines[1:] if not line.endswith(",")]
    assert table.cells == len(with_value)
    assert table.years == len({int(year) for _, year, _ in with_value})
    for truth in table.truths:
        spec = truth.spec
        if spec.takeoff_year is not None:  # the takeoff test must really run
            near = np.abs(truth.years - spec.takeoff_year) <= 50.0
            assert near.sum() >= 2, spec.name
    assert sum(t.spec.two_regime for t in table.truths) == 2
    assert sum(t.spec.window is None and not t.spec.two_regime for t in table.truths) == 1


def _span(name, start, end, parent, op=0):
    return Span(name, start, end, parent, op)


def test_self_time_subtracts_direct_children_only():
    tree = [
        _span("op", 0.0, 10.0, None),
        _span("fit.scan_windows", 1.0, 4.0, 0),
        _span("fit.fit_hyperbolic", 2.0, 3.0, 1),
        _span("regime.detect_diversion", 5.0, 9.0, 0),
    ]
    assert spans.self_times(tree) == [3.0, 2.0, 1.0, 4.0]


def test_layer_metrics_scale_self_time_by_op_factor_and_zero_missing_layers():
    tree = [
        _span("op", 0.0, 4.0, None, op=0),
        _span("fit.fit_hyperbolic", 1.0, 2.0, 0, op=0),
        _span("op", 4.0, 6.0, None, op=1),
        _span("fit.fit_hyperbolic", 4.5, 5.0, 2, op=1),
    ]
    from hypergrowth import FitWindow, YearValueSeries

    s = YearValueSeries(np.arange(10.0), np.ones(10))
    for sp in tree[1::2]:
        sp.kept = (s, FitWindow(2.0, 5.0))
    tree[3].ok = False
    m = spans.layer_metrics(tree, {0: 2.0, 1: 0.5})
    assert m["fit.fit_hyperbolic.self_s"] == pytest.approx(1.0 * 2.0 + 0.5 * 0.5)
    assert m["fit.fit_hyperbolic.calls"] == 2
    assert m["fit.fit_hyperbolic.points"] == 8
    assert m["fit.fit_hyperbolic.rejected"] == 1
    assert m["ingest.parse_long_csv.calls"] == 0
    assert m["fit.scan_windows.windows_kept_ratio"] == 0.0


def test_input_counts_come_from_the_op_inputs():
    tree = [
        _span("op", 0.0, 9.0, None, op=0),
        _span("cli.main", 0.0, 9.0, 0, op=0),
        _span("ingest.parse_long_csv", 1.0, 2.0, 1, op=0),
        _span("report.run_analysis", 2.0, 8.0, 1, op=0),
        _span("ingest.build_region_series", 3.0, 4.0, 3, op=0),
        _span("ingest.build_region_series", 4.0, 5.0, 3, op=0),
    ]
    tree[3].kept, tree[4].kept = 1, 30  # one region error; 30 years kept
    sizes = {0: {"bytes": 500, "cells": 40, "table_years": 50, "regions": 2}}
    m = spans.layer_metrics(tree, {}, sizes)
    assert (m["ingest.parse_long_csv.bytes"], m["ingest.parse_long_csv.cells"]) == (500, 40)
    assert m["report.run_analysis.regions"] == 2
    assert m["report.run_analysis.region_errors"] == 1
    assert m["ingest.build_region_series.years_kept_ratio"] == 30 / 100


def test_a_counting_failure_never_fails_the_call():
    tracer = spans.Tracer()
    sentinel = object()  # has no len(), so keeping its size raises
    traced = tracer.wrap("ingest.build_region_series", lambda table, region: sentinel)
    assert traced(None, None) is sentinel
    assert tracer.spans[0].ok and tracer.spans[0].kept is None


@pytest.mark.parametrize("n,m", [(2, 3), (3, 3), (7, 3), (12, 4)])
def test_window_and_breakpoint_counts_match_the_scans_loops(n, m):
    windows = sum(1 for i in range(n) for _ in range(i + m - 1, n)) if n >= m else 0
    assert spans._windows_tried(n, m) == windows
    breaks = len(range(m - 1, n - m + 1)) if n >= 2 * m else 0
    assert spans._breakpoints_tried(n, m) == breaks
    years = np.arange(float(n))
    cands = sum(1 for b in years if (years <= b).sum() >= 2 and (years > b).sum() >= 2)
    assert spans._candidate_breaks(n) == cands


def test_tail_is_the_highest_percentile_with_ten_beyond():
    assert clock.tail(list(range(100))) == (89, 90.0, 10)
    assert clock.tail(list(range(1999))) == (1988, pytest.approx(99.5, abs=0.01), 10)
    assert clock.tail(list(range(20_000))) == (10_489.0, 99.0, 10)
    assert clock.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_long_runs_take_the_median_tail_over_blocks():
    values = [1.0] * 4000
    values[500:520] = [50.0] * 20  # one stall-heavy stretch in block 0
    value, pct, beyond = clock.tail(values)
    assert (value, pct, beyond) == (1.0, 99.0, 10)
    assert clock.tail(list(range(100_000))) == (50_489.0, 99.0, 10)


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_named_metric_is_emitted(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["end_to_end"] if trace == 0 else SPEC["per_layer"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if trace == 0:
        assert all(v > 0 for v in metrics.values())
    elif workload != "report-maddison":
        assert metrics["ingest.parse_long_csv.calls"] == 0
        assert metrics["ingest.build_region_series.self_s"] == 0
    if trace == 1 and workload == "montecarlo-small":
        assert metrics["fit.scan_windows.calls"] == 0
        assert metrics["synth.generate.calls"] == 3000


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "montecarlo-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""


COUNTS = ("calls", "cells", "points", "windows_tried", "breakpoints_tried", "candidate_breaks")


def test_traced_counts_repeat_exactly():
    def counts():
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "montecarlo-small", "--seed", "9",
             "--seconds", "1", "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
        metrics = _last_json(proc.stdout)["metrics"]
        return {k: v["value"] for k, v in metrics.items() if k.rsplit(".", 1)[-1] in COUNTS}

    first = counts()
    assert first["fit.fit_hyperbolic.points"] > 0
    assert counts() == first
