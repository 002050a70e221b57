"""End-to-end command-line round trips and exit codes."""

import hashlib
import inspect
import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import hypergrowth
from hypergrowth import (
    RegionConfig,
    RegionDefinition,
    TakeoffHypothesis,
    YearValueSeries,
    build_plot_sheet,
    parse_long_csv,
    parse_region_config,
    plot_sheet_csv,
    segment_two_hyperbolic,
    takeoff_scan,
)
from hypergrowth import cli, fit, report, takeoff
from hypergrowth.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def hyperbolic_csv(tmp_path, capsys):
    path = tmp_path / "series.csv"
    code, _, err = run(
        capsys, "synth", "--kind", "hyperbolic",
        "--param", "a=1.0", "--param", "k=0.001",
        "--years", "0:900:50", "--label", "demo",
        "--out", str(path),
    )
    assert code == 0, err
    return path


@pytest.fixture
def spliced_csv(tmp_path, capsys):
    path = tmp_path / "spliced.csv"
    code, _, err = run(
        capsys, "synth", "--kind", "spliced-two-hyperbolic",
        "--param", "a=0.242", "--param", "k=1e-4",
        "--param", "break_year=1820", "--param", "k_ratio=4.2",
        "--years", "1000:1950:10", "--label", "africa-like",
        "--out", str(path),
    )
    assert code == 0, err
    return path


class TestFit:
    def test_exact_recovery_round_trip(self, hyperbolic_csv, capsys):
        code, out, _ = run(capsys, "fit", "--input", str(hyperbolic_csv))
        assert code == 0
        doc = json.loads(out)
        assert doc["a"] == pytest.approx(1.0, rel=1e-9)
        assert doc["k"] == pytest.approx(0.001, rel=1e-9)
        assert doc["singularity_year"] == 1000

    def test_explicit_window_and_weighting(self, hyperbolic_csv, capsys):
        code, out, _ = run(
            capsys, "fit", "--input", str(hyperbolic_csv),
            "--window", "0:500", "--weighting", "direct",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["window"] == [0.0, 500.0]
        assert doc["weighting"] == "direct"

    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "fit", "--input", str(tmp_path / "nope.csv"))
        assert code == 2
        assert "error" in err

    def test_bad_window_is_usage_error(self, hyperbolic_csv, capsys):
        code, _, _ = run(
            capsys, "fit", "--input", str(hyperbolic_csv), "--window", "12"
        )
        assert code == 2

    # A RegionError is an analysis failure, as for a region member missing
    # from the table.
    def test_unknown_entity_is_analysis_error(self, hyperbolic_csv, capsys):
        code, _, err = run(capsys, "fit", "--input", str(hyperbolic_csv), "--region", "nowhere")
        assert code == 1
        assert err == "error: unknown entity 'nowhere'\n"

    def test_non_hyperbolic_data_is_analysis_error(self, tmp_path, capsys):
        path = tmp_path / "falling.csv"
        path.write_text(
            "entity,year,value\nD,1900,10\nD,1950,5\nD,2000,2.5\nD,2008,2\n"
        )
        code, _, err = run(capsys, "fit", "--input", str(path),
                           "--window", "1900:2008")
        assert code == 1
        assert "error" in err


class TestSegment:
    def test_breakpoint_and_ratio(self, spliced_csv, capsys):
        code, out, _ = run(capsys, "segment", "--input", str(spliced_csv))
        assert code == 0
        doc = json.loads(out)
        assert doc["breakpoint_year"] == 1820.0
        assert doc["k_ratio"] == pytest.approx(4.2, rel=1e-9)
        assert len(doc["segments"]) == 2

    def test_window_cuts_the_series_before_the_split(self, spliced_csv, capsys):
        code, out, _ = run(capsys, "segment", "--input", str(spliced_csv),
                           "--window", "1200:1900")
        assert code == 0
        series = parse_long_csv(spliced_csv.read_bytes()).entity_series("africa-like")
        seg = segment_two_hyperbolic(series.slice_window(1200.0, 1900.0))
        doc = json.loads(out)
        assert (doc["breakpoint_year"], doc["k_ratio"], doc["total_sse_reciprocal"]) == (
            seg.breakpoint_year, seg.k_ratio, seg.total_sse)
        assert [(d["window"], d["kind"], d["fit"]["a"], d["fit"]["k"]) for d in doc["segments"]] == [
            ([s.window.start_year, s.window.end_year], s.kind, s.fit.model.a, s.fit.model.k)
            for s in seg.segments
        ]
        assert doc["segments"][0]["window"][0] == 1200.0
        assert doc["segments"][-1]["window"][1] == 1900.0


class TestDiversion:
    def test_slower_departure_reported(self, tmp_path, capsys):
        path = tmp_path / "slower.csv"
        run(capsys, "synth", "--kind", "hyperbolic-then-slower",
            "--param", "a=1.0", "--param", "k=0.001",
            "--param", "break_year=900", "--param", "slow_factor=0.5",
            "--years", "0:980:10", "--out", str(path))
        code, out, _ = run(
            capsys, "diversion", "--input", str(path), "--window", "0:900"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["finding"]["direction"] == "slower"
        assert doc["finding"]["proximity_years"] is not None

    # The detector has one rule (regime.RUN_LENGTH and regime.TAU), no flags.
    def test_help_lists_no_tuning_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["diversion", "--help"])
        out = capsys.readouterr().out
        assert exc.value.code == 0 and "--window" in out
        assert "--run-length" not in out and "--tau" not in out


class TestTakeoff:
    def test_positive_verdict(self, tmp_path, capsys):
        path = tmp_path / "takeoff.csv"
        run(capsys, "synth", "--kind", "stagnation-then-takeoff",
            "--param", "level=1.0", "--param", "break_year=1750",
            "--param", "rate=0.02", "--years", "1000:2000:25",
            "--out", str(path))
        code, out, _ = run(
            capsys, "takeoff", "--input", str(path), "--predicted-year", "1750"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "positive"
        assert doc["break_year"] == 1750.0

    def test_negative_verdict_still_exit_zero(self, hyperbolic_csv, capsys):
        code, out, _ = run(
            capsys, "takeoff", "--input", str(hyperbolic_csv),
            "--predicted-year", "450", "--halfwidth", "100",
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "negative"

    @pytest.mark.parametrize("year, halfwidth, message", [
        ("2000", "50", "series needs observations on both sides of the predicted year"),
        ("-300", "500", "series needs observations on both sides of the predicted year"),
        ("425", "10", "search window contains fewer than 2 observed points"),
    ])
    def test_infeasible_year_exits_1_with_reason(self, hyperbolic_csv, capsys, year,
                                                 halfwidth, message):
        code, out, err = run(
            capsys, "takeoff", "--input", str(hyperbolic_csv),
            "--predicted-year", year, "--halfwidth", halfwidth,
        )
        assert (code, out, err) == (1, "", f"error: {message}\n")


class TestReport:
    def test_markdown_report(self, spliced_csv, tmp_path, capsys):
        cfg = tmp_path / "regions.ini"
        cfg.write_text("[africa-like]\nmembers = africa-like\ntwo_regime = true\n")
        code, out, _ = run(
            capsys, "report", "--input", str(spliced_csv),
            "--regions-config", str(cfg), "--emit", "markdown",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("| Region |")
        assert sum("africa-like" in line for line in lines) == 2

    def test_failed_region_sets_exit_one(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("entity,year,value\nA,1900,1\nA,1950,2\n")
        cfg = tmp_path / "regions.ini"
        cfg.write_text("[A]\nmembers = A\n")
        code, out, err = run(
            capsys, "report", "--input", str(data), "--regions-config", str(cfg)
        )
        assert code == 1
        assert "A" in err

    # A two-regime region whose series falls has no hyperbolic side.
    def test_region_without_a_hyperbolic_regime_sets_exit_one(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("entity,year,value\n" + "".join(
            f"R,{t},{100 * math.exp(-0.01 * (t - 1000))!r}\n" for t in range(1000, 1100, 5)))
        cfg = tmp_path / "regions.ini"
        cfg.write_text("[R]\nmembers = R\ntwo_regime = true\n")
        code, out, err = run(
            capsys, "report", "--input", str(data), "--regions-config", str(cfg)
        )
        assert (code, err) == (1, "error: R: no hyperbolic regime found for 'R'\n")
        assert out == report.render_report([], "markdown").decode()

    def test_malformed_config_number_is_usage_error(self, spliced_csv, tmp_path, capsys):
        cfg = tmp_path / "regions.ini"
        cfg.write_text("[africa-like]\nmembers = africa-like\ntakeoff_year = soon\n")
        code, _, err = run(
            capsys, "report", "--input", str(spliced_csv), "--regions-config", str(cfg)
        )
        assert code == 2
        assert "[africa-like]: takeoff_year" in err

    # A BOM-prefixed config said "File contains no section headers", and a
    # BOM-prefixed long CSV failed on its header.
    @pytest.mark.parametrize("bom_input, bom_config", [(True, False), (False, True), (True, True)])
    def test_utf8_bom_accepted(self, spliced_csv, tmp_path, capsys, bom_input, bom_config):
        cfg = tmp_path / "regions.ini"
        cfg.write_text("[africa-like]\nmembers = africa-like\ntakeoff_year = 1800\n")
        plain = run(capsys, "report", "--input", str(spliced_csv), "--regions-config", str(cfg))
        for path, bom in ((spliced_csv, bom_input), (cfg, bom_config)):
            if bom:
                path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert run(capsys, "report", "--input", str(spliced_csv), "--regions-config", str(cfg)) == plain
        assert plain[0] == 0

    # The position was counted from after the BOM, 3 bytes early.
    def test_config_invalid_utf8_after_bom_names_file_offset(self, spliced_csv, tmp_path, capsys):
        cfg = tmp_path / "regions.ini"
        argv = ("report", "--input", str(spliced_csv), "--regions-config", str(cfg))
        cfg.write_bytes(b"[africa-like]\nmembers = \xff\n")
        code, _, plain = run(capsys, *argv)
        assert code == 2 and "in position 24:" in plain
        cfg.write_bytes(b"\xef\xbb\xbf[africa-like]\nmembers = \xff\n")
        assert run(capsys, *argv) == (2, "", plain.replace("position 24", "position 27"))

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"])
    def test_config_line_endings(self, spliced_csv, tmp_path, capsys, newline, bom):
        cfg = tmp_path / "regions.ini"
        text = "[africa-like]\nmembers = africa-like\ntakeoff_year = 1800\n"
        cfg.write_text(text)
        argv = ("report", "--input", str(spliced_csv), "--regions-config", str(cfg))
        plain = run(capsys, *argv)
        cfg.write_bytes(bom + text.replace("\n", newline).encode())
        assert run(capsys, *argv) == plain
        assert plain[0] == 0

    # These three escaped as a configparser ValueError (a traceback) or exited
    # 1 through RegionDefinition's RegionError.
    @pytest.mark.parametrize("text, message", [
        ("[R]\nmembers = A\nrequire_complete = maybe\n",
         "error: section [R]: require_complete 'maybe' is not a boolean"),
        ("[R]\nmembers = A\ntwo_regime = maybe\n",
         "error: section [R]: two_regime 'maybe' is not a boolean"),
        ("[R]\nmembers = ,\n", "error: region 'R' has no members"),
    ], ids=["require-complete-not-boolean", "two-regime-not-boolean", "no-members"])
    def test_config_fault_is_usage_error(self, spliced_csv, tmp_path, capsys, text, message):
        cfg = tmp_path / "regions.ini"
        cfg.write_text(text)
        code, out, err = run(
            capsys, "report", "--input", str(spliced_csv), "--regions-config", str(cfg)
        )
        assert (code, out, err) == (2, "", message + "\n")

    def test_missing_config_is_usage_error(self, spliced_csv, capsys):
        code, _, _ = run(capsys, "report", "--input", str(spliced_csv))
        assert code == 2


class TestPlot:
    def test_svg_output(self, hyperbolic_csv, tmp_path, capsys):
        out_path = tmp_path / "plot.svg"
        code, _, _ = run(
            capsys, "plot", "--input", str(hyperbolic_csv),
            "--mode", "semilog", "--out", str(out_path),
        )
        assert code == 0
        root = ET.fromstring(out_path.read_text())
        assert root.tag.endswith("svg")

    def test_csv_output_two_regime(self, spliced_csv, capsys):
        code, out, _ = run(
            capsys, "plot", "--input", str(spliced_csv),
            "--two-regime", "--emit", "csv",
        )
        assert code == 0
        assert out.splitlines()[0] == "year,observed,fitted,residual_reciprocal"

    def test_two_regime_split_runs_inside_window(self, spliced_csv, capsys):
        series = parse_long_csv(spliced_csv.read_bytes()).entity_series("africa-like")
        seg = segment_two_hyperbolic(series.slice_window(1000.0, 1700.0))
        fits = [s.fit for s in seg.hyperbolic_segments()]
        code, out, _ = run(
            capsys, "plot", "--input", str(spliced_csv),
            "--two-regime", "--window", "1000:1700", "--emit", "csv",
        )
        assert code == 0
        assert out.encode() == plot_sheet_csv(build_plot_sheet(series, fits))
        _, whole, _ = run(
            capsys, "plot", "--input", str(spliced_csv), "--two-regime", "--emit", "csv",
        )
        assert whole != out

    def test_breakpoint_marked_when_one_side_is_unmodeled(self, tmp_path, capsys):
        # Falling values before 1500 (not hyperbolic), a hyperbola after.
        rows = ["entity,year,value"] + [
            f"x,{y},{10 - 0.005 * (y - 1000) if y < 1500 else 1 / (0.2 - 1e-4 * (y - 1000))!r}"
            for y in range(1000, 1960, 20)
        ]
        data = tmp_path / "d.csv"
        data.write_text("\n".join(rows) + "\n")
        code, out, _ = run(capsys, "plot", "--input", str(data), "--two-regime")
        assert code == 0
        assert ">breakpoint</text>" in out


    def test_svg_escapes_region_name(self, hyperbolic_csv, tmp_path, capsys):
        name = "Asia & <Pacific>"
        cfg = tmp_path / "regions.ini"
        cfg.write_text(f"[{name}]\nmembers = demo\n")
        code, out, _ = run(capsys, "plot", "--input", str(hyperbolic_csv),
                           "--regions-config", str(cfg), "--region", name)
        assert code == 0
        title = ET.fromstring(out).find("{http://www.w3.org/2000/svg}text")
        assert title.text == f"{name} (reciprocal-linear)"


class TestUnitScale:
    """--unit-scale wins, then the config's [global] unit_scale, then 1."""

    @pytest.fixture
    def scaled_config(self, tmp_path):
        cfg = tmp_path / "regions.ini"
        cfg.write_text("[global]\nunit_scale = 0.001\n\n[W]\nmembers = demo\n")
        return cfg

    # The series has a = 1; scaling its values by c divides a by c.
    @pytest.mark.parametrize("flags, a", [((), 1000.0), (("--unit-scale", "1"), 1.0),
                                          (("--unit-scale", "2"), 0.5)])
    def test_report(self, hyperbolic_csv, scaled_config, capsys, flags, a):
        code, out, err = run(
            capsys, "report", "--input", str(hyperbolic_csv),
            "--regions-config", str(scaled_config), "--emit", "json", *flags,
        )
        assert code == 0, err
        assert json.loads(out)["rows"][0]["a"] == pytest.approx(a, rel=1e-9)

    @pytest.mark.parametrize("flags, a", [((), 1000.0), (("--unit-scale", "1"), 1.0)])
    def test_fit_with_regions_config(self, hyperbolic_csv, scaled_config, capsys, flags, a):
        code, out, err = run(
            capsys, "fit", "--input", str(hyperbolic_csv),
            "--regions-config", str(scaled_config), "--region", "W", *flags,
        )
        assert code == 0, err
        assert json.loads(out)["a"] == pytest.approx(a, rel=1e-9)


class TestSynth:
    def test_determinism(self, tmp_path, capsys):
        argv = ["synth", "--kind", "hyperbolic", "--param", "a=1", "--param",
                "k=0.0004", "--maddison-grid", "--noise", "0.01", "--seed", "5"]
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2

    # The label was written as it was, and read back stripped.
    def test_label_with_surrounding_whitespace_is_usage_error(self, capsys):
        code, out, err = run(capsys, "synth", "--kind", "hyperbolic", "--param", "a=1",
                             "--param", "k=0.001", "--years", "0:900:50", "--label", " W")
        assert code == 2 and out == ""
        assert err == "error: entity name ' W' has surrounding whitespace, which the long CSV does not keep\n"

    def test_bad_param_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "synth", "--kind", "hyperbolic",
                         "--param", "a", "--years", "0:100:10")
        assert code == 2

    def test_unread_param_is_usage_error(self, capsys):
        code, _, err = run(capsys, "synth", "--kind", "hyperbolic", "--param", "a=1",
                           "--param", "k=1e-3", "--param", "break_year=1900",
                           "--years", "0:100:10")
        assert code == 2
        assert len(err.splitlines()) == 1 and "break_year" in err

    # A STEP <= 0 or an END of inf would never end the sampling loop, so
    # these cases must stop at the validation in front of it.
    @pytest.mark.parametrize("years", ["0:100:0", "0:100:-10", "0:100:nan",
                                       "0:100:inf", "0:inf:10", "nan:100:10"])
    def test_bad_years_range_is_usage_error(self, years, capsys):
        code, _, err = run(capsys, "synth", "--kind", "hyperbolic",
                           "--param", "a=1", "--param", "k=0.001",
                           "--years", years)
        assert code == 2
        assert "--years" in err

    # Summing STEP once per year drifted: 0:1:0.1 wrote 0.30000000000000004
    # and ended at 0.9999999999999999.
    @pytest.mark.parametrize("years, expected", [
        ("0:1:0.1", [round(i * 0.1, 1) for i in range(11)]),
        ("1900:1901:0.05", [round(1900 + i * 0.05, 2) for i in range(21)]),
        ("1000:1010:5", [1000.0, 1005.0, 1010.0]),
        ("1000:1011:5", [1000.0, 1005.0, 1010.0]),
    ])
    def test_years_are_start_plus_multiples_of_step(self, capsys, years, expected):
        code, out, err = run(capsys, "synth", "--kind", "constant", "--param", "level=1",
                             "--years", years)
        assert code == 0, err
        table = parse_long_csv(out.encode())
        assert sorted(table.rows["constant"]) == expected

    # 10**10 years once built 10**10 Decimals and ended in a MemoryError; the
    # count is now checked before any year is built.
    def test_years_over_the_bound_rejected(self, capsys):
        code, out, err = run(capsys, "synth", "--kind", "hyperbolic", "--param", "a=1",
                             "--param", "k=1e-12", "--years", "0:1e7:1e-3")
        assert (code, out) == (2, "")
        assert err == ("error: --years '0:1e7:1e-3' gives 10000000001 sample years, "
                       "more than 100000\n")

    def test_years_at_the_bound_still_work(self, capsys):
        assert cli.MAX_SYNTH_YEARS == 100_000
        code, out, err = run(capsys, "synth", "--kind", "constant", "--param", "level=1",
                             "--years", "0:99999")
        assert code == 0, err
        assert out.count("\n") == 1 + 100_000 and out.endswith("\nconstant,99999,1.0\n")
        code, _, err = run(capsys, "synth", "--kind", "constant", "--param", "level=1",
                           "--years", "0:100000")
        assert (code, err) == (2, "error: --years '0:100000' gives 100001 sample years, "
                                  "more than 100000\n")

    def test_infeasible_generator_is_usage_error(self, capsys):
        # Sampling past the singularity at year 1000.
        code, _, _ = run(capsys, "synth", "--kind", "hyperbolic",
                         "--param", "a=1", "--param", "k=0.001",
                         "--years", "0:1100:100")
        assert code == 2


class TestVerify:
    def test_small_trial_run_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--trials", "20")
        assert code == 0
        lines = out.strip().splitlines()
        assert all(line.startswith("PASS") for line in lines[:-1])
        assert lines[-1] == "10/10 checks passed"
        # Every byte of the battery's report, so a refactor of the checks
        # shows any change in a seed, a trial or a detail text.
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "10b1b9babe4111e48ab2269b53ce6370f4ca57be4b2eafa25bd98951b9e918af")

    # A check that raises a library error fails, naming it, and the battery
    # still prints: here a best_fit that never shortens the window.
    def test_check_raising_a_library_error_fails_and_the_battery_prints(self, monkeypatch,
                                                                        capsys):
        from hypergrowth import acceptance

        def whole_span(series, window, weighting):
            span = fit.FitWindow(float(series.years[0]), float(series.years[-1]))
            return acceptance.fit_hyperbolic(series, span, weighting)
        monkeypatch.setattr(acceptance, "best_fit", whole_span)
        code, out, err = run(capsys, "verify", "--trials", "5")
        *checks, summary = out.splitlines()
        assert len(checks) == 10 and err == ""
        assert [line[:4] for line in checks] == ["PASS"] * 9 + ["FAIL"]
        assert checks[9] == (
            "FAIL  check_automatic_window: SingularityInWindowError: fitted singularity "
            "1976.05 lies inside the window ending 2008.0")
        assert summary == "9/10 checks passed"
        assert code == 1

    # World GDP in millions, the Maddison unit that --unit-scale's 1e-3 default
    # converts: the reference world curve, slower after 1955, plus an AD 1
    # observation 77% (passes) or 1% (fails) above the curve, or none (fails).
    @pytest.mark.parametrize("ad1, passed", [(105_000.0, True), (60_000.0, False),
                                             (None, False)])
    def test_world_reproduction_from_table(self, tmp_path, capsys, ad1, passed):
        path = tmp_path / "world.csv"
        code, _, err = run(
            capsys, "synth", "--kind", "hyperbolic-then-slower",
            "--param", "a=1.684e-5", "--param", "k=8.539e-9",
            "--param", "break_year=1955", "--param", "slow_factor=0.4",
            "--years", "1000:2008:2", "--label", "World", "--out", str(path),
        )
        assert code == 0, err
        if ad1 is not None:
            with path.open("a") as fh:
                fh.write(f"World,1,{ad1!r}\n")
        code, out, _ = run(capsys, "verify", "--trials", "20", "--maddison", str(path),
                           "--format", "long")
        *_, check, summary = out.strip().splitlines()
        assert check.startswith(("PASS" if passed else "FAIL") + "  world-series reproduction")
        assert passed or "AD 1" in check
        assert summary == ("11/11" if passed else "10/11") + " checks passed"
        assert code == (0 if passed else 1)


    # A World series that ends inside the 1000-1955 fit window has no
    # diversion to detect; the check fails, and the battery still prints.
    def test_world_series_ending_in_fit_window_fails_the_check(self, tmp_path, capsys):
        path = tmp_path / "world.csv"
        code, _, err = run(
            capsys, "synth", "--kind", "hyperbolic",
            "--param", "a=1.684e-5", "--param", "k=8.539e-9",
            "--years", "1000:1955:5", "--label", "World", "--out", str(path),
        )
        assert code == 0, err
        code, out, err = run(capsys, "verify", "--trials", "5", "--maddison", str(path),
                             "--format", "long")
        *checks, summary = out.splitlines()
        assert len(checks) == 11 and err == ""
        assert checks[-1].startswith("FAIL  world-series reproduction")
        assert "diversion None" in checks[-1]
        assert summary == "10/11 checks passed"
        assert code == 1

    # A table with no World entity cannot be studied at all; the check
    # fails naming the error, and the battery still prints.
    def test_table_without_world_fails_the_check(self, tmp_path, capsys):
        path = tmp_path / "europe.csv"
        code, _, err = run(
            capsys, "synth", "--kind", "hyperbolic",
            "--param", "a=1.684e-5", "--param", "k=8.539e-9",
            "--years", "1000:1960:5", "--label", "Europe", "--out", str(path),
        )
        assert code == 0, err
        code, out, err = run(capsys, "verify", "--trials", "5", "--maddison", str(path),
                             "--format", "long")
        *checks, summary = out.splitlines()
        assert len(checks) == 11 and err == ""
        assert checks[-1] == ("FAIL  world-series reproduction (data-dependent): World series "
                              "not studied: RegionError: region 'World': member 'World' not "
                              "in table")
        assert summary == "10/11 checks passed"
        assert code == 1

    # A faster departure after 1955 is named by its direction and year.
    def test_wrong_direction_names_direction_and_year(self, tmp_path, capsys):
        path = tmp_path / "world.csv"
        code, _, err = run(
            capsys, "synth", "--kind", "spliced-two-hyperbolic",
            "--param", "a=1.684e-5", "--param", "k=8.539e-9",
            "--param", "break_year=1955", "--param", "k_ratio=1.5",
            "--years", "1000:1964:2", "--label", "World", "--out", str(path),
        )
        assert code == 0, err
        code, out, _ = run(capsys, "verify", "--trials", "5", "--maddison", str(path),
                           "--format", "long")
        *_, check, summary = out.splitlines()
        assert check == ("FAIL  world-series reproduction (data-dependent): diversion faster "
                         "at 1956.0 not a slower departure in [1950, 1960]; no AD 1 "
                         "observation in the World series")
        assert summary == "10/11 checks passed"
        assert code == 1


def python(*argv) -> subprocess.CompletedProcess:
    """``python *argv`` in a new process that imports this package."""
    src = str(Path(hypergrowth.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True)


def test_cli_import_leaves_acceptance_unloaded():
    # Only ``verify`` runs the acceptance battery, so no other verb loads it.
    probe = "import sys, hypergrowth.cli; print('hypergrowth.acceptance' in sys.modules)"
    assert python("-c", probe).stdout == "False\n"


# ``python -m hypergrowth.cli`` exits with main's code.
def test_module_entry_point_exits_with_mains_code():
    done = python("-m", "hypergrowth.cli", "verify", "--trials", "0")
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "error: trials must be >= 1, got 0\n"


def test_defaults_read_one_owner():
    # Identity, not equality, for the floats: a second literal 50.0 written
    # elsewhere would be another float object.
    parser = cli.build_parser()
    halfwidth = takeoff.SEARCH_HALFWIDTH
    args = parser.parse_args(["takeoff", "--input", "x", "--predicted-year", "1750"])
    assert args.halfwidth is halfwidth
    assert RegionConfig(RegionDefinition("R", ("A",))).takeoff_halfwidth is halfwidth
    assert parse_region_config("[R]\nmembers = A\n").regions[0].takeoff_halfwidth is halfwidth
    assert TakeoffHypothesis(1750.0).search_halfwidth is halfwidth
    series = YearValueSeries(np.array([1700.0, 1800.0]), np.array([1.0, 2.0]))
    assert takeoff_scan(series, [1750.0])[0].hypothesis.search_halfwidth is halfwidth

    weighting = fit.DEFAULT_WEIGHTING
    for argv in (["fit", "--input", "x"], ["report", "--input", "x", "--regions-config", "y"]):
        assert parser.parse_args(argv).weighting == weighting
    for function in (fit.fit_hyperbolic, fit.scan_windows, segment_two_hyperbolic,
                     report.run_analysis):
        assert inspect.signature(function).parameters["weighting"].default == weighting


class TestParserBuiltOnce:
    def test_successive_calls_match_fresh_parsers(self, spliced_csv, tmp_path, capsys,
                                                   monkeypatch):
        cfg = tmp_path / "regions.ini"
        cfg.write_text("[africa-like]\nmembers = africa-like\ntwo_regime = true\n")
        argvs = [
            ("report", "--input", str(spliced_csv), "--regions-config", str(cfg),
             "--emit", "json"),
            ("fit", "--input", str(spliced_csv), "--window", "1000:1820"),
            ("verify", "--trials", "1"),
        ]
        builds = []
        build_parser = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build_parser())
        cli._parser.cache_clear()
        cached = [run(capsys, *argv) for argv in argvs + argvs[:2]]
        assert len(builds) == 1
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        fresh = [run(capsys, *argv) for argv in argvs]
        assert len(builds) == 4
        assert cached == fresh + fresh[:2]
        assert [code for code, _, _ in fresh] == [0, 0, 0]


class TestMalformedInput:
    """Bad arguments and unreadable files: exit 2 and one error line, no traceback."""

    # A message, where given, is the whole error line; paths are formatted in.
    @pytest.mark.parametrize("argv, message", [
        (("verify", "--trials", "0"), "trials must be >= 1, got 0"),
        (("verify", "--trials", "-3"), None),
        (("synth", "--kind", "hyperbolic", "--param", "a=1", "--param", "k=0.001",
          "--years", "0:900:50", "--noise", "0.01", "--seed", "-1"), None),
        (("fit", "--input", "{dir}"), None),
        (("verify", "--maddison", "{dir}"), None),
        (("fit", "--input", "{latin1}"), None),
        (("verify", "--maddison", "{latin1}", "--format", "long"), None),
        (("fit", "--input", "{csv}", "--regions-config", "{latin1}", "--region", "demo"), None),
        (("fit", "--input", "{csv}", "--window=-inf:600"), None),
        (("fit", "--input", "{csv}", "--window", "0:inf"), None),
        (("takeoff", "--input", "{csv}", "--predicted-year", "500", "--halfwidth", "-5"),
         "search_halfwidth must be finite and > 0, got -5.0"),
        (("takeoff", "--input", "{csv}", "--predicted-year", "500", "--halfwidth", "nan"), None),
        (("takeoff", "--input", "{csv}", "--predicted-year", "500", "--halfwidth", "inf"), None),
        (("takeoff", "--input", "{csv}", "--predicted-year", "nan"),
         "predicted_year must be finite, got nan"),
        (("fit", "--input", "{overflow}", "--unit-scale", "10"), None),
        (("fit", "--input", "{overflow_wide}", "--format", "wide", "--unit-scale", "10"), None),
        (("report", "--input", "{big_field}", "--regions-config", "{config}"), None),
        (("fit", "--input", "{big_field_wide}", "--format", "wide"), None),
        (("fit", "--input", "{one_column}", "--format", "wide"), None),
        (("report", "--input", "{csv}", "--regions-config", "{dup_config}"), None),
        (("synth", "--kind", "hyperbolic", "--param", "a=1", "--param", "k=0.001",
          "--years", "0:900:50", "--label", " W"), None),
        (("fit", "--input", "{csv}", "--regions-config", "{config}"),
         "--region is required with --regions-config"),
        (("fit", "--input", "{csv}", "--regions-config", "{config}", "--region", "X"),
         "region 'X' not in {config}"),
        (("fit", "--input", "{two_entities}"),
         "input holds 2 entities; select one with --region"),
        (("synth", "--kind", "constant", "--param", "level", "--years", "0:9"),
         "--param expects key=value, got 'level'"),
        (("synth", "--kind", "constant", "--param", "level=high", "--years", "0:9"),
         "--param level: 'high' is not a number"),
        (("synth", "--kind", "constant", "--param", "level=1", "--years", "0:9:1:1"),
         "--years must be START:END[:STEP], got '0:9:1:1'"),
        (("synth", "--kind", "constant", "--param", "level=1", "--years", "0:nine"),
         "bad --years '0:nine'"),
        (("synth", "--kind", "constant", "--param", "level=1", "--years", "0:9:0"),
         "--years needs finite START, END and STEP > 0, got '0:9:0'"),
        (("synth", "--kind", "constant", "--param", "level=1", "--years=0:9:-1"),
         "--years needs finite START, END and STEP > 0, got '0:9:-1'"),
        (("synth", "--kind", "constant", "--param", "level=1"),
         "synth requires --years or --maddison-grid"),
        (("synth", "--kind", "hyperbolic", "--param", "a=1", "--param", "k=0.001",
          "--years", "0:1000:100"), "sample years reach the singularity at 1000"),
    ], ids=["trials-0", "trials-negative",
            "seed-negative", "input-dir", "maddison-dir", "input-not-utf8",
            "maddison-not-utf8", "config-not-utf8", "window-start-inf", "window-end-inf",
            "halfwidth-negative", "halfwidth-nan", "halfwidth-inf", "predicted-year-nan",
            "value-overflows-after-scale", "wide-value-overflows-after-scale",
            "field-over-csv-limit", "wide-field-over-csv-limit", "wide-one-column",
            "config-duplicate-region", "synth-label-padded", "config-without-region",
            "region-not-in-config", "entity-not-selected", "param-without-equals",
            "param-not-a-number", "years-four-parts", "years-not-a-number", "years-step-zero",
            "years-step-negative", "synth-without-years", "synth-years-reach-singularity"])
    def test_usage_error(self, hyperbolic_csv, tmp_path, capsys, argv, message):
        latin1 = tmp_path / "latin1.txt"
        latin1.write_bytes("entity,year,value\nM\u00fcnchen,1900,1\n".encode("latin-1"))
        overflow = tmp_path / "overflow.csv"
        overflow.write_text("entity,year,value\nW,1800,1e307\nW,1900,1e308\nW,2000,1e308\n")
        overflow_wide = tmp_path / "overflow-wide.csv"
        overflow_wide.write_text("entity,1800,1900,2000\nW,1e307,1e308,1e308\n")
        # A field longer than the csv module's limit of 131,072 characters.
        big_field = tmp_path / "big.csv"
        big_field.write_text("entity,year,value\nW,1800,1\nW,1900," + "9" * 200_000 + "\n")
        big_field_wide = tmp_path / "big-wide.csv"
        big_field_wide.write_text("entity,1800,1900\nW,1," + "9" * 200_000 + "\n")
        config = tmp_path / "regions.ini"
        config.write_text("[W]\nmembers = W\n")
        one_column = tmp_path / "one-column.csv"
        one_column.write_text("entity\nW\n")
        dup_config = tmp_path / "dup.ini"
        dup_config.write_text("[W]\nmembers = W\n[W]\nmembers = W\n")
        two_entities = tmp_path / "two.csv"
        two_entities.write_text("entity,year,value\nA,1900,1\nA,1950,2\nB,1900,1\nB,1950,2\n")
        paths = {"csv": hyperbolic_csv, "dir": tmp_path, "latin1": latin1,
                 "overflow": overflow, "overflow_wide": overflow_wide,
                 "big_field": big_field, "big_field_wide": big_field_wide, "config": config,
                 "one_column": one_column, "dup_config": dup_config,
                 "two_entities": two_entities}
        code, _, err = run(capsys, *(a.format(**paths) for a in argv))
        assert code == 2
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        if message is not None:
            assert err == f"error: {message.format(**paths)}\n"
