"""End-to-end command-line round trips and exit codes."""

import json
import xml.etree.ElementTree as ET

import pytest

from hypergrowth import build_plot_sheet, parse_long_csv, plot_sheet_csv, segment_two_hyperbolic
from hypergrowth import cli
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
        assert lines[-1] == "11/11 checks passed"

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
        assert summary == ("12/12" if passed else "11/12") + " checks passed"
        assert code == (0 if passed else 1)


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

    @pytest.mark.parametrize("argv", [
        ("diversion", "--input", "{csv}", "--run-length", "0"),
        ("diversion", "--input", "{csv}", "--tau", "-1"),
        ("diversion", "--input", "{csv}", "--tau", "nan"),
        ("verify", "--trials", "0"),
        ("verify", "--trials", "-3"),
        ("synth", "--kind", "hyperbolic", "--param", "a=1", "--param", "k=0.001",
         "--years", "0:900:50", "--noise", "0.01", "--seed", "-1"),
        ("fit", "--input", "{dir}"),
        ("verify", "--maddison", "{dir}"),
        ("fit", "--input", "{latin1}"),
        ("verify", "--maddison", "{latin1}", "--format", "long"),
        ("fit", "--input", "{csv}", "--regions-config", "{latin1}", "--region", "demo"),
        ("fit", "--input", "{csv}", "--window=-inf:600"),
        ("fit", "--input", "{csv}", "--window", "0:inf"),
        ("takeoff", "--input", "{csv}", "--predicted-year", "500", "--halfwidth", "-5"),
        ("takeoff", "--input", "{csv}", "--predicted-year", "500", "--halfwidth", "nan"),
        ("takeoff", "--input", "{csv}", "--predicted-year", "500", "--halfwidth", "inf"),
        ("takeoff", "--input", "{csv}", "--predicted-year", "nan"),
        ("fit", "--input", "{overflow}", "--unit-scale", "10"),
        ("fit", "--input", "{overflow_wide}", "--format", "wide", "--unit-scale", "10"),
        ("report", "--input", "{big_field}", "--regions-config", "{config}"),
        ("fit", "--input", "{big_field_wide}", "--format", "wide"),
    ], ids=["run-length-0", "tau-negative", "tau-nan", "trials-0", "trials-negative",
            "seed-negative", "input-dir", "maddison-dir", "input-not-utf8",
            "maddison-not-utf8", "config-not-utf8", "window-start-inf", "window-end-inf",
            "halfwidth-negative", "halfwidth-nan", "halfwidth-inf", "predicted-year-nan",
            "value-overflows-after-scale", "wide-value-overflows-after-scale",
            "field-over-csv-limit", "wide-field-over-csv-limit"])
    def test_usage_error(self, hyperbolic_csv, tmp_path, capsys, argv):
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
        paths = {"csv": hyperbolic_csv, "dir": tmp_path, "latin1": latin1,
                 "overflow": overflow, "overflow_wide": overflow_wide,
                 "big_field": big_field, "big_field_wide": big_field_wide, "config": config}
        code, _, err = run(capsys, *(a.format(**paths) for a in argv))
        assert code == 2
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
