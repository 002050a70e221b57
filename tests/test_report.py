"""Analysis pipeline and report rendering."""

import csv
import dataclasses
import io
import json
import math
import re

import numpy as np
import pytest

from hypergrowth import (
    AnalysisConfigFile,
    AnalysisReportRow,
    ArgumentError,
    FitError,
    FitWindow,
    HypergrowthError,
    GeneratorSpec,
    ParseError,
    RegionConfig,
    RegionDefinition,
    RegionErrorEntry,
    TakeoffHypothesis,
    build_region_series,
    format_sci,
    generate,
    parse_long_csv,
    parse_report_json,
    render_report,
    run_analysis,
    series_to_long_csv,
)
from hypergrowth.acceptance import REFERENCE_ROWS
from hypergrowth.report import _json_bytes, _study


def synthetic_table():
    years = tuple(float(y) for y in [1000, 1500, 1600, 1700, 1820, 1870, 1900, 1913]
                  + list(range(1950, 2009)))
    agg = generate(
        GeneratorSpec(
            "hyperbolic-then-slower",
            {"a": 1.684e-2, "k": 8.539e-6, "break_year": 1955.0, "slow_factor": 0.4},
            years, noise=0.002, seed=1, label="world-like",
        )
    )
    two_regime = generate(
        GeneratorSpec(
            "spliced-two-hyperbolic",
            {"a": 0.242, "k": 1e-4, "break_year": 1820.0, "k_ratio": 4.2},
            tuple(float(y) for y in range(1000, 1951, 10)),
            noise=0.002, seed=2, label="africa-like",
        )
    )
    tiny = generate(GeneratorSpec("constant", {"level": 1.0}, (1900.0, 1950.0)))
    rows = ["entity,year,value"]
    for name, s in (("world-like", agg), ("africa-like", two_regime), ("tiny", tiny)):
        for y, v in s.points():
            rows.append(f"{name},{y:g},{v!r}")
    return parse_long_csv(("\n".join(rows) + "\n").encode())


def config():
    return AnalysisConfigFile(
        unit_scale=1.0,
        regions=(
            RegionConfig(
                RegionDefinition("world-like", ("world-like",)),
                window=FitWindow(1000.0, 1955.0),
                takeoff=TakeoffHypothesis(1750.0, 70.0),
            ),
            RegionConfig(
                RegionDefinition("africa-like", ("africa-like",)),
                two_regime=True,
            ),
            RegionConfig(RegionDefinition("tiny", ("tiny",))),
        ),
    )


class TestRunAnalysis:
    # A bad weighting is the caller's, not each region's: it stops the run
    # instead of becoming one error entry per region.
    def test_unknown_weighting_raises_instead_of_an_entry_per_region(self):
        assert not issubclass(ArgumentError, HypergrowthError)
        with pytest.raises(ArgumentError, match="^weighting must be one of "):
            run_analysis(synthetic_table(), config(), weighting="relative")

    def test_rows_and_errors(self):
        rows, errors = run_analysis(synthetic_table(), config())
        # world-like: 1 row; africa-like: 2 regime rows; tiny: error.
        assert len(rows) == 3
        assert [e.region for e in errors] == ["tiny"]

        world = rows[0]
        assert world.singularity == 1972
        assert world.proximity is not None and 14 <= world.proximity <= 20
        assert world.takeoff == "X"

        first, second = rows[1], rows[2]
        assert first.region == second.region == "africa-like"
        assert first.proximity is None and first.takeoff == ""
        assert second.k / first.k == pytest.approx(4.2, abs=0.1)

    def test_single_synthetic_region_no_takeoff(self):
        years = tuple(float(y) for y in range(0, 901, 50))
        s = generate(GeneratorSpec("hyperbolic", {"a": 1.0, "k": 0.001}, years,
                                   label="R"))
        table = parse_long_csv(series_to_long_csv(s))
        cfg = AnalysisConfigFile(
            unit_scale=1.0,
            regions=(
                RegionConfig(RegionDefinition("R", ("R",)),
                             window=FitWindow(0.0, 900.0),
                             takeoff=TakeoffHypothesis(450.0, 100.0)),
            ),
        )
        rows, errors = run_analysis(table, cfg)
        assert not errors
        assert len(rows) == 1
        assert rows[0].takeoff == "X"

    @pytest.mark.parametrize("takeoff_year, halfwidth", [
        (-100.0, 50.0),  # no observation before the predicted year
        (1000.0, 50.0),  # none after it
        (425.0, 10.0),  # fewer than 2 points in the search window
    ])
    def test_infeasible_takeoff_leaves_the_cell_blank(self, takeoff_year, halfwidth):
        years = tuple(float(y) for y in range(0, 901, 50))
        s = generate(GeneratorSpec("hyperbolic", {"a": 1.0, "k": 0.001}, years, label="R"))
        table = parse_long_csv(series_to_long_csv(s))
        region = RegionConfig(RegionDefinition("R", ("R",)), window=FitWindow(0.0, 900.0))
        untested, _ = run_analysis(table, AnalysisConfigFile(1.0, (region,)))
        region = dataclasses.replace(region, takeoff=TakeoffHypothesis(takeoff_year, halfwidth))
        rows, errors = run_analysis(table, AnalysisConfigFile(1.0, (region,)))
        assert errors == []
        assert rows == untested
        assert rows[0].takeoff == "" and rows[0].singularity == 1000

    # A falling series: no side of any split fits a hyperbola.
    def test_two_regime_region_without_a_hyperbolic_side_is_an_error_entry(self):
        rows = "".join(f"R,{t},{100 * math.exp(-0.01 * (t - 1000))!r}\n"
                       for t in range(1000, 1100, 5))
        table = parse_long_csv(("entity,year,value\n" + rows).encode())
        region = RegionConfig(RegionDefinition("R", ("R",)), two_regime=True)
        with pytest.raises(FitError) as info:
            _study(build_region_series(table, region.definition), None, True, "uniform")
        assert type(info.value) is FitError
        assert str(info.value) == "no hyperbolic regime found for 'R'"
        assert run_analysis(table, AnalysisConfigFile(1.0, (region,))) == (
            [], [RegionErrorEntry("R", "no hyperbolic regime found for 'R'")])


ROWS = [
    AnalysisReportRow("World", 1.684e-2, 8.539e-6, 1000.0, 1955.0, 1972, 17, "X"),
    AnalysisReportRow("Africa", 1.244e-1, 5.030e-5, 1.0, 1820.0, 2473, None, ""),
]


class TestRenderReport:
    def test_empty_rows_valid_documents(self):
        assert parse_report_json(render_report([], "json")) == []
        assert render_report([], "csv").decode().startswith("region,")
        assert render_report([], "markdown").decode().count("\n") == 2

    def test_json_round_trip_byte_identical(self):
        rendered = render_report(ROWS, "json")
        again = render_report(parse_report_json(rendered), "json")
        assert rendered == again

    def test_json_preserves_full_precision(self):
        rows = parse_report_json(render_report(ROWS, "json"))
        assert rows[0].a == 1.684e-2
        assert rows[0].k == 8.539e-6

    def test_markdown_mirrors_table_columns(self):
        text = render_report(ROWS, "markdown").decode()
        header = text.splitlines()[0]
        assert header == (
            "| Region | a | k | Hyperbolic Range | Singularity | Proximity | Takeoff |"
        )
        assert "| 1.684e-2 | 8.539e-6 | 1000 - 1955 | 1972 | 17 | X |" in text

    def test_csv_columns(self):
        lines = render_report(ROWS, "csv").decode().splitlines()
        assert lines[0] == "region,a,k,range_start,range_end,singularity,proximity,takeoff"
        assert lines[2] == "Africa,1.244e-1,5.030e-5,1,1820,2473,,"
        rows = [dataclasses.replace(ROWS[1], region="Congo, Dem. Rep.")]
        lines = render_report(rows, "csv").decode().splitlines()
        assert lines[1] == '"Congo, Dem. Rep.",1.244e-1,5.030e-5,1,1820,2473,,'

    @pytest.mark.parametrize("name", ['Korea "South", Rep.', 'Korea "South"', "North\nSouth",
                                      "North\rSouth", 'North\r"South", Rep.'])
    def test_csv_region_name_round_trips(self, name):
        # A name holding a quote and a comma, as a config section may, must
        # read back as one field: unescaped, the first name gave 9 fields.
        rows = [dataclasses.replace(ROWS[0], region=name), ROWS[1]]
        text = render_report(rows, "csv").decode()
        parsed = list(csv.reader(io.StringIO(text)))
        assert [len(fields) for fields in parsed] == [8, 8, 8]
        assert [fields[0] for fields in parsed[1:]] == [name, "Africa"]
        assert parsed[1][1:] == "1.684e-2,8.539e-6,1000,1955,1972,17,X".split(",")
        assert text.endswith("\nAfrica,1.244e-1,5.030e-5,1,1820,2473,,\n")

    def test_unknown_format(self):
        with pytest.raises(ArgumentError, match="^unknown report format 'yaml'$"):
            render_report(ROWS, "yaml")

    def test_markdown_escapes_a_pipe_in_a_cell(self):
        # Unescaped, "[Asia | Pacific]" gave a row of 8 cells under 7 headers.
        rows = [dataclasses.replace(ROWS[0], region="[Asia | Pacific]"), ROWS[1]]
        header, _, row, _ = render_report(rows, "markdown").decode().splitlines()
        cells = re.split(r"(?<!\\)\|", header), re.split(r"(?<!\\)\|", row)
        assert [len(c) for c in cells] == [9, 9]  # 7 cells and the two empty ends
        assert row == r"| [Asia \| Pacific] | 1.684e-2 | 8.539e-6 | 1000 - 1955 | 1972 | 17 | X |"
        csv_row = render_report(rows, "csv").decode().splitlines()[1]
        assert csv_row == "[Asia | Pacific],1.684e-2,8.539e-6,1000,1955,1972,17,X"
        assert parse_report_json(render_report(rows, "json")) == rows

    @pytest.mark.parametrize("name", ["North\nSouth", "North\rSouth", "North\r\nSouth"])
    def test_markdown_keeps_a_line_break_in_a_cell_inside_its_row(self, name):
        # Unreplaced, "North\nSouth" split its row over two lines.
        rows = [dataclasses.replace(ROWS[0], region=name)]
        text = render_report(rows, "markdown").decode()
        assert text.count("\n") == 3
        row = text.splitlines()[2]
        assert len(re.split(r"(?<!\\)\|", row)) == 9  # 7 cells and the two empty ends
        assert row == "| North<br>South | 1.684e-2 | 8.539e-6 | 1000 - 1955 | 1972 | 17 | X |"
        parsed = list(csv.reader(io.StringIO(render_report(rows, "csv").decode())))
        assert parsed[1][0] == name
        assert parse_report_json(render_report(rows, "json")) == rows

    def test_analysed_rows_parse_back(self):
        rows, _ = run_analysis(synthetic_table(), config())
        assert parse_report_json(render_report(rows, "json")) == rows

    # The published table is held as report rows, so it is a report document.
    def test_published_rows_parse_back(self):
        assert parse_report_json(render_report(REFERENCE_ROWS, "json")) == list(REFERENCE_ROWS)


def test_json_writes_each_non_finite_float_as_text():
    doc = {"x": [float("-inf"), {"y": float("nan")}], "z": (float("inf"), 1.5)}
    assert json.loads(_json_bytes(doc)) == {"x": ["-inf", {"y": "nan"}], "z": ["inf", 1.5]}


def _report_doc(**changes):
    doc = json.loads(render_report(ROWS, "json"))
    doc.update(changes)
    return json.dumps(doc).encode()


_ROW = dataclasses.asdict(ROWS[0])


class TestParseReportJson:
    @pytest.mark.parametrize("data, message", [
        (b"[]", "report document is not a JSON object"),
        (_report_doc(schema_version=2), "unsupported schema_version 2"),
        (b'{"schema_version": 1}', "report document has no 'rows' list"),
        (_report_doc(rows={"0": _ROW}), "report document has no 'rows' list"),
        (_report_doc(rows=[_ROW, "World"]), "report row 1 is not a JSON object"),
        (_report_doc(rows=[_ROW, {k: v for k, v in _ROW.items() if k != "takeoff"}]),
         "report row 1: missing fields ['takeoff'], unknown fields []"),
        (_report_doc(rows=[_ROW | {"note": ""}]),
         "report row 0: missing fields [], unknown fields ['note']"),
        (b"{", "report document is not UTF-8 JSON (JSONDecodeError: Expecting property name "
               "enclosed in double quotes: line 1 column 2 (char 1))"),
        (b"\xff", "report document is not UTF-8 JSON (UnicodeDecodeError: 'utf-8' codec "
                  "can't decode byte 0xff in position 0: invalid start byte)"),
        (b"[" * 100_000, "report document is not UTF-8 JSON (RecursionError: maximum "
                         "recursion depth exceeded while decoding a JSON array from a "
                         "unicode string)"),
    ], ids=["list", "schema 2", "no rows", "rows an object", "row a string",
            "row lacks a field", "row with an unknown field", "not JSON", "not UTF-8",
            "nested too deep"])
    def test_malformed_document_is_a_parse_error(self, data, message):
        with pytest.raises(ParseError) as exc:
            parse_report_json(data)
        assert str(exc.value) == message

    @pytest.mark.parametrize("field, value, message", [
        ("region", 5, "report row 1: region 5 is not text"),
        ("a", "x", "report row 1: a 'x' is not a finite number"),
        ("k", True, "report row 1: k True is not a finite number"),
        ("range_start", None, "report row 1: range_start None is not a finite number"),
        ("range_end", float("inf"), "report row 1: range_end inf is not a finite number"),
        ("singularity", 1972.0, "report row 1: singularity 1972.0 is not an integer"),
        ("singularity", True, "report row 1: singularity True is not an integer"),
        ("proximity", "17", "report row 1: proximity '17' is not an integer or null"),
        ("takeoff", None, "report row 1: takeoff None is not text"),
    ])
    def test_field_of_the_wrong_type_is_a_parse_error(self, field, value, message):
        # Before, {"a": "x"} parsed, and render_report(rows, "csv") then
        # raised a bare ValueError.
        with pytest.raises(ParseError) as exc:
            parse_report_json(_report_doc(rows=[_ROW, _ROW | {field: value}]))
        assert str(exc.value) == message


class TestFormatSci:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (1.684e-2, "1.684e-2"),
            (8.539e-6, "8.539e-6"),
            (1.570, "1.570e0"),
            (2.126e-4, "2.126e-4"),
        ],
    )
    def test_four_significant_digits(self, value, expected):
        assert format_sci(value) == expected
