"""Table parsing, unit conversion, region aggregation, config files."""

import contextlib
import csv
import io
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hypergrowth import (
    FitWindow,
    ParseError,
    RegionDefinition,
    RegionError,
    TakeoffHypothesis,
    YearValueSeries,
    build_region_series,
    ingest,
    parse_long_csv,
    parse_region_config,
    parse_wide_table,
    serialize_long_csv,
)


class TestParseLongCsv:
    def test_single_row(self):
        table = parse_long_csv(b"entity,year,value\nWorld,1000,116.8\n")
        assert table.value("World", 1000.0) == pytest.approx(116.8)
        assert table.entities == ["World"]

    def test_empty_value_skipped(self):
        table = parse_long_csv(b"entity,year,value\nWorld,1000,\nWorld,1500,248.3\n")
        assert table.value("World", 1000.0) is None
        assert table.value("World", 1500.0) == pytest.approx(248.3)

    def test_duplicate_cell_rejected_with_line_number(self):
        data = b"entity,year,value\nWorld,1000,116.8\nWorld,1000,117.0\n"
        with pytest.raises(ParseError, match="line 3"):
            parse_long_csv(data)

    def test_zero_value_rejected(self):
        with pytest.raises(ParseError, match="not positive"):
            parse_long_csv(b"entity,year,value\nWorld,1000,0\n")

    def test_bad_number_names_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_long_csv(b"entity,year,value\nWorld,MX,5\n")

    def test_bad_header(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_long_csv(b"region,when,amount\nWorld,1000,5\n")

    @pytest.mark.parametrize("row, match", [
        (b"World,1000,nan", "line 2: value"),
        (b"World,1000,inf", "line 2: value"),
        (b"World,1000,-Infinity", "line 2: value"),
        (b"World,nan,5", "line 2: year"),
        (b"World,inf,5", "line 2: year"),
    ])
    def test_non_finite_number_names_line(self, row, match):
        with pytest.raises(ParseError, match=match):
            parse_long_csv(b"entity,year,value\n" + row + b"\n")

    # Text and None raised a raw TypeError from the comparison with 0.
    @pytest.mark.parametrize("unit_scale", [float("nan"), float("inf"), 0.0, -1e-3, "1", None])
    def test_bad_unit_scale(self, unit_scale):
        with pytest.raises(ParseError, match="unit_scale"):
            parse_long_csv(b"entity,year,value\nWorld,1000,5\n", unit_scale)
        with pytest.raises(ParseError, match="unit_scale"):
            parse_wide_table(b"entity,1000\nWorld,5\n", unit_scale)

    def test_entities_keep_first_seen_order(self):
        table = parse_long_csv(
            b"entity,year,value\nS,1900,1\nN,1900,2\nS,1950,3\nA,1800,4\nN,1800,5\n"
        )
        assert table.entities == ["S", "N", "A"]

    def test_crlf_accepted(self):
        table = parse_long_csv(b"entity,year,value\r\nWorld,1000,116.8\r\n")
        assert table.value("World", 1000.0) == pytest.approx(116.8)

    # A field over the csv module's size limit raised a raw _csv.Error.
    @pytest.mark.parametrize("data, match", [
        (b"entity,year,value\nWorld,1000,5\nWorld,1500," + b"9" * 200_000 + b"\n", "line 3: "),
        (b"entity,year," + b"v" * 200_000 + b"\nWorld,1000,5\n", "line 1: "),
    ], ids=["row", "header"])
    def test_oversized_field_names_line(self, data, match):
        with pytest.raises(ParseError, match=match + "field larger than field limit"):
            parse_long_csv(data)

    # The row count, not the line count, was named: "line 3".
    def test_line_number_counts_a_quoted_field_spanning_lines(self):
        with pytest.raises(ParseError, match="^line 4: value -1 for \\(C, 1000\\) is not positive$"):
            parse_long_csv(b'entity,year,value\n"A\nB",1000,5\nC,1000,-1\n')

    # "expected header entity,year,value, got ['\ufeffentity', ...]"
    def test_utf8_bom_accepted(self):
        data = b"entity,year,value\nWorld,1000,116.8\n"
        assert parse_long_csv(b"\xef\xbb\xbf" + data).rows == parse_long_csv(data).rows
        assert parse_wide_table(b"\xef\xbb\xbfentity,1000\nWorld,5\n").rows == {"World": {1000.0: 5.0}}

    # The position counted from after the BOM: "position 25" for byte 28.
    @pytest.mark.parametrize("parse, body, position", [
        (parse_long_csv, b"entity,year,value\nA,1000,\xff\n", 25),
        (parse_wide_table, b"entity,1000\nA,\xff\n", 14),
    ], ids=["long", "wide"])
    def test_invalid_utf8_after_bom_names_file_offset(self, parse, body, position):
        with pytest.raises(ParseError) as plain:
            parse(body)
        assert f"in position {position}:" in str(plain.value)
        with pytest.raises(ParseError) as bom:
            parse(b"\xef\xbb\xbf" + body)
        assert str(bom.value) == str(plain.value).replace(
            f"position {position}", f"position {position + 3}")

    def test_year_major_table_matches_entity_major(self):
        rng = np.random.default_rng(7)
        names = [f"E{i}" for i in rng.permutation(12)]
        rows = [(e, y, "" if y > 1000 and rng.random() < 0.1 else repr(float(rng.lognormal())))
                for e in names for y in range(1000, 1060)]
        by_entity, by_year = (
            ("entity,year,value\n" + "".join(f"{e},{y},{v}\n" for e, y, v in order)).encode()
            for order in (rows, sorted(rows, key=lambda r: r[1]))
        )
        table = parse_long_csv(by_year, 1e-3)
        assert table.entities == names
        assert table.rows == parse_long_csv(by_entity, 1e-3).rows
        assert table.rows == reference_parse_long_csv(by_year, 1e-3)

    def test_duplicate_across_runs_of_one_entity_names_its_line(self):
        data = b"entity,year,value\nA,1000,1\nA,1001,2\nB,1000,3\nA,1002,4\nA,1001,5\n"
        with pytest.raises(ParseError, match="^line 6: duplicate cell for \\(A, 1001\\)$"):
            parse_long_csv(data)

    def test_adjacent_padded_names_are_one_entity(self):
        table = parse_long_csv(b'entity,year,value\n A,1000,1\nA,1001,2\n"A\t",1002,3\n')
        assert table.rows == {"A": {1000.0: 1.0, 1001.0: 2.0, 1002.0: 3.0}}
        with pytest.raises(ParseError, match="^line 3: duplicate cell for \\(A, 1000\\)$"):
            parse_long_csv(b"entity,year,value\nA,1000,1\n A ,1000,2\n")

    # float() rejects the separators \x1c-\x1f that str.strip() removes.
    def test_field_padded_with_separator_stored(self):
        table = parse_long_csv(b"entity,year,value\nA,1000,1\x1c\nA,\x1f1001,2\nB\x1e,1000,3\n")
        assert table.rows == {"A": {1000.0: 1.0, 1001.0: 2.0}, "B": {1000.0: 3.0}}

    @pytest.mark.parametrize("row, match", [
        (b"A,x,y,", "^line 3: expected 3 fields, got 4$"),
        (b"A,x, ", None),  # a blank value skips the row before the year is read
        (b"A,x,y", "^line 3: year 'x' is not a number$"),
        (b"A,1000,y", "^line 3: value 'y' is not a number$"),
        (b"A,1000,-1", "^line 3: duplicate cell for \\(A, 1000\\)$"),
        (b"A,1000,1e308", "^line 3: duplicate cell for \\(A, 1000\\)$"),
    ])
    def test_first_broken_rule_names_the_row(self, row, match):
        data = b"entity,year,value\nA,1000,1\n" + row + b"\n"
        if match is None:
            assert parse_long_csv(data, 10.0).rows == {"A": {1000.0: 10.0}}
        else:
            with pytest.raises(ParseError, match=match):
                parse_long_csv(data, 10.0)

    def test_skipped_row_adds_no_entity(self):
        table = parse_long_csv(b"entity,year,value\nA,1000,\nB,1000,1\nC,1000,\x1c\nA,1001,2\n,,\n")
        assert table.entities == ["B", "A"]

    def test_value_overflowing_after_unit_scale_names_line(self):
        data = b"entity,year,value\nWorld,1000,1e307\nWorld,1500,1e308\n"
        assert parse_long_csv(data, 1.0).value("World", 1500.0) == 1e308
        with pytest.raises(ParseError, match="line 3: value .* not finite after unit_scale 10"):
            parse_long_csv(data, 10.0)


class TestYearCache:
    """Each year text is parsed once, and only a finite year is kept for later rows."""

    # The second text parses to the year already stored, so the row is a duplicate.
    @pytest.mark.parametrize("second", ["1950.0", " 1950", "\x1c1950", "19_50"])
    def test_two_texts_of_one_year_are_a_duplicate(self, second):
        data = f"entity,year,value\nB,{second},3\nA,1950,1\nA,{second},2\n".encode()
        with pytest.raises(ParseError, match="^line 4: duplicate cell for \\(A, 1950\\)$"):
            parse_long_csv(data)

    def test_year_first_read_on_a_blank_value_row(self):
        table = parse_long_csv(b"entity,year,value\nA,1950,\nB,1950,3\nA,1950,2\n")
        assert table.rows == {"B": {1950.0: 3.0}, "A": {1950.0: 2.0}}

    @pytest.mark.parametrize("year", ["inf", "nan", "-Infinity"])
    def test_non_finite_year_raises_at_its_first_line(self, year):
        # A blank value skips the row before its year is read; the year is not kept.
        data = f"entity,year,value\nA,1900,1\nA,{year},\nB,{year},2\nC,{year},3\n".encode()
        with pytest.raises(ParseError, match=f"^line 4: year '{year}' is not finite$"):
            parse_long_csv(data)

    def test_separator_padded_year_matches_plain(self):
        plain = parse_long_csv(b"entity,year,value\nA,1950,1\nB,1950,2\nC,1951,3\n")
        padded = parse_long_csv(b"entity,year,value\nA,\x1c1950,1\nB,1950,2\nC,1951\x1d,3\n")
        assert padded.rows == plain.rows

    def test_equal_years_share_one_float(self):
        lines = ["entity,year,value"] + [f"E{i % 7},{1000 + i // 7},1" for i in range(700)]
        table = parse_long_csv(("\n".join(lines) + "\n").encode())
        assert len({id(year) for cells in table.rows.values() for year in cells}) == 100


class TestParseWideTable:
    def test_blank_cells_are_missing(self):
        data = b"entity,1000,1500,1600\nWorld,116.8,,329.8\n"
        table = parse_wide_table(data)
        assert table.value("World", 1000.0) == pytest.approx(116.8)
        assert table.value("World", 1500.0) is None
        assert table.value("World", 1600.0) == pytest.approx(329.8)

    def test_unit_scale_millions_to_billions(self):
        table = parse_wide_table(b"entity,1000\nWorld,1000\n", unit_scale=1e-3)
        assert table.value("World", 1000.0) == pytest.approx(1.0)

    def test_tab_delimiter_autodetected(self):
        table = parse_wide_table(b"entity\t1000\t1500\nWorld\t116.8\t248.3\n")
        assert table.value("World", 1500.0) == pytest.approx(248.3)

    @pytest.mark.parametrize("data", [b"entity\nA\n", b"entity"])
    def test_header_without_year_columns(self, data):
        with pytest.raises(ParseError, match="^line 1: wide table needs an entity column plus year columns$"):
            parse_wide_table(data)

    def test_non_numeric_year_header(self):
        with pytest.raises(ParseError):
            parse_wide_table(b"entity,medieval\nWorld,116.8\n")

    @pytest.mark.parametrize("data, match", [
        (b"entity,1000\nWorld,nan\n", "line 2: cell"),
        (b"entity,1000\nWorld,inf\n", "line 2: cell"),
        (b"entity,nan\nWorld,5\n", "line 1: year header"),
        (b"entity,-inf\nWorld,5\n", "line 1: year header"),
    ])
    def test_non_finite_number_names_line(self, data, match):
        with pytest.raises(ParseError, match=match):
            parse_wide_table(data)

    def test_non_numeric_cell(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_wide_table(b"entity,1000\nWorld,n/a\n")

    def test_repeated_entity_row_names_second_line(self):
        data = b"entity,1000,1500\nWorld,1,\nAsia,2,3\nWorld,,4\nWorld,5,\n"
        with pytest.raises(ParseError, match="line 5: duplicate cell for \\(World, 1000\\)"):
            parse_wide_table(data)

    @pytest.mark.parametrize("data, match", [
        (b"entity,1000,1500\nWorld,1,2\nAsia,3," + b"9" * 200_000 + b"\n", "line 3: "),
        (b"entity,1000," + b"1" * 200_000 + b"\nWorld,1,2\n", "line 1: "),
    ], ids=["row", "header"])
    def test_oversized_field_names_line(self, data, match):
        with pytest.raises(ParseError, match=match + "field larger than field limit"):
            parse_wide_table(data)

    # The row count, not the line count, was named: "line 3".
    def test_line_number_counts_a_quoted_field_spanning_lines(self):
        with pytest.raises(ParseError, match="^line 4: cell 'x' is not a number$"):
            parse_wide_table(b'entity,1000\n"A\nB",5\nC,x\n')

    def test_value_overflowing_after_unit_scale_names_line(self):
        data = b"entity,1000,1500\nWorld,1,2\nAsia,3,1e308\n"
        assert parse_wide_table(data, 1.0).value("Asia", 1500.0) == 1e308
        with pytest.raises(ParseError, match="line 3: value .* not finite after unit_scale 10"):
            parse_wide_table(data, 10.0)

    @given(st.text(st.sampled_from("ab,\t \xa0\x1f\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029")))
    @settings(max_examples=200, deadline=None)
    def test_header_line_ends_where_splitlines_ends_it(self, text):
        assert ingest._first_line(text) == (text.splitlines() or [""])[0]


def csv_reader_rows(text, delimiter=","):
    """``ingest._rows`` with every text read by ``csv.reader``."""
    reader = csv.reader(io.StringIO(text), delimiter=delimiter)
    return reader, lambda: reader.line_num


def through_both_readers(parse, data, unit_scale=1.0):
    """The outcome of ``parse`` as it reads ``data``, and as it would through
    ``csv.reader`` alone; see TestLongCsvReference.outcome."""
    def outcome():
        return TestLongCsvReference.outcome(lambda d, u: parse(d, u).rows, data, unit_scale)

    as_read = outcome()
    with mock.patch.object(ingest, "_rows", csv_reader_rows):
        return as_read, outcome()


@st.composite
def quote_free_wide_tables(draw):
    """A wide table with no quote, CR or NUL: padded, ragged, blank and
    non-numeric cells, blank lines and stray lines, with or without a final
    LF; and a unit scale."""
    delimiter = draw(st.sampled_from([",", "\t"]))
    pad = st.sampled_from(_PADS + ["\x0c", "\x85", "\u2028"])
    years = draw(st.lists(st.sampled_from(_CLEAN["year"] + ["x", "nan"]), max_size=5))
    lines = [delimiter.join(["entity"] + [draw(pad) + y + draw(pad) for y in years])]
    for kind in draw(st.lists(st.sampled_from(["row"] * 4 + ["blank", "stray"]), max_size=8)):
        if kind == "blank":
            lines.append("")
        elif kind == "stray":
            lines.append(draw(st.text(st.sampled_from("A1e. ,\t\x0c\x1c\x85\u2028"), max_size=8)))
        else:
            values = _CLEAN["value"] + _MESSY["value"]
            cells = [draw(pad) + draw(st.sampled_from(values)) + draw(pad)
                     for _ in range(draw(st.integers(0, len(years) + 1)))]
            lines.append(delimiter.join([draw(st.sampled_from(["A", "B", "C\u00f4te"]))] + cells))
    text = "\n".join(lines) + draw(st.sampled_from(["", "\n"]))
    return text.encode("utf-8"), draw(st.sampled_from([1.0, 1e-3, 10.0]))


class TestReaders:
    """Text with no quote, CR or NUL is split by ``str.split``; both parsers
    must read it as they would through ``csv.reader``."""

    @pytest.mark.parametrize("parse", [parse_long_csv, parse_wide_table], ids=["long", "wide"])
    @pytest.mark.parametrize("data", [b"", b"\xef\xbb\xbf"], ids=["empty", "bom"])
    def test_empty_text_is_an_empty_file(self, parse, data):
        # Split on LF, empty text is one empty line, which csv.reader does not read.
        with pytest.raises(ParseError, match="^line 1: empty file$"):
            parse(data)
        as_read, through_csv = through_both_readers(parse, data)
        assert as_read == through_csv

    def test_empty_first_line_is_an_empty_header(self):
        # csv.reader reads an empty line as [], where str.split gives [''].
        with pytest.raises(ParseError, match=re.escape("line 1: expected header entity,year,value, got []")):
            parse_long_csv(b"\nentity,year,value\nA,1900,1\n")
        with pytest.raises(ParseError, match="^line 1: wide table needs an entity column plus year columns$"):
            parse_wide_table(b"\nentity,1900\nA,1\n")

    @pytest.mark.parametrize("parse, text, match", [
        (parse_long_csv, "entity,year,value\n\nA,x,1\n\n\nA,1900,1", "^line 3: year 'x' is not a number$"),
        (parse_long_csv, "entity,year,value\n\nA,1900,1\n\n,,\n\nA,1900,2",
         "^line 7: duplicate cell for \\(A, 1900\\)$"),
        (parse_long_csv, "entity,year,value\nA,1900,1\n\nA,1950,1\nB", "^line 5: expected 3 fields, got 1$"),
        (parse_wide_table, "entity,1900\n\nA,x\n\nB,1", "^line 3: cell 'x' is not a number$"),
        (parse_wide_table, "entity,1900\n\nA,1\n\n\nA,2", "^line 6: duplicate cell for \\(A, 1900\\)$"),
    ])
    @pytest.mark.parametrize("end", ["", "\n", "\n\n"], ids=["no-lf", "lf", "blank-last"])
    def test_blank_lines_and_last_line_end_keep_line_numbers(self, parse, text, match, end):
        data = (text + end).encode()
        with pytest.raises(ParseError, match=match):
            parse(data)
        as_read, through_csv = through_both_readers(parse, data)
        assert as_read == through_csv

    @pytest.mark.parametrize("parse, data", [
        (parse_long_csv, b"entity,year,value\nA\x00,1900,1\nB,1900,2\x00\n"),
        (parse_long_csv, b"entity,year,value\nA,1900,1\nB,19\x0000,1\n"),
        (parse_wide_table, b"entity,1900\nA\x00,1\nB,\x002\n"),
    ])
    def test_nul_reads_as_through_csv_reader(self, parse, data):
        # Python 3.10's csv module rejects NUL; later versions keep it.
        as_read, through_csv = through_both_readers(parse, data)
        assert as_read == through_csv

    # These end a line for str.splitlines but not for csv.reader.
    @pytest.mark.parametrize("char", ["\x0c", "\x1c", "\x85", "\u2028"])
    def test_splitlines_line_ends_stay_in_their_field(self, char):
        long = f"entity,year,value\nA{char}B,1900,1\nA,{char}1900,2{char}\nA,1950{char}x,3\n".encode()
        with pytest.raises(ParseError, match=f"^line 4: year {re.escape(repr('1950' + char + 'x'))} is not"):
            parse_long_csv(long)
        assert parse_long_csv(long.rsplit(b"\n", 2)[0] + b"\n").rows == {
            f"A{char}B": {1900.0: 1.0}, "A": {1900.0: 2.0}}
        wide = f"entity,1900{char},1950\nA{char}B,1,{char}2\nC,3{char}x\n".encode()
        with pytest.raises(ParseError, match=f"^line 3: cell {re.escape(repr('3' + char + 'x'))} is not"):
            parse_wide_table(wide)
        for parse, data in ((parse_long_csv, long), (parse_wide_table, wide)):
            as_read, through_csv = through_both_readers(parse, data)
            assert as_read == through_csv

    # Split on commas, the padded value would have read as 5.
    @pytest.mark.parametrize("parse, data, match", [
        (parse_long_csv, b"entity,year,value\nA,1900,1\nA,1950,5" + b" " * 200_000 + b"\n", "line 3: "),
        (parse_wide_table, b"entity,1900,1950\nA,1,2\nB,1,5" + b" " * 200_000 + b"\nC,1,2\n", "line 3: "),
    ], ids=["long", "wide"])
    def test_padded_value_over_the_field_limit_names_its_line(self, parse, data, match):
        with pytest.raises(ParseError, match="^" + match + "field larger than field limit"):
            parse(data)

    def test_line_within_the_field_limit_is_read(self):
        data = b"entity,year,value\nA,1900,1\nA,1950,5" + b" " * 100_000 + b"\n"
        assert parse_long_csv(data).rows == {"A": {1900.0: 1.0, 1950.0: 5.0}}

    def test_csv_reader_reads_only_text_that_needs_it(self, monkeypatch):
        calls = []
        reader = csv.reader
        monkeypatch.setattr(csv, "reader", lambda *a, **k: calls.append(1) or reader(*a, **k))
        parse_long_csv(b"entity,year,value\nA,1900,1\n\nA,1950,2")
        parse_wide_table(b"entity\t1900\nA\t1\n")
        assert calls == []
        for data in (b'entity,year,value\n"A",1900,1\n', b"entity,year,value\r\nA,1900,1\r\n",
                     b"entity,year,value\nA\x00,1900,1\n", b"\nentity,year,value\n",
                     b"entity,year,value\nA,1900,1" + b" " * 200_000 + b"\n"):
            with contextlib.suppress(ParseError):
                parse_long_csv(data)
        assert len(calls) == 5

    @given(st.text(st.sampled_from("ab1 ,\t\n\x0c\x1c\x85\u2028"), max_size=40),
           st.sampled_from([",", "\t"]))
    @settings(max_examples=200, deadline=None)
    def test_rows_and_lines_match_csv_reader(self, text, delimiter):
        rows, line = ingest._rows(text, delimiter)
        reader = csv.reader(io.StringIO(text), delimiter=delimiter)
        for expected in reader:
            row = next(rows)
            assert (row if row != [""] else []) == expected
            assert line() == reader.line_num
        assert next(rows, None) is None

    @given(quote_free_wide_tables())
    @settings(max_examples=200, deadline=None)
    def test_wide_parser_reads_as_through_csv_reader(self, case):
        data, unit_scale = case
        as_read, through_csv = through_both_readers(parse_wide_table, data, unit_scale)
        assert as_read == through_csv


@st.composite
def sparse_tables(draw):
    entities = draw(
        st.lists(st.sampled_from(["A", "B", "C", "D"]), min_size=1, max_size=4, unique=True)
    )
    years = draw(
        st.lists(st.integers(1, 2008), min_size=1, max_size=6, unique=True)
    )
    rows = []
    for e in entities:
        for y in sorted(years):
            if draw(st.booleans()):
                rows.append((e, y, draw(st.floats(0.001, 1e6))))
    return rows


class TestRoundTrip:
    @given(sparse_tables())
    @settings(max_examples=50, deadline=None)
    def test_long_serialize_parse_identity(self, rows):
        lines = ["entity,year,value"] + [f"{e},{y},{v!r}" for e, y, v in rows]
        data = ("\n".join(lines) + "\n").encode()
        table = parse_long_csv(data)
        again = parse_long_csv(serialize_long_csv(table))
        assert again.rows == table.rows

    # Written unquoted, the CR ended the row when read back: "new-line
    # character seen in unquoted field".
    def test_entity_holding_cr_round_trips(self):
        table = parse_long_csv(b'entity,year,value\n"a\rb",1900,1\n"a\rb",1950,2\n')
        assert table.entities == ["a\rb"]
        assert parse_long_csv(serialize_long_csv(table)).rows == table.rows

    @pytest.mark.parametrize("name", ["a\rb", "a\r\nb", 'a\r"b, c"'])
    def test_name_holding_cr_leaves_other_rows_as_they_were(self, name):
        table = ingest.DatasetTable({"Korea, Rep.": {1900.0: 2.0}, name: {1900.0: 1.0, 1950.5: 2.5},
                                     "B": {1900.0: 3.0}})
        data = serialize_long_csv(table)
        assert parse_long_csv(data).rows == table.rows
        lines = data.decode().split("\n")
        assert lines[:2] == ["entity,year,value", '"Korea, Rep.",1900,2.0']
        assert lines[-2:] == ["B,1900,3.0", ""]

    # Written as they were, such names read back stripped: ' A' as 'A'.
    @pytest.mark.parametrize("name", [" A", "A ", "B\t", "ab\r", "\x1cC", "D\u2028", " "])
    def test_name_with_surrounding_whitespace_is_rejected(self, name):
        match = f"^entity name {re.escape(repr(name))} has surrounding whitespace"
        with pytest.raises(ParseError, match=match):
            serialize_long_csv(ingest.DatasetTable({"A": {1900.0: 1.0}, name: {1900.0: 2.0}}))
        with pytest.raises(ParseError, match=match):
            ingest.series_to_long_csv(YearValueSeries(np.array([1900.0]), np.array([2.0]), name))

    def test_name_with_inner_whitespace_keeps_its_bytes(self):
        table = ingest.DatasetTable({"A B": {1900.0: 1.0}, "C\td": {1950.0: 2.5}})
        data = serialize_long_csv(table)
        assert data == b"entity,year,value\nA B,1900,1.0\nC\td,1950,2.5\n"
        assert parse_long_csv(data).rows == table.rows
        series = YearValueSeries(np.array([1900.0]), np.array([2.0]), "W x")
        assert ingest.series_to_long_csv(series) == b"entity,year,value\nW x,1900,2.0\n"

    @given(sparse_tables())
    @settings(max_examples=50, deadline=None)
    def test_wide_to_long_preserves_cells(self, rows):
        years = sorted({y for _, y, _ in rows})
        entities = sorted({e for e, _, _ in rows})
        if not years:
            return
        cells = {(e, y): v for e, y, v in rows}
        lines = ["entity," + ",".join(str(y) for y in years)]
        for e in entities:
            lines.append(
                e + "," + ",".join(
                    repr(cells[(e, y)]) if (e, y) in cells else "" for y in years
                )
            )
        wide = parse_wide_table(("\n".join(lines) + "\n").encode())
        long_again = parse_long_csv(serialize_long_csv(wide))
        assert long_again.rows == wide.rows
        expected = {}
        for (e, y), v in cells.items():
            expected.setdefault(e, {})[float(y)] = v
        assert wide.rows == expected


def reference_parse_long_csv(data, unit_scale=1.0):
    """The long-CSV row loop as first written: every field stripped, every cell
    parsed and added through helpers.  Returns the rows."""

    def number(text, what, where):
        try:
            value = float(text)
        except ValueError:
            raise ParseError(f"{where}: {what} {text!r} is not a number") from None
        if not math.isfinite(value):
            raise ParseError(f"{where}: {what} {text!r} is not finite")
        return value

    reader = csv.reader(io.StringIO(data.decode("utf-8")))
    assert [h.strip().lower() for h in next(reader)] == ["entity", "year", "value"]
    rows = {}
    for line_no, row in enumerate(reader, start=2):
        fields = [c.strip() for c in row]
        if not any(fields):
            continue
        if len(fields) != 3:
            raise ParseError(f"line {line_no}: expected 3 fields, got {len(fields)}")
        entity, year_s, value_s = fields
        if not value_s:
            continue
        year = number(year_s, "year", f"line {line_no}")
        value = number(value_s, "value", f"line {line_no}") * unit_scale
        cells = rows.setdefault(entity, {})
        if year in cells:
            raise ParseError(f"line {line_no}: duplicate cell for ({entity}, {year:g})")
        if value <= 0:
            raise ParseError(
                f"line {line_no}: value {value:g} for ({entity}, {year:g}) is not positive"
            )
        cells[year] = value
    return rows


_PADS = ["", " ", "\t", "\x1c", "\xa0", " \t\u2003"]
_CLEAN = {
    "entity": ["A", "B", "Korea, Rep.", "C\u00f4te d'Ivoire"],
    "year": ["1900", "1950", "1950.5", "2e3", "2000", "1_901", "1901"],
    "value": ["1", "2.5", "1e-3", "7E2", "1e308"],
}
_MESSY = {
    "entity": ["", "A B"],
    "year": ["", "x", "19 00", "nan", "inf", "-Infinity", "-0"],
    "value": ["", "  ", "0", "-0", "-1.5", "nan", "-inf", "abc", "1,5", "1e400", "1e-320"],
}


@st.composite
def messy_long_csv(draw):
    """A long CSV whose rows are mostly clean, with blank lines, ``,,`` and
    whitespace-only rows, padded, quoted, ragged, non-numeric, non-finite,
    non-positive and duplicate cells mixed in; and a unit scale."""

    def field(kind, messy):
        pool = _CLEAN[kind] + (_MESSY[kind] if messy else [])
        pad = st.sampled_from(_PADS)
        return draw(pad) + draw(st.sampled_from(pool)) + draw(pad)

    out = io.StringIO()
    writer = csv.writer(out, quoting=draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL])),
                        lineterminator=draw(st.sampled_from(["\n", "\r\n"])))
    writer.writerow(["entity", "year", "value"])
    kinds = ["clean"] * 6 + ["messy", "blank", "commas", "whitespace", "ragged"]
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=25)):
        if kind == "blank":
            writer.writerow([])
        elif kind == "commas":
            writer.writerow(["", "", ""])
        elif kind == "whitespace":
            writer.writerow(draw(st.lists(st.sampled_from(_PADS), min_size=1, max_size=4)))
        elif kind == "ragged":
            writer.writerow([field("entity", False)] * draw(st.sampled_from([1, 2, 4])))
        else:
            writer.writerow([field(k, kind == "messy") for k in ("entity", "year", "value")])
    return out.getvalue().encode("utf-8"), draw(st.sampled_from([1.0, 1e-3, 10.0]))


class TestLongCsvReference:
    @staticmethod
    def outcome(parse, data, unit_scale):
        """The rows with bitwise-exact keys and values, in order; or the error text."""
        try:
            rows = parse(data, unit_scale)
        except ParseError as exc:
            return str(exc)
        return [(e, [(y.hex(), v.hex()) for y, v in cells.items()]) for e, cells in rows.items()]

    @given(messy_long_csv())
    @settings(max_examples=400, deadline=None)
    def test_matches_row_loop_as_first_written(self, case):
        data, unit_scale = case
        new = self.outcome(lambda d, u: parse_long_csv(d, u).rows, data, unit_scale)
        old = self.outcome(reference_parse_long_csv, data, unit_scale)
        if new == old:
            return
        # The one intended difference: a value that overflows after scaling
        # is rejected, where the old loop stored inf and read on.
        assert isinstance(new, str) and "not finite after unit_scale" in new, (new, old)
        line = int(re.match(r"line (\d+):", new).group(1))
        if isinstance(old, str):
            assert int(re.match(r"line (\d+):", old).group(1)) > line
        else:
            assert any(v == "inf" for _, cells in old for _, v in cells)


def long_transcription(wide):
    """A comma-separated wide table as a long CSV with one row per cell, blank
    cells too; and the wide table's line of each long line."""
    lines = wide.split("\n")
    heads = lines[0].split(",")[1:]
    out, wide_line = ["entity,year,value"], {}
    for n, text in enumerate(lines[1:], start=2):
        entity, *cells = text.split(",")
        for head, cell in zip(heads, cells):
            out.append(f"{entity},{head},{cell}")
            wide_line[len(out)] = n
    return ("\n".join(out) + "\n").encode(), wide_line


class TestWideRowsReadAsLong:
    """One loop applies the row rules to both layouts: each wide table gives
    the table, or the message, of its long transcription.  A message says
    "cell" where the long one says "value", and names its own line."""

    @pytest.mark.parametrize("rows, unit_scale, message", [
        ("C,abc,1", 1.0, "line 4: cell 'abc' is not a number"),
        ("C,1,nan", 1.0, "line 4: cell 'nan' is not finite"),
        ("C,-inf,1", 1.0, "line 4: cell '-inf' is not finite"),
        ("C,0,1", 1.0, "line 4: value 0 for (C, 1900) is not positive"),
        ("C,1,-1.5", 1e-3, "line 4: value -0.0015 for (C, 1950) is not positive"),
        ("C,-0,1", 1.0, "line 4: value -0 for (C, 1900) is not positive"),
        ("C,1,1e308", 10.0, "line 4: value for (C, 1950) is not finite after unit_scale 10"),
        ("C,1e308,2", 1.0, None),
        ("C,,4\nB,,5", 1.0, "line 5: duplicate cell for (B, 1950)"),
        ("B,,\nA,,4", 1.0, None),
        ("C, ,\t\nD,\u2003,\x1c", 1.0, None),
        ("C,\x1c5,6\x1f", 1e-3, None),
        ("C\x1c,5,\x1c-1", 1.0, "line 4: value -1 for (C, 1950) is not positive"),
    ], ids=["text", "nan", "-inf", "zero", "negative", "negative-zero", "overflow-after-scale",
            "largest", "duplicate", "blank", "whitespace-only", "separator-padded",
            "separator-padded-negative"])
    def test_wide_table_reads_as_its_long_transcription(self, rows, unit_scale, message):
        wide = f"entity,1900,1950\nA,1,\nB,2,3\n{rows}"
        long, wide_line = long_transcription(wide)
        as_wide = TestLongCsvReference.outcome(
            lambda d, u: parse_wide_table(d, u).rows, wide.encode(), unit_scale)
        as_long = TestLongCsvReference.outcome(
            lambda d, u: parse_long_csv(d, u).rows, long, unit_scale)
        if message is None:
            assert as_wide == as_long and not isinstance(as_wide, str)
            return
        assert as_wide == message
        line, text = re.fullmatch(r"line (\d+): (.*)", as_long).groups()
        assert f"line {wide_line[int(line)]}: {text}" == re.sub(r"^(line \d+: )cell ", r"\1value ", message)


class TestHotLoop:
    """A clean table is parsed without calling any per-cell helper."""

    @pytest.fixture
    def helper_calls(self, monkeypatch):
        calls = []
        for name in ("_parse_number", "_slow_row"):
            helper = getattr(ingest, name)
            monkeypatch.setattr(ingest, name, lambda *a, h=helper: calls.append(1) or h(*a))
        return calls

    def test_long_table(self, helper_calls):
        lines = ["entity,year,value"] + [
            f"E{i // 100},{1000 + i % 100}, {1.5 + i!r}" for i in range(10_000)
        ]
        table = parse_long_csv(("\n".join(lines) + "\n").encode(), 1e-3)
        assert sum(map(len, table.rows.values())) == 10_000
        assert helper_calls == []

    def test_wide_table(self, helper_calls):
        lines = ["entity," + ",".join(str(1000 + j) for j in range(100))] + [
            f"E{i}," + ",".join(f" {1.5 + j!r}" for j in range(100)) for i in range(100)
        ]
        table = parse_wide_table(("\n".join(lines) + "\n").encode(), 1e-3)
        assert sum(map(len, table.rows.values())) == 10_000
        assert len(helper_calls) == 100  # the year headers, once each


class TestBuildRegionSeries:
    TABLE = parse_long_csv(
        b"entity,year,value\n"
        b"N,1900,1\nS,1900,2\n"
        b"N,1870,0.5\n"
        b"N,1950,2\nS,1950,3\n"
    )

    def test_members_summed(self):
        region = RegionDefinition("Both", ("N", "S"))
        s = build_region_series(self.TABLE, region)
        assert dict(s.points()) == {1900.0: 3.0, 1950.0: 5.0}

    def test_require_complete_drops_partial_years(self):
        region = RegionDefinition("Both", ("N", "S"), require_complete=True)
        s = build_region_series(self.TABLE, region)
        assert 1870.0 not in s.years

    def test_partial_years_kept_when_allowed(self):
        region = RegionDefinition("Both", ("N", "S"), require_complete=False)
        s = build_region_series(self.TABLE, region)
        assert dict(s.points())[1870.0] == pytest.approx(0.5)

    def test_member_permutation_invariant(self):
        a = build_region_series(self.TABLE, RegionDefinition("R", ("N", "S")))
        b = build_region_series(self.TABLE, RegionDefinition("R", ("S", "N")))
        np.testing.assert_array_equal(a.values, b.values)

    def test_text_members_rejected(self):
        # "abc" became the three members 'a', 'b' and 'c'.
        with pytest.raises(RegionError, match="region 'x' members must be a sequence of names"):
            RegionDefinition("x", "abc")

    def test_no_members_rejected(self):
        with pytest.raises(RegionError, match="^region 'R' has no members$"):
            RegionDefinition("R", ())

    def test_unknown_entity(self):
        with pytest.raises(RegionError, match="^unknown entity 'X'$"):
            self.TABLE.entity_series("X")

    def test_unknown_member(self):
        with pytest.raises(RegionError, match="not in table"):
            build_region_series(self.TABLE, RegionDefinition("R", ("N", "X")))

    def test_empty_result(self):
        table = parse_long_csv(b"entity,year,value\nN,1900,1\nS,1950,2\n")
        with pytest.raises(RegionError, match="no usable years"):
            build_region_series(table, RegionDefinition("R", ("N", "S")))

    def test_overflowing_sum_is_region_error(self):
        table = parse_long_csv(b"entity,year,value\nN,1900,1e308\nS,1900,1e308\n")
        with pytest.raises(RegionError, match="region 'R': .*finite"):
            build_region_series(table, RegionDefinition("R", ("N", "S")))


def reference_region_series(table, region):
    """Per-year region sum over every year of the table, as first written."""
    all_years = sorted({y for row in table.rows.values() for y in row})
    years, values = [], []
    for year in all_years:
        cells = [table.value(m, year) for m in region.members]
        present = [c for c in cells if c is not None]
        if not present:
            continue
        if region.require_complete and len(present) < len(region.members):
            continue
        years.append(year)
        values.append(sum(present))
    return np.array(years), np.array(values)


class TestRegionSeriesReference:
    @staticmethod
    def gappy_table(seed):
        rng = np.random.default_rng(seed)
        lines = ["entity,year,value"]
        for e in ("E0", "E1", "E2", "E3", "E4", "E5"):
            for y in rng.permutation(np.arange(1000, 2000, 5))[: rng.integers(20, 150)]:
                lines.append(f"{e},{y},{float(rng.lognormal(0.0, 2.0))!r}")
        return parse_long_csv(("\n".join(lines) + "\n").encode())

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("complete", [True, False])
    @pytest.mark.parametrize("members", [
        ("E0",), ("E3", "E1"), ("E5", "E0", "E2", "E4"), ("E4", "E3", "E2", "E1", "E0", "E5"),
    ])
    def test_matches_per_year_loop(self, seed, complete, members):
        table = self.gappy_table(seed)
        region = RegionDefinition("R", members, require_complete=complete)
        years, values = reference_region_series(table, region)
        if not len(years):
            with pytest.raises(RegionError, match="no usable years"):
                build_region_series(table, region)
            return
        s = build_region_series(table, region)
        assert s.years.tobytes() == years.tobytes()
        assert s.values.tobytes() == values.tobytes()


class TestRegionConfig:
    TEXT = """
[global]
unit_scale = 0.001

[Western Europe (4)]
members = Denmark, France, Netherlands, Sweden
window = 1:1875
takeoff_year = 1750
takeoff_halfwidth = 70

[Africa]
members = Total Africa
two_regime = true
require_complete = false
"""

    def test_parsed_fields(self):
        cfg = parse_region_config(self.TEXT)
        assert cfg.unit_scale == pytest.approx(1e-3)
        we4, africa = cfg.regions
        assert we4.definition.members == ("Denmark", "France", "Netherlands", "Sweden")
        assert we4.window == FitWindow(1.0, 1875.0)
        assert we4.takeoff == TakeoffHypothesis(1750.0, 70.0)
        assert we4.definition.require_complete is True
        assert africa.two_regime is True
        assert africa.definition.require_complete is False

    def test_missing_members_rejected(self):
        with pytest.raises(ParseError, match="^region 'R' is missing the members key$"):
            parse_region_config("[R]\nwindow = 1:2\n")

    @pytest.mark.parametrize("text, match", [
        ("members = A\n", "^bad region config: File contains no section headers"),
        # configparser's strict mode rejects a repeated section.
        ("[A]\nmembers = x\n[A]\nmembers = y\n",
         "^bad region config: While reading from '<string>' \\[line +3\\]: section 'A' already exists$"),
        # Each section takes its own keys only.  configparser lower-cases keys
        # and copies [DEFAULT]'s into every section, where each must be known.
        ("[global]\nunit_scle = 0.001\n[R]\nmembers = A\ntwo_regim = true\nwindw = 1:5\n",
         r"^section \[global\]: unknown key 'unit_scle'$"),
        ("[R]\nmembers = A\ntwo_regim = true\nwindw = 1:5\n",
         r"^section \[R\]: unknown key 'two_regim'$"),
        ("[R]\nMembers = A\nWindw = 1:5\n", r"^section \[R\]: unknown key 'windw'$"),
        ("[Global]\nmembers = A\n", r"^section \[Global\]: unknown key 'members'$"),
        ("[R]\nmembers = A\nunit_scale = 0.001\n", r"^section \[R\]: unknown key 'unit_scale'$"),
        ("[DEFAULT]\nunit_scale = 0.001\n[R]\nmembers = A\n",
         r"^section \[R\]: unknown key 'unit_scale'$"),
        ("[DEFAULT]\nrequire_complete = false\n[global]\nunit_scale = 1\n[R]\nmembers = A\n",
         r"^section \[global\]: unknown key 'require_complete'$"),
    ], ids=["no-section", "duplicate-region", "misspelt-global", "misspelt-region", "case-folded",
            "region-key-in-global", "global-key-in-region", "default-global-key",
            "default-region-key"])
    def test_malformed_config_message(self, text, match):
        with pytest.raises(ParseError, match=match):
            parse_region_config(text)

    # Values are literal: a '%' raised configparser's InterpolationSyntaxError,
    # and '%%' read as one '%'.
    def test_percent_in_value_is_literal(self):
        cfg = parse_region_config("[R]\nmembers = A%B, C%%D\n")
        assert cfg.regions[0].definition.members == ("A%B", "C%%D")
        table = parse_long_csv(b"entity,year,value\nA%B,1900,1\nC%%D,1900,2\n")
        assert build_region_series(table, cfg.regions[0].definition).values.tolist() == [3.0]

    @pytest.mark.parametrize("text, match", [
        ("[R]\nmembers = A\nrequire_complete = maybe\n",
         r"^section \[R\]: require_complete 'maybe' is not a boolean$"),
        ("[R]\nmembers = A\ntwo_regime = 2\n", r"^section \[R\]: two_regime '2' is not a boolean$"),
        ("[R]\nmembers = ,\n", "^region 'R' has no members$"),
        ("[R]\nmembers =\n", "^region 'R' has no members$"),
    ])
    def test_bad_region_value_is_parse_error(self, text, match):
        with pytest.raises(ParseError, match=match):
            parse_region_config(text)

    def test_default_key_reaches_every_region(self):
        cfg = parse_region_config("[DEFAULT]\nrequire_complete = false\n"
                                  "[A]\nmembers = a\n[B]\nmembers = b\n")
        assert [r.definition.require_complete for r in cfg.regions] == [False, False]

    def test_bad_window_rejected(self):
        with pytest.raises(ParseError, match="window"):
            parse_region_config("[R]\nmembers = A\nwindow = 1-2\n")

    @pytest.mark.parametrize("text, match", [
        ("[global]\nunit_scale = lots\n", r"\[global\]: unit_scale"),
        ("[global]\nunit_scale = nan\n", r"\[global\]: unit_scale"),
        ("[global]\nunit_scale = -1\n", r"\[global\]: unit_scale"),
        ("[R]\nmembers = A\nwindow = 1900:1800\n", r"\[R\]: window"),
        ("[R]\nmembers = A\nwindow = 1900:1900\n", r"\[R\]: window"),
        ("[R]\nmembers = A\nwindow = 1:inf\n", r"\[R\]: window end"),
        ("[R]\nmembers = A\ntakeoff_year = soon\n", r"\[R\]: takeoff_year"),
        ("[R]\nmembers = A\ntakeoff_year = nan\n", r"\[R\]: takeoff_year"),
        ("[R]\nmembers = A\ntakeoff_halfwidth = wide\n", r"\[R\]: takeoff_halfwidth"),
        ("[R]\nmembers = A\ntakeoff_halfwidth = -5\n", r"\[R\]: takeoff_halfwidth"),
        ("[R]\nmembers = A\ntakeoff_halfwidth = 0\n", r"\[R\]: takeoff_halfwidth"),
    ])
    def test_bad_number_names_section(self, text, match):
        with pytest.raises(ParseError, match=match):
            parse_region_config(text)
