"""Table parsing, unit conversion, region aggregation, config files."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hypergrowth import (
    ParseError,
    RegionDefinition,
    RegionError,
    build_region_series,
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

    @pytest.mark.parametrize("unit_scale", [float("nan"), float("inf"), 0.0, -1e-3])
    def test_bad_unit_scale(self, unit_scale):
        with pytest.raises(ParseError, match="unit_scale"):
            parse_long_csv(b"entity,year,value\nWorld,1000,5\n", unit_scale)

    def test_entities_keep_first_seen_order(self):
        table = parse_long_csv(
            b"entity,year,value\nS,1900,1\nN,1900,2\nS,1950,3\nA,1800,4\nN,1800,5\n"
        )
        assert table.entities == ["S", "N", "A"]

    def test_crlf_accepted(self):
        table = parse_long_csv(b"entity,year,value\r\nWorld,1000,116.8\r\n")
        assert table.value("World", 1000.0) == pytest.approx(116.8)


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

    def test_unknown_member(self):
        with pytest.raises(RegionError, match="not in table"):
            build_region_series(self.TABLE, RegionDefinition("R", ("N", "X")))

    def test_empty_result(self):
        table = parse_long_csv(b"entity,year,value\nN,1900,1\nS,1950,2\n")
        with pytest.raises(RegionError, match="no usable years"):
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
        assert we4.window == (1.0, 1875.0)
        assert we4.takeoff_year == 1750.0
        assert we4.takeoff_halfwidth == 70.0
        assert we4.definition.require_complete is True
        assert africa.two_regime is True
        assert africa.definition.require_complete is False

    def test_missing_members_rejected(self):
        with pytest.raises(ParseError, match="members"):
            parse_region_config("[R]\nwindow = 1:2\n")

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
