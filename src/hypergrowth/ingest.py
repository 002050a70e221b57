"""Parsing, validation and aggregation of historical GDP tables.

The canonical on-disk format is the long CSV (``entity,year,value``); the
wide parser is an adapter for Maddison-style layouts (rows = entities,
columns = years).  Values are converted to billions of 1990 Geary-Khamis
dollars at ingestion via ``unit_scale`` (e.g. 1e-3 for million-denominated
sources) and must be positive after scaling.  Nothing is interpolated: years
missing from a source stay missing.
"""

from __future__ import annotations

import configparser
import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, RegionError, SeriesError
from .series import YearValueSeries


@dataclass(frozen=True)
class RegionDefinition:
    """A named aggregate of source entities, summed per year."""

    name: str
    members: tuple[str, ...]
    require_complete: bool = True

    def __post_init__(self):
        if not self.members:
            raise RegionError(f"region {self.name!r} has no members")
        object.__setattr__(self, "members", tuple(self.members))


@dataclass
class DatasetTable:
    """Sparse entity -> {year -> value} table, already unit-converted.

    Entities keep the order in which the source first names them.
    """

    rows: dict[str, dict[float, float]]

    @property
    def entities(self) -> list[str]:
        return list(self.rows)

    def value(self, entity: str, year: float) -> float | None:
        return self.rows.get(entity, {}).get(year)

    def entity_series(self, entity: str, label: str | None = None) -> YearValueSeries:
        row = self.rows.get(entity)
        if row is None:
            raise RegionError(f"unknown entity {entity!r}")
        years = sorted(row)
        return YearValueSeries(
            np.array(years), np.array([row[y] for y in years]), label or entity
        )


def _parse_number(text: str, what: str, where: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"{where}: {what} {text!r} is not a number") from None
    if not math.isfinite(value):
        raise ParseError(f"{where}: {what} {text!r} is not finite")
    return value


def _check_positive(value: float, what: str):
    if not (value > 0 and math.isfinite(value)):
        raise ParseError(f"{what} {value:g} is not a positive finite number")


def _decode(data: bytes) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not UTF-8 text ({exc})") from None


def _add_cell(table: DatasetTable, entity: str, year: float, value: float, line_no: int):
    row = table.rows.setdefault(entity, {})
    if year in row:
        raise ParseError(f"line {line_no}: duplicate cell for ({entity}, {year:g})")
    if value <= 0:
        raise ParseError(
            f"line {line_no}: value {value:g} for ({entity}, {year:g}) is not positive"
        )
    row[year] = value


def parse_long_csv(data: bytes, unit_scale: float = 1.0) -> DatasetTable:
    """Parse the canonical long format: header ``entity,year,value``.

    Rows with an empty value field are skipped (missing observation); any
    malformed row raises ParseError naming its line number.
    """
    _check_positive(unit_scale, "unit_scale")
    text = _decode(data)
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("line 1: empty file") from None
    if [h.strip().lower() for h in header] != ["entity", "year", "value"]:
        raise ParseError(f"line 1: expected header entity,year,value, got {header}")
    table = DatasetTable({})
    for line_no, row in enumerate(reader, start=2):
        fields = [c.strip() for c in row]
        if not any(fields):
            continue
        if len(fields) != 3:
            raise ParseError(f"line {line_no}: expected 3 fields, got {len(fields)}")
        entity, year_s, value_s = fields
        if not value_s:
            continue
        year = _parse_number(year_s, "year", f"line {line_no}")
        value = _parse_number(value_s, "value", f"line {line_no}") * unit_scale
        _add_cell(table, entity, year, value, line_no)
    return table


def parse_wide_table(data: bytes, unit_scale: float = 1.0) -> DatasetTable:
    """Parse a wide layout: row 1 = ``entity`` plus year headers.

    The delimiter (comma or tab) is auto-detected from the header row.
    Blank cells mean missing; every present cell must be numeric.
    """
    _check_positive(unit_scale, "unit_scale")
    text = _decode(data)
    first_line = text.splitlines()[0] if text.splitlines() else ""
    delimiter = "\t" if first_line.count("\t") >= first_line.count(",") and "\t" in first_line else ","
    reader = csv.reader(io.StringIO(text), delimiter=delimiter)
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("line 1: empty file") from None
    if len(header) < 2:
        raise ParseError("line 1: wide table needs an entity column plus year columns")
    years = [
        _parse_number(h.strip(), "year header", "line 1") for h in header[1:]
    ]
    table = DatasetTable({})
    for line_no, row in enumerate(reader, start=2):
        fields = [c.strip() for c in row]
        if not any(fields):
            continue
        for year, cell in zip(years, fields[1:]):
            if not cell:
                continue
            value = _parse_number(cell, "cell", f"line {line_no}") * unit_scale
            _add_cell(table, fields[0], year, value, line_no)
    return table


def serialize_long_csv(table: DatasetTable) -> bytes:
    """Deterministic long-CSV encoding; inverse of parse_long_csv."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["entity", "year", "value"])
    for entity, row in table.rows.items():
        for year in sorted(row):
            writer.writerow([entity, f"{int(year)}" if year == int(year) else repr(year), repr(row[year])])
    return out.getvalue().encode("utf-8")


def series_to_long_csv(series: YearValueSeries) -> bytes:
    """Long-CSV encoding of a single series (entity = label)."""
    row = dict(zip(series.years.tolist(), series.values.tolist()))
    return serialize_long_csv(DatasetTable({series.label or "series": row}))


def build_region_series(table: DatasetTable, region: RegionDefinition) -> YearValueSeries:
    """Sum member entities per year into one series.

    With ``require_complete`` (the default) a year is kept only when every
    member reports it; summing over a changing member set would fabricate
    growth.  Otherwise the sum runs over whichever members are present.
    Members are summed in the region's order.
    """
    rows = []
    for member in region.members:
        if member not in table.rows:
            raise RegionError(
                f"region {region.name!r}: member {member!r} not in table"
            )
        rows.append(table.rows[member])
    if region.require_complete:
        years = sorted(set(rows[0]).intersection(*rows[1:]))
    else:
        years = sorted(set().union(*rows))
    if not years:
        raise RegionError(f"region {region.name!r} has no usable years")
    values = [sum(row[y] for row in rows if y in row) for y in years]
    try:
        return YearValueSeries(np.array(years), np.array(values), region.name)
    except SeriesError as exc:  # pragma: no cover - positivity is inherited
        raise RegionError(f"region {region.name!r}: {exc}") from exc


@dataclass(frozen=True)
class RegionConfig:
    """One region's analysis settings from a config file."""

    definition: RegionDefinition
    window: tuple[float, float] | None = None
    two_regime: bool = False
    takeoff_year: float | None = None
    takeoff_halfwidth: float = 50.0


@dataclass(frozen=True)
class AnalysisConfigFile:
    unit_scale: float
    regions: tuple[RegionConfig, ...]


def _config_number(parser, section: str, key: str, fallback=None):
    """The finite number under ``key``, or ``fallback`` when the key is absent."""
    if not parser.has_option(section, key):
        return fallback
    return _parse_number(parser.get(section, key).strip(), key, f"section [{section}]")


def parse_window(text: str, where: str) -> tuple[float, float]:
    """Finite ``START:END`` years with START < END; ParseError naming ``where`` otherwise."""
    parts = text.split(":")
    if len(parts) != 2:
        raise ParseError(f"{where}: window must be START:END, got {text!r}")
    start = _parse_number(parts[0].strip(), "window start", where)
    end = _parse_number(parts[1].strip(), "window end", where)
    if not start < end:
        raise ParseError(f"{where}: window start must precede its end, got {text!r}")
    return start, end


def parse_region_config(text: str) -> AnalysisConfigFile:
    """Parse the plain key-value region config.

    INI layout: an optional ``[global]`` section with ``unit_scale``; one
    section per region with ``members`` (comma-separated), and optional
    ``require_complete``, ``window`` (``START:END``), ``two_regime``,
    ``takeoff_year`` and ``takeoff_halfwidth`` keys.  A malformed or
    out-of-range value raises ParseError naming its section.
    """
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ParseError(f"bad region config: {exc}") from exc
    unit_scale = 1.0
    regions = []
    names = set()
    for section in parser.sections():
        where = f"section [{section}]"
        if section.lower() == "global":
            unit_scale = _config_number(parser, section, "unit_scale", 1.0)
            _check_positive(unit_scale, f"{where}: unit_scale")
            continue
        if section in names:
            raise ParseError(f"duplicate region {section!r}")
        names.add(section)
        if not parser.has_option(section, "members"):
            raise ParseError(f"region {section!r} is missing the members key")
        members = tuple(
            m.strip() for m in parser.get(section, "members").split(",") if m.strip()
        )
        definition = RegionDefinition(
            name=section,
            members=members,
            require_complete=parser.getboolean(section, "require_complete", fallback=True),
        )
        window = None
        if parser.has_option(section, "window"):
            window = parse_window(parser.get(section, "window"), where)
        halfwidth = _config_number(parser, section, "takeoff_halfwidth", 50.0)
        _check_positive(halfwidth, f"{where}: takeoff_halfwidth")
        regions.append(
            RegionConfig(
                definition=definition,
                window=window,
                two_regime=parser.getboolean(section, "two_regime", fallback=False),
                takeoff_year=_config_number(parser, section, "takeoff_year"),
                takeoff_halfwidth=halfwidth,
            )
        )
    return AnalysisConfigFile(unit_scale=unit_scale, regions=tuple(regions))
