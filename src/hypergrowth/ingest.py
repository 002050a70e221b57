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
import contextlib
import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, RegionError, SeriesError, _finite
from .series import YearValueSeries


@dataclass(frozen=True)
class RegionDefinition:
    """A named aggregate of source entities, summed per year."""

    name: str
    members: tuple[str, ...]
    require_complete: bool = True

    def __post_init__(self):
        if isinstance(self.members, str):
            raise RegionError(f"region {self.name!r} members must be a sequence of names, "
                              f"not the text {self.members!r}")
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

    def entity_series(self, entity: str) -> YearValueSeries:
        row = self.rows.get(entity)
        if row is None:
            raise RegionError(f"unknown entity {entity!r}")
        years = sorted(row)
        return YearValueSeries(
            np.array(years), np.array([row[y] for y in years]), entity
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
    if not (_finite(value) and value > 0):
        shown = f"{value:g}" if isinstance(value, float) else repr(value)
        raise ParseError(f"{what} {shown} is not a positive finite number")


def _decode(data: bytes) -> str:
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not UTF-8 text ({exc})") from None


def _slow_row(row, line_num: int, rows: dict, unit_scale: float, what: str = "value"):
    """Apply every row rule, in order, to a row the fast loop did not store.

    ``row`` is a long-CSV row, or a wide table's (entity, year header, cell).
    The rules: three fields, unless all are blank (skip); a blank value
    (skip); a number for the year, then for the value; a cell that no earlier
    row named; a value positive and finite after ``unit_scale``.  A good row
    is stored in ``rows`` and a bad one raises ParseError naming line
    ``line_num``; an entity enters ``rows`` only with one of these two.
    """
    where = f"line {line_num}"
    if len(row) != 3:
        if any(c.strip() for c in row):
            raise ParseError(f"{where}: expected 3 fields, got {len(row)}")
        return
    entity, year_s, value_s = [c.strip() for c in row]
    if not value_s:
        return
    year = _parse_number(year_s, "year", where)
    value = _parse_number(value_s, what, where) * unit_scale
    cells = rows.setdefault(entity, {})
    if year in cells:
        raise ParseError(f"{where}: duplicate cell for ({entity}, {year:g})")
    if not 0.0 < value < math.inf:
        if value > 0:
            raise ParseError(f"{where}: value for ({entity}, {year:g}) is not finite"
                             f" after unit_scale {unit_scale:g}")
        raise ParseError(f"{where}: value {value:g} for ({entity}, {year:g}) is not positive")
    cells[year] = value


@contextlib.contextmanager
def _csv_errors(reader):
    """Turn the csv module's own errors (a field over its size limit, say)
    into a ParseError naming the reader's line."""
    try:
        yield
    except csv.Error as exc:
        raise ParseError(f"line {reader.line_num}: {exc}") from None


def _first_line(text: str) -> str:
    """``text.splitlines()[0]`` (or ``""``) without splitting the whole text.

    Its first line ends at or before the first ``"\\n"``, so only the text
    before that is split.
    """
    head = text.partition("\n")[0]
    return head.splitlines()[0] if head else ""


def parse_long_csv(data: bytes, unit_scale: float = 1.0) -> DatasetTable:
    """Parse the canonical long format: header ``entity,year,value``.

    The input is UTF-8 text, and a leading byte order mark is dropped.  Row
    rules: fields are stripped of surrounding whitespace, and quoted fields
    are allowed.  A row whose fields are all blank is skipped, and a blank
    value is a missing observation.  Every other row has exactly three
    fields, a numeric year and a numeric value, and names a cell not seen
    before; the value must be positive and finite after multiplying by
    ``unit_scale``.  The first bad row raises ParseError naming the line on
    which it ends (a quoted field may span lines).

    A clean row costs one ``try``, one range check and one dict operation;
    its entity is looked up only where a run of one entity's rows begins.
    Every other row goes to ``_slow_row``, which applies the rules in order.
    """
    _check_positive(unit_scale, "unit_scale")
    text = _decode(data)
    reader = csv.reader(io.StringIO(text))
    with _csv_errors(reader):
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("line 1: empty file") from None
        if [h.strip().lower() for h in header] != ["entity", "year", "value"]:
            raise ParseError(f"line 1: expected header entity,year,value, got {header}")
        rows: dict[str, dict[float, float]] = {}
        inf = math.inf
        last = cells = None
        for row in reader:
            # float() skips ASCII and Unicode spaces but not \x1c-\x1f, which
            # str.strip() removes: such a field takes the slow path, which strips.
            try:
                entity, year_s, value_s = row
                year = float(year_s)
                value = float(value_s) * unit_scale
            except ValueError:
                pass
            else:
                if -inf < year < inf and 0.0 < value < inf:
                    if entity != last:  # a new run of one entity's rows
                        last = entity
                        cells = rows.setdefault(entity.strip(), {})
                    if cells.setdefault(year, value) is value:
                        continue
            _slow_row(row, reader.line_num, rows, unit_scale)
    return DatasetTable(rows)


def parse_wide_table(data: bytes, unit_scale: float = 1.0) -> DatasetTable:
    """Parse a wide layout: row 1 = ``entity`` plus year headers.

    The delimiter (comma or tab) is auto-detected from the header row.
    Blank cells mean missing; the other cells follow the long format's
    rules (see ``parse_long_csv``).  Rows may be shorter or longer than the
    header; cells past the last year column are ignored.
    """
    _check_positive(unit_scale, "unit_scale")
    text = _decode(data)
    first_line = _first_line(text)
    delimiter = "\t" if first_line.count("\t") >= first_line.count(",") and "\t" in first_line else ","
    reader = csv.reader(io.StringIO(text), delimiter=delimiter)
    with _csv_errors(reader):
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("line 1: empty file") from None
        if len(header) < 2:
            raise ParseError("line 1: wide table needs an entity column plus year columns")
        heads = header[1:]
        years = [_parse_number(h.strip(), "year header", "line 1") for h in heads]
        rows: dict[str, dict[float, float]] = {}
        inf, nan = math.inf, math.nan
        for row in reader:
            cells = None
            for year, head, cell in zip(years, heads, row[1:]):
                cell = cell.strip()
                if not cell:
                    continue
                try:
                    value = float(cell) * unit_scale
                except ValueError:
                    value = nan
                if 0.0 < value < inf:
                    if cells is None:
                        cells = rows.setdefault(row[0].strip(), {})
                    if cells.setdefault(year, value) is value:
                        continue
                _slow_row((row[0], head, cell), reader.line_num, rows, unit_scale, "cell")
    return DatasetTable(rows)


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
        columns = [[row[y] for y in years] for row in rows]
    else:
        years = sorted(set().union(*rows))
        # A missing member adds 0.0, which leaves a positive sum unchanged.
        columns = [[row.get(y, 0.0) for y in years] for row in rows]
    if not years:
        raise RegionError(f"region {region.name!r} has no usable years")
    values = [sum(cells) for cells in zip(*columns)]
    try:
        return YearValueSeries(np.array(years), np.array(values), region.name)
    except SeriesError as exc:  # a sum that overflows to inf
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
