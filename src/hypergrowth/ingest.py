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
from itertools import chain, repeat
from operator import itemgetter, length_hint

import numpy as np

from .errors import ParseError, RegionError, SeriesError, _finite
from .fit import FitWindow
from .series import YearValueSeries
from .takeoff import SEARCH_HALFWIDTH, TakeoffHypothesis


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


def _utf8(data: bytes) -> str:
    """``data`` decoded as UTF-8, less one leading byte order mark.

    Decoding before the mark is dropped keeps the byte position in a
    UnicodeDecodeError an offset into ``data``; the "utf-8-sig" codec counts
    from after the mark.
    """
    text = data.decode("utf-8")
    return text[1:] if text.startswith("\ufeff") else text


def _decode(data: bytes) -> str:
    try:
        return _utf8(data)
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not UTF-8 text ({exc})") from None


def _slow_row(row, line_num: int, rows: dict, unit_scale: float, what: str = "value"):
    """Apply every row rule, in order, to a row that ``_store``'s loop did not store.

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


def _rows(text: str, delimiter: str = ","):
    """The rows of ``text`` as ``csv.reader`` reads them, and a function that
    gives the line on which the last row read ends.

    Text with no ``"``, CR or NUL, no line over ``csv.field_size_limit()`` and
    a first line that is not empty is split in C, on LF and then on
    ``delimiter``, which is all ``csv.reader`` would do; a row's line is read
    off the list iterator.  An empty line after the first then reads as
    ``['']``, not ``[]``, which the row loops treat alike.  Other text is read
    by ``csv.reader``.
    """
    if not ('"' in text or "\r" in text or "\x00" in text or text.startswith("\n")):
        lines = text.split("\n")
        limit = csv.field_size_limit()
        step = limit // 2 + 1
        # A line longer than limit holds a whole block [i, i + step) with no
        # LF; only where such a block exists are the lines measured.
        if (all(text.find("\n", i, i + step) >= 0 for i in range(0, len(text) - step + 1, step))
                or max(map(len, lines)) <= limit):
            if not lines[-1]:  # a final LF, or empty text, ends no row
                lines.pop()
            it = iter(lines)
            return map(str.split, it, repeat(delimiter)), lambda: len(lines) - length_hint(it)
    reader = csv.reader(io.StringIO(text), delimiter=delimiter)
    return reader, lambda: reader.line_num


def _first_line(text: str) -> str:
    """``text.splitlines()[0]`` (or ``""``) without splitting the whole text.

    Its first line ends at or before the first ``"\\n"``, so only the text
    before that is split.
    """
    head = text.partition("\n")[0]
    return head.splitlines()[0] if head else ""


@contextlib.contextmanager
def _table_rows(data: bytes, unit_scale: float, delimiter: str | None):
    """The header row of the table in ``data``, a reader of its other rows and
    their line function; both table parsers start here.

    ``delimiter=None`` reads a tab if the first line holds one and no fewer
    tabs than commas, else a comma.  An error of the csv module (a field over
    its size limit, say) becomes a ParseError naming the line of the last row
    read.
    """
    _check_positive(unit_scale, "unit_scale")
    text = _decode(data)
    if delimiter is None:
        first_line = _first_line(text)
        delimiter = "\t" if "\t" in first_line and first_line.count("\t") >= first_line.count(",") else ","
    reader, line = _rows(text, delimiter)
    try:
        header = next(reader, None)
        if header is None:
            raise ParseError("line 1: empty file")
        yield header, reader, line
    except csv.Error as exc:
        raise ParseError(f"line {line()}: {exc}") from None


def _store(reader, line, unit_scale: float, what: str = "value") -> DatasetTable:
    """The table of the ``(entity, year, value)`` rows of ``reader``, the one
    loop that stores cells; ``line()`` is the line of the last row read, and
    ``what`` names the value in ``_slow_row``'s messages.

    A clean row costs one ``try``, one lookup of its year text, one range
    check of its value and one dict operation to store the cell.  A year text
    is parsed and range-checked only the first time it is read, and only a
    finite year is kept, so equal year texts share one float.  The entity is
    looked up only where a run of one entity's rows begins.  Every other row
    goes to ``_slow_row``, which applies the rules in order.
    """
    rows: dict[str, dict[float, float]] = {}
    years: dict[str, float] = {}  # year text, as read -> its float; finite only
    inf = math.inf
    last = cells = None
    for row in reader:
        # float() skips ASCII and Unicode spaces but not \x1c-\x1f, which
        # str.strip() removes: such a field takes the slow path, which strips.
        try:
            entity, year_s, value_s = row
            year = years.get(year_s)
            if year is None:
                year = float(year_s)
                if not -inf < year < inf:
                    raise ValueError
                years[year_s] = year
            value = float(value_s) * unit_scale
        except ValueError:
            pass
        else:
            if 0.0 < value < inf:
                if entity != last:  # a new run of one entity's rows
                    last = entity
                    cells = rows.setdefault(entity.strip(), {})
                if cells.setdefault(year, value) is value:
                    continue
        _slow_row(row, line(), rows, unit_scale, what)
    return DatasetTable(rows)


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

    Rows are read by ``_rows``: quote-free text is split by ``str.split`` in
    C, and other text, quoted fields included, by ``csv.reader``; the table is
    the same either way.  ``_store`` applies the rules.
    """
    with _table_rows(data, unit_scale, ",") as (header, reader, line):
        if [h.strip().lower() for h in header] != ["entity", "year", "value"]:
            raise ParseError(f"line 1: expected header entity,year,value, got {header}")
        return _store(reader, line, unit_scale)


def parse_wide_table(data: bytes, unit_scale: float = 1.0) -> DatasetTable:
    """Parse a wide layout: row 1 = ``entity`` plus year headers.

    The delimiter (comma or tab) is auto-detected from the header row.
    Blank cells mean missing; the other cells follow the long format's
    rules (see ``parse_long_csv``).  Rows may be shorter or longer than the
    header; cells past the last year column are ignored.

    Each row becomes ``(entity, year header, cell)`` rows, empty cells left
    out, which ``_store`` reads as a long CSV's; a message says "cell" where
    the long one says "value", and names the wide table's line.
    """
    with _table_rows(data, unit_scale, None) as (header, reader, line):
        if len(header) < 2:
            raise ParseError("line 1: wide table needs an entity column plus year columns")
        heads = [h.strip() for h in header[1:]]
        for head in heads:
            _parse_number(head, "year header", "line 1")
        cells = chain.from_iterable(zip(repeat(row[0]), heads, row[1:]) for row in reader if row)
        return _store(filter(itemgetter(2), cells), line, unit_scale, "cell")


def _csv_bytes(rows) -> bytes:
    """``rows`` in UTF-8 as written by ``csv.writer`` with LF line ends, except
    that a row whose first field (a name) holds a CR has every field quoted.

    With an LF terminator, ``csv.writer`` leaves a lone CR unquoted on Python
    3.11, and an unquoted CR ends the row when it is read back.
    """
    out = io.StringIO()
    plain = csv.writer(out, lineterminator="\n")
    quoted = csv.writer(out, lineterminator="\n", quoting=csv.QUOTE_ALL)
    for row in rows:
        (quoted if "\r" in row[0] else plain).writerow(row)
    return out.getvalue().encode("utf-8")


def serialize_long_csv(table: DatasetTable) -> bytes:
    """Deterministic long-CSV encoding; inverse of parse_long_csv.

    An entity name with surrounding whitespace raises ParseError, since
    parse_long_csv strips it off.
    """
    for entity in table.rows:
        if entity != entity.strip():
            raise ParseError(f"entity name {entity!r} has surrounding whitespace,"
                             " which the long CSV does not keep")
    cells = ((entity, f"{int(year)}" if year == int(year) else repr(year), repr(row[year]))
             for entity, row in table.rows.items() for year in sorted(row))
    return _csv_bytes([("entity", "year", "value"), *cells])


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
    window: FitWindow | None = None
    two_regime: bool = False
    takeoff: TakeoffHypothesis | None = None


@dataclass(frozen=True)
class AnalysisConfigFile:
    unit_scale: float
    regions: tuple[RegionConfig, ...]


# The keys each section of a region config takes.
_GLOBAL_KEYS = ("unit_scale",)
_REGION_KEYS = ("members", "require_complete", "window", "two_regime", "takeoff_year",
                "takeoff_halfwidth")


def _config_number(parser, section: str, key: str, fallback=None):
    """The finite number under ``key``, or ``fallback`` when the key is absent."""
    if not parser.has_option(section, key):
        return fallback
    return _parse_number(parser.get(section, key).strip(), key, f"section [{section}]")


def _config_bool(parser, section: str, key: str, fallback: bool) -> bool:
    """The boolean under ``key`` (true/false, yes/no, on/off, 1/0), or ``fallback`` if absent."""
    try:
        return parser.getboolean(section, key, fallback=fallback)
    except ValueError:
        raise ParseError(f"section [{section}]: {key} {parser.get(section, key)!r} "
                         "is not a boolean") from None


def parse_window(text: str, where: str) -> FitWindow:
    """The window of finite ``START:END`` years with START < END; ParseError naming
    ``where`` otherwise."""
    parts = text.split(":")
    if len(parts) != 2:
        raise ParseError(f"{where}: window must be START:END, got {text!r}")
    start = _parse_number(parts[0].strip(), "window start", where)
    end = _parse_number(parts[1].strip(), "window end", where)
    if not start < end:
        raise ParseError(f"{where}: window start must precede its end, got {text!r}")
    return FitWindow(start, end)


def parse_region_config(text: str) -> AnalysisConfigFile:
    """Parse the plain key-value region config.

    INI layout: an optional ``[global]`` section with ``unit_scale``; one
    section per region with ``members`` (comma-separated), and optional
    ``require_complete``, ``window`` (``START:END``), ``two_regime``,
    ``takeoff_year`` and ``takeoff_halfwidth`` keys; a ``takeoff_year`` makes
    the region's ``TakeoffHypothesis``.  Any other key, or a malformed or
    out-of-range value, raises ParseError naming its section, a
    ``takeoff_halfwidth`` without a ``takeoff_year`` included.  A
    ``[DEFAULT]`` key counts as written in every section.
    """
    parser = configparser.ConfigParser(interpolation=None)  # values are literal: no %-syntax
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ParseError(f"bad region config: {exc}") from exc
    unit_scale = 1.0
    regions = []
    for section in parser.sections():
        where = f"section [{section}]"
        is_global = section.lower() == "global"
        known = _GLOBAL_KEYS if is_global else _REGION_KEYS
        # options() holds the [DEFAULT] keys too, after the section's own.
        unknown = [key for key in parser.options(section) if key not in known]
        if unknown:
            raise ParseError(f"{where}: unknown key {unknown[0]!r}")
        if is_global:
            unit_scale = _config_number(parser, section, "unit_scale", 1.0)
            _check_positive(unit_scale, f"{where}: unit_scale")
            continue
        if not parser.has_option(section, "members"):
            raise ParseError(f"region {section!r} is missing the members key")
        members = tuple(
            m.strip() for m in parser.get(section, "members").split(",") if m.strip()
        )
        if not members:
            raise ParseError(f"region {section!r} has no members")
        definition = RegionDefinition(
            name=section,
            members=members,
            require_complete=_config_bool(parser, section, "require_complete", True),
        )
        window = None
        if parser.has_option(section, "window"):
            window = parse_window(parser.get(section, "window"), where)
        halfwidth = _config_number(parser, section, "takeoff_halfwidth", SEARCH_HALFWIDTH)
        _check_positive(halfwidth, f"{where}: takeoff_halfwidth")
        two_regime = _config_bool(parser, section, "two_regime", False)
        takeoff_year = _config_number(parser, section, "takeoff_year")
        takeoff = None if takeoff_year is None else TakeoffHypothesis(takeoff_year, halfwidth)
        regions.append(RegionConfig(definition, window, two_regime, takeoff))
    return AnalysisConfigFile(unit_scale=unit_scale, regions=tuple(regions))
