"""Parsing of trade-flow, GDP and recession-window tables, and per-year
network assembly.

File formats (all UTF-8 CSV with a header row):
  trade:      year,reporter,partner,value_usd
  gdp:        year,country,gdp_usd
  recessions: label,start,end            (dates as YYYY-MM)
"""

from __future__ import annotations

import csv
import io
import itertools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import Degenerate, MissingGdp, ParseError

log = logging.getLogger(__name__)

TRADE_HEADER = ["year", "reporter", "partner", "value_usd"]
GDP_HEADER = ["year", "country", "gdp_usd"]
RECESSION_HEADER = ["label", "start", "end"]


@dataclass(frozen=True, eq=False)
class TradePanel:
    """Directed trade flows as columns, one entry per kept row in file
    order: value[k] USD exported by reporter[k] to partner[k] in year[k].
    Self-loops are already dropped."""

    year: np.ndarray
    reporter: np.ndarray
    partner: np.ndarray
    value: np.ndarray

    def __len__(self) -> int:
        return len(self.value)

    def years(self) -> list[int]:
        """The distinct years, sorted (from a sorted copy: faster than np.unique)."""
        year = np.sort(self.year)
        first = np.ones(len(year), dtype=bool)
        first[1:] = year[1:] != year[:-1]
        return year[first].tolist()


@dataclass(frozen=True)
class RecessionWindow:
    label: str
    start: tuple[int, int]  # (year, month)
    end: tuple[int, int]


@dataclass
class TradeNetwork:
    """Symmetric weighted trade matrix for one year.

    countries are sorted lexicographically; m is symmetric with zero
    diagonal, entries in raw US dollars.
    """

    year: int
    countries: list[str]
    m: np.ndarray

    @property
    def n(self) -> int:
        return len(self.countries)


def _as_stream(stream):
    if isinstance(stream, str):
        return io.StringIO(stream)
    return stream


def _check_header(reader, expected, what):
    """Read and check the header row, line 1, of a csv.reader."""
    try:
        row = next(reader, None)
    except csv.Error as exc:
        raise ParseError(str(exc), line=1) from None
    if row is None or [c.strip().lower() for c in row] != expected:
        raise ParseError(
            f"{what} header must be {','.join(expected)}, got {row}", line=1
        )


def _csv_rows(stream, header, what):
    """(line number, row) of each non-blank row after a checked header,
    every row holding one field per header column. A row whose quoted
    field spans lines is numbered by its first line, and so is a csv.Error
    (a field over the field size limit) in it."""
    reader = csv.reader(_as_stream(stream))
    _check_header(reader, header, what)
    start = reader.line_num + 1
    try:
        for row in reader:
            lineno, start = start, reader.line_num + 1
            if not row:
                continue
            if len(row) != len(header):
                raise ParseError(
                    f"expected {len(header)} columns, got {len(row)}", line=lineno
                )
            yield lineno, row
    except csv.Error as exc:
        raise ParseError(str(exc), line=start) from None


def _parse_country(code, lineno):
    code = code.strip()
    upper = code.upper()
    if len(upper) != 3 or not upper.isalpha():
        raise ParseError(f"bad country code {code!r}", line=lineno)
    return upper


# U4 fields, which _CODE_POINTS views as 4 code points each: a wider one is
# truncated, so its 4th point is nonzero and it goes to the row parser
_TRADE_DTYPE = np.dtype(
    [("year", "i8"), ("reporter", "U4"), ("partner", "U4"), ("value", "f8")])
_CODE_POINTS = np.dtype({
    "names": ["reporter", "partner"], "formats": [("=u4", 4)] * 2,
    "offsets": [_TRADE_DTYPE.fields[f][1] for f in ("reporter", "partner")],
    "itemsize": _TRADE_DTYPE.itemsize})


def parse_trade_csv(stream) -> TradePanel:
    """Parse directed trade flows; self-loops are dropped with a counted
    warning rather than rejected.

    The body is read with one np.loadtxt call and checked column-wise. If
    either rejects any row or the text holds a NUL, the row parser re-reads
    the whole stream: it alone decides errors and their line numbers, and it
    accepts what loadtxt does not (quoted fields, "1_000", years beyond int64)."""
    stream = _as_stream(stream)
    if not stream.seekable():
        stream = io.StringIO(stream.read())
    start = stream.tell()
    _check_header(csv.reader(stream), TRADE_HEADER, "trade")
    panel = _read_trade_columns(stream)
    # a U field reads "USA\0" as "USA"; a header that passed has no NUL
    stream.seek(start)
    if panel is None or any("\0" in s for s in iter(lambda: stream.read(1 << 20), "")):
        stream.seek(start)
        panel = _parse_trade_rows(stream)
    return panel


def _read_trade_columns(stream):
    """TradePanel of the body in one np.loadtxt read, or None if any row
    needs the row parser."""
    try:
        # loadtxt warns on a body without data, so look for one first
        first = next((line for line in stream if line.strip("\r\n")), None)
        if first is None:
            return None
        table = np.loadtxt(itertools.chain([first], stream), delimiter=",",
                           comments=None, dtype=_TRADE_DTYPE, ndmin=1)
    except ValueError:
        return None
    value = table["value"]
    if not (np.isfinite(value).all() and (value >= 0).all()):
        return None
    reporter = _country_codes(table, "reporter")
    partner = _country_codes(table, "partner")
    if reporter is None or partner is None:
        return None
    # copies, so that the panel does not keep the whole table alive
    return _trade_panel(table["year"].copy(), reporter, partner, value.copy())


def _country_codes(table, field):
    """_parse_country on a U4 column as <U3, or None unless every code is
    three ASCII letters and nothing else; each is upper-cased by clearing
    bit 5 of its letters."""
    points = table.view(_CODE_POINTS)[field]
    upper = points[:, :3] & ~np.uint32(0x20)
    if points[:, 3].any() or not (upper - ord("A") < 26).all():
        return None
    return upper.view("U3").ravel()


def _trade_panel(year, reporter, partner, value):
    """TradePanel of parsed columns, with self-loops dropped and counted."""
    loops = reporter == partner
    if loops.any():
        log.warning("dropped %d self-loop row(s)", np.count_nonzero(loops))
        keep = ~loops
        return TradePanel(year[keep], reporter[keep], partner[keep], value[keep])
    return TradePanel(year, reporter, partner, value)


def _parse_trade_rows(stream) -> TradePanel:
    """parse_trade_csv row by row, parsing each distinct year or code text once."""
    years, reporters, partners, values = [], [], [], []
    year_of, codes = {}, {}
    for lineno, row in _csv_rows(stream, TRADE_HEADER, "trade"):
        try:
            year = year_of.get(row[0]) or year_of.setdefault(row[0], int(row[0]))
            value = float(row[3])
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from None
        if not math.isfinite(value):
            raise ParseError(f"non-finite value {row[3]!r}", line=lineno)
        if value < 0:
            raise ParseError(f"negative trade value {value}", line=lineno)
        years.append(year)
        for out, key in ((reporters, row[1]), (partners, row[2])):
            out.append(codes.get(key) or codes.setdefault(key, _parse_country(key, lineno)))
        values.append(value)
    try:
        year = np.array(years, dtype=np.int64)
    except OverflowError:  # years beyond int64 stay Python ints
        year = np.array(years, dtype=object)
    return _trade_panel(year, np.array(reporters, dtype="U3"),
                        np.array(partners, dtype="U3"), np.array(values))


def parse_gdp_csv(stream) -> dict[tuple[int, str], float]:
    """Parse the GDP table into a (year, country) -> gdp lookup."""
    table: dict[tuple[int, str], float] = {}
    for lineno, row in _csv_rows(stream, GDP_HEADER, "gdp"):
        try:
            year = int(row[0])
            gdp = float(row[2])
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from None
        country = _parse_country(row[1], lineno)
        if not math.isfinite(gdp) or gdp <= 0:
            raise ParseError(f"gdp must be positive, got {row[2]!r}", line=lineno)
        key = (year, country)
        if key in table:
            raise ParseError(f"duplicate gdp row for {key}", line=lineno)
        table[key] = gdp
    return table


def gdp_of(gdp, year, countries) -> list[float]:
    """The GDPs of countries in year from a parse_gdp_csv table, in the
    order of countries. Raises MissingGdp naming every country without one."""
    missing = [c for c in countries if (year, c) not in gdp]
    if missing:
        raise MissingGdp(missing)
    return [gdp[(year, c)] for c in countries]


def _parse_year_month(text, lineno):
    parts = text.strip().split("-")
    if len(parts) != 2:
        raise ParseError(f"expected YYYY-MM, got {text!r}", line=lineno)
    try:
        year, month = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError(f"expected YYYY-MM, got {text!r}", line=lineno) from None
    if not 1 <= month <= 12:
        raise ParseError(f"month out of range in {text!r}", line=lineno)
    return (year, month)


def parse_recessions(stream) -> list[RecessionWindow]:
    """Parse recession windows, sorted by start date; overlapping windows
    are legal but logged."""
    windows = []
    for lineno, row in _csv_rows(stream, RECESSION_HEADER, "recessions"):
        start = _parse_year_month(row[1], lineno)
        end = _parse_year_month(row[2], lineno)
        if start > end:
            raise ParseError(f"window {row[0]!r} starts after it ends", line=lineno)
        windows.append(RecessionWindow(row[0].strip(), start, end))
    windows.sort(key=lambda w: w.start)
    for a, b in zip(windows, windows[1:]):
        if b.start <= a.end:
            log.warning("recession windows %r and %r overlap", a.label, b.label)
    return windows


def directed_flows(panel, year):
    """Directed flow matrix of one year over its active countries (sorted);
    duplicate (reporter, partner) rows are summed in file order."""
    rows = panel.year == year
    k = int(np.count_nonzero(rows))
    if not k:
        raise Degenerate(f"no trade records for year {year}")
    keys, index = np.unique(
        _code_keys(np.concatenate([panel.reporter[rows], panel.partner[rows]])),
        return_inverse=True,
    )
    x = np.zeros((len(keys), len(keys)))
    np.add.at(x, (index[:k], index[k:]), panel.value[rows])
    return _key_codes(keys).tolist(), x


# A U3 code as one int64 key c0 << 42 | c1 << 21 | c2 of its three code
# points, each below 2**21: the keys sort as the codes do, and faster.
_POINT_BITS = 21
_POINT_MASK = (1 << _POINT_BITS) - 1


def _code_keys(codes):
    c = codes.astype("U3", copy=False).view(np.uint32).reshape(-1, 3).astype(np.int64)
    return (c[:, 0] << 2 * _POINT_BITS) | (c[:, 1] << _POINT_BITS) | c[:, 2]


def _key_codes(keys):
    """The U3 codes, in native byte order, of _code_keys keys."""
    c = np.stack([keys >> 2 * _POINT_BITS, (keys >> _POINT_BITS) & _POINT_MASK,
                  keys & _POINT_MASK], axis=1)
    return c.astype(np.uint32).view("U3").ravel()


def symmetrize(year, countries, x) -> TradeNetwork:
    """TradeNetwork of a directed flow matrix x over countries: M_ij =
    X_ij + X_ji, the total bilateral trade, with a zero diagonal. Raises
    Degenerate when a sum overflows."""
    with np.errstate(over="ignore"):
        m = x + x.T
    np.fill_diagonal(m, 0.0)
    if not np.isfinite(m).all():
        raise Degenerate(f"bilateral trade of year {year} overflows")
    return TradeNetwork(year=year, countries=list(countries), m=m)


def build_network(panel, year) -> TradeNetwork:
    """Symmetrize one year of a TradePanel into a TradeNetwork."""
    return symmetrize(year, *directed_flows(panel, year))
