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

from .errors import (
    BadCountryCode,
    DuplicateKey,
    EmptyYear,
    MalformedDate,
    MalformedRow,
    NegativeValue,
    NonPositiveGdp,
    StartAfterEnd,
)

log = logging.getLogger(__name__)

TRADE_HEADER = ["year", "reporter", "partner", "value_usd"]
GDP_HEADER = ["year", "country", "gdp_usd"]
RECESSION_HEADER = ["label", "start", "end"]

SYMMETRIZATION_MODES = ("sum", "max", "mean")


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
        """The distinct years, sorted."""
        return np.unique(self.year).tolist()


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


def _check_header(row, expected, what):
    if row is None or [c.strip().lower() for c in row] != expected:
        raise MalformedRow(
            f"{what} header must be {','.join(expected)}, got {row}", line=1
        )


def _parse_country(code, lineno):
    code = code.strip()
    upper = code.upper()
    if len(upper) != 3 or not upper.isalpha():
        raise BadCountryCode(f"bad country code {code!r}", line=lineno)
    return upper


# U8 fields: a wider one is truncated, so a field of 8 or more characters
# goes to the row parser
_TRADE_DTYPE = [("year", "i8"), ("reporter", "U8"), ("partner", "U8"), ("value", "f8")]


def parse_trade_csv(stream) -> TradePanel:
    """Parse directed trade flows; self-loops are dropped with a counted
    warning rather than rejected.

    The body is read with one np.loadtxt call and checked column-wise. If
    either rejects any row, the row parser re-reads the whole stream: it
    alone decides errors and their line numbers, and it accepts what
    loadtxt does not (quoted fields, "1_000", years beyond int64)."""
    stream = _as_stream(stream)
    if not stream.seekable():
        stream = io.StringIO(stream.read())
    start = stream.tell()
    _check_header(next(csv.reader(stream), None), TRADE_HEADER, "trade")
    panel = _read_trade_columns(stream)
    if panel is None:
        stream.seek(start)
        panel = _parse_trade_rows(stream)
    return panel


def _lines_without_nul(stream):
    # a U column drops trailing NULs, which would read "USA\0" as "USA"
    for line in stream:
        if "\0" in line:
            raise ValueError("NUL character")
        yield line


def _read_trade_columns(stream):
    """TradePanel of the body in one np.loadtxt read, or None if any row
    needs the row parser."""
    lines = _lines_without_nul(stream)
    try:
        # loadtxt warns on a body without data, so look for one first
        first = next((line for line in lines if line.strip("\r\n")), None)
        if first is None:
            return None
        table = np.loadtxt(itertools.chain([first], lines), delimiter=",",
                           comments=None, dtype=_TRADE_DTYPE, ndmin=1)
    except ValueError:
        return None
    value = table["value"]
    if not (np.isfinite(value).all() and (value >= 0).all()):
        return None
    reporter = _country_codes(table["reporter"])
    partner = _country_codes(table["partner"])
    if reporter is None or partner is None:
        return None
    # copies, so that the panel does not keep the whole table alive
    return _trade_panel(table["year"].copy(), reporter, partner, value.copy())


def _country_codes(raw):
    """_parse_country on a U8 column as <U3, or None if a code is bad."""
    if (np.char.str_len(raw) >= 8).any():
        return None
    codes = np.char.strip(raw)
    # str.upper runs per element, so only on the codes it changes
    lower = ~np.char.isupper(codes)
    if lower.any():
        codes[lower] = np.char.upper(codes[lower])
    if not ((np.char.str_len(codes) == 3).all() and np.char.isalpha(codes).all()):
        return None
    return codes.astype("U3")


def _trade_panel(year, reporter, partner, value):
    """TradePanel of parsed columns, with self-loops dropped and counted."""
    loops = reporter == partner
    if loops.any():
        log.warning("dropped %d self-loop row(s)", np.count_nonzero(loops))
        keep = ~loops
        return TradePanel(year[keep], reporter[keep], partner[keep], value[keep])
    return TradePanel(year, reporter, partner, value)


def _parse_trade_rows(stream) -> TradePanel:
    """parse_trade_csv one csv row at a time."""
    reader = csv.reader(stream)
    _check_header(next(reader, None), TRADE_HEADER, "trade")
    years, reporters, partners, values = [], [], [], []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 4:
            raise MalformedRow(f"expected 4 columns, got {len(row)}", line=lineno)
        try:
            year = int(row[0])
            value = float(row[3])
        except ValueError as exc:
            raise MalformedRow(str(exc), line=lineno) from None
        if not math.isfinite(value):
            raise MalformedRow(f"non-finite value {row[3]!r}", line=lineno)
        if value < 0:
            raise NegativeValue(f"negative trade value {value}", line=lineno)
        years.append(year)
        reporters.append(_parse_country(row[1], lineno))
        partners.append(_parse_country(row[2], lineno))
        values.append(value)
    try:
        year = np.array(years, dtype=np.int64)
    except OverflowError:  # years beyond int64 stay Python ints
        year = np.array(years, dtype=object)
    return _trade_panel(year, np.array(reporters, dtype="U3"),
                        np.array(partners, dtype="U3"), np.array(values))


def format_trade_csv(panel) -> str:
    """Canonical serialization, which parse_trade_csv reads back to the
    same columns."""
    lines = [",".join(TRADE_HEADER)]
    for year, reporter, partner, value in zip(
        panel.year.tolist(), panel.reporter.tolist(),
        panel.partner.tolist(), panel.value.tolist(),
    ):
        lines.append(f"{year},{reporter},{partner},{value!r}")
    return "\n".join(lines) + "\n"


def parse_gdp_csv(stream) -> dict[tuple[int, str], float]:
    """Parse the GDP table into a (year, country) -> gdp lookup."""
    reader = csv.reader(_as_stream(stream))
    _check_header(next(reader, None), GDP_HEADER, "gdp")
    table: dict[tuple[int, str], float] = {}
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 3:
            raise MalformedRow(f"expected 3 columns, got {len(row)}", line=lineno)
        try:
            year = int(row[0])
            gdp = float(row[2])
        except ValueError as exc:
            raise MalformedRow(str(exc), line=lineno) from None
        country = _parse_country(row[1], lineno)
        if not math.isfinite(gdp) or gdp <= 0:
            raise NonPositiveGdp(f"gdp must be positive, got {row[2]!r}", line=lineno)
        key = (year, country)
        if key in table:
            raise DuplicateKey(f"duplicate gdp row for {key}", line=lineno)
        table[key] = gdp
    return table


def _parse_year_month(text, lineno):
    parts = text.strip().split("-")
    if len(parts) != 2:
        raise MalformedDate(f"expected YYYY-MM, got {text!r}", line=lineno)
    try:
        year, month = int(parts[0]), int(parts[1])
    except ValueError:
        raise MalformedDate(f"expected YYYY-MM, got {text!r}", line=lineno) from None
    if not 1 <= month <= 12:
        raise MalformedDate(f"month out of range in {text!r}", line=lineno)
    return (year, month)


def parse_recessions(stream) -> list[RecessionWindow]:
    """Parse recession windows, sorted by start date; overlapping windows
    are legal but logged."""
    reader = csv.reader(_as_stream(stream))
    _check_header(next(reader, None), RECESSION_HEADER, "recessions")
    windows = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 3:
            raise MalformedRow(f"expected 3 columns, got {len(row)}", line=lineno)
        start = _parse_year_month(row[1], lineno)
        end = _parse_year_month(row[2], lineno)
        if start > end:
            raise StartAfterEnd(f"window {row[0]!r} starts after it ends", line=lineno)
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
        raise EmptyYear(f"no trade records for year {year}")
    countries, index = np.unique(
        np.concatenate([panel.reporter[rows], panel.partner[rows]]),
        return_inverse=True,
    )
    x = np.zeros((len(countries), len(countries)))
    np.add.at(x, (index[:k], index[k:]), panel.value[rows])
    return countries.tolist(), x


def symmetrize(year, countries, x, mode="sum") -> TradeNetwork:
    """TradeNetwork of a directed flow matrix x over countries.

    mode "sum" gives M_ij = X_ij + X_ji (total bilateral commerce);
    "max" and "mean" are kept for sensitivity checks.
    """
    if mode not in SYMMETRIZATION_MODES:
        raise ValueError(f"mode must be one of {SYMMETRIZATION_MODES}, got {mode!r}")
    if mode == "sum":
        m = x + x.T
    elif mode == "max":
        m = np.maximum(x, x.T)
    else:
        m = (x + x.T) / 2.0
    np.fill_diagonal(m, 0.0)
    return TradeNetwork(year=year, countries=list(countries), m=m)


def build_network(panel, year, mode="sum") -> TradeNetwork:
    """Symmetrize one year of a TradePanel into a TradeNetwork."""
    return symmetrize(year, *directed_flows(panel, year), mode)
