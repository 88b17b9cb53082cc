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
import logging
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


@dataclass(frozen=True)
class TradeFlowRecord:
    year: int
    reporter: str
    partner: str
    export_value: float


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
    if len(code) != 3 or not code.isalpha():
        raise BadCountryCode(f"bad country code {code!r}", line=lineno)
    return code.upper()


def parse_trade_csv(stream) -> list[TradeFlowRecord]:
    """Parse directed trade flows; self-loops are dropped with a counted
    warning rather than rejected."""
    reader = csv.reader(_as_stream(stream))
    _check_header(next(reader, None), TRADE_HEADER, "trade")
    records = []
    self_loops = 0
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
        if not np.isfinite(value):
            raise MalformedRow(f"non-finite value {row[3]!r}", line=lineno)
        if value < 0:
            raise NegativeValue(f"negative trade value {value}", line=lineno)
        reporter = _parse_country(row[1], lineno)
        partner = _parse_country(row[2], lineno)
        if reporter == partner:
            self_loops += 1
            continue
        records.append(TradeFlowRecord(year, reporter, partner, value))
    if self_loops:
        log.warning("dropped %d self-loop row(s)", self_loops)
    return records


def format_trade_csv(records) -> str:
    """Canonical serialization; parse(format(parse(x))) == parse(x)."""
    lines = [",".join(TRADE_HEADER)]
    for r in records:
        lines.append(f"{r.year},{r.reporter},{r.partner},{r.export_value!r}")
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
        if not np.isfinite(gdp) or gdp <= 0:
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


def directed_flows(records, year):
    """Aggregate duplicate (reporter, partner) rows for one year into a
    directed flow matrix over the active countries."""
    flows: dict[tuple[str, str], float] = {}
    for r in records:
        if r.year != year:
            continue
        key = (r.reporter, r.partner)
        flows[key] = flows.get(key, 0.0) + r.export_value
    if not flows:
        raise EmptyYear(f"no trade records for year {year}")
    countries = sorted({c for pair in flows for c in pair})
    index = {c: i for i, c in enumerate(countries)}
    x = np.zeros((len(countries), len(countries)))
    for (rep, par), value in flows.items():
        x[index[rep], index[par]] = value
    return countries, x


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


def build_network(records, year, mode="sum") -> TradeNetwork:
    """Symmetrize one year of directed flow records into a TradeNetwork."""
    return symmetrize(year, *directed_flows(records, year), mode)
