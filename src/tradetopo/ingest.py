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
    if len(code) != 3 or not code.isalpha():
        raise BadCountryCode(f"bad country code {code!r}", line=lineno)
    return code.upper()


def parse_trade_csv(stream) -> TradePanel:
    """Parse directed trade flows; self-loops are dropped with a counted
    warning rather than rejected."""
    reader = csv.reader(_as_stream(stream))
    _check_header(next(reader, None), TRADE_HEADER, "trade")
    years, reporters, partners, values = [], [], [], []
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
        years.append(year)
        reporters.append(reporter)
        partners.append(partner)
        values.append(value)
    if self_loops:
        log.warning("dropped %d self-loop row(s)", self_loops)
    # years beyond int64 give an object array; codes keep their own width
    # ("ßab" upper-cases to "SSAB")
    return TradePanel(np.array(years), np.array(reporters, dtype=str),
                      np.array(partners, dtype=str), np.array(values, dtype=float))


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
