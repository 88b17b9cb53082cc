#!/usr/bin/env python3
"""Regenerate the bundled CSV fixtures under tests/fixtures/: 8 countries
in two regional trade blocks over 1995-2006, with gravity-style directed
flows, GDP growing 3% a year and two recession windows."""

import pathlib

import numpy as np

OUT = pathlib.Path(__file__).resolve().parent.parent / "tests" / "fixtures"

COUNTRIES = ("CAN", "CHN", "DEU", "FRA", "GBR", "JPN", "MEX", "USA")
BLOCKS = {  # two regional trade blocks
    "CAN": 0, "MEX": 0, "USA": 0, "JPN": 0,
    "CHN": 1, "DEU": 1, "FRA": 1, "GBR": 1,
}
GDP_BASE = {
    "CAN": 0.60e12, "CHN": 1.20e12, "DEU": 1.90e12, "FRA": 1.30e12,
    "GBR": 1.40e12, "JPN": 4.30e12, "MEX": 0.40e12, "USA": 7.60e12,
}
YEARS = tuple(range(1995, 2007))
# within-block boost per year: high right after the recession windows
BOOST = {
    1995: 3.0, 1996: 2.6, 1997: 2.3, 1998: 3.4, 1999: 3.8, 2000: 2.4,
    2001: 2.1, 2002: 3.6, 2003: 3.9, 2004: 2.5, 2005: 2.2, 2006: 2.0,
}

RECESSIONS = [
    ("asia-crisis", "1997-08", "1998-06"),
    ("dotcom", "2001-03", "2001-11"),
]


def gdp_rows():
    rows = []
    for year in YEARS:
        growth = 1.03 ** (year - YEARS[0])
        for c in COUNTRIES:
            rows.append((year, c, round(GDP_BASE[c] * growth)))
    return rows


def trade_rows():
    """Gravity-style directed flows with a yearly within-block boost;
    total exports stay below 40% of each country's GDP."""
    rng = np.random.default_rng(7)
    rows = []
    for year in YEARS:
        growth = 1.03 ** (year - YEARS[0])
        boost = BOOST[year]
        raw = {}
        for rep in COUNTRIES:
            for par in COUNTRIES:
                if rep == par:
                    continue
                pull = GDP_BASE[par] ** 0.7
                same = BLOCKS[rep] == BLOCKS[par]
                noise = rng.uniform(0.7, 1.3)
                raw[(rep, par)] = pull * (boost if same else 1.0) * noise
        for rep in COUNTRIES:
            total = sum(v for (r, _), v in raw.items() if r == rep)
            budget = 0.35 * GDP_BASE[rep] * growth
            for par in COUNTRIES:
                if rep == par:
                    continue
                value = round(raw[(rep, par)] / total * budget)
                rows.append((year, rep, par, value))
    return rows


def fixture_files() -> dict[str, str]:
    """The three bundled CSV fixtures as text, keyed by file name."""
    trade = ["year,reporter,partner,value_usd"]
    trade += [f"{y},{r},{p},{v}" for y, r, p, v in trade_rows()]
    gdp = ["year,country,gdp_usd"]
    gdp += [f"{y},{c},{v}" for y, c, v in gdp_rows()]
    rec = ["label,start,end"]
    rec += [f"{label},{start},{end}" for label, start, end in RECESSIONS]
    return {
        "trade.csv": "\n".join(trade) + "\n",
        "gdp.csv": "\n".join(gdp) + "\n",
        "recessions.csv": "\n".join(rec) + "\n",
    }


def main():
    OUT.mkdir(parents=True, exist_ok=True)
    for name, text in fixture_files().items():
        (OUT / name).write_text(text)
        print(f"wrote {OUT / name}")


if __name__ == "__main__":
    main()
