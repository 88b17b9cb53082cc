import importlib.util
import io
import pathlib
import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import helpers
from tradetopo import errors, ingest

TRADE_HEADER = "year,reporter,partner,value_usd\n"


def columns(panel):
    """The panel's rows as (year, reporter, partner, value) tuples."""
    return list(zip(panel.year.tolist(), panel.reporter.tolist(),
                    panel.partner.tolist(), panel.value.tolist()))


def test_parse_trade_basic():
    panel = ingest.parse_trade_csv(
        TRADE_HEADER + "1969,USA,CAN,8100000000\n1970, can ,usa,2.5\n"
    )
    assert len(panel) == 2
    assert columns(panel) == [(1969, "USA", "CAN", 8.1e9), (1970, "CAN", "USA", 2.5)]
    assert panel.years() == [1969, 1970]


def test_parse_trade_header_only():
    panel = ingest.parse_trade_csv(TRADE_HEADER)
    assert len(panel) == 0
    assert panel.years() == []


def test_parse_trade_drops_self_loops(caplog):
    with caplog.at_level("WARNING"):
        panel = ingest.parse_trade_csv(TRADE_HEADER + "1969,USA,usa,5\n")
    assert len(panel) == 0
    assert "1 self-loop" in caplog.text


@pytest.mark.parametrize(
    "row,message",
    [  # each id names the kind of error its row makes
        pytest.param("1969,USA,CAN", "expected 4 columns, got 3",
                     id="1969,USA,CAN-MalformedRow"),
        pytest.param("1969,USA,CAN,abc", "could not convert string to float",
                     id="1969,USA,CAN,abc-MalformedRow"),
        pytest.param("x,USA,CAN,1", "invalid literal for int",
                     id="x,USA,CAN,1-MalformedRow"),
        pytest.param("1969,USA,CAN,-3", "negative trade value -3.0",
                     id="1969,USA,CAN,-3-NegativeValue"),
        pytest.param("1969,US,CAN,1", "bad country code 'US'",
                     id="1969,US,CAN,1-BadCountryCode"),
        pytest.param("1969,U5A,CAN,1", "bad country code 'U5A'",
                     id="1969,U5A,CAN,1-BadCountryCode"),
    ],
)
def test_parse_trade_errors_carry_line_numbers(row, message):
    with pytest.raises(errors.ParseError,
                       match=f"^line 2: {re.escape(message)}") as err:
        ingest.parse_trade_csv(TRADE_HEADER + row + "\n")
    assert err.value.line == 2


@pytest.mark.parametrize(
    "parse,text",
    [
        (ingest.parse_trade_csv, TRADE_HEADER + "2000,ßab,USA,2.5\n"),
        (ingest.parse_gdp_csv, "year,country,gdp_usd\n2000,ßab,2.5\n"),
    ],
    ids=["trade", "gdp"],
)
def test_code_that_upper_cases_to_four_letters_rejected(parse, text):
    # "ßab".upper() is "SSAB": codes are checked after normalizing, so
    # a parsed panel never holds a code that parse_trade_csv rejects
    with pytest.raises(errors.ParseError, match="bad country code 'ßab'") as err:
        parse(text)
    assert err.value.line == 2


def test_parse_trade_bad_header():
    with pytest.raises(errors.ParseError, match="trade header must be"):
        ingest.parse_trade_csv("a,b,c,d\n1969,USA,CAN,1\n")


def test_parse_gdp_basic():
    table = ingest.parse_gdp_csv("year,country,gdp_usd\n2007,USA,14480000000000\n")
    assert table == {(2007, "USA"): 1.448e13}


def test_parse_gdp_duplicate_key():
    text = "year,country,gdp_usd\n2007,USA,1\n2007,USA,2\n"
    with pytest.raises(errors.ParseError, match="duplicate gdp row"):
        ingest.parse_gdp_csv(text)


@pytest.mark.parametrize("value", ["0", "-5"])
def test_parse_gdp_nonpositive(value):
    with pytest.raises(errors.ParseError, match="gdp must be positive"):
        ingest.parse_gdp_csv(f"year,country,gdp_usd\n2007,USA,{value}\n")


def test_parse_recessions_basic():
    wins = ingest.parse_recessions(
        "label,start,end\ngreat-recession,2007-12,2009-06\n"
    )
    assert wins == [
        ingest.RecessionWindow("great-recession", (2007, 12), (2009, 6))
    ]


def test_parse_recessions_empty_body():
    assert ingest.parse_recessions("label,start,end\n") == []


def test_parse_recessions_start_after_end():
    with pytest.raises(errors.ParseError, match="starts after it ends"):
        ingest.parse_recessions("label,start,end\nx,2009-06,2007-12\n")


def test_parse_recessions_bad_date():
    with pytest.raises(errors.ParseError, match="expected YYYY-MM, got '2009'"):
        ingest.parse_recessions("label,start,end\nx,2009,2010-01\n")


def test_parse_recessions_sorted_and_overlap_warns(caplog):
    text = "label,start,end\nb,2001-03,2001-11\na,2001-01,2001-06\n"
    with caplog.at_level("WARNING"):
        wins = ingest.parse_recessions(text)
    assert [w.label for w in wins] == ["a", "b"]
    assert "overlap" in caplog.text


def _panel(*rows):
    return ingest.parse_trade_csv(helpers.trade_csv(rows))


def test_build_network_sum_mode():
    net = ingest.build_network(
        _panel((2000, "AAA", "BBB", 3.0), (2000, "BBB", "AAA", 2.0)), 2000
    )
    assert net.countries == ["AAA", "BBB"]
    assert net.m[0, 1] == net.m[1, 0] == 5.0


def test_build_network_missing_reverse_flow():
    net = ingest.build_network(_panel((2000, "AAA", "BBB", 3.0)), 2000)
    assert net.m[0, 1] == 3.0


def test_build_network_sums_duplicate_rows():
    net = ingest.build_network(
        _panel((2000, "AAA", "BBB", 3.0), (2000, "AAA", "BBB", 4.0)), 2000
    )
    assert net.m[0, 1] == 7.0


def test_build_network_excludes_inactive_countries():
    recs = _panel((2000, "AAA", "BBB", 3.0), (2001, "CCC", "AAA", 1.0))
    net = ingest.build_network(recs, 2000)
    assert net.countries == ["AAA", "BBB"]


def test_build_network_empty_year():
    with pytest.raises(errors.Degenerate, match="no trade records for year 1999"):
        ingest.build_network(_panel((2000, "AAA", "BBB", 3.0)), 1999)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_symmetrize_overflow_names_the_year():
    x = np.array([[0.0, 1e308, 1.0], [1e308, 0.0, 0.0], [0.0, 0.0, 0.0]])
    with pytest.raises(errors.Degenerate,
                       match="bilateral trade of year 2000 overflows"):
        ingest.symmetrize(2000, ["AAA", "BBB", "CCC"], x)


codes = st.text(alphabet="ABCDEFGH", min_size=3, max_size=3)
flow_rows = st.lists(
    st.tuples(
        st.integers(1960, 2020),
        codes,
        codes,
        st.floats(0, 1e12, allow_nan=False),
    ),
    max_size=30,
)


@settings(max_examples=200, deadline=None)
@given(flow_rows)
def test_build_network_symmetric_zero_diagonal(rows):
    rows = [r for r in rows if r[1] != r[2]]
    panel = _panel(*rows)
    for year in panel.years():
        net = ingest.build_network(panel, year)
        assert np.array_equal(net.m, net.m.T)
        assert np.all(np.diag(net.m) == 0)
        assert np.all(net.m >= 0)
        # M counts each directed flow once in each triangle
        total = sum(r[3] for r in rows if r[0] == year)
        assert net.m.sum() / 2 == pytest.approx(total, rel=1e-12, abs=1e-6)


@settings(max_examples=100, deadline=None)
@given(flow_rows)
def test_trade_csv_round_trip(rows):
    rows = [r for r in rows if r[1] != r[2]]
    text = helpers.format_trade_csv(_panel(*rows))
    assert columns(ingest.parse_trade_csv(text)) == rows
    assert helpers.format_trade_csv(ingest.parse_trade_csv(text)) == text


def test_directed_flows_sums_duplicate_rows():
    countries, x = ingest.directed_flows(
        _panel((2007, "USA", "WLD", 10.0), (2007, "WLD", "USA", 4.0),
               (2007, "USA", "WLD", 2.5)),
        2007,
    )
    assert countries == ["USA", "WLD"]
    assert x.tolist() == [[0.0, 12.5], [4.0, 0.0]]


def test_directed_flows_keeps_zero_valued_country():
    countries, x = ingest.directed_flows(
        _panel((2007, "USA", "WLD", 10.0), (2007, "CHN", "USA", 0.0)), 2007
    )
    assert countries == ["CHN", "USA", "WLD"]
    assert x[0].sum() == 0.0


# (rows, year) -> (countries, matrix), recorded from the dict aggregation
# that directed_flows replaced.
PINNED_FLOWS = {
    "summed_in_file_order": (
        [(2000, "AAA", "BBB", 1.0), (2000, "AAA", "BBB", 1.0),
         (2000, "AAA", "BBB", 1e16)],
        2000, ["AAA", "BBB"], [[0.0, 1.0000000000000002e16], [0.0, 0.0]],
    ),
    "summed_in_reverse_order": (
        [(2000, "AAA", "BBB", 1e16), (2000, "AAA", "BBB", 1.0),
         (2000, "AAA", "BBB", 1.0)],
        2000, ["AAA", "BBB"], [[0.0, 1e16], [0.0, 0.0]],
    ),
    "year_beyond_int64": (
        [(10**23, "USA", "CAN", 2.5), (10**23, "CAN", "USA", 1.0),
         (2000, "USA", "CAN", 7.0)],
        10**23, ["CAN", "USA"], [[0.0, 1.0], [2.5, 0.0]],
    ),
}


@pytest.mark.parametrize("case", PINNED_FLOWS)
def test_directed_flows_pinned(case):
    rows, year, countries, matrix = PINNED_FLOWS[case]
    panel = _panel(*rows)
    assert year in panel.years()
    got_countries, x = ingest.directed_flows(panel, year)
    assert got_countries == countries
    assert x.tolist() == matrix


# three countries in mixed case and padding, so that most rows repeat a
# (year, reporter, partner) key and the summation order is exercised
padded_codes = st.tuples(
    st.sampled_from(["", " "]),
    st.sampled_from(["AAA", "BBB", "CCC"]),
    st.booleans(),
    st.sampled_from(["", " "]),
).map(lambda t: t[0] + (t[1].lower() if t[2] else t[1]) + t[3])
raw_rows = st.lists(
    st.tuples(
        st.integers(1999, 2001),
        padded_codes,
        padded_codes,
        st.one_of(st.floats(0, 1e12, allow_nan=False),
                  st.sampled_from([0.0, 0.1, 0.2, 1.0, 1e16])),
    ),
    max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(raw_rows)
def test_directed_flows_matches_dict_oracle(rows):
    panel = ingest.parse_trade_csv(helpers.trade_csv(rows))
    kept = [(y, r.strip().upper(), p.strip().upper(), v) for y, r, p, v in rows]
    kept = [row for row in kept if row[1] != row[2]]
    assert panel.years() == sorted({row[0] for row in kept})
    for year in panel.years():
        countries, x = ingest.directed_flows(panel, year)
        want_countries, want_x = helpers.brute_directed_flows(kept, year)
        assert countries == want_countries
        assert np.array_equal(x, want_x)


# codes from a few letters of each code point width: ASCII, Latin-1,
# Greek and a capital above U+FFFF, so that every key field is exercised
# and a field narrower than 21 bits would mix two code points
wide_codes = st.text(alphabet="AZÄÖÜΑΩ𝐀", min_size=3, max_size=3)
wide_rows = st.lists(
    st.tuples(
        st.integers(1999, 2002),
        wide_codes,
        wide_codes,
        st.sampled_from([0.0, 0.1, 0.2, 1.0, 3.5, 1e16]),
    ),
    max_size=60,
)


@settings(max_examples=300, deadline=None)
@given(wide_rows)
def test_directed_flows_matches_string_factorization(rows):
    # the rows repeat pairs often, so file-order summation is exercised
    panel = _panel(*[row for row in rows if row[1] != row[2]])
    for year in panel.years():
        countries, x = ingest.directed_flows(panel, year)
        want_countries, want_x = helpers.string_directed_flows(panel, year)
        assert countries == want_countries
        assert np.array_equal(x, want_x)


# The trade parser reads the body with np.loadtxt and re-reads the whole
# stream with the row parser on any rejection; each case pins a place
# where the two readers differ.
FALLBACK_ERRORS = {
    # loadtxt would drop "# c" as a comment by default
    "comment_is_data": ("1969,USA,CAN,5 # c\n", "could not convert string to float", 2),
    # loadtxt skips blank lines without counting them
    "blank_line_before_bad_row": ("\n\r\n1969,USA,CAN,-3\n", "negative trade value", 4),
    # a U8 field truncates "USA      X" to "USA     "
    "wide_code_field": ("1969,USA      X,CAN,5\n", "bad country code 'USA      X'", 2),
    # a U8 field drops trailing NULs
    "code_with_nul": ("1969,USA\0,CAN,5\n", "bad country code 'USA\\x00'", 2),
    # the NUL scan reads the text in 1 MiB chunks; this NUL is past the first
    "code_with_nul_after_first_chunk": (
        "1969,USA,CAN,5\n" * 80_000 + "1969,USA\0,CAN,5\n",
        "bad country code 'USA\\x00'", 80_002),
    "nan_value": ("1969,USA,CAN,nan\n", "non-finite value 'nan'", 2),
    "overflowing_value": ("1969,USA,CAN,1e400\n", "non-finite value '1e400'", 2),
    "whitespace_only_line": ("1969,USA,CAN,5\n  \n", "expected 4 columns, got 1", 3),
}


@pytest.mark.parametrize("case", FALLBACK_ERRORS)
def test_parse_trade_fallback_errors(case):
    body, message, line = FALLBACK_ERRORS[case]
    with pytest.raises(errors.ParseError,
                       match=f"^line {line}: {re.escape(message)}") as err:
        ingest.parse_trade_csv(TRADE_HEADER + body)
    assert err.value.line == line


FALLBACK_ROWS = {
    "quoted_code": ('1969,"usa",CAN,5\n', [(1969, "USA", "CAN", 5.0)]),
    "underscore_value": ("1969,USA,CAN,1_000\n", [(1969, "USA", "CAN", 1000.0)]),
    "year_beyond_int64": ("10" + "0" * 22 + ",USA,CAN,5\n", [(10**23, "USA", "CAN", 5.0)]),
    "code_padded_to_eight": ("1969,USA     ,CAN,5\n", [(1969, "USA", "CAN", 5.0)]),
    "header_only": ("", []),
    "blank_lines_only": ("\n\r\n\n", []),
}


@pytest.mark.parametrize("case", FALLBACK_ROWS)
def test_parse_trade_fallback_rows(case):
    body, rows = FALLBACK_ROWS[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # loadtxt warns on a body without data
        panel = ingest.parse_trade_csv(TRADE_HEADER + body)
    assert columns(panel) == rows


@pytest.mark.parametrize("body,rows", [
    ("1969,USA,CAN,8100000000\n1970,CAN,USA,2.5\r\n\n1970,CAN,CAN,1\n",
     [(1969, "USA", "CAN", 8.1e9), (1970, "CAN", "USA", 2.5)]),
    ("+1969, usa ,Can, 1e5 \n1970,can,usa,.5\n1970,usa,usa,-0\n",
     [(1969, "USA", "CAN", 1e5), (1970, "CAN", "USA", 0.5)]),
    # not ASCII letters: upper-cased by np.char, not by code point
    ("1969,ÄÖÜ,Ωab,5\n", [(1969, "ÄÖÜ", "ΩAB", 5.0)]),
], ids=["upper_case", "mixed_case", "non_ascii"])
def test_parse_trade_clean_csv_skips_row_parser(body, rows, monkeypatch):
    def row_parser(stream):
        raise AssertionError("clean CSV fell back to the row parser")

    monkeypatch.setattr(ingest, "_parse_trade_rows", row_parser)
    panel = ingest.parse_trade_csv(TRADE_HEADER + body)
    assert columns(panel) == rows
    assert (panel.year.dtype, panel.reporter.dtype, panel.partner.dtype,
            panel.value.dtype) == (np.int64, "<U3", "<U3", np.float64)


def _edited_row(row):
    """CSV line of four fields with one edit (i, text): field i becomes text,
    is appended if i is 4, or is dropped if text is None."""
    fields, (i, text) = row
    fields = list(fields)
    fields[i:i + 1] = [] if text is None else [text]
    return ",".join(fields)


csv_years = st.integers(1999, 2001).map(str)
csv_codes = st.tuples(
    st.sampled_from(["", " ", "\t"]),
    st.sampled_from(["USA", "CAN", "usa", "Mex"]),
    st.sampled_from(["", " ", "   "]),
).map("".join)
csv_fields = st.tuples(csv_years, csv_codes, csv_codes,
                       st.floats(0, 1e12, allow_nan=False).map(repr))
clean_lines = st.one_of(csv_fields.map(",".join), st.just(""))
# edits that only the row parser reads, or that it rejects
EDITS = (
    [(0, text) for text in ["+2000", " 2000 ", "2000.0", "1_999", "-0", "x", "",
                            '"2000"', "100000000000000000000000"]]
    + [(1, text) for text in ['"usa"', "USA      X", "USA     ", "US", "U5A",
                              "ßab", "USA\0", ""]]
    # next to the code-point ranges A..Z and a..z, and a letter above them
    + [(i, text) for i in (1, 2) for text in ["U@A", "U[A", "U`A", "U{A", "ÉUA"]]
    + [(2, text) for text in ['"CAN"', "CANADA", "can\x85"]]
    + [(3, text) for text in ["1_000", ".5", "+5", "1e5", "nan", "inf", "1e400",
                              "-3", "-0", "5 # c", '"5"', "", "abc", None]]
    + [(4, "7")]
)
odd_lines = st.one_of(
    st.tuples(csv_fields, st.sampled_from(EDITS)).map(_edited_row),
    st.sampled_from(["  ", "\t"]),
)
# clean lines with at most one odd line among them, so that about half the
# bodies take the loadtxt read and the rest need the row parser
csv_bodies = st.tuples(
    st.lists(clean_lines, max_size=12),
    st.lists(odd_lines, max_size=1),
    st.integers(0, 12),
    st.sampled_from(["\n", "\r\n"]),
).map(lambda t: "".join(
    line + t[3] for line in t[0][:t[2]] + t[1] + t[0][t[2]:]))


def _outcome(parse, text, caplog):
    caplog.clear()
    try:
        panel = parse(io.StringIO(text))
    except Exception as exc:
        return ("raised", type(exc), str(exc), getattr(exc, "line", None))
    return ("parsed", [(c.dtype, repr(c.tolist())) for c in (
        panel.year, panel.reporter, panel.partner, panel.value)], caplog.text)


@settings(max_examples=1000, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(body=csv_bodies)
def test_parse_trade_matches_row_parser(body, caplog):
    text = TRADE_HEADER + body
    with caplog.at_level("WARNING"):
        assert (_outcome(ingest.parse_trade_csv, text, caplog)
                == _outcome(ingest._parse_trade_rows, text, caplog))


class OneWayStream(io.StringIO):
    """A text stream that cannot seek, like a pipe."""

    def seekable(self):
        return False

    def seek(self, *args):
        raise io.UnsupportedOperation("seek")

    def tell(self):
        raise io.UnsupportedOperation("tell")


def test_parse_trade_stream_that_cannot_seek():
    # the row parser re-reads from the start, so the body is buffered first
    panel = ingest.parse_trade_csv(OneWayStream(TRADE_HEADER + '1969,"usa",CAN,5\n'))
    assert columns(panel) == [(1969, "USA", "CAN", 5.0)]
    with pytest.raises(errors.ParseError, match="negative trade value") as err:
        ingest.parse_trade_csv(OneWayStream(TRADE_HEADER + "1969,USA,CAN,-3\n"))
    assert err.value.line == 2


def test_fixture_script_regenerates_committed_files(fixtures_dir):
    script = pathlib.Path(__file__).parents[1] / "scripts" / "make_fixtures.py"
    spec = importlib.util.spec_from_file_location("make_fixtures", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    files = module.fixture_files()
    assert sorted(files) == ["gdp.csv", "recessions.csv", "trade.csv"]
    for name, text in files.items():
        assert text == (fixtures_dir / name).read_text()
