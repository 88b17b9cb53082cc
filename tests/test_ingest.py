import numpy as np
import pytest
from hypothesis import given, settings
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
    "row,exc",
    [
        ("1969,USA,CAN", errors.MalformedRow),
        ("1969,USA,CAN,abc", errors.MalformedRow),
        ("x,USA,CAN,1", errors.MalformedRow),
        ("1969,USA,CAN,-3", errors.NegativeValue),
        ("1969,US,CAN,1", errors.BadCountryCode),
        ("1969,U5A,CAN,1", errors.BadCountryCode),
    ],
)
def test_parse_trade_errors_carry_line_numbers(row, exc):
    with pytest.raises(exc) as err:
        ingest.parse_trade_csv(TRADE_HEADER + row + "\n")
    assert err.value.line == 2


def test_parse_trade_bad_header():
    with pytest.raises(errors.MalformedRow):
        ingest.parse_trade_csv("a,b,c,d\n1969,USA,CAN,1\n")


def test_parse_gdp_basic():
    table = ingest.parse_gdp_csv("year,country,gdp_usd\n2007,USA,14480000000000\n")
    assert table == {(2007, "USA"): 1.448e13}


def test_parse_gdp_duplicate_key():
    text = "year,country,gdp_usd\n2007,USA,1\n2007,USA,2\n"
    with pytest.raises(errors.DuplicateKey):
        ingest.parse_gdp_csv(text)


@pytest.mark.parametrize("value", ["0", "-5"])
def test_parse_gdp_nonpositive(value):
    with pytest.raises(errors.NonPositiveGdp):
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
    with pytest.raises(errors.StartAfterEnd):
        ingest.parse_recessions("label,start,end\nx,2009-06,2007-12\n")


def test_parse_recessions_bad_date():
    with pytest.raises(errors.MalformedDate):
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


def test_build_network_max_mode():
    net = ingest.build_network(
        _panel((2000, "AAA", "BBB", 3.0), (2000, "BBB", "AAA", 2.0)),
        2000,
        mode="max",
    )
    assert net.m[0, 1] == 3.0


def test_build_network_mean_mode():
    net = ingest.build_network(
        _panel((2000, "AAA", "BBB", 3.0), (2000, "BBB", "AAA", 2.0)),
        2000,
        mode="mean",
    )
    assert net.m[0, 1] == 2.5


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
    with pytest.raises(errors.EmptyYear):
        ingest.build_network(_panel((2000, "AAA", "BBB", 3.0)), 1999)


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
        # sum mode total equals the sum of retained directed flows
        total = sum(r[3] for r in rows if r[0] == year)
        assert net.m.sum() / 2 == pytest.approx(total, rel=1e-12, abs=1e-6)


@settings(max_examples=100, deadline=None)
@given(flow_rows)
def test_trade_csv_round_trip(rows):
    rows = [r for r in rows if r[1] != r[2]]
    text = ingest.format_trade_csv(_panel(*rows))
    assert columns(ingest.parse_trade_csv(text)) == rows
    assert ingest.format_trade_csv(ingest.parse_trade_csv(text)) == text


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
    "sharp_s_upper_cases_to_four_letters": (
        [(2000, "ßab", "usa", 2.5), (2000, " USA ", "ßAB", 1.0),
         (2000, "USA", "ZZZ", 0.0)],
        2000, ["SSAB", "USA", "ZZZ"],
        [[0.0, 2.5, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
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
