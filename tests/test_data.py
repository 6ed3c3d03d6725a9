import csv
import io
import math
import os
import tempfile
import tracemalloc
from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdcca.data import (
    QuoteSeries,
    _common_minutes,
    _volatile_head,
    build_return_matrix,
    load_quotes,
    log_returns,
    normalize,
)
from qdcca.errors import (
    EmptyIntersectionError,
    QuoteParseError,
    ShapeMismatchError,
    ZeroVarianceError,
)


def _quotes(ticker, ts, prices):
    return QuoteSeries(
        ticker=ticker,
        timestamps=np.asarray(ts, dtype=np.int64),
        prices=np.asarray(prices, dtype=float),
    )


def test_load_three_line_csv(tmp_path):
    path = tmp_path / "AAA.csv"
    path.write_text("0,100\n1,101\n2,99\n")
    series = load_quotes(str(path))
    assert len(series) == 1
    assert len(series[0]) == 3
    assert series[0].ticker == "AAA"
    assert series[0].timestamps.tolist() == [0, 1, 2]


def test_load_rejects_zero_price_with_row(tmp_path):
    path = tmp_path / "BAD.csv"
    path.write_text("0,100\n1,0\n2,99\n")
    with pytest.raises(QuoteParseError) as exc:
        load_quotes(str(path))
    assert exc.value.line == 2


def test_load_rejects_duplicates_and_unsorted(tmp_path):
    dup = tmp_path / "DUP.csv"
    dup.write_text("0,100\n1,101\n1,102\n")
    with pytest.raises(QuoteParseError) as exc:
        load_quotes(str(dup))
    assert exc.value.line == 3
    unsorted = tmp_path / "UNS.csv"
    unsorted.write_text("5,100\n3,101\n8,102\n")
    with pytest.raises(QuoteParseError) as exc:
        load_quotes(str(unsorted))
    assert exc.value.line == 2
    # The named line is the file line of the first out-of-order row, counting
    # the header and blank lines.
    for text, line in (
        ("timestamp,price\n0,100\n2,101\n1,102\n", 4),
        ("timestamp,price\n0,100\n\n2,101\n\n1,102\n", 6),
    ):
        unsorted.write_text(text)
        with pytest.raises(QuoteParseError, match="not strictly increasing") as exc:
            load_quotes(str(unsorted))
        assert exc.value.line == line
    # A non-adjacent repeat is a duplicate: duplicates are checked before order.
    unsorted.write_text("timestamp,price\n1,100\n3,101\n\n1,102\n")
    with pytest.raises(QuoteParseError, match="duplicate timestamp") as exc:
        load_quotes(str(unsorted))
    assert exc.value.line == 5


def test_load_header_epoch_seconds_and_iso(tmp_path):
    sec = tmp_path / "SEC.csv"
    sec.write_text("timestamp,price\n1577836800,100\n1577836860,101\n")
    (qs,) = load_quotes(str(sec))
    assert qs.timestamps.tolist() == [26297280, 26297281]
    iso = tmp_path / "ISO.csv"
    iso.write_text("2020-01-01T00:00:00Z,100\n2020-01-01T00:01:00Z,101\n")
    (qs2,) = load_quotes(str(iso))
    assert qs2.timestamps.tolist() == [26297280, 26297281]


def test_load_wide_csv(tmp_path):
    path = tmp_path / "wide.csv"
    path.write_text("timestamp,AAA,BBB\n0,100,1\n1,101,2\n2,99,3\n")
    series = load_quotes(str(path))
    assert [s.ticker for s in series] == ["AAA", "BBB"]
    assert series[1].prices.tolist() == [1.0, 2.0, 3.0]


def test_load_directory(tmp_path):
    (tmp_path / "AAA.csv").write_text("0,100\n1,101\n")
    (tmp_path / "BBB.csv").write_text("0,1\n1,2\n")
    series = load_quotes(str(tmp_path))
    assert [s.ticker for s in series] == ["AAA", "BBB"]


def test_paper_sample_count_arithmetic():
    assert 640 * 1440 == 921_600


def test_log_returns_exact_values():
    qs = _quotes("A", [0, 1, 2], [1.0, np.e, np.e**2])
    assert np.allclose(log_returns(qs), [1.0, 1.0], atol=1e-15)
    flat = _quotes("B", [0, 1, 2], [7.0, 7.0, 7.0])
    assert np.array_equal(log_returns(flat), [0.0, 0.0])
    step = _quotes("C", [0, 1], [100.0, 101.0])
    assert log_returns(step)[0] == pytest.approx(np.log(1.01), abs=1e-12)


def test_normalize_reference_cases():
    assert np.allclose(normalize([1.0, -1.0]), [1.0, -1.0], atol=1e-15)
    with pytest.raises(ZeroVarianceError):
        normalize([5.0, 5.0, 5.0])
    rng = np.random.default_rng(0)
    x = rng.standard_normal(1000) * 3 + 2
    z = normalize(x)
    assert abs(z.mean()) < 1e-12
    assert abs(z.var() - 1.0) < 1e-9
    assert np.allclose(normalize(z), z, atol=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_normalize_names_a_non_finite_value(bad):
    # It used to read as "cannot normalize a constant series".
    with pytest.raises(ShapeMismatchError, match=f"^x: return {bad} at sample 1 is not finite$"):
        normalize([1.0, bad, 2.0])


def test_normalize_names_a_std_that_overflows():
    # Finite values whose squared deviations overflow: no RuntimeWarning,
    # and not the constant-series reason.
    with pytest.raises(ZeroVarianceError, match="std overflows"):
        normalize([1e200, -1e200, 3.0])


@pytest.mark.filterwarnings("error")
def test_normalize_names_an_empty_series():
    # Named before any mean or std is taken, so nothing warns.
    with pytest.raises(ShapeMismatchError, match="^cannot normalize an empty series$"):
        normalize([])


def test_rebase_prices():
    # Re-basing divides each alt's prices by the base's on their common
    # minutes; the returns are the log differences of those ratios.
    alt = _quotes("ALT", [0, 1, 2], [300.0, 330.0, 320.0])
    other = _quotes("OTH", [0, 1, 2], [5.0, 4.0, 6.0])
    base = _quotes("BTC", [0, 1, 2], [60_000.0, 66_000.0, 61_000.0])
    rm, report = build_return_matrix([alt, other, base], base="BTC")
    assert rm.tickers == ("ALT", "OTH")
    ratio = alt.prices / base.prices
    assert ratio[0] == pytest.approx(0.005, abs=1e-15)
    assert rm.values[0].tobytes() == np.diff(np.log(ratio)).tobytes()
    with pytest.raises(EmptyIntersectionError, match="ALT and BTC share no timestamps"):
        build_return_matrix([alt, other, _quotes("BTC", [5, 6, 7], [1.0, 2.0, 1.5])],
                            base="BTC")


def test_rebase_consistency_roundtrip():
    rng = np.random.default_rng(1)
    ts = np.arange(50)
    alts = [_quotes(f"ALT{k}", ts, np.exp(rng.standard_normal(50).cumsum() * 0.01) * 20)
            for k in range(2)]
    base = _quotes("BTC", ts[5:], np.exp(rng.standard_normal(45).cumsum() * 0.01) * 9)
    rm, report = build_return_matrix(alts + [base], base="BTC")
    assert rm.timestamps.tolist() == ts[6:].tolist()
    # Retention counts the minutes of each re-based series, all shared here.
    assert report.retention == {"ALT0": 1.0, "ALT1": 1.0}
    # Re-based returns plus the base's returns give back the alt's returns.
    base_returns = np.diff(np.log(base.prices))
    for alt, row in zip(alts, rm.values):
        np.testing.assert_allclose(row + base_returns, np.diff(np.log(alt.prices[5:])),
                                   rtol=1e-12, atol=1e-15)


def test_self_rebase_is_constant_then_rejected_by_normalize():
    base = _quotes("BTC", [0, 1, 2], [10.0, 11.0, 12.0])
    twin = _quotes("TWIN", [0, 1, 2], [10.0, 11.0, 12.0])
    alt = _quotes("ALT", [0, 1, 2], [3.0, 2.0, 4.0])
    rm, _ = build_return_matrix([twin, alt, base], base="BTC")
    assert rm.tickers == ("TWIN", "ALT")
    assert not rm.values[0].any()  # every ratio is exactly 1
    with pytest.raises(ZeroVarianceError):
        normalize(rm.values[0])


def test_align_identical_grids():
    a = _quotes("A", [0, 1, 2], [1.0, 2.0, 3.0])
    b = _quotes("B", [0, 1, 2], [4.0, 5.0, 7.0])
    rm, report = build_return_matrix([a, b], grid="intersection")
    assert rm.timestamps.tolist() == [1, 2]
    assert report.retention == {"A": 1.0, "B": 1.0}


def test_align_weekday_style_intersection():
    # A trades around the clock, B skips 2 of every 7 minutes.
    full = np.arange(70)
    weekday = full[full % 7 < 5]
    a = _quotes("A", full, np.linspace(1, 2, 70))
    b = _quotes("B", weekday, np.linspace(3, 4, weekday.size))
    rm, report = build_return_matrix([a, b], grid="intersection")
    assert np.array_equal(rm.timestamps, weekday[1:])
    assert report.retention["B"] == 1.0
    assert report.retention["A"] == pytest.approx(weekday.size / 70)


def test_align_staggered_fixture():
    grid = np.arange(100)
    holes_a = set(range(10, 20))
    holes_b = set(range(15, 25))
    holes_c = set(range(90, 95))
    ts_a = np.array([t for t in grid if t not in holes_a])
    ts_b = np.array([t for t in grid if t not in holes_b])
    ts_c = np.array([t for t in grid if t not in holes_c])
    expected = sorted(set(grid) - holes_a - holes_b - holes_c)
    a = _quotes("A", ts_a, np.linspace(2, 3, ts_a.size))
    b = _quotes("B", ts_b, np.linspace(3, 4, ts_b.size))
    c = _quotes("C", ts_c, np.linspace(4, 5, ts_c.size))
    rm, _ = build_return_matrix([a, b, c], grid="intersection")
    assert rm.timestamps.tolist() == expected[1:]
    disjoint = [_quotes("A", [0, 1, 2], [1.0, 2.0, 1.5]), _quotes("B", [7, 8, 9], [1.0, 2.0, 1.5])]
    with pytest.raises(EmptyIntersectionError, match="series share no common timestamps"):
        build_return_matrix(disjoint)


@pytest.mark.parametrize("hole", [None, 5])
def test_common_minutes_of_fully_quoted_spans_and_of_one_missing_minute(hole):
    # A quotes minutes 0-9, B 2-11 and C 1-8, each every minute: the common
    # span 2-8 is the answer without a count.  With B's interior minute 5
    # missing, the minute count runs and drops it.
    b_stamps = [m for m in range(2, 12) if m != hole]
    a = _quotes("A", np.arange(10), 100.0 + np.arange(10))
    b = _quotes("B", b_stamps, 200.0 + np.array(b_stamps))
    c = _quotes("C", np.arange(1, 9), 300.0 + np.arange(1, 9))
    want = [m for m in range(2, 9) if m != hole]
    common, prices = _common_minutes([a, b, c])
    assert common.dtype == np.int64 and common.tolist() == want
    assert prices.tolist() == [[base + m for m in want] for base in (100.0, 200.0, 300.0)]
    rm, report = build_return_matrix([a, b, c])
    assert rm.timestamps.tolist() == list(range(3, 9))
    assert rm.filled.tolist() == [m == hole for m in range(3, 9)]
    assert report.retention == {"A": len(want) / 10, "B": len(want) / len(b_stamps),
                                "C": len(want) / 8}


@pytest.mark.parametrize("t, threshold, price", [
    (185, 0.0981687892330412, 2.5706458783947603),
    (584, 0.05730977882397601, 2.662618214416482),
])
def test_peg_screen_margin_covers_the_rounding_of_std(t, threshold, price):
    # One spike, returns ln(price) and -ln(price): their spread is exactly
    # sqrt(2t) times the std, the bound's extreme case.  Here the spread just
    # passes sqrt(2t) * threshold, yet np.std rounds below the threshold, so
    # only the screen's rounding margin keeps it from clearing a peg.
    prices = np.ones(t + 1)
    prices[1] = price
    spike = _quotes("SPIKE", np.arange(t + 1), prices)
    returns = log_returns(spike)
    assert returns.max() - returns.min() > math.sqrt(2 * t) * threshold
    assert returns.std() < threshold
    assert not _volatile_head(spike, threshold)
    rng = np.random.default_rng(4)
    walks = [_quotes(f"W{k}", np.arange(t + 1), np.exp(rng.standard_normal(t + 1).cumsum()))
             for k in range(2)]
    rm, report = build_return_matrix([spike, *walks], stable_threshold=threshold)
    assert rm.tickers == ("W0", "W1") and set(report.excluded) == {"SPIKE"}


def test_build_return_matrix_uniform_fill_and_mask():
    rng = np.random.default_rng(2)
    ts = np.arange(0, 60)
    keep = np.ones(60, dtype=bool)
    keep[30] = False  # one missing minute
    prices = np.exp(rng.standard_normal(60).cumsum() * 0.01) * 10
    a = _quotes("A", ts[keep], prices[keep])
    b = _quotes("B", ts, np.exp(rng.standard_normal(60).cumsum() * 0.01) * 5)
    rm, report = build_return_matrix([a, b], grid="uniform")
    assert rm.n_samples == 59
    assert rm.filled.sum() == 1
    assert rm.values[0, rm.filled][0] == 0.0
    assert report.filled_fraction == pytest.approx(1 / 59)


def test_build_return_matrix_intersection_mode():
    ts = np.arange(0, 20)
    a = _quotes("A", ts[ts % 5 != 0], np.linspace(1, 2, 16))
    b = _quotes("B", ts, np.linspace(2, 3, 20))
    rm, report = build_return_matrix([a, b], grid="intersection")
    assert rm.n_samples == 15  # 16 common samples -> 15 returns
    assert not rm.filled.any()


@pytest.mark.parametrize("grid", ["uniform", "intersection"])
def test_one_common_minute_leaves_no_return(grid):
    a = _quotes("A", [0, 1, 2], [1.0, 2.0, 3.0])
    b = _quotes("B", [2, 3, 4], [4.0, 6.0, 5.0])
    with pytest.raises(EmptyIntersectionError, match="fewer than two common timestamps leave no return"):
        build_return_matrix([a, b], grid=grid)


def test_return_matrix_peak_memory_is_about_prices_plus_returns():
    # The aligned prices are turned into log prices and differenced in place,
    # so the returns are a view into that one buffer: at the peak the input
    # stage holds about one return-sized array.
    rng = np.random.default_rng(6)
    stamps = np.arange(20_000)
    quotes = [_quotes(f"S{k:02d}", stamps, np.exp(rng.standard_normal(20_000).cumsum() * 1e-3))
              for k in range(40)]
    tracemalloc.start()
    try:
        rm, _ = build_return_matrix(quotes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not rm.filled.any()
    assert peak <= 1.2 * rm.values.nbytes, peak / rm.values.nbytes


@pytest.mark.parametrize("gaps, bound", [(0, 1.2), (5, 2.2)])
def test_rebased_return_matrix_peak_memory_keeps_no_rebased_copies(gaps, bound):
    # The series and their base are aligned in one count and divided in the
    # aligned buffer, so no re-based copy of any series is made: the peak is
    # that of the unbased build plus the base's row (1.10x the returns
    # gap-free, 2.12x with gaps, where the zero-filled returns are a second
    # buffer; 3.08x and 4.09x when every re-based copy stayed alive).
    rng = np.random.default_rng(7)
    quotes = []
    for k in range(41):
        drop = rng.choice(np.arange(1, 19_999), gaps, replace=False)
        keep = np.setdiff1d(np.arange(20_000), drop)
        prices = np.exp(rng.standard_normal(keep.size).cumsum() * 1e-3)
        quotes.append(_quotes(f"S{k:02d}", keep, prices))
    tracemalloc.start()
    try:
        rm, _ = build_return_matrix(quotes, base="S00")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rm.values.shape == (40, 19_999) and rm.filled.any() == bool(gaps)
    assert peak <= bound * rm.values.nbytes, peak / rm.values.nbytes


def test_build_return_matrix_base_and_stable_exclusion():
    ts = np.arange(40)
    rng = np.random.default_rng(3)
    btc = _quotes("BTC", ts, np.exp(rng.standard_normal(40).cumsum() * 0.02) * 100)
    alt = _quotes("ALT", ts, np.exp(rng.standard_normal(40).cumsum() * 0.02) * 2)
    eth = _quotes("ETH", ts, np.exp(rng.standard_normal(40).cumsum() * 0.02) * 30)
    peg = _quotes("PEG", ts, np.full(40, 1.0))
    rm, report = build_return_matrix([btc, alt, eth, peg], base="BTC")
    assert "BTC" in report.excluded
    assert "PEG" in report.excluded
    assert set(rm.tickers) == {"ALT", "ETH"}


# --- Quote-file parsing: literal cases, a row-by-row reference, round trips.

# (case, file text, expected): the accepted (timestamps, prices), or the
# 1-based file line a QuoteParseError must name (None: no line, whole file).
NARROW_CASES = [
    ("quoted fields", '"0","100"\n"1","101.5"\n', ([0, 1], [100.0, 101.5])),
    ("padded tokens", " 0 , 100 \n\t1\t,\t101\t\n", ([0, 1], [100.0, 101.0])),
    ("crlf", "timestamp,price\r\n0,100\r\n1,101\r\n", ([0, 1], [100.0, 101.0])),
    ("blank lines", "timestamp,price\n\n0,100\n\n\n1,101\n\n", ([0, 1], [100.0, 101.0])),
    ("bad price after blank lines", "timestamp,price\n\n0,100\n\n1,0\n", 5),
    ("bad price after a quoted line break", 'timestamp,price\n0,"100\n"\n1,101\n2,-1\n', 5),
    ("underscored digits", "1_000,1_00\n1_001,101\n", ([1000, 1001], [100.0, 101.0])),
    ("hex timestamp", "0,100\n0x10,101\n", 2),
    ("hex price", "0,100\n1,0x10\n", 2),
    ("negative epoch", "0,100\n-5,101\n", 2),
    ("negative zero epoch", "-0,100\n1,101\n", 1),
    ("negative exponent epoch", "0,100\n1e-5,101\n", 2),
    ("integral negative exponent epoch", "0,100\n10e-1,101\n", 2),
    ("negative exponent prices", "0,1e-5\n1,2.5e-05\n", ([0, 1], [1e-5, 2.5e-5])),
    ("iso with Z and +02:00",
     "2020-01-01T00:00:00Z,100\n2020-01-01T02:01:00+02:00,101\n",
     ([26297280, 26297281], [100.0, 101.0])),
    ("mixed iso and numeric rows",
     "timestamp,price\n2020-01-01T00:00:00Z,100\n26297281,101\n1577836920,102\n",
     ([26297280, 26297281, 26297282], [100.0, 101.0, 102.0])),
    ("bad iso date", "timestamp,price\n2020-01-01T00:00:00Z,100\n2020-13-01T00:00,101\n", 3),
    ("epoch minutes below 1e8", "99999998,100\n99999999,101\n",
     ([99999998, 99999999], [100.0, 101.0])),
    ("epoch seconds from 1e8", "100000020,100\n100000080,101\n",
     ([1666667, 1666668], [100.0, 101.0])),
    ("seconds off the minute", "1577836800,100\n1577836830,101\n", 2),
    ("row without a price", "0,100\n1\n2,102\n", 2),
    ("whitespace-only row", "0,100\n  \n2,102\n", 2),
    ("extra columns ignored", "timestamp,price\n0,100,x\n1,101,\n",
     ([0, 1], [100.0, 101.0])),
    ("infinite price", "timestamp,price\n0,100\n1,inf\n", 3),
    ("nan price", "timestamp,price\n0,100\n1,nan\n", 3),
    ("overflowing price", "timestamp,price\n0,100\n1,1e400\n", 3),
    ("one data row", "timestamp,price\n0,100\n", None),
]

WIDE_CASES = [
    ("wide quoted fields", 'timestamp,"AAA",BBB\n"0",1,2\n1,"3",4\n',
     {"AAA": ([0, 1], [1.0, 3.0]), "BBB": ([0, 1], [2.0, 4.0])}),
    ("wide crlf and blank lines", "timestamp,AAA,BBB\r\n\r\n0,1,2\r\n1,3,4\r\n",
     {"AAA": ([0, 1], [1.0, 3.0]), "BBB": ([0, 1], [2.0, 4.0])}),
    ("ragged wide row (short)", "timestamp,AAA,BBB\n0,1,2\n1,3\n2,5,6\n", 3),
    ("ragged wide row (long)", "timestamp,AAA,BBB\n0,1,2\n\n1,3,4,5\n", 4),
    ("wide nonpositive price", "timestamp,AAA,BBB\n0,1,2\n\n1,3,-4\n", 4),
    ("wide without header", "0,1,2\n1,3,4\n", 1),
]


def _load_case(tmp_path, name, text):
    path = tmp_path / name
    path.write_bytes(text.encode("utf-8"))
    return load_quotes(str(path))


def _assert_case(tmp_path, name, text, expected):
    if isinstance(expected, (int, type(None))):
        with pytest.raises(QuoteParseError) as exc:
            _load_case(tmp_path, name, text)
        assert exc.value.path == str(tmp_path / name)
        assert exc.value.line == expected
        return
    series = _load_case(tmp_path, name, text)
    if isinstance(expected, tuple):
        expected = {"AAA": expected}
    assert [qs.ticker for qs in series] == list(expected)
    for qs in series:
        ts, prices = expected[qs.ticker]
        assert qs.timestamps.tolist() == ts
        assert qs.prices.tobytes() == np.asarray(prices, dtype=np.float64).tobytes()


@pytest.mark.parametrize("case,text,expected", NARROW_CASES, ids=[c[0] for c in NARROW_CASES])
def test_narrow_parsing_literal_cases(tmp_path, case, text, expected):
    _assert_case(tmp_path, "AAA.csv", text, expected)


@pytest.mark.parametrize("case,text,expected", WIDE_CASES, ids=[c[0] for c in WIDE_CASES])
def test_wide_parsing_literal_cases(tmp_path, case, text, expected):
    _assert_case(tmp_path, "wide.csv", text, expected)


def test_header_is_a_first_row_whose_values_do_not_parse(tmp_path):
    _assert_case(tmp_path, "AAA.csv", "date-time,price\n0,100\n1,101\n",
                 ([0, 1], [100.0, 101.0]))
    _assert_case(tmp_path, "wide.csv", "date-time,BTC,ETH\n0,1,2\n1,3,4\n",
                 {"BTC": ([0, 1], [1.0, 3.0]), "ETH": ([0, 1], [2.0, 4.0])})
    # A numeric price keeps a first row with a malformed timestamp a data row.
    _assert_case(tmp_path, "AAA.csv", "2020-13-01,100\n0,100\n1,101\n", 1)
    _assert_case(tmp_path, "wide.csv", "2020-13-01,1,2\n0,1,2\n1,3,4\n", 1)


def test_utf8_byte_order_mark_is_not_data(tmp_path):
    _assert_case(tmp_path, "AAA.csv", "\ufeff0,100\n1,101\n2,102\n",
                 ([0, 1, 2], [100.0, 101.0, 102.0]))
    _assert_case(tmp_path, "AAA.csv", "\ufefftimestamp,price\n0,100\n1,101\n",
                 ([0, 1], [100.0, 101.0]))
    _assert_case(tmp_path, "wide.csv", "\ufefftimestamp,AAA,BBB\n0,1,2\n1,3,4\n",
                 {"AAA": ([0, 1], [1.0, 3.0]), "BBB": ([0, 1], [2.0, 4.0])})


@pytest.mark.parametrize("token", ["nan", "inf", "1e300"])
def test_non_finite_or_huge_timestamp_names_its_line(tmp_path, token):
    _assert_case(tmp_path, "AAA.csv", f"timestamp,price\n0,100\n{token},101\n2,102\n", 3)
    _assert_case(tmp_path, "wide.csv", f"timestamp,AAA,BBB\n0,1,2\n{token},3,4\n", 3)


@pytest.mark.parametrize("raw, line", [
    (b"timestamp,price\n0,100\n1,10\xff1\n2,102\n", 3),
    (b"\xef\xbb\xbf0,100\r\n1,101\r\n2,1\xe2\x822\r\n", 3),
    (b"0,100\r1,\xfe\r2,102\r", 2),
    (b"\xff,100\n1,101\n", 1),
], ids=["header and lf", "bom and crlf", "cr only", "first byte"])
def test_non_utf8_bytes_name_their_line(tmp_path, raw, line):
    path = tmp_path / "AAA.csv"
    path.write_bytes(raw)
    with pytest.raises(QuoteParseError, match="not UTF-8") as exc:
        load_quotes(str(path))
    assert exc.value.path == str(path)
    assert exc.value.line == line


@pytest.mark.parametrize("text, line", [
    # The header read meets the long field first.
    ("0," + "1" * 200_000 + "\n1,101\n2,102\n", 1),
    # The bulk parse reads the long price; looking up the line of the bad
    # row after it re-reads the body with csv and meets the long field.
    ("timestamp,price\n0,100\n1,1." + "0" * 200_000 + "\n2,102\n3,-1\n", 3),
    # A clean file: the bulk parse alone would read the long price.
    ("timestamp,price\n0,100\n1,1." + "0" * 200_000 + "\n2,102\n", 3),
], ids=["first row", "before a bad row", "clean file"])
def test_field_over_csv_limit_names_its_line(tmp_path, text, line):
    # csv.reader's default field limit is 131,072 characters.
    path = tmp_path / "AAA.csv"
    path.write_text(text)
    with pytest.raises(QuoteParseError, match="field limit") as exc:
        load_quotes(str(path))
    assert (exc.value.path, exc.value.line) == (str(path), line)


def test_field_at_csv_limit_loads(tmp_path):
    # 131,072 characters is still within the limit, quoted or not.
    price = "1." + "0" * 131_070
    text = f'timestamp,price\n0,100\n1,{price}\n2,"{price}"\n3,102\n'
    (qs,) = _load_case(tmp_path, "AAA.csv", text)
    assert qs.prices.tolist() == [100.0, 1.0, 1.0, 102.0]


def test_price_parsing_is_bitwise_python_float(tmp_path):
    # Random bit patterns cover every positive finite double, subnormals included.
    rng = np.random.default_rng(5)
    bits = rng.integers(1, 0x7FF0_0000_0000_0000, size=5000, dtype=np.int64)
    tokens = [repr(v) for v in bits.view(np.float64).tolist()]
    tokens += ["5e-324", "2.225073858507201e-308", "1.7976931348623157e308",
               " 5 ", "+3", ".5", "5.", "1E5", "0.1", "1_0.5", "\xa07 "]
    text = "".join(f"{k},{token}\n" for k, token in enumerate(tokens))
    (qs,) = _load_case(tmp_path, "AAA.csv", text)
    assert qs.prices.tobytes() == np.array([float(t) for t in tokens]).tobytes()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
                min_size=2, max_size=40))
def test_repr_prices_load_back_bitwise(prices):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "AAA.csv")
        with open(path, "w") as fh:
            fh.write("timestamp,price\n")
            fh.writelines(f"{k},{p!r}\n" for k, p in enumerate(prices))
        (qs,) = load_quotes(path)
    assert qs.timestamps.tolist() == list(range(len(prices)))
    assert qs.prices.tobytes() == np.array(prices, dtype=np.float64).tobytes()


def _reference_seconds(token):
    token = token.strip()
    try:
        if any(h in token for h in "-:T"):
            dt = datetime.fromisoformat(token.replace("Z", "+00:00"))
            return (dt if dt.tzinfo else dt.replace(tzinfo=timezone.utc)).timestamp()
        value = float(token)
    except ValueError:
        return None
    return value * 60.0 if value < 1e8 else value


def _reference_float(token):
    try:
        return float(token)
    except ValueError:
        return None


def _reference_load(text):
    """A narrow quote file read row by row with the documented rules: the
    accepted (timestamps, prices), or the line of the first bad row (None
    when the file as a whole is at fault)."""
    seen, stamps, prices, lines = set(), [], [], []
    rows = csv.reader(io.StringIO(text.removeprefix("\ufeff"), newline=""))
    start = 1
    for row in rows:
        # A row's line is the one its record starts on.
        line, start = start, 1 + rows.line_num
        if not row:
            continue
        if (line == 1 and _reference_seconds(row[0]) is None
                and all(_reference_float(t) is None for t in row[1:])):
            continue
        if len(row) < 2:
            return line
        seconds, price = _reference_seconds(row[0]), _reference_float(row[1])
        if seconds is None or not math.isfinite(seconds / 60.0):
            return line
        minutes = seconds / 60.0
        if abs(minutes - round(minutes)) > 1e-6 or abs(round(minutes)) >= 2**63:
            return line
        if round(minutes) in seen:
            return line
        if price is None or not math.isfinite(price) or price <= 0:
            return line
        seen.add(round(minutes))
        stamps.append(round(minutes))
        prices.append(price)
        lines.append(line)
    if len(stamps) < 2:
        return None
    for k in range(1, len(stamps)):
        if stamps[k] < stamps[k - 1]:
            return lines[k]
    return stamps, prices


_TOKENS = ["0", "1", "2", "7", "99999999", "100000020", "1577836860", "-5", "-0",
           "1e-5", "10e-1", "1_0", "0x10", "nan", "inf", "INFINITY", " 3 ", '"4"',
           '"5,6"', '"7\n"', "2.5", "1e400", "", "abc", "5\x1c", "5\xa0",
           "2020-01-01T00:01:00Z", "1970-01-01T00:03", "1970-01-01T00:02:00+00:00"]


@st.composite
def _quote_texts(draw):
    header = draw(st.sampled_from(["", "timestamp,price", "date-time,price", "\ufeff0,3"]))
    rows = draw(st.lists(st.lists(st.sampled_from(_TOKENS), max_size=3), max_size=8))
    lines = ([header] if header else []) + [",".join(row) for row in rows]
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                         min_size=len(lines), max_size=len(lines)))
    return "".join(line + end for line, end in zip(lines, ends))


@settings(max_examples=400, deadline=None)
@given(_quote_texts())
def test_parsing_matches_row_by_row_reference(text):
    expected = _reference_load(text)
    with tempfile.TemporaryDirectory() as tmp:
        with open(os.path.join(tmp, "AAA.csv"), "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        if isinstance(expected, tuple):
            (qs,) = load_quotes(tmp)
            assert qs.timestamps.tolist() == expected[0]
            assert qs.prices.tobytes() == np.array(expected[1]).tobytes()
        else:
            with pytest.raises(QuoteParseError) as exc:
                load_quotes(tmp)
            assert exc.value.line == expected
