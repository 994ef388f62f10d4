import numpy as np
import pytest

from triadnet.errors import DataError
from triadnet.ingest import PricePanel, load_panel, slice_window, write_panel_long

from conftest import make_panel


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def _sectors_file(tmp_path, body="ticker,sector\nAAA,TECH\n"):
    return _write(tmp_path / "sectors.csv", body)


def test_load_long_minimal(tmp_path):
    prices = _write(
        tmp_path / "p.csv",
        "date,ticker,adj_close\n"
        "2020-01-02,AAA,10.0\n"
        "2020-01-03,AAA,10.5\n"
        "2020-01-06,AAA,10.2\n",
    )
    panel = load_panel(prices, _sectors_file(tmp_path), "long")
    assert panel.dates == ("2020-01-02", "2020-01-03", "2020-01-06")
    assert panel.assets == ("AAA",)
    assert panel.present.all()
    assert panel.sectors["AAA"] == "TECH"


def test_load_long_sorts_and_fills_unknown_sector(tmp_path):
    prices = _write(
        tmp_path / "p.csv",
        "date,ticker,adj_close\n"
        "2020-01-03,BBB,5.0\n"
        "2020-01-02,AAA,10.0\n"
        "2020-01-02,BBB,4.0\n"
        "2020-01-03,AAA,11.0\n",
    )
    panel = load_panel(prices, _sectors_file(tmp_path), "long")
    assert panel.dates == ("2020-01-02", "2020-01-03")
    assert panel.assets == ("AAA", "BBB")
    assert panel.sectors["BBB"] == "UNKNOWN"
    assert panel.prices[0, 1] == 4.0


def test_load_wide_gap_is_missing_not_error(tmp_path):
    prices = _write(
        tmp_path / "p.csv",
        "date,AAA,BBB\n2020-01-02,10.0,20.0\n2020-01-03,,21.0\n2020-01-06,10.5,NaN\n",
    )
    panel = load_panel(prices, _sectors_file(tmp_path), "wide")
    assert panel.present.tolist() == [[True, True], [False, True], [True, False]]
    assert np.isnan(panel.prices[1, 0])


def test_load_long_zero_price_names_row(tmp_path):
    prices = _write(
        tmp_path / "p.csv",
        "date,ticker,adj_close\n2020-01-02,AAA,10.0\n2020-01-03,AAA,0.0\n",
    )
    with pytest.raises(DataError, match=r"line 3.*AAA"):
        load_panel(prices, _sectors_file(tmp_path), "long")


def test_load_long_duplicate_pair_rejected(tmp_path):
    prices = _write(
        tmp_path / "p.csv",
        "date,ticker,adj_close\n2020-01-02,AAA,10.0\n2020-01-02,AAA,10.1\n",
    )
    with pytest.raises(DataError, match="duplicate"):
        load_panel(prices, _sectors_file(tmp_path), "long")


def test_load_long_rejects_non_finite(tmp_path):
    prices = _write(
        tmp_path / "p.csv",
        "date,ticker,adj_close\n2020-01-02,AAA,inf\n",
    )
    with pytest.raises(DataError, match="non-finite"):
        load_panel(prices, _sectors_file(tmp_path), "long")


def test_load_unreadable_file(tmp_path):
    with pytest.raises(DataError, match="unreadable"):
        load_panel(tmp_path / "absent.csv", _sectors_file(tmp_path), "long")


def test_load_wide_duplicate_date_rejected(tmp_path):
    prices = _write(
        tmp_path / "p.csv",
        "date,AAA\n2020-01-02,10.0\n2020-01-02,10.5\n",
    )
    with pytest.raises(DataError, match="duplicate date"):
        load_panel(prices, _sectors_file(tmp_path), "wide")


def test_slice_window_identity_and_tail():
    panel = make_panel(np.arange(10, 20, dtype=float).reshape(10, 1))
    whole = slice_window(panel, panel.dates[9], 10)
    assert whole.dates == panel.dates
    tail = slice_window(panel, panel.dates[9], 3)
    assert tail.dates == panel.dates[7:]
    assert tail.assets == panel.assets


def test_slice_window_errors():
    panel = make_panel(np.arange(10, 20, dtype=float).reshape(10, 1))
    with pytest.raises(DataError, match="insufficient history"):
        slice_window(panel, panel.dates[9], 11)
    with pytest.raises(DataError, match="not in panel"):
        slice_window(panel, "1999-01-01", 2)


def test_slice_window_contiguous_property(rng):
    panel = make_panel(rng.uniform(1, 2, size=(30, 4)))
    for _ in range(20):
        end = int(rng.integers(0, 30))
        length = int(rng.integers(1, end + 2))
        sub = slice_window(panel, panel.dates[end], length)
        assert len(sub.dates) == length
        assert sub.dates == panel.dates[end - length + 1 : end + 1]


def test_roundtrip_idempotent(tmp_path, rng):
    prices = rng.uniform(5, 50, size=(8, 3))
    prices[2, 1] = np.nan
    prices[5, 0] = np.nan
    panel = make_panel(prices, sectors={"A0": "X", "A1": "Y", "A2": "UNKNOWN"})
    p1, s1 = tmp_path / "p1.csv", tmp_path / "s1.csv"
    write_panel_long(panel, p1, s1)
    loaded = load_panel(p1, s1, "long")
    p2, s2 = tmp_path / "p2.csv", tmp_path / "s2.csv"
    write_panel_long(loaded, p2, s2)
    assert p1.read_bytes() == p2.read_bytes()
    for a, b in [(loaded, panel), (load_panel(p2, s2, "long"), loaded)]:
        assert a.dates == b.dates and a.assets == b.assets and a.sectors == b.sectors
        assert np.array_equal(a.present, b.present)
        assert np.array_equal(a.prices[a.present], b.prices[b.present])


LONG = "date,ticker,adj_close\n"
WIDE = "date,A,B\n"
SECTORS = "ticker,sector\nA,X\nB,Y\n"

# (format, prices file, sectors file, pattern naming the file and, where the
# fault sits in a row, the physical line it starts on); blank rows and the
# extra lines of a quoted field that spans lines still count.
SINGLE_FAULTS = {
    "unparseable price": (
        "long", LONG + "2020-01-02,A,1\n2020-01-03,A,abc\n", SECTORS,
        r"unparseable price 'abc' at .*/p\.csv line 3 \(2020-01-03,A\)",
    ),
    "long header": (
        "long", "date,tick,adj_close\n2020-01-02,A,1\n", SECTORS,
        r"/p\.csv: long format needs header columns date,ticker,adj_close",
    ),
    "long short row": (
        "long", LONG + "2020-01-02,A,1\n\n2020-01-03,A\n", SECTORS,
        r"/p\.csv line 4: short row \['2020-01-03', 'A'\]",
    ),
    "long empty date": ("long", LONG + " ,A,1\n", SECTORS, r"/p\.csv line 2: empty date or ticker"),
    "long empty ticker": (
        "long", LONG + "2020-01-02,A,1\n2020-01-02, ,1\n", SECTORS,
        r"/p\.csv line 3: empty date or ticker",
    ),
    "long no data rows": ("long", LONG + "\n , ,\n", SECTORS, r"/p\.csv: no data rows"),
    "wide header": (
        "wide", "date\n2020-01-02\n", SECTORS,
        r"/p\.csv: wide format needs a date column plus ticker columns",
    ),
    "wide duplicate ticker columns": (
        "wide", "date,A, A\n2020-01-02,1,2\n", SECTORS, r"/p\.csv: duplicate ticker columns",
    ),
    "wide cell count": (
        "wide", WIDE + "2020-01-02,1,2\n2020-01-03,1\n", SECTORS,
        r"/p\.csv line 3: expected 3 cells, got 2",
    ),
    "wide empty date": ("wide", WIDE + ",1,2\n", SECTORS, r"/p\.csv line 2: empty date$"),
    "wide no data rows": ("wide", WIDE + ",,\n\n", SECTORS, r"/p\.csv: no data rows"),
    "empty prices file": ("long", "", SECTORS, r"/p\.csv: empty file"),
    "empty sectors file": ("long", LONG + "2020-01-02,A,1\n", "", r"sectors file .*/s\.csv is empty"),
    "sectors short row": (
        "long", LONG + "2020-01-02,A,1\n", "ticker,sector\nA,X\n\nB\n",
        r"sectors file .*/s\.csv line 4: expected \(ticker,sector\)",
    ),
    "sectors duplicate ticker": (
        "long", LONG + "2020-01-02,A,1\n", "ticker,sector\nA,X\nA,Y\n",
        r"sectors file .*/s\.csv line 3: duplicate ticker 'A'",
    ),
    "long prices not utf-8": (
        "long", LONG.encode() + b"2020-01-02,A,1\xff\n", SECTORS,
        r"unreadable file .*/p\.csv: 'utf-8' codec can't decode byte 0xff",
    ),
    "wide prices not utf-8": (
        "wide", WIDE.encode() + b"2020-01-02,1,\xff\n", SECTORS,
        r"unreadable file .*/p\.csv: 'utf-8' codec can't decode byte 0xff",
    ),
    "sectors not utf-8": (
        "long", LONG + "2020-01-02,A,1\n", b"ticker,sector\nA,\xff\n",
        r"unreadable file .*/s\.csv: 'utf-8' codec can't decode byte 0xff",
    ),
    "oversized field": (
        "long", LONG + '2020-01-02,A,"' + "1" * 200_000 + '"\n', SECTORS,
        r"unreadable file .*/p\.csv: field larger than field limit \(131072\)",
    ),
    "wide empty ticker name": (
        "wide", "date,,B\n2020-01-02,1,2\n", SECTORS, r"/p\.csv: empty ticker name in column 2",
    ),
    "line after a field spanning lines": (
        "long", LONG + '2020-01-02,"A\nB",1\n2020-01-03,A,abc\n', SECTORS,
        r"unparseable price 'abc' at .*/p\.csv line 4 \(2020-01-03,A\)",
    ),
    "first bad row in file order": (
        "long", LONG + "2020-01-02,A,1\n2020-01-02,A,x\n2020-01-03,,1\n", SECTORS,
        r"/p\.csv line 3: duplicate \(date,ticker\) pair \('2020-01-02', 'A'\)",
    ),
}


def _write_bytes(path, body):
    path.write_bytes(body if isinstance(body, bytes) else body.encode("utf-8"))
    return path


@pytest.mark.parametrize("fmt,prices,sectors,pattern", SINGLE_FAULTS.values(), ids=SINGLE_FAULTS)
def test_single_fault_files_name_the_file_and_row(tmp_path, fmt, prices, sectors, pattern):
    p = _write_bytes(tmp_path / "p.csv", prices)
    s = _write_bytes(tmp_path / "s.csv", sectors)
    with pytest.raises(DataError, match=pattern):
        load_panel(p, s, fmt)


def test_load_wide_keeps_header_order_blank_rows_and_empty_dates(tmp_path):
    prices = _write(
        tmp_path / "p.csv",
        "date,Z,A,M\n\n2020-01-05,1.5,,NaN\n2020-01-02,2,3,4\n , , ,\n"
        "2020-01-03,,nan, \n2020-01-04,1e3,2.5,7\n",
    )
    panel = load_panel(prices, _sectors_file(tmp_path), "wide")
    assert panel.assets == ("Z", "A", "M")
    assert panel.dates == ("2020-01-02", "2020-01-03", "2020-01-04", "2020-01-05")
    assert panel.present.tolist() == [
        [True, True, True], [False, False, False], [True, True, True], [True, False, False],
    ]
    assert panel.prices[panel.present].tolist() == [2.0, 3.0, 4.0, 1e3, 2.5, 7.0, 1.5]
    assert np.isnan(panel.prices[~panel.present]).all()


def _panel_args(**changes):
    args = {
        "dates": ("2020-01-02", "2020-01-03"),
        "assets": ("A", "B"),
        "prices": np.ones((2, 2)),
        "present": np.ones((2, 2), dtype=bool),
        "sectors": {"A": "X", "B": "Y"},
    }
    args.update(changes)
    return args


@pytest.mark.parametrize(
    "changes,pattern",
    [
        ({"prices": np.ones((3, 2))}, "shape mismatch"),
        ({"dates": ("2020-01-02", "2020-01-02")}, "not strictly increasing"),
        ({"dates": ("2020-01-03", "2020-01-02")}, "not strictly increasing"),
        ({"assets": ("A", "A")}, "duplicate asset"),
        ({"prices": np.array([[1.0, 0.0], [1.0, 1.0]])}, "finite and strictly positive"),
        ({"sectors": {"A": "X"}}, r"sectors map does not cover assets: \['B'\]"),
    ],
)
def test_price_panel_constructor_checks(changes, pattern):
    PricePanel(**_panel_args())
    with pytest.raises(DataError, match=pattern):
        PricePanel(**_panel_args(**changes))


_FUZZ_TOKENS = [
    b"date", b"ticker", b"adj_close", b"A", b"B", b"2020-01-02", b"2020-01-03",
    b",", b",", b",", b'"', b"\r\n", b"\n", b"\n", b"1.5", b"2", b"0", b"-1",
    b"nan", b"inf", b" ", b"\xff", b"\x00",
    b"2020-01-02,A,1.5\n", b"2020-01-03,B,2\n", b"2020-01-02,1.5,\n", b"2020-01-03,2,3\n",
]
_FUZZ_HEADERS = [b"", b"date,ticker,adj_close\n", b"date,A,B\n"]
_FUZZ_SECTORS = [
    b"ticker,sector\nA,X\nB,Y\n", b"ticker,sector\n", b"", b"ticker,sector\nA\n",
    b"ticker,sector\nA,X\nA,Y\n", b"ticker,sector\n\xff\n", b"ticker,sector\n\nB,\n",
]


def test_load_panel_returns_a_panel_or_raises_data_error_on_arbitrary_bytes(tmp_path):
    rng = np.random.default_rng(20201)
    p, s = tmp_path / "p.csv", tmp_path / "s.csv"
    loaded = 0
    for _ in range(2000):
        body = _FUZZ_HEADERS[rng.integers(len(_FUZZ_HEADERS))] + b"".join(
            _FUZZ_TOKENS[i] for i in rng.integers(len(_FUZZ_TOKENS), size=rng.integers(0, 25))
        )
        p.write_bytes(body)
        for fmt in ("long", "wide"):
            s.write_bytes(_FUZZ_SECTORS[rng.integers(len(_FUZZ_SECTORS))])
            try:
                panel = load_panel(p, s, fmt)
            except DataError:
                continue
            assert isinstance(panel, PricePanel)
            loaded += 1
    assert loaded > 0
