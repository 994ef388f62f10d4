import csv
import math
import tracemalloc

import numpy as np
import pytest

from triadnet.errors import DataError
from triadnet.ingest import UNKNOWN_SECTOR, PricePanel, load_panel, write_panel_long

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
    # A quoted field that spans lines comes before the fault, so the message
    # needs the line lookup of the error path, at every site that raises.
    "long short row after a field spanning lines": (
        "long", LONG + '2020-01-02,"A\nB",1\n\n2020-01-03,A\n', SECTORS,
        r"/p\.csv line 5: short row \['2020-01-03', 'A'\]",
    ),
    "long short row that itself spans lines": (
        "long", LONG + '2020-01-02,A,1\n2020-01-03,"A\nB"\n', SECTORS,
        r"/p\.csv line 3: short row \['2020-01-03', 'A\\nB'\]",
    ),
    "long empty ticker after a field spanning lines": (
        "long", LONG + '2020-01-02,"A\nB",1\n2020-01-02, ,1\n', SECTORS,
        r"/p\.csv line 4: empty date or ticker",
    ),
    "long duplicate pair after a field spanning lines": (
        "long", LONG + '2020-01-02,"A\nB",1\n2020-01-02,A,1\n2020-01-02,A,2\n', SECTORS,
        r"/p\.csv line 5: duplicate \(date,ticker\) pair \('2020-01-02', 'A'\)",
    ),
    "long non-positive price after a field spanning lines": (
        "long", LONG + '2020-01-02,A,"1\n"\n2020-01-03,A,-1\n', SECTORS,
        r"non-positive or non-finite price '-1' at .*/p\.csv line 4 \(2020-01-03,A\)",
    ),
    "wide cell count after a field spanning lines": (
        "wide", WIDE + '2020-01-02,"1\n",2\n2020-01-03,1\n', SECTORS,
        r"/p\.csv line 4: expected 3 cells, got 2",
    ),
    "wide empty date after a field spanning lines": (
        "wide", WIDE + '2020-01-02,1,"\n2"\n\n ,1,2\n', SECTORS, r"/p\.csv line 5: empty date$",
    ),
    "wide duplicate date after a field spanning lines": (
        "wide", WIDE + '"2020-01-02\n",1,2\n2020-01-02,1,2\n', SECTORS,
        r"/p\.csv line 4: duplicate date '2020-01-02'",
    ),
    "wide bad price after a field spanning lines": (
        "wide", WIDE + '2020-01-02,"1\n\n",2\n2020-01-03,1,x\n', SECTORS,
        r"unparseable price 'x' at .*/p\.csv line 5 \(2020-01-03,B\)",
    ),
    "sectors short row after a field spanning lines": (
        "long", LONG + "2020-01-02,A,1\n", 'ticker,sector\nA,"X\nY"\nB\n',
        r"sectors file .*/s\.csv line 4: expected \(ticker,sector\)",
    ),
    "sectors duplicate ticker after a field spanning lines": (
        "long", LONG + "2020-01-02,A,1\n", 'ticker,sector\nA,X\nB,"Y\nZ"\nA,Y\n',
        r"sectors file .*/s\.csv line 5: duplicate ticker 'A'",
    ),
    # The reader meets the bad price before it decodes the chunk, more than
    # 8 KB later, that holds the byte that is not UTF-8.
    "bad price before an undecodable byte": (
        "long",
        (LONG + "2020-01-02,A,1\n2020-01-03,A,abc\n" + "2020-01-04,A,1\n" * 700).encode() + b"\xff\n",
        SECTORS,
        r"unparseable price 'abc' at .*/p\.csv line 3 \(2020-01-03,A\)",
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


# --- reference loader: the list-based reader the streaming one replaced ------
# It reads every record into a list before it parses any, then builds a
# (date, ticker) -> price dict (long) or a date -> row dict (wide).


def _ref_rows(path):
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            rows = list(reader)
            if reader.line_num == len(rows):
                return rows, range(1, len(rows) + 1)
            fh.seek(0)
            reader = csv.reader(fh)
            return rows, [1] + [reader.line_num + 1 for _ in reader]
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"unreadable file {path}: {exc}") from exc


def _ref_body(rows, starts):
    for lineno, row in zip(starts[1:], rows[1:]):
        if any(map(str.strip, row)):
            yield lineno, row


def _ref_price(text, where):
    try:
        value = float(text)
    except ValueError:
        raise DataError(f"unparseable price {text!r} at {where}") from None
    if not math.isfinite(value) or value <= 0:
        raise DataError(f"non-positive or non-finite price {text!r} at {where}")
    return value


def _ref_sectors(path):
    rows, starts = _ref_rows(path)
    if not rows:
        raise DataError(f"sectors file {path} is empty")
    sectors = {}
    for lineno, row in _ref_body(rows, starts):
        if len(row) < 2:
            raise DataError(f"sectors file {path} line {lineno}: expected (ticker,sector)")
        ticker, sector = row[0].strip(), row[1].strip()
        if ticker in sectors:
            raise DataError(f"sectors file {path} line {lineno}: duplicate ticker {ticker!r}")
        sectors[ticker] = sector or UNKNOWN_SECTOR
    return sectors


def _ref_long(header, body, path):
    columns = [c.strip().lower() for c in header]
    try:
        cols = [columns.index(name) for name in ("date", "ticker", "adj_close")]
    except ValueError:
        raise DataError(
            f"{path}: long format needs header columns date,ticker,adj_close; got {header}"
        ) from None
    i_date, i_tick, i_price = cols
    cells = {}
    for lineno, row in body:
        if len(row) <= max(cols):
            raise DataError(f"{path} line {lineno}: short row {row}")
        date, ticker = row[i_date].strip(), row[i_tick].strip()
        if not date or not ticker:
            raise DataError(f"{path} line {lineno}: empty date or ticker")
        if (date, ticker) in cells:
            raise DataError(f"{path} line {lineno}: duplicate (date,ticker) pair {(date, ticker)}")
        cells[date, ticker] = _ref_price(row[i_price], f"{path} line {lineno} ({date},{ticker})")
    d_ix = {d: i for i, d in enumerate(sorted({d for d, _ in cells}))}
    a_ix = {a: i for i, a in enumerate(sorted({a for _, a in cells}))}
    prices = np.full((len(d_ix), len(a_ix)), np.nan)
    prices[[d_ix[d] for d, _ in cells], [a_ix[a] for _, a in cells]] = list(cells.values())
    return list(d_ix), list(a_ix), prices


def _ref_wide(header, body, path):
    if len(header) < 2:
        raise DataError(f"{path}: wide format needs a date column plus ticker columns")
    assets = [c.strip() for c in header[1:]]
    if len(set(assets)) != len(assets):
        raise DataError(f"{path}: duplicate ticker columns")
    if "" in assets:
        raise DataError(f"{path}: empty ticker name in column {assets.index('') + 2}")
    records = {}
    for lineno, row in body:
        if len(row) != len(header):
            raise DataError(f"{path} line {lineno}: expected {len(header)} cells, got {len(row)}")
        date = row[0].strip()
        if not date:
            raise DataError(f"{path} line {lineno}: empty date")
        if date in records:
            raise DataError(f"{path} line {lineno}: duplicate date {date!r}")
        records[date] = [
            np.nan if text.lower() in {"", "nan"}
            else _ref_price(text, f"{path} line {lineno} ({date},{ticker})")
            for ticker, text in zip(assets, map(str.strip, row[1:]))
        ]
    dates = sorted(records)
    return dates, assets, np.array([records[d] for d in dates], dtype=float)


def ref_load_panel(prices_path, sectors_path, fmt):
    rows, starts = _ref_rows(prices_path)
    if not rows:
        raise DataError(f"{prices_path}: empty file")
    load = {"long": _ref_long, "wide": _ref_wide}[fmt]
    dates, assets, prices = load(rows[0], _ref_body(rows, starts), prices_path)
    if not dates:
        raise DataError(f"{prices_path}: no data rows")
    known = _ref_sectors(sectors_path)
    sectors = {a: known.get(a, UNKNOWN_SECTOR) for a in assets}
    return PricePanel(tuple(dates), tuple(assets), prices, np.isfinite(prices), sectors)


def _outcome(load, p, s, fmt):
    """The loaded panel's fields as bytes, or the DataError message."""
    try:
        panel = load(p, s, fmt)
    except DataError as exc:
        return str(exc)
    return (panel.dates, panel.assets, panel.sectors, panel.prices.tobytes(), panel.present.tobytes())


def _random_long(rng):
    """Long file: shuffled rows under a reordered header with an extra column,
    blank rows, quoted fields that span lines and, sometimes, one bad row."""
    n_dates, n_assets = rng.integers(1, 30), rng.integers(1, 9)
    header = ["date", "ticker", "adj_close", "note"]
    order = rng.permutation(4)
    rows = []
    for d in range(n_dates):
        for a in range(n_assets):
            if rng.random() < 0.2:
                continue  # an absent cell
            price = repr(float(rng.uniform(0.5, 200)))
            date, ticker = f"2020-{d // 28 + 1:02d}-{d % 28 + 1:02d}", f"T{a}"
            if rng.random() < 0.1:  # a quoted field that spans lines: the cell still parses
                date, price = date + "\n", "\n" + price
            note = "a\nnote" if rng.random() < 0.1 else ""
            rows.append([date, ticker, price, note])
    rows = [rows[i] for i in rng.permutation(len(rows))]
    fault = rng.integers(6) if rows else 0
    if fault == 1:  # a duplicate (date, ticker) pair
        rows.insert(rng.integers(len(rows) + 1), list(rows[rng.integers(len(rows))]))
    elif fault == 2:  # a bad price
        rows[rng.integers(len(rows))][2] = ["abc", "0", "-1.5", "inf", "nan", ""][rng.integers(6)]
    elif fault == 3:  # an empty ticker
        rows[rng.integers(len(rows))][1] = " "
    lines = [[header[i] for i in order]] + [[row[i] for i in order] for row in rows]
    for _ in range(rng.integers(0, 4)):  # blank rows, empty or all-blank cells
        lines.insert(rng.integers(1, len(lines) + 1), [] if rng.random() < 0.5 else [" ", "", " ", ""])
    if fault == 4 and len(lines) > 1:  # a short row
        lines[rng.integers(1, len(lines))] = ["2020-01-01", "T0"]
    return lines


def _random_wide(rng):
    """Wide file: shuffled dates, empty, blank and NaN cells, a date with no
    prices, quoted fields that span lines and, sometimes, one bad row."""
    n_dates, n_assets = rng.integers(1, 30), rng.integers(1, 9)
    tickers = [f"T{a}" for a in rng.permutation(n_assets)]
    rows = []
    for d in rng.permutation(n_dates):
        cells = [repr(float(rng.uniform(0.5, 200))) for _ in range(n_assets)]
        for a in range(n_assets):
            r = rng.random()
            if r < 0.15:
                cells[a] = ["", " ", "NaN", "nan", " NAN "][rng.integers(5)]
            elif r < 0.2:
                cells[a] = cells[a] + "\n"
        if rng.random() < 0.1:
            cells = [""] * n_assets  # a date with no prices
        date = f"2020-{d // 28 + 1:02d}-{d % 28 + 1:02d}"
        rows.append([date + "\n" if rng.random() < 0.1 else date] + cells)
    fault = rng.integers(6)
    if fault == 1:  # a duplicate date
        rows.insert(rng.integers(len(rows) + 1), list(rows[rng.integers(len(rows))]))
    elif fault == 2:  # a bad price
        rows[rng.integers(len(rows))][1 + rng.integers(n_assets)] = ["x", "0", "-2", "-inf"][rng.integers(4)]
    elif fault == 3:  # a cell count that differs from the header's
        rows[rng.integers(len(rows))].append("1.5")
    lines = [["date"] + tickers] + rows
    for _ in range(rng.integers(0, 4)):
        lines.insert(rng.integers(1, len(lines) + 1), [] if rng.random() < 0.5 else [" "] * (n_assets + 1))
    return lines


@pytest.mark.parametrize("fmt,make", [("long", _random_long), ("wide", _random_wide)])
def test_streaming_loader_matches_the_list_based_reference(tmp_path, fmt, make):
    rng = np.random.default_rng(8080)
    p, s = tmp_path / "p.csv", tmp_path / "s.csv"
    s.write_text("ticker,sector\nT0,X\nT1,Y\n\nT3,\n", encoding="utf-8")
    loaded = spanned = 0
    for _ in range(150):
        with open(p, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(make(rng))
        want = _outcome(ref_load_panel, p, s, fmt)
        assert _outcome(load_panel, p, s, fmt) == want
        loaded += not isinstance(want, str)
        spanned += '"' in p.read_text(encoding="utf-8")
    assert 30 <= loaded <= 120 and spanned > 50


def _growing(rng, fmt, fault):
    """65-150 dates x 65-100 tickers, written date by date (dates shuffled).
    Tickers past the first 40 are first listed a quarter to half way in, so
    the 65th distinct ticker arrives with earlier rows filled; `fault` (a
    "duplicate" of a row from before, or a "bad price") sits right after it."""
    n_dates, n_assets = int(rng.integers(65, 151)), int(rng.integers(65, 101))
    dates = [f"2019-{d:04d}" for d in rng.permutation(n_dates)]
    listed = np.sort(rng.integers(n_dates // 4, n_dates // 2, size=n_assets))
    listed[:40] = 0
    price = lambda: repr(float(rng.uniform(0.5, 200)))
    if fmt == "wide":
        lines = [["date"] + [f"T{a}" for a in range(n_assets)]]
        for d, date in enumerate(dates):
            lines.append([date] + [price() if listed[a] <= d and rng.random() > 0.1 else "" for a in range(n_assets)])
        at = 1 + int(listed[64])  # the first row that lists the 65th ticker
        if fault == "duplicate":
            lines.insert(at + 1, list(lines[int(rng.integers(1, at))]))
        elif fault == "bad price":
            lines[at][65] = "-1"
        return lines
    lines, seen, at = [["date", "ticker", "adj_close"]], set(), None
    for d, date in enumerate(dates):
        for a in rng.permutation(int(np.searchsorted(listed, d, side="right"))):
            if rng.random() < 0.1:
                continue  # an absent cell
            lines.append([date, f"T{a}", price()])
            seen.add(a)
            if len(seen) == 65 and at is None:
                at = len(lines)  # just past the record that widens the grid
    if fault == "duplicate":  # a cell of the widened row, read before the re-layout
        same = [i for i in range(1, at - 1) if lines[i][0] == lines[at - 1][0]] or range(1, at - 1)
        lines.insert(at, list(lines[same[int(rng.integers(len(same)))]]))
    elif fault == "bad price":
        lines.insert(at, [lines[at - 1][0], f"T{n_assets}", "abc"])
    return lines


@pytest.mark.parametrize("fmt", ["long", "wide"])
@pytest.mark.parametrize("fault", [None, "duplicate", "bad price"])
def test_loader_matches_the_reference_past_the_initial_grid(tmp_path, fmt, fault):
    rng = np.random.default_rng([4242, ["long", "wide"].index(fmt)])
    p, s = tmp_path / "p.csv", tmp_path / "s.csv"
    s.write_text("ticker,sector\nT0,X\nT64,Y\nT70,\n", encoding="utf-8")
    for _ in range(4):
        with open(p, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(_growing(rng, fmt, fault))
        want = _outcome(ref_load_panel, p, s, fmt)
        assert _outcome(load_panel, p, s, fmt) == want
        assert isinstance(want, str) == (fault is not None)
        if not isinstance(want, str):
            assert len(want[0]) >= 65 and len(want[1]) >= 65


# (token, what the long and the wide loader read from it: a price, "missing",
# or the start of the fault's message). A price is parsed as float() parses
# it, and a wide cell is missing only if it is empty or a plain NaN.
PRICE_TOKENS = [
    ("-nan", "non-positive or non-finite", "non-positive or non-finite"),
    ("+NaN", "non-positive or non-finite", "non-positive or non-finite"),
    (" NAN ", "non-positive or non-finite", "missing"),
    ("inf", "non-positive or non-finite", "non-positive or non-finite"),
    ("1e400", "non-positive or non-finite", "non-positive or non-finite"),
    ("1_000", 1000.0, 1000.0),
    ("0x1p3", "unparseable", "unparseable"),
    ("\u0661\u0662", 12.0, 12.0),
    ("  12.5 ", 12.5, 12.5),
]


@pytest.mark.parametrize("fmt", ["long", "wide"])
@pytest.mark.parametrize("token,long_reads,wide_reads", PRICE_TOKENS, ids=[t[0] for t in PRICE_TOKENS])
def test_loaders_take_a_price_token_as_float_does(tmp_path, fmt, token, long_reads, wide_reads):
    if fmt == "long":
        body = LONG + f"2020-01-02,A,1\n2020-01-02,B,{token}\n2020-01-03,A,2\n"
    else:
        body = WIDE + f"2020-01-02,1,{token}\n2020-01-03,2,3\n"
    p, s = _write(tmp_path / "p.csv", body), _write(tmp_path / "s.csv", SECTORS)
    got = _outcome(load_panel, p, s, fmt)
    assert got == _outcome(ref_load_panel, p, s, fmt)
    reads = long_reads if fmt == "long" else wide_reads
    if isinstance(reads, str) and reads != "missing":
        assert got.startswith(f"{reads} price ")
    else:
        panel = load_panel(p, s, fmt)
        cell = panel.prices[0, panel.assets.index("B")]
        assert np.isnan(cell) if reads == "missing" else cell == reads


def test_load_panel_memory_does_not_grow_with_the_file(tmp_path):
    """Writing and loading a long file of 100,000 rows (400 dates x 250 assets,
    3.6 MB) trace peaks of about 0.05 and 2 MB. The writer that joined every
    line first peaked at 15 MB, the reader that held every record at 44 MB."""
    rng = np.random.default_rng(5)
    dates, assets = [f"2020-{i:04d}" for i in range(400)], [f"A{i:03d}" for i in range(250)]
    panel = make_panel(rng.uniform(1, 100, size=(400, 250)), dates=dates, assets=assets)
    p, s = tmp_path / "p.csv", tmp_path / "s.csv"
    tracemalloc.start()
    try:
        write_panel_long(panel, p, s)
        written = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        loaded = load_panel(p, s, "long")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(loaded.prices, panel.prices)
    assert written < 2 * 2**20, written
    assert peak < 16 * 2**20, peak
