"""Loading, validation and writing of daily price panels.

A panel is a dates x assets matrix of adjusted close prices together with a
presence mask and a per-asset sector label. Dates are ISO-8601 strings and are
ordered lexically; the package never does calendar arithmetic, a "day" is
simply a row of the panel.
"""

from __future__ import annotations

import codecs
import csv
import math
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain, islice

import numpy as np

from .errors import DataError
from .util import atomic_write_text

UNKNOWN_SECTOR = "UNKNOWN"
PANEL_FORMATS = ("long", "wide")


@dataclass(eq=False)
class PricePanel:
    """Dates x assets adjusted-close matrix with presence mask and sector labels.

    prices[t, i] is only meaningful where present[t, i] is True; absent cells
    hold NaN. All present prices are finite and strictly positive. The
    experiments keep a panel's returns while its fields are the same objects,
    so once a panel has been run, rebind a field to change it: an in-place
    edit of `prices` or `present` is not seen.
    """

    dates: tuple
    assets: tuple
    prices: np.ndarray
    present: np.ndarray
    sectors: dict

    def __post_init__(self):
        self.dates = tuple(self.dates)
        self.assets = tuple(self.assets)
        t, n = len(self.dates), len(self.assets)
        if self.prices.shape != (t, n) or self.present.shape != (t, n):
            raise DataError("panel shape mismatch between dates/assets and matrices")
        if any(self.dates[i] >= self.dates[i + 1] for i in range(t - 1)):
            raise DataError("panel dates are not strictly increasing")
        if len(set(self.assets)) != n:
            raise DataError("duplicate asset identifiers in panel")
        vals = self.prices[self.present]
        if vals.size and (not np.all(np.isfinite(vals)) or not np.all(vals > 0)):
            raise DataError("present prices must be finite and strictly positive")
        missing = [a for a in self.assets if a not in self.sectors]
        if missing:
            raise DataError(f"sectors map does not cover assets: {missing[:5]}")

    @property
    def n_dates(self) -> int:
        return len(self.dates)

    @property
    def n_assets(self) -> int:
        return len(self.assets)

    def date_index(self, date: str) -> int:
        try:
            return self.dates.index(date)
        except ValueError:
            raise DataError(f"date {date!r} not in panel") from None


def _price(text, path, line, k, date, ticker) -> float:
    """The finite, strictly positive price in `text`; a fault's message is built only on error."""
    try:
        value = float(text)
        if 0 < value < math.inf:
            return value
        kind = "non-positive or non-finite"
    except ValueError:
        kind = "unparseable"
    raise DataError(f"{kind} price {text!r} at {path} line {line(k)} ({date},{ticker})")


@contextmanager
def _csv(path, empty: str):
    """(header, body, line) of a CSV file parsed record by record as it is read.

    header is the first record; a file with none raises DataError(empty). body
    yields (k, cells) for every later record, blank ones too, k counting all
    records from 1. line(k) is the physical line that record k, the last one
    read, starts on. Read errors raise DataError, also while body is walked."""
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            def line(k):  # k until a quoted field spans lines; after that, a re-read finds it
                if reader.line_num == k:
                    return k
                with open(path, "r", encoding="utf-8-sig", newline="") as again:
                    before = csv.reader(again)
                    next(islice(before, k - 2, None))  # records 1 .. k-1
                    return before.line_num + 1

            header = next(reader, None)
            if header is None:
                raise DataError(empty)
            yield header, enumerate(reader, 2), line
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"unreadable file {path}: {exc}") from exc


def load_sectors(path) -> dict:
    """Read a (ticker,sector) CSV with a header row into a dict."""
    with _csv(path, f"sectors file {path} is empty") as (header, body, line):
        sectors = {}
        for k, row in body:
            if not any(map(str.strip, row)):
                continue
            if len(row) < 2:
                raise DataError(f"sectors file {path} line {line(k)}: expected (ticker,sector)")
            ticker, sector = row[0].strip(), row[1].strip()
            if ticker in sectors:
                raise DataError(f"sectors file {path} line {line(k)}: duplicate ticker {ticker!r}")
            sectors[ticker] = sector or UNKNOWN_SECTOR
    return sectors


_BLOCK = 1 << 18  # bytes of whole lines that a long file is parsed in at a time


def _long_columns(header, path):
    """The (date, ticker, adj_close) column indexes of a long file's header."""
    columns = [c.strip().lower() for c in header]
    if not {"date", "ticker", "adj_close"} <= set(columns):
        raise DataError(f"{path}: long format needs header columns date,ticker,adj_close; got {header}")
    return tuple(columns.index(name) for name in ("date", "ticker", "adj_close"))


def _fit(grid, rows, width):
    """grid, or a copy of it that holds rows x width, grown by at least a quarter in each
    direction it has to grow; new cells are NaN."""
    r, w = grid.shape
    if rows <= r and width <= w:
        return grid
    if rows > r:
        r = max(rows, r + r // 4)
    if width > w:
        w = max(width, w + w // 4)
    out = np.full((r, w), np.nan)
    out[: len(grid), : grid.shape[1]] = grid
    return out


def _records(body, line, path, cols):
    """(d_ix, a_ix, grid) of body's (k, cells) records, loaded one at a time.

    d_ix and a_ix give the grid row of each date and column of each ticker, in first-seen order.
    NaN marks a (date, ticker) cell not seen. A record whose cells are all blank is skipped; any
    other fault raises DataError naming record k's line(k)."""
    i_date, i_tick, i_price = cols
    d_ix, a_ix, grid = {}, {}, np.full((64, 64), np.nan)
    top, width = max(cols), grid.shape[1]
    cells, last, base = memoryview(grid.reshape(-1)), None, 0
    for k, row in body:
        date, ticker = (row[i_date].strip(), row[i_tick].strip()) if len(row) > top else ("", "")
        if not (date and ticker):
            if not any(map(str.strip, row)):
                continue
            fault = f"short row {row}" if len(row) <= top else "empty date or ticker"
            raise DataError(f"{path} line {line(k)}: {fault}")
        if date != last:  # consecutive records mostly share a date: keep its row offset
            d = d_ix.setdefault(date, len(d_ix))
            if d == len(grid):
                grid = _fit(grid, d + 1, width)
                cells = memoryview(grid.reshape(-1))
            last, base = date, d * width
        a = a_ix.setdefault(ticker, len(a_ix))
        if a == width:  # one past the right edge: re-lay the rows out wider
            grid = _fit(grid, len(grid), a + 1)
            width, cells = grid.shape[1], memoryview(grid.reshape(-1))
            base = d_ix[date] * width
        i = base + a
        if cells[i] == cells[i]:  # not NaN: the pair was seen before
            raise DataError(f"{path} line {line(k)}: duplicate (date,ticker) pair {(date, ticker)}")
        try:
            value = float(row[i_price])
        except ValueError:
            value = 0.0  # _price raises for it, naming the fault
        cells[i] = value if 0 < value < math.inf else _price(row[i_price], path, line, k, date, ticker)
    return d_ix, a_ix, grid


def _codes(names, ix):
    """The index in ix of each of a block's names, stripped, with the new ones added in
    first-seen order; None if one is empty."""
    try:
        return np.fromiter(map(ix.__getitem__, names), np.intp, len(names))
    except KeyError:
        pass
    new = [name for name in dict.fromkeys(names) if name not in ix]
    if any(name != name.strip() for name in new):
        names = list(map(str.strip, names))
        new = [name for name in dict.fromkeys(names) if name not in ix]
    if "" in new:
        return None
    ix.update(zip(new, range(len(ix), len(ix) + len(new))))
    return np.fromiter(map(ix.__getitem__, names), np.intp, len(names))


def _block(raw, cols, m, d_ix, a_ix, grid):
    """grid, or a grown copy, with the records of a block of whole lines loaded at once, or None
    if the block is not plain. A plain block, its CRLFs made LFs, has no quote, CR or NUL, exactly
    m cells on every line, no empty date or ticker, finite positive prices and no (date, ticker)
    pair that repeats within it or one loaded before. Split at commas, it is what csv.reader reads."""
    raw = raw.replace(b"\r\n", b"\n") if b"\r" in raw else raw  # a two-byte search costs 1 ms/MB
    if b'"' in raw or b"\r" in raw or b"\0" in raw:
        return None
    if not raw.endswith(b"\n"):  # the file's last line
        raw += b"\n"
    chars = np.frombuffer(raw, np.uint8)
    ends = chars == ord("\n")
    seps = np.flatnonzero(ends | (chars == ord(",")))  # where each cell ends
    if len(seps) != np.count_nonzero(ends) * m or not (chars[seps[m - 1 :: m]] == ord("\n")).all():
        return None
    if np.diff(seps, prepend=-1).max() > csv.field_size_limit() + 1:  # a cell csv.reader refuses
        return None
    cells = raw.decode().replace("\n", ",").split(",")
    del cells[-1]  # after the last line's end
    i_date, i_tick, i_price = cols
    d = _codes(cells[i_date::m], d_ix)
    a = None if d is None else _codes(cells[i_tick::m], a_ix)
    if a is None:
        return None
    try:
        values = np.array(cells[i_price::m], dtype=float)  # each as float() reads it
    except ValueError:
        return None
    if not ((values > 0) & (values < math.inf)).all():
        return None
    grid = _fit(grid, len(d_ix), len(a_ix))
    flat, at = grid.reshape(-1), d * grid.shape[1] + a
    if not np.isnan(flat[at]).all():
        return None
    order = np.arange(len(at), dtype=float)
    flat[at] = order  # a cell written twice keeps only its last record's number
    if not (flat[at] == order).all():
        return None
    flat[at] = values
    return grid


def _long_blocks(path):
    """(d_ix, a_ix, grid) of a long file loaded a plain block (see `_block`) at a time, or None
    at its first block that is not plain. A fault raises, but its message is not the one to
    report (see `_load_long`)."""
    with open(path, "rb") as fh:
        def rest_of_line():  # with its "\n"
            raw = fh.readline(_BLOCK)
            if len(raw) == _BLOCK and not raw.endswith(b"\n"):
                raise DataError(f"{path}: a line longer than {_BLOCK} bytes")
            return raw

        header = next(csv.reader(codecs.iterdecode(iter(rest_of_line, b""), "utf-8-sig")), None)
        if header is None:
            raise DataError(f"{path}: empty file")
        cols, d_ix, a_ix, grid = _long_columns(header, path), {}, {}, np.full((64, 64), np.nan)
        while raw := fh.read(_BLOCK):
            raw += rest_of_line()
            grid = _block(raw, cols, len(header), d_ix, a_ix, grid)
            if grid is None:
                return None
    return d_ix, a_ix, grid


def _load_long(path):
    """(dates, assets, dates x assets prices) of a long file, both in name order.

    The file is parsed in blocks of whole lines of about _BLOCK bytes (see `_long_blocks`). A
    block that is not plain, a fault or a line longer than a block makes the record loop read
    the whole file from its start as one text stream, as csv.reader reads it, so that a
    message, its line and which fault comes first (a bad row, or a byte that is not UTF-8 in an
    8 KB chunk the reader decodes) do not depend on where the blocks were cut."""
    try:
        loaded = _long_blocks(path)
    except (OSError, UnicodeDecodeError, csv.Error, DataError):
        loaded = None
    if loaded is None:
        with _csv(path, f"{path}: empty file") as (header, body, line):
            loaded = _records(body, line, path, _long_columns(header, path))
    d_ix, a_ix, grid = loaded
    dates, assets = sorted(d_ix), sorted(a_ix)
    return dates, assets, grid[np.ix_([d_ix[d] for d in dates], [a_ix[a] for a in assets])]


def _load_wide(header, body, line, path):
    if len(header) < 2:
        raise DataError(f"{path}: wide format needs a date column plus ticker columns")
    assets = [c.strip() for c in header[1:]]
    if len(set(assets)) != len(assets):
        raise DataError(f"{path}: duplicate ticker columns")
    if "" in assets:
        raise DataError(f"{path}: empty ticker name in column {assets.index('') + 2}")
    n, records = len(header), {}
    for k, row in body:
        date = row[0].strip() if len(row) == n else ""
        if not date:
            if not any(map(str.strip, row)):
                continue
            fault = f"expected {n} cells, got {len(row)}" if len(row) != n else "empty date"
            raise DataError(f"{path} line {line(k)}: {fault}")
        if date in records:
            raise DataError(f"{path} line {line(k)}: duplicate date {date!r}")
        cells = row[1:]
        try:  # one pass, then numpy finds the cells that are not finite positive prices
            values = np.array([float(c or "nan") for c in cells])
        except ValueError:
            plain = False
        else:
            odd = np.flatnonzero(~((values > 0) & (values < math.inf)))
            plain = all(cells[j].strip().lower() in ("", "nan") for j in odd)
        if not plain:  # cell by cell, so the first bad cell is the one reported
            values = np.array([
                np.nan if text.lower() in {"", "nan"} else _price(text, path, line, k, date, ticker)
                for ticker, text in zip(assets, map(str.strip, cells))
            ])
        records[date] = values
    dates = sorted(records)
    return dates, assets, np.array([records[d] for d in dates], dtype=float)


def load_panel(prices_path, sectors_path, format: str = "long") -> PricePanel:
    """Load a price panel plus sector labels from CSV files.

    Args:
        prices_path: CSV of adjusted closes. Long format has header columns
            date,ticker,adj_close; wide format has a date column followed by
            one column per ticker (empty or "NaN" cells mean missing). A
            leading UTF-8 byte-order mark is skipped.
        sectors_path: CSV of (ticker,sector) rows with a header. Tickers not
            listed get the label "UNKNOWN".
        format: "long" or "wide".

    A long file is parsed a block of whole lines (about 256 KB) at a time into a
    dates x assets grid that grows by a quarter or more as dates and tickers
    come. A block with no quote, NUL or CR outside a CRLF, the header's cell
    count on every line and no fault is split at commas, its prices parsed by
    one numpy call and scattered at once. At the first other block, such as
    one of a quoted file, the record loop reads the whole file again. A wide
    file is parsed a row at a time. Memory is O(dates x assets + one block),
    whatever the file's length. A long file's assets come in name order, a
    wide file's in its header's order.

    Raises:
        DataError: the first fault a record-by-record reader meets: an
            unreadable or non-UTF-8 file, a duplicate (date,ticker), a
            non-positive or non-finite price (the message names the row). A
            long file's fault is always the record loop's, so the fault
            reported does not depend on where the blocks were cut.
    """
    if format == "long":
        dates, assets, prices = _load_long(prices_path)
    elif format == "wide":
        with _csv(prices_path, f"{prices_path}: empty file") as (header, body, line):
            dates, assets, prices = _load_wide(header, body, line, prices_path)
    else:
        raise DataError(f"unknown panel format {format!r} (expected one of {PANEL_FORMATS})")
    if not dates:
        raise DataError(f"{prices_path}: no data rows")
    known = load_sectors(sectors_path)
    sectors = {a: known.get(a, UNKNOWN_SECTOR) for a in assets}
    return PricePanel(tuple(dates), tuple(assets), prices, np.isfinite(prices), sectors)


def write_panel_long(panel: PricePanel, prices_path, sectors_path) -> None:
    """Serialize a panel, line by line, to the long CSV format `load_panel` accepts;
    prices are written with full float precision, so a load/write/load round trip is exact."""
    rows = (
        f"{date},{asset},{price!r}\n"
        for date, prices, present in zip(panel.dates, panel.prices, panel.present)
        for asset, price, ok in zip(panel.assets, prices.tolist(), present.tolist()) if ok
    )
    atomic_write_text(prices_path, chain(["date,ticker,adj_close\n"], rows))
    sectors = (f"{asset},{panel.sectors[asset]}\n" for asset in sorted(panel.assets))
    atomic_write_text(sectors_path, chain(["ticker,sector\n"], sectors))
