"""Loading, validation and windowing of daily price panels.

A panel is a dates x assets matrix of adjusted close prices together with a
presence mask and a per-asset sector label. Dates are ISO-8601 strings and are
ordered lexically; the package never does calendar arithmetic, a "day" is
simply a row of the panel.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError
from .util import atomic_write_text

UNKNOWN_SECTOR = "UNKNOWN"
PANEL_FORMATS = ("long", "wide")

_MISSING_STRINGS = {"", "nan"}


@dataclass(eq=False)
class PricePanel:
    """Dates x assets adjusted-close matrix with presence mask and sector labels.

    prices[t, i] is only meaningful where present[t, i] is True; absent cells
    hold NaN. All present prices are finite and strictly positive.
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
        if len(set(self.dates)) != t:
            raise DataError("duplicate dates in panel")
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

    def __eq__(self, other):
        if not isinstance(other, PricePanel):
            return NotImplemented
        return (
            self.dates == other.dates
            and self.assets == other.assets
            and self.sectors == {a: other.sectors[a] for a in other.assets}
            and np.array_equal(self.present, other.present)
            and np.array_equal(self.prices[self.present], other.prices[other.present])
        )


def _parse_price(text: str, where: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise DataError(f"unparseable price {text!r} at {where}") from None
    if not math.isfinite(value) or value <= 0:
        raise DataError(f"non-positive or non-finite price {text!r} at {where}")
    return value


def _read_rows(path) -> list:
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            return list(csv.reader(fh))
    except OSError as exc:
        raise DataError(f"unreadable file {path}: {exc}") from exc


def load_sectors(path) -> dict:
    """Read a (ticker,sector) CSV with a header row into a dict."""
    rows = _read_rows(path)
    if not rows:
        raise DataError(f"sectors file {path} is empty")
    sectors = {}
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) < 2:
            raise DataError(f"sectors file {path} line {lineno}: expected (ticker,sector)")
        ticker, sector = row[0].strip(), row[1].strip()
        if ticker in sectors:
            raise DataError(f"sectors file {path} line {lineno}: duplicate ticker {ticker!r}")
        sectors[ticker] = sector or UNKNOWN_SECTOR
    return sectors


def _load_long(rows, path):
    header = [c.strip().lower() for c in rows[0]]
    try:
        i_date = header.index("date")
        i_tick = header.index("ticker")
        i_price = header.index("adj_close")
    except ValueError:
        raise DataError(
            f"{path}: long format needs header columns date,ticker,adj_close; got {rows[0]}"
        ) from None
    seen = set()
    records = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) <= max(i_date, i_tick, i_price):
            raise DataError(f"{path} line {lineno}: short row {row}")
        date, ticker = row[i_date].strip(), row[i_tick].strip()
        if not date or not ticker:
            raise DataError(f"{path} line {lineno}: empty date or ticker")
        key = (date, ticker)
        if key in seen:
            raise DataError(f"{path} line {lineno}: duplicate (date,ticker) pair {key}")
        seen.add(key)
        price = _parse_price(row[i_price], f"{path} line {lineno} ({date},{ticker})")
        records.append((date, ticker, price))
    if not records:
        raise DataError(f"{path}: no data rows")
    dates = sorted({r[0] for r in records})
    assets = sorted({r[1] for r in records})
    d_ix = {d: i for i, d in enumerate(dates)}
    a_ix = {a: i for i, a in enumerate(assets)}
    prices = np.full((len(dates), len(assets)), np.nan)
    present = np.zeros((len(dates), len(assets)), dtype=bool)
    for date, ticker, price in records:
        prices[d_ix[date], a_ix[ticker]] = price
        present[d_ix[date], a_ix[ticker]] = True
    return dates, assets, prices, present


def _load_wide(rows, path):
    header = rows[0]
    if len(header) < 2:
        raise DataError(f"{path}: wide format needs a date column plus ticker columns")
    assets = [c.strip() for c in header[1:]]
    if len(set(assets)) != len(assets):
        raise DataError(f"{path}: duplicate ticker columns")
    records = {}
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != len(header):
            raise DataError(f"{path} line {lineno}: expected {len(header)} cells, got {len(row)}")
        date = row[0].strip()
        if not date:
            raise DataError(f"{path} line {lineno}: empty date")
        if date in records:
            raise DataError(f"{path} line {lineno}: duplicate date {date!r}")
        cells = []
        for ticker, cell in zip(assets, row[1:]):
            text = cell.strip()
            if text.lower() in _MISSING_STRINGS:
                cells.append(np.nan)
            else:
                cells.append(_parse_price(text, f"{path} line {lineno} ({date},{ticker})"))
        records[date] = cells
    if not records:
        raise DataError(f"{path}: no data rows")
    dates = sorted(records)
    prices = np.array([records[d] for d in dates], dtype=float)
    present = np.isfinite(prices)
    return dates, assets, prices, present


def load_panel(prices_path, sectors_path, format: str = "long") -> PricePanel:
    """Load a price panel plus sector labels from CSV files.

    Args:
        prices_path: CSV of adjusted closes. Long format has header columns
            date,ticker,adj_close; wide format has a date column followed by
            one column per ticker (empty or "NaN" cells mean missing).
        sectors_path: CSV of (ticker,sector) rows with a header. Tickers not
            listed get the label "UNKNOWN".
        format: "long" or "wide".

    Raises:
        DataError: unreadable file, duplicate (date,ticker), or a price that
            is non-positive or non-finite (the message names the row).
    """
    rows = _read_rows(prices_path)
    if not rows:
        raise DataError(f"{prices_path}: empty file")
    if format == "long":
        dates, assets, prices, present = _load_long(rows, prices_path)
    elif format == "wide":
        dates, assets, prices, present = _load_wide(rows, prices_path)
    else:
        raise DataError(f"unknown panel format {format!r} (expected one of {PANEL_FORMATS})")
    known = load_sectors(sectors_path)
    sectors = {a: known.get(a, UNKNOWN_SECTOR) for a in assets}
    return PricePanel(tuple(dates), tuple(assets), prices, present, sectors)


def slice_window(panel: PricePanel, end_date: str, length: int) -> PricePanel:
    """Sub-panel of exactly `length` consecutive dates ending at `end_date`."""
    if length < 1:
        raise DataError("window length must be positive")
    end = panel.date_index(end_date)
    start = end - length + 1
    if start < 0:
        raise DataError(
            f"insufficient history: need {length} dates ending {end_date}, have {end + 1}"
        )
    return PricePanel(
        panel.dates[start : end + 1],
        panel.assets,
        panel.prices[start : end + 1].copy(),
        panel.present[start : end + 1].copy(),
        dict(panel.sectors),
    )


def write_panel_long(panel: PricePanel, prices_path, sectors_path) -> None:
    """Serialize a panel to the long CSV format `load_panel` accepts.

    Prices are written with full float precision so a load/write/load round
    trip reproduces the panel exactly.
    """
    lines = ["date,ticker,adj_close"]
    for t, date in enumerate(panel.dates):
        for i, asset in enumerate(panel.assets):
            if panel.present[t, i]:
                lines.append(f"{date},{asset},{float(panel.prices[t, i])!r}")
    atomic_write_text(prices_path, "\n".join(lines) + "\n")
    sec_lines = ["ticker,sector"]
    for asset in sorted(panel.assets):
        sec_lines.append(f"{asset},{panel.sectors[asset]}")
    atomic_write_text(Path(sectors_path), "\n".join(sec_lines) + "\n")
