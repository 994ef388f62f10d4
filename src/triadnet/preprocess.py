"""Log returns, market-mode removal, binarization and complete-case filtering.

The market mode of a trading day is estimated nonparametrically as the
cross-sectional median return; subtracting it and keeping only the sign of
what remains turns a return window into a dense matrix of +/-1 values.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

import numpy as np

from .errors import DataError
from .ingest import PricePanel

MEDIAN_SCOPES = ("universe", "window")


@dataclass(eq=False)
class ReturnPanel:
    """Daily log returns; NaN in returns[t, i] is the one marker of a missing return."""

    dates: tuple
    assets: tuple
    returns: np.ndarray

    def __post_init__(self):
        self.dates = tuple(self.dates)
        self.assets = tuple(self.assets)
        if self.returns.shape != (len(self.dates), len(self.assets)):
            raise DataError("return panel shape mismatch")
        if np.isinf(self.returns).any():
            raise DataError("returns must be finite, or NaN where missing")

    @classmethod
    def _trusted(cls, dates, assets, returns):
        """A panel cut from one whose returns were checked: the same fields, no re-scan."""
        self = cls.__new__(cls)
        self.dates, self.assets, self.returns = tuple(dates), tuple(assets), returns
        return self


@dataclass(eq=False)
class BinaryPanel:
    """Dense +/-1 matrix of binarized partial returns for one window."""

    dates: tuple
    assets: tuple
    values: np.ndarray

    def __post_init__(self):
        self.dates = tuple(self.dates)
        self.assets = tuple(self.assets)
        if self.values.shape != (len(self.dates), len(self.assets)):
            raise DataError("binary panel shape mismatch")
        if not ((self.values == -1) | (self.values == 1)).all():
            raise DataError("binary panel entries must be -1 or +1")
        if self.values.shape[1] and (self.values.max(axis=0) == self.values.min(axis=0)).any():
            raise DataError("binary panel has a constant column")


def log_returns(panel: PricePanel) -> ReturnPanel:
    """Log price differences, NaN unless both prices are present: the price mask ends here,
    and from here on a missing return is NaN, whatever number an absent price cell holds."""
    if panel.n_dates < 2:
        raise DataError("need at least 2 dates to compute returns")
    with np.errstate(invalid="ignore", divide="ignore"):
        r = np.diff(np.log(panel.prices), axis=0)
    r = np.where(panel.present[1:] & panel.present[:-1], r, np.nan)
    return ReturnPanel(panel.dates[1:], panel.assets, r)


def _universe_mode(returns: ReturnPanel) -> np.ndarray:
    """Per-date median over the returns that are not NaN that day, NaN on a date with none;
    even counts use the mean of the two central order statistics. Dates with no NaN take
    np.median: nanmedian's bits without its masked-array path."""
    missing = np.isnan(returns.returns)
    some = ~missing.all(axis=1)
    full = ~missing.any(axis=1) & some
    mode = np.full(len(some), np.nan)
    mode[full] = np.median(returns.returns[full], axis=1)
    gaps = some & ~full
    with np.errstate(invalid="ignore"):
        mode[gaps] = np.nanmedian(returns.returns[gaps], axis=1)
    return mode


def complete_case(returns: ReturnPanel) -> ReturnPanel:
    """Drop every asset with a NaN (missing) return in the window; a complete window is returned as is."""
    keep = ~np.isnan(returns.returns).any(axis=0)
    if not keep.any():
        raise DataError("no asset survives complete-case filtering")
    if keep.all():
        return returns
    assets = compress(returns.assets, keep.tolist())
    return ReturnPanel._trusted(returns.dates, assets, returns.returns[:, keep])


def binarize(returns: ReturnPanel, median_scope: str = "universe") -> BinaryPanel:
    """Binarized partial returns of the window's complete-case assets.

    Assets with any missing return are dropped first. The market mode is then
    subtracted and the sign taken, with sign(0) = +1 so runs are reproducible.
    Columns whose sign never changes within the window are dropped because the
    phi coefficient is undefined at zero variance.

    median_scope selects the asset set the daily median is computed on:
    "universe" uses every asset with a return that day (before complete-case
    filtering), "window" uses only the complete-case survivors; see `_with_mode`.
    """
    return BinaryPanel(*_survivors(*_with_mode(returns, median_scope), "phi")[0])


def _signs(x: np.ndarray) -> np.ndarray:
    """int8 +1 where x >= 0 (so sign(0) = +1), -1 elsewhere, NaN included: the one sign rule."""
    return (x >= 0).view(np.int8) * np.int8(2) - np.int8(1)  # np.where is ~10x slower


def _with_mode(returns: ReturnPanel, median_scope: str) -> tuple:
    """(returns, their `_universe_arrays` under median_scope "universe", None under "window"):
    the one place the scope is checked and decided. Windows are row slices of both (see
    `experiment._window`); below, a `universe` of None means survivors take their own median."""
    if median_scope not in MEDIAN_SCOPES:
        raise DataError(f"unknown median scope {median_scope!r}: expected one of {MEDIAN_SCOPES}")
    return returns, _universe_arrays(returns) if median_scope == "universe" else None


def _universe_arrays(returns: ReturnPanel) -> tuple:
    """(`_universe_mode`, `_signs` of r - mode, -1 where either is missing): one row per date,
    made once per panel for windows to slice."""
    return (mode := _universe_mode(returns)), _signs(returns.returns - mode[:, None])


def _survivors(returns: ReturnPanel, universe, corr_kind: str, cc=None):
    """((dates, assets, columns), their panel columns as a mask, cut) of a window's complete-case
    assets (no NaN return) that are not constant. The columns are what the `corr_kind` correlation uses: the
    `_signs` of the partial returns for phi, the partial returns for pearson, the raw returns for
    partial_pearson. `universe` is the window's rows of `_universe_arrays`: its mode is subtracted
    and a phi window gathers its signs; of None, the mode is the complete-case columns' median.
    `cut(mask, assets)` is the one gather: (dates, assets, columns) of the survivors where the
    panel-column `mask` is true, named `assets`, from the window's row slices and mode, so a
    subset's columns are the survivors' bit for bit. Every kind and scope drops a column whose
    max equals its min. `cc` is the window's `complete_case`, if the caller has it."""
    cc = complete_case(returns) if cc is None else cc
    gathered = corr_kind == "phi" and universe is not None
    source = universe[1] if gathered else returns.returns
    # complete_case has raised if a date has no return, so the mode holds no NaN here
    mode = None if gathered or corr_kind == "partial_pearson" else (
        np.median(cc.returns, axis=1) if universe is None else universe[0])

    def cut(mask, assets):
        x = source[:, mask]
        if mode is not None:
            x = _signs(x - mode[:, None]) if corr_kind == "phi" else x - mode[:, None]
        return returns.dates, assets, x

    mask = ~np.isnan(returns.returns).any(axis=0)  # the columns of cc.assets
    x = cut(mask, cc.assets)[2]
    keep = x.max(axis=0) != x.min(axis=0)
    if not keep.any():
        raise DataError("no asset survives constant-column filtering")
    mask[mask] = keep
    return (returns.dates, tuple(compress(cc.assets, keep.tolist())), x[:, keep]), mask, cut


def volatility(returns: ReturnPanel) -> float:
    """Mean absolute return over the window's returns that are not NaN (missing)."""
    values = returns.returns[~np.isnan(returns.returns)]
    if not values.size:
        raise DataError("cannot compute volatility of an empty return panel")
    return float(np.mean(np.abs(values)))
