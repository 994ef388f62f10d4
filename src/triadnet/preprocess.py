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
    """Daily log returns; returns[t, i] is valid only where present[t, i]."""

    dates: tuple
    assets: tuple
    returns: np.ndarray
    present: np.ndarray

    def __post_init__(self):
        self.dates = tuple(self.dates)
        self.assets = tuple(self.assets)
        if self.returns.shape != (len(self.dates), len(self.assets)):
            raise DataError("return panel shape mismatch")
        if self.present.shape != self.returns.shape:
            raise DataError("return mask shape mismatch")
        vals = self.returns[self.present]
        if vals.size and not np.all(np.isfinite(vals)):
            raise DataError("present returns must be finite")

    @classmethod
    def _trusted(cls, dates, assets, returns, present):
        """A panel cut from one whose returns were checked: the same fields, no re-scan."""
        self = cls.__new__(cls)
        self.dates, self.assets, self.returns, self.present = tuple(dates), tuple(assets), returns, present
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
    """Log price differences; a return exists only where both prices do."""
    if panel.n_dates < 2:
        raise DataError("need at least 2 dates to compute returns")
    present = panel.present[1:] & panel.present[:-1]
    with np.errstate(invalid="ignore", divide="ignore"):
        r = np.log(panel.prices[1:]) - np.log(panel.prices[:-1])
    r = np.where(present, r, np.nan)
    return ReturnPanel(panel.dates[1:], panel.assets, r, present)


def _universe_mode(returns: ReturnPanel) -> np.ndarray:
    """Per-date median over the returns present that day, NaN on a date with none;
    even counts use the mean of the two central order statistics. Dates with every
    return present take np.median: nanmedian's bits without its masked-array path."""
    some = returns.present.any(axis=1)
    full = returns.present.all(axis=1) & some
    mode = np.full(len(some), np.nan)
    mode[full] = np.median(returns.returns[full], axis=1)
    gaps = some & ~full
    with np.errstate(invalid="ignore"):
        mode[gaps] = np.nanmedian(np.where(returns.present[gaps], returns.returns[gaps], np.nan), axis=1)
    return mode


def complete_case(returns: ReturnPanel) -> ReturnPanel:
    """Drop every asset with any missing return in the window."""
    keep = returns.present.all(axis=0)
    if not keep.any():
        raise DataError("no asset survives complete-case filtering")
    assets = tuple(compress(returns.assets, keep.tolist()))
    sub = returns.returns[:, keep]
    return ReturnPanel._trusted(returns.dates, assets, sub, np.ones_like(sub, dtype=bool))


def binarize(returns: ReturnPanel, median_scope: str = "universe") -> BinaryPanel:
    """Binarized partial returns of the window's complete-case assets.

    Assets with any missing return are dropped first. The market mode is then
    subtracted and the sign taken, with sign(0) = +1 so runs are reproducible.
    Columns whose sign never changes within the window are dropped because the
    phi coefficient is undefined at zero variance.

    median_scope selects the asset set the daily median is computed on:
    "universe" uses every asset present that day (before complete-case
    filtering), "window" uses only the complete-case survivors; see `_with_mode`.
    """
    return BinaryPanel(*_survivors(*_with_mode(returns, median_scope), "phi"))


def _signs(x: np.ndarray) -> np.ndarray:
    """int8 +1 where x >= 0 (so sign(0) = +1), -1 elsewhere, NaN included: the one sign rule."""
    return (x >= 0).view(np.int8) * np.int8(2) - np.int8(1)  # np.where is ~10x slower


def _with_mode(returns: ReturnPanel, median_scope: str) -> tuple:
    """(returns, their `_universe_arrays` under median_scope "universe", None under "window"):
    the one place the scope is decided. Windows are row slices of both (`experiment._window`);
    below here a `universe` of None means the window's survivors take their own median."""
    if median_scope not in MEDIAN_SCOPES:
        raise DataError(f"median_scope must be one of {MEDIAN_SCOPES}")
    return returns, _universe_arrays(returns) if median_scope == "universe" else None


def _universe_arrays(returns: ReturnPanel) -> tuple:
    """(`_universe_mode`, `_signs` of r - mode, -1 where either is missing): one row per date,
    made once per panel for windows to slice."""
    return (mode := _universe_mode(returns)), _signs(returns.returns - mode[:, None])


def _survivors(returns: ReturnPanel, universe, corr_kind: str, cc=None):
    """(dates, assets, columns) of a window's complete-case assets that are not constant.

    The columns are what the `corr_kind` correlation uses: the `_signs` of the partial returns
    for phi, the partial returns for pearson, the raw returns for partial_pearson. `universe` is
    the window's rows of `_universe_arrays`: its mode is subtracted and a phi window gathers its
    signs. Under median_scope "window" it is None and the mode is the survivors' daily median.
    Every kind and scope drops a column whose max equals its min. `cc` is the window's
    `complete_case`, if the caller has it.
    """
    cc = complete_case(returns) if cc is None else cc
    if corr_kind == "phi" and universe is not None:
        x = universe[1][:, returns.present.all(axis=0)]  # the columns of cc.assets
    else:
        x = cc.returns
        if corr_kind != "partial_pearson":
            # complete_case has raised if a date has no return, so the mode holds no NaN here
            x = x - (np.median(x, axis=1) if universe is None else universe[0])[:, None]
            if corr_kind == "phi":
                x = _signs(x)
    keep = x.max(axis=0) != x.min(axis=0)
    if not keep.any():
        raise DataError("no asset survives constant-column filtering")
    return returns.dates, tuple(compress(cc.assets, keep.tolist())), x[:, keep]


def volatility(returns: ReturnPanel) -> float:
    """Mean absolute return over all present entries of the window."""
    if not returns.present.any():
        raise DataError("cannot compute volatility of an empty return panel")
    return float(np.mean(np.abs(returns.returns[returns.present])))
