"""Correlation matrices of one calibration window and their sign structure.

Three flavours are supported: the phi coefficient of binarized partial
returns (computed from the 2x2 contingency counts), the sample Pearson
matrix of raw or median-removed returns, and a partial Pearson matrix with
the leading eigenpair removed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .preprocess import BinaryPanel, ReturnPanel, _signs
from .util import _check_symmetric, count_product

CORR_KINDS = ("phi", "pearson", "partial_pearson")

_BOUND_TOL = 1e-12
_EIG_GAP_TOL = 1e-10


@dataclass(eq=False)
class CorrMatrix:
    """Symmetric correlation matrix with its asset ordering and flavour."""

    assets: tuple
    values: np.ndarray
    kind: str

    def __post_init__(self):
        self.assets = tuple(self.assets)
        n = len(self.assets)
        if self.kind not in CORR_KINDS:
            raise DataError(f"unknown correlation kind {self.kind!r}")
        unit_diagonal = 1 if self.kind in ("phi", "pearson") else None
        _check_symmetric(self.values, n, "correlation matrix", unit_diagonal)
        if np.abs(self.values).max(initial=0.0) > 1 + _BOUND_TOL:
            raise DataError("correlation entries outside [-1, 1]")

    @property
    def n(self) -> int:
        return len(self.assets)


def _phi_numerator(values: np.ndarray) -> np.ndarray:
    """T*c - k k^T in float64 of +/-1 columns, c their `count_product` of up days and k = diag(c):
    exact integers, so exactly symmetric, with phi's signs (an exact 0 is +0.0) and d on the diagonal."""
    up = values > 0
    num = count_product(up, up, np.float64)  # then in place: each N x N temporary costs more than its flops
    k = num.diagonal().copy()
    num *= len(values)
    num -= np.outer(k, k)
    return num


def phi_matrix(b: BinaryPanel) -> CorrMatrix:
    """Phi coefficients of the +/-1 columns via contingency counts.

    With c the number of days both columns are +1 and k = diag(c) the per-column
    counts, phi = (T*c - k_i k_j) / sqrt(d_i d_j), d = k (T-k): the Pearson
    correlation of the columns, which the test suite asserts entrywise. c is a float32
    BLAS product cast to float64, exact below 2**24 days (DataError from there on), and
    T*c - k k^T holds integers below 2**53, so phi is exactly symmetric. d_i d_j is
    exact below 2**53 (T < ~19,500), and the rounding of the exact integer above.
    """
    t, n = b.values.shape
    if t < 2:
        raise DataError("need at least 2 days for a correlation window")
    values = _phi_numerator(b.values)
    d = values.diagonal().copy()  # k (t - k) > 0: BinaryPanel has no constant column
    den = np.outer(d, d)
    values /= np.sqrt(den, out=den)
    np.fill_diagonal(values, 1.0)
    return CorrMatrix(b.assets, values, "phi")


def pearson_matrix(r: ReturnPanel) -> CorrMatrix:
    """Sample Pearson correlation of the window's return columns.

    Requires a complete-case window: a NaN (missing) return raises DataError.
    """
    if np.isnan(r.returns).any():
        raise DataError("pearson_matrix needs a complete-case window")
    if len(r.returns) < 2:
        raise DataError("need at least 2 days for a correlation window")
    z = r.returns - r.returns.mean(axis=0)
    norm = np.sqrt((z * z).sum(axis=0))
    if (norm == 0).any():
        bad = r.assets[int(np.argmin(norm))]
        raise DataError(f"constant return column {bad!r}")
    values = (z.T @ z) / np.outer(norm, norm)  # z.T @ z is a syrk product: exactly symmetric
    np.fill_diagonal(values, 1.0)
    return CorrMatrix(r.assets, values, "pearson")


def partial_pearson(r: ReturnPanel) -> CorrMatrix:
    """Pearson matrix of raw returns reconstructed without its leading eigenpair.

    The diagonal is left as computed (no renormalization). The leading
    eigenvalue must be strictly separated from the second one; degenerate
    spectra are rejected rather than resolved arbitrarily.
    """
    rho = pearson_matrix(r)
    w, v = np.linalg.eigh(rho.values)
    if len(w) < 2:
        raise DataError("partial Pearson needs at least 2 assets")
    lam1, lam2 = w[-1], w[-2]
    if lam1 - lam2 <= _EIG_GAP_TOL:
        raise DataError("leading eigenvalue is not separated from the second")
    v1 = v[:, -1]
    values = rho.values - lam1 * np.outer(v1, v1)  # a difference of symmetric arrays
    diag = np.diag(values)
    if (diag < -_BOUND_TOL).any():
        raise DataError("partial Pearson diagonal has a negative entry")
    return CorrMatrix(r.assets, values, "partial_pearson")


def sign_matrix(corr: CorrMatrix) -> np.ndarray:
    """int8 sign matrix S of `corr`, rows and columns in `corr.assets` order:
    +1 where the correlation is nonnegative, -1 where negative, 0 on the diagonal."""
    s = _signs(corr.values)
    np.fill_diagonal(s, 0)
    return s
