"""Triad balance analytics on signed correlation networks.

A triad of assets is stable when the product of its three link signs is +1
(all mutually positive, or one positive pair jointly negative on the third).
The balance index averages minus that product over every triple, so a system
of only stable triads scores -1 and one of only unstable triads scores +1.
The per-pair stability score spreads the same sum over the triads through
each pair, which is what makes it usable as a link-level predictor.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .correlation import CorrMatrix, sign_matrix
from .errors import DataError
from .util import _check_symmetric, _pearson, count_product


@dataclass(eq=False)
class BalanceReport:
    """Balance index, pair stability matrix and leading spectral diagnostics."""

    h: float
    delta: np.ndarray
    eig_fracs: tuple
    v1: np.ndarray


def _signed_values(s, what: str) -> np.ndarray:
    """`s` as an array, checked: 2-D, symmetric, 0 on the diagonal, +/-1 off it, N >= 3."""
    values = np.asarray(s)
    if values.ndim != 2:
        raise DataError("signed matrix must be 2-D")
    n = len(values)
    _check_symmetric(values, n, "signed matrix", 0)
    off = values[~np.eye(n, dtype=bool)]
    if not ((off == -1) | (off == 1)).all():
        raise DataError("signed matrix off-diagonal entries must be -1 or +1")
    if n < 3:
        raise DataError(f"{what} needs at least 3 nodes")
    return values


def _triad_products(values: np.ndarray) -> np.ndarray:
    """S * S^2 (elementwise) of a validated signed matrix: the summed sign
    product of the triads through each pair, exact while N^3 < 2**53."""
    return values.astype(np.int64) * count_product(values, values)


def _balance_index(products: np.ndarray) -> float:
    """H from `_triad_products`: trace(S^3) is the sum of S * S^2."""
    return -int(products.sum()) / (6 * comb(products.shape[0], 3))


def hamiltonian(s) -> float:
    """Minus the average sign product over all unordered triples of the sign matrix `s`.

    `s` is a 2-D array as `sign_matrix` returns, checked on entry: symmetric,
    0 on the diagonal, +/-1 off it, at least 3 nodes. Computed as
    -trace(S^3) / (6 * C(N,3)) with one product: S^2 is symmetric, so
    trace(S^3) = sum of S * S^2 (elementwise), the product `pair_stability`
    forms. S^2 is a float64 BLAS product of integers, exact while N^3 < 2**53.
    """
    return _balance_index(_triad_products(_signed_values(s, "balance index")))


def pair_stability(s) -> np.ndarray:
    """Per-pair average sign product over the N-2 triads through each pair.

    `s` is checked as in `hamiltonian`. Entry (i,j) is S_ij * (S^2)_ij / (N-2):
    +1 when the pair forms stable triads with every other node, -1 when none.
    Diagonal is 0. S^2 is a float64 BLAS product, exact while N^3 < 2**53.
    """
    values = _signed_values(s, "pair stability")
    return _triad_products(values) / (len(values) - 2)


def spectral_summary(corr: CorrMatrix, k: int = 2):
    """Top-k eigenvalue fractions and the leading eigenvector.

    Eigenvalues are sorted descending and reported as fractions of N. The
    eigenvector is unit norm with its largest-magnitude component positive,
    so repeated runs agree on its direction.
    """
    if corr.n == 0:
        raise DataError("spectral summary needs at least 1 asset")
    w, v = np.linalg.eigh(corr.values)
    w, v = w[::-1], v[:, ::-1]
    fracs = w[: min(k, len(w))] / corr.n
    v1 = v[:, 0].copy()
    top = int(np.argmax(np.abs(v1)))
    if v1[top] < 0:
        v1 = -v1
    return fracs, v1


def eigvec_overlap(v_in: np.ndarray, v_out: np.ndarray) -> float:
    """Absolute Pearson correlation between two eigenvectors' components.

    The absolute value quotients out the sign ambiguity of eigenvectors.
    Inputs must already be aligned on a common asset ordering.
    """
    return abs(_pearson(v_in, v_out))


def balance_report(corr: CorrMatrix) -> BalanceReport:
    """Balance index, pair stabilities and spectral fractions of one correlation matrix.

    H and the pair stabilities, rows and columns in `corr.assets` order, both
    come from one S * S^2 product of its sign matrix S. They come first, so a
    network of fewer than 3 nodes is rejected before the spectrum is taken.
    """
    if corr.n < 3:
        raise DataError("balance index needs at least 3 nodes")
    products = _triad_products(sign_matrix(corr))
    fracs, v1 = spectral_summary(corr, k=2)
    if (fracs < -1e-8).any():
        raise DataError("eigenvalue fraction is negative beyond tolerance")
    h, delta = _balance_index(products), products / (corr.n - 2)
    return BalanceReport(h=h, delta=delta, eig_fracs=tuple(max(float(f), 0.0) for f in fracs), v1=v1)
