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

from .correlation import CorrMatrix, SignedMatrix
from .errors import DataError
from .util import count_product


@dataclass(eq=False)
class BalanceReport:
    """Balance index, pair stability matrix and leading spectral diagnostics."""

    h: float
    delta: np.ndarray
    eig_fracs: tuple
    v1: np.ndarray


def _signed_values(s) -> np.ndarray:
    values = s.values if isinstance(s, SignedMatrix) else np.asarray(s)
    n = values.shape[0]
    if values.ndim != 2 or values.shape != (n, n):
        raise DataError("signed matrix must be square")
    if not np.array_equal(values, values.T):
        raise DataError("signed matrix must be symmetric")
    if n and not (np.diag(values) == 0).all():
        raise DataError("signed matrix diagonal must be 0")
    return values


def triad_is_stable(s_ij: int, s_ik: int, s_jk: int) -> bool:
    """True when the triad's sign product is +1."""
    for s in (s_ij, s_ik, s_jk):
        if s not in (-1, 1):
            raise DataError(f"triad signs must be -1 or +1, got {s!r}")
    return s_ij * s_ik * s_jk == 1


def _triad_products(values: np.ndarray) -> np.ndarray:
    """S * S^2 (elementwise) of a validated signed matrix: the summed sign
    product of the triads through each pair, exact while N^3 < 2**53."""
    return values.astype(np.int64) * count_product(values, values)


def _balance_index(products: np.ndarray) -> float:
    """H from `_triad_products`: trace(S^3) is the sum of S * S^2."""
    return -int(products.sum()) / (6 * comb(products.shape[0], 3))


def hamiltonian(s) -> float:
    """Minus the average sign product over all unordered triples.

    Computed as -trace(S^3) / (6 * C(N,3)) with one product: S^2 is
    symmetric, so trace(S^3) = sum of S * S^2 (elementwise), the product
    `pair_stability` forms. S^2 is a float64 BLAS product of integers, exact
    while N^3 < 2**53, so the value is exact.
    """
    values = _signed_values(s)
    if values.shape[0] < 3:
        raise DataError("balance index needs at least 3 nodes")
    return _balance_index(_triad_products(values))


def pair_stability(s) -> np.ndarray:
    """Per-pair average sign product over the N-2 triads through each pair.

    Entry (i,j) is S_ij * (S^2)_ij / (N-2): +1 when the pair forms stable
    triads with every other node, -1 when none. Diagonal is 0. S^2 is a
    float64 BLAS product, exact while N^3 < 2**53.
    """
    values = _signed_values(s)
    n = values.shape[0]
    if n < 3:
        raise DataError("pair stability needs at least 3 nodes")
    return _triad_products(values) / (n - 2)


def spectral_summary(corr: CorrMatrix, k: int = 2):
    """Top-k eigenvalue fractions and the leading eigenvector.

    Eigenvalues are sorted descending and reported as fractions of N. The
    eigenvector is unit norm with its largest-magnitude component positive,
    so repeated runs agree on its direction.
    """
    if not np.isfinite(corr.values).all():
        raise DataError("correlation matrix has non-finite entries")
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
    a = np.asarray(v_in, dtype=float)
    b = np.asarray(v_out, dtype=float)
    if a.shape != b.shape or a.ndim != 1 or a.size < 2:
        raise DataError("eigenvector overlap needs two equal-length vectors (>= 2)")
    a = a - a.mean()
    b = b - b.mean()
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0 or nb == 0:
        raise DataError("eigenvector overlap undefined for constant vectors")
    return float(abs(a @ b) / (na * nb))


def balance_report(signed: SignedMatrix, corr: CorrMatrix) -> BalanceReport:
    """Bundle the balance index, pair stabilities and spectral fractions."""
    fracs, v1 = spectral_summary(corr, k=2)
    cleaned = []
    for f in fracs:
        if f < -1e-8:
            raise DataError("eigenvalue fraction is negative beyond tolerance")
        cleaned.append(max(float(f), 0.0))
    while len(cleaned) < 2:
        cleaned.append(0.0)
    return BalanceReport(
        h=hamiltonian(signed),
        delta=pair_stability(signed),
        eig_fracs=tuple(cleaned[:2]),
        v1=v1,
    )
