"""Statistically validated networks from binarized return panels.

Each asset pair is scored by the right tail of the hypergeometric law for the
number of days the two assets moved together (the one-sided Fisher exact
test), then the Benjamini-Hochberg step-up rule keeps the pairs that survive
at the requested false discovery rate. Positive polarity tests co-occurring
up days; negative polarity tests up days of one asset against down days of
the other, in both directions with a Bonferroni factor of two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .preprocess import BinaryPanel
from .util import count_product

POLARITIES = ("positive", "negative")


@dataclass(eq=False)
class Svn:
    """Validated adjacency plus the p-values of the retained links."""

    assets: tuple
    adjacency: np.ndarray
    polarity: str
    alpha: float
    pvalues: dict = field(default_factory=dict)

    def __post_init__(self):
        self.assets = tuple(self.assets)
        n = len(self.assets)
        if self.adjacency.shape != (n, n):
            raise DataError("adjacency shape mismatch")
        if not np.array_equal(self.adjacency, self.adjacency.T):
            raise DataError("adjacency must be symmetric")
        if n and not (np.diag(self.adjacency) == 0).all():
            raise DataError("adjacency diagonal must be 0")

    @property
    def n_links(self) -> int:
        return int(self.adjacency.sum()) // 2


def _log_factorials(t: int) -> np.ndarray:
    return np.array([math.lgamma(i + 1) for i in range(t + 1)])


def _tail_pvalues(c: np.ndarray, ki: np.ndarray, kj: np.ndarray, t: int,
                  lf: np.ndarray | None = None) -> np.ndarray:
    """P(X >= c) for X hypergeometric with population t, successes ki, draws kj.

    Vectorized over pairs; the summation runs in log space so that windows of
    several thousand days cannot underflow.
    """
    c = np.asarray(c, dtype=np.int64)
    ki = np.asarray(ki, dtype=np.int64)
    kj = np.asarray(kj, dtype=np.int64)
    if (ki < 0).any() or (kj < 0).any() or (ki > t).any() or (kj > t).any():
        raise DataError("per-asset counts must lie in [0, T]")
    xmax = np.minimum(ki, kj)
    if (c < 0).any() or (c > xmax).any():
        raise DataError("co-occurrence count outside [0, min(k_i, k_j)]")
    lower = np.maximum(0, ki + kj - t)
    full = c <= lower  # tail covers the whole support, exactly 1
    p = np.ones(c.shape, dtype=float)
    todo = ~full
    if not todo.any():
        return p
    if lf is None:
        lf = _log_factorials(t)
    log_denom = lf[t] - lf[kj] - lf[t - kj]
    width = int((xmax[todo] - c[todo]).max()) + 1
    x = c[todo, None] + np.arange(width)[None, :]
    valid = x <= xmax[todo, None]
    xc = np.where(valid, x, 0)
    a = ki[todo, None]
    b = kj[todo, None]
    terms = (
        lf[a] - lf[xc] - lf[a - xc]
        + lf[t - a] - lf[b - xc] - lf[(t - a) - (b - xc)]
        - log_denom[todo, None]
    )
    terms = np.where(valid, terms, -np.inf)
    peak = terms.max(axis=1)
    tail = np.exp(peak) * np.exp(terms - peak[:, None]).sum(axis=1)
    p[todo] = np.minimum(tail, 1.0)
    return p


def link_pvalue(c: int, k_i: int, k_j: int, T: int) -> float:
    """Right-tail p-value of observing at least c joint days; see _tail_pvalues."""
    if T < 1:
        raise DataError("window length must be positive")
    return float(_tail_pvalues(np.array([c]), np.array([k_i]), np.array([k_j]), T)[0])


def bh_select(pvalues, alpha: float) -> set:
    """Benjamini-Hochberg step-up selection.

    Sorts the p-values, finds the largest rank r with p_(r) <= r*alpha/M
    (M = number of tests) and returns the indices of every p-value at or below
    that cutoff; the empty set if no rank qualifies.
    """
    if not 0 < alpha < 1:
        raise DataError("alpha must be in (0, 1)")
    p = np.asarray(pvalues, dtype=float)
    m = p.size
    if m == 0:
        return set()
    order = np.argsort(p, kind="stable")
    sorted_p = p[order]
    ok = sorted_p <= (np.arange(1, m + 1) * alpha / m)
    if not ok.any():
        return set()
    cutoff = sorted_p[np.nonzero(ok)[0][-1]]
    return set(int(i) for i in np.nonzero(p <= cutoff)[0])


def build_svn(b: BinaryPanel, alpha: float = 0.1, polarity: str = "positive") -> Svn:
    """Test every asset pair of the window and keep the FDR survivors.

    Positive polarity counts days both assets are up (above the median).
    Negative polarity counts up/down disagreement days in both directions,
    takes the smaller of the two tail p-values and doubles it before the
    step-up selection. The counts come from one exact float64 BLAS product
    (see `util.count_product`).
    """
    if polarity not in POLARITIES:
        raise DataError(f"polarity must be one of {POLARITIES}")
    t, n = b.values.shape
    adjacency = np.zeros((n, n), dtype=np.int8)
    if n < 2:
        return Svn(b.assets, adjacency, polarity, alpha, {})
    up = b.values > 0
    k = up.sum(axis=0)
    iu, ju = np.triu_indices(n, k=1)
    lf = _log_factorials(t)
    if polarity == "positive":
        both_up = count_product(up, up)
        p = _tail_pvalues(both_up[iu, ju], k[iu], k[ju], t, lf)
    else:
        cross = count_product(up, ~up)  # cross[i, j] = days i up and j down
        p_ij = _tail_pvalues(cross[iu, ju], k[iu], t - k[ju], t, lf)
        p_ji = _tail_pvalues(cross[ju, iu], k[ju], t - k[iu], t, lf)
        p = np.minimum(2.0 * np.minimum(p_ij, p_ji), 1.0)
    selected = bh_select(p, alpha)
    pvalues = {}
    for idx in sorted(selected):
        i, j = int(iu[idx]), int(ju[idx])
        adjacency[i, j] = adjacency[j, i] = 1
        pvalues[(i, j)] = float(p[idx])
    return Svn(b.assets, adjacency, polarity, alpha, pvalues)
