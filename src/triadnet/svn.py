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
from .graphmetrics import _check_adjacency
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
        _check_adjacency(self.adjacency, len(self.assets))

    @property
    def n_links(self) -> int:
        return int(self.adjacency.sum()) // 2


_CHUNK_ELEMS = 1 << 17  # float64 entries per (rows x width) array: 1 MB
_MAX_T = 1 << 21  # c, ki and kj each take 21 bits of the int64 dedup key


def _log_factorials(t: int) -> np.ndarray:
    return np.array([math.lgamma(i + 1) for i in range(t + 1)])


def _tail_pvalues(c: np.ndarray, ki: np.ndarray, kj: np.ndarray, t: int,
                  lf: np.ndarray) -> np.ndarray:
    """P(X >= c) for X hypergeometric with population t, successes ki, draws kj.

    The counts are int64 arrays with ki, kj in [0, t] and c in
    [0, min(ki, kj)]; `lf` is `_log_factorials(t)`. Vectorized over pairs; the
    summation runs in log space so that windows of several thousand days
    cannot underflow.

    Each distinct (c, ki, kj) triple is evaluated once. Its terms are padded
    to one width, the longest tail of the call, and evaluated
    `_CHUNK_ELEMS // width` rows at a time, so memory is O(pairs + chunk),
    O(N^2 + chunk) for a window of N assets, not O(pairs x tail width). The
    dedup key packs each count into 21 bits, hence t < 2**21. The width must
    stay global: numpy's pairwise sum groups a row's terms by the row length,
    so a chunk-local width would move the last bits of the p-values.
    """
    if t >= _MAX_T:
        raise DataError(f"window length must be below {_MAX_T} days")
    xmax = np.minimum(ki, kj)
    lower = np.maximum(0, ki + kj - t)
    p = np.ones(c.shape, dtype=float)
    todo = np.flatnonzero(c > lower)  # c <= lower: the whole support, exactly 1
    if todo.size == 0:
        return p
    width = int((xmax[todo] - c[todo]).max()) + 1
    key = (c[todo] << 42) | (ki[todo] << 21) | kj[todo]
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    rows = todo[first]
    tail = np.empty(rows.size)
    step = max(1, _CHUNK_ELEMS // width)
    for start in range(0, rows.size, step):
        r = rows[start:start + step]
        a = ki[r, None]
        b = kj[r, None]
        log_denom = lf[t] - lf[b] - lf[t - b]
        x = c[r, None] + np.arange(width)[None, :]
        valid = x <= xmax[r, None]
        xc = np.where(valid, x, 0)
        terms = (
            lf[a] - lf[xc] - lf[a - xc]
            + lf[t - a] - lf[b - xc] - lf[(t - a) - (b - xc)]
            - log_denom
        )
        terms = np.where(valid, terms, -np.inf)
        peak = terms.max(axis=1)
        tail[start:start + step] = np.exp(peak) * np.exp(terms - peak[:, None]).sum(axis=1)
    p[todo] = np.minimum(tail, 1.0)[inverse]
    return p


def link_pvalue(c: int, k_i: int, k_j: int, T: int) -> float:
    """Right-tail p-value of observing at least c joint days; see _tail_pvalues."""
    if T < 1:
        raise DataError("window length must be positive")
    c, k_i, k_j = int(c), int(k_i), int(k_j)
    if not (0 <= k_i <= T and 0 <= k_j <= T):
        raise DataError("per-asset counts must lie in [0, T]")
    if not 0 <= c <= min(k_i, k_j):
        raise DataError("co-occurrence count outside [0, min(k_i, k_j)]")
    counts = (np.array([v], dtype=np.int64) for v in (c, k_i, k_j))
    return float(_tail_pvalues(*counts, T, _log_factorials(T))[0])


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
    (see `util.count_product`). Memory is O(N^2 + chunk): the tail p-values
    are evaluated in fixed-size row chunks (see `_tail_pvalues`), never as
    one pairs x tail-width array.
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
