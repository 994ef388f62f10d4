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


_CHUNK_ELEMS = 1 << 17  # float64 entries per (groups x width) table chunk: 1 MB
_MAX_T = 1 << 21  # ki and kj each take 21 bits of the int64 group key


def _log_factorials(t: int) -> np.ndarray:
    return np.array([math.lgamma(i + 1) for i in range(t + 1)])


def _tail_pvalues(c: np.ndarray, ki: np.ndarray, kj: np.ndarray, t: int,
                  lf: np.ndarray) -> np.ndarray:
    """P(X >= c) for X hypergeometric with population t, successes ki, draws kj.

    The counts are int64 arrays with ki, kj in [0, t] and c in
    [0, min(ki, kj)]; `lf` is `_log_factorials(t)`. Pairs with c at or below
    the lower end of the support get exactly 1.

    The tail is symmetric in the margins, so the other pairs are grouped by
    their law (a, b) = (min(ki, kj), max(ki, kj)). Each group gets one table
    row of log-terms for x = a, a-1, ... down to the smallest c of the group,
    and a running `np.logaddexp` along the row turns it into log P(X >= x):
    the sum stays in log space, so deep tails of long windows cannot
    underflow, and it starts from the far end of the tail. A pair reads its
    p-value at column a - c. Groups are processed in width order,
    `_CHUNK_ELEMS // width` rows at a time, and each chunk's pairs read their
    p-values before the next chunk, so memory is O(pairs + chunk), not
    O(groups x width). A p-value depends on (c, a, b, t) alone: it is the
    same for (c, kj, ki), whatever else the call holds and wherever the
    chunks break. The group key packs each margin into 21 bits, hence
    t < 2**21.
    """
    if t >= _MAX_T:
        raise DataError(f"window length must be below {_MAX_T} days")
    p = np.ones(c.shape, dtype=float)
    todo = np.flatnonzero(c > np.maximum(0, ki + kj - t))
    if todo.size == 0:
        return p
    c = c[todo]
    key = (np.minimum(ki[todo], kj[todo]) << 21) | np.maximum(ki[todo], kj[todo])
    laws, group = np.unique(key, return_inverse=True)
    a, b = laws >> 21, laws & (_MAX_T - 1)
    c_min = a.copy()
    np.minimum.at(c_min, group, c)
    width = a - c_min + 1
    by_width = np.argsort(-width)
    rank = np.empty_like(by_width)
    rank[by_width] = np.arange(by_width.size)
    pair_rank = rank[group]
    pairs = np.argsort(pair_rank)
    sorted_rank = pair_rank[pairs]
    start = 0
    while start < by_width.size:
        w = int(width[by_width[start]])
        stop = min(by_width.size, start + max(1, _CHUNK_ELEMS // w))
        g = by_width[start:stop, None]
        # past c_min the row repeats the term at c_min; those columns are never read
        x = np.maximum(a[g] - np.arange(w), c_min[g])
        terms = (
            lf[a[g]] - lf[x] - lf[a[g] - x]
            + lf[t - a[g]] - lf[b[g] - x] - lf[t - a[g] - b[g] + x]
            - (lf[t] - lf[b[g]] - lf[t - b[g]])
        )
        table = np.logaddexp.accumulate(terms, axis=1)
        lo, hi = np.searchsorted(sorted_rank, [start, stop])
        r = pairs[lo:hi]
        p[todo[r]] = np.minimum(np.exp(table[pair_rank[r] - start, a[group[r]] - c[r]]), 1.0)
        start = stop
    return p


def _bh_cutoff(p: np.ndarray, alpha: float) -> float:
    """Benjamini-Hochberg step-up cutoff: the largest sorted p_(r) <= r * alpha / p.size, or
    -inf if none; every p-value at or below it is kept, ties included."""
    if not 0 < alpha < 1:
        raise DataError("alpha must be in (0, 1)")
    sorted_p = np.sort(p)
    ok = np.flatnonzero(sorted_p <= np.arange(1, p.size + 1) * alpha / p.size)
    return float(sorted_p[ok[-1]]) if ok.size else -np.inf


def build_svn(b: BinaryPanel, alpha: float = 0.1, polarity: str = "positive") -> Svn:
    """Test every asset pair of the window and keep the FDR survivors.

    Positive polarity counts days both assets are up (above the median).
    Negative polarity counts up/down disagreement days in both directions,
    takes the smaller of the two tail p-values and doubles it before the
    step-up selection. The counts come from one float32 BLAS product, exact
    below 2**24 days (see `util.count_product`). Memory is O(N^2 + chunk): the
    tail p-values come from one tail table per (k_i, k_j) law, built in fixed-size
    row chunks (see `_tail_pvalues`), never as one pairs x tail-width array.
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
    kept = np.flatnonzero(p <= _bh_cutoff(p, alpha))
    i, j = iu[kept], ju[kept]
    adjacency[i, j] = adjacency[j, i] = 1
    pvalues = dict(zip(zip(i.tolist(), j.tolist()), p[kept].tolist()))
    return Svn(b.assets, adjacency, polarity, alpha, pvalues)
