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
import threading
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


_CHUNK_ELEMS = 1 << 17  # float64 entries per (laws x width) table chunk: 1 MB
_STORE_ELEMS = 1 << 20  # float64 entries of the law store: 8 MB, more than any row (< 2**20)
_MAX_T = 1 << 21  # t, a and b each take 21 bits of the int64 law key


def _log_factorials(t: int) -> np.ndarray:
    return np.array([math.lgamma(i + 1) for i in range(t + 1)])


class _LawStore:
    """Log-tail rows kept across calls in a buffer of `_STORE_ELEMS` float64s made at first use: the
    law (a, b) of window length t, key (t << 42) | (a << 21) | b, has log P(X >= a - j) at
    rows[start + j] for j < width. `keys` is sorted and ends in a sentinel above every key."""

    def __init__(self):
        self.rows = None
        self.clear()

    def clear(self):
        self.keys, (self.start, self.width), self.used = np.array([2**63 - 1]), np.zeros((2, 1), int), 0

    def add(self, laws, width, t, lf):
        """Build `laws`' rows, `width` long, into the room left, widest first in chunks of at most
        `_CHUNK_ELEMS` entries padded to their first row; a law's shallower row becomes dead space."""
        if self.rows is None:
            self.rows = np.empty(_STORE_ELEMS)
        start = self.used + np.cumsum(width) - width
        a, b = (laws >> 21) & (_MAX_T - 1), laws & (_MAX_T - 1)
        by_width = np.argsort(-width)
        while by_width.size:
            w = int(width[by_width[0]])
            n = max(1, _CHUNK_ELEMS // w)
            g, by_width = by_width[:n, None], by_width[n:]
            # x = a, a-1, ... down to c; a padded column repeats c's term and is not stored
            x = np.maximum(a[g] - np.arange(w), a[g] - width[g] + 1)
            terms = (
                lf[a[g]] - lf[x] - lf[a[g] - x]
                + lf[t - a[g]] - lf[b[g] - x] - lf[t - a[g] - b[g] + x]
                - (lf[t] - lf[b[g]] - lf[t - b[g]])
            )
            row = np.arange(w) < width[g]
            self.rows[(start[g] + np.arange(w))[row]] = np.logaddexp.accumulate(terms, axis=1)[row]
        self.used += int(width.sum())
        i = np.searchsorted(self.keys, laws)
        found = self.keys[i] == laws
        self.start[i[found]], self.width[i[found]] = start[found], width[found]
        self.keys, self.start, self.width = (np.insert(v, i[~found], u[~found]) for v, u in (
            (self.keys, laws), (self.start, start), (self.width, width)))


_STORE = _LawStore()
_LOCK = threading.Lock()  # one call at a time reads and fills the store


def _tail_pvalues(c: np.ndarray, ki: np.ndarray, kj: np.ndarray, t: int,
                  lf: np.ndarray) -> np.ndarray:
    """P(X >= c) for X hypergeometric with population t, successes ki, draws kj.

    The counts are int64 arrays with ki, kj in [0, t] and c in
    [0, min(ki, kj)]; `lf` is `_log_factorials(t)`. Pairs with c at or below
    the lower end of the support get exactly 1.

    The tail is symmetric in the margins, so the other pairs are grouped by
    their law (a, b) = (min(ki, kj), max(ki, kj)). A law's row holds log-terms
    for x = a, a-1, ... down to the smallest c asked of it, and a running
    `np.logaddexp` from the far end of the tail turns them into log P(X >= x),
    which deep tails of long windows cannot underflow. Rows stay in `_STORE`
    across calls; a smaller c builds its law's row again, deeper, from x = a,
    so the columns both rows have keep their bits. A pair reads its p-value at
    column a - c in one gather, so it depends on (c, a, b, t) alone, not on the
    call, the store or the chunks. Memory is O(pairs) plus the store's 8 MB and
    a 1 MB chunk: new rows that do not fit empty the store, which takes as many
    as fit, until every pair is read. Calls from several threads take turns at
    the store. The key packs t, a and b into 21 bits each, hence t < 2**21.
    """
    if t >= _MAX_T:
        raise DataError(f"window length must be below {_MAX_T} days")
    todo = np.flatnonzero(c > np.maximum(0, ki + kj - t))
    if todo.size == 0:
        return np.ones(c.shape, dtype=float)
    key = np.minimum(ki[todo], kj[todo])  # a, then in place the law's key
    col = key - c[todo]
    key <<= 21
    key |= np.maximum(ki[todo], kj[todo])
    key |= t << 42
    laws, law = np.unique(key, return_inverse=True)
    del key
    p = np.ones(c.shape, dtype=float)
    need = np.zeros_like(laws)
    np.maximum.at(need, law, col)  # each law's deepest column
    left = np.ones(laws.size, dtype=bool)  # laws whose pairs have no p-value yet
    with _LOCK:
        while True:
            i = np.searchsorted(_STORE.keys, laws)
            ready = left & (_STORE.keys[i] == laws) & (_STORE.width[i] > need)
            if ready.any():
                pairs = slice(None) if ready.all() else ready[law]
                v = _STORE.rows[_STORE.start[i][law[pairs]] + col[pairs]]
                p[todo[pairs]] = np.minimum(np.exp(v, out=v), 1.0, out=v)
                left &= ~ready
            if not left.any():
                return p
            new = np.flatnonzero(left)
            if _STORE.used + need[new].sum() + new.size > _STORE_ELEMS:
                _STORE.clear()
            new = new[np.cumsum(need[new] + 1) <= _STORE_ELEMS - _STORE.used]
            _STORE.add(laws[new], need[new] + 1, t, lf)


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
    below 2**24 days (see `util.count_product`). Memory is O(N^2) plus the law
    store's fixed 8 MB and a 1 MB chunk: the tail p-values come from one tail row
    per (k_i, k_j) law, kept across calls (see `_tail_pvalues`), never from one
    pairs x tail-width array.
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
