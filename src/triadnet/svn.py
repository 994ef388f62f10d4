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
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DataError
from .graphmetrics import _check_adjacency
from .preprocess import BinaryPanel
from .util import count_product

POLARITIES = ("positive", "negative")


@dataclass(eq=False)
class Svn:
    """Validated adjacency plus the retained links as (i, j, p) sequences, i < j."""

    assets: tuple
    adjacency: np.ndarray
    polarity: str
    alpha: float
    links: tuple = ((), (), ())

    def __post_init__(self):
        self.assets = tuple(self.assets)
        _check_adjacency(self.adjacency, len(self.assets))

    @property
    def n_links(self) -> int:
        return int(self.adjacency.sum()) // 2

    @cached_property
    def pvalues(self) -> dict:
        """(i, j) -> p of each retained link, made from `links` when first read."""
        i, j, p = (np.asarray(v).tolist() for v in self.links)
        return dict(zip(zip(i, j), p))


_CHUNK_ELEMS = 1 << 17  # float64 entries per (laws x width) table chunk: 1 MB
_STORE_ELEMS = 1 << 20  # float64 entries of the law store: 8 MB, more than any row (< 2**20)
_MAX_T = 1 << 21  # t, a and b each take 21 bits of the int64 law key


def _log_factorials(t: int) -> np.ndarray:
    return np.array([math.lgamma(i + 1) for i in range(t + 1)])


class _LawStore:
    """Log-tail rows kept across calls in a buffer of `_STORE_ELEMS` float64s, made at first use
    with a workspace of four `_CHUNK_ELEMS` rows: the law (a, b) of window length t, key
    (t << 42) | (a << 21) | b, has log P(X >= a - j) at rows[start + j] for j < width.
    `keys` is sorted and ends in a sentinel above every key."""

    def __init__(self):
        self.rows = None
        self.clear()

    def clear(self):
        self.keys, (self.start, self.width), self.used = np.array([2**63 - 1]), np.zeros((2, 1), int), 0

    def add(self, laws, width, t, lf):
        """Build `laws`' rows, `width` long, into the room left, widest first in chunks of at most
        `_CHUNK_ELEMS` entries padded to their first row. A chunk is built in place in the
        workspace (in its own, if one row is wider) and its rows lie side by side in the store;
        a law's shallower row becomes dead space."""
        if self.rows is None:
            self.rows, self.work = np.empty(_STORE_ELEMS), np.empty((4, _CHUNK_ELEMS))
        by_width = np.argsort(-width)
        start = np.empty_like(width)
        start[by_width] = self.used + np.cumsum(width[by_width]) - width[by_width]
        a, b = (laws >> 21) & (_MAX_T - 1), laws & (_MAX_T - 1)
        while by_width.size:
            w = int(width[by_width[0]])
            n = max(1, _CHUNK_ELEMS // w)
            g, by_width = by_width[:n], by_width[n:]
            size, ag, bg = g.size * w, a[g, None], b[g, None]
            work = self.work if size <= self.work.shape[1] else np.empty((4, size))
            x, i = (v[:size].view(np.int64).reshape(-1, w) for v in work[:2])
            terms, got = (v[:size].reshape(-1, w) for v in work[2:])
            # x = a, a-1, ... down to c; a padded column repeats c's term and is not stored
            np.maximum(np.subtract(ag, np.arange(w), out=x), ag - width[g, None] + 1, out=x)
            terms[...] = lf[ag]
            terms -= np.take(lf, x, out=got, mode="clip")  # in range; "clip" fills `got` unbuffered
            terms -= np.take(lf, np.subtract(ag, x, out=i), out=got, mode="clip")
            terms += lf[t - ag]
            terms -= np.take(lf, np.subtract(bg, x, out=i), out=got, mode="clip")
            terms -= np.take(lf, np.add(x, t - ag - bg, out=i), out=got, mode="clip")
            terms -= lf[t] - lf[bg] - lf[t - bg]
            np.logaddexp.accumulate(terms, axis=1, out=got)
            self.rows[start[g[0]] : start[g[0]] + width[g].sum()] = got[np.arange(w) < width[g, None]]
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
    4 MB chunk workspace: new rows that do not fit empty the store, which takes
    as many as fit, until every pair is read. Calls from several threads take
    turns at the store. The key packs t, a and b into 21 bits each, hence
    t < 2**21. `build_svn` asks only for the pairs BH could keep (see there).
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


def _check_alpha(alpha: float) -> None:
    if not 0 < alpha < 1:
        raise DataError("alpha must be in (0, 1)")


def _bh_cutoff(p: np.ndarray, alpha: float) -> float:
    """Benjamini-Hochberg step-up cutoff: the largest sorted p_(r) <= r * alpha / p.size, or
    -inf if none; every p-value at or below it is kept, ties included. Only the p-values at or
    below alpha are sorted, since a larger one can never meet r * alpha / p.size <= alpha."""
    sorted_p = np.sort(p[p <= alpha])
    ok = np.flatnonzero(sorted_p <= np.arange(1, sorted_p.size + 1) * alpha / p.size)
    return float(sorted_p[ok[-1]]) if ok.size else -np.inf


def build_svn(b: BinaryPanel, alpha: float = 0.1, polarity: str = "positive") -> Svn:
    """Test every asset pair of the window and keep the FDR survivors.

    Positive polarity counts days both assets are up (above the median).
    Negative polarity counts up/down disagreement days in both directions,
    takes the smaller of the two tail p-values and doubles it before the
    step-up selection. The counts come from one float32 BLAS product, exact
    below 2**24 days (see `util.count_product`).

    A tail is summed only where the selection could keep the pair. A count at
    or below its hypergeometric mean, c * t <= k_i * k_j in exact int64, has
    p >= 1/2, as the law's median is at least the floor of its mean. So at
    alpha < 1/2 such a positive pair gets p = 1 without a tail, and a negative
    direction gets 1 at any alpha, as doubling p >= 1/2 gives 1 already; no
    kept link or p-value moves. Memory is O(N^2) plus the law store's fixed
    8 MB and 4 MB chunk workspace: the tail p-values come from one tail row
    per (k_i, k_j) law, kept across calls (see `_tail_pvalues`), never from
    one pairs x tail-width array.
    """
    if polarity not in POLARITIES:
        raise DataError(f"polarity must be one of {POLARITIES}")
    _check_alpha(alpha)
    t, n = b.values.shape
    adjacency = np.zeros((n, n), dtype=np.int8)
    up = b.values > 0
    k = up.sum(axis=0)
    iu, ju = np.triu_indices(n, k=1)
    lf, tails = _log_factorials(t), []
    if polarity == "positive":
        counts = [(count_product(up, up)[iu, ju], k[iu], k[ju])]
    else:
        cross = count_product(up, ~up)  # cross[i, j] = days i up and j down
        counts = ((cross[i, j], k[i], t - k[j]) for i, j in ((iu, ju), (ju, iu)))
    for c, ki, kj in counts:
        tested = np.flatnonzero(c * t > ki * kj) if alpha < 0.5 or polarity == "negative" else slice(None)
        tails.append(np.ones(c.shape))
        tails[-1][tested] = _tail_pvalues(c[tested], ki[tested], kj[tested], t, lf)
    p = tails[0] if polarity == "positive" else np.minimum(2.0 * np.minimum(*tails), 1.0)
    kept = np.flatnonzero(p <= _bh_cutoff(p, alpha))
    i, j = iu[kept], ju[kept]
    adjacency[i, j] = adjacency[j, i] = 1
    return Svn(b.assets, adjacency, polarity, alpha, (i, j, p[kept]))
