"""Out-of-sample prediction of correlation-sign changes.

For an in-sample window ending at some date and a contiguous out-of-sample
window starting the next trading day, the sign matrix of each window is
computed independently on the assets that survive preprocessing in both.
Pairs whose sign switches form the positive class; the in-sample pair
stability score and the in-sample absolute correlation (both negated, so
higher means "more likely to switch") are the competing discriminators,
compared by ROC/AUC over rolling windows and a grid of window lengths. The
grid sweeps its end dates in order and preprocesses each (length, end) window
once; both AUCs count labels per score value instead of sorting the scores.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import weakref
from concurrent.futures import ProcessPoolExecutor
from contextlib import suppress
from dataclasses import dataclass
from functools import partial
from itertools import compress

import numpy as np

from . import preprocess
from .balance import _balance_index, _triad_products, eigvec_overlap, hamiltonian, spectral_summary
from .correlation import (
    CORR_KINDS,
    CorrMatrix,
    _phi_numerator,
    partial_pearson,
    pearson_matrix,
    phi_matrix,
    sign_matrix,
)
from .errors import DataError
from .graphmetrics import MIN_LINKS_FOR_ASSORTATIVITY, LabeledGraph, assortativity, link_density
from .ingest import PricePanel
from .preprocess import (
    BinaryPanel,
    ReturnPanel,
    _signs,
    _survivors,
    _with_mode,
    log_returns,
    volatility,
)
from .svn import _check_alpha, build_svn

logger = logging.getLogger(__name__)

SCORE_KINDS = ("delta", "absphi")
MIN_BIN_WIDTH = 1e-4  # a stability profile of at most 20,000 bins


@dataclass(eq=False)
class SignChangeDataset:
    """Pairs (iu[k], ju[k]) of `assets` (panel order), switch labels and both negated in-sample scores."""

    assets: tuple
    iu: np.ndarray
    ju: np.ndarray
    labels: np.ndarray
    scores_delta: np.ndarray
    scores_absphi: np.ndarray

    @property
    def n_pairs(self) -> int:
        return len(self.iu)


@dataclass(eq=False)
class RocResult:
    """Threshold-sweep curve points and the tie-aware area under them."""

    points: list
    auc: float


@dataclass
class ExperimentRecord:
    """One (end date, window pair) evaluation of both discriminators."""

    end_date: str
    t_in: int
    t_out: int
    q_in: float
    q_out: float
    auc_delta: float
    auc_absphi: float
    h_in: float
    h_out: float
    volatility: float
    n_pairs: int


def default_t_values() -> list:
    """Ten window lengths from 20 to 2000 days in geometric progression."""
    raw = 20.0 * (100.0 ** (np.arange(10) / 9.0))
    return sorted({int(round(v)) for v in raw})


def _check_kind(corr_kind: str) -> None:
    if corr_kind not in CORR_KINDS:
        raise DataError(f"unknown correlation kind {corr_kind!r}: expected one of {CORR_KINDS}")


def _window(full, end_idx: int, t: int):
    """(returns, universe arrays or None) of the t returns ending at price row end_idx, cut from
    `full`, a panel's `_with_mode`: return rows end_idx - t .. end_idx - 1, NaN where missing. The
    one fit check: a window of no returns, or one that starts before the first return or ends
    after the last, raises DataError; a window too early names its last date, one too late its first."""
    r, universe = full
    n, start = len(r.dates), end_idx - t
    if t < 1:
        raise DataError("window lengths must be positive")
    if start < 0:
        end = r.dates[end_idx - 1] if end_idx else "the first date"
        raise DataError(f"insufficient history: need {t} returns ending {end}, have {end_idx}")
    if end_idx > n:
        first = r.dates[start] if start < n else f"the date after {r.dates[-1]}"
        raise DataError(f"insufficient history: need {t} returns from {first}, have {max(n - start, 0)}")
    rows = slice(start, end_idx)
    window = ReturnPanel._trusted(r.dates[rows], r.assets, r.returns[rows])
    return window, None if universe is None else tuple(a[rows] for a in universe)


_FULL = weakref.WeakKeyDictionary()  # panel -> (its fields, scope, `_with_mode` of its returns)


def _full(panel: PricePanel, median_scope: str):
    """`_with_mode(log_returns(panel), median_scope)`, kept while the panel lives for its last scope
    and as long as its prices, present, dates and assets are the objects it was made from."""
    fields = panel.prices, panel.present, panel.dates, panel.assets
    kept = _FULL.get(panel)
    if kept is None or kept[1] != median_scope or any(x is not y for x, y in zip(kept[0], fields)):
        _FULL[panel] = kept = fields, median_scope, _with_mode(log_returns(panel), median_scope)
    return kept[2]


def _corr_from_data(data, corr_kind: str) -> CorrMatrix:
    """Correlation matrix of a window's survivor data (dates, assets, columns)."""
    if corr_kind == "phi":
        return phi_matrix(BinaryPanel(*data))
    return (pearson_matrix if corr_kind == "pearson" else partial_pearson)(ReturnPanel._trusted(*data))


def window_correlation(
    returns: ReturnPanel, corr_kind: str = "phi", median_scope: str = "universe"
) -> CorrMatrix:
    """Correlation matrix of one window, restricted to its surviving assets."""
    _check_kind(corr_kind)
    return _corr_from_data(_survivors(*_with_mode(returns, median_scope), corr_kind)[0], corr_kind)


def _side(data, corr_kind: str, scores: bool) -> dict:
    """One window's part in a pair, on the pair's assets in panel order: "signs" (upper triangle,
    True where nonnegative) and "h", from one S * S^2 product; a phi S without `scores` is the signs
    of phi's numerator T*c - k k^T. With `scores`, also each discriminator as a lattice (index,
    ascending values): the scores are values[index]; pair stability's index is (N-2) - (S * S^2)_ij.
    H divides by C(N, 3), so a pair of fewer than 3 assets raises DataError."""
    if len(data[1]) < 3:
        raise DataError(f"only {len(data[1])} assets survive both windows (need 3)")
    if corr_kind == "phi" and not scores:
        s = _signs(_phi_numerator(data[2]))
        np.fill_diagonal(s, 0)
    else:
        s = sign_matrix(corr := _corr_from_data(data, corr_kind))
    products = _triad_products(s)
    upper = ~np.tri(len(s), dtype=bool)  # row-major, the order of np.triu_indices(n, 1)
    side = {"signs": s[upper] > 0, "h": _balance_index(products)}
    if scores:
        n2 = len(s) - 2  # int32 indices halve what long-lived entries hold
        side["delta"] = n2 - products[upper].astype(np.int32), -((n2 - np.arange(2 * n2 + 1)) / n2)
        values, index = np.unique(-np.abs(corr.values[upper]), return_inverse=True)
        side["absphi"] = index.astype(np.int32), values
    return side


def _tie_counts(index, labels, n: int):
    """(positives, negatives) of boolean `labels` per group 0 .. n-1 of index: the one tie count."""
    counts = np.bincount(2 * index + labels, minlength=2 * n).reshape(n, 2)
    return counts[:, 1], counts[:, 0]


def _lattice_auc(lattice, labels) -> float:
    """`roc(labels, values[index]).auc`, counted per lattice value instead of sorted."""
    index, values = lattice
    return _groups_auc(*_tie_counts(index, labels, len(values)))


def _sweep(full, tasks, corr_kind: str, make, outcome, row=None) -> list:
    """[outcome(task, in-window entry, pair) for each (t_in, t_out, end_idx) of `tasks`], in the
    order given. A pair is (common, in-product, out-product), with common the in-window's
    survivors that also survive the out-window in panel order, or a message: a window's "error",
    the in-window's "row" when that is a message, or a DataError of `make`. Each (t, end) window
    is preprocessed once and dropped after the last task that names it, in whatever order the
    tasks come; a task's entry and pair are dropped before the next task's windows are built.
    An entry holds an "error" (`_window`'s too) or its survivors' "assets", their panel
    "mask" and `_survivors` "cut" and, for an in-window, its "volatility" and, with `row`, its
    "row": row(entry, phi signs), made after its phi signs and then its own "product", or the
    message of the first of those to fail. Every side is make(cut(mask, common)), the window's
    shared "product" where common is its survivors, with `scores` false only for an out-side on
    common assets or a window that is no task's in-window."""
    in_keys = {(t_in, end) for t_in, _, end in tasks}
    last_use = {key: i for i, (t_in, t_out, end) in enumerate(tasks)
                for key in ((t_in, end), (t_out, end + t_out))}  # (t, end) -> its last task
    cache = {}

    def entry(key):
        if key not in cache:
            try:
                w = _window(full, key[1], key[0])
                cc = preprocess.complete_case(w[0])  # also gives a non-phi row its phi signs
                data, mask, cut = _survivors(*w, corr_kind, cc)
                vol = volatility(w[0]) if key in in_keys else None
                cache[key] = e = {"assets": data[1], "mask": mask, "cut": cut, "volatility": vol}
            except DataError as exc:
                cache[key] = {"error": str(exc)}
            if row is not None and key in in_keys and "error" not in cache[key]:
                try:  # a row is skipped when these fail; errors inside `row` propagate
                    signs = BinaryPanel(*(data if corr_kind == "phi" else _survivors(*w, "phi", cc)[0]))
                    product(key, mask, data[1], True)
                except DataError as exc:
                    e["row"] = str(exc)
                else:
                    e["row"] = row(e, signs)
        return cache[key]

    def product(key, mask, common, scores):
        e = cache[key]
        if len(common) < len(e["assets"]):
            return make(e["cut"](mask, common), corr_kind, scores)
        if "product" not in e:
            e["product"] = make(e["cut"](mask, common), corr_kind, key in in_keys)
        return e["product"]

    outcomes = []
    for i, task in enumerate(tasks):
        t_in, t_out, end = task
        k_in, k_out = (t_in, end), (t_out, end + t_out)
        e_in = entry(k_in)
        skip = e_in.get("row")
        pair = e_in.get("error") or (skip if isinstance(skip, str) else entry(k_out).get("error"))
        if pair is None:
            mask = e_in["mask"] & cache[k_out]["mask"]
            common = tuple(compress(full[0].assets, mask.tolist()))
            try:
                pair = common, product(k_in, mask, common, True), product(k_out, mask, common, False)
            except DataError as exc:
                pair = str(exc)
        outcomes.append(outcome(task, e_in, pair))
        del e_in, pair  # the next task's windows are built without this one's
        for key in (k_in, k_out):
            if last_use[key] == i:
                cache.pop(key, None)  # an out-window is never built when its in-window fails
    return outcomes


def build_dataset(
    panel: PricePanel,
    end_in: str,
    t_in: int,
    t_out: int,
    corr_kind: str = "phi",
    median_scope: str = "universe",
) -> SignChangeDataset:
    """Sign-switch dataset for the window pair around `end_in`.

    The in-sample window holds the t_in returns ending at end_in; the
    out-of-sample window holds the t_out returns starting the next trading
    day, so the two never overlap. Labels mark pairs whose correlation sign
    differs between the windows; both score vectors are negated stability
    measures, so a higher score predicts a switch. A window that does not fit
    in the returns raises `_window`'s DataError, the in-sample window's first.
    """
    _check_kind(corr_kind)
    end_idx = panel.date_index(end_in)
    full = _full(panel, median_scope)
    (pair,) = _sweep(full, [(t_in, t_out, end_idx)], corr_kind, _side, lambda task, e_in, pair: pair)
    if isinstance(pair, str):
        raise DataError(pair)
    common, side_in, side_out = pair
    iu, ju = np.triu_indices(len(common), k=1)
    scores = (values[index] for index, values in (side_in["delta"], side_in["absphi"]))
    return SignChangeDataset(common, iu, ju, side_in["signs"] != side_out["signs"], *scores)


def _tie_groups(labels, scores):
    """Positive and negative label counts per `np.unique` group of the scores, ascending."""
    y = np.asarray(labels, dtype=bool)
    s = np.asarray(scores, dtype=float)
    if y.shape != s.shape or y.ndim != 1:
        raise DataError("labels and scores must be equal-length vectors")
    if not np.isfinite(s).all():
        raise DataError("scores must be finite")
    if y.all() or not y.any():
        raise DataError("roc needs at least one positive and one negative label")
    values, group = np.unique(s, return_inverse=True)
    return _tie_counts(group, y, len(values))


def _groups_auc(pos, neg) -> float:
    """AUC from `_tie_counts` of groups in ascending score order; see `roc`."""
    twice_wins = int((pos * (2 * (np.cumsum(neg) - neg) + neg)).sum())
    return twice_wins / 2.0 / (int(pos.sum()) * int(neg.sum()))


def roc(labels, scores) -> RocResult:
    """ROC curve and AUC of `scores` against boolean `labels`.

    `auc` is the rank statistic: the probability that a random positive
    outscores a random negative, ties counting one half. Twice its numerator is
    an exact integer, so it equals the average-rank formula bit for bit.
    `points` is the threshold sweep from the highest score down, one point per
    tied-score group; the trapezoidal area under it equals `auc`.
    """
    pos, neg = _tie_groups(labels, scores)
    tp, fp = np.cumsum(pos[::-1]), np.cumsum(neg[::-1])
    points = [(0.0, 0.0)]
    points.extend(zip(fp / fp[-1], tp / tp[-1]))
    return RocResult(points=points, auc=_groups_auc(pos, neg))


def stability_profile(dataset: SignChangeDataset, which: str, bin_width: float = 0.05):
    """Per-bin probability that the in-sample sign is preserved out of sample.

    Bins cover the raw discriminator range (the pair stability score lives in
    [-1, 1], the absolute correlation in [0, 1]) and are at least MIN_BIN_WIDTH
    wide. Empty bins are emitted with count 0 and a null probability. Returns
    (bin center, probability, count) triples, whatever order the pairs are in.
    """
    if which not in SCORE_KINDS:
        raise DataError(f"which must be one of {SCORE_KINDS}")
    if not bin_width >= MIN_BIN_WIDTH:
        raise DataError(f"bin_width must be at least {MIN_BIN_WIDTH:g}, got {bin_width!r}")
    if dataset.n_pairs == 0:
        raise DataError("empty dataset")
    if which == "delta":
        raw = -dataset.scores_delta
        lo, hi = -1.0, 1.0
    else:
        raw = -dataset.scores_absphi
        lo, hi = 0.0, 1.0
    n_bins = max(1, int(np.ceil((hi - lo) / bin_width - 1e-12)))
    idx = np.clip(((raw - lo) / bin_width).astype(int), 0, n_bins - 1)
    switched, preserved = (c.tolist() for c in _tie_counts(idx, dataset.labels, n_bins))
    return [(lo + (b + 0.5) * bin_width, p / (p + s) if p + s else None, p + s)
            for b, (s, p) in enumerate(zip(switched, preserved))]


def _grid_outcome(dates, task, e_in, pair):
    """A grid task's record, or its (skip reason, message); `dates` are the returns' dates."""
    if isinstance(pair, str):
        return "infeasible", f"window infeasible: {pair}"
    if (labels := pair[1]["signs"] != pair[2]["signs"]).all() or not labels.any():
        return "single_class", "single-class window (no switch variation)"
    (t_in, t_out, end_idx), n = task, len(pair[0])  # pair is (common, in-side, out-side)
    return ExperimentRecord(dates[end_idx - 1], t_in, t_out, t_in / n, t_out / n,
                            *(_lattice_auc(pair[1][name], labels) for name in SCORE_KINDS),
                            pair[1]["h"], pair[2]["h"], e_in["volatility"], labels.size)


# A pool worker's `_sweep` arguments: the returns and market mode its windows slice, and the rest.
_POOL_STATE = {}


def _pool_init(full, args):
    _POOL_STATE.update(full=full, args=args)


def _pool_run(chunk):
    return _sweep(_POOL_STATE["full"], chunk, *_POOL_STATE["args"])


def _pool_size(jobs: int, n_tasks: int) -> int:
    """min(jobs, n_tasks, usable cores // BLAS threads), with OpenBLAS's thread count read
    as it reads it: OPENBLAS_NUM_THREADS, else OMP_NUM_THREADS, else the usable cores."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    values = (os.environ.get(var, "").strip() for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"))
    return min(jobs, n_tasks, cores // next((int(v) for v in values if v.isdigit() and int(v) > 0), cores))


def _map_chunks(tasks, jobs: int, full, *args) -> list:
    """_sweep(full, chunk, *args) over `tasks` cut into one contiguous run per `_pool_size`
    worker, in order, concatenated; `full` is a panel's `_with_mode`, made once in the parent.
    Below 2 workers, one in-process sweep takes all. Workers are forked whatever the Python's
    default start method, so they inherit `full`, `args` and the parent's BLAS threads: results
    do not depend on `jobs`, workers never run more BLAS threads than cores, and each cut adds
    at most the windows that straddle it."""
    workers = _pool_size(jobs, len(tasks))
    if workers < 2:
        return _sweep(full, tasks, *args)
    chunks = [tasks[i * len(tasks) // workers : (i + 1) * len(tasks) // workers] for i in range(workers)]
    logger.debug("process pool of %d workers for %d tasks, one run each", workers, len(tasks))
    with ProcessPoolExecutor(max_workers=workers, mp_context=multiprocessing.get_context("fork"),
                             initializer=_pool_init, initargs=(full, args)) as pool:
        return [r for part in pool.map(_pool_run, chunks) for r in part]


def grid_tasks(panel: PricePanel, t_values, step: int):
    """All feasible (t_in, t_out, end index) combinations, sorted by (end index, t_in, t_out)."""
    tasks = [(t_in, t_out, end) for t_in in t_values for t_out in t_values
             for end in range(t_in, panel.n_dates - t_out, step)]
    return sorted(tasks, key=lambda task: (task[2], task[0], task[1]))


def run_grid(
    panel: PricePanel,
    t_values,
    step: int,
    corr_kind: str = "phi",
    median_scope: str = "universe",
    jobs: int = 1,
) -> tuple:
    """Evaluate every (t_in, t_out) cell on rolling end dates.

    Returns (records, {"infeasible": n, "single_class": m}): window pairs that
    fail preprocessing or have no class variation are skipped, counted and
    logged, not errors. Records come back sorted by (t_in, t_out, end_date)
    regardless of `jobs`. One sweep over end dates builds each window once; a
    pool (see `_map_chunks`) gives each worker one contiguous run of end dates.
    """
    _check_kind(corr_kind)
    t_values = list(t_values)
    if not t_values or any(t < 1 for t in t_values) or len(set(t_values)) < len(t_values):
        raise DataError(f"t_values must be distinct positive window lengths, got {t_values}")
    if step < 1:
        raise DataError("step must be at least 1 day")
    full = _full(panel, median_scope)
    tasks = grid_tasks(panel, t_values, step)
    results = _map_chunks(tasks, jobs, full, corr_kind, _side, partial(_grid_outcome, full[0].dates))
    records = [r for r in results if isinstance(r, ExperimentRecord)]
    skipped = {"infeasible": 0, "single_class": 0}
    for task, skip in zip(tasks, results):
        if not isinstance(skip, ExperimentRecord):
            skipped[skip[0]] += 1
            logger.debug("skipping t_in=%d t_out=%d end_idx=%d: %s", *task, skip[1])
    if len(records) < len(tasks):
        logger.info("grid skipped %d infeasible and %d single-class of %d windows",
                    skipped["infeasible"], skipped["single_class"], len(tasks))
    records.sort(key=lambda r: (r.t_in, r.t_out, r.end_date))
    return records, skipped


def aggregate_cells(records) -> dict:
    """Per (t_in, t_out) means of both AUCs: cell -> (mean_delta, mean_absphi, count)."""
    sums = {}
    for r in records:
        key = (r.t_in, r.t_out)
        sd, sp, c = sums.get(key, (0.0, 0.0, 0))
        sums[key] = (sd + r.auc_delta, sp + r.auc_absphi, c + 1)
    return {key: (sd / c, sp / c, c) for key, (sd, sp, c) in sums.items()}


def _timeseries_row(sectors, alpha, e, signs):
    """A window's row, or why it has none, from `_sweep`'s entry and its `_leading` product."""
    fracs, _, corr = e["product"]
    if corr.n < 3:
        return "fewer than 3 surviving assets"
    net = build_svn(signs, alpha=alpha, polarity="positive")
    graph = LabeledGraph(net.adjacency, tuple(sectors[a] for a in net.assets))
    g_value = None
    with suppress(DataError):
        g_value = assortativity(graph) if graph.m >= MIN_LINKS_FOR_ASSORTATIVITY else None
    density = link_density(graph) if graph.n_nodes >= 2 else None
    return {"h": hamiltonian(sign_matrix(corr)), "g": g_value, "density": density,
            "volatility": e["volatility"], "lambda1_frac": max(float(fracs[0]), 0.0)}


def _leading(data, corr_kind, scores):
    corr = _corr_from_data(data, corr_kind)
    return (*spectral_summary(corr, k=1), corr)


def _timeseries_outcome(task, e_in, pair):
    """A timeseries row without its date, or its skip message; an overlap on fewer than 2
    common assets is a DataError of its kernels, so null."""
    made = e_in.get("error") or e_in["row"]
    if not isinstance(made, str):
        made["v1_overlap"] = None
        with suppress(DataError):  # a constant eigenvector has no Pearson correlation
            made["v1_overlap"] = None if isinstance(pair, str) else eigvec_overlap(pair[1][1], pair[2][1])
    return made


def timeseries_rows(
    panel: PricePanel,
    window: int,
    step: int = 1,
    corr_kind: str = "phi",
    median_scope: str = "universe",
    alpha: float = 0.1,
    jobs: int = 1,
) -> list:
    """Rolling per-date diagnostics for one window length.

    Each row carries the balance index, the positive-network assortativity (null below
    10 links) and density, the window volatility, the leading eigenvalue fraction, and
    the leading-eigenvector overlap with the next (out-of-sample) window of the same
    length where one exists, on their common assets. `_sweep` builds each window once
    with its row; one eigh gives the eigenvalue fraction and the eigenvector it reuses.
    End dates are swept in chain order, (end mod window, end): where the step divides the
    window a row's out-window is the next row's in-window, and each window is dropped after
    its last use, so at most two are held. Rows do not depend on `jobs`. A pool (see
    `_map_chunks`) cuts the chain order between workers, so it adds at most workers - 1 builds.
    """
    _check_kind(corr_kind)
    _check_alpha(alpha)
    if window < 2 or step < 1:
        raise DataError("timeseries needs a window of at least 2 returns and a step of at least 1")
    ends = sorted(range(window, panel.n_dates, step), key=lambda end: end % window)  # stable: chain order
    tasks, rows = [(window, window, end) for end in ends], []
    full = _full(panel, median_scope)
    row = partial(_timeseries_row, panel.sectors, alpha)
    results = _map_chunks(tasks, jobs, full, corr_kind, _leading, _timeseries_outcome, row)
    for end_idx, made in sorted(zip(ends, results), key=lambda r: r[0]):
        if isinstance(made, str):
            logger.debug("timeseries skips %s: %s", panel.dates[end_idx], made)
            continue
        rows.append({"date": panel.dates[end_idx], **made})
    if len(rows) < len(tasks):
        logger.info("timeseries skipped %d of %d end dates", len(tasks) - len(rows), len(tasks))
    return rows

