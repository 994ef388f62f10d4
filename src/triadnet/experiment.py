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
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import suppress
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import preprocess
from .balance import _balance_index, _triad_products, eigvec_overlap, hamiltonian, spectral_summary
from .correlation import (
    CORR_KINDS,
    CorrMatrix,
    partial_pearson,
    pearson_matrix,
    phi_matrix,
    sign_matrix,
)
from .errors import DataError
from .graphmetrics import (
    MIN_LINKS_FOR_ASSORTATIVITY,
    LabeledGraph,
    assortativity,
    link_density,
)
from .ingest import PricePanel
from .preprocess import (
    MEDIAN_SCOPES,
    BinaryPanel,
    ReturnPanel,
    _survivors,
    _with_mode,
    log_returns,
    volatility,
)
from .svn import build_svn
from .util import _pearson

logger = logging.getLogger(__name__)

SCORE_KINDS = ("delta", "absphi")


@dataclass(eq=False)
class SignChangeDataset:
    """Pairs (iu[k], ju[k]) of `assets`, switch labels and the two (negated) in-sample scores."""

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


def _check_kinds(corr_kind: str, median_scope: str) -> None:
    if corr_kind not in CORR_KINDS:
        raise DataError(f"unknown correlation kind {corr_kind!r}: expected one of {CORR_KINDS}")
    if median_scope not in MEDIAN_SCOPES:
        raise DataError(f"unknown median scope {median_scope!r}: expected one of {MEDIAN_SCOPES}")


def _window(full, end_idx: int, t: int):
    """(returns, universe arrays or None) of the t returns ending at price row end_idx, cut from
    `full`, a panel's `_with_mode`: return rows end_idx - t .. end_idx - 1. The one fit check:
    a window that starts before the first return or ends after the last raises DataError."""
    r, universe = full
    n = len(r.dates)
    if end_idx > n:
        raise DataError(f"insufficient history: a window ends {end_idx - n} returns after the last of {n}")
    if end_idx < t:
        end = r.dates[end_idx - 1] if end_idx else "the first date"
        raise DataError(f"insufficient history: need {t} returns ending {end}, have {end_idx}")
    rows = slice(end_idx - t, end_idx)
    window = ReturnPanel._trusted(r.dates[rows], r.assets, r.returns[rows], r.present[rows])
    return window, None if universe is None else tuple(a[rows] for a in universe)


def _corr_from_data(data, corr_kind: str, subset=None) -> CorrMatrix:
    """Correlation matrix of a window's survivor data, on `subset` of its assets if given."""
    dates, assets, x = data
    if subset is not None:
        pos = {a: i for i, a in enumerate(assets)}
        x = x[:, [pos[a] for a in subset]]
        assets = subset
    if corr_kind == "phi":
        return phi_matrix(BinaryPanel(dates, assets, x))
    rp = ReturnPanel._trusted(dates, assets, x, np.ones_like(x, dtype=bool))
    return (pearson_matrix if corr_kind == "pearson" else partial_pearson)(rp)


def window_correlation(
    returns: ReturnPanel, corr_kind: str = "phi", median_scope: str = "universe"
) -> CorrMatrix:
    """Correlation matrix of one window, restricted to its surviving assets."""
    _check_kinds(corr_kind, median_scope)
    return _corr_from_data(_survivors(*_with_mode(returns, median_scope), corr_kind), corr_kind)


def _side(corr: CorrMatrix, scores: bool) -> dict:
    """One window's part in a pair, on the pair's assets: "signs" (upper triangle, True
    where nonnegative) and "h", from one S * S^2 product. With `scores`, also each
    discriminator as a lattice (index, ascending values, pairs per value): the scores
    are values[index], and pair stability's index is (N-2) - (S * S^2)_ij."""
    s = sign_matrix(corr)
    products = _triad_products(s)
    upper = ~np.tri(corr.n, dtype=bool)  # row-major, the order of np.triu_indices(n, 1)
    side = {"signs": s[upper] > 0, "h": _balance_index(products)}
    if scores:
        n2 = corr.n - 2
        for name, (index, values) in (  # int32 indices halve what long-lived entries hold
            ("delta", (n2 - products[upper].astype(np.int32), -((n2 - np.arange(2 * n2 + 1)) / n2))),
            ("absphi", np.unique(-np.abs(corr.values[upper]), return_inverse=True)[::-1]),
        ):
            side[name] = index.astype(np.int32), values, np.bincount(index, minlength=len(values))
    return side


def _lattice_auc(lattice, labels) -> float:
    """`auc` of the scores values[index] against `labels`, from one count of 2 * index + label."""
    index, values, totals = lattice
    pos = np.bincount(2 * index + labels, minlength=2 * len(values))[1::2]
    return _groups_auc(pos, totals - pos)


def _sweep(full, tasks, corr_kind: str, need: int, make, row=None):
    """Yield (task, in-window entry, pair) for each (t_in, t_out, end_idx) of `tasks`, in
    end-date order. A pair is (common, in-product, out-product) or a message: it needs
    `need` common assets, and each side's product is `make(corr, scores)` of its window's
    correlation on them, with `scores` true for an in-window.

    Each (t, end) window is preprocessed once and dropped after the last end date that uses
    it; pairs whose name-sorted common assets are its survivors share its product. An entry
    holds an "error" (`_window`'s too) or, for an in-window, its "volatility" and,
    with `row`, a message or `row(entry, phi signs, corr, product)` of its own correlation."""
    in_keys = {(t_in, end) for t_in, _, end in tasks}
    last_use = {key: end for t_in, t_out, end in tasks for key in ((t_in, end), (t_out, end + t_out))}
    cache, fresh = {}, {}  # fresh: survivor data of windows first met in this task

    def entry(key):
        if key not in cache:
            try:
                w = _window(full, key[1], key[0])
                cc = preprocess.complete_case(w[0])  # also gives a non-phi row its phi signs
                fresh[key] = data = _survivors(*w, corr_kind, cc)
                vol = volatility(w[0]) if key in in_keys else None
                cache[key] = e = {"window": w, "assets": data[1], "volatility": vol}
            except DataError as exc:
                cache[key] = {"error": str(exc)}
            if row is not None and key in in_keys and "error" not in cache[key]:
                try:  # a row is skipped when these fail; errors inside `row` propagate
                    corr = _corr_from_data(data, corr_kind)
                    e["product"] = make(corr, True)
                    phi = data if corr_kind == "phi" else _survivors(*w, "phi", cc)
                    signs = BinaryPanel(*phi)
                except DataError as exc:
                    e["row"] = str(exc)
                else:
                    e["row"] = row(e, signs, corr, e["product"])
        return cache[key]

    def product(key, common, scores):
        e = cache[key]
        if common != e["assets"] or "product" not in e:
            data = fresh.get(key) or _survivors(*e["window"], corr_kind)
            if common != e["assets"]:
                return make(_corr_from_data(data, corr_kind, common), scores)
            e["product"] = make(_corr_from_data(data, corr_kind), key in in_keys)
        return e["product"]

    for task in tasks:
        t_in, t_out, end = task
        k_in, k_out = (t_in, end), (t_out, end + t_out)
        cache = {key: e for key, e in cache.items() if last_use[key] >= end}
        fresh.clear()
        e_in = entry(k_in)
        pair = e_in.get("error") or entry(k_out).get("error")
        if pair is None:
            common = tuple(sorted(set(e_in["assets"]) & set(cache[k_out]["assets"])))
            try:
                if len(common) < need:
                    raise DataError(f"only {len(common)} assets survive both windows (need {need})")
                pair = common, product(k_in, common, True), product(k_out, common, False)
            except DataError as exc:
                pair = str(exc)
        yield task, e_in, pair


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
    measures, so a higher score predicts a switch.
    """
    _check_kinds(corr_kind, median_scope)
    if t_in < 1 or t_out < 1:
        raise DataError("window lengths must be positive")
    end_idx = panel.date_index(end_in)
    if end_idx + t_out > panel.n_dates - 1:
        raise DataError(
            f"insufficient out-of-sample history after {end_in}: "
            f"need {t_out} more dates, have {panel.n_dates - 1 - end_idx}"
        )
    if end_idx < t_in:
        raise DataError(f"insufficient history for a {t_in}-return window ending {end_in}")
    full = _with_mode(log_returns(panel), median_scope)
    ((_, _, pair),) = _sweep(full, [(t_in, t_out, end_idx)], corr_kind, 3, _side)
    if isinstance(pair, str):
        raise DataError(pair)
    common, side_in, side_out = pair
    iu, ju = np.triu_indices(len(common), k=1)
    scores = (values[index] for index, values, _ in (side_in["delta"], side_in["absphi"]))
    return SignChangeDataset(common, iu, ju, side_in["signs"] != side_out["signs"], *scores)


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties sharing their average rank."""
    uniq, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    starts = ends - counts + 1
    return ((starts + ends) / 2.0)[inverse]


def _tie_groups(labels, scores):
    """Positive and negative label counts per tied-score group, scores ascending; one sort."""
    y = np.asarray(labels, dtype=bool)
    s = np.asarray(scores, dtype=float)
    if y.shape != s.shape or y.ndim != 1:
        raise DataError("labels and scores must be equal-length vectors")
    if not np.isfinite(s).all():
        raise DataError("scores must be finite")
    if y.all() or not y.any():
        raise DataError("roc needs at least one positive and one negative label")
    order = np.argsort(s)
    ordered = s[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    pos = np.add.reduceat(y[order], starts, dtype=np.int64)
    return pos, np.diff(np.append(starts, s.size)) - pos


def _groups_auc(pos, neg) -> float:
    """AUC from `_tie_groups`; see `auc`."""
    twice_wins = int((pos * (2 * (np.cumsum(neg) - neg) + neg)).sum())
    return twice_wins / 2.0 / (int(pos.sum()) * int(neg.sum()))


def auc(labels, scores) -> float:
    """Area under the ROC curve of `scores` against boolean `labels`.

    The rank statistic: the probability that a random positive outscores a
    random negative, ties counting one half. Twice its numerator is an exact
    integer, so the value equals the average-rank formula bit for bit.
    """
    return _groups_auc(*_tie_groups(labels, scores))


def roc(labels, scores) -> RocResult:
    """ROC curve and AUC of `scores` against boolean `labels`.

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
    [-1, 1], the absolute correlation in [0, 1]). Empty bins are emitted with
    count 0 and a null probability. Returns (bin center, probability, count)
    triples.
    """
    if which not in SCORE_KINDS:
        raise DataError(f"which must be one of {SCORE_KINDS}")
    if bin_width <= 0:
        raise DataError("bin_width must be positive")
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
    preserved = ~dataset.labels
    out = []
    for b in range(n_bins):
        in_bin = idx == b
        count = int(in_bin.sum())
        prob = float(preserved[in_bin].mean()) if count else None
        out.append((lo + (b + 0.5) * bin_width, prob, count))
    return out


def _evaluate(full, tasks, corr_kind):
    """Yield (task, record or (skip reason, message)) for `tasks`, from one sweep."""
    for task, e_in, pair in _sweep(full, tasks, corr_kind, 3, _side):
        if isinstance(pair, str):
            yield task, ("infeasible", f"window infeasible: {pair}")
            continue
        common, side_in, side_out = pair
        labels = side_in["signs"] != side_out["signs"]
        if labels.all() or not labels.any():
            yield task, ("single_class", "single-class window (no switch variation)")
            continue
        (t_in, t_out, end_idx), n = task, len(common)
        aucs = (_lattice_auc(side_in[name], labels) for name in SCORE_KINDS)
        yield task, ExperimentRecord(
            full[0].dates[end_idx - 1], t_in, t_out, t_in / n, t_out / n, *aucs,
            side_in["h"], side_out["h"], e_in["volatility"], labels.size,
        )


# A pool worker's `work`, its args and the returns and market mode its windows slice.
_POOL_STATE = {}


def _pool_init(work, panel, median_scope, args):
    _POOL_STATE.update(work=work, full=_with_mode(log_returns(panel), median_scope), args=args)


def _pool_run(chunk):
    return list(_POOL_STATE["work"](_POOL_STATE["full"], chunk, *_POOL_STATE["args"]))


def _pool_size(jobs: int, n_chunks: int) -> int:
    """min(jobs, n_chunks, usable cores // BLAS threads), with OpenBLAS's thread count read
    as it reads it: OPENBLAS_NUM_THREADS, else OMP_NUM_THREADS, else the usable cores."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    values = (os.environ.get(var, "").strip() for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"))
    return min(jobs, n_chunks, cores // next((int(v) for v in values if v.isdigit() and int(v) > 0), cores))


def _map_chunks(work, tasks, jobs: int, panel, corr_kind, median_scope, *extra) -> list:
    """work(full, chunk, corr_kind, *extra) over `tasks` cut into jobs * 4 runs in order,
    concatenated; `full` is `_with_mode` of `panel` under `median_scope`. Forked workers keep
    the parent's BLAS threads, so results do not depend on `jobs`, and `_pool_size` workers never
    run more BLAS threads than cores. Below 2 workers, one in-process `work` call takes all `tasks`."""
    k, args = jobs * 4, (corr_kind, *extra)
    chunks = [c for c in (tasks[i * len(tasks) // k : (i + 1) * len(tasks) // k] for i in range(k)) if c]
    workers = _pool_size(jobs, len(chunks))
    if workers < 2:
        return list(work(_with_mode(log_returns(panel), median_scope), tasks, *args))
    logger.debug("process pool of %d workers for %d chunks", workers, len(chunks))
    with ProcessPoolExecutor(max_workers=workers, initializer=_pool_init,
                             initargs=(work, panel, median_scope, args)) as pool:
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
    pool (see `_map_chunks`) gives each worker contiguous runs of end dates.
    """
    _check_kinds(corr_kind, median_scope)
    t_values = list(t_values)
    if not t_values or any(t < 1 for t in t_values) or len(set(t_values)) < len(t_values):
        raise DataError(f"t_values must be distinct positive window lengths, got {t_values}")
    if step < 1:
        raise DataError("step must be at least 1 day")
    tasks = grid_tasks(panel, t_values, step)
    results = _map_chunks(_evaluate, tasks, jobs, panel, corr_kind, median_scope)
    records = [r for _, r in results if isinstance(r, ExperimentRecord)]
    skipped = {"infeasible": 0, "single_class": 0}
    for task, skip in results:
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
    return {
        key: (sd / c, sp / c, c) for key, (sd, sp, c) in sums.items()
    }


def _timeseries_row(sectors, alpha, e, signs, corr, spectrum):
    """A window's row, or why it has none, from `_sweep`'s entry; `spectrum` is its `_leading`."""
    if corr.n < 3:
        return "fewer than 3 surviving assets"
    net = build_svn(signs, alpha=alpha, polarity="positive")
    graph = LabeledGraph(net.adjacency, tuple(sectors[a] for a in net.assets))
    g_value = None
    with suppress(DataError):
        g_value = assortativity(graph) if graph.m >= MIN_LINKS_FOR_ASSORTATIVITY else None
    density = link_density(graph) if graph.n_nodes >= 2 else None
    return {"h": hamiltonian(sign_matrix(corr)), "g": g_value, "density": density,
            "volatility": e["volatility"], "lambda1_frac": max(float(spectrum[0][0]), 0.0)}


def _leading(corr, scores):
    return spectral_summary(corr, k=1)


def _timeseries_chunk(full, tasks, corr_kind, sectors, alpha):
    """Yield (end index, row without its date, or skip message) for `tasks`, swept by end."""
    tasks, row = sorted(tasks, key=lambda task: task[2]), partial(_timeseries_row, sectors, alpha)
    for (_, _, end_idx), e_in, pair in _sweep(full, tasks, corr_kind, 2, _leading, row):
        made = e_in.get("error") or e_in["row"]
        if not isinstance(made, str):
            made["v1_overlap"] = None
            with suppress(DataError):  # a constant eigenvector has no Pearson correlation
                made["v1_overlap"] = None if isinstance(pair, str) else eigvec_overlap(pair[1][1], pair[2][1])
        yield end_idx, made


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
    Rows do not depend on `jobs`. A pool (see `_map_chunks`) cuts the end dates in chain
    order, (end mod window, end), so where the step divides the window a row's out-window
    is the next row's in-window, and each cut costs at most one more window build.
    """
    _check_kinds(corr_kind, median_scope)
    if window < 2 or step < 1:
        raise DataError("timeseries needs a window of at least 2 returns and a step of at least 1")
    ends = sorted(range(window, panel.n_dates, step), key=lambda end: end % window)  # stable: chain order
    tasks, rows = [(window, window, end) for end in ends], []
    results = _map_chunks(_timeseries_chunk, tasks, jobs, panel, corr_kind, median_scope, panel.sectors, alpha)
    for end_idx, made in sorted(results, key=lambda r: r[0]):
        if isinstance(made, str):
            logger.debug("timeseries skips %s: %s", panel.dates[end_idx], made)
            continue
        rows.append({"date": panel.dates[end_idx], **made})
    if len(rows) < len(tasks):
        logger.info("timeseries skipped %d of %d end dates", len(tasks) - len(rows), len(tasks))
    return rows


def h_auc_association(records) -> tuple:
    """(Pearson, Spearman) correlation between auc_delta and out-of-sample balance."""
    if len(records) < 3:
        raise DataError("need at least 3 records")
    aucs = np.array([r.auc_delta for r in records])
    h_out = np.array([r.h_out for r in records])
    pearson = _pearson(aucs, h_out)
    spearman = _pearson(_average_ranks(aucs), _average_ranks(h_out))
    return pearson, spearman
