"""Out-of-sample prediction of correlation-sign changes.

For an in-sample window ending at some date and a contiguous out-of-sample
window starting the next trading day, the sign matrix of each window is
computed independently on the assets that survive preprocessing in both.
Pairs whose sign switches form the positive class; the in-sample pair
stability score and the in-sample absolute correlation (both negated, so
higher means "more likely to switch") are the competing discriminators,
compared by ROC/AUC over rolling windows and a grid of window lengths.
"""

from __future__ import annotations

import logging
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

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
    _universe_mode,
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


def _with_mode(returns: ReturnPanel):
    """(returns, universe market mode): the per-panel arrays every window slices."""
    return returns, _universe_mode(returns)


def _window(full, end_idx: int, t: int):
    """(returns, universe market mode) of the t returns ending at price row end_idx (>= t)."""
    r, mode = full
    rows = slice(end_idx - t, end_idx)
    return ReturnPanel(r.dates[rows], r.assets, r.returns[rows], r.present[rows]), mode[rows]


def _corr_from_data(data, corr_kind: str, subset=None) -> CorrMatrix:
    """Correlation matrix of a window's survivor data, on `subset` of its assets if given."""
    dates, assets, x = data
    if subset is not None:
        pos = {a: i for i, a in enumerate(assets)}
        x = x[:, [pos[a] for a in subset]]
        assets = subset
    if corr_kind == "phi":
        return phi_matrix(BinaryPanel(dates, assets, x))
    rp = ReturnPanel(dates, assets, x, np.ones_like(x, dtype=bool))
    if corr_kind == "pearson":
        return pearson_matrix(rp)
    return partial_pearson(rp)


def _common_corrs(data_in, data_out, corr_kind: str, need: int):
    """Name-sorted assets surviving both windows and each window's correlations on them."""
    common = tuple(sorted(set(data_in[1]) & set(data_out[1])))
    if len(common) < need:
        raise DataError(f"only {len(common)} assets survive both windows (need {need})")
    return (
        common,
        _corr_from_data(data_in, corr_kind, common),
        _corr_from_data(data_out, corr_kind, common),
    )


def window_correlation(
    returns: ReturnPanel, corr_kind: str = "phi", median_scope: str = "universe"
) -> CorrMatrix:
    """Correlation matrix of one window, restricted to its surviving assets."""
    _check_kinds(corr_kind, median_scope)
    return _corr_from_data(_survivors(*_with_mode(returns), corr_kind, median_scope), corr_kind)


def _dataset(w_in, w_out, corr_kind: str, median_scope: str):
    """(sign-switch dataset, in-sample H, out-of-sample sign matrix); one S^2
    product of the in-window gives both H and pair stability."""
    common, corr_in, corr_out = _common_corrs(
        _survivors(*w_in, corr_kind, median_scope),
        _survivors(*w_out, corr_kind, median_scope),
        corr_kind,
        3,
    )
    s_in, s_out = sign_matrix(corr_in), sign_matrix(corr_out)
    iu, ju = np.triu_indices(len(common), k=1)
    products = _triad_products(s_in)
    dataset = SignChangeDataset(
        assets=common,
        iu=iu,
        ju=ju,
        labels=s_in[iu, ju] != s_out[iu, ju],
        scores_delta=-(products[iu, ju] / (len(common) - 2)),
        scores_absphi=-np.abs(corr_in.values[iu, ju]),
    )
    return dataset, _balance_index(products), s_out


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
    full = _with_mode(log_returns(panel))
    w_in, w_out = _window(full, end_idx, t_in), _window(full, end_idx + t_out, t_out)
    return _dataset(w_in, w_out, corr_kind, median_scope)[0]


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


# Worker state for process pools: the panel is shipped once per worker and its
# returns and universe market mode are computed there once; every window is a
# row slice of them. A serial run keeps them local instead.
_GRID_STATE = {}


def _grid_init(panel, corr_kind, median_scope):
    _GRID_STATE.update(full=_with_mode(log_returns(panel)), kinds=(corr_kind, median_scope))


def _evaluate_window(full, t_in, t_out, end_idx, corr_kind, median_scope):
    """One grid cell: (record, None), or (None, ("infeasible" | "single_class", message))."""
    w_in, w_out = _window(full, end_idx, t_in), _window(full, end_idx + t_out, t_out)
    try:
        ds, h_in, s_out = _dataset(w_in, w_out, corr_kind, median_scope)
    except DataError as exc:
        return None, ("infeasible", f"window infeasible: {exc}")
    if ds.labels.all() or not ds.labels.any():
        return None, ("single_class", "single-class window (no switch variation)")
    n = len(ds.assets)
    record = ExperimentRecord(
        end_date=full[0].dates[end_idx - 1],
        t_in=t_in,
        t_out=t_out,
        q_in=t_in / n,
        q_out=t_out / n,
        auc_delta=auc(ds.labels, ds.scores_delta),
        auc_absphi=auc(ds.labels, ds.scores_absphi),
        h_in=h_in,
        h_out=hamiltonian(s_out),
        volatility=volatility(w_in[0]),
        n_pairs=ds.n_pairs,
    )
    return record, None


def _grid_task(task):
    return task, _evaluate_window(_GRID_STATE["full"], *task, *_GRID_STATE["kinds"])


def grid_tasks(panel: PricePanel, t_values, step: int):
    """All feasible (t_in, t_out, end index) combinations, in deterministic order."""
    tasks = []
    for t_in in t_values:
        for t_out in t_values:
            for end_idx in range(t_in, panel.n_dates - t_out, step):
                tasks.append((t_in, t_out, end_idx))
    return tasks


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
    regardless of the degree of parallelism.
    """
    _check_kinds(corr_kind, median_scope)
    t_values = list(t_values)
    if not t_values or any(t < 1 for t in t_values) or len(set(t_values)) < len(t_values):
        raise DataError(f"t_values must be distinct positive window lengths, got {t_values}")
    if step < 1:
        raise DataError("step must be at least 1 day")
    tasks = grid_tasks(panel, t_values, step)
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(
            max_workers=jobs,
            initializer=_grid_init,
            initargs=(panel, corr_kind, median_scope),
        ) as pool:
            chunk = max(1, len(tasks) // (jobs * 8))
            results = list(pool.map(_grid_task, tasks, chunksize=chunk))
    else:
        full = _with_mode(log_returns(panel))
        results = [(t, _evaluate_window(full, *t, corr_kind, median_scope)) for t in tasks]
    records = []
    skipped = {"infeasible": 0, "single_class": 0}
    for task, (record, skip) in results:
        if record is None:
            skipped[skip[0]] += 1
            logger.debug("skipping t_in=%d t_out=%d end_idx=%d: %s", *task, skip[1])
        else:
            records.append(record)
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


def timeseries_rows(
    panel: PricePanel,
    window: int,
    step: int = 1,
    corr_kind: str = "phi",
    median_scope: str = "universe",
    alpha: float = 0.1,
) -> list:
    """Rolling per-date diagnostics for one window length.

    Each row carries the balance index, the positive-network assortativity
    (null below 10 links) and density, the window volatility, the leading
    eigenvalue fraction, and the leading-eigenvector overlap with the next
    (out-of-sample) window of the same length where one exists.
    """
    _check_kinds(corr_kind, median_scope)
    if window < 2 or step < 1:
        raise DataError("timeseries needs a window of at least 2 returns and a step of at least 1")
    full = _with_mode(log_returns(panel))
    rows = []
    for end_idx in range(window, panel.n_dates, step):
        try:
            w_in = _window(full, end_idx, window)
            data_in = _survivors(*w_in, corr_kind, median_scope)
            if len(data_in[1]) < 3:
                raise DataError("fewer than 3 surviving assets")
            corr_in = _corr_from_data(data_in, corr_kind)
            signs = data_in if corr_kind == "phi" else _survivors(*w_in, "phi", median_scope)
            b = BinaryPanel(*signs)
        except DataError as exc:
            logger.debug("timeseries skips %s: %s", panel.dates[end_idx], exc)
            continue
        net = build_svn(b, alpha=alpha, polarity="positive")
        graph = LabeledGraph(net.adjacency, tuple(panel.sectors[a] for a in net.assets))
        g_value = None
        if graph.m >= MIN_LINKS_FOR_ASSORTATIVITY:
            try:
                g_value = assortativity(graph)
            except DataError:
                g_value = None
        fracs, _ = spectral_summary(corr_in, k=1)
        overlap = None
        if end_idx + window <= panel.n_dates - 1:
            try:
                w_out = _window(full, end_idx + window, window)
                _, c_in, c_out = _common_corrs(
                    data_in, _survivors(*w_out, corr_kind, median_scope), corr_kind, 2
                )
                overlap = eigvec_overlap(
                    spectral_summary(c_in, k=1)[1], spectral_summary(c_out, k=1)[1]
                )
            except DataError:
                pass
        rows.append(
            {
                "date": panel.dates[end_idx],
                "h": hamiltonian(sign_matrix(corr_in)),
                "g": g_value,
                "density": link_density(graph) if graph.n_nodes >= 2 else None,
                "volatility": volatility(w_in[0]),
                "lambda1_frac": max(float(fracs[0]), 0.0),
                "v1_overlap": overlap,
            }
        )
    return rows


def h_auc_association(records) -> tuple:
    """(Pearson, Spearman) correlation between auc_delta and out-of-sample balance."""
    if len(records) < 3:
        raise DataError("need at least 3 records")
    auc = np.array([r.auc_delta for r in records])
    h_out = np.array([r.h_out for r in records])
    pearson = _pearson(auc, h_out)
    spearman = _pearson(_average_ranks(auc), _average_ranks(h_out))
    return pearson, spearman
