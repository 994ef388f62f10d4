"""Differential test of the grid's window path against the public primitives.

The reference rebuilds every window from prices, one at a time:
its price rows -> log_returns -> binarize / complete_case -> correlation kernel
-> sign_matrix -> pair_stability and H as -trace(S^3) / (6 C(N,3)), and each
AUC through `roc`. The pipeline instead slices each window out of returns and
a universe market mode computed once per panel, sweeps the grid by end date
and keeps a window's signs, H and score lattices for the pairs whose common
assets are exactly its survivors. Both must agree exactly: records, skip
decisions, datasets and timeseries rows, on panels where every pair reuses
its windows (complete, name-sorted assets), where some do (gaps, sorted
assets) and where none can (assets not in name order).
"""

import logging
from math import comb

import numpy as np
import pytest

from triadnet import experiment, preprocess
from triadnet.balance import eigvec_overlap, pair_stability, spectral_summary
from triadnet.correlation import (
    CORR_KINDS,
    partial_pearson,
    pearson_matrix,
    phi_matrix,
    sign_matrix,
)
from triadnet.errors import DataError
from triadnet.experiment import (
    ExperimentRecord,
    _window,
    build_dataset,
    grid_tasks,
    roc,
    run_grid,
    timeseries_rows,
    window_correlation,
)
from triadnet.graphmetrics import (
    MIN_LINKS_FOR_ASSORTATIVITY,
    LabeledGraph,
    assortativity,
    link_density,
)
from triadnet.ingest import PricePanel
from triadnet.preprocess import (
    MEDIAN_SCOPES,
    BinaryPanel,
    ReturnPanel,
    _survivors,
    _universe_mode,
    _with_mode,
    binarize,
    complete_case,
    log_returns,
    volatility,
)
from triadnet.svn import build_svn

from conftest import forks_blas_threads, make_panel

T_VALUES = [5, 12, 30]
STEP = 4
TS_WINDOW = 20
ALPHA = 0.2
KINDS = [(kind, scope) for kind in CORR_KINDS for scope in MEDIAN_SCOPES]


def block_prices(rng, n, t):
    """Two anti-correlated blocks of geometric random walks."""
    block = np.where(np.arange(n) < n // 2, 1.0, -1.0)
    r = 0.01 * (1.2 * rng.normal(size=(t, 1)) * block + rng.normal(size=(t, n)))
    return 100.0 * np.exp(np.cumsum(r, axis=0))


def labeled_panel(prices, assets):
    return make_panel(prices, assets=assets, sectors={a: f"S{i % 2}" for i, a in enumerate(assets)})


def gappy_panel(seed, n=12, t=80, name_order=False):
    """Two anti-correlated blocks with a constant-price column, late listings,
    scattered missing cells and one date without any price (how a wide CSV
    row of empty cells loads). Assets are not in name order unless `name_order`."""
    rng = np.random.default_rng(seed)
    prices = block_prices(rng, n, t)
    prices[:, 0] = 50.0
    prices[: t // 4, 1] = np.nan
    prices[: t // 2, 2] = np.nan
    prices[rng.random((t, n)) < 0.02] = np.nan
    prices[t - 10] = np.nan
    if name_order:
        return labeled_panel(prices, tuple(f"A{i:02d}" for i in range(n)))
    return labeled_panel(prices, tuple(f"A{7 * i % n}" for i in range(n)))


def complete_panel(seed, n=12, t=80, name_order=True):
    """Every price present; assets in name order, or in reverse name order."""
    prices = block_prices(np.random.default_rng(seed), n, t)
    assets = tuple(f"A{i:02d}" for i in range(n))
    return labeled_panel(prices, assets if name_order else assets[::-1])


def flat_in_one_window_panel(seed=3, n=13, t=90):
    """Complete and name-ordered. Over returns 40-59, the returns of the window ending at
    price row 60, A06's price is flat while six other assets rise and six fall each day,
    so its raw return and its return less the daily median are both 0 there: it leaves
    that window's survivors for every kind and scope, and no other window's."""
    rng = np.random.default_rng(seed)
    r = np.diff(np.log(block_prices(rng, n, t)), axis=0)
    others = np.delete(np.arange(n), 6)
    rises = rng.permuted(np.tile(np.arange(n - 1) < (n - 1) // 2, (20, 1)), axis=1)
    r[40:60, others] = np.where(rises, 1.0, -1.0) * np.abs(r[40:60, others])
    r[40:60, 6] = 0.0
    prices = 100.0 * np.exp(np.vstack([np.zeros(n), np.cumsum(r, axis=0)]))
    return labeled_panel(prices, tuple(f"A{i:02d}" for i in range(n)))


# panels for the grid differential beyond the `panel` fixture's two gappy ones
GRID_PANELS = {
    "complete": lambda: complete_panel(16),
    "complete-not-name-ordered": lambda: complete_panel(16, name_order=False),
    "gappy-name-ordered": lambda: gappy_panel(14, name_order=True),
}


@pytest.fixture(scope="module", params=[14, 15])
def panel(request):
    return gappy_panel(request.param)


def market_mode(returns):
    """Per-date median over the returns present that day; a date with none is an error."""
    counts = returns.present.sum(axis=1)
    if (counts == 0).any():
        bad = returns.dates[int(np.argmin(counts))]
        raise DataError(f"date {bad} has no present returns")
    return _universe_mode(returns)


def ref_returns(panel, end_idx, t):
    """log_returns of the t + 1 price rows ending at end_idx, cut from the prices."""
    assert 0 <= end_idx - t
    rows = slice(end_idx - t, end_idx + 1)
    sub = PricePanel(panel.dates[rows], panel.assets, panel.prices[rows], panel.present[rows], panel.sectors)
    return log_returns(sub)


def ref_survivors(panel, end_idx, t, kind, scope):
    """(window returns, surviving assets, the columns the kernel sees)."""
    rp = ref_returns(panel, end_idx, t)
    cc = complete_case(rp)
    x = cc.returns
    if kind != "partial_pearson":
        med = market_mode(rp) if scope == "universe" else np.median(x, axis=1)
        x = x - med[:, None]
    if kind == "phi":
        x = np.where(x >= 0, 1, -1).astype(np.int8)
    keep = x.max(axis=0) != x.min(axis=0)
    if not keep.any():
        raise DataError("no asset survives constant-column filtering")
    return rp, tuple(a for a, k in zip(cc.assets, keep) if k), x[:, keep]


def ref_corr(rp, assets, x, names, kind):
    x = x[:, [assets.index(a) for a in names]]
    if kind == "phi":
        return phi_matrix(BinaryPanel(rp.dates, names, x))
    sub = ReturnPanel(rp.dates, names, x, np.ones_like(x, dtype=bool))
    return pearson_matrix(sub) if kind == "pearson" else partial_pearson(sub)


def ref_h(s):
    s = s.astype(np.int64)
    return -int(np.trace(s @ s @ s)) / (6 * comb(s.shape[0], 3))


def ref_dataset(panel, end_idx, t_in, t_out, kind, scope):
    r_in, a_in, x_in = ref_survivors(panel, end_idx, t_in, kind, scope)
    r_out, a_out, x_out = ref_survivors(panel, end_idx + t_out, t_out, kind, scope)
    common = tuple(sorted(set(a_in) & set(a_out)))
    if len(common) < 3:
        raise DataError("fewer than 3 common survivors")
    c_in = ref_corr(r_in, a_in, x_in, common, kind)
    s_in = sign_matrix(c_in)
    s_out = sign_matrix(ref_corr(r_out, a_out, x_out, common, kind))
    iu, ju = np.triu_indices(len(common), k=1)
    delta = pair_stability(s_in)
    fields = {
        "assets": common,
        "iu": iu,
        "ju": ju,
        "labels": s_in[iu, ju] != s_out[iu, ju],
        "scores_delta": -delta[iu, ju],
        "scores_absphi": -np.abs(c_in.values[iu, ju]),
    }
    return fields, r_in, (s_in, s_out)


def ref_grid(panel, kind, scope, t_values=T_VALUES):
    """(records in grid order, {task: skip reason}) with reasons 'infeasible'/'single_class'."""
    records, skips = [], {}
    for task in grid_tasks(panel, t_values, STEP):
        t_in, t_out, end_idx = task
        try:
            ds, r_in, (s_in, s_out) = ref_dataset(panel, end_idx, t_in, t_out, kind, scope)
        except DataError:
            skips[task] = "infeasible"
            continue
        labels = ds["labels"]
        if labels.all() or not labels.any():
            skips[task] = "single_class"
            continue
        n = len(ds["assets"])
        records.append(
            ExperimentRecord(
                end_date=panel.dates[end_idx],
                t_in=t_in,
                t_out=t_out,
                q_in=t_in / n,
                q_out=t_out / n,
                auc_delta=roc(labels, ds["scores_delta"]).auc,
                auc_absphi=roc(labels, ds["scores_absphi"]).auc,
                h_in=ref_h(s_in),
                h_out=ref_h(s_out),
                volatility=volatility(r_in),
                n_pairs=len(ds["iu"]),
            )
        )
    records.sort(key=lambda r: (r.t_in, r.t_out, r.end_date))
    return records, skips


def ref_timeseries(panel, kind, scope, step=STEP):
    rows = []
    for end_idx in range(TS_WINDOW, panel.n_dates, step):
        try:
            r_in, a_in, x_in = ref_survivors(panel, end_idx, TS_WINDOW, kind, scope)
            if len(a_in) < 3:
                raise DataError("fewer than 3 surviving assets")
            corr_in = ref_corr(r_in, a_in, x_in, a_in, kind)
            b = binarize(r_in, median_scope=scope)
        except DataError:
            continue
        net = build_svn(b, alpha=ALPHA, polarity="positive")
        graph = LabeledGraph(net.adjacency, tuple(panel.sectors[a] for a in net.assets))
        g = None
        if graph.m >= MIN_LINKS_FOR_ASSORTATIVITY:
            try:
                g = assortativity(graph)
            except DataError:
                pass
        overlap = None
        if end_idx + TS_WINDOW <= panel.n_dates - 1:
            try:
                r_out, a_out, x_out = ref_survivors(
                    panel, end_idx + TS_WINDOW, TS_WINDOW, kind, scope
                )
                common = tuple(sorted(set(a_in) & set(a_out)))
                if len(common) >= 2:
                    v_in = spectral_summary(ref_corr(r_in, a_in, x_in, common, kind), k=1)[1]
                    v_out = spectral_summary(ref_corr(r_out, a_out, x_out, common, kind), k=1)[1]
                    overlap = eigvec_overlap(v_in, v_out)
            except DataError:
                pass
        rows.append(
            {
                "date": panel.dates[end_idx],
                "h": ref_h(sign_matrix(corr_in)),
                "g": g,
                "density": link_density(graph) if len(net.assets) >= 2 else None,
                "volatility": volatility(r_in),
                "lambda1_frac": max(float(spectral_summary(corr_in, k=1)[0][0]), 0.0),
                "v1_overlap": overlap,
            }
        )
    return rows


def assert_grid_matches_reference(panel, kind, scope, caplog, pool_spy):
    """run_grid at jobs 1 and 2 (in a pool of 2) against `ref_grid`; returns the reference."""
    expected, expected_skips = ref_grid(panel, kind, scope)
    counts = {
        reason: sum(r == reason for r in expected_skips.values())
        for reason in ("infeasible", "single_class")
    }
    with caplog.at_level(logging.DEBUG, logger="triadnet.experiment"):
        serial = run_grid(panel, T_VALUES, STEP, kind, scope, jobs=1)
    skips = {  # pool workers log in their own processes, so only the serial run's
        rec.args[:3]: "single_class" if rec.args[3].startswith("single-class") else "infeasible"
        for rec in caplog.records
        if rec.msg.startswith("skipping")
    }
    assert skips == expected_skips
    pooled = run_grid(panel, T_VALUES, STEP, kind, scope, jobs=2)
    assert pool_spy.workers == [2]
    for jobs, (records, skipped) in {1: serial, 2: pooled}.items():
        assert [vars(r) for r in records] == [vars(r) for r in expected], jobs
        assert skipped == counts, jobs
    return expected, expected_skips


@forks_blas_threads
@pytest.mark.parametrize("kind,scope", KINDS)
def test_run_grid_matches_per_window_reference(panel, kind, scope, caplog, pool_spy):
    records, skips = assert_grid_matches_reference(panel, kind, scope, caplog, pool_spy)
    # the panel exercises every branch: records and both kinds of skip
    assert records and set(skips.values()) == {"infeasible", "single_class"}


@forks_blas_threads
@pytest.mark.parametrize("kind,scope", KINDS)
@pytest.mark.parametrize("name", sorted(GRID_PANELS))
def test_run_grid_matches_reference_whether_windows_are_reused_or_not(name, kind, scope, caplog, pool_spy):
    records, _ = assert_grid_matches_reference(GRID_PANELS[name](), kind, scope, caplog, pool_spy)
    assert records


def counted_window_builds(monkeypatch, kind, scope, panel, t_values):
    """Run a serial grid; return (survivor builds per (t, end idx) window, correlations
    by whether they are on a window's own survivors, the distinct windows of the grid)."""
    builds, corrs = {}, {"own survivors": 0, "pair subset": 0}
    survivors, corr_from_data = experiment._survivors, experiment._corr_from_data

    def counted_survivors(returns, mode, *args):
        key = (len(returns.dates), panel.dates.index(returns.dates[-1]))  # (t, end price row)
        builds[key] = builds.get(key, 0) + 1
        return survivors(returns, mode, *args)

    def counted_corr(data, corr_kind, subset=None):
        corrs["own survivors" if subset is None else "pair subset"] += 1
        return corr_from_data(data, corr_kind, subset)

    monkeypatch.setattr(experiment, "_survivors", counted_survivors)
    monkeypatch.setattr(experiment, "_corr_from_data", counted_corr)
    records, _ = run_grid(panel, t_values, STEP, kind, scope)
    assert [vars(r) for r in records] == [vars(r) for r in ref_grid(panel, kind, scope, t_values)[0]]
    tasks = grid_tasks(panel, t_values, STEP)
    windows = {(t_in, end) for t_in, _, end in tasks} | {(t_out, end + t_out) for _, t_out, end in tasks}
    return builds, corrs, windows


@pytest.mark.parametrize("kind,scope", KINDS)
def test_serial_sweep_builds_each_window_once_when_every_pair_reuses_it(monkeypatch, kind, scope):
    """On a complete, name-ordered panel whose windows keep every asset, every
    window is preprocessed and correlated exactly once, however many pairs use it."""
    t_values = [12, 20, 30]
    builds, corrs, windows = counted_window_builds(
        monkeypatch, kind, scope, complete_panel(16), t_values
    )
    assert builds == dict.fromkeys(windows, 1)
    assert corrs == {"own survivors": len(windows), "pair subset": 0}
    assert len(windows) < 2 * len(grid_tasks(complete_panel(16), t_values, STEP))


@pytest.mark.parametrize("kind", ["phi", "pearson"])
def test_serial_sweep_mixes_reused_and_direct_windows_on_gaps(monkeypatch, kind):
    """With gaps, some pairs reuse a window's side and others correlate their
    common assets directly; a window is rebuilt only for such a direct pair."""
    builds, corrs, windows = counted_window_builds(
        monkeypatch, kind, "universe", gappy_panel(14, name_order=True), T_VALUES
    )
    assert set(builds) <= windows  # an out-window is not built when its in-window fails
    assert corrs["own survivors"] > 0 and corrs["pair subset"] > 0
    assert sum(builds.values()) - len(builds) <= corrs["pair subset"]


@pytest.mark.parametrize("kind,scope", KINDS)
def test_build_dataset_matches_per_window_reference(panel, kind, scope):
    t_in, t_out = 12, 5
    compared = 0
    for end_idx in range(t_in, panel.n_dates - t_out):
        try:
            expected = ref_dataset(panel, end_idx, t_in, t_out, kind, scope)[0]
        except DataError:
            with pytest.raises(DataError):
                build_dataset(panel, panel.dates[end_idx], t_in, t_out, kind, scope)
            continue
        ds = build_dataset(panel, panel.dates[end_idx], t_in, t_out, kind, scope)
        for name, value in expected.items():
            got = getattr(ds, name)
            if isinstance(value, np.ndarray):
                assert got.dtype == value.dtype and np.array_equal(got, value), name
            else:
                assert got == value, name
        compared += 1
    assert compared


# the `panel` fixture's gappy panels, GRID_PANELS at a step that divides the window
# (a window's eigenvector is reused as a later row's in-window) and one that does not,
# and a complete panel whose run mixes reused and direct eigenvectors
TIMESERIES_INPUTS = [
    pytest.param(lambda seed=seed: gappy_panel(seed), STEP, id=str(seed)) for seed in (14, 15)
] + [pytest.param(make, step, id=f"{name}-step{step}") for name, make in GRID_PANELS.items() for step in (4, 3)] + [
    pytest.param(flat_in_one_window_panel, STEP, id="flat-in-one-window")
]


@forks_blas_threads
@pytest.mark.parametrize("kind,scope", KINDS)
@pytest.mark.parametrize("make,step", TIMESERIES_INPUTS)
def test_timeseries_rows_match_per_window_reference(make, step, kind, scope, pool_spy):
    """Serial rows and rows from a pool of 2 both equal the reference."""
    panel = make()
    rows = timeseries_rows(panel, TS_WINDOW, step, kind, scope, ALPHA)
    expected = ref_timeseries(panel, kind, scope, step)
    assert rows == expected
    assert timeseries_rows(panel, TS_WINDOW, step, kind, scope, ALPHA, jobs=2) == expected
    assert pool_spy.workers == [2]
    for field in ("g", "density", "v1_overlap"):
        assert any(row[field] for row in rows), field
    gappy = not panel.present.all()
    assert (len(rows) < len(range(TS_WINDOW, panel.n_dates, step))) == gappy  # windows skipped


def count_calls(monkeypatch, module, name, counts):
    """Count the calls of module.name into counts[name]."""
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize("kind,scope", KINDS)
def test_timeseries_mixes_reused_and_direct_eigenvectors_in_one_run(monkeypatch, kind, scope):
    """The window that loses A06 pairs with both neighbours on its own survivors: one
    side of each of those two pairs is correlated on its common assets, and every other
    side reuses the eigenvector of its window's one correlation on its own survivors."""
    panel = flat_in_one_window_panel()
    expected = ref_timeseries(panel, kind, scope)
    corrs = {"own survivors": 0, "pair subset": 0}
    corr_from_data = experiment._corr_from_data

    def counted_corr(data, corr_kind, subset=None):
        corrs["own survivors" if subset is None else "pair subset"] += 1
        return corr_from_data(data, corr_kind, subset)

    monkeypatch.setattr(experiment, "_corr_from_data", counted_corr)
    rows = timeseries_rows(panel, TS_WINDOW, STEP, kind, scope, ALPHA)
    assert rows == expected
    assert corrs == {"own survivors": len(rows), "pair subset": 2}
    assert len(rows) == len(range(TS_WINDOW, panel.n_dates, STEP))


@pytest.mark.parametrize("kind,scope", KINDS)
def test_timeseries_builds_each_window_once_when_step_is_the_window(monkeypatch, kind, scope):
    """At step = window a row's out-window is the next row's in-window. On a complete
    panel each window is complete-cased once (a non-phi kind's network takes its phi
    signs from the same complete case) and takes one eigh (partial Pearson's kernel
    takes one more), which gives its lambda1_frac and its side of both overlaps it enters."""
    panel = complete_panel(16)
    expected = ref_timeseries(panel, kind, scope, TS_WINDOW)
    calls = {}
    count_calls(monkeypatch, np.linalg, "eigh", calls)
    count_calls(monkeypatch, preprocess, "complete_case", calls)
    rows = timeseries_rows(panel, TS_WINDOW, TS_WINDOW, kind, scope, ALPHA)
    assert rows == expected
    windows = len(range(TS_WINDOW, panel.n_dates, TS_WINDOW))
    assert calls == {
        "eigh": windows * (2 if kind == "partial_pearson" else 1),
        "complete_case": windows,
    }
    assert sum(row["v1_overlap"] is not None for row in rows) == windows - 1


def test_timeseries_raises_what_its_network_raises():
    """Only preprocessing skips a row; a bad alpha fails the call, as it did row by row."""
    with pytest.raises(DataError, match="alpha"):
        timeseries_rows(complete_panel(16), TS_WINDOW, STEP, alpha=1.5)


@forks_blas_threads
def test_pooled_timeseries_raises_what_a_worker_raises(pool_spy):
    with pytest.raises(DataError, match="alpha"):
        timeseries_rows(complete_panel(16), TS_WINDOW, STEP, alpha=1.5, jobs=2)
    assert pool_spy.workers == [2]


@forks_blas_threads
@pytest.mark.parametrize("kind", CORR_KINDS)
def test_pooled_timeseries_builds_at_most_one_more_window_per_cut(tmp_path, monkeypatch, pool_spy, kind):
    """With the step dividing the window, chain order puts a row's out-window, the next
    row's in-window, in the same chunk but at a cut. `_survivors` calls, counted through a
    file across the forked workers, exceed the serial count by at most one per cut; runs
    of contiguous end dates would build most out-windows twice."""
    log = tmp_path / "survivors.log"
    survivors = experiment._survivors

    def logged(*args):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(".\n")
        return survivors(*args)

    def calls(jobs):
        log.write_text("", encoding="utf-8")
        rows = timeseries_rows(panel, TS_WINDOW, STEP, kind, "universe", ALPHA, jobs=jobs)
        return rows, len(log.read_text(encoding="utf-8").splitlines())

    monkeypatch.setattr(experiment, "_survivors", logged)
    panel = complete_panel(16)
    assert TS_WINDOW % STEP == 0
    (serial, n_serial), (pooled, n_pooled) = calls(1), calls(2)
    assert pooled == serial and pool_spy.workers == [2]
    assert n_serial < n_pooled <= n_serial + pool_spy.chunks[0] - 1


@pytest.mark.parametrize("kind", CORR_KINDS)
def test_window_scope_never_takes_the_universe_median(monkeypatch, kind):
    def refuse(returns):
        raise AssertionError("universe median taken under median_scope 'window'")

    monkeypatch.setattr(preprocess, "_universe_mode", refuse)
    panel = complete_panel(16)
    assert run_grid(panel, T_VALUES, STEP, kind, "window")[0]
    assert timeseries_rows(panel, TS_WINDOW, STEP, kind, "window", ALPHA)
    assert build_dataset(panel, panel.dates[20], 12, 5, kind, "window").n_pairs
    assert window_correlation(log_returns(panel), kind, "window").n


def two_common_asset_panel(seed=5, t=41):
    """An anti-correlated pair A, B priced throughout; C, D priced only up to price row
    TS_WINDOW and E, F only from it. The window ending there keeps A-D, the next one
    A, B, E, F: they share exactly A and B."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=t)
    r = 0.01 * np.column_stack([a, 0.3 * rng.normal(size=t) - a, rng.normal(size=(t, 4))])
    prices = 100.0 * np.exp(np.cumsum(r, axis=0))
    prices[TS_WINDOW + 1 :, 2:4] = np.nan
    prices[:TS_WINDOW, 4:] = np.nan
    return labeled_panel(prices, ("A", "B", "C", "D", "E", "F"))


@pytest.mark.parametrize("kind,scope", KINDS)
def test_v1_overlap_needs_two_common_assets_where_a_grid_pair_needs_three(kind, scope):
    """Both windows' leading eigenvectors on an anti-correlated pair are (1, -1)/sqrt 2
    up to sign, so the overlap is 1. Partial Pearson removes that mode and leaves a
    constant eigenvector, whose overlap is undefined."""
    panel = two_common_asset_panel()
    rows = timeseries_rows(panel, TS_WINDOW, STEP, kind, scope, ALPHA)
    assert rows == ref_timeseries(panel, kind, scope)
    assert rows[0]["date"] == panel.dates[TS_WINDOW]
    overlap = rows[0]["v1_overlap"]
    assert overlap is None if kind == "partial_pearson" else overlap == pytest.approx(1.0, abs=1e-12)
    assert run_grid(panel, [TS_WINDOW], STEP, kind, scope) == ([], {"infeasible": 1, "single_class": 0})


def test_timeseries_logs_its_skipped_end_dates_once(caplog):
    ends = len(range(TS_WINDOW, gappy_panel(14).n_dates, STEP))
    with caplog.at_level(logging.INFO, logger="triadnet.experiment"):
        rows = timeseries_rows(gappy_panel(14), TS_WINDOW, STEP, alpha=ALPHA)
        timeseries_rows(complete_panel(16), TS_WINDOW, STEP, alpha=ALPHA)
    info = [rec for rec in caplog.records if rec.levelno == logging.INFO]
    assert [rec.getMessage() for rec in info] == [
        f"timeseries skipped {ends - len(rows)} of {ends} end dates"
    ]
    assert len(rows) < ends


@pytest.mark.parametrize("kind", ["phi", "pearson"])
def test_panel_market_mode_slices_match_per_window_reference(panel, kind):
    """The universe market mode is computed once per panel, NaN on the dates
    without returns; every window's survivor data from its slice equals
    the per-window reference, and windows over that date are infeasible."""
    full = _with_mode(log_returns(panel), "universe")
    assert np.isnan(full[1][0]).any()
    outcomes = set()
    for end_idx in range(TS_WINDOW, panel.n_dates):
        w = _window(full, end_idx, TS_WINDOW)
        try:
            rp, assets, x = ref_survivors(panel, end_idx, TS_WINDOW, kind, "universe")
        except DataError:
            with pytest.raises(DataError):
                _survivors(*w, kind)
            outcomes.add("infeasible")
            continue
        dates, got_assets, got_x = _survivors(*w, kind)
        assert dates == rp.dates and got_assets == assets
        assert got_x.dtype == x.dtype and np.array_equal(got_x, x)
        outcomes.add("compared")
    assert outcomes == {"infeasible", "compared"}


@pytest.mark.parametrize(
    "make,failures",
    [
        (lambda: gappy_panel(14), {"no asset survives complete-case filtering",
                                   "no asset survives constant-column filtering"}),
        (flat_in_one_window_panel, {"no asset survives constant-column filtering"}),
    ],
    ids=["gappy", "flat-in-one-window"],
)
@pytest.mark.parametrize("scope", MEDIAN_SCOPES)
def test_panel_sign_arrays_give_every_window_its_per_window_phi_survivors(make, failures, scope):
    """Under the universe scope a phi window's columns are one gather from the panel's
    sign array; under the window scope they are the signs of its survivors' partial
    returns. For every (t, end) window, t = 1 included, dates, assets and int8 columns
    equal the per-window reference byte for byte under both scopes, and a window the
    reference rejects (a date with no returns, so no complete-case asset; every column
    flat) raises the same message."""
    panel = make()
    full = _with_mode(log_returns(panel), scope)
    messages, compared = set(), 0
    for t in range(1, panel.n_dates):
        for end_idx in range(t, panel.n_dates):
            w = _window(full, end_idx, t)
            try:
                rp, assets, x = ref_survivors(panel, end_idx, t, "phi", scope)
            except DataError as exc:
                with pytest.raises(DataError) as raised:
                    _survivors(*w, "phi")
                assert str(raised.value) == str(exc), (t, end_idx)
                messages.add(str(exc))
                continue
            dates, got_assets, got_x = _survivors(*w, "phi")
            assert (dates, got_assets) == (rp.dates, assets), (t, end_idx)
            assert (got_x.dtype, got_x.shape) == (x.dtype, x.shape), (t, end_idx)
            assert got_x.tobytes() == x.tobytes(), (t, end_idx)
            compared += 1
    assert messages == failures and compared > 1000
    if make is flat_in_one_window_panel:  # A06's flat column leaves the window of returns 40-59
        assert "A06" not in _survivors(*_window(full, 60, 20), "phi")[1]


@pytest.mark.parametrize("scope", MEDIAN_SCOPES)
def test_a_window_that_does_not_fit_in_the_returns_is_a_data_error(scope):
    """`_window` refuses a window that starts before the first return or ends after the
    last one, instead of cutting a short or empty one; the windows at both edges fit."""
    panel = complete_panel(16)
    full = _with_mode(log_returns(panel), scope)
    n = panel.n_dates - 1  # returns
    for end_idx, t in ((5, 10), (0, 2), (n + 1, 10), (n + 10, 2)):
        with pytest.raises(DataError, match="insufficient history"):
            _window(full, end_idx, t)
    with pytest.raises(DataError, match=f"need 10 returns ending {panel.dates[5]}, have 5"):
        _window(full, 5, 10)
    first, last = _window(full, 10, 10)[0], _window(full, n, 10)[0]
    assert (first.dates[0], last.dates[-1]) == (panel.dates[1], panel.dates[-1])


@pytest.mark.parametrize("kind,scope", [("spearman", "universe"), ("phi", "global")])
def test_unknown_kind_or_scope_rejected_before_any_window(kind, scope):
    panel = gappy_panel(14)
    bad = kind if kind not in CORR_KINDS else scope
    with pytest.raises(DataError, match=bad):
        run_grid(panel, T_VALUES, STEP, corr_kind=kind, median_scope=scope)
    with pytest.raises(DataError, match=bad):
        timeseries_rows(panel, TS_WINDOW, STEP, kind, scope)
    with pytest.raises(DataError, match=bad):
        build_dataset(panel, panel.dates[20], 12, 5, kind, scope)
    with pytest.raises(DataError, match=bad):
        window_correlation(log_returns(panel), kind, scope)
