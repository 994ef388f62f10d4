"""Differential test of the grid's window path against the public primitives.

The reference rebuilds every window from prices, one at a time:
its price rows -> log_returns -> binarize / complete_case -> correlation kernel
-> sign_matrix -> pair_stability and H as -trace(S^3) / (6 C(N,3)), and each
AUC through `roc`. The pipeline instead slices each window out of returns and
a universe market mode computed once per panel, sweeps the grid by end date
and keeps a window's signs, H and score lattices for the pairs whose common
assets, the in-window's survivors that survive the out-window too in panel
order, are exactly its survivors. Both must agree exactly: records, skip
decisions, datasets and timeseries rows, on panels where every pair reuses
its windows (complete, in either asset order) and where some do (gaps).
"""

import logging
import weakref
from functools import partial
from itertools import compress
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
    return returns_panel(r)


def returns_panel(r):
    """Complete and name-ordered, with log returns r up to rounding."""
    prices = 100.0 * np.exp(np.vstack([np.zeros(r.shape[1]), np.cumsum(r, axis=0)]))
    return labeled_panel(prices, tuple(f"A{i:02d}" for i in range(r.shape[1])))


def hadamard_panel(seed=4):
    """3 assets whose first 8 returns repeat columns 2-4 of the 4 x 4 Hadamard matrix, times 0.01:
    over any 4 consecutive ones each column has zero mean and the columns are orthogonal, so a
    window of 4 there has the identity as its Pearson matrix, a spectrum partial Pearson
    refuses. The last 8 returns are random, and every window that reaches them keeps 3 assets."""
    h = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]], dtype=float)[:, 1:]
    random = np.random.default_rng(seed).normal(size=(8, 3))
    return returns_panel(0.01 * np.vstack([np.tile(h, (2, 1)), random]))


def ordered_panel(seed=4):
    """3 assets whose first 8 returns keep one order, A00 above A01 above A02, by gaps that
    vary: A01 is each day's median under either scope, so a window of 4 there has no asset
    whose phi sign changes, while A00 and A02 vary in their raw and partial returns. The last
    8 returns are random, and every window that reaches them keeps 3 assets."""
    rng = np.random.default_rng(seed)
    b, gaps = rng.normal(size=8), 0.5 + rng.random((8, 2))
    ordered = np.column_stack([b + gaps[:, 0], b, b - gaps[:, 1]])
    return returns_panel(0.01 * np.vstack([ordered, rng.normal(size=(8, 3))]))


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
    """Per-date median over the returns that are not NaN that day; a date with none is an error."""
    counts = (~np.isnan(returns.returns)).sum(axis=1)
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
    sub = ReturnPanel(rp.dates, names, x)
    return pearson_matrix(sub) if kind == "pearson" else partial_pearson(sub)


def ref_h(s):
    s = s.astype(np.int64)
    return -int(np.trace(s @ s @ s)) / (6 * comb(s.shape[0], 3))


def ref_dataset(panel, end_idx, t_in, t_out, kind, scope):
    r_in, a_in, x_in = ref_survivors(panel, end_idx, t_in, kind, scope)
    r_out, a_out, x_out = ref_survivors(panel, end_idx + t_out, t_out, kind, scope)
    common = tuple(a for a in a_in if a in a_out)
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


def ref_timeseries(panel, kind, scope, step=STEP, window=TS_WINDOW):
    rows = []
    for end_idx in range(window, panel.n_dates, step):
        try:
            r_in, a_in, x_in = ref_survivors(panel, end_idx, window, kind, scope)
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
        if end_idx + window <= panel.n_dates - 1:
            try:
                r_out, a_out, x_out = ref_survivors(panel, end_idx + window, window, kind, scope)
                common = tuple(a for a in a_in if a in a_out)
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


def window_key(panel, dates):
    return len(dates), panel.dates.index(dates[-1])  # (t, end price row)


def spy_window_builds(monkeypatch, panel):
    """Count `_survivors` builds per (t, end price row) window into `builds`, and the window
    products into `products` by whether they are on a window's own survivors or on a pair
    subset of them: every product is made from one call of its window's gather."""
    builds, products = {}, {"own survivors": 0, "pair subset": 0}
    survivors = experiment._survivors

    def counted_survivors(returns, mode, *args):
        key = window_key(panel, returns.dates)
        builds[key] = builds.get(key, 0) + 1
        data, own, cut = survivors(returns, mode, *args)

        def counted_cut(mask, assets):
            products["own survivors" if np.array_equal(mask, own) else "pair subset"] += 1
            return cut(mask, assets)

        return data, own, counted_cut

    monkeypatch.setattr(experiment, "_survivors", counted_survivors)
    return builds, products


def task_windows(tasks):
    """The distinct (t, end price row) windows that `tasks` name."""
    return {(t_in, end) for t_in, _, end in tasks} | {(t_out, end + t_out) for _, t_out, end in tasks}


def counted_window_builds(monkeypatch, kind, scope, panel, t_values):
    """Run a serial grid; return (survivor builds per (t, end idx) window, window products
    by whether they are on a window's own survivors, the distinct windows of the grid)."""
    builds, products = spy_window_builds(monkeypatch, panel)
    records, _ = run_grid(panel, t_values, STEP, kind, scope)
    assert [vars(r) for r in records] == [vars(r) for r in ref_grid(panel, kind, scope, t_values)[0]]
    return builds, products, task_windows(grid_tasks(panel, t_values, STEP))


@pytest.mark.parametrize("kind,scope", KINDS)
@pytest.mark.parametrize("name_order", [True, False], ids=["name-ordered", "not-name-ordered"])
def test_serial_sweep_builds_each_window_once_when_every_pair_reuses_it(monkeypatch, kind, scope, name_order):
    """On a complete panel whose windows keep every asset, in name order or not, every
    window is preprocessed once and gets exactly one product (signs, H and, as an
    in-window, both score lattices), however many pairs use it."""
    t_values, panel = [12, 20, 30], complete_panel(16, name_order=name_order)
    builds, products, windows = counted_window_builds(monkeypatch, kind, scope, panel, t_values)
    assert builds == dict.fromkeys(windows, 1)
    assert products == {"own survivors": len(windows), "pair subset": 0}
    assert len(windows) < 2 * len(grid_tasks(panel, t_values, STEP))


@pytest.mark.parametrize("kind", ["phi", "pearson"])
def test_serial_sweep_mixes_reused_and_direct_windows_on_gaps(monkeypatch, kind):
    """With gaps, some pairs reuse a window's side and others gather their common assets
    from the window's rows; either way each window is preprocessed once."""
    builds, products, windows = counted_window_builds(
        monkeypatch, kind, "universe", gappy_panel(14, name_order=True), T_VALUES
    )
    assert set(builds) <= windows  # an out-window is not built when its in-window fails
    assert products["own survivors"] > 0 and products["pair subset"] > 0
    assert builds == dict.fromkeys(builds, 1)


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
    _, products = spy_window_builds(monkeypatch, panel)
    rows = timeseries_rows(panel, TS_WINDOW, STEP, kind, scope, ALPHA)
    assert rows == expected
    assert products == {"own survivors": len(rows), "pair subset": 2}
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


def last_tasks(tasks):
    """(t, end idx) window -> the index of the last of `tasks` that names it."""
    last = {}
    for i, (t_in, t_out, end) in enumerate(tasks):
        last[t_in, end] = last[t_out, end + t_out] = i
    return last


@pytest.mark.parametrize("kind", CORR_KINDS)
def test_sweep_keeps_each_window_until_its_last_task_in_any_order(monkeypatch, kind):
    """On a shuffled task list over a gappy panel, each window is preprocessed once, and
    when the sweep hands a task to its outcome, every product of a window whose last task
    came before it is freed: no entry outlives its last task, whatever the order. Nor does
    the sweep hold the last task's pair while it builds the next task's windows."""
    panel = gappy_panel(14)
    full = _with_mode(log_returns(panel), "universe")
    tasks = grid_tasks(panel, T_VALUES, STEP)
    np.random.default_rng(5).shuffle(tasks)
    last, products, done = last_tasks(tasks), [], [-1]

    class Product:
        pass

    def make(data, corr_kind, scores):
        product = Product()
        products.append((window_key(panel, data[0]), weakref.ref(product)))
        return product

    builds, _ = spy_window_builds(monkeypatch, panel)
    counted = experiment._survivors

    def checked(*args):  # at each window build, no product of a finished window is alive
        assert not [key for key, ref in products if last[key] <= done[0] and ref() is not None], done[0]
        return counted(*args)

    monkeypatch.setattr(experiment, "_survivors", checked)

    def outcome(task, e_in, pair):
        i = done[0] + 1
        assert task == tasks[i]
        assert not [key for key, ref in products if last[key] < i and ref() is not None], i
        done[0] = i
        return task

    assert experiment._sweep(full, tasks, kind, make, outcome) == tasks
    assert builds == dict.fromkeys(builds, 1) and len(builds) > 50
    assert all(ref() is None for _, ref in products)
    assert sum(last[key] < len(tasks) - 1 for key, _ in products) > 50
    grid = partial(experiment._grid_outcome, full[0].dates)
    records = [dict(zip(order, experiment._sweep(full, order, kind, experiment._side, grid)))
               for order in (tasks, grid_tasks(panel, T_VALUES, STEP))]
    assert records[0] == records[1]


@pytest.mark.parametrize("kind", CORR_KINDS)
def test_grid_holds_no_finished_window_while_it_builds_the_next(monkeypatch, kind):
    """The grid's sweep drops a task's entry and pair, after its outcome, before the next
    task's windows are built: at each build, every window whose last task came before the first
    task that names the new one has freed its survivors' mask."""
    panel = gappy_panel(14)
    tasks = grid_tasks(panel, T_VALUES, STEP)
    last, first, masks = last_tasks(tasks), {}, []
    for i, (t_in, t_out, end) in reversed(list(enumerate(tasks))):
        first[t_in, end] = first[t_out, end + t_out] = i
    survivors = experiment._survivors

    def tracked(returns, *args):
        key = window_key(panel, returns.dates)
        assert not [k for k, ref in masks if last[k] < first[key] and ref() is not None], key
        data, mask, cut = survivors(returns, *args)
        masks.append((key, weakref.ref(mask)))
        return data, mask, cut

    monkeypatch.setattr(experiment, "_survivors", tracked)
    assert run_grid(panel, T_VALUES, STEP, kind)[0] and len(masks) > 50


@pytest.mark.parametrize("kind", CORR_KINDS)
@pytest.mark.parametrize("step", [STEP, 3], ids=["step-divides-window", "step-does-not"])
def test_timeseries_sweeps_in_chain_order_and_holds_at_most_two_windows(monkeypatch, kind, step):
    """`timeseries_rows` hands its sweep the end dates in chain order, unsorted, and a sweep
    in that order holds at most two windows: when a window is built, the survivors or
    products of at most one other are alive, through `timeseries_rows` as through a sweep
    called directly, so the sweep keeps neither the last task's entry nor its pair. Swept
    by end date instead, with the step dividing the window, a row's out-window waits
    window / step rows for its own row, and that many are alive."""
    panel, sweep = gappy_panel(14), experiment._sweep
    ends = range(TS_WINDOW, panel.n_dates, step)
    chain = [(TS_WINDOW, TS_WINDOW, end) for end in sorted(ends, key=lambda end: end % TS_WINDOW)]
    swept = []

    def spy(full, tasks, *args):
        swept.append(list(tasks))
        return sweep(full, tasks, *args)

    monkeypatch.setattr(experiment, "_sweep", spy)
    rows = timeseries_rows(panel, TS_WINDOW, step, kind, "universe", ALPHA)
    assert rows == ref_timeseries(panel, kind, "universe", step)
    assert swept == [chain]

    survivors, leading, masks, held = experiment._survivors, experiment._leading, [], []

    def tracked(returns, *args):
        key = window_key(panel, returns.dates)
        held.append(len({k for k, ref in masks if k != key and ref() is not None}))
        data, mask, cut = survivors(returns, *args)
        masks.append((key, weakref.ref(mask)))
        return data, mask, cut

    def product(data, *args):  # a window's products, a pair's too, count as that window held
        made = leading(data, *args)
        masks.append((window_key(panel, data[0]), weakref.ref(made[2])))
        return made

    monkeypatch.setattr(experiment, "_survivors", tracked)
    monkeypatch.setattr(experiment, "_leading", product)
    assert timeseries_rows(panel, TS_WINDOW, step, kind, "universe", ALPHA) == rows
    assert max(held) == 1
    held.clear()
    full = _with_mode(log_returns(panel), "universe")
    args = kind, experiment._leading, experiment._timeseries_outcome
    row = partial(experiment._timeseries_row, panel.sectors, ALPHA)
    sweep(full, chain, *args, row)
    assert max(held) == 1
    held.clear()  # by end date, each window that is a later in-window stays until then
    sweep(full, sorted(chain), *args, row)
    assert max(held) == (TS_WINDOW // step if TS_WINDOW % step == 0 else 1)


def failing_network(*args, **kwargs):
    raise DataError("the network failed")


def test_timeseries_raises_what_its_network_raises(monkeypatch):
    """Only preprocessing skips a row; a network's DataError fails the call."""
    monkeypatch.setattr(experiment, "build_svn", failing_network)
    with pytest.raises(DataError, match="the network failed"):
        timeseries_rows(complete_panel(16), TS_WINDOW, STEP)


@forks_blas_threads
def test_pooled_timeseries_raises_what_a_worker_raises(pool_spy, monkeypatch):
    monkeypatch.setattr(experiment, "build_svn", failing_network)  # forked workers inherit it
    with pytest.raises(DataError, match="the network failed"):
        timeseries_rows(complete_panel(16), TS_WINDOW, STEP, jobs=2)
    assert pool_spy.workers == [2]


@pytest.fixture
def count_survivors(tmp_path, monkeypatch):
    """counted(fn, *args, **kwargs) -> (fn's result, the `_survivors` calls it made), counted
    through a file, so the calls of forked pool workers count too."""
    log = tmp_path / "survivors.log"
    survivors = experiment._survivors

    def logged(*args):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(".\n")
        return survivors(*args)

    def counted(fn, *args, **kwargs):
        log.write_text("", encoding="utf-8")
        result = fn(*args, **kwargs)
        return result, len(log.read_text(encoding="utf-8").splitlines())

    monkeypatch.setattr(experiment, "_survivors", logged)
    return counted


@forks_blas_threads
@pytest.mark.parametrize("kind", CORR_KINDS)
def test_pooled_timeseries_builds_at_most_one_more_window_per_cut(count_survivors, pool_spy, kind):
    """With the step dividing the window, chain order puts a row's out-window, the next
    row's in-window, in the same run. The one cut between 2 workers falls inside a chain,
    so the second worker builds that window again: one build more than serially. Runs of
    contiguous end dates would build most out-windows twice."""
    panel = complete_panel(16)
    assert TS_WINDOW % STEP == 0
    args = panel, TS_WINDOW, STEP, kind, "universe", ALPHA
    (serial, n_serial), (pooled, n_pooled) = (count_survivors(timeseries_rows, *args, jobs=j) for j in (1, 2))
    assert pooled == serial and pool_spy.workers == [2] and pool_spy.chunks == [2]
    assert n_pooled == n_serial + 1


@forks_blas_threads
def test_pooled_grid_cuts_one_run_per_worker_whatever_jobs(count_survivors, pool_spy):
    """At step 1 neighbouring end dates share most windows. Jobs 2 and 1000 both start 2
    workers, each sweeping one contiguous run of end dates, so both build each window once
    plus, once more, each window that tasks on both sides of the cut name. Cutting a run
    per task would build a window once for every task that names it."""
    panel, t_values = complete_panel(16), [5, 12]
    tasks = grid_tasks(panel, t_values, 1)
    first, second = task_windows(tasks[: len(tasks) // 2]), task_windows(tasks[len(tasks) // 2 :])
    serial, n_serial = count_survivors(run_grid, panel, t_values, 1)
    assert n_serial == len(first | second)
    for jobs in (2, 1000):
        pooled, n_pooled = count_survivors(run_grid, panel, t_values, 1, jobs=jobs)
        assert pooled == serial and n_pooled == n_serial + len(first & second)
    assert serial[0] and pool_spy.workers == [2, 2] and pool_spy.chunks == [2, 2]


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


NO_PHI_SIGNS = "no asset survives constant-column filtering"


@pytest.mark.parametrize("kind,scope", KINDS)
@pytest.mark.parametrize("make,skips", [
    (hadamard_panel, {"partial_pearson": "leading eigenvalue is not separated from the second"}),
    (ordered_panel, {"pearson": NO_PHI_SIGNS, "partial_pearson": NO_PHI_SIGNS}),
], ids=["hadamard", "ordered"])
def test_timeseries_skips_a_row_whose_own_product_or_phi_signs_fail(make, skips, kind, scope, caplog):
    """A window of 4 that preprocesses, but whose own correlation or, for a non-phi kind, whose
    phi signs for the network raise DataError, has no row, and the error is its skip reason:
    the 5 windows of the first 8 returns skip under a kind in `skips`, and 8 of 13 rows remain."""
    panel = make()
    with caplog.at_level(logging.DEBUG, logger="triadnet.experiment"):
        rows = timeseries_rows(panel, 4, 1, kind, scope, ALPHA)
    assert rows == ref_timeseries(panel, kind, scope, step=1, window=4)
    reasons = [rec.args[1] for rec in caplog.records if rec.msg == "timeseries skips %s: %s"]
    if kind in skips:
        assert len(rows) == 8 and reasons == [skips[kind]] * 5
    elif make is hadamard_panel and kind == "pearson":
        assert len(rows) == 13  # the identity is a valid Pearson matrix


@pytest.mark.parametrize("kind", ["pearson", "partial_pearson"])
@pytest.mark.parametrize("scope", MEDIAN_SCOPES)
def test_timeseries_row_without_phi_signs_takes_no_eigh(monkeypatch, kind, scope):
    """A non-phi row takes its phi signs before its own correlation, and a skipped row makes
    no pair: on `ordered_panel` the 5 window-4 rows with no phi sign change take no eigh, so
    only the 8 kept rows take one each (partial Pearson's kernel takes one more). Every
    out-window of a kept row is a kept row's in-window, all on 3 assets, so pairs add none."""
    panel = ordered_panel()
    calls = {}
    count_calls(monkeypatch, np.linalg, "eigh", calls)
    rows = timeseries_rows(panel, 4, 1, kind, scope, ALPHA)
    assert len(rows) == 8
    assert calls == {"eigh": len(rows) * (2 if kind == "partial_pearson" else 1)}


@pytest.mark.parametrize("kind", ["phi", "pearson", "partial_pearson"])
def test_timeseries_row_that_its_row_rejects_makes_no_pair(monkeypatch, kind, caplog):
    """On the first 2 assets of `ordered_panel` every window that reaches its row is rejected
    there with "fewer than 3 surviving assets", after its own `_leading` product. Such a row
    makes no pair, so those products are the only `_leading` calls."""
    panel = ordered_panel()
    two = PricePanel(panel.dates, panel.assets[:2], panel.prices[:, :2], panel.present[:, :2], panel.sectors)
    calls = {}
    count_calls(monkeypatch, experiment, "_leading", calls)
    with caplog.at_level(logging.DEBUG, logger="triadnet.experiment"):
        assert timeseries_rows(two, 4, 1, kind, "universe", ALPHA) == []
    reasons = [rec.args[1] for rec in caplog.records if rec.msg == "timeseries skips %s: %s"]
    assert len(reasons) == 13
    assert calls == {"_leading": reasons.count("fewer than 3 surviving assets")} != {"_leading": 0}


def assert_gather_recuts_survivors(assets, x, mask, cut):
    """`cut` of the survivors' panel columns, and of every other one of them, gives their
    columns byte for byte: the gather a pair subset of a window is cut with."""
    for sub in (slice(None), slice(None, None, 2)):
        sub_mask = np.zeros_like(mask)
        sub_mask[np.flatnonzero(mask)[sub]] = True
        _, got_assets, got_x = cut(sub_mask, assets[sub])
        assert got_assets == assets[sub]
        assert (got_x.dtype, got_x.tobytes()) == (x.dtype, np.ascontiguousarray(x[:, sub]).tobytes())


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
        (dates, got_assets, got_x), mask, cut = _survivors(*w, kind)
        assert dates == rp.dates and got_assets == assets
        assert got_x.dtype == x.dtype and np.array_equal(got_x, x)
        assert got_assets == tuple(a for a, m in zip(panel.assets, mask) if m)
        assert_gather_recuts_survivors(got_assets, got_x, mask, cut)
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
            (dates, got_assets, got_x), mask, cut = _survivors(*w, "phi")
            assert (dates, got_assets) == (rp.dates, assets), (t, end_idx)
            assert (got_x.dtype, got_x.shape) == (x.dtype, x.shape), (t, end_idx)
            assert got_x.tobytes() == x.tobytes(), (t, end_idx)
            assert_gather_recuts_survivors(got_assets, got_x, mask, cut)
            compared += 1
    assert messages == failures and compared > 1000
    if make is flat_in_one_window_panel:  # A06's flat column leaves the window of returns 40-59
        assert "A06" not in _survivors(*_window(full, 60, 20), "phi")[0][1]


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
    with pytest.raises(DataError, match=f"need 10 returns from {panel.dates[n - 8]}, have 9$"):
        _window(full, n + 1, 10)
    for t in (0, -3):
        with pytest.raises(DataError, match="window lengths must be positive"):
            _window(full, 10, t)
    first, last = _window(full, 10, 10)[0], _window(full, n, 10)[0]
    assert (first.dates[0], last.dates[-1]) == (panel.dates[1], panel.dates[-1])


def filled_gaps(panel, seed=0):
    """`panel` with a finite number, zero and negatives included, in every absent price
    cell; the price mask is unchanged."""
    fill = np.random.default_rng(seed).choice([-3.0, 0.0, 1e-300, 7.5, 1e300], panel.prices.shape)
    prices = np.where(panel.present, panel.prices, fill)
    return make_panel(prices, panel.dates, panel.assets, panel.sectors, present=panel.present)


def dataset_or_error(panel, end_idx, kind, scope):
    try:
        ds = build_dataset(panel, panel.dates[end_idx], 12, 5, kind, scope)
    except DataError as exc:
        return str(exc)
    arrays = (ds.iu, ds.ju, ds.labels, ds.scores_delta, ds.scores_absphi)
    return ds.assets, [(a.dtype, a.tobytes()) for a in arrays]


@pytest.mark.parametrize("kind,scope", KINDS)
def test_an_absent_price_gives_a_missing_return_whatever_number_it_holds(kind, scope):
    """The price mask ends at log_returns: an absent price cell that holds a finite number
    gives NaN returns, and the grid, timeseries and datasets equal those of the panel
    with NaN in those cells."""
    panel = gappy_panel(14)
    filled = filled_gaps(panel)
    assert np.isfinite(filled.prices).all() and not filled.present.all()
    returns = log_returns(filled).returns
    assert np.array_equal(np.isnan(returns), ~(panel.present[1:] & panel.present[:-1]))
    assert returns.tobytes() == log_returns(panel).returns.tobytes()
    grids = [run_grid(p, T_VALUES, STEP, kind, scope) for p in (panel, filled)]
    assert [vars(r) for r in grids[0][0]] == [vars(r) for r in grids[1][0]] and grids[0][0]
    assert grids[0][1] == grids[1][1]
    rows = [timeseries_rows(p, TS_WINDOW, STEP, kind, scope, ALPHA) for p in (panel, filled)]
    assert rows[0] == rows[1] and rows[0]
    datasets = [[dataset_or_error(p, end, kind, scope) for end in range(p.n_dates)] for p in (panel, filled)]
    assert datasets[0] == datasets[1]
    assert any(not isinstance(d, str) for d in datasets[0]) and any(isinstance(d, str) for d in datasets[0])


def test_complete_case_and_volatility_of_every_window_follow_the_price_mask(panel):
    """For every window, with finite numbers in the absent price cells, complete_case keeps
    the assets whose price pairs are all present and volatility averages the absolute log
    returns of the present price pairs: the reference reads `panel.present`, not NaN."""
    filled = filled_gaps(panel)
    pairs = panel.present[1:] & panel.present[:-1]
    with np.errstate(invalid="ignore", divide="ignore"):
        logs = np.log(filled.prices)
        steps = logs[1:] - logs[:-1]
    full = _with_mode(log_returns(filled), "window")
    checked = 0
    for t in (1, 2, 5, 12, 30):
        for end_idx in range(t, panel.n_dates):
            window = _window(full, end_idx, t)[0]
            present = pairs[end_idx - t : end_idx]
            keep = present.all(axis=0)
            if keep.any():
                assert complete_case(window).assets == tuple(compress(panel.assets, keep)), (t, end_idx)
            else:
                with pytest.raises(DataError, match="complete-case"):
                    complete_case(window)
            if present.any():
                expected = float(np.mean(np.abs(steps[end_idx - t : end_idx][present])))
                assert volatility(window) == expected, (t, end_idx)
            else:
                with pytest.raises(DataError, match="empty"):
                    volatility(window)
            checked += 1
    assert checked > 300


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


@forks_blas_threads
@pytest.mark.parametrize("kind,scope", [("spearman", "universe"), ("phi", "global")])
def test_unknown_kind_or_scope_rejected_before_a_pool_starts(kind, scope, pool_spy):
    """A pooled run checks its kind and scope in the parent, so the error names the bad
    value; a check left to the workers would end in a BrokenProcessPool instead."""
    panel = gappy_panel(14)
    bad = kind if kind not in CORR_KINDS else scope
    with pytest.raises(DataError, match=bad):
        run_grid(panel, T_VALUES, STEP, corr_kind=kind, median_scope=scope, jobs=2)
    with pytest.raises(DataError, match=bad):
        timeseries_rows(panel, TS_WINDOW, STEP, kind, scope, jobs=2)
    assert pool_spy.workers == []
