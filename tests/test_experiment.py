import os

import numpy as np
import pytest

from triadnet import experiment
from triadnet.errors import DataError
from triadnet.experiment import (
    _POOL_STATE,
    ExperimentRecord,
    _pool_size,
    aggregate_cells,
    build_dataset,
    default_t_values,
    grid_tasks,
    roc,
    run_grid,
    stability_profile,
    timeseries_rows,
)
from triadnet.preprocess import ReturnPanel
from triadnet.synth import SynthSpec, generate

from conftest import forks_blas_threads, make_panel


def auc_oracle(labels, scores):
    """All positive-negative pairs, ties worth one half."""
    labels = np.asarray(labels, dtype=bool)
    scores = np.asarray(scores, dtype=float)
    pos = scores[labels]
    neg = scores[~labels]
    wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


def panel_from_returns(returns):
    returns = np.asarray(returns, dtype=float)
    n = returns.shape[1]
    log_p = np.vstack([np.zeros(n), np.cumsum(returns, axis=0)])
    return make_panel(100.0 * np.exp(log_p))


def test_roc_trivials_and_fixture():
    assert roc([True, True, False], [3.0, 2.0, 1.0]).auc == 1.0
    assert roc([True, False, True, False], [1.0, 1.0, 1.0, 1.0]).auc == 0.5
    result = roc([True, False, True, False], [0.9, 0.8, 0.7, 0.1])
    assert result.auc == pytest.approx(0.75, abs=1e-15)
    assert result.points[0] == (0.0, 0.0)
    assert result.points[-1] == (1.0, 1.0)


def test_roc_single_class_rejected():
    with pytest.raises(DataError):
        roc([True, True], [0.1, 0.2])
    with pytest.raises(DataError):
        roc([False, False], [0.1, 0.2])


def test_roc_rank_statistic_equals_trapezoid(rng):
    for _ in range(50):
        n = int(rng.integers(3, 60))
        labels = rng.random(n) < rng.uniform(0.2, 0.8)
        if labels.all() or not labels.any():
            continue
        scores = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], size=n)  # heavy ties
        result = roc(labels, scores)
        xs = np.array([p[0] for p in result.points])
        ys = np.array([p[1] for p in result.points])
        assert np.all(np.diff(xs) >= 0) and np.all(np.diff(ys) >= 0)
        trapezoid = float(np.sum(np.diff(xs) * (ys[1:] + ys[:-1]) / 2.0))
        assert result.auc == pytest.approx(trapezoid, abs=1e-12)
        assert result.auc == pytest.approx(auc_oracle(labels, scores), abs=1e-12)


def test_roc_invariant_under_increasing_transform(rng):
    labels = rng.random(40) < 0.4
    labels[:2] = [True, False]
    scores = rng.normal(size=40)
    base = roc(labels, scores)
    monotone = roc(labels, np.exp(scores) * 3 + 1)
    assert monotone.auc == pytest.approx(base.auc, abs=1e-15)
    assert monotone.points == base.points


def test_roc_label_score_symmetry(rng):
    labels = rng.random(30) < 0.5
    labels[:2] = [True, False]
    scores = rng.choice([0.1, 0.2, 0.3], size=30)
    a = roc(labels, scores).auc
    b = roc(~labels, -scores).auc
    assert a == pytest.approx(b, abs=1e-12)


def test_build_dataset_identical_windows_all_stable(rng):
    block = 0.02 * rng.normal(size=(30, 5))
    panel = panel_from_returns(np.vstack([block, block]))
    ds = build_dataset(panel, panel.dates[30], 30, 30, corr_kind="phi")
    assert ds.n_pairs == 10
    assert not ds.labels.any()
    # constant scores give exactly 0.5 by the tie rule, checked via the rank
    # statistic on a synthetic label split
    assert auc_oracle([True, False], [0.0, 0.0]) == 0.5


def test_build_dataset_negated_group_switches_cross_pairs(rng):
    t, n = 40, 6
    factor = rng.normal(size=(t, 1))
    r_in = 0.02 * (0.8 * factor + 0.6 * rng.normal(size=(t, n)))
    group_b = np.array([False] * 3 + [True] * 3)
    r_out = r_in.copy()
    r_out[:, group_b] *= -1.0
    panel = panel_from_returns(np.vstack([r_in, r_out]))
    # raw-return flavour: negating a column block flips exactly the
    # cross-group correlation signs, so the labels are known a priori
    ds = build_dataset(panel, panel.dates[t], t, t, corr_kind="partial_pearson")
    assert ds.assets == panel.assets
    idx = {a: i for i, a in enumerate(panel.assets)}
    for i, j, label in zip(ds.iu, ds.ju, ds.labels):
        expected = group_b[idx[ds.assets[i]]] != group_b[idx[ds.assets[j]]]
        assert label == expected


def test_build_dataset_window_errors(rng):
    """`_window` is the one fit check: a window too late names the first date it needs, and
    when both windows fail the in-sample shortfall is the one reported."""
    panel = panel_from_returns(0.01 * rng.normal(size=(30, 4)))
    too_late = f"insufficient history: need 15 returns from {panel.dates[21]}, have 10$"
    with pytest.raises(DataError, match=too_late):
        build_dataset(panel, panel.dates[20], 10, 15)
    with pytest.raises(DataError, match=f"need 5 returns from the date after {panel.dates[-1]}, have 0$"):
        build_dataset(panel, panel.dates[-1], 10, 5)
    too_early = f"insufficient history: need 10 returns ending {panel.dates[5]}, have 5$"
    for t_out in (5, 40):  # with t_out 40 both windows fail
        with pytest.raises(DataError, match=too_early):
            build_dataset(panel, panel.dates[5], 10, t_out)
    for t_in, t_out in ((0, 5), (10, 0), (-1, -1)):
        with pytest.raises(DataError, match="window lengths must be positive"):
            build_dataset(panel, panel.dates[20], t_in, t_out)
    with pytest.raises(DataError, match="not in panel"):
        build_dataset(panel, "1990-01-01", 10, 5)


def test_build_dataset_deterministic(rng):
    spec = SynthSpec(n_assets=20, n_days=81, model="bipolar", rho_in=0.2, rho_out=-0.1, seed=5)
    panel = generate(spec)
    a = build_dataset(panel, panel.dates[40], 40, 40)
    b = build_dataset(panel, panel.dates[40], 40, 40)
    assert a.assets == b.assets
    assert np.array_equal(a.iu, b.iu) and np.array_equal(a.ju, b.ju)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.scores_delta, b.scores_delta)
    assert np.array_equal(a.scores_absphi, b.scores_absphi)


def _tiny_dataset(labels, delta_raw, absphi_raw):
    labels = np.asarray(labels, dtype=bool)
    n = len(labels)
    return type(
        "DS",
        (),
        {
            "labels": labels,
            "scores_delta": -np.asarray(delta_raw, dtype=float),
            "scores_absphi": -np.asarray(absphi_raw, dtype=float),
            "n_pairs": n,
        },
    )()


def test_stability_profile_trivials():
    ds = _tiny_dataset([False, False, False], [0.9, 0.9, -0.9], [0.1, 0.2, 0.3])
    rows = stability_profile(ds, "delta", 0.05)
    assert len(rows) == 40
    nonempty = [r for r in rows if r[2] > 0]
    assert all(r[1] == 1.0 for r in nonempty)
    empty = [r for r in rows if r[2] == 0]
    assert all(r[1] is None for r in empty)
    ds_all_switch = _tiny_dataset([True, True], [0.5, 0.5], [0.5, 0.5])
    rows = stability_profile(ds_all_switch, "absphi", 0.05)
    assert len(rows) == 20
    assert all(r[1] == 0.0 for r in rows if r[2] > 0)


def test_stability_profile_constructed_split():
    # switches happen only below zero, so every positive bin reports 1
    delta_raw = np.array([-0.8, -0.6, -0.2, 0.1, 0.4, 0.9])
    labels = delta_raw < 0
    ds = _tiny_dataset(labels, delta_raw, np.abs(delta_raw))
    for center, prob, count in stability_profile(ds, "delta", 0.05):
        if count and center > 0:
            assert prob == 1.0
        if count and center < 0:
            assert prob == 0.0


def test_stability_profile_validation():
    ds = _tiny_dataset([True, False], [0.1, 0.2], [0.1, 0.2])
    with pytest.raises(DataError):
        stability_profile(ds, "other")
    with pytest.raises(DataError):
        stability_profile(ds, "delta", 0.0)
    with pytest.raises(DataError, match="bin_width"):  # 2e5 bins
        stability_profile(ds, "delta", 1e-5)


def profile_by_bin_masks(ds, which, bin_width):
    """`stability_profile` one bin at a time: a mask over every pair per bin."""
    raw, lo, hi = (-ds.scores_delta, -1.0, 1.0) if which == "delta" else (-ds.scores_absphi, 0.0, 1.0)
    n_bins = max(1, int(np.ceil((hi - lo) / bin_width - 1e-12)))
    idx = np.clip(((raw - lo) / bin_width).astype(int), 0, n_bins - 1)
    rows = []
    for b in range(n_bins):
        in_bin = idx == b
        count = int(in_bin.sum())
        rows.append((lo + (b + 0.5) * bin_width, float((~ds.labels)[in_bin].mean()) if count else None, count))
    return rows


def roc_by_thresholds(labels, scores):
    """ROC points from each distinct score down: (share of negatives, of positives) at or above it."""
    labels, scores = np.asarray(labels, dtype=bool), np.asarray(scores, dtype=float)
    points = [(0.0, 0.0)]
    for threshold in np.unique(scores)[::-1]:
        above = scores >= threshold
        points.append((int((above & ~labels).sum()) / int((~labels).sum()),
                       int((above & labels).sum()) / int(labels.sum())))
    return points


def test_tie_counts_match_per_group_loops(rng):
    """ROC points and stability profiles, read from one (group, label) count, equal a loop
    over their tie groups or bins exactly, on tie-heavy scores in random pair order."""
    for size in (2, 5, 40, 300):
        for _ in range(5):
            labels = rng.random(size) < rng.uniform(0.1, 0.9)
            labels[:2] = [True, False]
            delta = rng.integers(-6, 7, size=size) / 6
            absphi = np.abs(rng.choice(rng.uniform(-1, 1, size=7), size=size))
            ds = _tiny_dataset(labels, delta, absphi)
            assert roc(labels, -delta).points == roc_by_thresholds(labels, -delta)
            for which, width in (("delta", 0.05), ("absphi", 0.05), ("delta", 0.3), ("absphi", 1e-3)):
                assert stability_profile(ds, which, width) == profile_by_bin_masks(ds, which, width)


@forks_blas_threads
def test_run_grid_sorted_and_parallel_identical(pool_spy):
    spec = SynthSpec(n_assets=12, n_days=70, model="bipolar", rho_in=0.3, rho_out=-0.15, seed=7)
    panel = generate(spec)
    serial, serial_skipped = run_grid(panel, [15, 25], 7, jobs=1)
    parallel, parallel_skipped = run_grid(panel, [15, 25], 7, jobs=2)
    assert pool_spy.workers == [2]
    assert len(serial) > 0
    keys = [(r.t_in, r.t_out, r.end_date) for r in serial]
    assert keys == sorted(keys)
    assert [vars(r) for r in serial] == [vars(r) for r in parallel]
    assert serial_skipped == parallel_skipped


@pytest.mark.parametrize("env,cores,expected", [
    ({}, 4, 1),  # default threads: OpenBLAS runs one thread per usable core
    ({"OMP_NUM_THREADS": "1"}, 4, 4),
    ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 4, 2),  # OpenBLAS's own variable first
    ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, 4, 4),
    ({"MKL_NUM_THREADS": "1"}, 4, 1),  # not read by OpenBLAS
    ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "2"}, 4, 2),  # not a positive count: unset
    ({"OPENBLAS_NUM_THREADS": "x", "OMP_NUM_THREADS": " 1 "}, 8, 8),
    ({"OPENBLAS_NUM_THREADS": "3"}, 2, 0),  # more BLAS threads than cores: in-process
    ({"OMP_NUM_THREADS": "1"}, 2, 2),
])
def test_pool_size_never_runs_more_blas_threads_than_usable_cores(monkeypatch, env, cores, expected):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
    assert _pool_size(16, 64) == expected
    assert _pool_size(16, 1) == min(expected, 1)  # never more workers than tasks
    assert _pool_size(1, 64) == min(expected, 1)  # nor than jobs


def test_pool_size_falls_back_to_cpu_count_without_affinity(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    assert _pool_size(16, 64) == 3
    monkeypatch.delenv("OMP_NUM_THREADS")
    assert _pool_size(16, 64) == 1


@pytest.fixture
def in_process_pool(monkeypatch):
    """64 usable cores at one BLAS thread each, and a pool that runs in-process and records
    what a real one would start: its max_workers and how many chunks it maps."""
    started = []

    class InProcessPool:
        def __init__(self, max_workers, mp_context, initializer, initargs):
            assert mp_context.get_start_method() == "fork"
            started.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, chunks):
            chunks = list(chunks)
            started.append(len(chunks))
            return map(fn, chunks)

    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
    monkeypatch.setattr(experiment, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(experiment, "_POOL_STATE", {})
    return started


def test_pool_starts_no_idle_workers(in_process_pool, monkeypatch):
    """jobs 16 on a 3-task grid: 3 workers, each mapping a run of one task."""
    panel = generate(SynthSpec(n_assets=10, n_days=40, model="bipolar", seed=3))
    assert len(grid_tasks(panel, [10], 7)) == 3
    pooled = run_grid(panel, [10], 7, jobs=16)
    assert in_process_pool == [3, 3]
    monkeypatch.undo()
    assert pooled == run_grid(panel, [10], 7, jobs=1) and pooled[0]


def test_huge_jobs_slice_the_tasks_at_most_once_per_task(in_process_pool, monkeypatch):
    """Workers stop at one per task, and each takes one run, so a huge --jobs slices the
    task list at most once per task."""
    class SliceCountingList(list):
        slices = 0

        def __getitem__(self, index):
            if isinstance(index, slice):
                self.slices += 1
            return super().__getitem__(index)

    tasks = SliceCountingList([(10, 10, 10), (10, 10, 17), (10, 10, 24)])
    monkeypatch.setattr(experiment, "_sweep", lambda full, chunk, *args: [chunk])
    chunks = experiment._map_chunks(tasks, 1000, None, "phi")
    assert tasks.slices <= 3
    assert chunks == [[task] for task in tasks]
    assert in_process_pool == [3, 3]


def test_serial_run_grid_leaves_no_worker_state():
    panel = generate(SynthSpec(n_assets=8, n_days=50, model="bipolar", seed=3))
    assert run_grid(panel, [10, 20], 5, jobs=1)[0]
    assert _POOL_STATE == {}


@pytest.mark.parametrize("corr_kind", ["phi", "pearson", "partial_pearson"])
def test_run_grid_scans_returns_for_finiteness_once_per_panel(monkeypatch, corr_kind):
    """Windows and their complete-case subsets slice a panel that log_returns
    checked, so the finiteness scan runs once per panel, not once per window."""
    scans = []
    check = ReturnPanel.__post_init__
    monkeypatch.setattr(ReturnPanel, "__post_init__", lambda self: scans.append(check(self)))
    panel = generate(SynthSpec(n_assets=10, n_days=60, model="bipolar", seed=5))
    records, _ = run_grid(panel, [10, 20], 5, corr_kind=corr_kind, jobs=1)
    assert len(records) > 10
    assert len(scans) == 1


@pytest.mark.parametrize("field", ["prices", "present", "both"])
def test_a_panel_with_a_rebound_field_gets_the_new_fields_results(field):
    """A panel's returns are made once and kept with it, and rebinding its `prices` or
    `present`, as the benchmark's workload generator does, makes them anew: run_grid,
    timeseries_rows and build_dataset then give what a new panel of those fields gives."""
    panel = generate(SynthSpec(n_assets=10, n_days=80, model="bipolar", rho_in=0.4, rho_out=-0.2, seed=4))

    def results(p):
        ds = build_dataset(p, p.dates[40], 20, 20)
        return (run_grid(p, [10, 20], 5), timeseries_rows(p, 20, step=5),
                [ds.labels.tobytes(), ds.scores_delta.tobytes(), ds.scores_absphi.tobytes()])

    before = results(panel)
    rng = np.random.default_rng(0)
    if field in ("prices", "both"):
        panel.prices = panel.prices * np.exp(0.02 * rng.normal(size=panel.prices.shape))
    if field in ("present", "both"):
        present = panel.present.copy()
        present[:30, 0] = present[60, 3] = False  # a late listing and a missing cell
        panel.present = present
    fresh = make_panel(panel.prices, panel.dates, panel.assets, panel.sectors, panel.present)
    after = results(panel)
    assert after == results(fresh)
    assert after != before


def test_run_grid_infeasible_windows_give_empty_list(rng):
    panel = panel_from_returns(0.01 * rng.normal(size=(20, 4)))
    assert run_grid(panel, [50], 1) == ([], {"infeasible": 0, "single_class": 0})
    with pytest.raises(DataError):
        run_grid(panel, [], 1)
    with pytest.raises(DataError):
        run_grid(panel, [10], 0)


def test_run_grid_rejects_duplicate_t_values(rng):
    panel = panel_from_returns(0.01 * rng.normal(size=(40, 6)))
    with pytest.raises(DataError, match="distinct"):
        run_grid(panel, [10, 10], 5)


def test_aggregate_cells():
    def rec(t_in, t_out, d, p):
        return ExperimentRecord("2020-01-01", t_in, t_out, 1.0, 1.0, d, p, 0.0, 0.0, 0.01, 10)

    cells = aggregate_cells([rec(10, 10, 0.6, 0.5), rec(10, 10, 0.8, 0.7), rec(10, 20, 0.9, 0.4)])
    assert cells[(10, 10)] == (pytest.approx(0.7), pytest.approx(0.6), 2)
    assert cells[(10, 20)][2] == 1


def test_default_t_values():
    values = default_t_values()
    assert values[0] == 20 and values[-1] == 2000
    assert len(values) == 10
    assert values == sorted(values)


def test_timeseries_rows_shape():
    spec = SynthSpec(n_assets=14, n_days=70, model="bipolar", rho_in=0.4, rho_out=-0.2, seed=2)
    panel = generate(spec)
    rows = timeseries_rows(panel, 25, step=5)
    assert rows
    for row in rows:
        assert set(row) == {"date", "h", "g", "density", "volatility", "lambda1_frac", "v1_overlap"}
        assert -1 <= row["h"] <= 1
        assert 0 <= row["density"] <= 1
    # trailing windows have no out-of-sample partner for the overlap
    assert rows[-1]["v1_overlap"] is None


@pytest.mark.parametrize("window,step", [(1, 1), (25, 0)])
def test_timeseries_rows_rejects_a_short_window_or_a_zero_step(window, step):
    panel = generate(SynthSpec(n_assets=6, n_days=40, model="bipolar", seed=2))
    with pytest.raises(DataError, match="window of at least 2 returns and a step of at least 1"):
        timeseries_rows(panel, window, step)
