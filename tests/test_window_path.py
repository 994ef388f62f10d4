"""Differential test of the grid's window path against the public primitives.

The reference rebuilds every window from prices, one at a time:
slice_window -> log_returns -> binarize / complete_case -> correlation kernel
-> sign_matrix -> pair_stability and H as -trace(S^3) / (6 C(N,3)). The
pipeline instead slices each window out of returns and a universe market mode
computed once per panel, and takes the in-window's H and pair stability from
one elementwise product S * S^2. Both must agree exactly:
records, skip decisions, datasets and timeseries rows.
"""

import logging
from math import comb

import numpy as np
import pytest

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
from triadnet.ingest import slice_window
from triadnet.preprocess import (
    MEDIAN_SCOPES,
    BinaryPanel,
    ReturnPanel,
    _survivors,
    _universe_mode,
    binarize,
    complete_case,
    log_returns,
    volatility,
)
from triadnet.svn import build_svn

from conftest import make_panel

T_VALUES = [5, 12, 30]
STEP = 4
TS_WINDOW = 20
ALPHA = 0.2
KINDS = [(kind, scope) for kind in CORR_KINDS for scope in MEDIAN_SCOPES]


def gappy_panel(seed, n=12, t=80):
    """Two anti-correlated blocks with a constant-price column, late listings,
    scattered missing cells and one date without any price (how a wide CSV
    row of empty cells loads)."""
    rng = np.random.default_rng(seed)
    block = np.where(np.arange(n) < n // 2, 1.0, -1.0)
    r = 0.01 * (1.2 * rng.normal(size=(t, 1)) * block + rng.normal(size=(t, n)))
    prices = 100.0 * np.exp(np.cumsum(r, axis=0))
    prices[:, 0] = 50.0
    prices[: t // 4, 1] = np.nan
    prices[: t // 2, 2] = np.nan
    prices[rng.random((t, n)) < 0.02] = np.nan
    prices[t - 10] = np.nan
    assets = tuple(f"A{7 * i % n}" for i in range(n))  # not in name order
    return make_panel(prices, assets=assets, sectors={a: f"S{i % 2}" for i, a in enumerate(assets)})


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


def ref_survivors(panel, end_idx, t, kind, scope):
    """(window returns, surviving assets, the columns the kernel sees)."""
    rp = log_returns(slice_window(panel, panel.dates[end_idx], t + 1))
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


def ref_grid(panel, kind, scope):
    """(records in grid order, {task: skip reason}) with reasons 'infeasible'/'single_class'."""
    records, skips = [], {}
    for task in grid_tasks(panel, T_VALUES, STEP):
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


def ref_timeseries(panel, kind, scope):
    rows = []
    for end_idx in range(TS_WINDOW, panel.n_dates, STEP):
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


@pytest.mark.parametrize("kind,scope", KINDS)
def test_run_grid_matches_per_window_reference(panel, kind, scope, caplog):
    expected, expected_skips = ref_grid(panel, kind, scope)
    with caplog.at_level(logging.DEBUG, logger="triadnet.experiment"):
        records, skipped = run_grid(panel, T_VALUES, STEP, corr_kind=kind, median_scope=scope)
    skips = {
        rec.args[:3]: "single_class" if rec.args[3].startswith("single-class") else "infeasible"
        for rec in caplog.records
        if rec.msg.startswith("skipping")
    }
    assert [vars(r) for r in records] == [vars(r) for r in expected]
    assert skips == expected_skips
    assert skipped == {
        reason: sum(r == reason for r in expected_skips.values())
        for reason in ("infeasible", "single_class")
    }
    # the panel exercises every branch: records and both kinds of skip
    assert records and set(skips.values()) == {"infeasible", "single_class"}


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


@pytest.mark.parametrize("kind,scope", KINDS)
def test_timeseries_rows_match_per_window_reference(panel, kind, scope):
    rows = timeseries_rows(panel, TS_WINDOW, STEP, kind, scope, ALPHA)
    expected = ref_timeseries(panel, kind, scope)
    assert rows == expected
    for field in ("g", "density", "v1_overlap"):
        assert any(row[field] for row in rows), field
    assert len(rows) < len(range(TS_WINDOW, panel.n_dates, STEP))  # some windows skipped


@pytest.mark.parametrize("kind", ["phi", "pearson"])
def test_panel_market_mode_slices_match_per_window_reference(panel, kind):
    """The universe market mode is computed once per panel, NaN on the dates
    without returns; every window's survivor data from its slice equals
    the per-window reference, and windows over that date are infeasible."""
    returns = log_returns(panel)
    full = returns, _universe_mode(returns)
    assert np.isnan(full[1]).any()
    outcomes = set()
    for end_idx in range(TS_WINDOW, panel.n_dates):
        w = _window(full, end_idx, TS_WINDOW)
        try:
            rp, assets, x = ref_survivors(panel, end_idx, TS_WINDOW, kind, "universe")
        except DataError:
            with pytest.raises(DataError):
                _survivors(*w, kind, "universe")
            outcomes.add("infeasible")
            continue
        dates, got_assets, got_x = _survivors(*w, kind, "universe")
        assert dates == rp.dates and got_assets == assets
        assert got_x.dtype == x.dtype and np.array_equal(got_x, x)
        outcomes.add("compared")
    assert outcomes == {"infeasible", "compared"}


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
