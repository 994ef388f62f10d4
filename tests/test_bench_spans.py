"""The spans the benchmark's per-layer metrics read, on one traced toy grid.

bench/tracer.py wraps the public functions of the layer modules, and several
per-layer metrics are call counts or times of those spans. A refactor that
stops calling one of them, or calls a private copy instead, would make its
metric read 0 without failing any other test. This runs the benchmark's own
traced child (bench/grid_child.py --spans) on a toy workload and pins the call
counts of those spans.
"""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS, write_inputs  # noqa: E402

from triadnet import preprocess  # noqa: E402
from triadnet.experiment import timeseries_rows  # noqa: E402
from triadnet.ingest import load_panel  # noqa: E402

# 12 records from 24 window slots, 9 of them distinct, and 4 timeseries rows.
# The grid preprocesses each distinct window once, 9 preprocessings, and makes 13
# window products: 9 on a window's own survivors and 4, for pairs whose common
# assets are not a window's survivors, cut from that window's rows by its gather.
# Only the 9 in-window products read phi's values (7 on a window's own
# survivors, 2 on common assets); the 2 windows that are only ever out-windows and
# the 2 out-sides on common assets take their signs from phi's numerator, so the
# grid makes 9 phi matrices. It takes every H from its own S * S^2 product, so
# `hamiltonian` counts the timeseries rows only. The timeseries' own sweep builds
# each of its 4 windows once, with its row (the out-windows of the 2 rows that have
# a next window are later rows' in-windows): 4 preprocessings, 4 phi matrices, 4
# spectral summaries and one validated network per row.
EXPECTED_CALLS = {
    "preprocess.complete_case": 13,
    "correlation.phi_matrix": 13,
    "balance.spectral_summary": 4,
    "balance.hamiltonian": 4,
    "svn.build_svn": 4,
    "experiment.run_grid": 1,
    "experiment.timeseries_rows": 1,
}


def test_traced_toy_grid_keeps_the_spans_the_metrics_read(tmp_path):
    toy = dataclasses.replace(
        WORKLOADS["grid-phi-hd"], n_assets=12, n_rows=60, t_values=(10, 20), step=10,
        timeseries_window=20,
    )
    config = write_inputs(toy, 3, tmp_path)
    stats = tmp_path / "stats.json"
    subprocess.run(
        [sys.executable, str(BENCH / "grid_child.py"), "--config", str(config), "--jobs", "1",
         "--stats", str(stats), "--spans", str(tmp_path / "spans.jsonl")],
        check=True,
        capture_output=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    result = json.loads(stats.read_text())
    assert result["rc"] == 0
    summary = json.loads((tmp_path / "out" / "run_summary.json").read_text())
    assert (summary["records"], summary["timeseries_rows"]) == (12, 4)
    calls = {name: result["spans"].get(name, {}).get("calls", 0) for name in EXPECTED_CALLS}
    assert calls == EXPECTED_CALLS


def test_gappy_workload_timeseries_preprocesses_each_window_once(tmp_path, monkeypatch):
    """grid-gaps-pp, seed 7: 20 rows, 18 of them with a next window, at a step that does
    not divide the window. Each in-window is complete-cased once, for both its partial
    Pearson survivors and its network's phi signs, and each out-window once: 38 calls
    of `complete_case`, the metric preprocess.complete_case.calls reads."""
    w = WORKLOADS["grid-gaps-pp"]
    config = json.loads(write_inputs(w, 7, tmp_path).read_text())
    panel = load_panel(config["prices"], config["sectors"], config["format"])
    calls, complete_case = [], preprocess.complete_case
    monkeypatch.setattr(preprocess, "complete_case", lambda r: calls.append(1) or complete_case(r))
    rows = timeseries_rows(panel, w.timeseries_window, w.step, w.corr_kind, w.median_scope)
    assert (len(rows), len(calls)) == (20, 38)
