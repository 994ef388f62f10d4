"""Benchmark workloads and the seeded generator of their inputs.

Each workload turns a seed into a price CSV, a sectors CSV and a `grid`
config. The program under test receives only those three files. Panels come
from `triadnet.synth`; the late-listing and missing-cell masks of
`grid-gaps-pp` are drawn here from a second stream of the same seed, so one
seed always gives the same bytes.

Sizes are chosen so that one `grid` run takes a few seconds on a 2-core
machine: a benchmark run repeats it several times and reports medians.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    model: str
    n_assets: int
    n_rows: int
    block_sizes: tuple | None
    rho_in: float
    rho_out: float
    format: str
    corr_kind: str
    median_scope: str
    t_values: tuple
    step: int
    timeseries_window: int
    jobs: int
    # OpenBLAS threads per process. jobs x blas_threads = 2 = nproc of the
    # reference machine; pinned so outputs that go through LAPACK (eigh)
    # hash the same whatever the core count of the machine.
    blas_threads: int
    late_frac: float = 0.0
    missing_frac: float = 0.0

    def n_windows(self) -> int:
        """Window pairs `grid` attempts: its `windows_attempted`."""
        return sum(
            len(range(t_in, self.n_rows - t_out, self.step))
            for t_in in self.t_values
            for t_out in self.t_values
        )

    def n_timeseries(self) -> int:
        """Timeseries end dates attempted."""
        return len(range(self.timeseries_window, self.n_rows, self.step))


WORKLOADS = {
    w.name: w
    for w in (
        # Many small windows in the high-dimensional regime (t < N = 150):
        # per-window work dominates (phi, H and pair stability as int64
        # matmuls, ROC sorts, slicing and re-binarizing); SVN work is small.
        # The window engine should show here and bounded SVN memory should not.
        Workload(
            name="grid-phi-hd",
            model="bipolar",
            n_assets=150,
            n_rows=600,
            block_sizes=None,
            rho_in=0.3,
            rho_out=-0.1,
            format="long",
            corr_kind="phi",
            median_scope="universe",
            t_values=(20, 33, 56, 93, 155),
            step=100,
            timeseries_window=100,
            jobs=1,
            blas_threads=2,
        ),
        # Few, large windows on a 400-asset universe: the SVN tail-p-value
        # matrix dominates time and memory, so bounded SVN memory should move
        # peak_rss_mb and timeseries_rows_per_s while per-window savings
        # barely register. Its long CSV is the largest ingest, for setup_s.
        Workload(
            name="svn-wide",
            model="sector_block",
            n_assets=400,
            n_rows=700,
            block_sizes=(100, 100, 100, 100),
            rho_in=0.3,
            rho_out=0.05,
            format="long",
            corr_kind="phi",
            median_scope="universe",
            t_values=(250,),
            step=150,
            timeseries_window=400,
            jobs=1,
            blas_threads=2,
        ),
        # The same grid layers used differently: late listings and missing
        # cells make survivor sets differ from window to window, and
        # partial_pearson runs an eigh per window that no phi submatrix
        # cache can reuse. Also the only wide-CSV ingest and the only
        # process pool. A phi-only optimisation should predict no change.
        Workload(
            name="grid-gaps-pp",
            model="sector_block",
            n_assets=200,
            n_rows=900,
            block_sizes=(70, 70, 60),
            rho_in=0.3,
            rho_out=-0.1,
            format="wide",
            corr_kind="partial_pearson",
            median_scope="window",
            t_values=(40, 120, 400),
            step=40,
            timeseries_window=100,
            jobs=2,
            blas_threads=1,
            late_frac=0.10,
            missing_frac=0.001,
        ),
    )
}


def _panel(w: Workload, seed: int):
    from triadnet.synth import SynthSpec, generate

    panel = generate(
        SynthSpec(
            n_assets=w.n_assets,
            n_days=w.n_rows,
            model=w.model,
            block_sizes=w.block_sizes,
            rho_in=w.rho_in,
            rho_out=w.rho_out,
            seed=seed,
        )
    )
    if w.late_frac or w.missing_frac:
        rng = np.random.default_rng([seed, 1])
        present = panel.present.copy()
        late = rng.choice(w.n_assets, size=int(round(w.late_frac * w.n_assets)), replace=False)
        for asset in sorted(late):
            present[: rng.integers(1, w.n_rows // 2), asset] = False
        present &= rng.random(present.shape) >= w.missing_frac
        panel.present = present
        panel.prices = np.where(present, panel.prices, np.nan)
    return panel


def _write_prices(panel, path: Path, fmt: str) -> None:
    """Long (date,ticker,adj_close) or wide (date, one column per ticker) CSV.

    Prices are written with repr, so they parse back exactly; a missing cell
    is omitted (long) or left empty (wide).
    """
    if fmt == "long":
        lines = ["date,ticker,adj_close"]
        for t, date in enumerate(panel.dates):
            for i, asset in enumerate(panel.assets):
                if panel.present[t, i]:
                    lines.append(f"{date},{asset},{float(panel.prices[t, i])!r}")
    else:
        lines = ["date," + ",".join(panel.assets)]
        for t, date in enumerate(panel.dates):
            cells = (repr(float(p)) if ok else "" for p, ok in zip(panel.prices[t], panel.present[t]))
            lines.append(date + "," + ",".join(cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_inputs(w: Workload, seed: int, workdir: Path) -> Path:
    """Write prices, sectors and config for (workload, seed); return the config path."""
    workdir.mkdir(parents=True, exist_ok=True)
    panel = _panel(w, seed)
    prices = workdir / "prices.csv"
    sectors = workdir / "sectors.csv"
    _write_prices(panel, prices, w.format)
    sectors.write_text(
        "ticker,sector\n" + "".join(f"{a},{panel.sectors[a]}\n" for a in sorted(panel.assets)),
        encoding="utf-8",
    )
    config = {
        "prices": str(prices),
        "sectors": str(sectors),
        "output_dir": str(workdir / "out"),
        "format": w.format,
        "corr_kind": w.corr_kind,
        "median_scope": w.median_scope,
        "t_values": list(w.t_values),
        "step": w.step,
        "timeseries_window": w.timeseries_window,
        "seed": seed,
    }
    path = workdir / "config.json"
    path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    return path
