"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py -v` to see the per-criterion
lines as they execute.
"""

import json
import math
import os
import subprocess
import sys
import time
from itertools import combinations
from math import comb
from pathlib import Path

import numpy as np
import pytest

import triadnet
from triadnet.balance import hamiltonian, pair_stability, spectral_summary
from triadnet.correlation import phi_matrix, sign_matrix
from triadnet.experiment import build_dataset, roc
from triadnet.graphmetrics import LabeledGraph, assortativity
from triadnet.preprocess import BinaryPanel, binarize, log_returns
from triadnet.svn import build_svn, link_pvalue
from triadnet.synth import SynthSpec, generate

from conftest import random_signed


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num:02d}] {name}: {status}{suffix}")
    assert ok, f"criterion {num} failed: {name}{suffix}"


def _signed_corpus(seed=7, count=1000):
    rng = np.random.default_rng(seed)
    return [random_signed(rng, int(rng.integers(3, 13))) for _ in range(count)]


def _brute_force_h(s):
    n = s.shape[0]
    total = sum(
        int(s[i, j]) * int(s[i, k]) * int(s[j, k])
        for i, j, k in combinations(range(n), 3)
    )
    return -total / comb(n, 3)


def test_criterion_01_hamiltonian_exact_vs_enumeration():
    start = time.time()
    corpus = _signed_corpus()
    ok = all(hamiltonian(s) == _brute_force_h(s) for s in corpus)
    elapsed = time.time() - start
    _report(1, "balance index equals triad enumeration exactly", ok and elapsed < 5.0,
            f"1000 matrices, {elapsed:.2f}s")


def test_criterion_02_trace_identity():
    worst = 0.0
    for s in _signed_corpus():
        n = s.shape[0]
        h = hamiltonian(s)
        via_delta = -(n - 2) * pair_stability(s).sum() / (6 * comb(n, 3))
        worst = max(worst, abs(h - via_delta))
    _report(2, "trace identity links H to the pair scores", worst <= 1e-12,
            f"max deviation {worst:.2e}")


def test_criterion_03_paradise_bipolar_and_sign_flip():
    rng = np.random.default_rng(11)
    ok = True
    for n in (3, 5, 9, 14):
        paradise = np.ones((n, n), dtype=np.int8)
        np.fill_diagonal(paradise, 0)
        ok &= hamiltonian(paradise) == -1.0
    for _ in range(25):
        n = int(rng.integers(4, 15))
        members = rng.random(n) < rng.uniform(0.2, 0.8)
        if members.all() or not members.any():
            continue
        s = np.where(members[:, None] == members[None, :], 1, -1).astype(np.int8)
        np.fill_diagonal(s, 0)
        ok &= hamiltonian(s) == -1.0
    for _ in range(25):
        s = random_signed(rng, int(rng.integers(3, 12)))
        ok &= hamiltonian(-s) == -hamiltonian(s)
    _report(3, "paradise and bipolar score -1, sign flip negates H", ok)


def test_criterion_04_hypergeometric_oracle():
    worst = 0.0
    checked = 0
    for t in range(1, 13):
        for k_i in range(t + 1):
            for k_j in range(t + 1):
                denom = comb(t, k_j)
                for c in range(min(k_i, k_j) + 1):
                    total = sum(
                        comb(k_i, x) * comb(t - k_i, k_j - x)
                        for x in range(c, min(k_i, k_j) + 1)
                        if k_j - x <= t - k_i
                    )
                    worst = max(worst, abs(link_pvalue(c, k_i, k_j, t) - total / denom))
                    checked += 1
    spot = abs(link_pvalue(5, 5, 5, 10) - 1 / 252)
    _report(4, "hypergeometric tail matches exhaustive summation", worst <= 1e-12 and spot <= 1e-12,
            f"{checked} cases, max deviation {worst:.2e}")


def test_criterion_05_fdr_control_on_null_panels():
    start = time.time()
    rng = np.random.default_rng(20240501)
    n_panels, t, n = 500, 100, 50
    dates = tuple(f"d{i:03d}" for i in range(t))
    assets = tuple(f"a{i:02d}" for i in range(n))
    false_discovery = 0.0
    for _ in range(n_panels):
        vals = rng.choice(np.array([-1, 1], dtype=np.int8), size=(t, n))
        while (vals.max(axis=0) == vals.min(axis=0)).any():
            vals = rng.choice(np.array([-1, 1], dtype=np.int8), size=(t, n))
        net = build_svn(BinaryPanel(dates, assets, vals), alpha=0.1, polarity="positive")
        # every selection on a null panel is a false discovery
        false_discovery += 1.0 if net.n_links else 0.0
    mean_fdp = false_discovery / n_panels
    elapsed = time.time() - start
    _report(5, "mean null false-discovery proportion within 0.1 + 0.03",
            mean_fdp <= 0.13 and elapsed < 120.0,
            f"mean FDP {mean_fdp:.4f}, {elapsed:.1f}s")


def test_criterion_06_auc_rank_statistic_oracle():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(4, 40))
        labels = rng.random(n) < rng.uniform(0.2, 0.8)
        if labels.all() or not labels.any():
            continue
        scores = rng.choice(np.linspace(0, 1, int(rng.integers(2, 6))), size=n)
        pos = scores[labels][:, None]
        neg = scores[~labels][None, :]
        oracle = float(((pos > neg) + 0.5 * (pos == neg)).mean())
        worst = max(worst, abs(roc(labels, scores).auc - oracle))
    fixture = roc([True, False, True, False], [0.9, 0.8, 0.7, 0.1]).auc
    _report(6, "AUC equals the pairwise rank statistic", worst <= 1e-12 and abs(fixture - 0.75) <= 1e-12,
            f"max deviation {worst:.2e}, fixture {fixture}")


def test_criterion_07_assortativity_extremes_and_null():
    blocks = [list(range(i * 5, (i + 1) * 5)) for i in range(4)]
    n = 20
    a = np.zeros((n, n), dtype=np.int8)
    for block in blocks:
        for i, j in combinations(block, 2):
            a[i, j] = a[j, i] = 1
    labels = [f"s{i // 5}" for i in range(n)]
    exact_one = assortativity(LabeledGraph(a, labels)) == 1.0

    rng = np.random.default_rng(5)
    m_nodes = 40
    dense = (rng.random((m_nodes, m_nodes)) < 0.3).astype(np.int8)
    dense = np.triu(dense, 1)
    dense = dense + dense.T
    g_labels = np.array([f"s{i % 4}" for i in range(m_nodes)])
    graph = LabeledGraph(dense, g_labels.tolist())
    assert graph.m >= 200
    draws = []
    for _ in range(100):
        rng.shuffle(g_labels)
        draws.append(assortativity(LabeledGraph(dense, g_labels.tolist())))
    null_mean = float(np.mean(draws))
    _report(7, "assortativity: intra-sector graph scores exactly 1, null mean ~ 0",
            exact_one and abs(null_mean) < 0.05,
            f"null mean {null_mean:+.4f} over 100 draws, m={graph.m}")


def _bipolar_auc_means(t, seeds, n=150, rho_in=0.2, rho_out=-0.1):
    deltas, absphis, used = [], [], 0
    for seed in seeds:
        spec = SynthSpec(
            n_assets=n, n_days=2 * t + 1, model="bipolar",
            rho_in=rho_in, rho_out=rho_out, seed=seed,
        )
        panel = generate(spec)
        ds = build_dataset(panel, panel.dates[t], t, t, corr_kind="phi")
        if ds.labels.all() or not ds.labels.any():
            continue  # grid runs skip single-class windows the same way
        deltas.append(roc(ds.labels, ds.scores_delta).auc)
        absphis.append(roc(ds.labels, ds.scores_absphi).auc)
        used += 1
    return float(np.mean(deltas)), float(np.mean(absphis)), used


def test_criterion_08_high_dimensional_advantage():
    start = time.time()
    mean_delta, mean_absphi, used = _bipolar_auc_means(t=50, seeds=range(20))
    elapsed = time.time() - start
    ok = (
        used >= 20
        and mean_delta > mean_absphi + 0.03
        and mean_delta > 0.60
        and elapsed < 180.0
    )
    _report(8, "triadic score wins in the high-dimensional regime",
            ok, f"auc_delta {mean_delta:.3f} vs auc_absphi {mean_absphi:.3f}, "
                f"{used} seeds, {elapsed:.1f}s")


def test_criterion_09_full_rank_crossover():
    start = time.time()
    mean_delta, mean_absphi, used = _bipolar_auc_means(t=1000, seeds=range(20))
    elapsed = time.time() - start
    ok = used >= 15 and (mean_absphi - mean_delta) >= -0.05 and elapsed < 300.0
    _report(9, "absolute correlation catches up at full rank",
            ok, f"auc_absphi - auc_delta = {mean_absphi - mean_delta:+.4f}, "
                f"{used} seeds, {elapsed:.1f}s")


def test_criterion_10_spectral_link():
    rhos = (0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5, 0.6)
    fracs = np.zeros(len(rhos))
    balance = np.zeros(len(rhos))
    n_seeds = 5
    for seed in range(n_seeds):
        for i, rho_in in enumerate(rhos):
            spec = SynthSpec(
                n_assets=60, n_days=201, model="bipolar",
                rho_in=rho_in, rho_out=-rho_in / 2, seed=seed,
            )
            phi = phi_matrix(binarize(log_returns(generate(spec))))
            fracs[i] += spectral_summary(phi, 1)[0][0] / n_seeds
            balance[i] += hamiltonian(sign_matrix(phi)) / n_seeds
    r = float(np.corrcoef(fracs, balance)[0, 1])
    _report(10, "leading eigenvalue fraction anti-tracks H across the sweep",
            r <= -0.8, f"pearson {r:+.4f}")


def test_criterion_11_grid_determinism(tmp_path):
    prices = tmp_path / "prices.csv"
    cmd = [
        sys.executable, "-m", "triadnet.cli", "synth", "--model", "bipolar",
        "--n", "20", "--t", "80", "--rho-in", "0.4", "--rho-out", "-0.2",
        "--seed", "13", "--out", str(prices),
    ]
    # the CLI subprocesses import the same triadnet as this test process
    src = str(Path(triadnet.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    subprocess.run(cmd, check=True, capture_output=True, env=env)
    outputs = ("records.csv", "heatmap_auc_delta.csv", "heatmap_auc_absphi.csv",
               "heatmap_diff.csv", "timeseries.csv")
    blobs, pooled = {}, True
    # d and e run with one BLAS thread, so that --jobs 8 starts a pool wherever there are
    # 2 usable cores (the default thread count runs it in-process); -v logs that pool.
    one_thread = dict(env, OPENBLAS_NUM_THREADS="1")
    for name, jobs in (("a", 1), ("b", 1), ("c", 8), ("d", 1), ("e", 8)):
        outdir = tmp_path / name
        config = {
            "prices": str(prices),
            "sectors": str(tmp_path / "prices_sectors.csv"),
            "output_dir": str(outdir),
            "t_values": [15, 30],
            "step": 5,
            "timeseries_window": 20,
            "seed": 13,
        }
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(config))
        result = subprocess.run(
            [sys.executable, "-m", "triadnet.cli", *(["-v"] if name == "e" else []), "grid",
             "--config", str(cfg), "--jobs", str(jobs)],
            capture_output=True, text=True, env=one_thread if name in "de" else env,
        )
        assert result.returncode == 0, result.stderr
        blobs[name] = {f: (outdir / f).read_bytes() for f in outputs}
        if name == "e":
            pooled = result.stderr.count("process pool of") == 2  # grid and timeseries
    repeat_ok = blobs["a"] == blobs["b"]
    jobs_ok = blobs["a"] == blobs["c"] and blobs["d"] == blobs["e"]
    nonempty = all(len(v) > 0 for v in blobs["a"].values())
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    assert pooled or cores < 2, "--jobs 8 at one BLAS thread ran in-process"
    _report(11, "grid outputs byte-identical across runs and --jobs 1 vs 8",
            repeat_ok and jobs_ok and nonempty)
