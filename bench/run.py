"""Benchmark of the `triadnet grid` CLI on seeded synthetic panels.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is imported from the
checkout's `src/`. Inputs are generated from --seed (workloads.py), then
`grid` runs in a fresh process per repeat (grid_child.py) until --seconds are
used, at least three times. Every repeat's outputs are checked (see
`check_outputs`) and must be byte-identical across the repeats; at the pinned
seed they must also match the sha256s in expected.json.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, as medians over
the repeats. --trace 1 runs rounds of (untraced --jobs 1, untraced --jobs 2,
traced --jobs 1) and reports the per-layer metrics. The last stdout line is
one JSON object {correct, attempted, failed, metrics}; the lines before it
give every metric with its unit and sample count, fail_frac, and the machine
facts. The full record of the invocation goes to
.bench_work/<workload>/result.json in the checkout.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, write_inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

OUTPUTS = (
    "records.csv",
    "heatmap_auc_delta.csv",
    "heatmap_auc_absphi.csv",
    "heatmap_diff.csv",
    "timeseries.csv",
    "run_summary.json",
)
GRID_OUTPUTS = OUTPUTS[:4]  # written by the grid stage alone, so free of BLAS threading
MIN_REPEATS = 3
DEADLINE_S = 170.0  # the whole invocation must end within 180 s


def _fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    raise SystemExit(2)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def machine_facts(workload) -> dict:
    """What the numbers depend on, recorded with every result."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        commit = commit.stdout.strip() if commit.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "triadnet").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": workload.blas_threads,
        "jobs": workload.jobs,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "loadavg_start": _loadavg(),
    }


def _cells(path: Path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _out_of_range(values, lo, hi) -> bool:
    return any(v != "" and not lo <= float(v) <= hi for v in values)


def check_outputs(outdir: Path, workload) -> tuple:
    """(sha256 per output, problems): the invariants that hold at any seed."""
    missing = [name for name in OUTPUTS if not (outdir / name).is_file()]
    if missing:
        return {}, [f"missing outputs {missing}"]
    hashes = {name: _sha256(outdir / name) for name in OUTPUTS}
    problems = []
    summary = json.loads((outdir / "run_summary.json").read_text(encoding="utf-8"))
    header, rows = _cells(outdir / "records.csv")
    col = {name: i for i, name in enumerate(header)}
    if len(rows) != summary["records"]:
        problems.append(f"records.csv has {len(rows)} rows, run_summary says {summary['records']}")
    for name in ("auc_delta", "auc_absphi"):
        if _out_of_range((r[col[name]] for r in rows), 0.0, 1.0):
            problems.append(f"records.csv {name} outside [0, 1]")
    for name in ("h_in", "h_out"):
        if _out_of_range((r[col[name]] for r in rows), -1.0, 1.0):
            problems.append(f"records.csv {name} outside [-1, 1]")
    for name, lo in (("heatmap_auc_delta.csv", 0.0), ("heatmap_auc_absphi.csv", 0.0), ("heatmap_diff.csv", -1.0)):
        _, cells = _cells(outdir / name)
        if _out_of_range((v for r in cells for v in r[1:]), lo, 1.0):
            problems.append(f"{name} has a mean AUC outside [{lo:g}, 1]")
    header, rows = _cells(outdir / "timeseries.csv")
    if _out_of_range((r[header.index("H")] for r in rows), -1.0, 1.0):
        problems.append("timeseries.csv H outside [-1, 1]")
    if summary["windows_attempted"] != workload.n_windows():
        problems.append(
            f"windows_attempted {summary['windows_attempted']} != {workload.n_windows()} expected"
        )
    if not 0 <= summary["timeseries_rows"] <= workload.n_timeseries():
        problems.append(f"timeseries_rows {summary['timeseries_rows']} out of range")
    return hashes, problems


def _stop_group(proc: subprocess.Popen) -> None:
    """Kill the child and its pool workers, and wait until all have ended."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.communicate()
    for _ in range(100):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def _child_env(blas_threads: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(blas_threads)
    return env


def run_grid(workload, config: Path, workdir: Path, jobs: int, blas: int, traced: bool, deadline: float) -> dict:
    """One grid run in a fresh process; returns its record, with `problems` if it failed."""
    outdir = workdir / "out"
    for name in OUTPUTS:
        (outdir / name).unlink(missing_ok=True)
    stats_path = workdir / "stats.json"
    stats_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "grid_child.py"), "--config", str(config),
           "--jobs", str(jobs), "--stats", str(stats_path)]
    if traced:
        cmd += ["--spans", str(workdir / "spans.jsonl")]
    record = {"jobs": jobs, "blas_threads": blas, "traced": traced, "problems": []}
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(blas), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        _stop_group(proc)
        record["problems"].append("timed out")
        return record
    if proc.returncode != 0 or not stats_path.is_file():
        record["problems"].append(f"exit code {proc.returncode}: {err.strip()[-500:]}")
        return record
    stats = json.loads(stats_path.read_text(encoding="utf-8"))
    if Path(stats.pop("triadnet_file")).resolve().parent != (SRC / "triadnet").resolve():
        record["problems"].append("triadnet was not imported from the checkout's src/")
    record.update(stats)
    record["hashes"], problems = check_outputs(outdir, workload)
    record["problems"] += problems
    record["summary"] = json.loads((outdir / "run_summary.json").read_text()) if not problems else None
    record["bytes_written"] = sum((outdir / name).stat().st_size for name in OUTPUTS) if not problems else 0
    return record


def _expected_hashes(workload, seed: int):
    """Pinned sha256s for this workload, or None when the seed is not the pinned one."""
    expected = json.loads((BENCH / "expected.json").read_text(encoding="utf-8"))
    if seed != expected["seed"]:
        return None
    entry = expected["workloads"].get(workload.name)
    if entry is None:
        return {"problem": "no pinned hashes recorded for this workload"}
    if (entry["jobs"], entry["blas_threads"]) != (workload.jobs, workload.blas_threads):
        return {"problem": "pinned hashes were recorded at other thread settings"}
    return entry


def cross_check(runs: list, workload, seed: int) -> None:
    """Mark runs whose outputs differ from the first good run, or from the pinned hashes."""
    pinned = _expected_hashes(workload, seed)
    first_by_blas = {}
    first = None
    for run in runs:
        if run["problems"]:
            continue
        ref = first_by_blas.setdefault(run["blas_threads"], run["hashes"])
        first = first or run["hashes"]
        diff = [n for n in OUTPUTS if run["hashes"][n] != ref[n]]
        diff += [n for n in GRID_OUTPUTS if run["hashes"][n] != first[n] and n not in diff]
        if diff:
            run["problems"].append(f"outputs differ between repeats: {diff}")
        if pinned is not None and run["blas_threads"] == workload.blas_threads:
            if "problem" in pinned:
                run["problems"].append(pinned["problem"])
            else:
                bad = [n for n in OUTPUTS if run["hashes"][n] != pinned["sha256"][n]]
                if bad:
                    run["problems"].append(f"outputs differ from the pinned sha256s: {bad}")


def _repeat(step, seconds: float, min_count: int, deadline: float) -> list:
    """Call step() until `seconds` are used (at least min_count times) or a step times out."""
    results = []
    start = time.monotonic()
    while True:
        batch = step()
        results += batch
        if any("timed out" in r["problems"] for r in batch):
            break
        n = len(results) // len(batch)
        elapsed = time.monotonic() - start
        per = elapsed / n
        if n >= min_count and elapsed + per > seconds:
            break
        if time.monotonic() + per > deadline:
            break
    return results


def end_to_end(workload, runs: list) -> dict:
    good = [r for r in runs if not r["problems"]]
    return {
        "run_s": [r["run_s"] for r in good],
        "setup_s": [r["stages"]["load_panel"] for r in good],
        "grid_windows_per_s": [r["summary"]["windows_attempted"] / r["stages"]["run_grid"] for r in good],
        "timeseries_rows_per_s": [workload.n_timeseries() / r["stages"]["timeseries_rows"] for r in good],
        "peak_rss_mb": [r["peak_rss_mb"] for r in good],
    }


def per_layer(workload, runs: list) -> dict:
    """Per-layer samples, one per round, from the traced runs and their untraced twins."""
    good = [r for r in runs if not r["problems"]]
    traced = [r for r in good if r["traced"]]
    base = [r for r in good if not r["traced"] and r["jobs"] == 1]
    pool = [r for r in good if not r["traced"] and r["jobs"] == 2]
    out = {}

    def add(name, value):
        out.setdefault(name, []).append(value)

    for r in traced:
        spans, counts = r["spans"], r["counts"]

        def total(name):
            return spans.get(name, {}).get("total_s", 0.0)

        def calls(name):
            return spans.get(name, {}).get("calls", 0)

        summary = r["summary"]
        add("ingest.load_panel_s", total("ingest.load_panel"))
        add("ingest.rows_parsed", counts.get("rows_parsed", 0))
        add("ingest.slice_window_s", total("ingest.slice_window"))
        add("ingest.slice_window.calls", calls("ingest.slice_window"))
        add("preprocess.log_returns_s", total("preprocess.log_returns"))
        add("preprocess.binarize_s", total("preprocess.binarize"))
        add("preprocess.binarize.calls", calls("preprocess.binarize"))
        add("preprocess.complete_case.calls", calls("preprocess.complete_case"))
        add("preprocess.survivor_frac", counts["survivors_kept"] / counts["survivors_in"])
        add("correlation.corr_matrix_s", r["corr_kernel_s"])
        add("correlation.phi_matrix.calls", calls("correlation.phi_matrix"))
        add("correlation.partial_pearson.calls", calls("correlation.partial_pearson"))
        add("correlation.sign_matrix_s", total("correlation.sign_matrix"))
        add("correlation.repeat_frac", counts["corr_repeats"] / counts["corr_calls"])
        add("svn.build_svn_s", total("svn.build_svn"))
        add("svn.build_svn.calls", calls("svn.build_svn"))
        add("svn.pairs_tested", counts.get("pairs_tested", 0))
        add("svn.links_kept", counts.get("links_kept", 0))
        add("svn.build_svn_peak_mb", counts.get("build_svn_peak_mb", 0.0))
        add("balance.hamiltonian_s", total("balance.hamiltonian"))
        add("balance.hamiltonian.calls", calls("balance.hamiltonian"))
        add("balance.pair_stability_s", total("balance.pair_stability"))
        add("balance.pair_stability.calls", calls("balance.pair_stability"))
        add("balance.spectral_summary_s", total("balance.spectral_summary"))
        add("balance.matmul_flops", counts.get("matmul_flops", 0))
        add("graphmetrics.assortativity_s", total("graphmetrics.assortativity"))
        add("graphmetrics.assortativity.calls", calls("graphmetrics.assortativity"))
        add("experiment.roc_s", total("experiment.roc"))
        add("experiment.roc.calls", calls("experiment.roc"))
        add("experiment.run_grid_self_s", spans["experiment.run_grid"]["self_s"])
        add("experiment.timeseries_self_s", spans["experiment.timeseries_rows"]["self_s"])
        add("experiment.windows_attempted", summary["windows_attempted"])
        add("experiment.records_frac", summary["records"] / summary["windows_attempted"])
        add("output.write_s", sum(v["total_s"] for k, v in spans.items() if k.startswith("output.")))
        add("output.bytes_written", r["bytes_written"])
    if traced and base and pool:
        add("experiment.pool_speedup",
            statistics.median([r["stages"]["run_grid"] for r in base]) / statistics.median([r["stages"]["run_grid"] for r in pool]))
        add("cli.trace_overhead_frac",
            statistics.median([r["run_s"] for r in traced]) / statistics.median([r["run_s"] for r in base]) - 1.0)
    return out


def _self_time_problems(runs: list) -> None:
    """The spans' self times must add up to the traced run_s."""
    for r in runs:
        if r["traced"] and not r["problems"]:
            self_sum = sum(v["self_s"] for v in r["spans"].values())
            if abs(self_sum - r["run_s"]) > 1e-6 * max(1.0, r["run_s"]):
                r["problems"].append(f"span self times sum to {self_sum}, traced run_s is {r['run_s']}")


def bench(workload, seed: int, seconds: float, trace: bool, workdir: Path) -> int:
    """Run one benchmark invocation and print its result; returns the exit code."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if trace else "end_to_end"]
    deadline = time.monotonic() + DEADLINE_S

    facts = machine_facts(workload)
    config = write_inputs(workload, seed, workdir)
    # Compiles triadnet's bytecode and pages in the LAPACK code the runs use.
    warm_code = "import numpy as np, triadnet.cli; np.linalg.eigh(np.eye(200) + 0.5)"
    warm = subprocess.run([sys.executable, "-c", warm_code], cwd=ROOT,
                          env=_child_env(workload.blas_threads), capture_output=True, timeout=60)
    if warm.returncode != 0:
        _fail(f"cannot import triadnet from {SRC}: {warm.stderr.decode()[-500:]}")

    if trace:
        def step():
            return [
                run_grid(workload, config, workdir, 1, workload.blas_threads, False, deadline),
                run_grid(workload, config, workdir, 2, 1, False, deadline),
                run_grid(workload, config, workdir, 1, workload.blas_threads, True, deadline),
            ]
        runs = _repeat(step, seconds, 1, deadline)
        cross_check(runs, workload, seed)
        _self_time_problems(runs)
        samples = per_layer(workload, runs)
    else:
        def step():
            return [run_grid(workload, config, workdir, workload.jobs, workload.blas_threads, False, deadline)]
        runs = _repeat(step, seconds, MIN_REPEATS, deadline)
        cross_check(runs, workload, seed)
        samples = end_to_end(workload, runs)
    facts["loadavg_end"] = _loadavg()

    failed = sum(1 for r in runs if r["problems"])
    metrics = {
        m["name"]: {"value": statistics.median(samples[m["name"]]), "unit": m["unit"]}
        for m in declared
        if samples.get(m["name"])
    }
    result = {"correct": failed == 0, "attempted": len(runs), "failed": failed, "metrics": metrics}
    record = dict(result, workload=workload.name, seed=seed, trace=trace, facts=facts, samples=samples, runs=runs)
    (workdir / "result.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for r in runs:
        for problem in r["problems"]:
            print(f"{workload.name} FAILED run (jobs={r['jobs']}, traced={r['traced']}): {problem}")
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        _fail(f"no successful run measured {missing}")
    for m in declared:
        print(f"{workload.name} {m['name']} = {metrics[m['name']]['value']:.6g} {m['unit']} "
              f"(median of {len(samples[m['name']])})")
    print(f"{workload.name} fail_frac = {failed / len(runs):.6g} ratio ({failed} of {len(runs)} runs)")
    print("facts " + json.dumps(facts, sort_keys=True))
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "triadnet" / "cli.py").is_file():
        _fail(f"no program source at {SRC / 'triadnet'}: run from a full checkout")
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    return bench(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), WORK / args.workload)


if __name__ == "__main__":
    raise SystemExit(main())
