"""One `triadnet grid` run in a fresh process, timed from outside the package.

    python bench/grid_child.py --config CONFIG --jobs J --stats STATS.json [--spans SPANS.jsonl]

Untraced (no --spans): clocks go around the three calls `cmd_grid` makes
(`load_panel`, `run_grid`, `timeseries_rows`); nothing else is touched.
Traced (--spans): every public function of every layer runs inside a span
(see tracer.py); the spans are written to SPANS.jsonl after the run.

run_s runs from the start of this process, before triadnet and numpy are
imported, to the return of `triadnet.cli.main`, after the last output is
written. peak_rss_mb is the larger of this process's ru_maxrss and that of
its reaped children (the process-pool workers). The exit code is grid's.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

STAGES = ("load_panel", "run_grid", "timeseries_rows")


def _stage_clocks(cli) -> dict:
    stages = dict.fromkeys(STAGES, 0.0)

    def clock(name, fn):
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                stages[name] += time.perf_counter() - start

        return timed

    for name in STAGES:
        setattr(cli, name, clock(name, getattr(cli, name)))
    return stages


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--config", required=True)
    ap.add_argument("--jobs", type=int, required=True)
    ap.add_argument("--stats", required=True)
    ap.add_argument("--spans")
    args = ap.parse_args()

    tracer = None
    if args.spans:
        from tracer import Tracer

        tracer = Tracer(T0)
    import triadnet.cli as cli

    argv = ["grid", "--config", args.config, "--jobs", str(args.jobs)]
    if tracer is None:
        stages = _stage_clocks(cli)
        rc = cli.main(argv)
    else:
        stages = None
        rc = tracer.install()(argv)
    run_s = time.perf_counter() - T0 if tracer is None else tracer.close()

    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    stats = {
        "rc": rc,
        "run_s": run_s,
        "stages": stages,
        "peak_rss_mb": kib / 1024.0,
        "triadnet_file": cli.__file__,
    }
    if tracer is not None:
        stats["spans"] = tracer.summary()
        stats["counts"] = dict(tracer.counts)
        stats["corr_kernel_s"] = tracer.corr_kernel_s()
        tracer.write_spans(args.spans)
    Path(args.stats).write_text(json.dumps(stats, indent=1) + "\n", encoding="utf-8")
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
