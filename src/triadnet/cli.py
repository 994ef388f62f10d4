"""Command-line entry point wiring the whole pipeline.

Exit codes: 0 success, 1 usage/config error, 2 data error. All output files
are written atomically (temp file plus rename) with fixed 12-significant-digit
formatting, so identical inputs give byte-identical outputs regardless of the
parallelism degree.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

from . import __version__
from .balance import balance_report
from .correlation import CORR_KINDS
from .errors import DataError
from .experiment import (
    MIN_BIN_WIDTH,
    SCORE_KINDS,
    _window,
    aggregate_cells,
    build_dataset,
    default_t_values,
    roc,
    run_grid,
    stability_profile,
    timeseries_rows,
    window_correlation,
)
from .ingest import PANEL_FORMATS, load_panel, write_panel_long
from .output import (
    write_balance_json,
    write_edges_csv,
    write_heatmap_csv,
    write_json,
    write_matrix_csv,
    write_records_csv,
    write_roc_csv,
    write_stability_csv,
    write_timeseries_csv,
)
from .preprocess import MEDIAN_SCOPES, binarize, log_returns
from .svn import build_svn
from .synth import SynthSpec, generate

logger = logging.getLogger("triadnet")


class UsageError(Exception):
    """Bad flags or configuration; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@dataclass
class RunConfig:
    """Validated grid configuration loaded from a JSON file."""

    prices: str
    sectors: str
    output_dir: str
    format: str = "long"
    corr_kind: str = "phi"
    alpha: float = 0.1
    t_values: list = field(default_factory=default_t_values)
    step: int = 1
    median_scope: str = "universe"
    timeseries_window: int = 100
    seed: int = 0

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        path = Path(path)
        if not path.is_file():
            raise UsageError(f"config file not found: {path}")
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or not JSON
            raise UsageError(f"cannot parse config {path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise UsageError(f"config {path} must be a JSON object")
        unknown = set(raw) - {f.name for f in fields(cls)}
        if unknown:
            raise UsageError(f"unknown config keys in {path}: {sorted(unknown)}")
        for key in ("prices", "sectors", "output_dir"):
            if key not in raw:
                raise UsageError(f"config {path} is missing required key {key!r}")
        cfg = cls(**raw)
        checks = (
            ("prices", isinstance(cfg.prices, str), "a path"),
            ("sectors", isinstance(cfg.sectors, str), "a path"),
            ("output_dir", isinstance(cfg.output_dir, str), "a path"),
            ("format", cfg.format in PANEL_FORMATS, f"one of {PANEL_FORMATS}"),
            ("corr_kind", cfg.corr_kind in CORR_KINDS, f"one of {CORR_KINDS}"),
            ("median_scope", cfg.median_scope in MEDIAN_SCOPES, f"one of {MEDIAN_SCOPES}"),
            (
                "alpha",
                (_is_int(cfg.alpha) or isinstance(cfg.alpha, float)) and 0 < cfg.alpha < 1,
                "a number in (0, 1)",
            ),
            (
                "t_values",
                isinstance(cfg.t_values, list)
                and cfg.t_values
                and all(_is_int(t) and t >= 1 for t in cfg.t_values)
                and len(set(cfg.t_values)) == len(cfg.t_values),
                "a nonempty list of distinct positive integers",
            ),
            ("step", _is_int(cfg.step) and cfg.step >= 1, "an integer >= 1"),
            (
                "timeseries_window",
                _is_int(cfg.timeseries_window) and cfg.timeseries_window >= 2,
                "an integer >= 2",
            ),
            ("seed", _is_int(cfg.seed), "an integer"),
        )
        for key, ok, expected in checks:
            if not ok:
                raise UsageError(
                    f"config key {key!r} must be {expected}, got {getattr(cfg, key)!r}"
                )
        for key in ("prices", "sectors"):
            if not Path(getattr(cfg, key)).is_file():
                raise UsageError(f"{key} file not found: {getattr(cfg, key)}")
        return cfg


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _checked(convert, ok, expected):
    """argparse type: `convert` the text and require `ok(value)`, else a usage error."""

    def parse(text):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {expected}, got {text!r}")

    return parse


_POSITIVE_INT = _checked(int, lambda v: v >= 1, "an integer >= 1")
_SEED = _checked(int, lambda v: v >= 0, "an integer >= 0")
_WINDOW = _checked(int, lambda v: v >= 2, "an integer >= 2")
_ALPHA = _checked(float, lambda v: 0 < v < 1, "a number in (0, 1)")
_POSITIVE_FINITE = _checked(float, lambda v: 0 < v < float("inf"), "a finite number > 0")
_UNIT_INTERVAL = _checked(float, lambda v: 0 <= v < 1, "a number in [0, 1)")
_BIN_WIDTH = _checked(float, lambda v: MIN_BIN_WIDTH <= v < float("inf"), f"a finite number >= {MIN_BIN_WIDTH:g}")


def _add_panel_args(p):
    p.add_argument("--prices", required=True, help="price panel CSV")
    p.add_argument("--sectors", required=True, help="(ticker,sector) CSV")
    p.add_argument("--format", choices=PANEL_FORMATS, default="long")


def _add_window_args(p):
    p.add_argument("--end-date", required=True, help="last date of the calibration window")
    p.add_argument("--window", type=_WINDOW, required=True, help="window length in return days")


def build_parser() -> _Parser:
    parser = _Parser(prog="triadnet", description=__doc__)
    parser.add_argument("--version", action="version", version=f"triadnet {__version__}")
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest-check", help="load a panel and report its shape")
    _add_panel_args(p)
    p.set_defaults(func=cmd_ingest_check)

    p = sub.add_parser("synth", help="generate a synthetic market panel")
    p.add_argument("--model", choices=("paradise", "bipolar", "sector_block"), default="bipolar")
    p.add_argument("--n", type=_POSITIVE_INT, required=True, help="number of assets")
    p.add_argument("--t", type=_WINDOW, required=True, help="number of trading days (price rows)")
    p.add_argument("--rho-in", type=_UNIT_INTERVAL, default=0.3)
    p.add_argument("--rho-out", type=float, default=-0.1)
    p.add_argument("--noise-scale", type=_POSITIVE_FINITE, default=0.02)
    p.add_argument("--blocks", help="comma-separated block sizes (sector_block model)")
    p.add_argument("--seed", type=_SEED, default=0)
    p.add_argument("--out", required=True, help="long-format prices CSV to write")
    p.add_argument("--sectors-out", help="sectors CSV (default: <out stem>_sectors.csv)")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("svn", help="build a statistically validated network")
    _add_panel_args(p)
    _add_window_args(p)
    p.add_argument("--alpha", type=_ALPHA, default=0.1, help="false discovery rate")
    p.add_argument("--polarity", choices=("positive", "negative"), default="positive")
    p.add_argument("--median-scope", choices=MEDIAN_SCOPES, default="universe")
    p.add_argument("--out-prefix", required=True, help="writes <prefix>_edges.csv and <prefix>_adjacency.csv")
    p.set_defaults(func=cmd_svn)

    p = sub.add_parser("balance", help="balance analytics of one window")
    _add_panel_args(p)
    _add_window_args(p)
    p.add_argument("--corr-kind", choices=CORR_KINDS, default="phi")
    p.add_argument("--median-scope", choices=MEDIAN_SCOPES, default="universe")
    p.add_argument("--out", required=True, help="report JSON path")
    p.add_argument("--delta-out", help="optional pair-stability matrix CSV")
    p.set_defaults(func=cmd_balance)

    p = sub.add_parser("predict", help="score sign-switch prediction for one window pair")
    _add_panel_args(p)
    p.add_argument("--end-date", required=True, help="last date of the in-sample window")
    p.add_argument("--tin", type=_POSITIVE_INT, required=True, help="in-sample returns")
    p.add_argument("--tout", type=_POSITIVE_INT, required=True, help="out-of-sample returns")
    p.add_argument("--corr-kind", choices=CORR_KINDS, default="phi")
    p.add_argument("--median-scope", choices=MEDIAN_SCOPES, default="universe")
    p.add_argument("--bin-width", type=_BIN_WIDTH, default=0.05)
    p.add_argument("--output-dir", default=".")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("grid", help="full rolling (t_in, t_out) experiment from a config file")
    p.add_argument("--config", required=True, help="JSON run configuration")
    p.add_argument("--jobs", type=_POSITIVE_INT, default=os.cpu_count() or 1)
    p.set_defaults(func=cmd_grid)

    return parser


def cmd_ingest_check(args) -> int:
    panel = load_panel(args.prices, args.sectors, args.format)
    n_cells = panel.n_dates * panel.n_assets
    missing = 1.0 - panel.present.sum() / n_cells if n_cells else 0.0
    print(f"dates: {panel.n_dates} ({panel.dates[0]} .. {panel.dates[-1]})")
    print(f"assets: {panel.n_assets}")
    print(f"sectors: {len(set(panel.sectors.values()))}")
    print(f"missing: {missing:.4f}")
    return 0


def cmd_synth(args) -> int:
    blocks = None
    if args.blocks:
        try:
            blocks = tuple(int(x) for x in args.blocks.split(","))
        except ValueError:
            raise UsageError(f"cannot parse --blocks {args.blocks!r}") from None
    spec = SynthSpec(
        n_assets=args.n,
        n_days=args.t,
        model=args.model,
        block_sizes=blocks,
        rho_in=args.rho_in,
        rho_out=args.rho_out,
        noise_scale=args.noise_scale,
        seed=args.seed,
    )
    panel = generate(spec)
    out = Path(args.out)
    sectors_out = Path(args.sectors_out) if args.sectors_out else out.with_name(out.stem + "_sectors.csv")
    write_panel_long(panel, out, sectors_out)
    print(f"wrote {out} and {sectors_out} ({panel.n_dates} days x {panel.n_assets} assets)")
    return 0


def _window_returns(args):
    """The --window returns ending at --end-date, cut from the panel's returns by `_window`."""
    panel = load_panel(args.prices, args.sectors, args.format)
    return _window((log_returns(panel), None), panel.date_index(args.end_date), args.window)[0]


def cmd_svn(args) -> int:
    b = binarize(_window_returns(args), median_scope=args.median_scope)
    net = build_svn(b, alpha=args.alpha, polarity=args.polarity)
    prefix = Path(args.out_prefix)
    write_edges_csv(net, prefix.with_name(prefix.name + "_edges.csv"))
    write_matrix_csv(
        net.assets, net.adjacency, prefix.with_name(prefix.name + "_adjacency.csv")
    )
    print(f"{net.n_links} validated links among {len(net.assets)} assets ({args.polarity}, alpha={args.alpha})")
    return 0


def cmd_balance(args) -> int:
    corr = window_correlation(_window_returns(args), args.corr_kind, args.median_scope)
    report = balance_report(corr)
    write_balance_json(args.end_date, report, args.out)
    if args.delta_out:
        write_matrix_csv(corr.assets, report.delta, args.delta_out)
    print(f"H={report.h:.6f} lambda1_frac={report.eig_fracs[0]:.6f} n={corr.n}")
    return 0


def cmd_predict(args) -> int:
    panel = load_panel(args.prices, args.sectors, args.format)
    ds = build_dataset(
        panel, args.end_date, args.tin, args.tout,
        corr_kind=args.corr_kind, median_scope=args.median_scope,
    )
    curves = {name: roc(ds.labels, getattr(ds, f"scores_{name}")) for name in SCORE_KINDS}
    profiles = {name: stability_profile(ds, name, args.bin_width) for name in SCORE_KINDS}
    outdir = Path(args.output_dir)
    write_roc_csv(curves, outdir / f"roc_{args.end_date}.csv")
    write_stability_csv(profiles, outdir / f"stability_profile_{args.end_date}.csv")
    print(
        f"auc_delta={curves['delta'].auc:.6f} auc_absphi={curves['absphi'].auc:.6f} "
        f"pairs={ds.n_pairs} switches={int(ds.labels.sum())}"
    )
    return 0


def cmd_grid(args) -> int:
    cfg = RunConfig.from_file(args.config)
    panel = load_panel(cfg.prices, cfg.sectors, cfg.format)
    records, skipped = run_grid(
        panel,
        cfg.t_values,
        cfg.step,
        corr_kind=cfg.corr_kind,
        median_scope=cfg.median_scope,
        jobs=args.jobs,
    )
    cells = aggregate_cells(records)
    outdir = Path(cfg.output_dir)
    write_records_csv(records, outdir / "records.csv")
    write_heatmap_csv(cells, cfg.t_values, outdir / "heatmap_auc_delta.csv", "delta")
    write_heatmap_csv(cells, cfg.t_values, outdir / "heatmap_auc_absphi.csv", "absphi")
    write_heatmap_csv(cells, cfg.t_values, outdir / "heatmap_diff.csv", "diff")
    rows = timeseries_rows(
        panel,
        cfg.timeseries_window,
        step=cfg.step,
        corr_kind=cfg.corr_kind,
        median_scope=cfg.median_scope,
        alpha=cfg.alpha,
        jobs=args.jobs,
    )
    write_timeseries_csv(rows, outdir / "timeseries.csv")
    n_skipped = sum(skipped.values())
    write_json(
        {
            "records": len(records),
            "windows_attempted": len(records) + n_skipped,
            "windows_skipped": n_skipped,
            "timeseries_rows": len(rows),
            "seed": cfg.seed,
            "corr_kind": cfg.corr_kind,
            "alpha": cfg.alpha,
            "t_values": cfg.t_values,
            "step": cfg.step,
            "median_scope": cfg.median_scope,
        },
        outdir / "run_summary.json",
    )
    print(f"wrote {len(records)} records to {outdir} ({skipped['infeasible']} windows skipped as "
          f"infeasible, {skipped['single_class']} as single-class)")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
