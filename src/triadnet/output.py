"""CSV/JSON writers for analysis artifacts. All numeric cells go through
util.fmt so identical runs produce byte-identical files."""

from __future__ import annotations

import json

from .util import atomic_write_text, fmt


def write_records_csv(records, path) -> None:
    lines = [
        "end_date,t_in,t_out,q_in,q_out,auc_delta,auc_absphi,h_in,h_out,volatility,n_pairs"
    ]
    for r in records:
        lines.append(
            ",".join(
                [
                    r.end_date,
                    str(r.t_in),
                    str(r.t_out),
                    fmt(r.q_in),
                    fmt(r.q_out),
                    fmt(r.auc_delta),
                    fmt(r.auc_absphi),
                    fmt(r.h_in),
                    fmt(r.h_out),
                    fmt(r.volatility),
                    str(r.n_pairs),
                ]
            )
        )
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_heatmap_csv(cells, t_values, path, which: str) -> None:
    """Grid means as rows = t_in, columns = t_out; empty cell when no records.

    which: "delta", "absphi" or "diff" (delta minus absphi).
    """
    t_values = sorted(set(t_values))
    header = "t_in\\t_out," + ",".join(str(t) for t in t_values)
    lines = [header]
    for t_in in t_values:
        row = [str(t_in)]
        for t_out in t_values:
            cell = cells.get((t_in, t_out))
            if cell is None:
                row.append("")
            else:
                mean_delta, mean_absphi, _ = cell
                value = {
                    "delta": mean_delta,
                    "absphi": mean_absphi,
                    "diff": mean_delta - mean_absphi,
                }[which]
                row.append(fmt(value))
        lines.append(",".join(row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_roc_csv(curves: dict, path) -> None:
    """Long-form ROC points: one row per (discriminator, threshold step)."""
    lines = ["discriminator,fpr,tpr"]
    for name in sorted(curves):
        for fpr, tpr in curves[name].points:
            lines.append(f"{name},{fmt(fpr)},{fmt(tpr)}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_stability_csv(profiles: dict, path) -> None:
    """Stability profiles: discriminator, bin center, P(sign preserved), count."""
    lines = ["discriminator,bin_center,p_preserved,count"]
    for name in sorted(profiles):
        for center, prob, count in profiles[name]:
            lines.append(f"{name},{fmt(center)},{fmt(prob)},{count}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_timeseries_csv(rows, path) -> None:
    """Rolling per-date diagnostics; G and the eigenvector overlap may be null."""
    lines = ["date,H,G,density,volatility,lambda1_frac,v1_overlap"]
    for row in rows:
        lines.append(
            ",".join(
                [
                    row["date"],
                    fmt(row["h"]),
                    fmt(row.get("g")),
                    fmt(row["density"]),
                    fmt(row["volatility"]),
                    fmt(row["lambda1_frac"]),
                    fmt(row.get("v1_overlap")),
                ]
            )
        )
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_edges_csv(svn, path) -> None:
    """Validated links as (ticker_i, ticker_j, p-value, polarity) rows."""
    lines = ["i,j,p,polarity"]
    for (i, j), p in sorted(svn.pvalues.items()):
        lines.append(f"{svn.assets[i]},{svn.assets[j]},{fmt(p)},{svn.polarity}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_matrix_csv(assets, values, path) -> None:
    """Square matrix with the asset list as header row and first column."""
    lines = ["," + ",".join(assets)]
    for asset, row in zip(assets, values):
        lines.append(asset + "," + ",".join(fmt(x) for x in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_balance_json(end_date: str, report, path) -> None:
    payload = {
        "end_date": end_date,
        "H": report.h,
        "lambda1_frac": report.eig_fracs[0],
        "lambda2_frac": report.eig_fracs[1],
    }
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_json(payload: dict, path) -> None:
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
