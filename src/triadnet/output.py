"""CSV/JSON writers for analysis artifacts. All numeric cells go through
util.fmt so identical runs produce byte-identical files."""

from __future__ import annotations

import json
from dataclasses import fields
from itertools import chain

from .experiment import ExperimentRecord
from .util import atomic_write_text, fmt


def _write_rows(path, header, rows) -> None:
    """Write a CSV file: the header cells, then one line per row.

    String cells are written as they are; every other cell goes through
    `fmt`, which prints an integer below 10**12 as `str` would.
    """
    cells = ((c if isinstance(c, str) else fmt(c) for c in row) for row in chain([header], rows))
    atomic_write_text(path, (",".join(row) + "\n" for row in cells))


def write_records_csv(records, path) -> None:
    """One row per record; the columns are the fields of `ExperimentRecord`."""
    names = [f.name for f in fields(ExperimentRecord)]
    _write_rows(path, names, ([getattr(r, name) for name in names] for r in records))


def write_heatmap_csv(cells, t_values, path, which: str) -> None:
    """Grid means as rows = t_in, columns = t_out; empty cell when no records.

    which: "delta", "absphi" or "diff" (delta minus absphi).
    """
    t_values = sorted(set(t_values))

    def value(cell):
        if cell is None:
            return None
        mean_delta, mean_absphi, _ = cell
        return {"delta": mean_delta, "absphi": mean_absphi, "diff": mean_delta - mean_absphi}[which]

    rows = ([t_in, *(value(cells.get((t_in, t_out))) for t_out in t_values)] for t_in in t_values)
    _write_rows(path, ["t_in\\t_out", *t_values], rows)


def write_roc_csv(curves: dict, path) -> None:
    """Long-form ROC points: one row per (discriminator, threshold step)."""
    rows = ((name, fpr, tpr) for name in sorted(curves) for fpr, tpr in curves[name].points)
    _write_rows(path, ["discriminator", "fpr", "tpr"], rows)


def write_stability_csv(profiles: dict, path) -> None:
    """Stability profiles: discriminator, bin center, P(sign preserved), count."""
    rows = ((name, *point) for name in sorted(profiles) for point in profiles[name])
    _write_rows(path, ["discriminator", "bin_center", "p_preserved", "count"], rows)


def write_timeseries_csv(rows, path) -> None:
    """Rolling per-date diagnostics; G and the eigenvector overlap may be null."""
    keys = ("date", "h", "g", "density", "volatility", "lambda1_frac", "v1_overlap")
    header = ["date", "H", "G", "density", "volatility", "lambda1_frac", "v1_overlap"]
    _write_rows(path, header, ([row[key] for key in keys] for row in rows))


def write_edges_csv(svn, path) -> None:
    """Validated links as (ticker_i, ticker_j, p-value, polarity) rows."""
    rows = ((svn.assets[i], svn.assets[j], p, svn.polarity) for (i, j), p in sorted(svn.pvalues.items()))
    _write_rows(path, ["i", "j", "p", "polarity"], rows)


def write_matrix_csv(assets, values, path) -> None:
    """Square matrix with the asset list as header row and first column."""
    _write_rows(path, ["", *assets], ((asset, *row) for asset, row in zip(assets, values)))


def write_balance_json(end_date: str, report, path) -> None:
    payload = {
        "end_date": end_date,
        "H": report.h,
        "lambda1_frac": report.eig_fracs[0],
        "lambda2_frac": report.eig_fracs[1],
    }
    write_json(payload, path)


def write_json(payload: dict, path) -> None:
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
