"""Toy-size smoke test of the benchmark: every workload shape, both modes.

It checks that every metric of BENCHMARK.json is printed with its unit and
that the output checks run and catch bad outputs. It gates on no timing.
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TOY_SIZES = {
    "grid-phi-hd": dict(n_assets=12, block_sizes=None),
    "svn-wide": dict(n_assets=12, block_sizes=(3, 3, 3, 3)),
    "grid-gaps-pp": dict(n_assets=12, block_sizes=(4, 4, 4)),
}


def toy(name):
    return dataclasses.replace(
        WORKLOADS[name], n_rows=60, t_values=(10, 20), step=10, timeseries_window=20, **TOY_SIZES[name]
    )


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_metric_is_printed_with_its_unit(name, trace, tmp_path, capsys):
    assert run.bench(toy(name), seed=3, seconds=0, trace=trace, workdir=tmp_path) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer" if trace else "end_to_end"]

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    for m in declared:
        assert any(line.startswith(f"{name} {m['name']} = ") and f" {m['unit']} (median of " in line for line in lines)
    assert f"{name} fail_frac = 0 ratio" in "\n".join(lines)


def test_output_check_catches_bad_outputs(tmp_path, capsys):
    w = toy("grid-phi-hd")
    run.bench(w, seed=3, seconds=0, trace=False, workdir=tmp_path)
    capsys.readouterr()
    out = tmp_path / "out"
    hashes, problems = run.check_outputs(out, w)
    assert problems == [] and set(hashes) == set(run.OUTPUTS)

    header, *rows = (out / "records.csv").read_text().splitlines()
    col = header.split(",").index("auc_delta")
    cells = rows[0].split(",")
    cells[col] = "1.5"
    (out / "records.csv").write_text("\n".join([header, ",".join(cells)] + rows[1:-1]) + "\n")
    _, problems = run.check_outputs(out, w)
    assert any("auc_delta outside [0, 1]" in p for p in problems)
    assert any("rows, run_summary says" in p for p in problems)


def test_repeats_and_pinned_hashes_are_compared():
    w = WORKLOADS["grid-phi-hd"]
    pinned = json.loads((BENCH / "expected.json").read_text())["workloads"][w.name]["sha256"]
    first = {"problems": [], "blas_threads": w.blas_threads, "hashes": dict(pinned)}
    second = {"problems": [], "blas_threads": w.blas_threads, "hashes": dict(pinned, **{"records.csv": "0"})}
    run.cross_check([first, second], w, seed=7)
    assert first["problems"] == []
    assert any("between repeats" in p for p in second["problems"])
    assert any("pinned sha256s" in p for p in second["problems"])
