"""The README's "Library use" example runs unchanged against the package."""

import re
from pathlib import Path

from triadnet.cli import main

from conftest import forks_blas_threads

README = Path(__file__).resolve().parents[1] / "README.md"


def library_use_block() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


@forks_blas_threads
def test_readme_library_use_block_runs(tmp_path, monkeypatch, pool_spy):
    """Its `run_grid(..., jobs=4)` runs in a pool of 2 on 2 cores at one BLAS thread."""
    monkeypatch.chdir(tmp_path)
    argv = ["synth", "--model", "bipolar", "--n", "30", "--t", "600", "--seed", "7"]
    assert main([*argv, "--out", "prices.csv"]) == 0
    names = {}
    exec(compile(library_use_block(), str(README), "exec"), names)
    assert names["records"] and set(names["skipped"]) == {"infeasible", "single_class"}
    assert pool_spy.workers == [2]
