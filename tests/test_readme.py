"""The README's "Quick start" commands and "Library use" example run unchanged against the package."""

import re
import shlex
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


def quick_start_commands() -> list:
    """The argv of each `triadnet` command in the Quick start block, continuation lines joined."""
    section = README.read_text(encoding="utf-8").split("\n## Quick start\n", 1)[1]
    block = re.search(r"```bash\n(.*?)```", section, re.S).group(1).replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("triadnet ")]


def test_readme_quick_start_commands_run(tmp_path, monkeypatch):
    """Every Quick start command but `grid`, which needs a config file, exits 0, in order."""
    monkeypatch.chdir(tmp_path)
    commands = [argv for argv in quick_start_commands() if argv[0] != "grid"]
    assert [argv[0] for argv in commands] == ["synth", "ingest-check", "svn", "balance", "predict"]
    for argv in commands:
        assert main(argv) == 0, argv
    assert {"net_edges.csv", "balance.json", "delta.csv", "results"} <= {p.name for p in tmp_path.iterdir()}
