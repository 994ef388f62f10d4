"""Exact text of every writer on tiny hand-built inputs.

The expected strings pin the output format byte for byte: the header, the
column order, 12 significant digits, integers printed without a decimal point
and null cells left empty.
"""

import os
import stat

import numpy as np
import pytest

from triadnet import output
from triadnet.balance import BalanceReport
from triadnet.experiment import ExperimentRecord, RocResult
from triadnet.svn import Svn
from triadnet.util import atomic_write_text

RECORDS = [
    ExperimentRecord("2020-01-02", 20, 33, 0.5, 0.825, 0.6123456789012345, 0.5, -0.2, -1 / 3, 0.0123, 190),
    ExperimentRecord("2020-03-04", 155, 20, 1.55, 0.2, 1.0, 0.0, -1.0, 0.1, 2.5e-5, 4950),
]
CELLS = {(20, 20): (0.6, 0.55, 3), (20, 33): (0.7, 0.5 + 1 / 3, 1)}
ADJACENCY = np.array([[0, 1, 1], [1, 0, 0], [1, 0, 0]], dtype=np.int8)
NET = Svn(("AAA", "BBB", "CCC"), ADJACENCY, "negative", 0.1, {(0, 2): 0.0123456789012345, (0, 1): 1.5e-9})
DELTA = np.array([[0.0, 1 / 3, -1.0], [1 / 3, 0.0, 0.25], [-1.0, 0.25, 0.0]])
TIMESERIES = [
    {"date": "2020-05-06", "h": -0.2, "g": None, "density": 0.5, "volatility": 0.0123,
     "lambda1_frac": 0.3, "v1_overlap": None},
    {"date": "2020-05-07", "h": 1 / 3, "g": -0.125, "density": None, "volatility": 1e-13,
     "lambda1_frac": 0.0, "v1_overlap": 0.98765432101234},
]

# (name, writer call on a path, expected file text)
WRITES = [
    (
        "records",
        lambda p: output.write_records_csv(RECORDS, p),
        "end_date,t_in,t_out,q_in,q_out,auc_delta,auc_absphi,h_in,h_out,volatility,n_pairs\n"
        "2020-01-02,20,33,0.5,0.825,0.612345678901,0.5,-0.2,-0.333333333333,0.0123,190\n"
        "2020-03-04,155,20,1.55,0.2,1,0,-1,0.1,2.5e-05,4950\n",
    ),
    (
        "records_empty",
        lambda p: output.write_records_csv([], p),
        "end_date,t_in,t_out,q_in,q_out,auc_delta,auc_absphi,h_in,h_out,volatility,n_pairs\n",
    ),
    (
        "heatmap_delta",
        lambda p: output.write_heatmap_csv(CELLS, [33, 20], p, "delta"),
        "t_in\\t_out,20,33\n20,0.6,0.7\n33,,\n",
    ),
    (
        "heatmap_absphi",
        lambda p: output.write_heatmap_csv(CELLS, [33, 20], p, "absphi"),
        "t_in\\t_out,20,33\n20,0.55,0.833333333333\n33,,\n",
    ),
    (
        "heatmap_diff",
        lambda p: output.write_heatmap_csv(CELLS, [33, 20], p, "diff"),
        "t_in\\t_out,20,33\n20,0.05,-0.133333333333\n33,,\n",
    ),
    (
        "roc",
        lambda p: output.write_roc_csv(
            {
                "delta": RocResult([(0.0, 0.0), (0.5, 1 / 3), (1.0, 1.0)], 0.75),
                "absphi": RocResult([(0.0, 0.0), (1.0, 1.0)], 0.5),
            },
            p,
        ),
        "discriminator,fpr,tpr\nabsphi,0,0\nabsphi,1,1\ndelta,0,0\ndelta,0.5,0.333333333333\ndelta,1,1\n",
    ),
    (
        "stability",
        lambda p: output.write_stability_csv(
            {"delta": [(-0.5, None, 0), (0.5, 2 / 3, 3)], "absphi": [(0.25, 1.0, 1)]}, p
        ),
        "discriminator,bin_center,p_preserved,count\n"
        "absphi,0.25,1,1\ndelta,-0.5,,0\ndelta,0.5,0.666666666667,3\n",
    ),
    (
        "edges",
        lambda p: output.write_edges_csv(NET, p),
        "i,j,p,polarity\nAAA,BBB,1.5e-09,negative\nAAA,CCC,0.0123456789012,negative\n",
    ),
    (
        "adjacency_int8",
        lambda p: output.write_matrix_csv(NET.assets, NET.adjacency, p),
        ",AAA,BBB,CCC\nAAA,0,1,1\nBBB,1,0,0\nCCC,1,0,0\n",
    ),
    (
        "delta_float",
        lambda p: output.write_matrix_csv(("X", "Y", "Z"), DELTA, p),
        ",X,Y,Z\nX,0,0.333333333333,-1\nY,0.333333333333,0,0.25\nZ,-1,0.25,0\n",
    ),
    (
        "timeseries",
        lambda p: output.write_timeseries_csv(TIMESERIES, p),
        "date,H,G,density,volatility,lambda1_frac,v1_overlap\n"
        "2020-05-06,-0.2,,0.5,0.0123,0.3,\n"
        "2020-05-07,0.333333333333,-0.125,,1e-13,0,0.987654321012\n",
    ),
    (
        "balance_json",
        lambda p: output.write_balance_json(
            "2020-05-06", BalanceReport(-1 / 3, DELTA, (0.5, 0.125), np.ones(3)), p
        ),
        '{\n  "H": -0.3333333333333333,\n  "end_date": "2020-05-06",\n'
        '  "lambda1_frac": 0.5,\n  "lambda2_frac": 0.125\n}\n',
    ),
]


@pytest.mark.parametrize("name,write,expected", WRITES, ids=[w[0] for w in WRITES])
def test_writer_text_is_exact(name, write, expected, tmp_path):
    path = tmp_path / "sub" / "out"
    write(path)
    assert path.read_text(encoding="utf-8") == expected



def test_written_files_get_the_mode_open_gives(tmp_path):
    """0o666 less the umask, as a plain open() gives, not the temp file's 0o600."""
    for umask, mode in [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)]:
        for name, write, _ in WRITES:
            path = tmp_path / f"{name}-{umask:o}"
            old = os.umask(umask)
            try:
                write(path)
            finally:
                os.umask(old)
            assert stat.S_IMODE(path.stat().st_mode) == mode, (name, oct(umask))
    assert not list(tmp_path.glob("*.tmp"))


def test_atomic_write_takes_a_string_or_lines_as_they_come(tmp_path):
    lines = (f"{i},{i * i}\n" for i in range(1000))
    atomic_write_text(tmp_path / "lines", lines)
    atomic_write_text(tmp_path / "text", "".join(f"{i},{i * i}\n" for i in range(1000)))
    assert (tmp_path / "lines").read_bytes() == (tmp_path / "text").read_bytes()
    assert next(lines, None) is None


def test_atomic_write_leaves_no_file_when_the_lines_fail(tmp_path):
    def lines():
        yield "a\n"
        raise RuntimeError("generator failed")

    with pytest.raises(RuntimeError, match="generator failed"):
        atomic_write_text(tmp_path / "out", lines())
    assert list(tmp_path.iterdir()) == []
