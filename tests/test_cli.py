import json

import pytest

from triadnet.cli import main


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def make_market(tmp_path, capsys, n=16, t=90, seed=3):
    prices = tmp_path / "prices.csv"
    code, _, _ = run(
        [
            "synth", "--model", "bipolar", "--n", str(n), "--t", str(t),
            "--rho-in", "0.4", "--rho-out", "-0.2", "--seed", str(seed),
            "--out", str(prices),
        ],
        capsys,
    )
    assert code == 0
    return prices, tmp_path / "prices_sectors.csv"


def test_synth_then_ingest_check_roundtrip(tmp_path, capsys):
    prices, sectors = make_market(tmp_path, capsys)
    code, out, _ = run(
        ["ingest-check", "--prices", str(prices), "--sectors", str(sectors)], capsys
    )
    assert code == 0
    assert "assets: 16" in out
    assert "dates: 90" in out


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "triadnet" in capsys.readouterr().out


def test_usage_error_exit_code(capsys):
    code, _, err = run(["svn", "--bogus-flag"], capsys)
    assert code == 1
    assert "usage error" in err


def test_missing_config_names_path(tmp_path, capsys):
    code, _, err = run(["grid", "--config", str(tmp_path / "missing.json")], capsys)
    assert code == 1
    assert "missing.json" in err


def test_predict_short_panel_is_data_error(tmp_path, capsys):
    prices, sectors = make_market(tmp_path, capsys, t=40)
    code, _, err = run(
        [
            "predict", "--prices", str(prices), "--sectors", str(sectors),
            "--end-date", "2000-02-01", "--tin", "30", "--tout", "30",
        ],
        capsys,
    )
    assert code == 2
    assert "data error" in err


def test_svn_and_balance_outputs(tmp_path, capsys):
    prices, sectors = make_market(tmp_path, capsys)
    end_date = prices.read_text().splitlines()[-1].split(",")[0]
    code, out, _ = run(
        [
            "svn", "--prices", str(prices), "--sectors", str(sectors),
            "--end-date", end_date, "--window", "60", "--alpha", "0.1",
            "--polarity", "positive", "--out-prefix", str(tmp_path / "net"),
        ],
        capsys,
    )
    assert code == 0
    edges = (tmp_path / "net_edges.csv").read_text().splitlines()
    assert edges[0] == "i,j,p,polarity"
    adjacency = (tmp_path / "net_adjacency.csv").read_text().splitlines()
    assert adjacency[0].startswith(",A0000")

    code, out, _ = run(
        [
            "balance", "--prices", str(prices), "--sectors", str(sectors),
            "--end-date", end_date, "--window", "60",
            "--out", str(tmp_path / "balance.json"),
            "--delta-out", str(tmp_path / "delta.csv"),
        ],
        capsys,
    )
    assert code == 0
    report = json.loads((tmp_path / "balance.json").read_text())
    assert set(report) == {"end_date", "H", "lambda1_frac", "lambda2_frac"}
    assert report["end_date"] == end_date
    assert -1 <= report["H"] <= 1
    assert (tmp_path / "delta.csv").exists()


def test_predict_outputs(tmp_path, capsys):
    prices, sectors = make_market(tmp_path, capsys, t=90)
    dates = sorted({line.split(",")[0] for line in prices.read_text().splitlines()[1:]})
    end_in = dates[44]  # 44 returns before, 45 after
    code, out, _ = run(
        [
            "predict", "--prices", str(prices), "--sectors", str(sectors),
            "--end-date", end_in, "--tin", "40", "--tout", "40",
            "--output-dir", str(tmp_path),
        ],
        capsys,
    )
    assert code == 0
    assert "auc_delta=" in out
    roc_lines = (tmp_path / f"roc_{end_in}.csv").read_text().splitlines()
    assert roc_lines[0] == "discriminator,fpr,tpr"
    assert any(line.startswith("delta,") for line in roc_lines)
    prof_lines = (tmp_path / f"stability_profile_{end_in}.csv").read_text().splitlines()
    assert prof_lines[0] == "discriminator,bin_center,p_preserved,count"
    # delta bins span [-1, 1] in 0.05 steps, absphi bins span [0, 1]
    assert sum(line.startswith("delta,") for line in prof_lines) == 40
    assert sum(line.startswith("absphi,") for line in prof_lines) == 20


def test_grid_outputs_and_determinism(tmp_path, capsys):
    prices, sectors = make_market(tmp_path, capsys, n=12, t=70, seed=11)
    outputs = ("records.csv", "heatmap_auc_delta.csv", "heatmap_auc_absphi.csv",
               "heatmap_diff.csv", "timeseries.csv", "run_summary.json")
    blobs = {}
    for run_dir in ("run1", "run2"):
        config = {
            "prices": str(prices),
            "sectors": str(sectors),
            "output_dir": str(tmp_path / run_dir),
            "t_values": [15, 25],
            "step": 6,
            "timeseries_window": 25,
        }
        cfg_path = tmp_path / f"{run_dir}.json"
        cfg_path.write_text(json.dumps(config))
        code, out, _ = run(["grid", "--config", str(cfg_path), "--jobs", "1"], capsys)
        assert code == 0
        blobs[run_dir] = {
            name: (tmp_path / run_dir / name).read_bytes() for name in outputs
        }
    assert blobs["run1"] == blobs["run2"]
    records = blobs["run1"]["records.csv"].decode().splitlines()
    assert records[0].startswith("end_date,t_in,t_out,")
    assert len(records) > 1
    summary = json.loads(blobs["run1"]["run_summary.json"])
    assert summary["records"] == len(records) - 1
    assert summary["windows_attempted"] >= summary["records"]


# (config entries, key the usage error must name)
BAD_GRID_CONFIGS = [
    ({"alpha": 1.5}, "alpha"),
    ({"bogus": 1}, "bogus"),
    ({"prices": "nope.csv"}, "nope.csv"),
    ({"corr_kind": "spearman"}, "corr_kind"),
    ({"median_scope": "global"}, "median_scope"),
    ({"format": "tall"}, "format"),
    ({"step": "5"}, "step"),
    ({"step": 2.5}, "step"),
    ({"step": True}, "step"),
    ({"alpha": "0.1"}, "alpha"),
    ({"t_values": 20}, "t_values"),
    ({"t_values": ["a"]}, "t_values"),
    ({"t_values": []}, "t_values"),
    ({"t_values": [20, 20]}, "t_values"),
    ({"timeseries_window": 0}, "timeseries_window"),
    ({"timeseries_window": -5}, "timeseries_window"),
    ({"timeseries_window": 1}, "timeseries_window"),
    ({"output_dir": 3}, "output_dir"),
    ({"seed": "x"}, "seed"),
]


def test_grid_config_validation(tmp_path, capsys):
    prices, sectors = make_market(tmp_path, capsys, n=6, t=30)
    cfg = tmp_path / "bad.json"
    for entries, key in BAD_GRID_CONFIGS:
        config = {"prices": str(prices), "sectors": str(sectors),
                  "output_dir": str(tmp_path / "o"), **entries}
        if "prices" in entries:
            config["prices"] = str(tmp_path / entries["prices"])
        cfg.write_text(json.dumps(config))
        code, _, err = run(["grid", "--config", str(cfg)], capsys)
        assert code == 1 and key in err, (entries, err)
    assert not (tmp_path / "o").exists()


# Parsing fails before any file is read, so the paths need not exist.
PANEL_ARGS = ["--prices", "p.csv", "--sectors", "s.csv", "--end-date", "2000-01-03"]
VALID_ARGS = {
    "svn": ["svn", *PANEL_ARGS, "--window", "60", "--out-prefix", "net"],
    "balance": ["balance", *PANEL_ARGS, "--window", "60", "--out", "b.json"],
    "predict": ["predict", *PANEL_ARGS, "--tin", "20", "--tout", "20"],
    "grid": ["grid", "--config", "c.json"],
    "synth": ["synth", "--n", "4", "--t", "10", "--out", "p.csv"],
}

# (subcommand, flag, value that must be a usage error naming the flag)
BAD_FLAGS = [
    ("svn", "--window", "1"),
    ("svn", "--window", "ten"),
    ("balance", "--window", "0"),
    ("svn", "--alpha", "1.5"),
    ("svn", "--alpha", "0"),
    ("svn", "--alpha", "nan"),
    ("predict", "--tin", "0"),
    ("predict", "--tin", "2.5"),
    ("predict", "--tout", "-3"),
    ("predict", "--bin-width", "0"),
    ("predict", "--bin-width", "-0.1"),
    ("predict", "--bin-width", "inf"),
    ("grid", "--jobs", "0"),
    ("grid", "--seed", "3"),
    ("synth", "--n", "0"),
    ("synth", "--t", "1"),
    ("synth", "--noise-scale", "-1"),
    ("synth", "--rho-in", "2"),
]


@pytest.mark.parametrize("command,flag,value", BAD_FLAGS)
def test_bad_flag_values_are_usage_errors(command, flag, value, capsys):
    code, _, err = run([*VALID_ARGS[command], flag, value], capsys)
    assert code == 1 and "usage error" in err and flag in err, err


def test_prices_file_that_is_not_utf8_is_a_data_error(tmp_path, capsys):
    prices, sectors = make_market(tmp_path, capsys, n=4, t=10)
    prices.write_bytes(prices.read_bytes() + b"2000-02-01,A0,\xff\n")
    code, _, err = run(
        ["ingest-check", "--prices", str(prices), "--sectors", str(sectors)], capsys
    )
    assert code == 2 and "data error:" in err and "Traceback" not in err, err
    assert "prices.csv" in err


def test_config_that_is_not_utf8_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_bytes(b'{"prices": "\xff"}')
    code, _, err = run(["grid", "--config", str(cfg)], capsys)
    assert code == 1 and "usage error:" in err and "c.json" in err, err


def test_synth_sector_block_cli(tmp_path, capsys):
    code, out, _ = run(
        [
            "synth", "--model", "sector_block", "--n", "9", "--t", "20",
            "--blocks", "3,3,3", "--rho-in", "0.3", "--rho-out", "0.1",
            "--out", str(tmp_path / "p.csv"),
        ],
        capsys,
    )
    assert code == 0
    sectors = (tmp_path / "p_sectors.csv").read_text()
    assert "B02" in sectors
