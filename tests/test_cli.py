"""CLI subcommands, output formats, and exit codes."""

import json
import subprocess
import sys

import numpy as np

from knnmi.cli import main
from knnmi.dataset import dataset_from_csv
from knnmi.harness import RECORD_COLUMNS, SUMMARY_COLUMNS, STABILITY_COLUMNS


def run_cli(*argv):
    return main(list(argv))


def test_gen_writes_dataset(tmp_path):
    out = tmp_path / "data.csv"
    assert run_cli("gen", "--family", "gaussian", "--d", "2", "--rho", "0.5",
                   "--n", "40", "--seed", "7", "--out", str(out)) == 0
    data = dataset_from_csv(out)
    assert data.n == 40 and data.d_x == 2 and data.d_y == 2


def test_gen_student_t(tmp_path):
    out = tmp_path / "t.csv"
    assert run_cli("gen", "--family", "student_t", "--d", "1", "--nu", "0.5",
                   "--n", "30", "--seed", "1", "--out", str(out)) == 0
    assert dataset_from_csv(out).n == 30


def test_gen_seed_range(tmp_path, capsys):
    # Philox takes keys in [0, 2**128); both ends are named before numpy sees them
    out = tmp_path / "s.csv"
    for family, param in (("gaussian", ("--rho", "0.5")), ("student_t", ("--nu", "1.0"))):
        for seed, code in ((0, 0), (2**128 - 1, 0), (-1, 1), (2**128, 1)):
            capsys.readouterr()
            assert run_cli("gen", "--family", family, "--d", "1", *param, "--n", "10",
                           "--seed", str(seed), "--out", str(out)) == code, (family, seed)
            if code:
                assert "seed must be an integer in [0, 2**128)" in capsys.readouterr().err


def test_gen_requires_family_parameter(tmp_path):
    out = tmp_path / "x.csv"
    assert run_cli("gen", "--family", "gaussian", "--d", "1",
                   "--n", "10", "--seed", "1", "--out", str(out)) == 1


def test_estimate_reports_json(tmp_path, capsys):
    data_path = tmp_path / "data.csv"
    run_cli("gen", "--family", "gaussian", "--d", "1", "--rho", "0.8",
            "--n", "300", "--seed", "3", "--out", str(data_path))
    capsys.readouterr()
    assert run_cli("estimate", "--data", str(data_path), "--dx", "1", "--dy", "1",
                   "--k", "4", "--backend", "proposed") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "ok"
    assert payload["k"] == 4 and payload["n_samples"] == 300
    assert np.isfinite(payload["nmi"])


def test_estimate_infers_dims_from_header(tmp_path, capsys):
    data_path = tmp_path / "data.csv"
    run_cli("gen", "--family", "gaussian", "--d", "3", "--rho", "0.2",
            "--n", "100", "--seed", "5", "--out", str(data_path))
    capsys.readouterr()
    assert run_cli("estimate", "--data", str(data_path)) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "ok"


def test_estimate_duplicate_points_is_config_error(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("x_1,y_1\n1.0,2.0\n1.0,2.0\n3.0,4.0\n5.0,6.0\n")
    assert run_cli("estimate", "--data", str(path), "--k", "1") == 1


def test_estimate_negative_dims_is_config_error(tmp_path, capsys):
    # d_x + d_y matches the two columns, but a negative width must not slice
    # the columns into some other split
    path = tmp_path / "d.csv"
    run_cli("gen", "--family", "gaussian", "--d", "1", "--rho", "0.5",
            "--n", "20", "--seed", "1", "--out", str(path))
    for dims in (("--dx", "-1", "--dy", "3"), ("--dx", "3", "--dy", "-1"),
                 ("--dx=-1", "--dy=3")):
        capsys.readouterr()
        assert run_cli("estimate", "--data", str(path), *dims) == 1, dims
        assert "must be >= 0" in capsys.readouterr().err, dims


def test_estimate_overflowing_radius_is_named(tmp_path, capsys):
    path = tmp_path / "huge.csv"
    path.write_text("x_1,y_1\n-1e308,0.0\n1e308,1.0\n")
    assert run_cli("estimate", "--data", str(path), "--k", "1") == 1
    assert "overflowed float64" in capsys.readouterr().err


def test_estimate_missing_file_is_io_error(tmp_path):
    assert run_cli("estimate", "--data", str(tmp_path / "nope.csv")) == 2


def test_sweep_summarize_pipeline(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "family": "gaussian", "base_seed": 11, "dims": [1],
        "rho_grid": [0.0, 0.9], "n": 120, "k": 3, "repetitions": 2,
        "backends": ["baseline", "proposed"],
    }))
    records_path = tmp_path / "records.csv"
    jsonl_path = tmp_path / "records.jsonl"
    assert run_cli("sweep", "--config", str(cfg), "--out", str(records_path),
                   "--jsonl", str(jsonl_path)) == 0
    meta = json.loads(capsys.readouterr().out)
    assert meta["records"] == 8
    assert meta["generator"] == "numpy-philox-4x64"

    header = records_path.read_text().splitlines()[0]
    assert header == ",".join(RECORD_COLUMNS)
    assert len(jsonl_path.read_text().splitlines()) == 8

    summary_path = tmp_path / "summary.csv"
    assert run_cli("summarize", "--records", str(records_path),
                   "--out", str(summary_path)) == 0
    lines = summary_path.read_text().splitlines()
    assert lines[0] == ",".join(SUMMARY_COLUMNS)
    assert len(lines) == 1 + 4  # 2 rho cells x 2 backends


def test_sweep_bad_config_is_config_error(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "gaussian"}))  # missing base_seed
    assert run_cli("sweep", "--config", str(cfg), "--out", str(tmp_path / "r.csv")) == 1
    cfg.write_text("not json at all {")
    assert run_cli("sweep", "--config", str(cfg), "--out", str(tmp_path / "r.csv")) == 1


def test_sweep_null_dimension_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "gaussian", "base_seed": 1, "dims": [None]}))
    assert run_cli("sweep", "--config", str(cfg), "--out", str(tmp_path / "r.csv")) == 1
    assert "dims must be a non-empty list of positive integers" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


def test_sweep_missing_config_is_io_error(tmp_path):
    assert run_cli("sweep", "--config", str(tmp_path / "none.json"),
                   "--out", str(tmp_path / "r.csv")) == 2


def test_stability_table(tmp_path):
    out = tmp_path / "stability.csv"
    assert run_cli("stability", "--epsilon", "1,2", "--dims", "2:8:2,1024",
                   "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(STABILITY_COLUMNS)
    assert len(lines) == 1 + 5 * 3
    assert any(line.endswith(",false") for line in lines[1:])  # baseline at 1024


def test_bad_flags_are_config_errors():
    assert run_cli("estimate") == 1                      # missing --data
    assert run_cli("gen", "--family", "cauchy") == 1     # bad choice
    assert run_cli("stability", "--epsilon", "", "--dims", "2",
                   "--out", "/tmp/x.csv") == 1


def test_bad_numbers_in_flags_are_named(tmp_path, capsys):
    out = str(tmp_path / "s.csv")
    for flags, named in (
        (("--epsilon", "1,2", "--dims", "2.5"), "expected an integer, got '2.5'"),
        (("--epsilon", "1,abc", "--dims", "2"), "expected a number, got 'abc'"),
        (("--epsilon", "1", "--dims", "2:x:2"), "expected an integer, got 'x'"),
    ):
        capsys.readouterr()
        assert run_cli("stability", *flags, "--out", out) == 1, flags
        assert capsys.readouterr().err == f"error: {named}\n", flags


def test_estimate_bad_cell_is_named(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("x_1,y_1\n0.5,1.0\n2.0,abc\n")
    assert run_cli("estimate", "--data", str(path), "--k", "1") == 1
    err = capsys.readouterr().err
    assert "row 3, column 2 (y_1): not a number: 'abc'" in err and str(path) in err


def test_unknown_backend_is_config_error(tmp_path):
    path = tmp_path / "d.csv"
    run_cli("gen", "--family", "gaussian", "--d", "1", "--rho", "0.0",
            "--n", "20", "--seed", "1", "--out", str(path))
    assert run_cli("estimate", "--data", str(path), "--backend", "magic") == 1


def test_internal_error_exit_code(monkeypatch, tmp_path):
    import knnmi.cli as cli

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "gaussian", "base_seed": 1, "dims": [1],
                               "rho_grid": [0.0], "n": 20, "k": 2, "repetitions": 1}))
    monkeypatch.setattr(cli, "_cmd_sweep", lambda args: (_ for _ in ()).throw(RuntimeError("boom")))
    assert run_cli("sweep", "--config", str(cfg), "--out", str(tmp_path / "r.csv")) == 3


def test_console_entry_point(tmp_path):
    # the installed script and python -m both expose the same front end
    result = subprocess.run([sys.executable, "-m", "knnmi", "--version"],
                            capture_output=True, text=True)
    assert result.returncode == 0
    assert result.stdout.strip().startswith("knnmi ")
