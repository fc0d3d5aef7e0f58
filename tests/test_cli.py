"""CLI subcommands, output formats, and exit codes."""

import ast
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from knnmi import harness
from knnmi.cli import main
from knnmi.dataset import dataset_from_csv, dataset_to_csv
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


@pytest.mark.parametrize("family, flag, other", [
    ("gaussian", "--rho", "--nu"), ("student_t", "--nu", "--rho"),
])
def test_gen_refuses_the_other_familys_flag(tmp_path, capsys, family, flag, other):
    # as a config refuses the other family's grid, gen refuses its flag
    out = tmp_path / "x.csv"
    assert run_cli("gen", "--family", family, "--d", "1", flag, "0.5", other, "0.5",
                   "--n", "10", "--seed", "1", "--out", str(out)) == 1
    assert capsys.readouterr().err == f"error: {other} does not apply to the {family} family\n"
    assert not out.exists()


@pytest.mark.parametrize("family, param", [("gaussian", 0.6), ("student_t", 0.5)])
def test_gen_and_the_sweep_build_the_same_dataset(tmp_path, family, param):
    name = harness.FAMILIES[family].param
    gen_csv, sweep_csv = tmp_path / "gen.csv", tmp_path / "sweep.csv"
    assert run_cli("gen", "--family", family, "--d", "3", f"--{name}", str(param),
                   "--n", "50", "--seed", "11", "--out", str(gen_csv)) == 0
    dataset_to_csv(harness.FAMILIES[family].dataset(3, param, 50, 11), sweep_csv)
    assert gen_csv.read_bytes() == sweep_csv.read_bytes()


def test_oversized_sample_is_refused_before_allocation(tmp_path, capsys, monkeypatch):
    # both commands exit 1 naming n and d; the stubs make sure nothing is drawn
    def refuse(spec):
        raise AssertionError(f"generation reached for {spec}")

    monkeypatch.setattr(harness, "generate_gaussian", refuse)
    monkeypatch.setattr(harness, "generate_student_t", refuse)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "gaussian", "base_seed": 1, "dims": [100000000],
                               "rho_grid": [0.5], "n": 3, "k": 1, "repetitions": 1}))
    for argv in (
        ("gen", "--family", "gaussian", "--d", "100000000", "--rho", "0.5", "--n", "3",
         "--seed", "1", "--out", str(tmp_path / "g.csv")),
        ("gen", "--family", "student_t", "--d", "3", "--nu", "1", "--n", "100000000",
         "--seed", "1", "--out", str(tmp_path / "g.csv")),
        ("sweep", "--config", str(cfg), "--out", str(tmp_path / "r.csv")),
    ):
        capsys.readouterr()
        assert run_cli(*argv) == 1, argv
        err = capsys.readouterr().err
        assert "samples at d = " in err and "more than the 67108864 allowed" in err, err
    assert not (tmp_path / "g.csv").exists() and not (tmp_path / "r.csv").exists()


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


def test_estimate_overflow_payload(tmp_path, capsys):
    # D = 1024: the baseline's ln V overflows, and the payload holds no estimate
    data_path = tmp_path / "wide.csv"
    run_cli("gen", "--family", "gaussian", "--d", "512", "--rho", "0.0",
            "--n", "100", "--seed", "5", "--out", str(data_path))
    capsys.readouterr()
    assert run_cli("estimate", "--data", str(data_path), "--k", "4", "--backend", "baseline") == 0
    assert capsys.readouterr().out == (
        '{"status": "overflow", "backend": "baseline", "n_samples": 100, "k": 4}\n')


def test_estimate_infers_dims_from_header(tmp_path, capsys):
    data_path = tmp_path / "data.csv"
    run_cli("gen", "--family", "gaussian", "--d", "3", "--rho", "0.2",
            "--n", "100", "--seed", "5", "--out", str(data_path))
    capsys.readouterr()
    assert run_cli("estimate", "--data", str(data_path)) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "ok"


@pytest.mark.parametrize("header", ["y_1,x_1", "x_1,y_1,x_2"])
def test_estimate_refuses_a_header_it_would_split_wrongly(tmp_path, capsys, header):
    path = tmp_path / "h.csv"
    rows = np.arange(30.0).reshape(10, 3)[:, : header.count(",") + 1] ** 1.5
    path.write_text(header + "\n" + "".join(",".join(map(repr, row)) + "\n" for row in rows.tolist()))
    assert run_cli("estimate", "--data", str(path), "--k", "2") == 1
    assert f"cannot infer d_x/d_y from header {header!r}" in capsys.readouterr().err


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
    for name, dims in (("d_x", ("--dx", "-1", "--dy", "3")), ("d_y", ("--dx", "3", "--dy", "-1")),
                       ("d_x", ("--dx=-1", "--dy=3"))):
        capsys.readouterr()
        assert run_cli("estimate", "--data", str(path), *dims) == 1, dims
        assert f"{name} must be an integer >= 0, got -1" in capsys.readouterr().err, dims


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
    assert run_cli("sweep", "--config", str(cfg), "--out", str(records_path)) == 0
    meta = json.loads(capsys.readouterr().out)
    assert meta["records"] == 8
    assert meta["generator"] == "numpy-philox-4x64"

    header = records_path.read_text().splitlines()[0]
    assert header == ",".join(RECORD_COLUMNS)

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


def test_tiny_nu_is_a_config_error_that_names_nu(tmp_path, capsys):
    # gen and a sweep both exit 1 with the generator's message, and warn of nothing
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "student_t", "base_seed": 1, "dims": [1],
                               "nu_grid": [1e-300], "n": 20, "k": 3, "repetitions": 1}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for argv in (
            ("gen", "--family", "student_t", "--d", "1", "--nu", "1e-300", "--n", "10",
             "--seed", "1", "--out", str(tmp_path / "g.csv")),
            ("sweep", "--config", str(cfg), "--out", str(tmp_path / "r.csv")),
        ):
            capsys.readouterr()
            assert run_cli(*argv) == 1, argv[0]
            assert "nu = 1e-300 is too small" in capsys.readouterr().err, argv[0]
    assert not (tmp_path / "g.csv").exists() and not (tmp_path / "r.csv").exists()


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
        # an empty range among other tokens must not vanish from the grid
        (("--epsilon", "1,2", "--dims", "10:5:1,3"), "range token yields no value: '10:5:1'"),
        (("--epsilon", "1", "--dims", "10:5:1"), "range token yields no value: '10:5:1'"),
    ):
        capsys.readouterr()
        assert run_cli("stability", *flags, "--out", out) == 1, flags
        assert capsys.readouterr().err == f"error: {named}\n", flags


def test_estimate_bad_cell_is_named(tmp_path, capsys):
    # rows are file lines, so a blank line still counts
    path = tmp_path / "bad.csv"
    for text, row in (("x_1,y_1\n0.5,1.0\n2.0,abc\n", 3),
                      ("x_1,y_1\n0.5,1.0\n\n2.0,abc\n", 4)):
        path.write_text(text)
        capsys.readouterr()
        assert run_cli("estimate", "--data", str(path), "--k", "1") == 1
        err = capsys.readouterr().err
        assert f"row {row}, column 2 (y_1): not a number: 'abc'" in err and str(path) in err


def _records_csv(tmp_path, family="gaussian"):
    grid = {"gaussian": {"rho_grid": [0.5]}, "student_t": {"nu_grid": [1.0]}}[family]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": family, "base_seed": 1, "dims": [1], **grid,
                               "n": 20, "k": 2, "repetitions": 1, "backends": ["proposed"]}))
    path = tmp_path / "records.csv"
    assert run_cli("sweep", "--config", str(cfg), "--out", str(path)) == 0
    return path


def test_summarize_bad_cell_is_named(tmp_path, capsys):
    path = _records_csv(tmp_path)
    header, row = path.read_text().splitlines()
    cells = row.split(",")
    column = RECORD_COLUMNS.index("nmi")
    cells[column] = "abc"
    path.write_text(f"{header}\n\n{','.join(cells)}\n")
    capsys.readouterr()
    assert run_cli("summarize", "--records", str(path), "--out", str(tmp_path / "s.csv")) == 1
    err = capsys.readouterr().err
    assert f"{path}: row 3, column {column + 1} (nmi): not a number: 'abc'" in err


@pytest.mark.parametrize("column, value, shown", [
    ("nmi", "nan", "nan"),
    ("h_x", "inf", "inf"),
    ("mi_ksg", "-inf", "-inf"),
    ("param", "NaN", "nan"),
    ("wall_time_ms", "inf", "inf"),
])
def test_summarize_refuses_a_number_that_is_not_finite(tmp_path, capsys, column, value, shown):
    # a sweep writes only finite numbers, and a nan would pass into mean_nmi
    path = _records_csv(tmp_path)
    header, row = path.read_text().splitlines()
    cells = row.split(",")
    cells[RECORD_COLUMNS.index(column)] = value
    path.write_text(f"{header}\n{','.join(cells)}\n")
    capsys.readouterr()
    assert run_cli("summarize", "--records", str(path), "--out", str(tmp_path / "s.csv")) == 1
    assert capsys.readouterr().err == (
        f"error: {path}: row 2, column {RECORD_COLUMNS.index(column) + 1} ({column}): not finite: {shown}\n")
    assert not (tmp_path / "s.csv").exists()


ROW_FAULTS = [
    ("nmi", "", "empty, but status is ok", "gaussian"),
    ("status", "okay", "not a status: 'okay'", "gaussian"),
    ("d", "", "empty", "gaussian"),
    ("dataset_checksum", "", "empty", "gaussian"),
    ("h_x", "", "empty, but status is ok", "gaussian"),
    ("d", "-3", "d must be an integer >= 1, got -3", "gaussian"),
    ("repetition", "-1", "repetition must be an integer >= 0, got -1", "gaussian"),
    ("backend", "foo", "not a backend: 'foo'", "gaussian"),
    ("backend", "Proposed", "not a backend: 'Proposed'", "gaussian"),
    ("family", "cauchy", "not a family: 'cauchy'", "gaussian"),
    ("param_name", "nu", "'nu', but the gaussian parameter is 'rho'", "gaussian"),
    ("param", "7.5", "param must be a real number in [0, 1], got 7.5", "gaussian"),
    ("param_gen", "0.25", "0.25, but data at param 0.5 are drawn at 0.5", "gaussian"),
    ("param", "0.0", "param must be positive and finite, got 0.0", "student_t"),
]


@pytest.mark.parametrize("column, value, reason, family", ROW_FAULTS,
                         ids=["-".join(fault[:3]) for fault in ROW_FAULTS])
def test_summarize_refuses_rows_the_sweep_never_writes(tmp_path, capsys, column, value, reason, family):
    path = _records_csv(tmp_path, family)
    header, row = path.read_text().splitlines()
    cells = row.split(",")
    cells[RECORD_COLUMNS.index(column)] = value
    path.write_text(f"{header}\n{','.join(cells)}\n")
    capsys.readouterr()
    assert run_cli("summarize", "--records", str(path), "--out", str(tmp_path / "s.csv")) == 1
    assert capsys.readouterr().err == (
        f"error: {path}: row 2, column {RECORD_COLUMNS.index(column) + 1} ({column}): {reason}\n")
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("status, held", [
    ("ok", ["mi_ksg", "h_x", "h_y", "h_xy", "mi_from_entropies", "nmi"]),
    ("undefined_nmi", ["mi_ksg", "h_x", "h_y", "h_xy", "mi_from_entropies"]),
    ("overflow", []),
    ("duplicate_points", []),
])
def test_summarize_estimate_fields_must_match_the_status(tmp_path, capsys, status, held):
    # each status holds the estimate fields run_sweep writes for it, and no other
    estimates = ["mi_ksg", "h_x", "h_y", "h_xy", "mi_from_entropies", "nmi"]
    path = _records_csv(tmp_path)
    header, row = path.read_text().splitlines()
    cells = row.split(",")
    cells[RECORD_COLUMNS.index("status")] = status
    for name in estimates:
        cells[RECORD_COLUMNS.index(name)] = "0.5" if name in held else ""
    path.write_text(f"{header}\n{','.join(cells)}\n")
    assert run_cli("summarize", "--records", str(path), "--out", str(tmp_path / "s.csv")) == 0
    for name in estimates:
        flipped = list(cells)
        flipped[RECORD_COLUMNS.index(name)] = "" if name in held else "0.5"
        path.write_text(f"{header}\n{','.join(flipped)}\n")
        capsys.readouterr()
        assert run_cli("summarize", "--records", str(path), "--out", str(tmp_path / "s.csv")) == 1
        reason = "empty" if name in held else "not empty"
        assert f"column {RECORD_COLUMNS.index(name) + 1} ({name}): {reason}, but status is {status}" in (
            capsys.readouterr().err)


@pytest.mark.parametrize("repeat", [
    {"dims": [1, 1]}, {"rho_grid": [0.5, 0.5]}, {"backends": ["proposed", " PROPOSED"]},
])
def test_sweep_refuses_a_repeated_entry(tmp_path, capsys, repeat):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "gaussian", "base_seed": 1, "dims": [1], "rho_grid": [0.5],
                               "n": 30, "k": 3, "repetitions": 2, **repeat}))
    assert run_cli("sweep", "--config", str(cfg), "--out", str(tmp_path / "r.csv")) == 1
    assert "more than once" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


def test_non_ascii_csv_and_non_utf8_config_are_config_errors(tmp_path, capsys):
    data = tmp_path / "data.csv"
    data.write_text("x_1,y_1\n0.5,1.0\n2.0,\u00e9\n", encoding="utf-8")
    records = _records_csv(tmp_path)
    records.write_text(records.read_text().replace("gaussian", "gau\u00dfian"), encoding="utf-8")
    config = tmp_path / "cfg.json"
    config.write_bytes('{"family": "gaussian", "base_seed": 1, "\u00e9": 1}'.encode("latin-1"))
    for argv, path in ((("estimate", "--data", str(data)), data),
                       (("summarize", "--records", str(records), "--out", str(tmp_path / "s.csv")), records),
                       (("sweep", "--config", str(config), "--out", str(tmp_path / "r.csv")), config)):
        capsys.readouterr()
        assert run_cli(*argv) == 1, argv
        assert capsys.readouterr().err.startswith(f"error: {path}: "), argv


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


def test_internal_value_error_exit_code(monkeypatch, tmp_path, capsys):
    # only ConfigurationError is bad input; a plain ValueError is an internal fault
    import knnmi.cli as cli

    path = tmp_path / "d.csv"
    run_cli("gen", "--family", "gaussian", "--d", "1", "--rho", "0.5",
            "--n", "20", "--seed", "1", "--out", str(path))

    def broken(*args, **kwargs):
        raise ValueError("boom")

    monkeypatch.setattr(cli, "estimate_backends", broken)
    capsys.readouterr()
    assert run_cli("estimate", "--data", str(path), "--k", "2") == 3
    assert capsys.readouterr().err == "internal error: ValueError: boom\n"


NUMPY_RANDOM_PROBE = """
import sys
import numpy
loaded = ["numpy.random" in sys.modules]
import knnmi
import knnmi.cli
loaded.append("numpy.random" in sys.modules)
assert knnmi.cli.main(["estimate", "--data", sys.argv[1]]) == 0
loaded.append("numpy.random" in sys.modules)
knnmi.generate_gaussian(knnmi.GaussianSpec(d=1, rho=0.5, n=10, seed=1))
loaded.append("numpy.random" in sys.modules)
print(loaded)
"""


def test_only_generation_loads_numpy_random(tmp_path):
    # numpy.random costs about 11 ms and 2.4 MiB to import, and only the
    # generators draw from it; a fresh process, since this one has loaded it.
    # numpy before 2.0 imports numpy.random itself, so knnmi is held only to
    # what numpy alone loads
    data = tmp_path / "data.csv"
    assert run_cli("gen", "--family", "gaussian", "--d", "1", "--rho", "0.5",
                   "--n", "40", "--seed", "7", "--out", str(data)) == 0
    package_root = os.path.dirname(os.path.dirname(harness.__file__))
    path = os.pathsep.join(filter(None, (package_root, os.environ.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", NUMPY_RANDOM_PROBE, str(data)], capture_output=True,
                          text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path), check=True)
    numpy_alone, *loaded = ast.literal_eval(done.stdout.splitlines()[-1])
    assert loaded == [numpy_alone, numpy_alone, True]


def test_console_entry_point(tmp_path):
    # the installed script and python -m both expose the same front end
    result = subprocess.run([sys.executable, "-m", "knnmi", "--version"],
                            capture_output=True, text=True)
    assert result.returncode == 0
    assert result.stdout.strip().startswith("knnmi ")
