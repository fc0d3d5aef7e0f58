"""Sweep harness: config handling, record semantics, aggregation, file formats."""

import dataclasses
import json
import math
import os
import signal
import threading

import numpy as np
import pytest

from knnmi.dataset import Dataset
from knnmi.errors import ConfigurationError, RadiusOverflowError
from knnmi.harness import (
    DEFAULT_GAUSSIAN_DIMS,
    DEFAULT_NU_GRID,
    DEFAULT_RHO_GRID,
    DEFAULT_STUDENT_T_DIMS,
    FAMILIES,
    GAUSSIAN,
    RECORD_COLUMNS,
    RHO_GENERATION_SUBSTITUTE,
    STUDENT_T,
    ExperimentConfig,
    RunRecord,
    Status,
    derive_seed,
    read_records_csv,
    run_sweep,
    stability_profile,
    summarize,
    write_records_csv,
)
from knnmi.scaling import Backend, normalize
from knnmi.truth import gaussian_truth


@pytest.fixture
def deadline():
    """Fail a test still running after 60 s instead of hanging the run."""
    def expire(signum, frame):
        raise TimeoutError("still running after 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def small_config(**overrides):
    base = dict(
        family="gaussian",
        base_seed=42,
        dims=[1],
        rho_grid=[0.0, 0.6],
        n=150,
        k=3,
        repetitions=2,
        backends=["baseline", "proposed"],
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_defaults_mirror_protocol(self):
        cfg = ExperimentConfig(family="gaussian", base_seed=1)
        assert cfg.n == 10000 and cfg.k == 5 and cfg.repetitions == 10
        assert cfg.dims == DEFAULT_GAUSSIAN_DIMS
        assert cfg.rho_grid == DEFAULT_RHO_GRID

    def test_student_t_defaults(self):
        cfg = ExperimentConfig(family="student_t", base_seed=1)
        assert cfg.dims == DEFAULT_STUDENT_T_DIMS
        assert cfg.nu_grid == DEFAULT_NU_GRID

    def test_rho_one_generates_at_substitute(self):
        cfg = ExperimentConfig(family="gaussian", base_seed=1, dims=[2], rho_grid=[0.5, 1.0])
        assert cfg.cells() == [(2, 0.5, 0.5, gaussian_truth(2, 0.5).nmi_true),
                               (2, 1.0, RHO_GENERATION_SUBSTITUTE, 1.0)]

    def test_from_json_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "family": "student_t", "base_seed": 9, "dims": [2],
            "nu_grid": [1.0], "n": 64, "k": 2, "repetitions": 1,
            "backends": ["proposed"],
        }))
        cfg = ExperimentConfig.from_json_file(path)
        assert cfg.family == "student_t" and cfg.backends == [Backend.PROPOSED]

    def test_unknown_fields_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig.from_dict({"family": "gaussian", "base_seed": 1, "reps": 3})

    @pytest.mark.parametrize("bad", [
        dict(family="uniform"),
        dict(rho_grid=[1.5]),
        dict(dims=[]),
        dict(dims=[0]),
        dict(n=1),
        dict(k=0),
        dict(repetitions=0),
        dict(backends=[]),
        dict(backends=["fancy"]),
        dict(n=10, k=10),
        dict(k=True),
        dict(repetitions=True),
        dict(base_seed=True),
        dict(dims=[True]),
        dict(dims=[None]),
        dict(dims=4),
        dict(dims=[2.5]),
        dict(rho_grid=[None]),
        dict(rho_grid=0.5),
        dict(rho_grid=[True]),
        dict(family="student_t", nu_grid=[None]),
        dict(backends=None),
        dict(backends="proposed"),
        dict(base_seed=1.7),
        dict(base_seed=None),
        dict(family="student_t", nu_grid=[float("inf")]),
        dict(family="student_t", nu_grid=[float("nan")]),
        dict(rho_grid=[float("nan")]),
        dict(family=["gaussian"]),
        dict(dims=[1, 100_000_000], n=3, k=1),  # refused before any cell allocates it
        dict(rho_grid=[[0.5]]),
        dict(family="student_t", nu_grid=[[1.0]]),
        dict(rho_grid=[]),  # a sweep of no cells
        dict(family="student_t", nu_grid=[]),
    ])
    def test_validation(self, bad):
        kwargs = dict(family="gaussian", base_seed=1)
        kwargs.update(bad)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(**kwargs)

    @pytest.mark.parametrize("family, name, grid", [
        ("student_t", "rho_grid", ["junk"]),
        ("student_t", "rho_grid", [0.5]),
        ("gaussian", "nu_grid", [-5]),
        ("gaussian", "nu_grid", [1.0]),
    ])
    def test_other_familys_grid_rejected(self, family, name, grid):
        # a grid the family never reads would be stored unchecked and silently ignored
        with pytest.raises(ConfigurationError, match=f"{name} does not apply to the {family} family"):
            ExperimentConfig(family=family, base_seed=1, **{name: grid})

    def test_every_family_grid_is_a_config_field(self):
        names = {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert {f"{family.param}_grid" for family in FAMILIES.values()} <= names
        assert list(FAMILIES) == [GAUSSIAN, STUDENT_T]

    @pytest.mark.parametrize("repeat, named", [
        (dict(dims=[1, 2, 1]), "dims lists 1 more than once"),
        (dict(dims=[np.int64(4), 4]), "dims lists 4 more than once"),
        (dict(rho_grid=[0.5, 0.2, 0.5]), "rho_grid lists 0.5 more than once"),
        (dict(rho_grid=[0, 0.0]), "rho_grid lists 0.0 more than once"),
        (dict(rho_grid=[0.0, -0.0]), "rho_grid lists -0.0 more than once"),
        (dict(family="student_t", nu_grid=[1, 1.0]), "nu_grid lists 1.0 more than once"),
        (dict(backends=["proposed", " PROPOSED"]), "backends lists ' PROPOSED' more than once"),
        (dict(backends=["dominant", "baseline", "Dominant"]), "backends lists 'Dominant' more than once"),
    ])
    def test_repeated_entries_refused(self, repeat, named):
        # a repeated cell reruns the same seeds, and summarize refuses the copies
        with pytest.raises(ConfigurationError, match=f"^{named}$"):
            ExperimentConfig(**{"family": "gaussian", "base_seed": 1, **repeat})

    def test_numpy_scalars_accepted(self):
        cfg = ExperimentConfig(
            family="gaussian", base_seed=np.int64(3), dims=[np.int32(2)],
            rho_grid=[np.float32(0.5), 1],
        )
        assert cfg.base_seed == 3 and type(cfg.base_seed) is int
        assert cfg.dims == [2] and type(cfg.dims[0]) is int
        assert cfg.rho_grid == [0.5, 1.0]

    @pytest.mark.parametrize("name, value", [
        ("n", np.int64(200)), ("k", np.int32(3)), ("repetitions", np.uint8(2)),
    ], ids=["n", "k", "repetitions"])
    def test_numpy_integer_sizes_accepted(self, name, value):
        cfg = ExperimentConfig(family="gaussian", base_seed=1, **{name: value})
        assert getattr(cfg, name) == value and type(getattr(cfg, name)) is int

    def test_student_t_grid_positive(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(family="student_t", base_seed=1, nu_grid=[0.0])

    def test_backend_aliases(self):
        assert Backend(" Baseline ") is Backend.BASELINE
        assert Backend("DOMINANT") is Backend.DOMINANT_TERM
        assert Backend(Backend.PROPOSED) is Backend.PROPOSED
        for retired in ("DominantTerm", "dominant_term"):
            with pytest.raises(ConfigurationError):
                Backend(retired)


class TestSeedDerivation:
    def test_frozen_value(self):
        # pinned so future refactors cannot silently reshuffle all sweeps
        assert derive_seed(42, "gaussian", 1, 0.5, 0) == 6631862015259995287

    def test_distinct_cells_distinct_seeds(self):
        seeds = {
            derive_seed(1, fam, d, p, rep)
            for fam in ("gaussian", "student_t")
            for d in (1, 2)
            for p in (0.0, 0.5)
            for rep in (0, 1)
        }
        assert len(seeds) == 16

    def test_base_seed_matters(self):
        assert derive_seed(1, "gaussian", 1, 0.0, 0) != derive_seed(2, "gaussian", 1, 0.0, 0)


class TestRunSweep:
    def test_record_grid_and_order(self):
        cfg = small_config()
        records = run_sweep(cfg)
        assert len(records) == 1 * 2 * 2 * 2  # dims x grid x reps x backends
        coords = [(r.param, r.repetition, r.backend) for r in records]
        assert coords == [
            (0.0, 0, "baseline"), (0.0, 0, "proposed"),
            (0.0, 1, "baseline"), (0.0, 1, "proposed"),
            (0.6, 0, "baseline"), (0.6, 0, "proposed"),
            (0.6, 1, "baseline"), (0.6, 1, "proposed"),
        ]
        assert all(r.status == Status.OK.value for r in records)
        assert records[0].nmi_true == 0.0
        assert records[-1].nmi_true == pytest.approx(gaussian_truth(1, 0.6).nmi_true)

    def test_backends_share_datasets_within_repetition(self):
        records = run_sweep(small_config())
        by_rep = {}
        for r in records:
            by_rep.setdefault((r.param, r.repetition), set()).add(r.dataset_checksum)
        assert all(len(sums) == 1 for sums in by_rep.values())
        assert len({next(iter(s)) for s in by_rep.values()}) == len(by_rep)

    def test_paired_backends_agree_when_finite(self):
        records = run_sweep(small_config())
        for a, b in zip(records[::2], records[1::2]):
            assert a.backend == "baseline" and b.backend == "proposed"
            assert a.nmi == pytest.approx(b.nmi, abs=1e-9)

    def test_reproducible_modulo_timing(self):
        cfg_a, cfg_b = small_config(), small_config()
        strip = lambda r: dataclasses.replace(r, wall_time_ms=0.0)
        assert [strip(r) for r in run_sweep(cfg_a)] == [strip(r) for r in run_sweep(cfg_b)]

    def test_baseline_overflow_recorded_not_raised(self):
        cfg = small_config(dims=[512], rho_grid=[0.5], n=80, k=3, repetitions=2)
        records = run_sweep(cfg)
        by_backend = {}
        for r in records:
            by_backend.setdefault(r.backend, []).append(r)
        assert all(r.status == Status.OVERFLOW.value for r in by_backend["baseline"])
        assert all(r.mi_ksg is None and r.nmi is None for r in by_backend["baseline"])
        assert all(r.status == Status.OK.value for r in by_backend["proposed"])
        assert all(math.isfinite(r.nmi) for r in by_backend["proposed"])

    def test_generators_and_truths_are_looked_up_at_call_time(self, monkeypatch):
        # a tracer rebinds these module attributes; the family table must call the rebinding
        import knnmi.harness as harness

        seen = set()
        for name in ("generate_gaussian", "generate_student_t", "gaussian_truth", "student_t_truth"):
            real = getattr(harness, name)
            monkeypatch.setattr(harness, name, lambda *a, f=real, n=name: (seen.add(n), f(*a))[1])
        run_sweep(small_config(n=20, repetitions=1, rho_grid=[0.5]))
        run_sweep(small_config(family="student_t", n=20, repetitions=1, rho_grid=None, nu_grid=[1.0]))
        assert seen == {"generate_gaussian", "generate_student_t", "gaussian_truth", "student_t_truth"}

    def test_records_do_not_depend_on_the_worker_count(self, monkeypatch):
        # N = 3000: d = 1 takes the sorted window and d = 3 brute force, and both
        # scans split into chunks, which one CPU runs alone and more share.
        # N = 200: the repetitions go to one process per CPU; d = 256 gives
        # baseline overflow rows, and one repetition that a forked worker
        # computes draws k + 1 coincident points
        import knnmi.harness as harness
        import knnmi.neighbors as neighbors

        threaded = small_config(dims=[1, 3], rho_grid=[0.0, 0.9], n=3000, repetitions=2)
        forked = small_config(dims=[1, 8, 256], rho_grid=[0.0, 0.9], n=200,
                              backends=["baseline", "proposed", "dominant"])
        family = harness.FAMILIES[GAUSSIAN]
        # task 5 of 12 in record order: pipe 1 of 2 workers, pipe 2 of 3
        duplicated = derive_seed(forked.base_seed, GAUSSIAN, 8, 0.0, 1)

        def generate(spec):
            data = family.generate(spec)
            if spec.seed != duplicated:
                return data
            x, y = data.x.copy(), data.y.copy()
            x[:forked.k + 1], y[:forked.k + 1] = x[0], y[0]
            return Dataset(x, y)

        monkeypatch.setitem(harness.FAMILIES, GAUSSIAN, family._replace(generate=generate))
        for cfg in (threaded, forked):
            runs = []
            for workers in (1, 2, 3):
                monkeypatch.setattr(neighbors, "_cpu_count", lambda: workers)
                runs.append([dataclasses.replace(r, wall_time_ms=0.0) for r in run_sweep(cfg)])
            assert runs[0] == runs[1] == runs[2]
        assert {r.status for r in runs[0]} == {"ok", "overflow", "duplicate_points"}
        assert [r.repetition for r in runs[0] if r.status == "duplicate_points"] == [1] * 3

    def test_a_caller_running_another_thread_forks_nothing(self, monkeypatch, deadline):
        # fork copies only the calling thread, so run_sweep forks only from a
        # single-threaded caller; with one more live thread it computes every
        # repetition itself, and the records are the forked run's
        import knnmi.neighbors as neighbors

        monkeypatch.setattr(neighbors, "_cpu_count", lambda: 2)
        forks, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: (forks.append(os.getpid()), fork())[1])
        cfg = small_config(dims=[1, 4], n=200)
        forked = [dataclasses.replace(r, wall_time_ms=0.0) for r in run_sweep(cfg)]
        assert len(forks) == 1
        forks.clear()
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            serial = [dataclasses.replace(r, wall_time_ms=0.0) for r in run_sweep(cfg)]
        finally:
            release.set()
            other.join()
        assert forks == [] and serial == forked

    @pytest.mark.parametrize("failure", ["ValueError", "RadiusOverflowError", "exit"])
    def test_a_workers_failure_reaches_the_caller(self, monkeypatch, deadline, failure):
        # two workers: the forked one computes the d = 2 repetition, and fails
        import knnmi.harness as harness
        import knnmi.neighbors as neighbors

        real, caller = harness.estimate_backends, os.getpid()
        error = {"ValueError": ValueError("no estimate here"), "RadiusOverflowError": RadiusOverflowError(7),
                 "exit": RuntimeError("sweep worker 1 ended without the result of task 1")}[failure]

        def failing(radii, d_x, d_y, backends):
            if os.getpid() != caller:
                if failure == "exit":
                    os._exit(1)
                raise error
            return real(radii, d_x, d_y, backends)

        monkeypatch.setattr(neighbors, "_cpu_count", lambda: 2)
        monkeypatch.setattr(harness, "estimate_backends", failing)
        with pytest.raises(type(error)) as raised:
            run_sweep(small_config(dims=[1, 2], rho_grid=[0.5], repetitions=1))
        assert type(raised.value) is type(error) and str(raised.value) == str(error)
        with pytest.raises(ChildProcessError):  # every child is reaped
            os.waitpid(-1, os.WNOHANG)

    def test_a_failing_caller_kills_workers_blocked_on_full_pipes(self, monkeypatch, deadline):
        # each forked worker's 300 results fill more than a 64 KiB pipe, and the
        # second worker holds the read end of the first's pipe, so only a kill
        # ends the first; reaping it unkilled would wait forever
        import knnmi.harness as harness
        import knnmi.neighbors as neighbors

        real, caller = harness.estimate_backends, os.getpid()

        def failing(radii, d_x, d_y, backends):
            if os.getpid() == caller:
                raise ValueError("the caller's own repetition")
            return real(radii, d_x, d_y, backends)

        monkeypatch.setattr(neighbors, "_cpu_count", lambda: 3)
        monkeypatch.setattr(harness, "estimate_backends", failing)
        with pytest.raises(ValueError, match="^the caller's own repetition$"):
            run_sweep(small_config(n=20, rho_grid=[0.5], repetitions=900))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_duplicate_points_recorded(self, monkeypatch):
        import knnmi.harness as harness

        dup = Dataset(np.array([[0.0], [0.0], [1.0], [2.0]]), np.zeros((4, 1)))
        monkeypatch.setitem(harness.FAMILIES, "gaussian",
                            harness.FAMILIES["gaussian"]._replace(generate=lambda spec: dup))
        records = run_sweep(small_config(n=4, k=1, repetitions=1, rho_grid=[0.0]))
        assert [r.status for r in records] == [Status.DUPLICATE_POINTS.value] * 2
        assert all(r.nmi is None for r in records)

    def test_undefined_nmi_recorded(self, monkeypatch):
        import knnmi.harness as harness

        real = harness.estimate_backends

        def degenerate(radii, d_x, d_y, backends):
            return [dataclasses.replace(report, h_x=-abs(report.h_x), nmi=None)
                    for report in real(radii, d_x, d_y, backends)]

        monkeypatch.setattr(harness, "estimate_backends", degenerate)
        records = run_sweep(small_config(repetitions=1, rho_grid=[0.0], backends=["proposed"]))
        assert [r.status for r in records] == [Status.UNDEFINED_NMI.value]
        assert records[0].h_x is not None and records[0].nmi is None


    def test_one_digamma_call_per_repetition(self, monkeypatch):
        import knnmi.estimators as estimators

        sizes = []
        real = estimators.digamma

        def counted(x):
            sizes.append(np.size(x))
            return real(x)

        monkeypatch.setattr(estimators, "digamma", counted)
        cfg = small_config(rho_grid=[0.6], repetitions=1, backends=["baseline", "proposed", "dominant"])
        records = run_sweep(cfg)
        assert [r.status for r in records] == [Status.OK.value] * 3
        assert sizes == [2 + 2 * cfg.n]  # psi(N), psi(k), psi(n_x + 1), psi(n_y + 1)


class TestSummarize:
    def rec(self, **over):
        base = dict(
            family="gaussian", d=1, param_name="rho", param=0.5, param_gen=0.5,
            repetition=0, backend="proposed", status="ok", mi_ksg=0.1, h_x=1.0,
            h_y=1.0, h_xy=1.9, mi_from_entropies=0.1, nmi=0.25, nmi_true=0.3,
            dataset_checksum="abc", wall_time_ms=1.0,
        )
        base.update(over)
        return RunRecord(**base)

    def test_identical_values_zero_std(self):
        rows = summarize([self.rec(repetition=i) for i in range(10)])
        assert len(rows) == 1
        assert rows[0].mean_nmi == pytest.approx(0.25)
        assert rows[0].std_nmi == 0.0
        assert rows[0].n_ok == 10

    def test_sample_std_uses_n_minus_1(self):
        rows = summarize([
            self.rec(repetition=0, nmi=0.2),
            self.rec(repetition=1, nmi=0.4),
        ])
        assert rows[0].std_nmi == pytest.approx(np.std([0.2, 0.4], ddof=1))

    def test_all_overflow_cell_has_missing_mean(self):
        rows = summarize([
            self.rec(repetition=i, status="overflow", nmi=None, mi_ksg=None)
            for i in range(10)
        ])
        assert rows[0].mean_nmi is None and rows[0].std_nmi is None
        assert rows[0].overflow_count == 10 and rows[0].n_ok == 0

    def test_mixed_cell_means_ok_subset_only(self):
        rows = summarize([
            self.rec(repetition=0, nmi=0.2),
            self.rec(repetition=1, status="overflow", nmi=None),
            self.rec(repetition=2, nmi=0.6),
            self.rec(repetition=3, status="undefined_nmi", nmi=None),
        ])
        assert rows[0].mean_nmi == pytest.approx(0.4)
        assert rows[0].n_ok == 2
        assert rows[0].overflow_count == 1 and rows[0].undefined_count == 1

    def test_each_status_is_counted_in_its_own_column(self):
        statuses = ["ok"] * 4 + ["overflow"] + ["undefined_nmi"] * 2 + ["duplicate_points"] * 3
        (row,) = summarize([self.rec(repetition=i, status=s, nmi=0.25 if s == "ok" else None)
                            for i, s in enumerate(statuses)])
        assert (row.n_ok, row.overflow_count, row.undefined_count, row.duplicate_count) == (4, 1, 2, 3)

    def test_single_ok_value_has_no_std(self):
        rows = summarize([self.rec()])
        assert rows[0].mean_nmi == pytest.approx(0.25) and rows[0].std_nmi is None


def test_low_d_summary_tracks_truth_within_loose_bound(low_d_gaussian_summary, low_d_nmi_reference):
    """Every correlated (d, rho) cell mean within ±0.15 of its NMI reference.

    The reference is the closed-form MI over the estimator's own
    denominator, mean(mi_true / sqrt(h_x * h_y)). The relative entropies
    are scale-invariant and grow like (d_x / D) ln N, so the Shannon NMI of
    unit-variance data is not what the estimator targets. The summary's
    nmi_true column must still carry that Shannon value.
    """
    _, summary = low_d_gaussian_summary
    bad = {}
    for row in summary:
        assert row.nmi_true == gaussian_truth(row.d, row.param).nmi_true
        if row.param == 0.0:
            continue  # independence cells are covered by the acceptance null
        deviation = abs(row.mean_nmi - low_d_nmi_reference[(row.d, row.param)])
        if deviation > 0.15:
            bad[(row.d, row.param)] = round(deviation, 4)
    assert not bad, f"cells beyond ±0.15: {bad}"


class TestStabilityProfile:
    def test_three_backends_per_dimension(self):
        rows = stability_profile([1.0, 2.0], [2, 4])
        assert [(r.d_joint, r.backend) for r in rows] == [
            (2, "baseline"), (2, "proposed"), (2, "dominant"),
            (4, "baseline"), (4, "proposed"), (4, "dominant"),
        ]

    def test_overflow_dimension_for_radius_two(self):
        rows = stability_profile([1.0, 2.0], [1022, 1024, 2048])
        by = {(r.d_joint, r.backend): r for r in rows}
        assert by[(1022, "baseline")].finite
        assert not by[(1024, "baseline")].finite
        assert not by[(2048, "baseline")].finite
        assert all(by[(d, "proposed")].finite for d in (1022, 1024, 2048))

    def test_equal_radii_all_backends_identical(self):
        # unit radii never overflow the linear-domain power, so all three
        # backends coincide at every dimension
        rows = stability_profile([1.0, 1.0, 1.0], [2, 64, 4096, 2**20])
        assert all(r.ln_v == pytest.approx(0.0, abs=1e-12) and r.finite for r in rows)
        # other equal radii coincide wherever the baseline power is representable
        rows = stability_profile([3.0, 3.0, 3.0], [2, 64, 512])
        assert all(r.ln_v == pytest.approx(math.log(3.0), abs=1e-12) for r in rows)

    def test_bad_dims(self):
        with pytest.raises(ConfigurationError):
            stability_profile([1.0], [])

    @pytest.mark.parametrize("dims", [[2.5, True], [True], [2, 0], [2.0], ["2"]])
    def test_dims_entries_must_be_positive_integers(self, dims):
        # int() would turn 2.5 into 2 and True into 1 and profile the wrong dimensions
        with pytest.raises(ConfigurationError, match="dims must be a non-empty list"):
            stability_profile([1.0, 2.0], dims)

    @pytest.mark.parametrize("dims", [5, None, "24", {2, 4}, range(2, 5), np.array([[2, 4]]), np.array(2)])
    def test_dims_must_be_a_list_tuple_or_1d_array(self, dims):
        with pytest.raises(ConfigurationError, match="dims must be a non-empty list"):
            stability_profile([1.0, 2.0], dims)

    def test_repeated_dims_and_a_tuple_accepted(self):
        rows = stability_profile([1.0, 2.0], (4, 4))
        assert [r.d_joint for r in rows] == [4] * 6

    def test_rows_are_normalize_results(self):
        rows = stability_profile([1.0, 2.0], [3, 1024])
        assert rows == [normalize([1.0, 2.0], d, b) for d in (3, 1024) for b in Backend]

    def test_numpy_integer_dims_accepted(self):
        rows = stability_profile([1.0, 2.0], np.array([2, 4]))
        assert [r.d_joint for r in rows] == [2, 2, 2, 4, 4, 4]


class TestFileFormats:
    def test_records_csv_round_trip(self, tmp_path):
        cfg = small_config(dims=[512], rho_grid=[0.5], n=60, k=2, repetitions=1)
        records = run_sweep(cfg)  # includes overflow rows with missing fields
        records += run_sweep(small_config(repetitions=1))
        path = tmp_path / "records.csv"
        write_records_csv(records, path)
        assert read_records_csv(path) == records

    def test_csv_header_fixed_order(self, tmp_path):
        path = tmp_path / "records.csv"
        write_records_csv([], path)
        assert path.read_text().splitlines()[0] == ",".join(RECORD_COLUMNS)

    def test_header_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ConfigurationError):
            read_records_csv(path)

    def test_floats_round_trip_full_precision(self, tmp_path):
        records = run_sweep(small_config(repetitions=1, rho_grid=[0.6]))
        path = tmp_path / "records.csv"
        write_records_csv(records, path)
        back = read_records_csv(path)
        assert back[0].nmi == records[0].nmi  # exact, not approximate
