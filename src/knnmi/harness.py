"""Sweep driver: generate, estimate with every backend, attach ground truth.

FAMILIES is the one place where a synthetic family is defined: the config,
the sweep and `knnmi gen` read every family decision from it and build data
through `Family.dataset`.

A sweep iterates ExperimentConfig.cells (dimension x grid point), repeats
each cell with derived seeds, and estimates every repetition with each
configured backend. The SAME dataset, k-NN radii and digamma statistics are
shared by all backends within a repetition (the dataset checksum column
verifies the pairing downstream), so backend comparisons are paired and
each backend adds only its ln V and entropy arithmetic. Baseline overflow
is recorded as a status, never aborting the sweep.

Cell seeds are derived by hashing the cell coordinates (sha256), making
every cell independently reproducible regardless of sweep order or subset.
So where the scan starts no thread (N <= 256), the repetitions run on one
forked process per CPU of the affinity mask, the caller among them, and the
records are the same for any count; wall_time_ms is timed in the process
that ran the repetition.

Records are emitted one per (cell, repetition, backend) in deterministic
cell order, as flat rows; aggregation is a separate pass (summarize) so
raw records can be re-analyzed without re-running the O(N^2) estimation.
"""

import hashlib
import json
import math
import os
import pickle
import threading
import time
from collections import Counter, namedtuple
from dataclasses import dataclass, field, fields
from enum import Enum
from operator import attrgetter
from typing import Optional

import numpy as np

from . import neighbors
from .datagen import GaussianSpec, StudentTSpec, check_sample_size, generate_gaussian, generate_student_t
from .dataset import Dataset, dataset_checksum, read_csv, write_csv
from .errors import ConfigurationError, DuplicatePointError, integer, positive_real, real
from .estimators import estimate_backends
from .neighbors import compute_knn_radii
from .scaling import Backend, NormalizationResult, normalize
from .truth import gaussian_truth, student_t_truth

GAUSSIAN = "gaussian"
STUDENT_T = "student_t"

# the rho = 1.0 grid point is degenerate to generate; data comes from this
# substitute while the recorded truth stays at the capped rho = 1.0 value
RHO_GENERATION_SUBSTITUTE = 0.99

DEFAULT_RHO_GRID = [round(0.1 * i, 1) for i in range(10)] + [1.0]
DEFAULT_NU_GRID = [0.125, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0]
DEFAULT_GAUSSIAN_DIMS = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512]
DEFAULT_STUDENT_T_DIMS = [1, 2, 4, 8, 16, 32]


class Status(str, Enum):
    OK = "ok"
    OVERFLOW = "overflow"
    UNDEFINED_NMI = "undefined_nmi"
    DUPLICATE_POINTS = "duplicate_points"

    @classmethod
    def of(cls, result) -> "Status":
        """The status of one backend's estimate_backends entry: overflow for a
        NormalizationResult (ln V not finite), else ok or, without an NMI, undefined_nmi."""
        if isinstance(result, NormalizationResult):
            return cls.OVERFLOW
        return cls.OK if result.nmi is not None else cls.UNDEFINED_NMI


_DIMS_RULE = "dims must be a non-empty list of positive integers"


def _dim(d) -> int:
    """One dims entry: an int >= 1; ConfigurationError(_DIMS_RULE) otherwise."""
    return integer("dims entry", d, 1, _DIMS_RULE)


def _entries(name: str, values, parse, kind: str) -> list:
    """[parse(v) for v in values] for a non-empty list with no entry repeated
    after parsing: a repeated cell would rerun on the same seeds and write
    rows that summarize refuses as repeats."""
    if not isinstance(values, list) or not values:
        raise ConfigurationError(f"{name} must be a non-empty list of {kind}, got {values!r}")
    parsed, seen = [parse(v) for v in values], set()
    for raw, v in zip(values, parsed):
        if v in seen:
            raise ConfigurationError(f"{name} lists {raw!r} more than once")
        seen.add(v)
    return parsed


class Family(namedtuple("Family", "param default_grid check default_dims "
                                  "spec generate truth substitutes")):
    """One family: its parameter (the spec field, the gen flag and f"{param}_grid"),
    default grid, the check(name, value) that returns one grid value as a float,
    default dims, spec, generator, truth, and the grid points drawn at a substitute."""

    def dataset(self, d: int, param: float, n: int, seed: int) -> Dataset:
        """n samples at dimension d drawn at `param`: gen's and the sweep's one path to data."""
        return self.generate(self.spec(d=d, n=n, seed=seed, **{self.param: param}))


# generate and truth look their function up at call time, so a rebound module
# attribute (a tracer's wrapper, a test's stub) still reaches them
FAMILIES = {
    GAUSSIAN: Family("rho", DEFAULT_RHO_GRID, lambda name, v: real(name, v, 0, 1), DEFAULT_GAUSSIAN_DIMS,
                     GaussianSpec, lambda spec: generate_gaussian(spec), lambda d, rho: gaussian_truth(d, rho),
                     {1.0: RHO_GENERATION_SUBSTITUTE}),
    STUDENT_T: Family("nu", DEFAULT_NU_GRID, positive_real, DEFAULT_STUDENT_T_DIMS, StudentTSpec,
                      lambda spec: generate_student_t(spec), lambda d, nu: student_t_truth(d, nu), {}),
}


@dataclass
class ExperimentConfig:
    family: str
    base_seed: int
    dims: list = None
    rho_grid: list = None
    nu_grid: list = None
    n: int = 10000
    k: int = 5
    repetitions: int = 10
    backends: list = field(default_factory=lambda: [Backend.BASELINE, Backend.PROPOSED])

    def __post_init__(self):
        family = FAMILIES.get(self.family) if isinstance(self.family, str) else None
        if family is None:
            choices = " or ".join(map(repr, FAMILIES))
            raise ConfigurationError(f"family must be {choices}, got {self.family!r}")
        self.dims = _entries("dims", family.default_dims if self.dims is None else self.dims, _dim,
                             "positive integers")
        for other in FAMILIES.values():
            if other is not family and getattr(self, f"{other.param}_grid") is not None:
                raise ConfigurationError(f"{other.param}_grid does not apply to the {self.family} family")
        name = f"{family.param}_grid"
        grid = getattr(self, name)
        setattr(self, name, _entries(name, family.default_grid if grid is None else grid,
                                     lambda v: family.check(f"{name} values", v), "numbers"))
        for name, low in (("n", 2), ("k", 1), ("repetitions", 1)):
            setattr(self, name, integer(name, getattr(self, name), low))
        for d in self.dims:
            check_sample_size(self.n, d)
        if self.k >= self.n:
            raise ConfigurationError(f"k = {self.k} must be smaller than n = {self.n}")
        self.base_seed = integer("base_seed", self.base_seed)
        self.backends = _entries("backends", self.backends, Backend, "names")

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        allowed = {f.name for f in fields(cls)}
        unknown = set(raw) - allowed
        if unknown:
            raise ConfigurationError(f"unknown config fields: {sorted(unknown)}")
        if "family" not in raw or "base_seed" not in raw:
            raise ConfigurationError("config requires at least 'family' and 'base_seed'")
        return cls(**raw)

    @classmethod
    def from_json_file(cls, path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except ValueError as exc:  # not JSON, or not UTF-8
                raise ConfigurationError(f"{path}: not valid JSON ({exc})") from exc
        if not isinstance(raw, dict):
            raise ConfigurationError(f"{path}: config must be a JSON object")
        return cls.from_dict(raw)

    def cells(self) -> list:
        """(d, param, param_gen, nmi_true) for every cell in record order (dims outer):
        data are drawn at param_gen, and nmi_true is the truth at the grid value param."""
        family = FAMILIES[self.family]
        return [(d, param, family.substitutes.get(param, param), family.truth(d, param).nmi_true)
                for d in self.dims for param in getattr(self, f"{family.param}_grid")]


@dataclass(frozen=True)
class RunRecord:
    family: str
    d: int
    param_name: str
    param: float
    param_gen: float
    repetition: int
    backend: str
    status: str
    mi_ksg: Optional[float]
    h_x: Optional[float]
    h_y: Optional[float]
    h_xy: Optional[float]
    mi_from_entropies: Optional[float]
    nmi: Optional[float]
    nmi_true: Optional[float]
    dataset_checksum: str
    wall_time_ms: float


RECORD_COLUMNS = [f.name for f in fields(RunRecord)]


def derive_seed(base_seed: int, family: str, d: int, param: float, repetition: int) -> int:
    """Stable 64-bit cell seed from the sweep coordinates."""
    text = (f"{integer('base_seed', base_seed)}|{family}|{integer('d', d, 1)}|"
            f"{real('param', param, 0, np.inf)!r}|"
            f"{integer('repetition', repetition, 0)}")
    digest = hashlib.sha256(text.encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big")


_ESTIMATE_FIELDS = ("mi_ksg", "h_x", "h_y", "h_xy", "mi_from_entropies", "nmi")


def _repetition(config: ExperimentConfig, family: Family, cell: tuple, rep: int) -> tuple:
    """(dataset_checksum, estimate_backends's list or None per backend on
    duplicate points, wall_time_ms) of one repetition of a config.cells()
    cell; wall_time_ms times the generation, checksum, scan and every
    backend's assembly together."""
    d, param, param_gen, _ = cell
    seed = derive_seed(config.base_seed, config.family, d, param, rep)
    start = time.perf_counter()
    data = family.dataset(d, param_gen, config.n, seed)
    checksum = dataset_checksum(data)
    try:
        radii = compute_knn_radii(data, config.k)
    except DuplicatePointError:
        results = [None] * len(config.backends)
    else:
        results = estimate_backends(radii, d, d, config.backends)
    return checksum, results, (time.perf_counter() - start) * 1000.0


def run_sweep(config: ExperimentConfig) -> list:
    """Run every repetition of every cell in config.cells() with each backend."""
    family = FAMILIES[config.family]
    tasks = [(cell, rep) for cell in config.cells() for rep in range(config.repetitions)]
    # a scan that starts no thread leaves the other CPUs idle, so the
    # repetitions go to one process per CPU; fork copies only the calling
    # thread, so a process running other threads computes them all itself
    workers = 1
    if neighbors._pair_once(config.n) and hasattr(os, "fork") and threading.active_count() == 1:
        workers = min(neighbors._cpu_count(), len(tasks))
    done = _in_order(lambda task: _repetition(config, family, *task), tasks, workers)
    records = []
    try:
        for ((d, param, param_gen, nmi_true), rep), (checksum, results, wall_time_ms) in zip(tasks, done):
            for backend, result in zip(config.backends, results):
                status = Status.DUPLICATE_POINTS if result is None else Status.of(result)
                # None and a NormalizationResult have none of these fields
                values = {name: getattr(result, name, None) for name in _ESTIMATE_FIELDS}
                records.append(
                    RunRecord(
                        family=config.family,
                        d=d,
                        param_name=family.param,
                        param=param,
                        param_gen=param_gen,
                        repetition=rep,
                        backend=backend.value,
                        status=status.value,
                        nmi_true=nmi_true,
                        dataset_checksum=checksum,
                        wall_time_ms=wall_time_ms,
                        **values,
                    )
                )
    finally:
        done.close()
    return records


def _in_order(compute, tasks: list, workers: int):
    """Yield compute(task) for each task in order, computed on `workers` processes.

    Forked child w (0 < w < workers) computes tasks w, w + workers, ... and
    writes each result to its own pipe (_serve); the caller computes tasks 0,
    workers, 2 workers, ... itself and reads task i from pipe i mod workers,
    so one worker forks nothing. An exception a child sends is raised here,
    and a child that ends without sending a result raises RuntimeError. Every
    child is killed, then reaped, before this returns or raises: a child
    forked later holds the read end of an earlier child's pipe, so closing
    the caller's copy would not end a child blocked on a full pipe.
    """
    pipes, pids = [], []
    try:
        for w in range(1, workers):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                _serve(compute, tasks[w::workers], write)
            os.close(write)
            pids.append(pid)
            pipes.append(os.fdopen(read, "rb"))
        for i, task in enumerate(tasks):
            w = i % workers
            if w == 0:
                yield compute(task)
                continue
            try:
                ok, result = pickle.load(pipes[w - 1])
            except (EOFError, pickle.UnpicklingError) as exc:
                raise RuntimeError(f"sweep worker {w} ended without the result of task {i}") from exc
            if not ok:
                raise result
            yield result
    finally:
        for pid in pids:
            os.kill(pid, 9)  # SIGKILL, 9 on every POSIX system
            os.waitpid(pid, 0)
        for pipe in pipes:
            pipe.close()


def _serve(compute, tasks: list, fd: int) -> None:
    """A forked child's whole life: write (True, compute(task)) for each task to
    fd, pickled, or (False, the exception) and stop. It leaves through
    os._exit, so it never returns into the caller's stack or flushes its
    copies of the caller's buffers."""
    try:
        with os.fdopen(fd, "wb") as out:
            for task in tasks:
                try:
                    reply = True, compute(task)
                except BaseException as exc:  # raised again in the caller
                    reply = False, exc
                out.write(pickle.dumps(reply))
                out.flush()
                if not reply[0]:
                    break
    finally:
        os._exit(0)


@dataclass(frozen=True)
class SummaryRow:
    family: str
    d: int
    param_name: str
    param: float
    backend: str
    n_ok: int
    mean_nmi: Optional[float]
    std_nmi: Optional[float]
    overflow_count: int
    undefined_count: int
    duplicate_count: int
    nmi_true: Optional[float]


SUMMARY_COLUMNS = [f.name for f in fields(SummaryRow)]


def summarize(records) -> list:
    """Per-cell mean and sample std (ddof = 1) of NMI over status=ok records."""
    groups = {}
    for rec in records:
        key = (rec.family, rec.d, rec.param_name, rec.param, rec.backend)
        groups.setdefault(key, []).append(rec)

    rows = []
    for (family, d, param_name, param, backend), cell in groups.items():
        ok_values = [r.nmi for r in cell if r.status == Status.OK.value]
        mean_nmi = float(np.mean(ok_values)) if ok_values else None
        std_nmi = float(np.std(ok_values, ddof=1)) if len(ok_values) >= 2 else None
        statuses = Counter(r.status for r in cell)
        # overflow_count, undefined_count and duplicate_count follow Status's order after ok
        counts = [statuses[s.value] for s in Status if s is not Status.OK]
        rows.append(SummaryRow(family, d, param_name, param, backend, len(ok_values),
                               mean_nmi, std_nmi, *counts, cell[0].nmi_true))
    return rows


STABILITY_COLUMNS = ["d_joint", "backend", "ln_v", "finite"]


def stability_profile(epsilon, dims) -> list:
    """normalize's result for every backend at each joint dimension in dims, over fixed radii."""
    if not isinstance(dims, (list, tuple, np.ndarray)) or getattr(dims, "ndim", 1) != 1 or len(dims) == 0:
        raise ConfigurationError(_DIMS_RULE)
    dims = [_dim(d) for d in dims]
    return [normalize(epsilon, d, backend) for d in dims for backend in Backend]


# ---------------------------------------------------------------------------
# flat-file output: CSV

def write_records_csv(records, path) -> None:
    write_csv(path, RECORD_COLUMNS, map(attrgetter(*RECORD_COLUMNS), records))


def write_summary_csv(rows, path) -> None:
    write_csv(path, SUMMARY_COLUMNS, map(attrgetter(*SUMMARY_COLUMNS), rows))


def write_stability_csv(results, path) -> None:
    write_csv(path, STABILITY_COLUMNS, ((r.d_joint, r.backend.value, r.ln_v, r.finite) for r in results))


def _or_none(cast):
    """cast for a records column whose empty field stands for None."""
    return lambda text: None if text == "" else cast(text)


# str and int columns parse as declared; float and Optional[float] as float
_RECORD_CASTS = [
    _or_none(f.type if f.type in (str, int) else float) for f in fields(RunRecord)
]
_REQUIRED = [i for i, f in enumerate(fields(RunRecord)) if f.type != Optional[float]]
_ESTIMATES = [RECORD_COLUMNS.index(name) for name in _ESTIMATE_FIELDS]
# the estimate fields a row of each status holds, as run_sweep writes them
_HELD = {Status.OK.value: _ESTIMATES, Status.UNDEFINED_NMI.value: _ESTIMATES[:-1],
         Status.OVERFLOW.value: [], Status.DUPLICATE_POINTS.value: []}
_STATUS = RECORD_COLUMNS.index("status")
_TRUTH = RECORD_COLUMNS.index("nmi_true")
_CHECKSUM = RECORD_COLUMNS.index("dataset_checksum")
_BACKENDS = {backend.value for backend in Backend}


def _record_fault(row):
    """(column index, reason) for the first field of a parsed records row that
    run_sweep never writes so: a nan or infinite number, empty outside the
    Optional columns, a key column outside the config's rules, an unknown
    status, or estimate fields that do not match the status; else None."""
    for i, value in enumerate(row):
        if isinstance(value, float) and not math.isfinite(value):
            return i, f"not finite: {value!r}"
    for i in _REQUIRED:
        if row[i] is None:
            return i, "empty"
    family, d, param_name, param, param_gen, repetition, backend = row[:_STATUS]  # columns 0-6
    spec = FAMILIES.get(family)
    if spec is None:
        return 0, f"not a family: {family!r}"
    try:
        spec.check("param", param)
    except ConfigurationError as exc:
        return 3, str(exc)
    drawn = spec.substitutes.get(param, param)
    # d and repetition parse as int, so _dim's rule and derive_seed's are their bounds
    keys = ((1, d < 1 and f"d must be an integer >= 1, got {d}"),
            (2, param_name != spec.param and f"{param_name!r}, but the {family} parameter is {spec.param!r}"),
            (4, param_gen != drawn and f"{param_gen!r}, but data at param {param!r} are drawn at {drawn!r}"),
            (5, repetition < 0 and f"repetition must be an integer >= 0, got {repetition}"),
            (6, backend not in _BACKENDS and f"not a backend: {backend!r}"))
    for i, reason in keys:
        if reason:
            return i, reason
    held = _HELD.get(row[_STATUS])
    if held is None:
        return _STATUS, f"not a status: {row[_STATUS]!r}"
    for i in _ESTIMATES:
        if (row[i] is None) == (i in held):
            return i, f"{'empty' if i in held else 'not empty'}, but status is {row[_STATUS]}"
    return None


def read_records_csv(path) -> list:
    """Parse a records CSV back into RunRecord objects ('' becomes None). A row
    that run_sweep never writes (see _record_fault), that repeats an earlier
    row's (family, d, param, repetition, backend), whose dataset_checksum
    differs from an earlier row's of its repetition, or whose nmi_true differs
    from an earlier row's of its cell raises ConfigurationError: summarize
    would count a repeated row as one more repetition, the backends of a
    repetition estimate one dataset, and a summary row takes the first row's
    nmi_true."""
    repetitions = {}  # (family, d, param, repetition) -> (dataset_checksum, backends read)
    truths = {}  # (family, d, param) -> nmi_true

    def check(row):
        fault = _record_fault(row)
        if fault is not None:
            return fault
        family, d, _, param, _, repetition, backend = row[:_STATUS]  # columns 0-6
        checksum, backends = repetitions.setdefault((family, d, param, repetition), (row[_CHECKSUM], set()))
        if backend in backends:
            return 6, "repeats an earlier row's family, d, param, repetition and backend"
        if row[_CHECKSUM] != checksum:
            return _CHECKSUM, f"{row[_CHECKSUM]!r}, but an earlier row of its repetition has {checksum!r}"
        truth = truths.setdefault((family, d, param), row[_TRUTH])
        if row[_TRUTH] != truth:
            return _TRUTH, f"{row[_TRUTH]!r}, but an earlier row of its cell has {truth!r}"
        backends.add(backend)
        return None

    names, rows = read_csv(path, _RECORD_CASTS, check)
    if names != RECORD_COLUMNS:
        raise ConfigurationError(f"{path}: unexpected record columns {names}")
    return [RunRecord(*row) for row in rows]
