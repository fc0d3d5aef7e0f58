"""Sweep driver: generate, estimate with every backend, attach ground truth.

FAMILIES is the one place where a synthetic family is defined: the config,
the sweep and `knnmi gen` read every family decision from it and build data
through `Family.dataset`.

A sweep iterates cells (dimension x grid point), repeats each cell with
derived seeds, and estimates every repetition with each configured
backend. The SAME dataset, k-NN radii and digamma statistics are shared by
all backends within a repetition (the dataset checksum column verifies the
pairing downstream), so backend comparisons are paired and each backend
adds only its ln V and entropy arithmetic. Baseline overflow is recorded
as a status, never aborting the sweep.

Cell seeds are derived by hashing the cell coordinates (sha256), making
every cell independently reproducible regardless of sweep order or subset.

Records are emitted one per (cell, repetition, backend) in deterministic
cell order, as flat rows; aggregation is a separate pass (summarize) so
raw records can be re-analyzed without re-running the O(N^2) estimation.
"""

import hashlib
import json
import time
from collections import Counter, namedtuple
from dataclasses import dataclass, field, fields
from enum import Enum
from operator import attrgetter
from typing import Optional

import numpy as np

from .datagen import GaussianSpec, StudentTSpec, check_sample_size, generate_gaussian, generate_student_t
from .dataset import Dataset, dataset_checksum, read_csv, write_csv
from .errors import ConfigurationError, DuplicatePointError, integer, positive
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


_REALS = (int, float, np.integer, np.floating)
_DIMS_RULE = "dims must be a non-empty list of positive integers"


def _dims(values) -> list:
    """values as a non-empty list of ints >= 1; ConfigurationError(_DIMS_RULE) otherwise."""
    dims = [integer("dims entry", d, 1, _DIMS_RULE) for d in values]
    if not dims:
        raise ConfigurationError(_DIMS_RULE)
    return dims


def _unit_interval(name: str, values) -> None:
    if not all(0.0 <= v <= 1.0 for v in values):
        raise ConfigurationError(f"{name} must lie in [0, 1]")


class Family(namedtuple("Family", "param default_grid check default_dims "
                                  "spec generate truth substitutes")):
    """One family: its parameter (the spec field, the gen flag and f"{param}_grid"),
    default grid, the check(name, values) its grid values pass, default dims,
    spec, generator, truth, and the grid points drawn at a substitute."""

    def dataset(self, d: int, param: float, n: int, seed: int) -> Dataset:
        """n samples at dimension d drawn at `param`: gen's and the sweep's one path to data."""
        return self.generate(self.spec(d=d, n=n, seed=seed, **{self.param: param}))


# generate and truth look their function up at call time, so a rebound module
# attribute (a tracer's wrapper, a test's stub) still reaches them
FAMILIES = {
    GAUSSIAN: Family("rho", DEFAULT_RHO_GRID, _unit_interval, DEFAULT_GAUSSIAN_DIMS, GaussianSpec,
                     lambda spec: generate_gaussian(spec), lambda d, rho: gaussian_truth(d, rho),
                     {1.0: RHO_GENERATION_SUBSTITUTE}),
    STUDENT_T: Family("nu", DEFAULT_NU_GRID, positive, DEFAULT_STUDENT_T_DIMS, StudentTSpec,
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
        if self.dims is None:
            self.dims = list(family.default_dims)
        if not isinstance(self.dims, list):
            raise ConfigurationError(_DIMS_RULE)
        self.dims = _dims(self.dims)
        for other in FAMILIES.values():
            if other is not family and getattr(self, f"{other.param}_grid") is not None:
                raise ConfigurationError(f"{other.param}_grid does not apply to the {self.family} family")
        name = f"{family.param}_grid"
        grid = getattr(self, name)
        grid = family.default_grid if grid is None else grid
        # bool is never a number here
        if not isinstance(grid, list) or any(isinstance(v, bool) or not isinstance(v, _REALS)
                                             for v in grid):
            raise ConfigurationError(f"{name} must be a list of numbers, got {grid!r}")
        grid = [float(v) for v in grid]
        family.check(f"{name} values", grid)
        setattr(self, name, grid)
        for name, low in (("n", 2), ("k", 1), ("repetitions", 1)):
            setattr(self, name, integer(name, getattr(self, name), low))
        for d in self.dims:
            check_sample_size(self.n, d)
        if self.k >= self.n:
            raise ConfigurationError(f"k = {self.k} must be smaller than n = {self.n}")
        self.base_seed = integer("base_seed", self.base_seed)
        if not isinstance(self.backends, list):
            raise ConfigurationError(f"backends must be a list of names, got {self.backends!r}")
        backends = [Backend(b) for b in self.backends]
        if not backends:
            raise ConfigurationError("backends must not be empty")
        self.backends = backends

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

    @property
    def param_name(self) -> str:
        return FAMILIES[self.family].param

    def grid(self) -> list:
        """(nominal parameter, generation parameter) pairs."""
        family = FAMILIES[self.family]
        return [(v, family.substitutes.get(v, v)) for v in getattr(self, f"{family.param}_grid")]


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
    text = (f"{integer('base_seed', base_seed)}|{family}|{integer('d', d, 1)}|{float(param)!r}|"
            f"{integer('repetition', repetition, 0)}")
    digest = hashlib.sha256(text.encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big")


def _generate(config: ExperimentConfig, d: int, param_gen: float, seed: int) -> Dataset:
    return FAMILIES[config.family].dataset(d, param_gen, config.n, seed)


_ESTIMATE_FIELDS = ("mi_ksg", "h_x", "h_y", "h_xy", "mi_from_entropies", "nmi")


def run_sweep(config: ExperimentConfig) -> list:
    """Run every (dim, grid point, repetition, backend) cell of the sweep."""
    truth = FAMILIES[config.family].truth
    records = []
    for d in config.dims:
        for param, param_gen in config.grid():
            nmi_true = truth(d, param).nmi_true
            for rep in range(config.repetitions):
                seed = derive_seed(config.base_seed, config.family, d, param, rep)
                start = time.perf_counter()
                data = _generate(config, d, param_gen, seed)
                checksum = dataset_checksum(data)
                try:
                    radii = compute_knn_radii(data, config.k)
                except DuplicatePointError:
                    results = [None] * len(config.backends)
                else:
                    results = estimate_backends(radii, d, d, config.backends)
                wall_time_ms = (time.perf_counter() - start) * 1000.0

                for backend, result in zip(config.backends, results):
                    status = Status.DUPLICATE_POINTS if result is None else Status.of(result)
                    # None and a NormalizationResult have none of these fields
                    values = {name: getattr(result, name, None) for name in _ESTIMATE_FIELDS}
                    records.append(
                        RunRecord(
                            family=config.family,
                            d=d,
                            param_name=config.param_name,
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
    return records


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


@dataclass(frozen=True)
class StabilityRow:
    d_joint: int
    backend: str
    ln_v: float
    finite: bool


STABILITY_COLUMNS = [f.name for f in fields(StabilityRow)]


def stability_profile(epsilon, dims) -> list:
    """Evaluate all three ln V backends over a dimension sweep of fixed radii."""
    rows = []
    for d in _dims(dims):
        for backend in Backend:
            result = normalize(epsilon, d, backend)
            rows.append(
                StabilityRow(
                    d_joint=d, backend=backend.value, ln_v=result.ln_v, finite=result.finite
                )
            )
    return rows


# ---------------------------------------------------------------------------
# flat-file output: CSV (canonical) and JSON-lines (optional mirror)

def write_records_csv(records, path) -> None:
    write_csv(path, RECORD_COLUMNS, map(attrgetter(*RECORD_COLUMNS), records))


def write_summary_csv(rows, path) -> None:
    write_csv(path, SUMMARY_COLUMNS, map(attrgetter(*SUMMARY_COLUMNS), rows))


def write_stability_csv(rows, path) -> None:
    write_csv(path, STABILITY_COLUMNS, map(attrgetter(*STABILITY_COLUMNS), rows))


def write_records_jsonl(records, path) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for rec in records:
            obj = {c: getattr(rec, c) for c in RECORD_COLUMNS}
            fh.write(json.dumps(obj) + "\n")


def _or_none(cast):
    """cast for a records column whose empty field stands for None."""
    return lambda text: None if text == "" else cast(text)


# str and int columns parse as declared; float and Optional[float] as float
_RECORD_CASTS = [
    _or_none(f.type if f.type in (str, int) else float) for f in fields(RunRecord)
]


def read_records_csv(path) -> list:
    """Parse a records CSV back into RunRecord objects ('' becomes None)."""
    names, rows = read_csv(path, _RECORD_CASTS)
    if names != RECORD_COLUMNS:
        raise ConfigurationError(f"{path}: unexpected record columns {names}")
    return [RunRecord(*row) for row in rows]
