"""Sweep driver: generate, estimate with every backend, attach ground truth.

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
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Optional

import numpy as np

from .datagen import GaussianSpec, StudentTSpec, generate_gaussian, generate_student_t
from .dataset import dataset_checksum
from .errors import ConfigurationError, DuplicatePointError
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


_INTEGERS = (int, np.integer)
_REALS = (int, float, np.integer, np.floating)
_DIMS_RULE = "dims must be a non-empty list of positive integers"


def _integer(name: str, value, low=None) -> int:
    """value as an int: a Python or numpy integer, never a bool, and >= low if given."""
    if isinstance(value, bool) or not isinstance(value, _INTEGERS) or (low is not None and value < low):
        bound = "" if low is None else f" >= {low}"
        raise ConfigurationError(f"{name} must be an integer{bound}, got {value!r}")
    return int(value)


def _dims(values) -> list:
    """values as a non-empty list of ints >= 1; ConfigurationError(_DIMS_RULE) otherwise."""
    try:
        dims = [_integer("dims entry", d, 1) for d in values]
    except ConfigurationError:
        raise ConfigurationError(_DIMS_RULE) from None
    if not dims:
        raise ConfigurationError(_DIMS_RULE)
    return dims


def _is_list_of(values, kinds) -> bool:
    """True for a list whose entries are all of `kinds`; bool is never a number here."""
    return isinstance(values, list) and all(
        isinstance(v, kinds) and not isinstance(v, bool) for v in values
    )


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
        if self.family not in (GAUSSIAN, STUDENT_T):
            raise ConfigurationError(
                f"family must be {GAUSSIAN!r} or {STUDENT_T!r}, got {self.family!r}"
            )
        if self.dims is None:
            self.dims = list(
                DEFAULT_GAUSSIAN_DIMS if self.family == GAUSSIAN else DEFAULT_STUDENT_T_DIMS
            )
        if not isinstance(self.dims, list):
            raise ConfigurationError(_DIMS_RULE)
        self.dims = _dims(self.dims)
        if self.family == GAUSSIAN:
            if self.rho_grid is None:
                self.rho_grid = list(DEFAULT_RHO_GRID)
            if not _is_list_of(self.rho_grid, _REALS):
                raise ConfigurationError(f"rho_grid must be a list of numbers, got {self.rho_grid!r}")
            self.rho_grid = [float(r) for r in self.rho_grid]
            if any(not 0.0 <= r <= 1.0 for r in self.rho_grid):
                raise ConfigurationError("rho_grid values must lie in [0, 1]")
        else:
            if self.nu_grid is None:
                self.nu_grid = list(DEFAULT_NU_GRID)
            if not _is_list_of(self.nu_grid, _REALS):
                raise ConfigurationError(f"nu_grid must be a list of numbers, got {self.nu_grid!r}")
            self.nu_grid = [float(v) for v in self.nu_grid]
            if any(v <= 0.0 for v in self.nu_grid):
                raise ConfigurationError("nu_grid values must be positive")
        for name, low in (("n", 2), ("k", 1), ("repetitions", 1)):
            setattr(self, name, _integer(name, getattr(self, name), low))
        if self.k >= self.n:
            raise ConfigurationError(f"k = {self.k} must be smaller than n = {self.n}")
        self.base_seed = _integer("base_seed", self.base_seed)
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
            except json.JSONDecodeError as exc:
                raise ConfigurationError(f"{path}: not valid JSON ({exc})") from exc
        if not isinstance(raw, dict):
            raise ConfigurationError(f"{path}: config must be a JSON object")
        return cls.from_dict(raw)

    @property
    def param_name(self) -> str:
        return "rho" if self.family == GAUSSIAN else "nu"

    def grid(self) -> list:
        """(nominal parameter, generation parameter) pairs."""
        if self.family == GAUSSIAN:
            return [
                (r, RHO_GENERATION_SUBSTITUTE if r == 1.0 else r) for r in self.rho_grid
            ]
        return [(v, v) for v in self.nu_grid]


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
    text = f"{int(base_seed)}|{family}|{int(d)}|{float(param)!r}|{int(repetition)}"
    digest = hashlib.sha256(text.encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big")


def _generate(config: ExperimentConfig, d: int, param_gen: float, seed: int):
    if config.family == GAUSSIAN:
        return generate_gaussian(GaussianSpec(d=d, rho=param_gen, n=config.n, seed=seed))
    return generate_student_t(StudentTSpec(d=d, nu=param_gen, n=config.n, seed=seed))


def _truth_nmi(config: ExperimentConfig, d: int, param: float) -> Optional[float]:
    if config.family == GAUSSIAN:
        return gaussian_truth(d, param).nmi_true
    return student_t_truth(d, param).nmi_true


_ESTIMATE_FIELDS = ("mi_ksg", "h_x", "h_y", "h_xy", "mi_from_entropies", "nmi")


def run_sweep(config: ExperimentConfig) -> list:
    """Run every (dim, grid point, repetition, backend) cell of the sweep."""
    records = []
    for d in config.dims:
        for param, param_gen in config.grid():
            nmi_true = _truth_nmi(config, d, param)
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
                    values = dict.fromkeys(_ESTIMATE_FIELDS)
                    if result is None:
                        status = Status.DUPLICATE_POINTS
                    elif isinstance(result, NormalizationResult):
                        status = Status.OVERFLOW
                    else:
                        values = {name: getattr(result, name) for name in _ESTIMATE_FIELDS}
                        status = Status.OK if result.nmi is not None else Status.UNDEFINED_NMI
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
        rows.append(
            SummaryRow(
                family=family,
                d=d,
                param_name=param_name,
                param=param,
                backend=backend,
                n_ok=len(ok_values),
                mean_nmi=mean_nmi,
                std_nmi=std_nmi,
                overflow_count=sum(r.status == Status.OVERFLOW.value for r in cell),
                undefined_count=sum(r.status == Status.UNDEFINED_NMI.value for r in cell),
                duplicate_count=sum(r.status == Status.DUPLICATE_POINTS.value for r in cell),
                nmi_true=cell[0].nmi_true,
            )
        )
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

def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(rows, columns, path) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_format_cell(getattr(row, c)) for c in columns) + "\n")


def write_records_csv(records, path) -> None:
    _write_csv(records, RECORD_COLUMNS, path)


def write_summary_csv(rows, path) -> None:
    _write_csv(rows, SUMMARY_COLUMNS, path)


def write_stability_csv(rows, path) -> None:
    _write_csv(rows, STABILITY_COLUMNS, path)


def write_records_jsonl(records, path) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for rec in records:
            obj = {c: getattr(rec, c) for c in RECORD_COLUMNS}
            fh.write(json.dumps(obj) + "\n")


# str and int columns parse as declared; float and Optional[float] as float
_RECORD_PARSERS = {
    f.name: f.type if f.type in (str, int) else float for f in fields(RunRecord)
}


def read_records_csv(path) -> list:
    """Parse a records CSV back into RunRecord objects ('' becomes None)."""
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip().split(",")
        if header != RECORD_COLUMNS:
            raise ConfigurationError(f"{path}: unexpected record columns {header}")
        records = []
        for line_no, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != len(RECORD_COLUMNS):
                raise ConfigurationError(f"{path}: row {line_no} has {len(parts)} fields")
            kwargs = {}
            for name, text in zip(RECORD_COLUMNS, parts):
                parser = _RECORD_PARSERS[name]
                kwargs[name] = None if text == "" else parser(text)
            records.append(RunRecord(**kwargs))
    return records
