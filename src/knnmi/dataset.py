"""Paired-sample container and its CSV interchange format.

The CSV layout is the cross-implementation contract: one header line
``x_1,...,x_dx,y_1,...,y_dy``, one sample per row, floats written with
full round-trip precision.
"""

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError


@dataclass(frozen=True)
class Dataset:
    """N paired samples with marginal dimensionalities d_x and d_y.

    ``x`` has shape (n, d_x) and ``y`` has shape (n, d_y); all entries must
    be finite. A zero-width marginal (d_y = 0) is allowed as a degenerate
    single-variable fixture.
    """

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.ascontiguousarray(self.x, dtype=np.float64)
        y = np.ascontiguousarray(self.y, dtype=np.float64)
        if x.ndim != 2 or y.ndim != 2:
            raise ConfigurationError("x and y must be 2-D sample matrices")
        if x.shape[0] != y.shape[0]:
            raise ConfigurationError(
                f"x and y row counts differ: {x.shape[0]} vs {y.shape[0]}"
            )
        if x.shape[0] < 1:
            raise ConfigurationError("dataset must contain at least one sample")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ConfigurationError("dataset entries must all be finite")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d_x(self) -> int:
        return self.x.shape[1]

    @property
    def d_y(self) -> int:
        return self.y.shape[1]

    def joint(self) -> np.ndarray:
        """Samples concatenated into the (n, d_x + d_y) joint space."""
        return np.hstack([self.x, self.y])


def dataset_checksum(data: Dataset) -> str:
    """Stable content hash, used to verify dataset sharing across backends."""
    h = hashlib.sha256()
    h.update(data.x.tobytes())
    h.update(data.y.tobytes())
    return h.hexdigest()[:16]


def csv_header(d_x: int, d_y: int) -> str:
    cols = [f"x_{j}" for j in range(1, d_x + 1)] + [f"y_{j}" for j in range(1, d_y + 1)]
    return ",".join(cols)


def dataset_to_csv(data: Dataset, path) -> None:
    """Write the dataset with full round-trip float precision."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(csv_header(data.d_x, data.d_y) + "\n")
        joint = data.joint()
        for row in joint:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def dataset_from_csv(path, d_x=None, d_y=None) -> Dataset:
    """Load a dataset written by :func:`dataset_to_csv`.

    The split between x and y columns is taken from the header when the
    dimensions are not given explicitly; explicit d_x/d_y must sum to the
    column count.
    """
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip()
        names = header.split(",") if header else []
        rows = [line.strip() for line in fh if line.strip()]
    n_cols = len(names)
    if n_cols == 0:
        raise ConfigurationError(f"{path}: empty or headerless CSV")
    if d_x is None and d_y is None:
        d_x = sum(1 for c in names if c.startswith("x_"))
        d_y = sum(1 for c in names if c.startswith("y_"))
        if d_x + d_y != n_cols:
            raise ConfigurationError(
                f"{path}: cannot infer d_x/d_y from header {header!r}"
            )
    elif d_x is None or d_y is None:
        raise ConfigurationError("give both d_x and d_y, or neither")
    elif d_x < 0 or d_y < 0:
        raise ConfigurationError(f"d_x and d_y must be >= 0, got {d_x} and {d_y}")
    if d_x + d_y != n_cols:
        raise ConfigurationError(
            f"{path}: d_x + d_y = {d_x + d_y} does not match {n_cols} columns"
        )
    values = np.empty((len(rows), n_cols), dtype=np.float64)
    for i, line in enumerate(rows):
        parts = line.split(",")
        if len(parts) != n_cols:
            raise ConfigurationError(f"{path}: row {i + 2} has {len(parts)} fields")
        values[i] = [float(p) for p in parts]
    return Dataset(x=values[:, :d_x], y=values[:, d_x:])
