"""Paired-sample container and the CSV dialect of every knnmi file.

The dialect: ASCII, ``\n`` line ends, a header of column names, floats as
``repr`` (full round-trip precision), None as an empty field and bools as
``true``/``false``. A dataset's header is ``x_1,...,x_dx,y_1,...,y_dy``.
"""

import hashlib
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, integer, real_array


@dataclass(frozen=True)
class Dataset:
    """N paired samples with marginal dimensionalities d_x and d_y.

    ``x`` has shape (n, d_x) and ``y`` has shape (n, d_y); all entries must
    be finite real numbers, never bool, text or complex. A zero-width
    marginal (d_y = 0) is allowed as a degenerate single-variable fixture.
    """

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x, y = real_array(self.x), real_array(self.y)
        if x is None or y is None or x.ndim != 2 or y.ndim != 2:
            raise ConfigurationError("x and y must be 2-D sample matrices of real numbers")
        x, y = np.ascontiguousarray(x), np.ascontiguousarray(y)
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


def write_csv(path, columns, rows) -> None:
    """Write a header of `columns` and one line per row of cells."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(map(_cell, row)) + "\n")


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def read_csv(path, casts, check=lambda row: None):
    """(column names, rows); each row is parsed as it is iterated.

    `casts` is zipped with each row's fields: one parser per column, or
    itertools.repeat(float) for all. `check` sees each parsed row and returns
    None, or (column index, reason) for a row the file must not hold. Rows are
    counted by file line and blank lines skipped. Non-ASCII bytes, no header,
    a wrong field count, a cell its cast refuses or a row `check` refuses
    raise ConfigurationError.
    """
    with open(path, "r", encoding="ascii") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise ConfigurationError(f"{path}: not an ASCII file ({exc})") from None
    names = lines[0].strip().split(",") if lines else [""]
    if names == [""]:
        raise ConfigurationError(f"{path}: empty or headerless CSV")
    return names, _rows(path, names, lines, casts, check)


def _rows(path, names, lines, casts, check):
    for row_no, line in enumerate(itertools.islice(lines, 1, None), start=2):
        cells = line.strip().split(",")
        if cells == [""]:
            continue
        if len(cells) != len(names):
            raise ConfigurationError(f"{path}: row {row_no} has {len(cells)} fields")
        row = []
        for cast, cell in zip(casts, cells):
            try:
                row.append(cast(cell))
            except ValueError:
                fault = len(row), f"not a number: {cell!r}"
                break
        else:
            fault = check(row)
        if fault is not None:
            column, reason = fault
            raise ConfigurationError(
                f"{path}: row {row_no}, column {column + 1} ({names[column]}): {reason}")
        yield row


def dataset_to_csv(data: Dataset, path) -> None:
    """Write the dataset with full round-trip float precision."""
    write_csv(path, _columns(data.d_x, data.d_y), map(np.ndarray.tolist, data.joint()))


def _columns(d_x: int, d_y: int) -> list:
    """A dataset's header: x_1..x_dx, then y_1..y_dy."""
    return [f"x_{j}" for j in range(1, d_x + 1)] + [f"y_{j}" for j in range(1, d_y + 1)]


def dataset_from_csv(path, d_x=None, d_y=None) -> Dataset:
    """Load a dataset written by :func:`dataset_to_csv`.

    Without d_x and d_y the header must be the one dataset_to_csv writes,
    x_1..x_dx,y_1..y_dy, and gives the split. Explicit d_x/d_y split the
    columns by position, whatever their names, and must sum to the column
    count.
    """
    names, rows = read_csv(path, itertools.repeat(float))
    n_cols = len(names)
    if d_x is None and d_y is None:
        d_x = sum(1 for c in names if c.startswith("x_"))
        d_y = n_cols - d_x
        if names != _columns(d_x, d_y):
            raise ConfigurationError(
                f"{path}: cannot infer d_x/d_y from header {','.join(names)!r}: "
                f"expected x_1..x_dx,y_1..y_dy, or give both d_x and d_y"
            )
    elif d_x is None or d_y is None:
        raise ConfigurationError("give both d_x and d_y, or neither")
    d_x, d_y = integer("d_x", d_x, 0), integer("d_y", d_y, 0)
    if d_x + d_y != n_cols:
        raise ConfigurationError(
            f"{path}: d_x + d_y = {d_x + d_y} does not match {n_cols} columns"
        )
    values = np.fromiter(rows, dtype=(np.float64, n_cols))
    return Dataset(x=values[:, :d_x], y=values[:, d_x:])
