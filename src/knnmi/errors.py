"""Exception types shared across the package, and its argument rules."""

import math

import numpy as np


class ConfigurationError(ValueError):
    """Input the program cannot use: flags, config, data or records file, or the samples."""


def integer(name: str, value, low=None, message=None) -> int:
    """value as an int: a Python or numpy integer, never a bool, and >= low if
    given; otherwise ConfigurationError(message), by default one naming name."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or (low is not None and value < low):
        bound = "" if low is None else f" >= {low}"
        raise ConfigurationError(message or f"{name} must be an integer{bound}, got {value!r}")
    return int(value)


def real_array(value):
    """value as a float64 array (0-d for a number) if it holds real numbers: an
    integer or float dtype, not a ragged list, and no bool among a list's
    entries (numpy reads [1.0, True] as floats); otherwise None."""
    try:
        arr = np.asarray(value)
    except ValueError:  # a ragged list
        return None
    if arr.dtype.kind not in "iuf" or isinstance(value, (list, tuple)) and any(
            isinstance(v, (bool, np.bool_)) for v in np.asarray(value, dtype=object).flat):
        return None
    return arr.astype(np.float64, copy=False)


def positive(name: str, value) -> np.ndarray:
    """value as a float64 array (0-d for a number): real numbers (real_array),
    every entry positive and finite."""
    arr = real_array(value)
    if arr is not None and np.all(np.isfinite(arr)) and np.all(arr > 0.0):
        return arr
    got = "" if isinstance(value, (list, tuple)) or np.ndim(value) else f", got {value!r}"
    raise ConfigurationError(f"{name} must be positive and finite{got}")


def real(name: str, value, low, high) -> float:
    """value as a float: a Python or numpy real number, never a bool, that
    float() converts and that lies in [low, high] (so never NaN), with -0.0
    read as 0.0; otherwise ConfigurationError naming name."""
    number = math.nan
    if not isinstance(value, bool) and isinstance(value, (int, float, np.integer, np.floating)):
        try:
            number = float(value)
        except OverflowError:  # an int beyond float64's range
            pass
    if not low <= number <= high:
        raise ConfigurationError(f"{name} must be a real number in [{low}, {high}], got {value!r}")
    return number + 0.0  # -0.0 + 0.0 is 0.0: one grid value, seed and param


def positive_real(name: str, value) -> float:
    """value as a float: one real number (real), positive and finite, checked in Python."""
    number = real(name, value, 0, math.inf)
    if not 0.0 < number < math.inf:
        raise ConfigurationError(f"{name} must be positive and finite, got {number!r}")
    return number


class DuplicatePointError(ConfigurationError):
    """k + 1 or more samples coincide in joint space, so a k-NN radius is zero.

    Duplicates would later produce ln(0); we fail fast instead of jittering
    the data, which would silently perturb the estimate.
    """

    def __init__(self, index: int):
        self.index = index
        super().__init__(
            f"sample {index} has a duplicate in joint space (k-NN radius is 0)"
        )


class NonFiniteNormalizationError(ValueError):
    """The normalization factor overflowed or underflowed (baseline backend)."""

    def __init__(self, result):
        self.result = result
        super().__init__(
            f"ln V is not finite ({result.ln_v!r}) for backend "
            f"{result.backend.value!r} at joint dimension {result.d_joint}"
        )


class RadiusOverflowError(ConfigurationError):
    """A sample's k-NN radius overflows float64, so no finite estimate exists.

    Max-norm distances are coordinate differences; for finite data beyond
    about 9e307 in magnitude they can exceed the largest float64.
    """

    def __init__(self, index: int):
        self.index = index
        super().__init__(
            f"sample {index}: max-norm coordinate differences overflowed float64 "
            f"(k-NN radius is inf)"
        )

    def __reduce__(self):  # pickled from the index, not the message: a sweep's worker sends it
        return type(self), (self.index,)
