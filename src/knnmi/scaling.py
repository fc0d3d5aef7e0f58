"""Normalization factor V and scaling-invariant radii, three ways.

V is the D-th power mean of the k-NN radii, V = (mean eps_i^D)^(1/D) with
D the joint dimensionality. Three backends compute ln V:

* baseline      — literal linear-domain evaluation. Raising radii to the
                  D-th power overflows double precision once D*ln(eps)
                  exceeds ~709.8 (and symmetrically underflows for radii
                  below 1), which is exactly the failure mode under study;
                  the result is reported with finite=False, never repaired.
* proposed      — log-domain form: factor out the largest radius so every
                  remaining ratio is <= 1, then
                  ln V = ln eps_max + (1/D) ln(sum (eps_i/eps_max)^D / N).
                  Finite for any positive finite radii at any D.
* dominant      — high-dimension limit ln V = ln eps_max. The correction
                  term above is bounded by ln(N)/D, so the proposed value
                  converges to this as D grows.

The ratio sum is accumulated left-to-right over sample index (no pairwise
or compensated summation) so results are independent of the execution
environment; error is dominated by the power operation, not accumulation.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NonFiniteNormalizationError


class Backend(str, enum.Enum):
    """Which ln V computation produced a normalization result.

    Names parse in any case and with surrounding blanks: Backend(" Baseline ").
    """

    BASELINE = "baseline"
    PROPOSED = "proposed"
    DOMINANT_TERM = "dominant"

    @classmethod
    def _missing_(cls, value):
        key = str(value).strip().lower()
        for member in cls:
            if member.value == key:
                return member
        raise ConfigurationError(
            f"unknown backend {value!r}; expected one of baseline/proposed/dominant"
        )


@dataclass(frozen=True)
class NormalizationResult:
    ln_v: float
    backend: Backend
    finite: bool
    epsilon_max: float
    d_joint: int


@dataclass(frozen=True)
class ScaledRadii:
    """Radii divided by V, plus the cached mean log needed by the estimators."""

    epsilon_tilde: np.ndarray
    mean_ln_epsilon_tilde: float


def _sum_left_to_right(values: np.ndarray) -> float:
    total = 0.0
    for v in values.tolist():
        total += v
    return total


def _validated_radii(epsilon) -> np.ndarray:
    eps = np.asarray(epsilon, dtype=np.float64)
    if eps.ndim != 1:
        eps = eps.reshape(-1)
    if eps.size == 0:
        raise ConfigurationError("radius vector is empty")
    if not np.all(np.isfinite(eps)) or np.any(eps <= 0.0):
        raise ValueError("radii must be positive and finite")
    return eps


def _validated_dim(d_joint) -> int:
    if not isinstance(d_joint, (int, np.integer)) or d_joint < 1:
        raise ConfigurationError(f"joint dimension must be a positive integer, got {d_joint!r}")
    return int(d_joint)


def ln_v_baseline(epsilon, d_joint: int) -> NormalizationResult:
    """ln V evaluated literally in the linear domain (mean of eps^D, D-th root, log)."""
    eps = _validated_radii(epsilon)
    d = _validated_dim(d_joint)
    with np.errstate(over="ignore", under="ignore"):
        powers = eps**d
        mean = _sum_left_to_right(powers) / eps.size
        root = mean ** (1.0 / d)
        ln_v = math.log(root) if root > 0.0 else -math.inf
    return NormalizationResult(
        ln_v=ln_v,
        backend=Backend.BASELINE,
        finite=bool(math.isfinite(ln_v)),
        epsilon_max=float(eps.max()),
        d_joint=d,
    )


def ln_v_proposed(epsilon, d_joint: int) -> NormalizationResult:
    """ln V with the largest radius factored out; finite for any valid input."""
    eps = _validated_radii(epsilon)
    d = _validated_dim(d_joint)
    eps_max = float(eps.max())
    with np.errstate(under="ignore"):
        ratios = eps / eps_max  # all <= 1, so the powers cannot overflow
        ratio_sum = _sum_left_to_right(ratios**d)
    ln_v = math.log(eps_max) + math.log(ratio_sum / eps.size) / d
    return NormalizationResult(
        ln_v=ln_v,
        backend=Backend.PROPOSED,
        finite=bool(math.isfinite(ln_v)),
        epsilon_max=eps_max,
        d_joint=d,
    )


def ln_v_dominant(epsilon, d_joint: int) -> NormalizationResult:
    """High-dimension limit: V is dominated by the largest radius."""
    eps = _validated_radii(epsilon)
    d = _validated_dim(d_joint)
    eps_max = float(eps.max())
    return NormalizationResult(
        ln_v=math.log(eps_max),
        backend=Backend.DOMINANT_TERM,
        finite=True,
        epsilon_max=eps_max,
        d_joint=d,
    )


_BACKENDS = {
    Backend.BASELINE: ln_v_baseline,
    Backend.PROPOSED: ln_v_proposed,
    Backend.DOMINANT_TERM: ln_v_dominant,
}


def normalize(epsilon, d_joint: int, backend: Backend) -> NormalizationResult:
    """Dispatch to the requested backend."""
    return _BACKENDS[Backend(backend)](epsilon, d_joint)


def scale_radii(epsilon, norm: NormalizationResult) -> ScaledRadii:
    """Divide radii by V entirely in the log domain.

    eps_tilde[i] = exp(ln eps[i] - ln V); no intermediate can leave the
    representable range. Raises NonFiniteNormalizationError when the
    normalization itself overflowed (the baseline failure surfacing to
    callers).
    """
    eps = _validated_radii(epsilon)
    if not norm.finite:
        raise NonFiniteNormalizationError(norm)
    shifted = np.log(eps) - norm.ln_v
    return ScaledRadii(
        epsilon_tilde=np.exp(shifted),
        mean_ln_epsilon_tilde=_sum_left_to_right(shifted) / eps.size,
    )
