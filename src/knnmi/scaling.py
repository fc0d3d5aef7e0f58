"""Normalization factor V of the k-NN radii, three ways.

V is the D-th power mean of the k-NN radii, V = (mean eps_i^D)^(1/D) with
D the joint dimensionality. Three backends compute ln V:

* baseline      — literal linear-domain evaluation. Raising radii to the
                  D-th power overflows double precision once D*ln(eps)
                  exceeds ~709.8, which is exactly the failure mode under
                  study; that, or a power sum that underflows to 0, is
                  reported with finite=False, never repaired. Below a
                  largest term eps_max^D of 2^-1022 it loses bits silently.
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
The estimators divide the radii by V in the log domain, ln eps_i - ln V,
so no scaled radius is ever formed in the linear domain.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, integer, positive


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
    epsilon_max: float
    d_joint: int

    @property
    def finite(self) -> bool:
        return math.isfinite(self.ln_v)


def _sum_left_to_right(values: np.ndarray) -> float:
    # add.accumulate adds strictly in index order, unlike add.reduce (pairwise)
    return float(np.add.accumulate(values)[-1])


def normalize(epsilon, d_joint: int, backend: Backend) -> NormalizationResult:
    """ln V of the radii at joint dimension d_joint by the requested backend.

    Raises ConfigurationError for an unknown backend, an empty radius
    vector, radii that are not positive and finite, or a joint dimension
    that is not a positive integer. A baseline overflow is not an error:
    it comes back with finite False.
    """
    backend = Backend(backend)
    eps = positive("radii", epsilon).reshape(-1)
    if eps.size == 0:
        raise ConfigurationError("radius vector is empty")
    d = integer("d_joint", d_joint, 1)
    eps_max = float(eps.max())

    with np.errstate(over="ignore", under="ignore"):
        if backend is Backend.BASELINE:
            root = (_sum_left_to_right(eps**d) / eps.size) ** (1.0 / d)
            ln_v = math.log(root) if root > 0.0 else -math.inf
        elif backend is Backend.PROPOSED:
            # every ratio is <= 1, so the powers cannot overflow
            ratio_sum = _sum_left_to_right((eps / eps_max) ** d)
            ln_v = math.log(eps_max) + math.log(ratio_sum / eps.size) / d
        else:
            ln_v = math.log(eps_max)
    return NormalizationResult(ln_v=ln_v, backend=backend, epsilon_max=eps_max, d_joint=d)
