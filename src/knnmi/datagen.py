"""Seeded generation of the two benchmark families.

Streams come from numpy's Philox engine (counter-based 4x64, stable across
platforms and numpy versions under the Generator compatibility policy), so
a spec is a complete, reproducible description of its dataset. The
generator identity string is exported for output metadata.

Draw order is part of the stream contract:

* Gaussian: z1 block (n, d), then z2 block (n, d);
  x = z1, y = rho * z1 + sqrt(1 - rho^2) * z2. The correlation is induced
  per coordinate pair by the 2x2 Cholesky factor, identical to a full
  2d x 2d Cholesky for this block structure at O(nd) cost.
* Student-t: latent x block (n, d), latent y block (n, d), then one
  chi-square draw per sample, u = 2 * Gamma(nu/2) (valid for shape < 1,
  which nu = 0.125 requires); both marginals are scaled by the SAME
  sqrt(nu/u), which is what couples X and Y even at identity dispersion.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import ConfigurationError, integer, positive_real, real

GENERATOR_ID = "numpy-philox-4x64"


# the paper's largest sample is N = 10000 at d = 512, 5.1e6 values per array;
# a sample beyond this bound (512 MiB per float64 array) is refused, not allocated
MAX_SAMPLE_VALUES = 2**26


def check_sample_size(n: int, d: int) -> None:
    """ConfigurationError naming n and d when an n x d array exceeds MAX_SAMPLE_VALUES."""
    values = int(n) * int(d)
    if values > MAX_SAMPLE_VALUES:
        raise ConfigurationError(
            f"n = {n} samples at d = {d} make {values} values per array, "
            f"more than the {MAX_SAMPLE_VALUES} allowed"
        )


def _check_sample(spec) -> None:
    """The checks both specs share: d and n integers >= 1, a sample within
    MAX_SAMPLE_VALUES, and a seed in Philox's 128-bit key range."""
    d = integer("d", spec.d, 1)
    check_sample_size(integer("n", spec.n, 1), d)
    # Philox takes a 128-bit key; numpy rejects anything outside it only at generation
    rule = f"seed must be an integer in [0, 2**128), got {spec.seed!r}"
    if integer("seed", spec.seed, 0, rule) >= 2**128:
        raise ConfigurationError(rule)


@dataclass(frozen=True)
class GaussianSpec:
    """Componentwise-correlated Gaussian pairs with unit marginal variances."""

    d: int
    rho: float
    n: int
    seed: int

    def __post_init__(self):
        _check_sample(self)
        if real("rho", self.rho, 0, 1) == 1.0:
            raise ConfigurationError(
                f"rho must lie in [0, 1) for generation, got {self.rho}"
            )


@dataclass(frozen=True)
class StudentTSpec:
    """Multivariate Student-t pairs, identity dispersion, via a shared chi-square scale mixture."""

    d: int
    nu: float
    n: int
    seed: int

    def __post_init__(self):
        _check_sample(self)
        positive_real("nu", self.nu)


def _generator(seed: int) -> "np.random.Generator":
    return np.random.Generator(np.random.Philox(key=seed))


def generate_gaussian(spec: GaussianSpec) -> Dataset:
    g = _generator(spec.seed)
    z1 = g.standard_normal((spec.n, spec.d))
    z2 = g.standard_normal((spec.n, spec.d))
    y = spec.rho * z1 + math.sqrt(1.0 - spec.rho * spec.rho) * z2
    return Dataset(x=z1, y=y)


def generate_student_t(spec: StudentTSpec) -> Dataset:
    g = _generator(spec.seed)
    latent_x = g.standard_normal((spec.n, spec.d))
    latent_y = g.standard_normal((spec.n, spec.d))
    u = 2.0 * g.standard_gamma(spec.nu / 2.0, size=spec.n)  # chi-square(nu)
    with np.errstate(divide="ignore", over="ignore"):
        scale = np.sqrt(spec.nu / u)[:, None]
    # a tiny nu draws u that underflow to 0 or near it; a finite scale is below
    # 1.4e154, the root of the largest double, so the latent product cannot overflow
    if not np.isfinite(scale).all():
        raise ConfigurationError(
            f"nu = {spec.nu} is too small: the chi-square scale sqrt(nu / u) is not finite"
        )
    return Dataset(x=latent_x * scale, y=latent_y * scale)
