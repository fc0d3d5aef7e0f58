"""Closed-form MI, marginal entropy, and NMI for the two benchmark families.

Gaussian pairs with componentwise correlation rho:

    I   = -(d/2) ln(1 - rho^2)
    H   = (d/2) ln(2 pi e)
    NMI = -ln(1 - rho^2) / ln(2 pi e), capped at 1.0 (rho -> 1 diverges)

Student-t pairs, independent latent Gaussians scaled by a shared chi-square
draw, pick up mutual information from the scale variable alone:

    I   = c(nu, d) = f(nu) + f(nu + 2d) - 2 f(nu + d)
    f(x) = ln Gamma(x/2) - (x/2) psi(x/2)
    H   = (d/2) ln(nu pi) + f(nu) - f(nu + d)

f decreases monotonically to -infinity (roughly -x/2 for large x), but the
combination c(nu, d) stays positive and vanishes as nu grows, recovering
the Gaussian limit. A non-positive Student-t marginal entropy yields an
undefined NMI (None), mirroring the estimator-side convention. Arguments
out of range raise ConfigurationError: d must be an integer >= 1, rho a real
number in [0, 1] (never a bool), and nu one real number, positive and finite.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import integer, positive_real, real
from .special import digamma, ln_gamma

LN_2_PI_E = 2.8378770664093453  # ln(2 pi e)


@dataclass(frozen=True)
class TruthRecord:
    mi_true: float
    h_marginal_true: float
    # Shannon NMI, mi_true / h_marginal_true, in [0, 1]; None when the entropy
    # is not positive. The estimator's relative entropies are scale-invariant
    # and grow like (d_x / D) ln N, so its NMI does not converge to this value.
    nmi_true: Optional[float]


def gaussian_truth(d: int, rho: float) -> TruthRecord:
    """Reference values for the correlated-Gaussian family; rho a real number in [0, 1]."""
    d = integer("d", d, 1)
    rho = real("rho", rho, 0, 1)
    h = 0.5 * d * LN_2_PI_E
    if rho == 1.0:
        return TruthRecord(mi_true=math.inf, h_marginal_true=h, nmi_true=1.0)
    log_term = math.log1p(-rho * rho)
    return TruthRecord(
        mi_true=-0.5 * d * log_term,
        h_marginal_true=h,
        nmi_true=min(1.0, -log_term / LN_2_PI_E),
    )


def f_aux(x):
    """f(x) = ln Gamma(x/2) - (x/2) psi(x/2), the Student-t entropy block (scalar or array)."""
    half = 0.5 * x
    return ln_gamma(half) - half * digamma(half)


def c_term(nu: float, d: int) -> float:
    """MI contributed by the shared chi-square scale at dimension d."""
    return f_aux(nu) + f_aux(nu + 2.0 * d) - 2.0 * f_aux(nu + d)


def student_t_truth(d: int, nu: float) -> TruthRecord:
    """Reference values for the Student-t family (identity dispersion)."""
    positive_real("nu", nu)
    d = integer("d", d, 1)
    # f at nu, nu + 2d and nu + d in one array pass: the float operations of
    # c_term and f_aux, so the values are bit-identical to theirs
    f_nu, f_2d, f_d = map(float, f_aux(np.array([nu, nu + 2.0 * d, nu + d])))
    mi = f_nu + f_2d - 2.0 * f_d
    h = 0.5 * d * math.log(nu * math.pi) + f_nu - f_d
    nmi: Optional[float]
    if h > 0.0:
        nmi = min(1.0, mi / h)
    else:
        nmi = None
    return TruthRecord(mi_true=mi, h_marginal_true=h, nmi_true=nmi)
