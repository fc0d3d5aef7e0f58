"""KSG mutual information, relative entropies, and normalized MI.

Everything here is assembly over a RadiusSet and the ln V of its radii,
with ln eps_tilde_i = ln eps_i - ln V the log of the scaled radius:

    mi_ksg   = psi(N) + psi(k) - < psi(n_x + 1) + psi(n_y + 1) >
    h_x      = -< psi(n_x + 1) > + psi(N) + d_x < ln eps_tilde >
    h_xy     = -psi(k) + psi(N) + (d_x + d_y) < ln eps_tilde >
    nmi      = (h_x + h_y - h_xy) / sqrt(h_x * h_y)

Backends differ only in ln V: estimate_backends computes the digamma terms,
their means, mi_ksg and ln eps once, and per backend only ln V,
< ln eps_tilde > and the entropy and NMI arithmetic.

Note that h_x + h_y - h_xy cancels the < ln eps_tilde > terms and reduces
algebraically to the KSG expression, so the normalization backend only
ever influences the entropies (hence the NMI denominator). Both MI routes
are computed and reported.

The relative entropies are not Shannon differential entropies. Dividing
the radii by V makes them invariant to rescaling the data, and since V
shrinks like N^(-1/D) they grow like (d_x / D) ln N. The MI estimates
target the true MI; the NMI is that MI over these relative entropies, not
over the Shannon entropies of the data.

NMI is undefined when the entropy product is not positive; that case
returns None rather than raising, because negative relative entropies are
legitimate data. The d_x < ln eps_tilde > term falls about linearly in d_x,
so at Gaussian rho 0.5, k = 5 both marginal entropies cross zero near
d = 24 at N = 1000 and near d = 32 at N = 10000. Past that both are
negative, their product is positive, and the NMI is defined. Estimates are
never clamped to [0, 1].
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dataset import Dataset
from .errors import NonFiniteNormalizationError, integer
from .neighbors import RadiusSet, compute_knn_radii
from .scaling import Backend, NormalizationResult, _sum_left_to_right, normalize
from .special import digamma


@dataclass(frozen=True)
class EstimateReport:
    """All estimator outputs for one dataset / backend combination (nats)."""

    mi_ksg: float
    h_x: float
    h_y: float
    h_xy: float
    mi_from_entropies: float
    nmi: Optional[float]  # None when the entropy product is not positive
    backend: Backend
    n_samples: int
    k: int


def nmi(mi: float, h_x: float, h_y: float) -> Optional[float]:
    """MI normalized by the geometric mean of the marginal entropies.

    Returns None (undefined) when h_x * h_y <= 0; callers record it as a
    missing value, not an error.
    """
    product = h_x * h_y
    if not product > 0.0:
        return None
    return float(mi / math.sqrt(product))


def estimate_backends(radii: RadiusSet, d_x: int, d_y: int, backends) -> list:
    """One entry per backend, in order: its EstimateReport, or its
    NormalizationResult when ln V is not finite (the baseline's overflow mode).
    """
    d_x, d_y = integer("d_x", d_x, 0), integer("d_y", d_y, 0)
    results = [normalize(radii.epsilon, d_x + d_y, backend) for backend in backends]
    # one digamma call: each element depends on its own argument alone
    psi = digamma(np.concatenate(([float(radii.n), float(radii.k)], radii.n_x + 1.0, radii.n_y + 1.0)))
    psi_n, psi_k = float(psi[0]), float(psi[1])
    psi_x, psi_y = np.split(psi[2:], [radii.n_x.size])
    mean_psi_x, mean_psi_y = float(np.mean(psi_x)), float(np.mean(psi_y))
    mi_ksg = psi_n + psi_k - float(np.mean(psi_x + psi_y))
    ln_eps = np.log(radii.epsilon)

    def report(norm: NormalizationResult) -> EstimateReport:
        mean_ln = _sum_left_to_right(ln_eps - norm.ln_v) / radii.n
        h_x = -mean_psi_x + psi_n + d_x * mean_ln
        h_y = -mean_psi_y + psi_n + d_y * mean_ln
        h_xy = -psi_k + psi_n + (d_x + d_y) * mean_ln
        mi_entropies = h_x + h_y - h_xy
        return EstimateReport(
            mi_ksg=mi_ksg, h_x=h_x, h_y=h_y, h_xy=h_xy, mi_from_entropies=mi_entropies,
            nmi=nmi(mi_entropies, h_x, h_y), backend=norm.backend, n_samples=radii.n, k=radii.k,
        )

    return [report(norm) if norm.finite else norm for norm in results]


def estimate_from_radii(
    radii: RadiusSet, d_x: int, d_y: int, backend: Backend = Backend.PROPOSED
) -> EstimateReport:
    """estimate_backends with one backend; a non-finite ln V raises NonFiniteNormalizationError."""
    (result,) = estimate_backends(radii, d_x, d_y, [backend])
    if not isinstance(result, EstimateReport):
        raise NonFiniteNormalizationError(result)
    return result


def estimate(
    data: Dataset, k: int = 5, backend: Backend = Backend.PROPOSED
) -> EstimateReport:
    """One-shot NMI estimation: k-NN radii, normalization, entropies, NMI."""
    radii = compute_knn_radii(data, k)
    return estimate_from_radii(radii, data.d_x, data.d_y, backend)
