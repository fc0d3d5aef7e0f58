"""Digamma and log-gamma, implemented natively for bit-stable baselines.

Both functions use the classic scheme: shift the argument upward with the
recurrence relations

    psi(x)      = psi(x + 1) - 1/x
    ln Gamma(x) = ln Gamma(x + 1) - ln x

until it reaches the asymptotic region (x >= 10), then evaluate the
de Moivre / Stirling series there. With Bernoulli terms through x**-14
(digamma) and x**-13 (log-gamma) the series truncation error at x = 10
is below 1e-15, leaving the 1e-12 accuracy target ample headroom.

Scalar input returns a float; array input returns an ndarray of the same
shape. Non-positive or non-finite arguments raise ConfigurationError.
"""

import numpy as np

from .errors import positive

_SHIFT_THRESHOLD = 10.0

# Coefficients of the digamma asymptotic tail in powers of 1/x**2:
# psi(x) ~ ln x - 1/(2x) - sum_n B_{2n} / (2n x**{2n})
_PSI_TAIL = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
    1.0 / 12.0,
)

# Coefficients of the Stirling correction in powers of 1/x**2, times 1/x:
# ln Gamma(x) ~ (x - 1/2) ln x - x + ln(2 pi)/2
#               + sum_n B_{2n} / (2n (2n-1) x**{2n-1})
_LNGAMMA_TAIL = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    1.0 / 156.0,
)

_HALF_LN_TWO_PI = 0.9189385332046727  # ln(2 pi) / 2


def _shifted(x, name, step):
    """(x as an array, x flat and shifted up by 1 until every entry is >= 10,
    the sum of step(x + j) over each entry's shifts j = 0, 1, ...).

    Only the entries still below 10 are shifted, so each pass gets cheaper.
    """
    arr = positive(f"{name} arguments", x)
    work = arr.reshape(-1).copy()
    acc = np.zeros_like(work)
    small = np.flatnonzero(work < _SHIFT_THRESHOLD)
    while small.size:
        acc[small] += step(work[small])
        work[small] += 1.0
        small = small[work[small] < _SHIFT_THRESHOLD]
    return arr, work, acc


def _shaped(out, arr):
    """out as a float for scalar arr, else in arr's shape."""
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def _polyval(coeffs, r):
    # Horner in r = 1/x**2, highest order first
    acc = np.zeros_like(r)
    for c in reversed(coeffs):
        acc *= r
        acc += c
    return acc


def digamma(x):
    """Digamma function psi(x) for positive real x (scalar or array)."""
    arr, work, acc = _shifted(x, "digamma", lambda w: -1.0 / w)
    inv = 1.0 / work
    r = inv * inv
    out = acc + np.log(work) - 0.5 * inv - r * _polyval(_PSI_TAIL, r)
    return _shaped(out, arr)


def ln_gamma(x):
    """Natural log of the gamma function for positive real x (scalar or array)."""
    arr, work, acc = _shifted(x, "ln_gamma", np.log)
    inv = 1.0 / work
    r = inv * inv
    stirling = (
        (work - 0.5) * np.log(work)
        - work
        + _HALF_LN_TWO_PI
        + inv * _polyval(_LNGAMMA_TAIL, r)
    )
    return _shaped(stirling - acc, arr)
