"""Values computed apart from knnmi, which its outputs are checked against.

Nothing here calls knnmi. The k-NN statistics of a query row come from a
per-row sort of max-norm distances; digamma at integers and ln V come
from mpmath at 40 digits; the Gaussian MI from its closed form.
"""

import hashlib
import math

import mpmath
import numpy as np

LN_DBL_MAX = math.log(np.finfo(np.float64).max)


def direct_row(x, y, i, k):
    """(eps, n_x, n_y) of query row i: k-th joint max-norm distance, self excluded,
    and the marginal counts strictly below it."""
    others = np.arange(x.shape[0]) != i
    dx = np.abs(x[others] - x[i]).max(axis=1)
    dy = np.abs(y[others] - y[i]).max(axis=1)
    eps = float(np.sort(np.maximum(dx, dy))[k - 1])
    return eps, int(np.count_nonzero(dx < eps)), int(np.count_nonzero(dy < eps))


def sample_rows(n, count, seed):
    return np.random.default_rng(seed).choice(n, size=min(count, n), replace=False)


def row_mismatches(x, y, k, epsilon, n_x, n_y, rows):
    """Rows whose program radii or counts differ from direct_row."""
    bad = []
    for i in rows:
        want = direct_row(x, y, int(i), k)
        got = (float(epsilon[i]), int(n_x[i]), int(n_y[i]))
        if got != want:
            bad.append(f"row {int(i)}: got {got}, direct {want}")
    return bad


class Digamma:
    """psi at positive integers by mpmath, cached."""

    def __init__(self):
        self._cache = {}

    def __call__(self, m):
        m = int(m)
        if m not in self._cache:
            with mpmath.workdps(40):
                self._cache[m] = float(mpmath.psi(0, m))
        return self._cache[m]

    def mean_shifted(self, counts):
        """Mean of psi(c + 1) over the counts."""
        values, freq = np.unique(np.asarray(counts), return_counts=True)
        with mpmath.workdps(40):
            total = mpmath.fsum(mpmath.psi(0, int(v) + 1) * int(f) for v, f in zip(values, freq))
            return float(total / len(counts))


def ln_v(epsilon, d_joint, backend):
    """ln V = ln (mean eps^D)^(1/D) in 40-digit arithmetic; ln max eps for dominant."""
    if backend == "dominant":
        return math.log(float(np.max(epsilon)))
    with mpmath.workdps(40):
        total = mpmath.fsum(mpmath.mpf(float(e)) ** d_joint for e in epsilon)
        return float(mpmath.log(total / len(epsilon)) / d_joint)


def baseline_overflows(epsilon, d_joint):
    """Whether the literal mean of eps^D leaves double precision.

    True when the largest power overflows, False when every partial sum
    stays finite and the largest power is normal, None when too close to
    call.
    """
    top = d_joint * math.log(float(np.max(epsilon)))
    if top > LN_DBL_MAX + 1e-9:
        return True
    if top + math.log(len(epsilon)) < LN_DBL_MAX - 1.0 and top > -700.0:
        return False
    return None


def expected_report(epsilon, n_x, n_y, k, d_x, d_y, backend, psi):
    """mi_ksg and the relative entropies from the radii, by their formulas."""
    n = len(epsilon)
    d_joint = d_x + d_y
    with mpmath.workdps(40):
        mean_ln_eps = float(mpmath.fsum(mpmath.log(float(e)) for e in epsilon) / n)
    mean_ln_tilde = mean_ln_eps - ln_v(epsilon, d_joint, backend)
    psi_x = psi.mean_shifted(n_x)
    psi_y = psi.mean_shifted(n_y)
    return {
        "mi_ksg": psi(n) + psi(k) - psi_x - psi_y,
        "h_x": -psi_x + psi(n) + d_x * mean_ln_tilde,
        "h_y": -psi_y + psi(n) + d_y * mean_ln_tilde,
        "h_xy": -psi(k) + psi(n) + d_joint * mean_ln_tilde,
    }


def report_mismatches(report, expected, tol):
    """Fields of `report` (a mapping) farther than tol from `expected`, plus the
    MI identity and the NMI definition."""
    bad = []
    for key, want in expected.items():
        got = report.get(key)
        if got is None or not abs(got - want) <= tol * max(1.0, abs(want)):
            bad.append(f"{key} = {got!r}, expected {want!r}")
    if bad:
        return bad
    mi, mi_h = report["mi_ksg"], report.get("mi_from_entropies")
    if mi_h is None or not abs(mi - mi_h) <= 1e-9 * max(1.0, abs(mi)):
        bad.append(f"mi_from_entropies {mi_h!r} != mi_ksg {mi!r}")
    product = report["h_x"] * report["h_y"]
    if product > 0.0:
        want_nmi = mi_h / math.sqrt(product)
        if report.get("nmi") is None or not abs(report["nmi"] - want_nmi) <= 1e-12 * max(1.0, abs(want_nmi)):
            bad.append(f"nmi {report.get('nmi')!r}, expected {want_nmi!r}")
    elif report.get("nmi") is not None:
        bad.append(f"nmi {report['nmi']!r} reported for h_x * h_y = {product!r} <= 0")
    return bad


def gaussian_mi(d, rho):
    """Closed-form MI of componentwise-correlated unit Gaussians, nats."""
    return -0.5 * d * math.log1p(-rho * rho)


def checksum(x, y):
    """sha256 of the raw float64 bytes of x then y, first 16 hex digits."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(x, dtype=np.float64).tobytes())
    h.update(np.ascontiguousarray(y, dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


def cell_seed(base_seed, family, d, param, repetition):
    """Cell seed by the sweep's documented rule: sha256 of the cell coordinates."""
    text = f"{int(base_seed)}|{family}|{int(d)}|{float(param)!r}|{int(repetition)}"
    return int.from_bytes(hashlib.sha256(text.encode("ascii")).digest()[:8], "big")
