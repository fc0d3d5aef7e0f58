"""Tests for the three ln V backends of normalize and the log-domain scaled radii."""

import math

import mpmath
import numpy as np
import pytest

from knnmi.errors import ConfigurationError, NonFiniteNormalizationError
from knnmi.estimators import estimate_from_radii
from knnmi.neighbors import RadiusSet
from knnmi.scaling import Backend, _sum_left_to_right, normalize
from knnmi.special import digamma

LN2 = math.log(2.0)
BASELINE, PROPOSED, DOMINANT = Backend.BASELINE, Backend.PROPOSED, Backend.DOMINANT_TERM


class TestBaseline:
    def test_equal_radii_give_that_radius(self):
        r = normalize([2.0, 2.0, 2.0], 7, BASELINE)
        assert r.ln_v == pytest.approx(LN2, abs=1e-13)
        assert r.finite and r.epsilon_max == 2.0 and r.d_joint == 7

    def test_hand_evaluated_power_mean(self):
        # V = sqrt((1 + 4)/2) = sqrt(2.5)
        r = normalize([1.0, 2.0], 2, BASELINE)
        assert r.ln_v == pytest.approx(0.4581453659370776, abs=1e-12)
        assert r.finite

    def test_overflow_is_reported_not_repaired(self):
        # 512 * ln(1000) ~ 3536, far beyond the double-precision range
        r = normalize([1000.0, 500.0], 512, BASELINE)
        assert not r.finite
        assert math.isinf(r.ln_v)

    def test_underflow_to_zero_mean_is_non_finite(self):
        r = normalize([0.5, 0.25], 2048, BASELINE)
        assert not r.finite
        assert r.ln_v == -math.inf

    def test_partial_underflow_still_finite(self):
        r = normalize([0.5, 1.0], 2048, BASELINE)
        assert r.finite
        assert r.ln_v == pytest.approx(math.log(0.5) / 2048, rel=1e-9)


class TestProposed:
    def test_equal_radii_give_that_radius(self):
        r = normalize([2.0, 2.0, 2.0], 7, PROPOSED)
        assert r.ln_v == pytest.approx(LN2, abs=1e-13)
        assert r.finite

    def test_matches_baseline_when_baseline_is_finite(self):
        b = normalize([1.0, 2.0], 2, BASELINE)
        p = normalize([1.0, 2.0], 2, PROPOSED)
        assert abs(b.ln_v - p.ln_v) <= 1e-10 * max(1.0, abs(b.ln_v))

    def test_survives_where_baseline_overflows(self):
        # ln 1000 + (1/512) ln((2^-512 + 1)/2), hand-evaluated
        r = normalize([1000.0, 500.0], 512, PROPOSED)
        assert r.finite
        assert r.ln_v == pytest.approx(6.906401475895106, abs=1e-12)

    def test_finite_across_extreme_radii_and_dimensions(self):
        rng = np.random.default_rng(0)
        eps = 10.0 ** rng.uniform(-300, 300, size=50)
        for d in (1, 2, 64, 4096, 2**20):
            r = normalize(eps, d, PROPOSED)
            assert r.finite, d

    def test_correction_term_is_never_positive(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            eps = np.exp(rng.normal(size=20))
            r = normalize(eps, int(rng.integers(1, 200)), PROPOSED)
            assert r.ln_v <= math.log(r.epsilon_max)

    def test_asymptotic_dominance_with_max_multiplicity(self):
        # sum of (eps_i/eps_max)^D -> m as D grows; at D = 1e6 the residual
        # correction is exactly ln(m/N)/D for ratios bounded by 0.99
        rng = np.random.default_rng(2)
        d = 10**6
        for m in (1, 2, 5):
            body = rng.uniform(0.1, 0.99, size=40 - m)
            eps = np.concatenate([body, np.full(m, 1.0)])
            r = normalize(eps, d, PROPOSED)
            expected = math.log(m / 40.0) / d
            assert abs(r.ln_v - math.log(1.0) - expected) <= 1e-9


class TestGradualUnderflowBand:
    """Radii from U(0.40, 0.50), N = 1000: the baseline's largest term eps_max^D
    is a normal float at D = 1000, subnormal at D = 1030-1060 (down to 7e-323),
    and 0 beyond. Judge: the power mean evaluated in 50-digit mpmath."""

    EPS = np.random.default_rng(1).uniform(0.40, 0.50, size=1000)

    @classmethod
    def reference(cls, d):
        with mpmath.workdps(50):
            return mpmath.log(mpmath.fsum(mpmath.mpf(float(e)) ** d for e in cls.EPS) / cls.EPS.size) / d

    @pytest.mark.parametrize("d", [1000, 1030, 1045, 1060, 1070, 1100, 2000])
    def test_proposed_within_one_ulp(self, d):
        ref = self.reference(d)
        got = normalize(self.EPS, d, PROPOSED).ln_v
        assert abs(mpmath.mpf(got) - ref) <= math.ulp(float(ref))  # at most 0.49 ulp measured

    def test_baseline_bound_holds_only_while_the_largest_term_is_normal(self):
        assert float(self.EPS.max()) ** 1000 >= np.finfo(float).tiny
        assert abs(normalize(self.EPS, 1000, BASELINE).ln_v - float(self.reference(1000))) <= 1e-10
        # below 2^-1022 the power sum keeps fewer than 53 bits: finite, yet
        # off by about 5e-6 (the band is not reported as a status yet)
        silent = normalize(self.EPS, 1060, BASELINE)
        assert silent.finite and abs(silent.ln_v - float(self.reference(1060))) > 1e-10
        assert not normalize(self.EPS, 1070, BASELINE).finite


class TestDominant:
    def test_is_log_of_max(self):
        assert normalize([2.0, 2.0, 2.0], 3, DOMINANT).ln_v == LN2
        assert normalize([1.0, 2.0], 2, DOMINANT).ln_v == LN2  # differs from exact 0.4581

    def test_gap_to_proposed_bounded_by_log_n_over_d(self):
        eps = [1000.0, 500.0]
        for d in (10**4, 10**6):
            gap = abs(normalize(eps, d, PROPOSED).ln_v - normalize(eps, d, DOMINANT).ln_v)
            assert gap <= math.log(2) / d + 1e-15


class TestScaleEquivariance:
    @pytest.mark.parametrize("backend", list(Backend))
    @pytest.mark.parametrize("c", [2.0, 0.125, 3.7, 1e-4])
    def test_ln_v_shifts_by_ln_c(self, backend, c):
        rng = np.random.default_rng(3)
        eps = np.exp(rng.normal(size=30))
        for d in (1, 2, 8, 64):
            base = normalize(eps, d, backend).ln_v
            scaled = normalize(c * eps, d, backend).ln_v
            assert scaled - base == pytest.approx(math.log(c), abs=1e-12)

    def test_scaled_radii_are_scale_invariant(self):
        # the scaled radii reach the report only through the relative entropies
        rng = np.random.default_rng(4)
        eps = np.exp(rng.normal(size=25))
        counts = np.full(25, 3)
        for c in (4.0, 0.37):
            for backend in Backend:
                a = estimate_from_radii(RadiusSet(eps, counts, counts, 3), 10, 6, backend)
                b = estimate_from_radii(RadiusSet(c * eps, counts, counts, 3), 10, 6, backend)
                for name in ("h_x", "h_y", "h_xy"):
                    assert getattr(b, name) == pytest.approx(getattr(a, name), abs=1e-12)


def joint_entropy(eps, d_x, d_y, k=1, backend=PROPOSED):
    """h_xy = -psi(k) + psi(N) + D < ln(eps_i / V) > as the estimator reports it."""
    eps = np.asarray(eps, dtype=np.float64)
    counts = np.full(eps.size, k - 1)
    return estimate_from_radii(RadiusSet(eps, counts, counts, k), d_x, d_y, backend).h_xy


class TestScaleRadii:
    """The scaled radii eps_i / V, seen through the h_xy the estimator reports.

    Each expected h_xy is -psi(k) + psi(N) + D < ln eps_tilde > with the
    hand-evaluated eps_tilde; a tolerance on eps_tilde carries over to h_xy
    multiplied by D.
    """

    def test_equal_radii_to_unity(self):
        h_xy = joint_entropy([2.0, 2.0, 2.0], 3, 4)
        assert h_xy == pytest.approx(-digamma(1.0) + digamma(3.0), abs=7 * 1e-14)

    def test_two_point_example(self):
        tilde = np.array([0.6324555320336759, 1.2649110640673518])
        expected = -digamma(1.0) + digamma(2.0) + 2 * float(np.mean(np.log(tilde)))
        assert joint_entropy([1.0, 2.0], 1, 1) == pytest.approx(expected, abs=2 * 1e-12)

    def test_high_dimension_example(self):
        tilde = np.array([1.0013547198921082, 0.5006773599460541])
        expected = -digamma(1.0) + digamma(2.0) + 512 * float(np.mean(np.log(tilde)))
        h_xy = joint_entropy([1000.0, 500.0], 256, 256)
        assert h_xy == pytest.approx(expected, abs=512 * 1e-12)

    def test_rejects_non_finite_normalization(self):
        with pytest.raises(NonFiniteNormalizationError):
            joint_entropy([1000.0, 500.0], 256, 256, backend=BASELINE)

    def test_proposed_radii_bounded_by_ratio_times_root_n(self):
        # eps_i / V <= (eps_i / eps_max) N^(1/D) (1 + 1e-12), in logs
        rng = np.random.default_rng(5)
        eps = np.exp(rng.normal(size=60))
        for d in (8, 512, 2**16):
            norm = normalize(eps, d, PROPOSED)
            bound = math.log(norm.epsilon_max) - math.log(eps.size) / d - math.log1p(1e-12)
            assert norm.ln_v >= bound

    def test_mean_ln_matches_definition(self):
        rng = np.random.default_rng(6)
        eps = np.exp(rng.normal(size=17))
        norm = normalize(eps, 3, PROPOSED)
        mean_ln = float(np.mean(np.log(eps) - norm.ln_v))
        expected = -digamma(1.0) + digamma(17.0) + 3 * mean_ln
        assert joint_entropy(eps, 1, 2) == pytest.approx(expected, abs=3 * 1e-13)


def _ln_v_id(backend):
    return f"ln_v_{backend.value}"


class TestValidation:
    @pytest.mark.parametrize("backend", list(Backend), ids=_ln_v_id)
    def test_empty_vector(self, backend):
        with pytest.raises(ConfigurationError):
            normalize([], 2, backend)

    @pytest.mark.parametrize("backend", list(Backend), ids=_ln_v_id)
    @pytest.mark.parametrize("bad", [[0.0, 1.0], [-1.0], [np.nan], [np.inf]])
    def test_non_positive_radii(self, backend, bad):
        with pytest.raises(ConfigurationError, match="radii must be positive and finite"):
            normalize(bad, 2, backend)

    @pytest.mark.parametrize("backend", list(Backend), ids=_ln_v_id)
    @pytest.mark.parametrize("bad_d", [0, -3, 1.5])
    def test_bad_dimension(self, backend, bad_d):
        with pytest.raises(ConfigurationError):
            normalize([1.0, 2.0], bad_d, backend)

    def test_normalize_dispatch(self):
        for backend in Backend:
            r = normalize([1.0, 2.0], 4, backend)
            assert r.backend is backend
        r = normalize([1.0, 2.0], 4, "proposed")
        assert r.backend is Backend.PROPOSED


def test_sum_is_strictly_left_to_right():
    # bit-for-bit the plain loop total += v: pairwise summation (add.reduce,
    # math.fsum) would round differently on vectors spanning 1e-300..1e300
    rng = np.random.default_rng(47)
    for size in (1, 2, 7, 1000, 20000):
        values = rng.uniform(0.0, 1.0, size) * 10.0 ** rng.uniform(-300, 300, size)
        if size > 2:
            values[size // 2] = np.inf
        for vector in (values, values[: max(1, size - 1)], -np.log(values[np.isfinite(values)])):
            total = 0.0
            for v in vector.tolist():
                total += v
            got = _sum_left_to_right(vector)
            assert got == total and type(got) is float
