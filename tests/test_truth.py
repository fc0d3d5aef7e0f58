"""Ground-truth formulas against a frozen 50-digit oracle (mpmath, mp.dps = 50)."""

import math

import numpy as np
import pytest

from knnmi.harness import DEFAULT_NU_GRID
from knnmi.truth import TruthRecord, c_term, f_aux, gaussian_truth, student_t_truth

# f(x) = lnGamma(x/2) - (x/2) psi(x/2), frozen oracle values
F_AUX_KNOWN = [
    (1.0, 1.5541199559354118),   # ln sqrt(pi) + psi(1/2)/(-2): composed closed forms
    (2.0, 0.5772156649015329),   # -psi(1) = Euler gamma
    (3.0, -0.17551719860311),
    (0.125, 3.7695599650749599),
    (10.0, -4.3525345118110567),
    (1e6, -500005.14224282216),  # f decreases without bound (~ -x/2)
]

# (nu, d) -> (c(nu, d), H_T(nu, d)), frozen from the oracle
STUDENT_T_KNOWN = {
    (0.5, 1): (0.4955777657983634, 1.5530006494157217),
    (0.5, 4): (1.1561548257824592, 4.4114091536320598),
    (0.5, 16): (1.8620032352494479, 13.8235332620262407),
    (1.0, 1): (0.2241714275292361, 1.5492692339585791),
    (1.0, 4): (0.7043548204403516, 5.3167884587744010),
    (1.0, 16): (1.3444862234510853, 18.8434637348546865),
    (2.0, 1): (0.0826813919108186, 1.6716713967093156),
    (2.0, 4): (0.3750928025613883, 6.3281756224556799),
    (2.0, 16): (0.9116899871258589, 23.9414025950315365),
    (10.0, 1): (0.0046479195420162, 2.2743213271915811),
    (10.0, 4): (0.0467733566920415, 9.0723345795550040),
    (10.0, 16): (0.2535194665713050, 36.0767059962935135),
}


class TestGaussianTruth:
    def test_independence(self):
        t = gaussian_truth(3, 0.0)
        assert t.mi_true == 0.0
        assert t.nmi_true == 0.0

    def test_marginal_entropy(self):
        t = gaussian_truth(4, 0.5)
        assert t.h_marginal_true == pytest.approx(2.0 * math.log(2 * math.pi * math.e), rel=1e-14)

    def test_frozen_nmi_values(self):
        # direct oracle evaluations of -ln(1 - rho^2)/ln(2 pi e)
        assert gaussian_truth(1, 0.3).nmi_true == pytest.approx(0.0332328276610547, abs=1e-13)
        assert gaussian_truth(1, 0.6).nmi_true == pytest.approx(0.1572609003789897, abs=1e-13)
        assert gaussian_truth(1, 0.9).nmi_true == pytest.approx(0.5852019548270669, abs=1e-13)

    def test_nmi_independent_of_dimension(self):
        assert gaussian_truth(1, 0.7).nmi_true == gaussian_truth(64, 0.7).nmi_true

    def test_perfect_correlation_is_capped(self):
        t = gaussian_truth(2, 1.0)
        assert t.nmi_true == 1.0
        assert math.isinf(t.mi_true)

    def test_cap_engages_below_one(self):
        # -ln(1 - rho^2) exceeds ln(2 pi e) before rho reaches 1
        assert gaussian_truth(1, 0.99).nmi_true == 1.0

    def test_monotone_in_rho(self):
        values = [gaussian_truth(2, r).nmi_true for r in np.linspace(0.0, 0.97, 30)]
        assert all(b > a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("bad", [-0.2, 1.1])
    def test_rho_domain(self, bad):
        with pytest.raises(ValueError):
            gaussian_truth(1, bad)


class TestFAux:
    @pytest.mark.parametrize("x, expected", F_AUX_KNOWN)
    def test_frozen_values(self, x, expected):
        assert f_aux(x) == pytest.approx(expected, rel=1e-11)

    def test_monotone_decreasing(self):
        xs = np.concatenate([np.linspace(0.05, 20, 100), [100.0, 1e4, 1e6]])
        vals = [f_aux(float(v)) for v in xs]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_domain_error(self):
        with pytest.raises(ValueError):
            f_aux(0.0)


class TestStudentTTruth:
    @pytest.mark.parametrize("key", sorted(STUDENT_T_KNOWN))
    def test_frozen_oracle_values(self, key):
        nu, d = key
        c_expected, h_expected = STUDENT_T_KNOWN[key]
        t = student_t_truth(d, nu)
        assert c_term(nu, d) == pytest.approx(c_expected, rel=1e-10)
        assert t.h_marginal_true == pytest.approx(h_expected, rel=1e-10)
        assert t.mi_true == pytest.approx(c_expected, rel=1e-10)  # latent MI = 0

    def test_c_composes_from_f(self):
        assert c_term(1.0, 1) == pytest.approx(
            f_aux(1.0) + f_aux(3.0) - 2.0 * f_aux(2.0), abs=1e-14
        )

    def test_one_array_pass_equals_the_scalar_composition_bit_for_bit(self):
        # student_t_truth evaluates f at nu, nu + 2d and nu + d in one array
        # pass; the sweep's truth column must not move by a bit
        for nu in DEFAULT_NU_GRID + [1e-3, 50.0]:
            for d in range(1, 513):
                t = student_t_truth(d, nu)
                mi = 0.0 + c_term(nu, d)
                h = 0.5 * d * math.log(nu * math.pi) + f_aux(nu) - f_aux(nu + d)
                nmi = min(1.0, mi / h) if h > 0.0 else None
                assert (t.mi_true, t.h_marginal_true, t.nmi_true) == (mi, h, nmi), (nu, d)
                assert type(t.mi_true) is float and type(t.h_marginal_true) is float

    def test_c_positive_on_benchmark_grid(self):
        for nu in (0.125, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0):
            for d in range(1, 33):
                assert c_term(nu, d) > 0.0, (nu, d)

    def test_gaussian_limit(self):
        assert c_term(1e8, 4) <= 1e-6
        t = student_t_truth(4, 1e8)
        assert t.mi_true == pytest.approx(0.0, abs=1e-6)

    def test_entropy_positive_on_benchmark_grid(self):
        for nu in (0.125, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0):
            for d in (1, 2, 4, 8, 16, 32):
                t = student_t_truth(d, nu)
                assert t.h_marginal_true > 0.0
                assert t.nmi_true is not None

    def test_cap(self):
        # c(0.125, 1) is large relative to H_T; verify the output never exceeds 1
        for nu in (0.125, 0.5, 2.0):
            for d in (1, 4):
                t = student_t_truth(d, nu)
                assert t.nmi_true <= 1.0

    def test_undefined_flag_convention(self):
        # the flag path is data, not an exception
        assert TruthRecord(0.5, -1.0, None).nmi_true is None

    @pytest.mark.parametrize("bad_nu", [0.0, -1.0, math.inf])
    def test_nu_domain(self, bad_nu):
        with pytest.raises(ValueError):
            student_t_truth(1, bad_nu)
