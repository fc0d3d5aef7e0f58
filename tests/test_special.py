"""Tests for the native digamma / log-gamma implementations.

Frozen reference values were produced with a 50-digit mpmath evaluation
(mp.dps = 50) and rounded to float64.
"""

import math

import numpy as np
import pytest

from knnmi.special import digamma, ln_gamma

EULER_GAMMA = 0.5772156649015329

# (x, psi(x)) from the high-precision oracle
DIGAMMA_KNOWN = [
    (1.0, -0.5772156649015329),
    (2.0, 0.4227843350984671),
    (0.5, -1.9635100260214235),   # -gamma - 2 ln 2
    (0.1, -10.423754940411077),
    (10.0, 2.251752589066721),
    (100.0, 4.600161852738087),
    (10000.0, 9.21029037114285),
]

# (x, ln Gamma(x)) from the oracle
LN_GAMMA_KNOWN = [
    (1.0, 0.0),
    (0.5, 0.5723649429247001),    # ln sqrt(pi)
    (5.0, 3.1780538303479458),    # ln 24
    (0.1, 2.252712651734206),
    (10.0, 12.801827480081469),
    (2.5, 0.2846828704729192),
    (100.0, 359.1342053695754),
]


@pytest.mark.parametrize("x, expected", DIGAMMA_KNOWN)
def test_digamma_oracle_values(x, expected):
    assert digamma(x) == pytest.approx(expected, abs=1e-12, rel=1e-12)


@pytest.mark.parametrize("x, expected", LN_GAMMA_KNOWN)
def test_ln_gamma_oracle_values(x, expected):
    # absolute floor covers the zeros at x = 1 and x = 2
    assert ln_gamma(x) == pytest.approx(expected, rel=1e-12, abs=1e-13)


def test_digamma_recurrence():
    # |psi(x+1) - psi(x) - 1/x| <= 1e-12 on [0.1, 100]
    xs = np.linspace(0.1, 100.0, 997)
    worst = max(abs(digamma(x + 1.0) - digamma(x) - 1.0 / x) for x in xs)
    assert worst <= 1e-12


def test_ln_gamma_recurrence():
    xs = np.linspace(0.1, 100.0, 997)
    for x in xs:
        lhs = ln_gamma(x + 1.0) - ln_gamma(x) - math.log(x)
        scale = max(1.0, abs(ln_gamma(x + 1.0)))
        assert abs(lhs) <= 1e-12 * scale


def test_digamma_strictly_increasing():
    xs = np.arange(1, 101) * 0.5  # 0.5, 1.0, ..., 50.0
    vals = digamma(xs)
    assert np.all(np.diff(vals) > 0)


def test_ln_gamma_factorials():
    # Gamma(n) = (n-1)! for integer n
    for n in range(2, 15):
        assert ln_gamma(float(n)) == pytest.approx(
            math.log(math.factorial(n - 1)), rel=1e-13, abs=1e-13
        )


def test_digamma_small_argument_pole():
    # psi(x) ~ -1/x - gamma as x -> 0+; check scaled accuracy at x = 1e-6
    x = 1e-6
    approx = -1.0 / x - EULER_GAMMA + (math.pi**2 / 6.0) * x
    assert digamma(x) == pytest.approx(approx, rel=1e-10)


def test_array_input_matches_scalar():
    xs = np.array([0.25, 1.0, 3.75, 42.0])
    np.testing.assert_array_equal(digamma(xs), [digamma(float(v)) for v in xs])
    np.testing.assert_array_equal(ln_gamma(xs), [ln_gamma(float(v)) for v in xs])
    assert digamma(np.array([[1.0, 2.0], [3.0, 4.0]])).shape == (2, 2)


def test_one_call_over_a_concatenation_matches_separate_calls():
    # the estimators join psi(N), psi(k) and both count arrays into one call
    g = np.random.default_rng(8)
    for n in range(1, 301):
        counts_x = g.integers(0, n + 1, n) + 1.0
        counts_y = g.integers(0, n + 1, n) + 1.0
        joined = digamma(np.concatenate(([float(n), 5.0], counts_x, counts_y)))
        assert joined[0].tobytes() == np.float64(digamma(float(n))).tobytes()
        assert joined[1].tobytes() == np.float64(digamma(5.0)).tobytes()
        assert joined[2 : n + 2].tobytes() == digamma(counts_x).tobytes(), n
        assert joined[n + 2 :].tobytes() == digamma(counts_y).tobytes(), n


@pytest.mark.parametrize("bad", [0.0, -1.0, -0.5, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("fn", [digamma, ln_gamma])
def test_domain_errors(fn, bad):
    with pytest.raises(ValueError):
        fn(bad)


def test_domain_error_in_array():
    with pytest.raises(ValueError):
        digamma(np.array([1.0, -2.0]))
    with pytest.raises(ValueError):
        ln_gamma(np.array([np.nan, 1.0]))
