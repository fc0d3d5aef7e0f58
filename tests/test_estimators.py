"""Estimator assembly tests: KSG MI, relative entropies, NMI."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knnmi.datagen import GaussianSpec, generate_gaussian
from knnmi.dataset import Dataset
from knnmi.errors import NonFiniteNormalizationError
from knnmi.estimators import (
    estimate,
    estimate_backends,
    estimate_from_radii,
    nmi,
)
from knnmi.harness import Status
from knnmi.neighbors import RadiusSet, compute_knn_radii
from knnmi.scaling import Backend, NormalizationResult
from knnmi.special import digamma


def gaussian_pair(n, d, rho, seed):
    g = np.random.Generator(np.random.Philox(key=seed))
    z1 = g.standard_normal((n, d))
    z2 = g.standard_normal((n, d))
    return Dataset(z1, rho * z1 + math.sqrt(1.0 - rho * rho) * z2)


@st.composite
def radius_sets(draw):
    """RadiusSet with radii anywhere in 1e-307..1e307 and any legal counts."""
    n = draw(st.integers(2, 40))
    k = draw(st.integers(1, n - 1))
    samples = st.lists(st.floats(1e-307, 1e307), min_size=n, max_size=n)
    counts = st.lists(st.integers(k - 1, n - 1), min_size=n, max_size=n)
    return RadiusSet(
        epsilon=np.array(draw(samples)),
        n_x=np.array(draw(counts), dtype=np.int64),
        n_y=np.array(draw(counts), dtype=np.int64),
        k=k,
    )


def synthetic_radii(n, k, count):
    """RadiusSet with every marginal count fixed, for formula-level checks."""
    return RadiusSet(
        epsilon=np.full(n, 0.5),
        n_x=np.full(n, count, dtype=np.int64),
        n_y=np.full(n, count, dtype=np.int64),
        k=k,
    )


class TestKsgFormula:
    def test_uniform_counts_reduce_to_digammas(self):
        # all n_x = n_y = k: psi(N) + psi(k) - 2 psi(k+1)
        rs = synthetic_radii(1000, 5, count=5)
        expected = digamma(1000.0) + digamma(5.0) - 2.0 * digamma(6.0)
        mi = estimate_from_radii(rs, 1, 1, Backend.PROPOSED).mi_ksg
        assert mi == pytest.approx(expected, abs=1e-13)
        # frozen 50-digit oracle value for psi(1000) + psi(5) - 2 psi(6)
        assert mi == pytest.approx(5.001137527217012, abs=1e-12)

    def test_identical_variables_reach_maximal_estimate(self):
        # X = Y: the k-th joint neighbor is excluded by strict counting, so
        # n_x = n_y = k - 1 and the estimate is psi(N) - psi(k), the known
        # ceiling of the KSG estimator for identical variables
        g = np.random.Generator(np.random.Philox(key=11))
        x = g.standard_normal((400, 1))
        data = Dataset(x, x.copy())
        rs = compute_knn_radii(data, 5)
        np.testing.assert_array_equal(rs.n_x, 4)
        np.testing.assert_array_equal(rs.n_y, 4)
        assert estimate_from_radii(rs, 1, 1, Backend.PROPOSED).mi_ksg == pytest.approx(
            digamma(400.0) - digamma(5.0), abs=1e-12
        )


class TestRelativeEntropies:
    def test_tight_cluster_fixture_vanishes(self):
        # all n_x = N - 1 and all scaled radii 1: -psi(N) + psi(N) + 0 = 0
        rs = synthetic_radii(50, 1, count=49)
        h_x = estimate_from_radii(rs, 1, 1, Backend.PROPOSED).h_x
        assert h_x == pytest.approx(0.0, abs=1e-12)

    def test_unit_scaled_radii_joint_value(self):
        # equal radii scale to 1, so only the digamma terms remain
        rs = synthetic_radii(10000, 5, count=5)
        expected = digamma(10000.0) - digamma(5.0)
        h_xy = estimate_from_radii(rs, 1, 1, Backend.PROPOSED).h_xy
        assert h_xy == pytest.approx(expected, abs=1e-11)

    def test_seed_stability_of_marginal_entropy(self):
        # same configuration, different seeds: values agree within the
        # statistical-oracle band
        vals = []
        for seed in (101, 202, 303):
            r = estimate(gaussian_pair(10000, 1, 0.0, seed), k=5)
            vals.append(r.h_x)
        assert max(vals) - min(vals) <= 0.1

    def test_doubling_coordinates_leaves_entropies_unchanged(self):
        data = gaussian_pair(500, 2, 0.5, 21)
        r1 = estimate(data, k=4)
        r2 = estimate(Dataset(2.0 * data.x, 2.0 * data.y), k=4)
        # power-of-two scaling is exact in floats: identical counts, shifted logs
        assert r2.h_x == pytest.approx(r1.h_x, abs=1e-12)
        assert r2.h_y == pytest.approx(r1.h_y, abs=1e-12)
        assert r2.h_xy == pytest.approx(r1.h_xy, abs=1e-12)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_marginal_entropies_cross_zero_between_d_8_and_48(self, seed):
        # d_x <ln(eps / V)> < 0 falls about linearly in d_x, so at N = 1000
        # both relative entropies turn negative near d = 24; their product is
        # then positive again and the NMI defined
        low, high = (estimate(generate_gaussian(GaussianSpec(d=d, rho=0.5, n=1000, seed=seed)), k=5)
                     for d in (8, 48))
        assert low.h_x > 0.0 and low.h_y > 0.0
        assert high.h_x < 0.0 and high.h_y < 0.0
        assert Status.of(high) is Status.OK and high.nmi > 0.0


    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_a_scalar_against_a_wide_vector_collapses(self, seed):
        # x = z_1 against y correlated with it in its first component only, at
        # N = 2000: h_x falls from about 2.7 at d_y = 1 to 0.51-0.54 at d_y = 8
        # and to -0.09..+0.02 at d_y = 64, where the NMI turns erratic
        def scalar_against_vector(d_y):
            g = np.random.Generator(np.random.Philox(key=seed))
            x, y = g.standard_normal((2000, 1)), g.standard_normal((2000, d_y))
            y[:, :1] = 0.5 * x + math.sqrt(0.75) * y[:, :1]
            return Dataset(x, y)

        narrow, wide = (estimate(scalar_against_vector(d_y), k=5) for d_y in (8, 64))
        assert 0.4 < narrow.h_x < 0.7
        assert abs(wide.h_x) < 0.1


class TestNmi:
    def test_zero_mi(self):
        assert nmi(0.0, 1.5, 2.5) == 0.0

    def test_perfect_dependence_normalizes_to_one(self):
        assert nmi(1.7, 1.7, 1.7) == pytest.approx(1.0, abs=1e-15)

    def test_undefined_when_product_not_positive(self):
        assert nmi(0.5, 0.0, 1.0) is None
        assert nmi(0.5, -1.0, 1.0) is None

    def test_defined_for_two_negative_entropies(self):
        # product > 0 rule taken literally
        assert nmi(0.3, -1.0, -2.0) == pytest.approx(0.3 / math.sqrt(2.0))

    def test_estimates_are_not_clamped(self):
        # moderate dimensions overshoot; the raw value must flow through
        r = estimate(gaussian_pair(2000, 16, 0.9, 5), k=5)
        assert r.nmi is not None and r.nmi > 1.0


class TestReportAssembly:
    def test_mi_from_entropies_equals_ksg_algebraically(self):
        r = estimate(gaussian_pair(800, 2, 0.6, 3), k=5)
        assert r.mi_from_entropies == pytest.approx(r.mi_ksg, abs=1e-9)

    def test_symmetry_under_swapping_x_and_y(self):
        data = gaussian_pair(600, 2, 0.7, 13)
        r = estimate(data, k=5)
        r_swapped = estimate(Dataset(data.y, data.x), k=5)
        assert r_swapped.h_x == pytest.approx(r.h_y, abs=1e-12)
        assert r_swapped.h_y == pytest.approx(r.h_x, abs=1e-12)
        assert r_swapped.mi_ksg == pytest.approx(r.mi_ksg, abs=1e-12)
        assert r_swapped.mi_from_entropies == pytest.approx(r.mi_from_entropies, abs=1e-12)
        assert r_swapped.nmi == pytest.approx(r.nmi, abs=1e-12)

    def test_uniform_rescaling_leaves_nmi_fixed(self):
        data = gaussian_pair(700, 3, 0.5, 17)
        r = estimate(data, k=5)
        for c in (2.0, 3.7):
            rc = estimate(Dataset(c * data.x, c * data.y), k=5)
            assert rc.nmi == pytest.approx(r.nmi, abs=1e-9)

    def test_backend_equivalence_where_baseline_finite(self):
        data = gaussian_pair(400, 16, 0.6, 9)
        radii = compute_knn_radii(data, 5)
        rb = estimate_from_radii(radii, 16, 16, Backend.BASELINE)
        rp = estimate_from_radii(radii, 16, 16, Backend.PROPOSED)
        for field in ("mi_ksg", "h_x", "h_y", "h_xy", "mi_from_entropies", "nmi"):
            assert getattr(rb, field) == pytest.approx(getattr(rp, field), abs=1e-9), field

    def test_baseline_overflow_surfaces_as_error(self):
        # joint D = 512 with radii ~ exp scale: make radii large enough
        g = np.random.Generator(np.random.Philox(key=33))
        data = Dataset(10.0 * g.standard_normal((300, 256)), 10.0 * g.standard_normal((300, 256)))
        radii = compute_knn_radii(data, 5)
        with pytest.raises(NonFiniteNormalizationError):
            estimate_from_radii(radii, 256, 256, Backend.BASELINE)
        rp = estimate_from_radii(radii, 256, 256, Backend.PROPOSED)
        assert math.isfinite(rp.h_xy)

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(radii=radius_sets(), d_joint=st.integers(1, 2**20), data=st.data())
    def test_finite_ln_v_gives_finite_estimates(self, radii, d_joint, data):
        # a backend either raises or yields finite entropies and MI: nothing
        # in the assembly can overflow once ln V is finite
        d_x = data.draw(st.integers(0, d_joint))
        for backend in Backend:
            try:
                r = estimate_from_radii(radii, d_x, d_joint - d_x, backend)
            except NonFiniteNormalizationError:
                continue
            for value in (r.mi_ksg, r.h_x, r.h_y, r.h_xy, r.mi_from_entropies):
                assert math.isfinite(value)
            assert r.nmi is None or math.isfinite(r.nmi)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(radii=radius_sets(), d_joint=st.integers(1, 2**20), data=st.data())
    def test_shared_assembly_matches_one_backend_calls(self, radii, d_joint, data):
        # any order, repeats allowed: each entry is bitwise what a separate
        # one-backend call gives, or the non-finite ln V it raises with
        d_x = data.draw(st.integers(0, d_joint))
        backends = data.draw(st.lists(st.sampled_from(list(Backend)), min_size=1, max_size=5))
        results = estimate_backends(radii, d_x, d_joint - d_x, backends)
        assert len(results) == len(backends)
        for backend, result in zip(backends, results):
            try:
                alone = estimate_from_radii(radii, d_x, d_joint - d_x, backend)
            except NonFiniteNormalizationError as exc:
                assert isinstance(result, NormalizationResult) and not result.finite
                assert result == exc.result
                continue
            assert result.backend is backend
            for field in ("mi_ksg", "h_x", "h_y", "h_xy", "mi_from_entropies", "nmi"):
                got, want = getattr(result, field), getattr(alone, field)
                assert (got is None) == (want is None), field
                if want is not None:
                    assert float.hex(got) == float.hex(want), field
            assert (result.n_samples, result.k) == (alone.n_samples, alone.k)

    def test_report_metadata(self):
        r = estimate(gaussian_pair(300, 1, 0.2, 1), k=7, backend=Backend.DOMINANT_TERM)
        assert r.n_samples == 300
        assert r.k == 7
        assert r.backend is Backend.DOMINANT_TERM
