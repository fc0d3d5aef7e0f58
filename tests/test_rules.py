"""The package's argument rules and a backend's status, each decided in one place.

errors.integer: a Python or numpy integer, never a bool, >= a lower bound
where one applies. errors.positive: real numbers, never bools, every entry
positive and finite. errors.real: one Python or numpy real number, never a
bool, in a closed interval, that float() converts. errors.positive_real:
one such number, positive and finite (nu), checked in Python. Every call
site refuses a bad value with a ConfigurationError whose message starts
with the argument's name.
"""

import math

import numpy as np
import pytest

from knnmi import (
    Backend,
    ConfigurationError,
    Dataset,
    ExperimentConfig,
    GaussianSpec,
    StudentTSpec,
    compute_knn_radii,
    dataset_from_csv,
    dataset_to_csv,
    derive_seed,
    digamma,
    estimate_backends,
    gaussian_truth,
    generate_gaussian,
    ln_gamma,
    normalize,
    student_t_truth,
)
from knnmi.errors import integer, positive, positive_real, real
from knnmi.estimators import EstimateReport
from knnmi.harness import Status
from knnmi.scaling import NormalizationResult

DATA = Dataset(x=np.arange(10.0)[:, None], y=np.arange(10.0)[::-1, None] ** 2)
RADII = compute_knn_radii(DATA, 2)


def _config(**fields):
    return ExperimentConfig(**{"family": "gaussian", "base_seed": 1, "dims": [1], "n": 10, "k": 2,
                               **fields})


# site: (call with the value under test, the argument's name the message starts with,
# lowest legal value)
INTEGER_SITES = {
    "config.n": (lambda v: _config(n=v), "n", 2),
    "config.k": (lambda v: _config(k=v), "k", 1),
    "config.repetitions": (lambda v: _config(repetitions=v), "repetitions", 1),
    "config.base_seed": (lambda v: _config(base_seed=v), "base_seed", None),
    "config.dims": (lambda v: _config(dims=[v]), "dims", 1),
    "compute_knn_radii.k": (lambda v: compute_knn_radii(DATA, v), "k", 1),
    "normalize.d_joint": (lambda v: normalize([1.0, 2.0], v, "proposed"), "d_joint", 1),
    "GaussianSpec.d": (lambda v: GaussianSpec(d=v, rho=0.5, n=10, seed=1), "d", 1),
    "GaussianSpec.n": (lambda v: GaussianSpec(d=1, rho=0.5, n=v, seed=1), "n", 1),
    "GaussianSpec.seed": (lambda v: GaussianSpec(d=1, rho=0.5, n=10, seed=v), "seed", 0),
    "StudentTSpec.d": (lambda v: StudentTSpec(d=v, nu=1.0, n=10, seed=1), "d", 1),
    "StudentTSpec.n": (lambda v: StudentTSpec(d=1, nu=1.0, n=v, seed=1), "n", 1),
    "StudentTSpec.seed": (lambda v: StudentTSpec(d=1, nu=1.0, n=10, seed=v), "seed", 0),
    "gaussian_truth.d": (lambda v: gaussian_truth(v, 0.5), "d", 1),
    "student_t_truth.d": (lambda v: student_t_truth(v, 1.0), "d", 1),
    "derive_seed.base_seed": (lambda v: derive_seed(v, "gaussian", 2, 0.5, 0), "base_seed", None),
    "derive_seed.d": (lambda v: derive_seed(1, "gaussian", v, 0.5, 0), "d", 1),
    "derive_seed.repetition": (lambda v: derive_seed(1, "gaussian", 2, 0.5, v), "repetition", 0),
    "dataset_from_csv.d_x": (lambda v, path: dataset_from_csv(path, d_x=v, d_y=1), "d_x", 0),
    "dataset_from_csv.d_y": (lambda v, path: dataset_from_csv(path, d_x=1, d_y=v), "d_y", 0),
    "estimate_backends.d_x": (lambda v: estimate_backends(RADII, v, 1, ["proposed"]), "d_x", 0),
    "estimate_backends.d_y": (lambda v: estimate_backends(RADII, 1, v, ["proposed"]), "d_y", 0),
}

POSITIVE_SITES = {
    "normalize.radii": (lambda v: normalize(v, 2, "proposed"), "radii"),
    "StudentTSpec.nu": (lambda v: StudentTSpec(d=1, nu=v, n=10, seed=1), "nu"),
    "student_t_truth.nu": (lambda v: student_t_truth(1, v), "nu"),
    # a bool or text entry is not a number; a number must be positive and finite
    "config.nu_grid": (lambda v: _config(family="student_t", nu_grid=[1.0, v]), "nu_grid( values)?"),
    "digamma": (digamma, "digamma arguments"),
    "ln_gamma": (ln_gamma, "ln_gamma arguments"),
}


# site: (call with one array entry under test, the message it starts with); the
# entry sits beside real numbers, where numpy would read True as 1.0
ARRAY_SITES = {
    "Dataset.x": (lambda v: Dataset(x=[[1.0], [v]], y=[[1.0], [2.0]]), "(x and y|dataset entries)"),
    "Dataset.y": (lambda v: Dataset(x=[[1.0], [2.0]], y=[[1.0], [v]]), "(x and y|dataset entries)"),
    "normalize.radii": (lambda v: normalize([1.0, v], 2, "proposed"), "radii"),
    "digamma": (lambda v: digamma([1.0, v]), "digamma arguments"),
}


@pytest.mark.parametrize("bad", ["1", True, np.True_, 1 + 2j, None, pytest.param([1.0, 2.0], id="ragged"),
                                 math.nan])
@pytest.mark.parametrize("site", ARRAY_SITES)
def test_array_entries_are_real_numbers(site, bad):
    call, name = ARRAY_SITES[site]
    with pytest.raises(ConfigurationError, match=f"^{name} must"):
        call(bad)


def test_dataset_takes_integer_and_float32_entries():
    data = Dataset(x=np.array([[1], [2]], dtype=np.int8), y=[[np.float32(0.5)], [3]])
    assert data.x.dtype == data.y.dtype == np.float64
    assert data.x.tolist() == [[1.0], [2.0]] and data.y.tolist() == [[0.5], [3.0]]


# the positive sites that take one number: nu
NU_SITES = {site: POSITIVE_SITES[site]
            for site in ("StudentTSpec.nu", "student_t_truth.nu", "config.nu_grid")}


# site: (call with the value under test, the argument's name the message starts with)
REAL_SITES = {
    "config.rho_grid": (lambda v: _config(rho_grid=[0.5, v]), "rho_grid values"),
    "GaussianSpec.rho": (lambda v: GaussianSpec(d=1, rho=v, n=10, seed=1), "rho"),
    "gaussian_truth.rho": (lambda v: gaussian_truth(1, v), "rho"),
}


@pytest.mark.parametrize("bad", [True, False, "0.5", None, math.nan, -0.1, 1.5])
@pytest.mark.parametrize("site", REAL_SITES)
def test_real_sites_refuse_and_name_the_argument(site, bad):
    call, name = REAL_SITES[site]
    with pytest.raises(ConfigurationError, match=f"^{name} must be a real number in \\[0, 1\\], got "):
        call(bad)


# a Python int beyond float64's range, such as a 400-digit JSON integer
HUGE = pytest.param(10**400, id="10**400")


@pytest.mark.parametrize("bad", [[1.0], HUGE, "1", True, 0, math.inf, math.nan])
@pytest.mark.parametrize("site", NU_SITES)
def test_nu_sites_take_one_real_number(site, bad):
    call, name = NU_SITES[site]
    with pytest.raises(ConfigurationError, match=f"^{name} must be"):
        call(bad)


@pytest.mark.parametrize("bad", [0, math.inf, -0.0, np.int64(0), np.float64(0.0), np.float32(np.inf)])
def test_nu_out_of_range_reads_positive_and_finite(bad):
    # the message shows the number real returned, so -0.0 reads as 0.0
    for call in (lambda: StudentTSpec(d=1, nu=bad, n=10, seed=1), lambda: student_t_truth(1, bad)):
        with pytest.raises(ConfigurationError, match=f"^nu must be positive and finite, got {float(bad) + 0.0!r}$"):
            call()


@pytest.mark.parametrize("bad", ["x", None, True, math.nan, -0.1, HUGE])
def test_derive_seed_param_is_a_real_number(bad):
    with pytest.raises(ConfigurationError, match=r"^param must be a real number in \[0, inf\], got "):
        derive_seed(1, "gaussian", 1, bad, 0)


def test_generation_refuses_rho_one():
    for rho in (1, 1.0, np.float64(1.0)):
        with pytest.raises(ConfigurationError, match=r"^rho must lie in \[0, 1\) for generation"):
            GaussianSpec(d=1, rho=rho, n=10, seed=1)


@pytest.mark.parametrize("site, bad", [
    # bool, float, nan, inf and text everywhere; the value below the lowest legal one
    (site, bad) for site, (_, _, low) in INTEGER_SITES.items()
    for bad in [True, np.True_, 2.0, 2.5, math.nan, math.inf, "2"] + ([] if low is None else [low - 1])
])
def test_integer_sites_refuse_and_name_the_argument(site, bad, tmp_path):
    call, name, _ = INTEGER_SITES[site]
    args = (bad,)
    if site.startswith("dataset_from_csv"):  # two columns, so d_x = d_y = True would fit
        args = (bad, tmp_path / "d.csv")
        dataset_to_csv(DATA, args[1])
    with pytest.raises(ConfigurationError, match=f"^{name} must be"):
        call(*args)


@pytest.mark.parametrize("bad", [0, 0.0, -1.0, math.nan, math.inf, -math.inf, True, "1.5"])
@pytest.mark.parametrize("site", POSITIVE_SITES)
def test_positive_sites_refuse_and_name_the_argument(site, bad):
    call, name = POSITIVE_SITES[site]
    with pytest.raises(ConfigurationError, match=f"^{name} must be"):
        call(bad)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("site", ["normalize.radii", "digamma", "ln_gamma"])
def test_positive_checks_every_entry(site, bad):
    call, name = POSITIVE_SITES[site]
    with pytest.raises(ConfigurationError, match=f"^{name} must be positive and finite$"):
        call(np.array([[1.0, 2.0], [3.0, bad]]))


@pytest.mark.parametrize("value", [0, 7, np.int8(3), np.uint64(2**64 - 1), 2**130])
def test_integer_accepts_python_and_numpy_integers(value):
    got = integer("v", value, 0)
    assert type(got) is int and got == value


def test_integer_message_names_the_bound():
    with pytest.raises(ConfigurationError, match=r"^k must be an integer >= 1, got 0$"):
        integer("k", 0, 1)
    with pytest.raises(ConfigurationError, match=r"^seed must be an integer, got 1\.5$"):
        integer("seed", 1.5)


@pytest.mark.parametrize("value", [1, 0.5, np.float32(2.0), [1, 2], np.array([[1e-300, 1e300]])])
def test_positive_returns_float64(value):
    got = positive("v", value)
    assert got.dtype == np.float64
    assert np.array_equal(got, np.asarray(value, dtype=np.float64))


def test_positive_refuses_bool_and_text_arrays():
    for value in (np.array([True, True]), ["1.0", "2.0"], np.array([1 + 1j]), 10**400):
        with pytest.raises(ConfigurationError, match="^v must be positive and finite"):
            positive("v", value)


@pytest.mark.parametrize("value", [0, 1, 0.5, np.float32(0.25), np.int64(1), np.float64(0.0)])
def test_real_accepts_python_and_numpy_reals(value):
    got = real("v", value, 0, 1)
    assert type(got) is float and got == value


def test_negative_zero_is_the_grid_value_zero():
    # errors.real reads -0.0 as 0.0, so a -0.0 grid entry names the cell of 0.0:
    # the same param, seed, data and truth
    assert math.copysign(1.0, real("v", -0.0, 0, 1)) == 1.0
    assert _config(rho_grid=[-0.0]).rho_grid == [0.0]
    assert repr(_config(rho_grid=[-0.0]).rho_grid[0]) == "0.0"
    with pytest.raises(ConfigurationError, match="more than once"):
        _config(rho_grid=[0.0, -0.0])
    assert derive_seed(1, "gaussian", 1, -0.0, 0) == derive_seed(1, "gaussian", 1, 0.0, 0)
    assert derive_seed(1, "gaussian", 1, -0.0, 0) == 1137054322926650340
    assert gaussian_truth(2, -0.0) == gaussian_truth(2, 0.0)
    specs = [GaussianSpec(d=2, rho=rho, n=20, seed=3) for rho in (-0.0, 0.0)]
    np.testing.assert_array_equal(*(generate_gaussian(spec).y for spec in specs))


def test_real_refuses_numpy_bools_complex_and_sequences():
    for value in (np.True_, 1 + 0j, [0.5], np.array(0.5)):
        with pytest.raises(ConfigurationError, match=r"^v must be a real number in \[0, inf\], got "):
            real("v", value, 0, math.inf)


@pytest.mark.parametrize("value", [1, 0.5, np.float32(2.0), np.int64(7), 1e308])
def test_positive_real_returns_a_float(value):
    got = positive_real("v", value)
    assert type(got) is float and got == value


def _report(nmi):
    return EstimateReport(mi_ksg=0.1, h_x=1.0, h_y=1.0, h_xy=1.9, mi_from_entropies=0.1, nmi=nmi,
                          backend=Backend.PROPOSED, n_samples=10, k=2)


def test_status_of_a_backend_result():
    overflow = NormalizationResult(ln_v=math.inf, backend=Backend.BASELINE, epsilon_max=2.0,
                                   d_joint=1024)
    assert Status.of(overflow) is Status.OVERFLOW
    assert Status.of(_report(0.1)) is Status.OK
    assert Status.of(_report(0.0)) is Status.OK
    assert Status.of(_report(None)) is Status.UNDEFINED_NMI
