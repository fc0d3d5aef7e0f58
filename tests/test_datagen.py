"""Synthetic data generation: determinism, statistical oracles, CSV round-trip."""

import re
import warnings

import numpy as np
import pytest

from knnmi.datagen import (
    MAX_SAMPLE_VALUES,
    GaussianSpec,
    StudentTSpec,
    generate_gaussian,
    generate_student_t,
)
from knnmi.dataset import (
    Dataset,
    dataset_checksum,
    dataset_from_csv,
    dataset_to_csv,
    read_csv,
    write_csv,
)
from knnmi.errors import ConfigurationError


class TestGaussian:
    def test_same_seed_bit_identical(self):
        spec = GaussianSpec(d=3, rho=0.5, n=200, seed=12345)
        a = generate_gaussian(spec)
        b = generate_gaussian(spec)
        assert a.x.tobytes() == b.x.tobytes()
        assert a.y.tobytes() == b.y.tobytes()

    def test_different_seeds_differ(self):
        a = generate_gaussian(GaussianSpec(d=2, rho=0.5, n=100, seed=1))
        b = generate_gaussian(GaussianSpec(d=2, rho=0.5, n=100, seed=2))
        assert not np.array_equal(a.x[:, 0], b.x[:, 0])

    def test_zero_correlation(self):
        # 3 sigma for the sample correlation at n = 10000 is about 0.03
        data = generate_gaussian(GaussianSpec(d=2, rho=0.0, n=10000, seed=7))
        for j in range(2):
            r = np.corrcoef(data.x[:, j], data.y[:, j])[0, 1]
            assert abs(r) < 0.03

    def test_strong_correlation(self):
        data = generate_gaussian(GaussianSpec(d=2, rho=0.9, n=10000, seed=8))
        for j in range(2):
            r = np.corrcoef(data.x[:, j], data.y[:, j])[0, 1]
            assert 0.88 < r < 0.92

    def test_coordinates_independent_across_j(self):
        data = generate_gaussian(GaussianSpec(d=2, rho=0.9, n=10000, seed=9))
        assert abs(np.corrcoef(data.x[:, 0], data.y[:, 1])[0, 1]) < 0.03

    @pytest.mark.parametrize("bad_rho", [-0.1, 1.0, 1.5])
    def test_rho_range(self, bad_rho):
        with pytest.raises(ConfigurationError):
            GaussianSpec(d=1, rho=bad_rho, n=10, seed=0)


class TestStudentT:
    def test_same_seed_bit_identical(self):
        spec = StudentTSpec(d=2, nu=1.0, n=150, seed=99)
        a = generate_student_t(spec)
        b = generate_student_t(spec)
        assert a.x.tobytes() == b.x.tobytes()
        assert a.y.tobytes() == b.y.tobytes()

    def test_gaussian_limit_variance(self):
        # nu -> infinity: sqrt(nu/U) -> 1, variances approach 1
        data = generate_student_t(StudentTSpec(d=2, nu=1e9, n=10000, seed=5))
        var = data.x.var(axis=0)
        assert np.all(var > 0.95) and np.all(var < 1.05)

    def test_heavy_tails_produce_outliers(self):
        data = generate_student_t(StudentTSpec(d=1, nu=0.125, n=10000, seed=6))
        assert max(np.abs(data.x).max(), np.abs(data.y).max()) > 100.0

    def test_shared_scale_couples_the_marginals(self):
        # identity dispersion, yet log-radii correlate through the shared U
        data = generate_student_t(StudentTSpec(d=4, nu=1.0, n=10000, seed=10))
        log_rx = np.log(np.linalg.norm(data.x, axis=1))
        log_ry = np.log(np.linalg.norm(data.y, axis=1))
        assert np.corrcoef(log_rx, log_ry)[0, 1] > 0.1

    def test_tiny_nu_is_named_without_a_warning(self):
        # chi-square draws at nu = 1e-300 underflow to 0, so sqrt(nu / u) is inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigurationError, match=r"nu = 1e-300 .*not finite"):
                generate_student_t(StudentTSpec(d=1, nu=1e-300, n=10, seed=1))

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            StudentTSpec(d=1, nu=0.0, n=10, seed=0)
        with pytest.raises(ConfigurationError):
            StudentTSpec(d=1, nu=-2.0, n=10, seed=0)


@pytest.mark.parametrize("spec", [
    lambda seed: GaussianSpec(d=1, rho=0.5, n=10, seed=seed),
    lambda seed: StudentTSpec(d=1, nu=1.0, n=10, seed=seed),
])
class TestSeedRange:
    # Philox keys are 128-bit unsigned integers
    @pytest.mark.parametrize("seed", [0, 2**128 - 1, np.uint64(2**64 - 1), np.int8(3)])
    def test_accepted(self, spec, seed):
        data = spec(seed)
        made = generate_gaussian(data) if isinstance(data, GaussianSpec) else generate_student_t(data)
        assert made.n == 10

    @pytest.mark.parametrize("seed", [-1, 2**128, np.int64(-5), True, 1.0, "1", None])
    def test_rejected(self, spec, seed):
        with pytest.raises(ConfigurationError, match=r"\[0, 2\*\*128\)"):
            spec(seed)


@pytest.mark.parametrize("spec", [
    lambda d, n: GaussianSpec(d=d, rho=0.5, n=n, seed=1),
    lambda d, n: StudentTSpec(d=d, nu=1.0, n=n, seed=1),
])
class TestSampleSize:
    # the specs are only built here: a spec past the bound must never reach numpy
    def test_bound_is_accepted(self, spec):
        made = spec(2**20, MAX_SAMPLE_VALUES // 2**20)
        assert made.n * made.d == MAX_SAMPLE_VALUES

    @pytest.mark.parametrize("d, n", [(100_000_000, 3), (MAX_SAMPLE_VALUES + 1, 1), (1, MAX_SAMPLE_VALUES + 1)])
    def test_oversized_sample_is_refused(self, spec, d, n):
        with pytest.raises(ConfigurationError, match=f"n = {n} samples at d = {d} make"):
            spec(d, n)


class TestCsvInterchange:
    def test_round_trip_is_exact(self, tmp_path):
        data = generate_gaussian(GaussianSpec(d=3, rho=0.4, n=50, seed=3))
        path = tmp_path / "data.csv"
        dataset_to_csv(data, path)
        back = dataset_from_csv(path)
        assert back.d_x == 3 and back.d_y == 3
        np.testing.assert_array_equal(back.x, data.x)
        np.testing.assert_array_equal(back.y, data.y)

    def test_header_format(self, tmp_path):
        data = Dataset(np.zeros((1, 2)), np.ones((1, 1)))
        path = tmp_path / "tiny.csv"
        dataset_to_csv(data, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x_1,x_2,y_1"
        assert lines[1] == "0.0,0.0,1.0"

    def test_explicit_dims_override(self, tmp_path):
        data = generate_gaussian(GaussianSpec(d=2, rho=0.0, n=5, seed=1))
        path = tmp_path / "d.csv"
        dataset_to_csv(data, path)
        back = dataset_from_csv(path, d_x=3, d_y=1)
        assert back.d_x == 3 and back.d_y == 1
        with pytest.raises(ConfigurationError):
            dataset_from_csv(path, d_x=3, d_y=3)

    @pytest.mark.parametrize("header", ["y_1,x_1", "x_1,y_1,x_2", "x_2,y_1", "x_1,b", "a,b"])
    def test_inferred_split_needs_the_written_header(self, tmp_path, header):
        # the split is by position, so a header that names the columns in any
        # other order would load some y column as x: refused unless d_x and
        # d_y are given
        path = tmp_path / "h.csv"
        width = header.count(",") + 1
        path.write_text(header + "\n" + ",".join(["1.5"] * width) + "\n")
        message = f"{path}: cannot infer d_x/d_y from header {header!r}"
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}"):
            dataset_from_csv(path)
        back = dataset_from_csv(path, d_x=1, d_y=width - 1)
        assert back.d_x == 1 and back.d_y == width - 1

    def test_one_marginal_header_loads(self, tmp_path):
        for header, d_x in (("x_1,x_2", 2), ("y_1", 0)):
            path = tmp_path / "one.csv"
            path.write_text(header + "\n" + ",".join(["0.5"] * (header.count(",") + 1)) + "\n")
            back = dataset_from_csv(path)
            assert (back.d_x, back.d_y) == (d_x, header.count(",") + 1 - d_x)

    def test_dialect_round_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b", "c", "d"], [(None, True, 0.1, 3), ("s", False, 1e-300, -2)])
        assert path.read_bytes() == b"a,b,c,d\n,true,0.1,3\ns,false,1e-300,-2\n"
        names, rows = read_csv(path, [str, str, float, int])
        assert names == ["a", "b", "c", "d"]
        assert list(rows) == [["", "true", 0.1, 3], ["s", "false", 1e-300, -2]]

    @pytest.mark.parametrize("text, message", [
        ("", "empty or headerless CSV"),
        ("\nx_1,y_1\n", "empty or headerless CSV"),
        ("x_1,y_1\n1,2\n\n3\n", "row 4 has 1 fields"),
        ("x_1,y_1\n1,2\n\n3,4,5\n", "row 4 has 3 fields"),
        ("x_1,y_1\n1,\n", "row 2, column 2 (y_1): not a number: ''"),
        ("x_1,y_1\n1,2\n\n\n0x1,2\n", "row 5, column 1 (x_1): not a number: '0x1'"),
    ])
    def test_read_errors_name_the_file_line(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ConfigurationError, match=f"^{re.escape(f'{path}: {message}')}$"):
            dataset_from_csv(path)

    def test_rows_parse_as_they_are_iterated(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("x_1\n1.5\nabc\n")
        names, rows = read_csv(path, [float])
        assert names == ["x_1"] and next(rows) == [1.5]
        with pytest.raises(ConfigurationError, match="row 3"):
            next(rows)

    def test_checksum_tracks_content(self):
        a = generate_gaussian(GaussianSpec(d=1, rho=0.0, n=20, seed=1))
        b = generate_gaussian(GaussianSpec(d=1, rho=0.0, n=20, seed=1))
        c = generate_gaussian(GaussianSpec(d=1, rho=0.0, n=20, seed=2))
        assert dataset_checksum(a) == dataset_checksum(b)
        assert dataset_checksum(a) != dataset_checksum(c)
