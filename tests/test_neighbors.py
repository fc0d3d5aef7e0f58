"""k-NN radius and marginal-count tests, checked against a naive all-pairs oracle."""

import os
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knnmi import neighbors
from knnmi.dataset import Dataset
from knnmi.errors import ConfigurationError, DuplicatePointError, RadiusOverflowError
from knnmi.neighbors import compute_knn_radii


def naive_radii(data: Dataset, k: int):
    """Independent O(N^2 * D) reference: plain per-point loops, no blocking."""
    n = data.n
    joint = data.joint()
    eps = np.empty(n)
    n_x = np.empty(n, dtype=int)
    n_y = np.empty(n, dtype=int)
    for i in range(n):
        d_joint = np.abs(joint - joint[i]).max(axis=1)
        d_joint[i] = np.inf
        eps[i] = np.sort(d_joint)[k - 1]
        d_x = np.abs(data.x - data.x[i]).max(axis=1) if data.d_x else np.zeros(n)
        d_y = np.abs(data.y - data.y[i]).max(axis=1) if data.d_y else np.zeros(n)
        n_x[i] = int((d_x < eps[i]).sum()) - 1  # self always inside
        n_y[i] = int((d_y < eps[i]).sum()) - 1
    return eps, n_x, n_y


def random_dataset(rng, n, d_x, d_y):
    return Dataset(rng.normal(size=(n, d_x)), rng.normal(size=(n, d_y)))


def pin_scan(monkeypatch, scratch, workers):
    """Give the scans `scratch` doubles per plane and up to `workers` threads.

    At D != 2 compute_knn_radii then takes the pair-once scan when
    n * n <= scratch and brute force otherwise. Brute force takes query
    blocks of scratch // n rows (at least 8), and the sorted-window scan
    chunks of scratch // (width * workers) rows (at least 1). Its first
    window is pinned to k + 1 rows and doubles each pass, so that most rows
    of a small sample take several passes.
    """
    monkeypatch.setattr(neighbors, "_SCRATCH_ELEMS", scratch)
    monkeypatch.setattr(neighbors, "_cpu_count", lambda: workers)
    monkeypatch.setattr(neighbors, "_FIRST_WINDOW", 0.0)
    monkeypatch.setattr(neighbors, "_WINDOW_GROWTH", 2)


# the three scans behind compute_knn_radii; the first runs only at d_x = d_y = 1
SCANS = ("sorted_window", "pair_once", "brute_force")
# the scans as the oracle tests run them: pair once with its int16 planes forced and refused
VARIANTS = ("sorted_window", "pair_once_int16", "pair_once_float64", "brute_force")


def use_planes(m, planes):
    """Give the pair-once scan int16 planes wherever they can be certified
    ("int16": no rule on D, tails or band size), or none ("float64")."""
    if planes == "int16":
        m.setattr(neighbors, "_INT16_MIN_FEATURES", 1)
        m.setattr(neighbors, "_INT16_TAIL", np.inf)
        m.setattr(neighbors, "_INT16_BAND_ROWS", np.inf)
    else:
        m.setattr(neighbors, "_INT16_MIN_FEATURES", np.inf)


def use_scan(m, scan):
    """Route compute_knn_radii through `scan` (one of VARIANTS) whatever the shape."""
    if scan.startswith("pair_once_"):
        use_planes(m, scan.rpartition("_")[2])
        scan = "pair_once"
    chosen = getattr(neighbors, f"_{scan}_scan")
    for name in SCANS:
        m.setattr(neighbors, f"_{name}_scan", chosen)


def scans_for(data):
    """Every scan at d_x = d_y = 1, else the ones that take any shape."""
    return VARIANTS if data.d_x == data.d_y == 1 else VARIANTS[1:]


def planes_taken(m):
    """A list that each pair-once scan appends "int16" or "float64" to, by the planes that gave its result.

    Those are the planes of its last fold: a scan that leaves int16 planes
    folds again on float64 ones.
    """
    taken, fold = [], neighbors._pair_distances

    def spy(d_x, dist, *args):
        taken[-1] = dist.dtype.name
        return fold(d_x, dist, *args)

    def scan(x, y, k, chosen=neighbors._pair_once_scan):
        taken.append(None)
        return chosen(x, y, k)

    m.setattr(neighbors, "_pair_distances", spy)
    m.setattr(neighbors, "_pair_once_scan", scan)
    return taken


def assert_matches_oracle(rs, data, k, err_msg=""):
    eps, n_x, n_y = naive_radii(data, k)
    np.testing.assert_array_equal(rs.epsilon, eps, err_msg=err_msg)
    np.testing.assert_array_equal(rs.n_x, n_x, err_msg=err_msg)
    np.testing.assert_array_equal(rs.n_y, n_y, err_msg=err_msg)


def assert_scan_agrees_with_oracle(data, k, err_msg=""):
    """compute_knn_radii matches naive_radii, or raises the error that the
    oracle's first zero or infinite radius calls for, and warns of nothing."""
    with np.errstate(over="ignore"):
        eps = naive_radii(data, k)[0]
    bad = np.flatnonzero((eps == 0.0) | (eps == np.inf))
    with warnings.catch_warnings():
        # the filters are global, so a warning raised in a worker thread
        # fails the scan too
        warnings.simplefilter("error", RuntimeWarning)
        if bad.size:
            error = DuplicatePointError if eps[bad[0]] == 0.0 else RadiusOverflowError
            with pytest.raises(error) as exc:
                compute_knn_radii(data, k)
            assert exc.value.index == bad[0], err_msg
            return
        rs = compute_knn_radii(data, k)
    with np.errstate(over="ignore"):
        assert_matches_oracle(rs, data, k, err_msg)


def test_pure_x_line_fixture():
    # joint points {0, 1, 3, 7} with an empty y marginal; gaps by inspection
    data = Dataset(np.array([[0.0], [1.0], [3.0], [7.0]]), np.zeros((4, 0)))
    rs = compute_knn_radii(data, k=1)
    np.testing.assert_array_equal(rs.epsilon, [1.0, 1.0, 2.0, 4.0])
    # zero-width marginal: every point is inside every positive ball
    np.testing.assert_array_equal(rs.n_y, [3, 3, 3, 3])


def test_three_point_fixture():
    # brute-force by hand: joint max-norm distances are d01=1, d02=2, d12=2
    data = Dataset(np.array([[0.0], [1.0], [0.0]]), np.array([[0.0], [0.0], [2.0]]))
    rs = compute_knn_radii(data, k=1)
    np.testing.assert_array_equal(rs.epsilon, [1.0, 1.0, 2.0])
    # strict counting: point 1's x-distances are {1, 1}, neither < eps = 1
    np.testing.assert_array_equal(rs.n_x, [1, 0, 2])
    np.testing.assert_array_equal(rs.n_y, [1, 1, 0])


def test_k_equals_n_minus_1_is_farthest():
    rng = np.random.default_rng(7)
    data = random_dataset(rng, 40, 2, 3)
    rs = compute_knn_radii(data, k=39)
    joint = data.joint()
    for i in range(40):
        d = np.abs(joint - joint[i]).max(axis=1)
        d[i] = -np.inf
        assert rs.epsilon[i] == d.max()


@pytest.mark.parametrize(
    "n, d_x, d_y, k",
    [(30, 1, 1, 1), (100, 2, 2, 5), (200, 3, 1, 4), (64, 1, 0, 3), (50, 7, 5, 10)],
)
def test_matches_naive_oracle_exactly(n, d_x, d_y, k, monkeypatch):
    # brute force: blocks of the 8-row floor, of 13 rows (an uneven last
    # block for every n here) and of the whole sample; sorted window: several
    # chunks in every pass, then one chunk in most passes. Each with 1, 2 and
    # 3 threads. The pair-once scan has no blocks and starts no thread
    rng = np.random.default_rng(n * 1000 + k)
    data = random_dataset(rng, n, d_x, d_y)
    for scan in scans_for(data):
        pair_once = scan.startswith("pair_once")
        for rows in (1, 13, n) if not pair_once else (n,):
            for workers in (1, 2, 3) if not pair_once else (1,):
                with monkeypatch.context() as m:
                    use_scan(m, scan)
                    pin_scan(m, rows * n, workers)
                    rs = compute_knn_radii(data, k)
                    assert_matches_oracle(rs, data, k, f"{scan} rows={rows} workers={workers}")


def test_more_threads_than_cores_lose_no_block(monkeypatch):
    # 8 threads with a 1 us switch interval: brute force shares out 50 blocks,
    # the sorted-window scan 34 chunks in its first pass and more later. A
    # block or chunk lost or written twice by the shared queue would leave a
    # wrong radius, and a lost slot of unresolved rows a missing one
    rng = np.random.default_rng(37)
    pin_scan(monkeypatch, 400, 8)
    for d_x in (2, 1):
        data = random_dataset(rng, 400, d_x, 1)
        result = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            scan = threading.Thread(target=lambda: result.append(compute_knn_radii(data, 3)))
            scan.start()
            scan.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not scan.is_alive() and len(result) == 1, d_x
        assert_matches_oracle(result[0], data, 3, f"d_x={d_x}")


def test_error_in_a_helper_thread_reaches_the_caller(monkeypatch):
    # the calling thread makes one call of the hand-out and helper threads the
    # others; a helper's exception must be raised in the caller after every
    # helper has finished
    monkeypatch.setattr(neighbors, "_cpu_count", lambda: 3)
    before = threading.active_count()

    def task(item, scratch):
        if threading.current_thread() is not threading.main_thread():
            raise ValueError("helper failed")

    with pytest.raises(ValueError, match="helper failed"):
        neighbors._share_out(task, range(10), lambda: None)
    assert threading.active_count() == before


def test_a_task_that_returns_true_ends_the_hand_out(monkeypatch):
    # on one CPU the calling thread takes every item in order: the task that
    # returns True at item 3 is the last to run, and scratch is made once
    monkeypatch.setattr(neighbors, "_cpu_count", lambda: 1)
    ran, made = [], []

    def task(item, scratch):
        ran.append((item, scratch))
        return item == 3

    neighbors._share_out(task, range(10), lambda: made.append(1) or "kept")
    assert ran == [(item, "kept") for item in range(4)]
    assert made == [1]


@pytest.mark.parametrize("name", [
    "grid", "coincident_below_k", "empty_y", "subnormal", "huge",
    "x_ties_d2", "coincident_below_k_d2", "subnormal_d2", "y_ties_d2",
])
def test_adversarial_inputs_match_oracle(name, monkeypatch):
    rng = np.random.default_rng(23)
    if name == "grid":
        # all 64 points of an integer 4x4x4 grid: every radius is tied
        grid = np.stack(np.meshgrid(*[np.arange(4.0)] * 3), axis=-1).reshape(-1, 3)
        grid = grid[rng.permutation(64)]
        data, k = Dataset(grid[:, :2], grid[:, 2:]), 5
    elif name == "coincident_below_k":
        # rows 3, 20 and 45 (three different blocks) coincide: each has two
        # coincident others, fewer than k = 4, so every radius is positive
        x, y = rng.normal(size=(60, 2)), rng.normal(size=(60, 1))
        x[[20, 45]], y[[20, 45]] = x[3], y[3]
        data, k = Dataset(x, y), 4
    elif name == "empty_y":
        data, k = Dataset(rng.normal(size=(50, 3)), np.zeros((50, 0))), 3
    elif name == "subnormal":
        # spreads below the smallest normal float64 (2.2e-308)
        data, k = Dataset(rng.normal(size=(40, 2)) * 1e-310, rng.normal(size=(40, 1)) * 1e-312), 3
    elif name == "huge":
        # magnitudes near 1e308: many differences overflow to inf, no radius does
        data, k = Dataset(rng.uniform(-1, 1, (40, 1)) * 1e308, rng.normal(size=(40, 1))), 2
    elif name in ("x_ties_d2", "y_ties_d2"):
        # five values shared by twelve rows each against a distinct coordinate:
        # the sorted-window scan sorts by the distinct one (swapping x and y
        # for x_ties_d2), and a window sorted by the tied one would have to
        # grow past a run of ties before it could be accepted
        tied, distinct = rng.integers(0, 5, (60, 1)).astype(float), rng.normal(size=(60, 1))
        data, k = Dataset(*((tied, distinct) if name == "x_ties_d2" else (distinct, tied))), 4
    elif name == "coincident_below_k_d2":
        # rows 3, 20 and 45 coincide (two coincident others, fewer than k = 4)
        # and rows 7 and 50 share x only
        x, y = rng.normal(size=(60, 1)), rng.normal(size=(60, 1))
        x[[20, 45]], y[[20, 45]] = x[3], y[3]
        x[50] = x[7]
        data, k = Dataset(x, y), 4
    else:
        # d_x = d_y = 1 with spreads below the smallest normal float64
        data, k = Dataset(rng.normal(size=(40, 1)) * 1e-310, rng.normal(size=(40, 1)) * 1e-312), 3
    # brute force: 8-row blocks; sorted window: several chunks per pass
    for scan in scans_for(data):
        for workers in (1, 2, 3):
            with monkeypatch.context() as m:
                use_scan(m, scan)
                pin_scan(m, data.n, workers)
                assert_scan_agrees_with_oracle(data, k, f"{scan} workers={workers}")


def test_marginal_counts_at_least_k_minus_1():
    # the k-th joint neighbor is excluded on at least one marginal, so the
    # guaranteed lower bound is k - 1, attained in degenerate fixtures
    rng = np.random.default_rng(3)
    data = random_dataset(rng, 150, 2, 2)
    for k in (1, 3, 8):
        rs = compute_knn_radii(data, k)
        assert rs.n_x.min() >= k - 1
        assert rs.n_y.min() >= k - 1


def test_permutation_equivariance():
    rng = np.random.default_rng(11)
    data = random_dataset(rng, 80, 2, 2)
    rs = compute_knn_radii(data, 4)
    perm = rng.permutation(80)
    permuted = Dataset(data.x[perm], data.y[perm])
    rs_p = compute_knn_radii(permuted, 4)
    np.testing.assert_array_equal(rs_p.epsilon, rs.epsilon[perm])
    np.testing.assert_array_equal(rs_p.n_x, rs.n_x[perm])
    np.testing.assert_array_equal(rs_p.n_y, rs.n_y[perm])


def test_monotone_in_k():
    rng = np.random.default_rng(13)
    data = random_dataset(rng, 120, 3, 2)
    prev = compute_knn_radii(data, 1).epsilon
    for k in range(2, 12):
        cur = compute_knn_radii(data, k).epsilon
        assert np.all(cur >= prev)
        prev = cur


def test_translation_invariance():
    # exact in real arithmetic; in floats the shifted coordinates round,
    # so radii agree to ~1 ulp and the integer counts (whose margins are
    # huge for continuous data) agree exactly
    rng = np.random.default_rng(17)
    data = random_dataset(rng, 90, 2, 3)
    rs = compute_knn_radii(data, 5)
    shifted = Dataset(data.x + np.array([3.5, -1.25]), data.y + np.array([0.5, 2.0, -7.0]))
    rs_s = compute_knn_radii(shifted, 5)
    np.testing.assert_allclose(rs_s.epsilon, rs.epsilon, rtol=1e-12, atol=1e-12)
    np.testing.assert_array_equal(rs_s.n_x, rs.n_x)
    np.testing.assert_array_equal(rs_s.n_y, rs.n_y)


def test_duplicate_points_rejected():
    x = np.array([[0.0], [1.0], [1.0], [2.0]])
    y = np.array([[0.0], [5.0], [5.0], [1.0]])
    with pytest.raises(DuplicatePointError) as exc:
        compute_knn_radii(Dataset(x, y), k=1)
    assert exc.value.index == 1


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_first_duplicate_in_row_order_is_reported(workers, monkeypatch):
    # duplicate pairs (12, 35) and (20, 27) lie in four different 8-row
    # blocks; at k = 1 each row has k coincident others, so its radius is 0
    rng = np.random.default_rng(29)
    for d in (2, 1):
        x, y = rng.normal(size=(48, d)), rng.normal(size=(48, d))
        x[35], y[35] = x[12], y[12]
        x[27], y[27] = x[20], y[20]
        for scan in scans_for(Dataset(x, y)):
            with monkeypatch.context() as m:
                use_scan(m, scan)
                pin_scan(m, 48, workers)
                with pytest.raises(DuplicatePointError) as exc:
                    compute_knn_radii(Dataset(x, y), k=1)
            assert exc.value.index == 12, (d, scan)


@pytest.mark.parametrize("workers", [1, 2])
def test_overflowing_radius_is_a_typed_error(workers, monkeypatch):
    # every point lies in [-1e308, -0.5e308]^2 except row 9 (x = 1.7e308) and
    # row 30 (y = 1.7e308): only their distances to all others overflow
    rng = np.random.default_rng(31)
    x, y = -rng.uniform(0.5, 1.0, (40, 1)) * 1e308, -rng.uniform(0.5, 1.0, (40, 1)) * 1e308
    x[9], y[30] = 1.7e308, 1.7e308
    for scan in VARIANTS:
        with monkeypatch.context() as m:
            use_scan(m, scan)
            pin_scan(m, 40, workers)
            with pytest.raises(RadiusOverflowError, match="overflowed float64") as exc:
                compute_knn_radii(Dataset(x, y), k=1)
        assert exc.value.index == 9, scan


def test_scan_is_chosen_by_shape(monkeypatch):
    # every shape takes the pair-once scan while n * n <= _SCRATCH_ELEMS
    # (n <= 256); above that d_x = d_y = 1 takes the sorted-window scan and
    # every other shape brute force
    used = []
    for scan in SCANS:
        real = getattr(neighbors, f"_{scan}_scan")
        monkeypatch.setattr(
            neighbors, f"_{scan}_scan", lambda *args, s=scan, f=real: (used.append(s), f(*args))[1]
        )
    rng = np.random.default_rng(43)
    for n, d_x, d_y, want in (
        (30, 1, 1, "pair_once"), (256, 1, 1, "pair_once"),
        (257, 1, 1, "sorted_window"), (300, 1, 1, "sorted_window"),
        (30, 2, 1, "pair_once"), (30, 1, 2, "pair_once"), (30, 1, 0, "pair_once"),
        (256, 2, 1, "pair_once"), (257, 2, 1, "brute_force"), (257, 1, 0, "brute_force"),
    ):
        used.clear()
        compute_knn_radii(random_dataset(rng, n, d_x, d_y), 2)
        assert used == [want], (n, d_x, d_y)


def sorted_window_data(family, n, rng):
    """(x, y) at d_x = d_y = 1 for the sorted-window cases."""
    if family == "student_t":
        return rng.standard_t(0.5, (n, 1)), rng.standard_t(0.5, (n, 1))
    if family == "cauchy":
        return rng.standard_cauchy((n, 1)), rng.standard_cauchy((n, 1))
    if family == "binary_x":
        return rng.integers(0, 2, (n, 1)).astype(float), rng.normal(size=(n, 1))
    z = rng.normal(size=(n, 2))
    rho = {"gaussian": 0.0, "gaussian_0.9": 0.9}[family]
    return z[:, :1], rho * z[:, :1] + np.sqrt(1 - rho * rho) * z[:, 1:]


@pytest.mark.parametrize("family, n, k", [
    *(pytest.param("student_t", n, k, id=f"{n}-{k}") for n, k in ((500, 1), (2000, 5), (2000, 40))),
    *((family, n, k) for family in ("gaussian", "gaussian_0.9", "cauchy", "binary_x")
      for n in (257, 2000) for k in (1, 5)),
])
def test_sorted_window_scan_equals_brute_force(family, n, k, monkeypatch):
    # Student-t-like and Cauchy tails: far-out rows need several window
    # growths, and rows with a large |y| need windows spanning most of the
    # sample; the default windows retry many rows in y-sorted order. Binary x
    # is sorted by y. Default windows and scratch, then pinned ones with
    # several chunks per pass
    rng = np.random.default_rng(n + k)
    x, y = sorted_window_data(family, n, rng)
    want = neighbors._brute_force_scan(x, y, k)
    for workers in (None, 1, 2, 3):
        with monkeypatch.context() as m:
            if workers:
                pin_scan(m, 4 * n, workers)
            got = neighbors._sorted_window_scan(x, y, k)
        for name, a, b in zip(("epsilon", "n_x", "n_y"), got, want):
            np.testing.assert_array_equal(a, b, err_msg=f"{name} workers={workers}")


@pytest.mark.parametrize("d_x, d_y", [(1, 0), (0, 2), (1, 1), (2, 1), (1, 3)])
def test_pair_once_scan_matches_oracle_exhaustively(d_x, d_y, monkeypatch):
    # every n from 2 to 12 and every k < n, on normal data and on integer
    # data in 0..2, where ties at eps and duplicates abound, with int16 planes
    # forced and refused. At even n the offset n / 2 reaches each of its pairs
    # from both ends, so none of its distances is read back; odd n have no
    # such offset
    for planes in ("int16", "float64"):
        rng = np.random.default_rng(47)
        with monkeypatch.context() as m:
            use_scan(m, f"pair_once_{planes}")
            for n in range(2, 13):
                for data in (
                    random_dataset(rng, n, d_x, d_y),
                    Dataset(rng.integers(0, 3, (n, d_x)).astype(float),
                            rng.integers(0, 3, (n, d_y)).astype(float)),
                ):
                    for k in range(1, n):
                        assert_scan_agrees_with_oracle(data, k, f"{planes} n={n} k={k}")


def test_pair_once_scan_equals_brute_force_up_to_256_rows(monkeypatch):
    # the largest sample that takes the pair-once scan, and an odd one, with
    # int16 planes forced and refused
    for planes in ("int16", "float64"):
        rng = np.random.default_rng(53)
        with monkeypatch.context() as m:
            use_planes(m, planes)
            for n, d_x, d_y, k in ((256, 8, 8, 5), (255, 3, 0, 20), (201, 64, 64, 1)):
                x, y = rng.normal(size=(n, d_x)), rng.normal(size=(n, d_y))
                got = neighbors._pair_once_scan(x, y, k)
                want = neighbors._brute_force_scan(x, y, k)
                for name, a, b in zip(("epsilon", "n_x", "n_y"), got, want):
                    assert a.dtype == b.dtype, name
                    np.testing.assert_array_equal(a, b, err_msg=f"{name} {planes} n={n}")


def plane_case(name):
    """(dataset, k, the planes a pair-once scan of it takes with int16 forced)."""
    rng = np.random.default_rng(73)
    if name == "integer_ties":
        # marginal distances tie at eps everywhere, so both bands hold many entries
        joint, k, planes = rng.integers(0, 4, (200, 8)).astype(float), 5, "int16"
    elif name == "subnormal":
        # max |z| below 2^-1000: the quantization unit would be subnormal
        joint, k, planes = rng.normal(size=(60, 8)) * 1e-310, 3, "float64"
    elif name == "huge":
        # max |z| just under 2^1020, so differences up to 2e307 stay finite
        joint, k, planes = rng.uniform(-1.0, 1.0, (60, 8)) * 1e307, 3, "int16"
    elif name == "k_n_minus_1":
        joint, k, planes = rng.normal(size=(40, 8)), 39, "int16"
    else:
        # half steps of the quantization unit s = 0.7 (max |z| = 16383 s): the
        # division rounds some values onto a half step they miss, so a
        # quantized distance can be off by a little more than 1 unit. A
        # radius band narrowed to +-1 unit gets several radii wrong here
        joint = (rng.integers(-100, 100, (200, 2)) + 0.5) * 0.7
        joint[0, 0] = 16383 * 0.7
        k, planes = 5, "int16"
    d_x = joint.shape[1] // 2
    return Dataset(joint[:, :d_x], joint[:, d_x:]), k, planes


@pytest.mark.parametrize("name", ["integer_ties", "subnormal", "huge", "k_n_minus_1", "half_steps"])
def test_both_planes_give_the_oracle_radii(name, monkeypatch):
    # int16 planes forced wherever they can be certified, then refused
    data, k, planes = plane_case(name)
    for forced in ("int16", "float64"):
        with monkeypatch.context() as m:
            use_planes(m, forced)
            taken = planes_taken(m)
            assert_scan_agrees_with_oracle(data, k, forced)
        assert taken == [planes if forced == "int16" else "float64"]


def test_pair_once_planes_are_chosen_by_the_input(monkeypatch):
    # the module docstring's rules, one refusal each, at N = 200
    rng = np.random.default_rng(79)
    gaussian = rng.normal(size=(200, 8))
    heavy = rng.standard_t(0.5, (200, 16))
    assert np.abs(heavy).max() > 64 * np.abs(heavy).mean()
    cases = [
        ("int16", gaussian),
        ("float64", gaussian[:, :6]),  # D = 6
        ("float64", heavy),
        ("float64", gaussian * 1e-305),  # max |z| below 2^-1000
        ("float64", rng.uniform(-1.0, 1.0, (200, 8)) * 1.5e307),  # above 2^1020
        # distances 0, 1 and 2 only: about a quarter of each row ties at eps
        ("float64", rng.integers(0, 3, (200, 8)).astype(float)),
    ]
    taken = planes_taken(monkeypatch)
    for planes, joint in cases:
        taken.clear()
        d_x = joint.shape[1] // 2
        data = Dataset(joint[:, :d_x], joint[:, d_x:])
        with np.errstate(over="ignore"):
            assert_matches_oracle(compute_knn_radii(data, 5), data, 5)
        assert taken == [planes], joint[0]


def test_pair_once_results_never_alias_the_scratch():
    # the scan keeps its planes between calls; what it returns must not live
    # in them, so later scans at larger D and at n = 256 leave it as it was.
    # The largest scan runs first: growing the buffer would leave a result
    # that aliased the old one untouched
    rng = np.random.default_rng(59)
    compute_knn_radii(random_dataset(rng, 256, 32, 33), 4)
    data = random_dataset(rng, 200, 3, 2)
    kept = compute_knn_radii(data, 4)
    copies = [a.copy() for a in (kept.epsilon, kept.n_x, kept.n_y)]
    for n, d in ((200, 32), (256, 8), (256, 1), (200, 2)):
        other = random_dataset(rng, n, d, d + 1)
        assert_matches_oracle(compute_knn_radii(other, 4), other, 4, f"n={n} d={d}")
    for a, b in zip((kept.epsilon, kept.n_x, kept.n_y), copies):
        np.testing.assert_array_equal(a, b)
    assert_matches_oracle(kept, data, 4)


def test_pair_once_scans_in_two_threads_at_once():
    # each thread carves its own scratch; with a 1 us switch interval, two
    # threads that shared one would overwrite each other's planes mid-scan
    rng = np.random.default_rng(61)
    cases = [[random_dataset(rng, n, d, 2) for n, d in ((200, 16), (150, 3), (256, 6))]
             for _ in range(2)]
    wants = [[naive_radii(data, 5) for data in datasets] for datasets in cases]
    start = threading.Barrier(2)
    failures, finished = [], []

    def scan_repeatedly(datasets, want):
        start.wait(timeout=30)
        for _ in range(4):
            for data, (eps, n_x, n_y) in zip(datasets, want):
                rs = compute_knn_radii(data, 5)
                if not (np.array_equal(rs.epsilon, eps) and np.array_equal(rs.n_x, n_x)
                        and np.array_equal(rs.n_y, n_y)):
                    failures.append((data.n, data.d_x))
        finished.append(1)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=scan_repeatedly, args=args) for args in zip(cases, wants)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(finished) == 2 and not failures, failures


def test_carved_arrays_are_aligned_and_disjoint():
    # every array starts on a 64-byte boundary; the arrays of one call never
    # overlap, while each call starts at the start of the thread's buffer,
    # and another thread's buffer is elsewhere
    def span(a):
        return a.ctypes.data, a.ctypes.data + a.nbytes

    layouts = [[((3, 5), np.float64), ((7,), bool), ((2, 3), np.float64), ((0, 4), np.float64),
                ((9,), np.int32)],
               [((1,), bool), ((5, 5), np.float64)]]
    first, second = (neighbors._carve(*layout) for layout in layouts)
    for carved, layout in zip((first, second), layouts):
        assert [(a.shape, a.dtype) for a in carved] == [(s, np.dtype(t)) for s, t in layout]
        assert all(a.ctypes.data % 64 == 0 for a in carved)
        spans = sorted(span(a) for a in carved)
        assert all(end <= begin for (_, end), (begin, _) in zip(spans, spans[1:]))
    assert first[0].ctypes.data == second[0].ctypes.data
    elsewhere = []
    helper = threading.Thread(target=lambda: elsewhere.extend(neighbors._carve(*layouts[0])))
    helper.start()
    helper.join(timeout=30)
    assert not helper.is_alive() and len(elsewhere) == len(first)
    mine = [span(a) for a in first if a.nbytes]
    theirs = [span(a) for a in elsewhere if a.nbytes]
    assert all(end <= start or stop <= begin for begin, end in mine for start, stop in theirs)


@pytest.mark.parametrize("planes, limit", [("float64", 1_895_424), ("int16", 1_962_240)])
def test_pair_once_scratch_does_not_outgrow_its_layout(planes, limit, monkeypatch):
    # the buffer a thread keeps after one scan at n = 256: float64 planes at
    # D = 64 (Student-t nu = 0.5, which the tail rule keeps from int16) and
    # int16 planes at D = 128 (Gaussian). The limits are the sizes before
    # both plane types shared one pipeline; carving int16's own arrays for
    # float64 planes too breaks the first
    rng = np.random.default_rng(89)
    joint = rng.standard_t(0.5, (256, 64)) if planes == "float64" else rng.normal(size=(256, 128))
    d_x = joint.shape[1] // 2
    data = Dataset(joint[:, :d_x], joint[:, d_x:])
    taken = planes_taken(monkeypatch)
    found = []

    def scan():
        found.append((compute_knn_radii(data, 5), neighbors._scratch.buffer.size))

    thread = threading.Thread(target=scan)  # a fresh thread starts with no buffer
    thread.start()
    thread.join(timeout=60)
    (rs, size), = found
    assert_matches_oracle(rs, data, 5)
    assert taken == [planes]
    assert size <= limit


FAULT_PROBE = """
import resource
import numpy as np
from knnmi.dataset import Dataset
from knnmi.neighbors import compute_knn_radii

rng = np.random.default_rng(67)
datasets = [Dataset(rng.normal(size=(200, d)), rng.normal(size=(200, d)))
            for d in (2, 4, 8, 16, 32, 64)]
compute_knn_radii(datasets[-1], 5)  # the largest shape grows the buffer once
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(10):
    for data in datasets:
        compute_knn_radii(data, 5)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def test_repeated_pair_once_scans_fault_in_no_new_pages():
    # freed scratch planes went back to the OS and were faulted in again on
    # the next scan: about 18k minor faults for these 60 scans. In a fresh
    # process, since earlier frees in this one can move malloc's thresholds
    pytest.importorskip("resource")
    package_root = os.path.dirname(os.path.dirname(neighbors.__file__))
    path = os.pathsep.join(filter(None, (package_root, os.environ.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", FAULT_PROBE], capture_output=True, text=True,
                          timeout=120, env=dict(os.environ, PYTHONPATH=path), check=True)
    faults = int(done.stdout)
    assert faults < 1000, faults


def test_sorted_window_scan_sorts_by_the_more_distinct_coordinate(monkeypatch):
    # x in {0, 1} against normal y, and the mirror: sorted by the distinct
    # coordinate, every window is accepted in the first pass; sorted by the
    # tied one, a window must first grow past a run of about 200 ties
    passes = []
    window_pass = neighbors._window_pass
    monkeypatch.setattr(neighbors, "_window_pass", lambda *args: (passes.append(1), window_pass(*args))[1])
    rng = np.random.default_rng(41)
    tied, distinct = rng.integers(0, 2, (400, 1)).astype(float), rng.normal(size=(400, 1))
    for data in (Dataset(tied, distinct), Dataset(distinct, tied)):
        passes.clear()
        assert_matches_oracle(compute_knn_radii(data, 3), data, 3)
        assert len(passes) == 1


def test_sorted_window_scan_retries_rows_in_y_order(monkeypatch):
    # Gaussian pairs at N = 1000: sorted by x, a few rows' first windows miss
    # their radius; every one of them goes to y-sorted order, where its window
    # grows until a pass settles it. An unsettled row's radius is NaN
    passes = []
    window_pass = neighbors._window_pass

    def spy(planes, order, todo, k, width, eps):
        result = window_pass(planes, order, todo, k, width, eps)
        passes.append((planes[0].copy(), order[todo], np.flatnonzero(np.isnan(eps))))
        return result

    monkeypatch.setattr(neighbors, "_window_pass", spy)
    rng = np.random.default_rng(47)
    data = Dataset(rng.normal(size=(1000, 1)), rng.normal(size=(1000, 1)))
    assert_matches_oracle(compute_knn_radii(data, 3), data, 3)
    sorted_x, sorted_y = np.sort(data.x[:, 0]), np.sort(data.y[:, 0])
    assert np.array_equal(passes[0][0], sorted_x) and passes[0][1].size == 1000
    assert all(np.array_equal(lead, sorted_y) for lead, _, _ in passes[1:])
    assert np.array_equal(np.sort(passes[1][1]), passes[0][2])
    settled = [rows.size - left.size for _, rows, left in passes]
    assert sum(settled[1:]) > 0
    assert sum(settled) == 1000


def count_within_cases():
    """(sorted values, eps) pairs on which a count edge is easy to get wrong."""
    rng = np.random.default_rng(59)
    normal = np.sort(rng.normal(size=300))
    cases = {
        "gaussian": (normal, rng.uniform(0.01, 1.0, 300)),
        "cauchy": (np.sort(rng.standard_cauchy(300)), rng.uniform(0.01, 5.0, 300)),
        "t_0.125": (np.sort(rng.standard_t(0.125, 300)), rng.uniform(0.01, 5.0, 300)),
        # many differences equal eps exactly
        "integer_ties": (np.sort(rng.integers(0, 20, 300)).astype(float),
                         rng.integers(1, 4, 300).astype(float)),
        # s_q - s_p and s_p + eps round differently at these
        "decimal_grid": (np.sort(rng.integers(0, 500, 300)) / 100, rng.integers(1, 30, 300) / 100),
        "subnormal": (np.sort(np.ldexp(rng.integers(-2**20, 2**20, 300).astype(float), -1074)),
                      np.ldexp(rng.integers(1, 2**12, 300).astype(float), -1074)),
        "eps_inf": (normal, np.full(300, np.inf)),
        "n_2": (np.array([-1.0, 2.0]), np.array([3.0, 1.0])),
    }
    for outlier in (1e300, 1e40):
        # the outlier's seeds from s -+ eps land mid-sample, far from its edges
        values, eps = np.append(normal, outlier), np.append(rng.uniform(0.01, 1.0, 300), outlier)
        cases[f"outlier_{outlier:g}"] = values, eps
    return cases


@pytest.mark.parametrize("name", sorted(count_within_cases()))
def test_count_within_matches_a_per_row_count(name):
    values, eps = count_within_cases()[name]
    with np.errstate(over="ignore"):
        want = [np.count_nonzero(values - v < e) - np.count_nonzero(values - v <= -e) - 1
                for v, e in zip(values, eps)]
        np.testing.assert_array_equal(neighbors._count_within(values, eps), want)


def test_count_within_search_work_does_not_grow_with_n(monkeypatch):
    # one outlier whose radius is its own magnitude: searchsorted seeds its
    # edges about n / 2 positions off, and a search that moved them one run
    # of equal values at a time made over 1800 searchsorted calls at n = 2000
    calls = []
    searchsorted = np.searchsorted
    monkeypatch.setattr(np, "searchsorted", lambda *args: (calls.append(1), searchsorted(*args))[1])
    rng = np.random.default_rng(7)
    made = []
    for n in (2000, 8000):
        values = np.sort(np.append(rng.normal(size=n - 1), 1e40))
        eps = np.append(np.full(n - 1, 0.5), 1e40)
        calls.clear()
        assert neighbors._count_within(values, eps)[-1] == 0
        made.append(len(calls))
    assert made[0] == made[1] <= 2


@pytest.mark.parametrize("workers", [1, 3])
def test_sorted_window_scan_with_a_far_outlier_matches_oracle(workers, monkeypatch):
    rng = np.random.default_rng(61)
    x, y = rng.normal(size=(3000, 1)), rng.normal(size=(3000, 1))
    x[1234] = 1e40
    data = Dataset(x, y)
    pin_scan(monkeypatch, 4 * 3000, workers)
    assert_matches_oracle(compute_knn_radii(data, 5), data, 5)


@pytest.mark.parametrize("shape", ["integer_grid", "binary_x"])
def test_permuted_tie_heavy_rows_permute_the_results(shape, monkeypatch):
    # windows hold whichever tied rows the sort puts there, so tied keys in
    # another order must still give each sample the same radius and counts
    rng = np.random.default_rng(53)
    n = 800
    if shape == "integer_grid":
        x, y = rng.integers(0, 40, (n, 1)), rng.integers(0, 40, (n, 1))
    else:
        x, y = rng.integers(0, 2, (n, 1)), rng.integers(0, 300, (n, 1))
    data, k = Dataset(x.astype(float), y.astype(float)), 8
    for pinned in (False, True):
        with monkeypatch.context() as m:
            if pinned:
                pin_scan(m, 4 * n, 2)
            rs = compute_knn_radii(data, k)
            for _ in range(3):
                perm = rng.permutation(n)
                rs_p = compute_knn_radii(Dataset(data.x[perm], data.y[perm]), k)
                for name in ("epsilon", "n_x", "n_y"):
                    np.testing.assert_array_equal(getattr(rs_p, name), getattr(rs, name)[perm],
                                                  err_msg=f"{name} pinned={pinned}")
    assert_matches_oracle(rs, data, k)


@settings(derandomize=True, max_examples=50, deadline=None)
@given(n=st.integers(5, 60), data=st.data())
def test_decimal_grid_data_matches_oracle(n, data):
    # coordinates like round(u, 1) + round(v, 2): many marginal distances sit
    # at eps, where v_p + eps rounds differently from the differences, so a
    # count edge from the addition form v_q < v_p + eps would be off
    tenths = st.lists(st.integers(0, 9), min_size=n, max_size=n)
    hundredths = st.lists(st.integers(0, 99), min_size=n, max_size=n)
    x = np.array(data.draw(tenths)) / 10 + np.array(data.draw(hundredths)) / 100
    y = np.array(data.draw(tenths)) / 10 + np.array(data.draw(hundredths)) / 100
    dataset, k = Dataset(x[:, None], y[:, None]), 3
    joint = dataset.joint()
    if any(int((joint == row).all(axis=1).sum()) - 1 >= k for row in joint):
        return  # a radius of 0 is covered by the duplicate tests
    for scan in VARIANTS:
        with pytest.MonkeyPatch.context() as m:
            use_scan(m, scan)
            assert_matches_oracle(compute_knn_radii(dataset, k), dataset, k, scan)


@st.composite
def tie_heavy_datasets(draw):
    """Integer coordinates in 0..3, so ties at eps and coincident points abound."""
    n = draw(st.integers(2, 40))
    d_x, d_y = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    cells = n * (d_x + d_y)
    joint = np.array(draw(st.lists(st.integers(0, 3), min_size=cells, max_size=cells)))
    joint = joint.reshape(n, d_x + d_y).astype(np.float64)
    return Dataset(joint[:, :d_x], joint[:, d_x:]), draw(st.integers(1, n - 1))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(case=tie_heavy_datasets())
def test_tie_heavy_integer_data_matches_oracle(case):
    # a radius is 0 exactly when a row coincides with k or more others; the
    # scan must then name the first such row, and match the oracle otherwise
    data, k = case
    joint = data.joint()
    coincident = [int((joint == row).all(axis=1).sum()) - 1 for row in joint]
    heavy = [i for i, c in enumerate(coincident) if c >= k]
    for scan in scans_for(data):
        with pytest.MonkeyPatch.context() as m:
            use_scan(m, scan)
            pin_scan(m, data.n, 2)
            if heavy:
                with pytest.raises(DuplicatePointError) as exc:
                    compute_knn_radii(data, k)
                assert exc.value.index == heavy[0], scan
            else:
                assert_matches_oracle(compute_knn_radii(data, k), data, k, scan)


@pytest.mark.parametrize("magnitude", ["subnormal", "huge"])
@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
def test_extreme_magnitudes_match_oracle(magnitude, data):
    # subnormal: integer multiples of the smallest subnormal, so spreads lie
    # below 2.2e-308 and distances tie often; huge: finite coordinates up to
    # 1.7e308, so differences and some radii overflow to inf. Both scans, 2
    # threads, several chunks per pass
    n = data.draw(st.integers(3, 30))
    d_x, d_y = data.draw(st.sampled_from([(1, 1), (1, 2), (2, 2), (3, 1)]))
    cells = n * (d_x + d_y)
    if magnitude == "subnormal":
        units = data.draw(st.lists(st.integers(-2**20, 2**20), min_size=cells, max_size=cells))
        joint = np.ldexp(np.array(units, dtype=np.float64), -1074)
    else:
        unit = st.floats(-1.0, 1.0)
        joint = np.array(data.draw(st.lists(unit, min_size=cells, max_size=cells))) * 1.7e308
    joint = joint.reshape(n, d_x + d_y)
    dataset, k = Dataset(joint[:, :d_x], joint[:, d_x:]), data.draw(st.integers(1, min(5, n - 1)))
    for scan in scans_for(dataset):
        with pytest.MonkeyPatch.context() as m:
            use_scan(m, scan)
            pin_scan(m, n, 2)
            assert_scan_agrees_with_oracle(dataset, k, scan)


def test_duplicates_tolerated_when_k_exceeds_multiplicity():
    # two coincident points, k = 2: the 2nd neighbor is at positive distance
    x = np.array([[0.0], [0.0], [3.0], [5.0]])
    y = np.zeros((4, 0))
    rs = compute_knn_radii(Dataset(x, y), k=2)
    assert np.all(rs.epsilon > 0)


def test_k_out_of_range():
    rng = np.random.default_rng(5)
    data = random_dataset(rng, 10, 1, 1)
    for bad in (0, -1, 10, 11):
        with pytest.raises(ConfigurationError):
            compute_knn_radii(data, bad)


@pytest.mark.parametrize("bad", [True, False, np.True_, 2.0, "2"])
def test_k_must_be_an_integer_not_a_bool(bad):
    # True == 1 as an int, but a flag passed as k is a caller's mistake
    data = random_dataset(np.random.default_rng(5), 10, 2, 1)
    with pytest.raises(ConfigurationError, match="k must be an integer >= 1"):
        compute_knn_radii(data, bad)


def test_dataset_validation():
    with pytest.raises(ConfigurationError):
        Dataset(np.zeros((3, 1)), np.zeros((4, 1)))  # row mismatch
    with pytest.raises(ConfigurationError):
        Dataset(np.array([[np.inf]]), np.array([[0.0]]))  # non-finite
    with pytest.raises(ConfigurationError):
        Dataset(np.zeros(3), np.zeros(3))  # not 2-D
