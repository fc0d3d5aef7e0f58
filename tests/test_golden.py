"""Golden digests: the exact generated datasets, radii and counts, pinned by hash.

Each case pins the `dataset_checksum` of a generated dataset and one sha256
over the `compute_knn_radii` output (epsilon as little-endian float64, then
n_x and n_y as little-endian int64). Criterion 8 compares two runs of one
tree, so it cannot see a change that moves bits the same way on both runs;
these digests can. A change that means to move bits updates the digest here
and says in CHANGES.md which values moved and why.

The cases cover one shape per scan (the D = 2 sorted window above N = 256,
the pair-once scan at N <= 256 on each of its plane types, brute force
elsewhere) and the data that stress the exact comparisons: integer-valued
ties, Student-t nu = 0.125 tails and a decimal grid, where the addition
form v_q < v_p + eps of the count predicate rounds differently from the
subtraction form.
"""

import hashlib

import numpy as np
import pytest

from knnmi import (
    Dataset,
    GaussianSpec,
    StudentTSpec,
    compute_knn_radii,
    dataset_checksum,
    generate_gaussian,
    generate_student_t,
)


def _gaussian(d, rho, n, seed):
    return generate_gaussian(GaussianSpec(d=d, rho=rho, n=n, seed=seed))


def _mapped(data, f):
    return Dataset(x=f(data.x), y=f(data.y))


# name: (dataset builder, k, dataset_checksum, radii digest)
CASES = {
    # D = 2 sorted window at N = 2000
    "window-gaussian-n2000": (
        lambda: _gaussian(1, 0.6, 2000, 1), 5,
        "f88fe76f63fa3eb4",
        "11a8bf09b7da231fbe45df9e9729b1c903dd8109c720329a206a5bb966afe971"),
    # pair once at its largest size, N = 256 (D = 8, int16 planes)
    "pair-once-n256": (
        lambda: _gaussian(4, 0.5, 256, 2), 5,
        "a6cb7ad90ec293b5",
        "bb7238f0bf70fa346395f87a57bf4b49edb7ec3d762b54cbe9ee192b9bf98f45"),
    # pair once on int16 planes (D = 32), and Student-t nu = 0.5, whose tails
    # keep it on float64 planes; both digests date from before int16 planes
    "pair-once-gaussian-d16": (
        lambda: _gaussian(16, 0.5, 200, 9), 5,
        "cca9ce8096f1578f",
        "9a99d85a5c0568863b085deab1db55c71098b74085cffe25690abb44108c54b4"),
    "pair-once-student-t-d16": (
        lambda: generate_student_t(StudentTSpec(d=16, nu=0.5, n=200, seed=10)), 5,
        "539df20b497a0e15",
        "26f58eea41d503bd81b6d339c3354a0088ec42643c9155d0278d8f2260d772c5"),
    # brute force one row past the pair-once bound (D = 4)
    "brute-force-n257": (
        lambda: _gaussian(2, 0.5, 257, 3), 5,
        "48ff9d773287c289",
        "5925059a18a9e350705e30482ce6a89517dc8d756687d3519c298c8fb116c26d"),
    # brute force at d = 64 (D = 128)
    "brute-force-n600-d64": (
        lambda: _gaussian(64, 0.9, 600, 4), 5,
        "ac10f35a6389cb15",
        "7b36cf855392a42451528391cbd1b84a053a54a70712d4c4b36fa125f11c2df1"),
    # Student-t nu = 0.125: heavy tails, radii from 0.03 to 6e26
    "window-student-t-nu0.125": (
        lambda: generate_student_t(StudentTSpec(d=1, nu=0.125, n=2000, seed=5)), 5,
        "105489d87257b962",
        "7162482fe24a5a7cb374b5aa2d6fa6599556f9780dcb5a0e39d3da479d482b69"),
    # integer-valued data: marginal ties at eps everywhere, in the window and pair once
    "window-integers": (
        lambda: _mapped(_gaussian(1, 0.5, 1000, 6), lambda a: np.floor(20.0 * a)), 5,
        "ceb9be6aeb4e8e6a",
        "53cee135ed3aad9fba97746dd501691af3d7ea3d2783b990392447792ac6ab2f"),
    "pair-once-integers": (
        lambda: _mapped(_gaussian(2, 0.5, 200, 7), lambda a: np.floor(3.0 * a)), 4,
        "ae1b880e96282887",
        "a9bc0df98374adb0435326992ad1aeac9dae6bc50a3427e3873d530a35848011"),
    # a two-decimal grid at N > 256, so the D = 2 window counts it
    "window-decimal-grid": (
        lambda: _mapped(_gaussian(1, 0.7, 600, 8), lambda a: np.round(a, 2)), 5,
        "da788fc6aa6004b7",
        "e7c6f46bdc3f6b45ded4394c5a5437ffe8336880d6fc7dae3349ae60089c567e"),
}


def radii_digest(radii) -> str:
    h = hashlib.sha256()
    h.update(radii.epsilon.astype("<f8").tobytes())
    h.update(radii.n_x.astype("<i8").tobytes())
    h.update(radii.n_y.astype("<i8").tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", CASES)
def test_golden_digest(name):
    build, k, checksum, digest = CASES[name]
    data = build()
    assert dataset_checksum(data) == checksum
    assert radii_digest(compute_knn_radii(data, k)) == digest
