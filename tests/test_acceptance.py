"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they stream. Criteria 2, 4, and 5 re-estimate at the benchmark
protocol (desk scale) and take a few minutes.

Criterion 4 checks the d = 1 estimates against closed forms the estimator
targets: its MI (the KSG estimate) against the Gaussian MI, and its NMI
against that MI divided by the estimator's own relative entropies. The
relative entropies are scale-invariant and grow like (d_x / D) ln N, so
they are not the Shannon entropy of unit-variance data, and the Shannon
NMI (TruthRecord.nmi_true) is only printed for comparison, not asserted.
"""

import math

import numpy as np

from knnmi.datagen import GaussianSpec, generate_gaussian
from knnmi.dataset import Dataset
from knnmi.estimators import estimate, estimate_from_radii
from knnmi.harness import (
    ExperimentConfig,
    Status,
    derive_seed,
    run_sweep,
    stability_profile,
    write_records_csv,
)
from knnmi.neighbors import RadiusSet, compute_knn_radii
from knnmi.scaling import Backend, normalize
from knnmi.truth import c_term, gaussian_truth, student_t_truth


def report(number, ok, detail):
    print(f"\nACCEPTANCE CRITERION {number}: {'PASS' if ok else 'FAIL'} — {detail}")


def test_criterion_1_backend_equivalence():
    """ln V agreement between baseline and proposed wherever the largest term
    eps_max^D is a normal float (at least 2^-1022); below it the baseline loses
    bits silently, a band that is not yet reported (tests/test_scaling.py)."""
    rng = np.random.default_rng(314159)
    sizes = (10, 100, 1000)
    dims = (1, 2, 8, 32, 64)
    worst = 0.0
    checked = 0
    for i in range(100):
        n = sizes[i % 3]
        eps = 10.0 ** rng.uniform(-1.0, 1.0, size=n)
        for d in dims:
            b = normalize(eps, d, Backend.BASELINE)
            p = normalize(eps, d, Backend.PROPOSED)
            assert b.finite and p.finite
            err = abs(b.ln_v - p.ln_v) / max(1.0, abs(b.ln_v))
            worst = max(worst, err)
            checked += 1
    ok = worst <= 1e-10
    report(1, ok, f"{checked} vector/dimension pairs, worst scaled gap {worst:.3e} (<= 1e-10)")
    assert ok


def test_criterion_2_overflow_reproduction():
    """d = 512 (joint D = 1024): baseline overflows every repetition, proposed never."""
    config = ExperimentConfig(
        family="gaussian",
        base_seed=77,
        dims=[512],
        rho_grid=[0.5],
        n=1000,
        k=5,
        repetitions=10,
        backends=["baseline", "proposed"],
    )
    records = run_sweep(config)
    baseline = [r for r in records if r.backend == "baseline"]
    proposed = [r for r in records if r.backend == "proposed"]
    assert len(baseline) == len(proposed) == 10
    all_overflow = all(r.status == Status.OVERFLOW.value for r in baseline)
    all_ok = all(
        r.status == Status.OK.value and math.isfinite(r.nmi) for r in proposed
    )
    ok = all_overflow and all_ok
    report(
        2,
        ok,
        f"baseline overflow 10/10: {all_overflow}; proposed ok with finite NMI 10/10: {all_ok}",
    )
    assert ok


def test_criterion_3_figure_1_shape():
    """Stability profile of eps = {1, 2}: overflow edge at D = 1024, convergence bound."""
    eps = [1.0, 2.0]
    dims = list(range(2, 4097, 2))
    rows = stability_profile(eps, dims)
    by = {(r.d_joint, r.backend): r for r in rows}

    baseline_edge = all(
        by[(d, "baseline")].finite == (d < 1024) for d in dims
    )
    proposed_all_finite = all(by[(d, "proposed")].finite for d in dims)

    gaps = [
        abs(by[(d, "proposed")].ln_v - by[(d, "dominant")].ln_v)
        for d in dims
        if d >= 64
    ]
    monotone = all(b <= a for a, b in zip(gaps, gaps[1:]))

    gap_at_1e6 = abs(
        normalize(eps, 10**6, Backend.PROPOSED).ln_v
        - normalize(eps, 10**6, Backend.DOMINANT_TERM).ln_v
    )
    converged = gap_at_1e6 <= 1e-5

    ok = baseline_edge and proposed_all_finite and monotone and converged
    report(
        3,
        ok,
        f"baseline finite iff D < 1024: {baseline_edge}; proposed finite everywhere: "
        f"{proposed_all_finite}; |proposed - dominant| non-increasing for D >= 64: {monotone}; "
        f"gap at D = 1e6 is {gap_at_1e6:.2e} (<= 1e-5)",
    )
    assert ok


def test_criterion_4_gaussian_low_d_accuracy(low_d_gaussian_summary, low_d_nmi_reference):
    """d = 1, N = 10000, K = 5, 10 reps: MI and NMI track their closed forms.

    MI: the mean mi_ksg and mi_from_entropies lie within ±0.02 nats of the
    Gaussian closed form -ln(1 - rho^2) / 2. NMI: the mean lies within ±0.1
    of the closed-form MI over the estimator's own denominator (see
    low_d_nmi_reference). That denominator is about 3.7 nats here and grows
    like (d_x / D) ln N, against the 1.419 nats of the Shannon nmi_true,
    whose deviation is therefore printed, not asserted.
    """
    records, summary = low_d_gaussian_summary
    rows = {row.param: row for row in summary if row.d == 1}
    details = []
    failures = {}
    for rho in (0.0, 0.3, 0.6, 0.9):
        row = rows[rho]
        assert row.n_ok == 10
        cell = [r for r in records if r.d == 1 and r.param == rho]
        truth = gaussian_truth(1, rho)
        mi_dev = max(
            abs(float(np.mean([r.mi_ksg for r in cell])) - truth.mi_true),
            abs(float(np.mean([r.mi_from_entropies for r in cell])) - truth.mi_true),
        )
        reference = low_d_nmi_reference[(1, rho)]
        nmi_dev = abs(row.mean_nmi - reference)
        shannon_dev = abs(row.mean_nmi - truth.nmi_true)
        details.append(
            f"rho={rho}: mi dev {mi_dev:.4f}, nmi |{row.mean_nmi:+.4f} - {reference:.4f}| = "
            f"{nmi_dev:.4f}, vs Shannon nmi_true {truth.nmi_true:.4f}: {shannon_dev:.4f}"
        )
        if mi_dev > 0.02 or nmi_dev > 0.1:
            failures[rho] = (round(mi_dev, 4), round(nmi_dev, 4))
    ok = not failures
    report(4, ok, "; ".join(details) + " (tolerances: mi 0.02 nats, nmi 0.1)")
    assert ok, f"(mi, nmi) deviations beyond tolerance: {failures}"


def test_independent_mi_is_near_zero(low_d_gaussian_summary):
    """Companion statistical oracle: raw MI at independence within ±0.02."""
    records, _ = low_d_gaussian_summary
    mi_values = [
        r.mi_from_entropies for r in records if r.d == 1 and r.param == 0.0
    ]
    assert len(mi_values) == 10
    assert abs(float(np.mean(mi_values))) <= 0.02


def test_criterion_5_independence_null():
    """Shuffled-Y Gaussian data at d in {1, 4}: mean NMI within ±0.05 of zero."""
    details = []
    ok = True
    for d in (1, 4):
        values = []
        for rep in range(10):
            seed = derive_seed(4242, "shuffled", d, 0.9, rep)
            data = generate_gaussian(GaussianSpec(d=d, rho=0.9, n=10000, seed=seed))
            perm = np.random.Generator(np.random.Philox(key=seed ^ 0xD1CE)).permutation(data.n)
            shuffled = Dataset(data.x, data.y[perm])
            values.append(estimate(shuffled, k=5).nmi)
        mean = float(np.mean(values))
        details.append(f"d={d}: mean nmi {mean:+.4f}")
        ok = ok and abs(mean) <= 0.05
    report(5, ok, "; ".join(details) + " (tolerance 0.05)")
    assert ok


# (nu, d) -> (c(nu, d), H_T(nu, d)); frozen from the 50-digit mpmath oracle
# built before the implementation (mp.dps = 50)
STUDENT_T_ORACLE = {
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


def test_criterion_6_student_t_truth_oracle():
    """c(nu, d) and H_T match the high-precision oracle to 1e-10 relative."""
    worst = 0.0
    for (nu, d), (c_ref, h_ref) in STUDENT_T_ORACLE.items():
        c = c_term(nu, d)
        h = student_t_truth(d, nu).h_marginal_true
        worst = max(worst, abs(c - c_ref) / abs(c_ref), abs(h - h_ref) / abs(h_ref))
    ok = worst <= 1e-10
    report(6, ok, f"12 grid points, worst relative error {worst:.3e} (<= 1e-10)")
    assert ok


def test_criterion_7_invariance_suite():
    """Scale equivariance/invariance, NMI symmetry, permutation equivariance,
    and brute-force k-NN equivalence, each at its module tolerance."""
    rng = np.random.default_rng(2718)
    checks = {}

    # scale equivariance of all three ln V backends
    eps = np.exp(rng.normal(size=40))
    worst = 0.0
    for backend in Backend:
        for c in (2.0, 0.37, 125.0):
            for d in (1, 2, 16, 64):
                base = normalize(eps, d, backend).ln_v
                scaled = normalize(c * eps, d, backend).ln_v
                worst = max(worst, abs(scaled - base - math.log(c)))
    checks["ln_v scale equivariance"] = worst <= 1e-12

    # scale invariance of the scaled radii, through the relative entropies
    counts = np.full(eps.size, 4)
    worst = 0.0
    for backend in Backend:
        a = estimate_from_radii(RadiusSet(eps, counts, counts, 4), 8, 8, backend)
        b = estimate_from_radii(RadiusSet(4.0 * eps, counts, counts, 4), 8, 8, backend)
        for name in ("h_x", "h_y", "h_xy"):
            worst = max(worst, abs(getattr(b, name) - getattr(a, name)))
    checks["scaled-radii invariance"] = worst <= 1e-12

    # X/Y symmetry of the NMI report
    data = generate_gaussian(GaussianSpec(d=2, rho=0.7, n=500, seed=99))
    fwd = estimate(data, k=5)
    rev = estimate(Dataset(data.y, data.x), k=5)
    checks["x/y symmetry"] = (
        abs(fwd.nmi - rev.nmi) <= 1e-12
        and abs(fwd.mi_ksg - rev.mi_ksg) <= 1e-12
        and abs(fwd.h_x - rev.h_y) <= 1e-12
    )

    # permutation equivariance of the k-NN scan
    data = generate_gaussian(GaussianSpec(d=2, rho=0.4, n=120, seed=5))
    rs = compute_knn_radii(data, 4)
    perm = rng.permutation(data.n)
    rs_p = compute_knn_radii(Dataset(data.x[perm], data.y[perm]), 4)
    checks["permutation equivariance"] = (
        np.array_equal(rs_p.epsilon, rs.epsilon[perm])
        and np.array_equal(rs_p.n_x, rs.n_x[perm])
        and np.array_equal(rs_p.n_y, rs.n_y[perm])
    )

    # brute-force equivalence at N <= 200 (independent per-point loops)
    equal = True
    for n, d_x, d_y, k in ((60, 1, 1, 1), (200, 3, 2, 5), (150, 2, 0, 3)):
        data = Dataset(rng.normal(size=(n, d_x)), rng.normal(size=(n, d_y)))
        rs = compute_knn_radii(data, k)
        joint = data.joint()
        for i in range(n):
            dj = np.abs(joint - joint[i]).max(axis=1)
            dj[i] = np.inf
            eps_i = np.sort(dj)[k - 1]
            dx = np.abs(data.x - data.x[i]).max(axis=1) if d_x else np.zeros(n)
            dy = np.abs(data.y - data.y[i]).max(axis=1) if d_y else np.zeros(n)
            equal = equal and rs.epsilon[i] == eps_i
            equal = equal and rs.n_x[i] == int((dx < eps_i).sum()) - 1
            equal = equal and rs.n_y[i] == int((dy < eps_i).sum()) - 1
    checks["brute-force equivalence"] = equal

    ok = all(checks.values())
    report(7, ok, "; ".join(f"{name}: {'ok' if good else 'FAILED'}" for name, good in checks.items()))
    assert ok


def _strip_timing(path):
    lines = path.read_text().splitlines()
    idx = lines[0].split(",").index("wall_time_ms")
    return "\n".join(",".join(v for j, v in enumerate(line.split(",")) if j != idx) for line in lines)


def test_criterion_8_determinism(tmp_path):
    """Identical configs give byte-identical result files modulo timing columns."""
    config = dict(
        family="gaussian",
        base_seed=1234,
        dims=[1, 4],
        rho_grid=[0.0, 0.9, 1.0],
        n=400,
        k=5,
        repetitions=3,
        backends=["baseline", "proposed", "dominant"],
    )
    path_a = tmp_path / "a.csv"
    path_b = tmp_path / "b.csv"
    write_records_csv(run_sweep(ExperimentConfig(**config)), path_a)
    write_records_csv(run_sweep(ExperimentConfig(**config)), path_b)
    ok = _strip_timing(path_a) == _strip_timing(path_b)
    report(8, ok, f"two {len(path_a.read_text().splitlines()) - 1}-record sweeps identical after dropping wall_time_ms")
    assert ok
