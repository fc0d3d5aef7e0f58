"""Shared fixtures: the expensive low-dimension Gaussian sweep is run once
per session and consumed by both the acceptance gate and the harness
truth-tracking test."""

import math
import warnings

import numpy as np
import pytest

from knnmi.harness import ExperimentConfig, run_sweep, summarize
from knnmi.truth import gaussian_truth

# hypothesis's report hook imports this module (and libcst) when a property
# test fails; libcst's import raises a DeprecationWarning, which -W error turns
# into an INTERNALERROR that ends the run. Imported once here, with only that
# import's DeprecationWarnings ignored, so the hook finds it loaded.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

LOW_D_BASE_SEED = 20240930


@pytest.fixture(scope="session")
def low_d_gaussian_summary():
    """Proposed-backend sweep, paper protocol at d in {1, 2, 4}.

    n = 10000, k = 5, 10 repetitions per cell; rho grid includes 0.0 for the
    independence checks. Takes a few minutes; shared across test modules.
    """
    config = ExperimentConfig(
        family="gaussian",
        base_seed=LOW_D_BASE_SEED,
        dims=[1, 2, 4],
        rho_grid=[0.0, 0.3, 0.6, 0.9],
        n=10000,
        k=5,
        repetitions=10,
        backends=["proposed"],
    )
    records = run_sweep(config)
    return records, summarize(records)


@pytest.fixture(scope="session")
def low_d_nmi_reference(low_d_gaussian_summary):
    """Per-cell NMI reference under the estimator's own denominator.

    Maps (d, rho) to the mean over records of mi_true / sqrt(h_x * h_y):
    the closed-form Gaussian MI divided by the estimated relative
    entropies. Those entropies are scale-invariant and grow like
    (d_x / D) ln N, so the Shannon NMI of unit-variance data
    (TruthRecord.nmi_true) is not what the estimator targets.
    """
    records, _ = low_d_gaussian_summary
    cells = {}
    for r in records:
        mi_true = gaussian_truth(r.d, r.param).mi_true
        cells.setdefault((r.d, r.param), []).append(mi_true / math.sqrt(r.h_x * r.h_y))
    return {cell: float(np.mean(values)) for cell, values in cells.items()}
