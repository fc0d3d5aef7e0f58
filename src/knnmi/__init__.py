"""k-NN normalized mutual information with a numerically stable radius normalization.

The names below are the documented surface (README, "Public names"). A type
the library only hands back, such as an EstimateReport, and a formula it uses
inside, such as truth.c_term, stay importable from their modules.
"""

__version__ = "0.1.0"

from .datagen import GaussianSpec, StudentTSpec, generate_gaussian, generate_student_t
from .dataset import Dataset, dataset_checksum, dataset_from_csv, dataset_to_csv
from .errors import (
    ConfigurationError,
    DuplicatePointError,
    NonFiniteNormalizationError,
    RadiusOverflowError,
)
from .estimators import estimate, estimate_backends, estimate_from_radii
from .harness import (
    ExperimentConfig,
    derive_seed,
    read_records_csv,
    run_sweep,
    stability_profile,
    summarize,
    write_records_csv,
    write_stability_csv,
    write_summary_csv,
)
from .neighbors import compute_knn_radii
from .scaling import Backend, normalize
from .special import digamma, ln_gamma
from .truth import gaussian_truth, student_t_truth

__all__ = [
    # data and truth
    "GaussianSpec",
    "StudentTSpec",
    "generate_gaussian",
    "generate_student_t",
    "gaussian_truth",
    "student_t_truth",
    "Dataset",
    "dataset_checksum",
    "dataset_from_csv",
    "dataset_to_csv",
    # estimation
    "compute_knn_radii",
    "Backend",
    "normalize",
    "estimate",
    "estimate_from_radii",
    "estimate_backends",
    "digamma",
    "ln_gamma",
    # sweeps and files
    "ExperimentConfig",
    "derive_seed",
    "run_sweep",
    "summarize",
    "stability_profile",
    "read_records_csv",
    "write_records_csv",
    "write_summary_csv",
    "write_stability_csv",
    # errors
    "ConfigurationError",
    "DuplicatePointError",
    "RadiusOverflowError",
    "NonFiniteNormalizationError",
]
