"""k-NN normalized mutual information with a numerically stable radius normalization."""

__version__ = "0.1.0"

from .datagen import (
    GENERATOR_ID,
    GaussianSpec,
    StudentTSpec,
    generate_gaussian,
    generate_student_t,
)
from .dataset import Dataset, dataset_checksum, dataset_from_csv, dataset_to_csv
from .errors import (
    ConfigurationError,
    DuplicatePointError,
    NonFiniteNormalizationError,
    RadiusOverflowError,
)
from .estimators import (
    EstimateReport,
    estimate,
    estimate_backends,
    estimate_from_radii,
    nmi,
)
from .harness import (
    ExperimentConfig,
    RunRecord,
    Status,
    SummaryRow,
    StabilityRow,
    derive_seed,
    read_records_csv,
    run_sweep,
    stability_profile,
    summarize,
    write_records_csv,
    write_records_jsonl,
    write_stability_csv,
    write_summary_csv,
)
from .neighbors import RadiusSet, compute_knn_radii
from .scaling import Backend, NormalizationResult, normalize
from .special import digamma, ln_gamma
from .truth import TruthRecord, c_term, f_aux, gaussian_truth, student_t_truth

__all__ = [
    "GENERATOR_ID",
    "GaussianSpec",
    "StudentTSpec",
    "generate_gaussian",
    "generate_student_t",
    "Dataset",
    "dataset_checksum",
    "dataset_from_csv",
    "dataset_to_csv",
    "ConfigurationError",
    "DuplicatePointError",
    "NonFiniteNormalizationError",
    "RadiusOverflowError",
    "EstimateReport",
    "estimate",
    "estimate_backends",
    "estimate_from_radii",
    "nmi",
    "ExperimentConfig",
    "RunRecord",
    "Status",
    "SummaryRow",
    "StabilityRow",
    "derive_seed",
    "read_records_csv",
    "run_sweep",
    "stability_profile",
    "summarize",
    "write_records_csv",
    "write_records_jsonl",
    "write_stability_csv",
    "write_summary_csv",
    "RadiusSet",
    "compute_knn_radii",
    "Backend",
    "NormalizationResult",
    "normalize",
    "digamma",
    "ln_gamma",
    "TruthRecord",
    "c_term",
    "f_aux",
    "gaussian_truth",
    "student_t_truth",
]
