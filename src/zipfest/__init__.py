"""Estimators for the exponent of power-law urn models, with a Monte Carlo
harness that verifies their limit theorems at desk scale."""

__version__ = "0.1.0"

from .errors import (DomainError, InputFormatError, InsufficientDataError,
                     UsageError, ZipfestError)
from .law import PowerLaw, make_zipf_law, zeta_normalization
from .occupancy import OccupancyCounts, StatisticsSnapshot
from .sampler import SeedSpec, sample_fixed, sample_poissonized, sample_trajectory
from .estimators import (EstimateResult, ImplicitSolver, log_ratio_estimate,
                         ratio_estimate_k, ratio_estimate_r1)
from .asymptotics import (CovarianceSpec, implicit_variance, ratio_k_variance,
                          ratio_r1_variance)
from .montecarlo import (ExperimentConfig, StudyReport, covariance_study,
                         ks_test, normality_study)
from .ingest import load_counts, to_occupancy, tokenize_text

__all__ = [
    "__version__",
    "ZipfestError", "DomainError", "UsageError", "InsufficientDataError",
    "InputFormatError",
    "PowerLaw", "make_zipf_law", "zeta_normalization",
    "OccupancyCounts", "StatisticsSnapshot",
    "SeedSpec", "sample_fixed", "sample_poissonized",
    "sample_trajectory",
    "EstimateResult", "ImplicitSolver", "log_ratio_estimate",
    "ratio_estimate_k", "ratio_estimate_r1",
    "CovarianceSpec", "implicit_variance", "ratio_k_variance", "ratio_r1_variance",
    "ExperimentConfig", "StudyReport", "covariance_study", "ks_test",
    "normality_study",
    "load_counts", "to_occupancy", "tokenize_text",
]
