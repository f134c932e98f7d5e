"""Robust low-rank matrix factorization under skewed, heavy-tailed noise.

The residual distribution is modeled as a finite mixture of zero-mode
asymmetric Laplace components fitted by EM; each M-step refreshes the mixture
in closed form and improves the factors with weighted-median sweeps on an
adaptively weighted L1 objective.
"""

from .ald import ALParams, MoALModel
from .bench import BenchmarkConfig, BenchmarkResult, NOISE_ROWS, run_benchmark
from .em import BaselineReport, FitOptions, FitReport, fit, fit_l1_baseline, fit_many
from .matrixio import ParseError, read_csv_matrix, read_pgm, write_csv_matrix, write_pgm
from .metrics import l1_error, l2_error, sample_skewness
from .synth import (
    AsymmetricLaplaceNoise,
    GaussianNoise,
    LaplaceNoise,
    MixtureNoise,
    SkewNormalNoise,
    StudentTNoise,
    SyntheticInstance,
    make_instance,
)
from .types import FactorPair, MaskedMatrix
from .wl1 import solve_wl1

__version__ = "0.1.0"

__all__ = [
    "ALParams",
    "AsymmetricLaplaceNoise",
    "BaselineReport",
    "BenchmarkConfig",
    "BenchmarkResult",
    "FactorPair",
    "FitOptions",
    "FitReport",
    "GaussianNoise",
    "LaplaceNoise",
    "MaskedMatrix",
    "MixtureNoise",
    "MoALModel",
    "NOISE_ROWS",
    "ParseError",
    "SkewNormalNoise",
    "StudentTNoise",
    "SyntheticInstance",
    "fit",
    "fit_l1_baseline",
    "fit_many",
    "l1_error",
    "l2_error",
    "make_instance",
    "read_csv_matrix",
    "read_pgm",
    "run_benchmark",
    "sample_skewness",
    "solve_wl1",
    "write_csv_matrix",
    "write_pgm",
    "__version__",
]
