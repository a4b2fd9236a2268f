"""Ridge regression with two fast penalty-selection procedures.

Both solvers run on a shared O(min(n, p)) rotated problem built from one
Gram-matrix eigendecomposition: an EM algorithm that estimates the penalty
as a posterior hypervariance, and exact leave-one-out cross-validation over
a penalty grid via the PRESS shortcut.
"""

__version__ = "0.1.0"

from .data import (
    Dataset,
    FitResult,
    Method,
    StandardizedDataset,
    destandardize,
    load_csv,
    predict,
    standardize,
)
from .decomposition import (
    CompactSvd,
    RotatedProblem,
    compact_svd,
    recover_beta,
    rotate,
    rotated_ridge_solution,
)
from .em import (
    EmConfig,
    EmFit,
    UnimodalityDiagnostic,
    em_fit,
    expected_squared_norm,
    expected_sse,
    m_step,
    multiple_means_kappa,
    q_function,
    sample_size_threshold,
    tau_update_fixed_variance,
    unimodality_bound,
)
from .exceptions import DataError, DegenerateProblemError, FastridgeError
from .loocv import (
    LambdaGrid,
    LoocvFit,
    fixed_grid,
    glmnet_grid,
    loocv_fit,
    loocv_fits,
    press,
)
from .oracles import (
    DensePosterior,
    brute_force_loocv,
    dense_em_statistics,
    dense_ridge_solve,
    numeric_m_step,
)
from .pipeline import FitConfig, fit
from .rng import RandomStream, derive_seed
from .simulate import (
    BenchRow,
    MetricsRow,
    Setting1Config,
    Setting2Config,
    bench_comparison,
    gen_bernoulli_sparse,
    gen_gaussian_wishart,
    parameter_mse,
    run_comparison,
    shrinkage_ratio,
    write_bench_csv,
    write_metrics_csv,
)

__all__ = [
    "__version__",
    "BenchRow",
    "CompactSvd",
    "Dataset",
    "DataError",
    "DegenerateProblemError",
    "DensePosterior",
    "EmConfig",
    "EmFit",
    "FastridgeError",
    "FitConfig",
    "FitResult",
    "LambdaGrid",
    "LoocvFit",
    "Method",
    "MetricsRow",
    "RandomStream",
    "RotatedProblem",
    "Setting1Config",
    "Setting2Config",
    "StandardizedDataset",
    "UnimodalityDiagnostic",
    "bench_comparison",
    "brute_force_loocv",
    "compact_svd",
    "dense_em_statistics",
    "dense_ridge_solve",
    "derive_seed",
    "destandardize",
    "em_fit",
    "expected_squared_norm",
    "expected_sse",
    "fit",
    "fixed_grid",
    "gen_bernoulli_sparse",
    "gen_gaussian_wishart",
    "glmnet_grid",
    "load_csv",
    "loocv_fit",
    "loocv_fits",
    "m_step",
    "multiple_means_kappa",
    "numeric_m_step",
    "parameter_mse",
    "predict",
    "press",
    "q_function",
    "recover_beta",
    "rotate",
    "rotated_ridge_solution",
    "run_comparison",
    "sample_size_threshold",
    "shrinkage_ratio",
    "standardize",
    "tau_update_fixed_variance",
    "unimodality_bound",
    "write_bench_csv",
    "write_metrics_csv",
]
