"""Synthetic benchmark settings, accuracy metrics, and the sweep harness.

Two data-generating settings are provided: sparse Bernoulli designs
(setting 1) and correlated Gaussian designs with a Wishart-drawn covariance
(setting 2). The harness fits each requested method on the same
standardized, rotated problem per replication, so preprocessing is timed
once and the per-method cost is the main loop alone.

Metric conventions (the plots these reproduce label no formulas):
param_mse = ||beta_hat - beta0||^2 / p and
shrinkage_ratio = ||beta_hat|| / ||beta0||, both on the raw predictor scale.

Randomness: every replication owns disjoint substreams of the counter-based
generator in :mod:`fastridge.rng`, keyed by
(master seed, setting id, cell index, replication index) and a purpose tag
(1 = design, 2 = coefficients, 3 = noise, 4 = covariance), so any row can
be regenerated in isolation from the seed recorded in it.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, fields

import numpy as np

from .data import Dataset, Method, destandardize, standardize
from .decomposition import compact_svd, rotate
from .exceptions import DataError, DegenerateProblemError, FastridgeError
from .pipeline import FitConfig, solve
from .rng import RandomStream, derive_seed

_PURPOSE_X = 1
_PURPOSE_BETA = 2
_PURPOSE_NOISE = 3
_PURPOSE_COV = 4

CSV_HEADER = (
    "method,n,p,sigma,param_mse,shrinkage_ratio,lambda,k,"
    "t_preprocess_ns,t_mainloop_ns,seed,failed"
)


@dataclass(frozen=True)
class Setting1Config:
    """Sparse binary design: X_ij ~ Bernoulli(bernoulli_prob) as 0/1 reals,
    beta0 ~ N(0, I_p), y = X beta0 + sigma * eps."""

    n: int
    sigma: float
    seed: int
    p: int = 100
    bernoulli_prob: float = 0.01

    def __post_init__(self):
        if self.n < 1 or self.p < 1:
            raise DataError("need n >= 1 and p >= 1")
        if not 0.0 < self.bernoulli_prob < 1.0:
            raise DataError("bernoulli_prob must lie strictly between 0 and 1")
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise DataError("sigma must be nonnegative and finite")
        if self.seed < 0:
            raise DataError("seed must be nonnegative")


@dataclass(frozen=True)
class Setting2Config:
    """Correlated Gaussian design: Sigma ~ Wishart(I_p, p) once per
    replication, rows of X ~ N(0, Sigma), y = X beta0 + sqrt(noise_var) * eps."""

    n: int
    p: int
    seed: int
    noise_var: float = 0.25

    def __post_init__(self):
        if self.n < 1 or self.p < 1:
            raise DataError("need n >= 1 and p >= 1")
        if self.noise_var <= 0:
            raise DataError("noise_var must be positive")
        if self.seed < 0:
            raise DataError("seed must be nonnegative")


@dataclass(frozen=True)
class MetricsRow:
    """One method on one replication; k_iterations is None except for EM."""

    method: Method
    n: int
    p: int
    sigma: float
    param_mse: float
    shrinkage_ratio: float
    lambda_selected: float
    k_iterations: int | None
    t_preprocess_ns: int
    t_mainloop_ns: int
    seed: int
    failed: bool = False


def gen_bernoulli_sparse(cfg: Setting1Config):
    """Draw (X, y, beta0) for setting 1, fully determined by cfg.seed.

    X is filled row-major from one Bernoulli block of n*p draws; beta0 and
    the noise come from their own substreams, so changing n does not
    perturb beta0.
    """
    X = (
        RandomStream(cfg.seed, 1, _PURPOSE_X)
        .bernoulli(cfg.bernoulli_prob, cfg.n * cfg.p)
        .reshape(cfg.n, cfg.p)
    )
    beta0 = RandomStream(cfg.seed, 1, _PURPOSE_BETA).normals(cfg.p)
    eps = RandomStream(cfg.seed, 1, _PURPOSE_NOISE).normals(cfg.n)
    return X, X @ beta0 + cfg.sigma * eps, beta0


def _bartlett_wishart(stream: RandomStream, p: int) -> np.ndarray:
    """One Wishart(I_p, p) draw as Sigma = A A' with A lower-triangular.

    Consumption order (documented for reproducibility): first one block of
    p(p-1)/2 normals filling the strict lower triangle row by row, then for
    each row i = 0..p-1 one chi-square block with p - i degrees of freedom
    for the diagonal entry sqrt(chi2_{p-i}).
    """
    A = np.zeros((p, p))
    A[np.tril_indices(p, -1)] = stream.normals(p * (p - 1) // 2)
    for i in range(p):
        A[i, i] = math.sqrt(stream.chi_square(p - i))
    return A @ A.T


def gen_gaussian_wishart(cfg: Setting2Config):
    """Draw (X, y, beta0) for setting 2, fully determined by cfg.seed.

    The covariance factor is recomputed from Sigma by Cholesky; if that
    fails on a numerically indefinite draw, 1e-10 * I jitter is added and
    the factorization retried at most 3 times.
    """
    sigma_mat = _bartlett_wishart(RandomStream(cfg.seed, 2, _PURPOSE_COV), cfg.p)
    L = None
    for _ in range(4):
        try:
            L = np.linalg.cholesky(sigma_mat)
            break
        except np.linalg.LinAlgError:
            sigma_mat = sigma_mat + 1e-10 * np.eye(cfg.p)
    if L is None:
        raise DegenerateProblemError("covariance draw is not positive definite")
    Z = RandomStream(cfg.seed, 2, _PURPOSE_X).normals(cfg.n * cfg.p).reshape(cfg.n, cfg.p)
    X = Z @ L.T
    beta0 = RandomStream(cfg.seed, 2, _PURPOSE_BETA).normals(cfg.p)
    eps = RandomStream(cfg.seed, 2, _PURPOSE_NOISE).normals(cfg.n)
    return X, X @ beta0 + math.sqrt(cfg.noise_var) * eps, beta0


def parameter_mse(beta_hat: np.ndarray, beta0: np.ndarray) -> float:
    """||beta_hat - beta0||^2 / p."""
    beta_hat = np.asarray(beta_hat, dtype=float).ravel()
    beta0 = np.asarray(beta0, dtype=float).ravel()
    if beta_hat.shape != beta0.shape:
        raise DataError("beta_hat and beta0 must have equal length")
    diff = beta_hat - beta0
    return float(diff @ diff) / beta0.shape[0]


def shrinkage_ratio(beta_hat: np.ndarray, beta0: np.ndarray) -> float:
    """||beta_hat|| / ||beta0||; below 1 means net shrinkage."""
    beta_hat = np.asarray(beta_hat, dtype=float).ravel()
    beta0 = np.asarray(beta0, dtype=float).ravel()
    norm0 = float(np.linalg.norm(beta0))
    if norm0 == 0.0:
        raise DataError("shrinkage_ratio requires beta0 != 0")
    return float(np.linalg.norm(beta_hat)) / norm0


def _failed_row(method, n, p, sigma, t_pre, rep_seed):
    return MetricsRow(
        method=method,
        n=n,
        p=p,
        sigma=sigma,
        param_mse=math.nan,
        shrinkage_ratio=math.nan,
        lambda_selected=math.nan,
        k_iterations=None,
        t_preprocess_ns=t_pre,
        t_mainloop_ns=0,
        seed=rep_seed,
        failed=True,
    )


def _run_cell_replication(setting, methods, n, swept, p, rep_seed, config):
    """Generate one replication's data and produce one row per method."""
    if setting == 1:
        cfg = Setting1Config(n=n, sigma=swept, seed=rep_seed, p=p)
        X, y, beta0 = gen_bernoulli_sparse(cfg)
        p_actual, sigma_col = cfg.p, float(cfg.sigma)
    else:
        cfg = Setting2Config(n=n, p=swept, seed=rep_seed)
        X, y, beta0 = gen_gaussian_wishart(cfg)
        p_actual, sigma_col = cfg.p, math.sqrt(cfg.noise_var)

    t0 = time.perf_counter_ns()
    try:
        std = standardize(Dataset(X=X, Y=y))
        rp = rotate(compact_svd(std.X_std), std.Y_centered)
    except (FastridgeError, np.linalg.LinAlgError):
        # A replication whose draw cannot even be standardized (for example
        # an all-zero sparse design) fails every method, not the sweep.
        t_pre = time.perf_counter_ns() - t0
        return [
            _failed_row(m, n, p_actual, sigma_col, t_pre, rep_seed) for m in methods
        ]
    t_pre = time.perf_counter_ns() - t0

    rows = []
    for method in methods:
        try:
            t0 = time.perf_counter_ns()
            fit = next(solve(std, rp, method, config))
            t_main = time.perf_counter_ns() - t0
            beta_raw, _ = destandardize(fit.beta, std)
            is_em = method is Method.EM
            rows.append(
                MetricsRow(
                    method=method,
                    n=n,
                    p=p_actual,
                    sigma=sigma_col,
                    param_mse=parameter_mse(beta_raw[:, 0], beta0),
                    shrinkage_ratio=shrinkage_ratio(beta_raw[:, 0], beta0),
                    lambda_selected=fit.lambda_ if is_em else fit.lambda_star,
                    k_iterations=fit.k if is_em else None,
                    t_preprocess_ns=t_pre,
                    t_mainloop_ns=t_main,
                    seed=rep_seed,
                )
            )
        except (FastridgeError, np.linalg.LinAlgError):
            rows.append(_failed_row(method, n, p_actual, sigma_col, t_pre, rep_seed))
    return rows


def _check_sweep(methods, n_list, second_list, reps) -> None:
    if not methods:
        raise DataError("methods must be nonempty")
    if len(set(methods)) < len(methods):
        raise DataError("methods must not repeat a method")
    if not n_list or not second_list:
        raise DataError("sweep lists must be nonempty")
    if reps < 1:
        raise DataError("reps must be at least 1")


def run_comparison(
    setting: int,
    methods: list[Method],
    n_list: list[int],
    sigma_or_p_list: list[float],
    reps: int,
    seed: int,
    p: int = 100,
    grid_length: int = 100,
) -> list[MetricsRow]:
    """Sweep cells x replications x methods and collect metric rows.

    For setting 1 the swept second axis is sigma and p is fixed by the
    keyword; for setting 2 it is p itself. Each replication standardizes,
    decomposes, and rotates once, shares that cache across methods (their
    rows carry the identical t_preprocess_ns), and times each method's main
    loop separately. A solver failure marks its row failed=True with NaN
    metrics instead of aborting the sweep; a preprocessing failure marks
    every method's row for that replication. Row order is deterministic:
    cells in given order, replications within a cell, methods within a
    replication.
    """
    if setting not in (1, 2):
        raise DataError("setting must be 1 or 2")
    _check_sweep(methods, n_list, sigma_or_p_list, reps)

    config = FitConfig(grid_size=grid_length)
    rows = []
    for cell_index, (n, swept) in enumerate(
        (n, swept) for n in n_list for swept in sigma_or_p_list
    ):
        for rep in range(reps):
            rep_seed = derive_seed(seed, setting, cell_index, rep)
            rows += _run_cell_replication(setting, methods, n, swept, p, rep_seed, config)
    return rows


@dataclass(frozen=True)
class BenchRow:
    """Median phase timings for one (method, n, p) cell.

    unit_count is the work unit the main loop is divided by: EM iterations
    for the EM solver, grid length for the LOOCV solvers; t_per_unit_ns is
    the median of the per-replication ratios t_mainloop / units.
    """

    method: Method
    n: int
    p: int
    reps: int
    t_preprocess_ns: float
    t_mainloop_ns: float
    unit_count: float
    t_per_unit_ns: float


BENCH_CSV_HEADER = "method,n,p,reps,t_preprocess_ns,t_mainloop_ns,unit_count,t_per_unit_ns"


def _gen_bench_data(rep_seed: int, n: int, p: int):
    """Dense i.i.d. standard-normal design for timing probes: X ~ N(0,1)
    entrywise (row-major block), beta0 ~ N(0, I), y = X beta0 + eps."""
    X = RandomStream(rep_seed, 3, _PURPOSE_X).normals(n * p).reshape(n, p)
    beta0 = RandomStream(rep_seed, 3, _PURPOSE_BETA).normals(p)
    eps = RandomStream(rep_seed, 3, _PURPOSE_NOISE).normals(n)
    return X, X @ beta0 + eps


def bench_comparison(
    methods: list[Method],
    n_list: list[int],
    p_list: list[int],
    reps: int,
    seed: int,
    grid_length: int = 100,
) -> list[BenchRow]:
    """Time preprocessing and main loops on dense normal designs.

    One row per (method, n, p) with medians over reps. The per-replication
    preprocessing (standardize + decompose + rotate) is shared across
    methods, exactly as in run_comparison.
    """
    _check_sweep(methods, n_list, p_list, reps)

    config = FitConfig(grid_size=grid_length)
    rows = []
    for cell_index, (n, p) in enumerate((n, p) for n in n_list for p in p_list):
        t_pre_all = []
        per_method: dict[Method, list[tuple[int, float]]] = {m: [] for m in methods}
        for rep in range(reps):
            rep_seed = derive_seed(seed, 3, cell_index, rep)
            X, y = _gen_bench_data(rep_seed, n, p)
            t0 = time.perf_counter_ns()
            std = standardize(Dataset(X=X, Y=y))
            rp = rotate(compact_svd(std.X_std), std.Y_centered)
            t_pre_all.append(time.perf_counter_ns() - t0)
            for method in methods:
                t0 = time.perf_counter_ns()
                fit = next(solve(std, rp, method, config))
                t_main = time.perf_counter_ns() - t0
                units = fit.k if method is Method.EM else grid_length
                per_method[method].append((t_main, float(units)))
        t_pre_med = float(np.median(t_pre_all))
        for method in methods:
            mains = [t for t, _ in per_method[method]]
            units = [u for _, u in per_method[method]]
            ratios = [t / u for t, u in per_method[method]]
            rows.append(
                BenchRow(
                    method=method,
                    n=n,
                    p=p,
                    reps=reps,
                    t_preprocess_ns=t_pre_med,
                    t_mainloop_ns=float(np.median(mains)),
                    unit_count=float(np.median(units)),
                    t_per_unit_ns=float(np.median(ratios)),
                )
            )
    return rows


def _write_rows(rows, header: str, fileobj) -> None:
    """Write dataclass rows under ``header``, one cell per field in declaration
    order. Floats use repr, so the file is byte-identical for identical inputs
    and round-trips exactly; None is an empty cell and booleans are
    true/false."""
    writer = csv.writer(fileobj, lineterminator="\n")
    writer.writerow(header.split(","))
    for r in rows:
        writer.writerow([_format_cell(getattr(r, f.name)) for f in fields(r)])


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Method):
        return value.value
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def write_bench_csv(rows: list[BenchRow], fileobj) -> None:
    """Write BenchRow records under the fixed bench header."""
    _write_rows(rows, BENCH_CSV_HEADER, fileobj)


def write_metrics_csv(rows: list[MetricsRow], fileobj) -> None:
    """Write MetricsRow records under the fixed metrics header."""
    _write_rows(rows, CSV_HEADER, fileobj)
