"""Synthetic benchmark settings, accuracy metrics, and the sweep harness.

Two data-generating settings are provided: sparse Bernoulli designs
(setting 1) and Gaussian designs X = Z A' correlated by a Wishart draw's
Bartlett factor A (setting 2); the timing bench draws dense standard-normal
designs (setting 3). One replication loop serves both drivers: it fits each
requested method on the same standardized, rotated problem per replication,
so preprocessing is timed once and the per-method cost is the main loop alone.
run_comparison returns its rows, recording a failure as a failed row, and
bench_comparison summarises the same rows as medians per (method, n, p),
aborting at the first failure instead.

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
import itertools
import math
import time
from dataclasses import dataclass, fields

import numpy as np

from .data import Dataset, Method, destandardize, standardize
from .decomposition import compact_svd, rotate
from .exceptions import DataError, FastridgeError
from .loocv import GRID_LENGTH
from .pipeline import FitConfig, solve
from .rng import RandomStream, derive_seed

_PURPOSE_X = 1
_PURPOSE_BETA = 2
_PURPOSE_NOISE = 3
_PURPOSE_COV = 4

# The paper's settings: design density of setting 1, noise variance of setting 2.
_BERNOULLI_PROB = 0.01
_NOISE_VAR = 0.25

CSV_HEADER = (
    "method,n,p,sigma,param_mse,shrinkage_ratio,lambda,k,"
    "t_preprocess_ns,t_mainloop_ns,seed,failed"
)


@dataclass(frozen=True)
class Setting1Config:
    """Sparse binary design: X_ij ~ Bernoulli(0.01) as 0/1 reals,
    beta0 ~ N(0, I_p), y = X beta0 + sigma * eps."""

    n: int
    sigma: float
    seed: int
    p: int = 100

    def __post_init__(self):
        if self.n < 1 or self.p < 1:
            raise DataError("need n >= 1 and p >= 1")
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise DataError("sigma must be nonnegative and finite")
        if self.seed < 0:
            raise DataError("seed must be nonnegative")


@dataclass(frozen=True)
class Setting2Config:
    """Correlated Gaussian design: X = Z A' with Z standard normal and A the
    Bartlett factor of Sigma = A A' ~ Wishart(I_p, p), drawn once per
    replication, so rows of X ~ N(0, Sigma); y = X beta0 + sqrt(0.25) * eps."""

    n: int
    p: int
    seed: int

    def __post_init__(self):
        if self.n < 1 or self.p < 1:
            raise DataError("need n >= 1 and p >= 1")
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
        .bernoulli(_BERNOULLI_PROB, cfg.n * cfg.p)
        .reshape(cfg.n, cfg.p)
    )
    beta0 = RandomStream(cfg.seed, 1, _PURPOSE_BETA).normals(cfg.p)
    eps = RandomStream(cfg.seed, 1, _PURPOSE_NOISE).normals(cfg.n)
    return X, X @ beta0 + cfg.sigma * eps, beta0


def _bartlett_factor(stream: RandomStream, p: int) -> np.ndarray:
    """The lower-triangular Bartlett factor A of a Wishart(I_p, p) draw A A'.

    Consumption order (documented for reproducibility): first one block of
    p(p-1)/2 normals filling the strict lower triangle row by row, then for
    each row i = 0..p-1 one chi-square block with p - i degrees of freedom
    for the diagonal entry sqrt(chi2_{p-i}).
    """
    A = np.zeros((p, p))
    A[np.tril_indices(p, -1)] = stream.normals(p * (p - 1) // 2)
    for i in range(p):
        A[i, i] = math.sqrt(stream.chi_square(p - i))
    return A


def gen_gaussian_wishart(cfg: Setting2Config):
    """Draw (X, y, beta0) for setting 2, fully determined by cfg.seed.

    X = Z A' with A the Bartlett factor, the Cholesky factor of the Wishart
    covariance A A' (Smith & Hocking 1972, AS 53), so A A' is never formed.
    """
    A = _bartlett_factor(RandomStream(cfg.seed, 2, _PURPOSE_COV), cfg.p)
    Z = RandomStream(cfg.seed, 2, _PURPOSE_X).normals(cfg.n * cfg.p).reshape(cfg.n, cfg.p)
    X = Z @ A.T
    beta0 = RandomStream(cfg.seed, 2, _PURPOSE_BETA).normals(cfg.p)
    eps = RandomStream(cfg.seed, 2, _PURPOSE_NOISE).normals(cfg.n)
    return X, X @ beta0 + math.sqrt(_NOISE_VAR) * eps, beta0


def _gen_bench_data(rep_seed: int, n: int, p: int):
    """Dense i.i.d. standard-normal design for timing probes (setting 3):
    X ~ N(0,1) entrywise (row-major block), beta0 ~ N(0, I), y = X beta0 + eps."""
    X = RandomStream(rep_seed, 3, _PURPOSE_X).normals(n * p).reshape(n, p)
    beta0 = RandomStream(rep_seed, 3, _PURPOSE_BETA).normals(p)
    eps = RandomStream(rep_seed, 3, _PURPOSE_NOISE).normals(n)
    return X, X @ beta0 + eps, beta0


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
    """The row of a method that could not be fitted: NaN metrics, no main loop."""
    nan = math.nan
    return MetricsRow(method, n, p, sigma, nan, nan, nan, None, t_pre, 0, rep_seed, failed=True)


def _draw(setting, n, swept, p, rep_seed):
    """One replication's (X, y, beta0), then its p and noise-sd columns."""
    if setting == 1:
        p = Setting1Config.p if p is None else p
        cfg = Setting1Config(n=n, sigma=swept, seed=rep_seed, p=p)
        return (*gen_bernoulli_sparse(cfg), cfg.p, float(cfg.sigma))
    if setting == 2:
        cfg = Setting2Config(n=n, p=swept, seed=rep_seed)
        return (*gen_gaussian_wishart(cfg), cfg.p, math.sqrt(_NOISE_VAR))
    return (*_gen_bench_data(rep_seed, n, swept), swept, 1.0)


def _replications(setting, methods, n_list, swept_list, reps, seed, p, grid_length, keep_failures):
    """The replication loop behind run_comparison (keep_failures=True, see
    there for the rows) and bench_comparison (keep_failures=False: the first
    library error propagates unchanged)."""
    if not methods:
        raise DataError("methods must be nonempty")
    if len(set(methods)) < len(methods):
        raise DataError("methods must not repeat a method")
    if not n_list or not swept_list:
        raise DataError("sweep lists must be nonempty")
    if reps < 1:
        raise DataError("reps must be at least 1")
    config = FitConfig(grid_size=grid_length)
    cells = [(n, swept) for n in n_list for swept in swept_list]
    rows = []
    for (cell_index, (n, swept)), rep in itertools.product(enumerate(cells), range(reps)):
        rep_seed = derive_seed(seed, setting, cell_index, rep)
        X, y, beta0, p_row, sigma = _draw(setting, n, swept, p, rep_seed)
        t0 = time.perf_counter_ns()
        try:
            std = standardize(Dataset(X=X, Y=y))
            rp = rotate(compact_svd(std.X_std), std.Y_centered)
        except (FastridgeError, np.linalg.LinAlgError):
            if not keep_failures:
                raise
            # A draw that cannot even be standardized (for example an
            # all-zero sparse design) fails every method, not the sweep.
            t_pre = time.perf_counter_ns() - t0
            rows += [_failed_row(m, n, p_row, sigma, t_pre, rep_seed) for m in methods]
            continue
        t_pre = time.perf_counter_ns() - t0
        for method in methods:
            try:
                t0 = time.perf_counter_ns()
                fit = next(solve(std, rp, method, config))
                t_main = time.perf_counter_ns() - t0
                beta_raw = destandardize(fit.beta, std)[0][:, 0]
                is_em = method is Method.EM
                rows.append(
                    MetricsRow(
                        method=method,
                        n=n,
                        p=p_row,
                        sigma=sigma,
                        param_mse=parameter_mse(beta_raw, beta0),
                        shrinkage_ratio=shrinkage_ratio(beta_raw, beta0),
                        lambda_selected=fit.lambda_ if is_em else fit.lambda_star,
                        k_iterations=fit.k if is_em else None,
                        t_preprocess_ns=t_pre,
                        t_mainloop_ns=t_main,
                        seed=rep_seed,
                    )
                )
            except (FastridgeError, np.linalg.LinAlgError):
                if not keep_failures:
                    raise
                rows.append(_failed_row(method, n, p_row, sigma, t_pre, rep_seed))
    return rows


def run_comparison(
    setting: int,
    methods: list[Method],
    n_list: list[int],
    sigma_or_p_list: list[float],
    reps: int,
    seed: int,
    p: int | None = None,
    grid_length: int = GRID_LENGTH,
) -> list[MetricsRow]:
    """Sweep cells x replications x methods and collect metric rows.

    For setting 1 the swept second axis is sigma and p is fixed by the
    keyword (None for Setting1Config's default); for setting 2 it is p
    itself, and passing p raises DataError. Replication rep of cell i is drawn
    from derive_seed(seed, setting, i, rep), then standardized, decomposed
    and rotated once under one timer; its methods share that cache (their
    rows carry the identical t_preprocess_ns) and each method's main loop is
    timed alone. A solver failure marks its row failed=True with NaN metrics
    instead of aborting the sweep; a preprocessing failure marks every
    method's row for that replication. Row order is deterministic: cells in
    given order, replications within a cell, methods within a replication.
    """
    if setting not in (1, 2):
        raise DataError("setting must be 1 or 2")
    if setting == 2 and p is not None:
        raise DataError("p does not apply to setting 2, which sweeps it")
    return _replications(
        setting, methods, n_list, sigma_or_p_list, reps, seed, p, grid_length, keep_failures=True
    )


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


def bench_comparison(
    methods: list[Method],
    n_list: list[int],
    p_list: list[int],
    reps: int,
    seed: int,
    grid_length: int = GRID_LENGTH,
) -> list[BenchRow]:
    """Time preprocessing and main loops on dense normal designs.

    Runs the replication loop of run_comparison and summarises it as one row
    per (method, n, p) with medians over reps. The first failure aborts with
    its original error instead of becoming a failed row. The first cell is
    run once untimed and discarded, so a slow start of the host is not
    charged to it: after a few seconds idle, threaded BLAS calls can run
    over ten times slower for about a second, longer than one replication.
    """
    _replications(
        3, methods, n_list[:1], p_list[:1], reps, seed, None, grid_length, keep_failures=False
    )
    rows = _replications(
        3, methods, n_list, p_list, reps, seed, None, grid_length, keep_failures=False
    )
    k = len(methods)
    out = []
    for start in range(0, len(rows), reps * k):
        cell = rows[start : start + reps * k]
        for i, method in enumerate(methods):
            mine = cell[i::k]  # this method's row of each replication
            units = [
                float(r.k_iterations if method is Method.EM else grid_length) for r in mine
            ]
            out.append(
                BenchRow(
                    method=method,
                    n=mine[0].n,
                    p=mine[0].p,
                    reps=reps,
                    t_preprocess_ns=float(np.median([r.t_preprocess_ns for r in mine])),
                    t_mainloop_ns=float(np.median([r.t_mainloop_ns for r in mine])),
                    unit_count=float(np.median(units)),
                    t_per_unit_ns=float(
                        np.median([r.t_mainloop_ns / u for r, u in zip(mine, units)])
                    ),
                )
            )
    return out


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
