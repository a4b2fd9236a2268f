"""Fast leave-one-out cross-validation for ridge on the rotated problem.

Every candidate lambda is scored with the PRESS shortcut: the full-data
residuals and the hat-matrix diagonals give the exact LOOCV error without
refitting, at O(n * r') per lambda. A grid is scored in chunks of at most
rank penalties: the leverage factor U*U is formed once per rotated problem
and shared by its targets, and each
chunk costs two matrix products (one for 1 - h, one for the residuals)
whose n x chunk results are no larger than U. Grid construction (a fixed
log-spaced ladder and a data-driven heuristic) lives here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import count, real
from .decomposition import RotatedProblem, recover_beta, rotated_ridge_solution, target_column
from .exceptions import DataError, DegenerateProblemError

# Leverages this close to 1 make the PRESS denominator meaningless.
_LEVERAGE_CEILING = 1.0 - 1e-12

# Relative slack when validating that consecutive grid ratios are constant.
_RATIO_TOL = 1e-12

# Penalties per LOOCV grid unless a caller asks for another length.
GRID_LENGTH = 100


@dataclass(frozen=True)
class LambdaGrid:
    """Descending, log-spaced candidate penalties.

    values must be strictly positive and strictly descending with a constant
    consecutive ratio (within 1e-12 relative); a single-value grid is
    allowed and trivially satisfies both. Which rule made the grid is the
    fit method's to record, not the grid's.
    """

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.ndim != 1 or values.size < 1:
            raise DataError("grid must be a nonempty 1-D array")
        if not np.all(np.isfinite(values)) or np.any(values <= 0):
            raise DataError("grid values must be positive and finite")
        if values.size > 1:
            if np.any(np.diff(values) >= 0):
                raise DataError("grid values must be strictly descending")
            ratios = values[1:] / values[:-1]
            if np.max(ratios) - np.min(ratios) > _RATIO_TOL * np.max(ratios):
                raise DataError("grid values must be log-spaced")

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class LoocvFit:
    """Scored grid (cve[i] at grid.values[i]) and the coefficient vector at
    the winning penalty, the property lambda_star: the grid value at the
    first CVE minimum, so ties go to the largest, as in model files."""

    grid: LambdaGrid
    cve: np.ndarray
    beta: np.ndarray

    @property
    def lambda_star(self) -> float:
        return float(self.grid.values[np.argmin(self.cve)])


def fixed_grid(l: int = GRID_LENGTH) -> LambdaGrid:
    """l log-spaced penalties from 1e10 down to 1e-10, endpoints exact; l is
    an integer (not a bool) of at least 2, or DataError (data.count)."""
    count("l", l, 2)
    values = np.logspace(10.0, -10.0, l)
    # Endpoints are part of the contract; pin them against logspace rounding.
    values[0] = 1e10
    values[-1] = 1e-10
    return LambdaGrid(values)


def _pin_ratio(values: np.ndarray, kappa: float) -> np.ndarray:
    """Nudge the grid top values[0] up by ulps until values[-1] = top * kappa
    divides back to exactly kappa: multiplication followed by division is
    not an exact roundtrip in floating point. No other bottom needs trying,
    since top * kappa rounds to the float nearest the exact product: if any
    float divides back to kappa, that one does."""
    top = values[0]
    for _ in range(8):
        bottom = top * kappa
        if bottom / top == kappa:
            values[0] = top
            values[-1] = bottom
            return values
        top = math.nextafter(top, math.inf)
    raise DegenerateProblemError("could not pin the grid min/max ratio")


def glmnet_grid(
    X_std: np.ndarray,
    y_centered: np.ndarray,
    l: int = GRID_LENGTH,
) -> LambdaGrid:
    """Data-driven grid in the style of coordinate-descent lasso solvers.

    The grid is built on the per-observation penalty scale, from
    lambda_g_max = max_j |x_j'y| / (n * 0.001 * sqrt(y'y/n)) (the
    elastic-net entry point at mixing weight 0.001 for y scaled to unit
    variance, 1/n formula, as glmnet scales it) down to kappa * lambda_g_max,
    with kappa = 1e-4 when n >= p and 1e-2 otherwise, and returned on this
    library's scale, lambda = n * (1 - 0.001) * lambda_g: a value's
    per-observation counterpart is lambda / (0.999 n). The min/max ratio of
    the returned grid equals kappa exactly. The grid does not depend on the
    units of y: it is computed from y / max|y|, where neither x'y nor y'y
    under- or overflows, and is bitwise the same for y and y times a power
    of two. l is an integer (not a bool) of at least 2, or DataError
    (data.count).
    """
    count("l", l, 2)
    X_std = np.asarray(X_std, dtype=float)
    y = np.asarray(y_centered, dtype=float).ravel()
    if X_std.ndim != 2 or X_std.shape[0] != y.shape[0]:
        raise DataError("X_std and y_centered have incompatible shapes")
    n, p = X_std.shape
    u = y / (np.max(np.abs(y), initial=0.0) or 1.0)  # a zero y stays zero
    xu = float(np.max(np.abs(X_std.T @ u)))
    if not xu > 0:
        raise DataError("y_centered is orthogonal to every column; grid top is 0")
    lam_g_max = xu / (n * 0.001 * math.sqrt(float(u @ u) / n))
    kappa = 1e-4 if n >= p else 1e-2
    top = n * (1.0 - 0.001) * lam_g_max
    values = np.logspace(math.log10(top), math.log10(top * kappa), l)
    values[0] = top  # _pin_ratio starts from values[0] and sets values[-1]
    values = _pin_ratio(values, kappa)
    return LambdaGrid(values)


def _press_curve(
    rp: RotatedProblem, y: np.ndarray, lams: np.ndarray, target: int
) -> np.ndarray:
    """CVE at every penalty of lams (positive), in order.

    U*U is formed once per rotated problem (rp.U_sq) and read by every
    target; the penalties are taken at most rank at a time, so each chunk's
    1 - h and e (n x chunk each, one matrix product apiece) are no larger
    than U, whatever n or the grid length.
    The first penalty in lams order at which some leverage saturates raises,
    counting its observations and naming the first few.
    """
    y = np.asarray(y, dtype=float).reshape(-1, 1)
    if y.shape[0] != rp.n:
        raise DataError(f"y has length {y.shape[0]}, expected {rp.n}")
    U, UU, s, s2 = rp.U, rp.U_sq, rp.s[:, None], rp.s2[:, None]
    c = target_column(rp, target)[:, None]
    complement = rp.rank == rp.n
    step = max(1, rp.rank)
    cve = np.empty(lams.shape[0])
    for start in range(0, lams.shape[0], step):
        lam = lams[start : start + step]
        if complement:
            w = lam / (s2 + lam)
            one_minus_h = UU @ w
            e = U @ (w * (c / s))
        else:  # in place: each n x chunk array is allocated once
            one_minus_h = UU @ (s2 / (s2 + lam))
            np.subtract(1.0, one_minus_h, out=one_minus_h)
            e = U @ (s * (c / (s2 + lam)))
            np.subtract(y, e, out=e)
        saturated = one_minus_h <= 1.0 - _LEVERAGE_CEILING
        if saturated.any():
            first = int(np.flatnonzero(saturated.any(axis=0))[0])
            rows = np.flatnonzero(saturated[:, first])
            more = f" and {rows.size - 5} more" if rows.size > 5 else ""
            raise DegenerateProblemError(
                f"leverage saturated at {rows.size} observation(s) "
                f"{rows[:5].tolist()}{more}; LOOCV residuals are undefined there"
            )
        e /= one_minus_h
        cve[start : start + step] = np.einsum("ij,ij->j", e, e) / rp.n
        del one_minus_h, e, saturated  # before the next chunk allocates its own
    return cve


def press(rp: RotatedProblem, y: np.ndarray, lam: float, target: int = 0) -> float:
    """Exact LOOCV mean squared error at one penalty, without refitting: the
    one-penalty case of the scorer loocv_fit runs over a whole grid.

    CVE = (1/n) * sum_i (e_i / (1 - h_i))^2 with e = y - U (s * alpha).
    y must be the same centered target column the rotated problem was built
    from; the residuals need all n entries, which the rotated cache alone
    does not carry. Cost O(n * r').

    At full row rank (r' = n, so U is square-orthonormal), e and 1 - h are
    evaluated in the complement form
    e = U (w * U'y), 1 - h = (U*U) w with w = lam/(s^2 + lam): both are then
    sums of positive-weighted terms of size O(lam), instead of differences
    of O(1) quantities that cancel to O(lam), which at small penalties
    would cost ~log10(s_max^2/lam) digits. A centered design never has full
    row rank (its centering direction lies below compact_svd's resolution
    floor), so a fit on standardized data always takes the 1 - h form.
    lambda is a positive real number (data.real).
    """
    real("lambda", lam)
    return float(_press_curve(rp, y, np.array([lam], dtype=float), target)[0])


def loocv_fit(
    rp: RotatedProblem, y: np.ndarray, grid: LambdaGrid, target: int = 0
) -> LoocvFit:
    """Score every grid value as press would and refit at the winner.

    Ties at the minimum go to the largest lambda, i.e. the earliest entry of
    the descending grid, so the selection is deterministic.
    """
    cve = _press_curve(rp, y, grid.values, target)
    lambda_star = float(grid.values[np.argmin(cve)])  # the first, hence largest, lambda
    alpha = rotated_ridge_solution(rp, lambda_star, target)
    return LoocvFit(grid=grid, cve=cve, beta=recover_beta(rp, alpha))
