"""Slow dense reference implementations for cross-checking the fast paths.

Everything here is deliberately written from the textbook formulas with
explicit matrix inverses and per-observation refits, shares no code with
the rotated-problem solvers, and is guarded to small instances. Tests and
the acceptance suite are the intended callers, but the functions ship with
the library so the checks can be rerun anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import real
from .exceptions import DataError

_MAX_SIDE = 200

# Golden-section bracket and tolerance for the numeric M-step, in log tau^2.
_LOG_TAU2_LO = math.log(1e-15)
_LOG_TAU2_HI = math.log(1e15)
_GOLDEN_TOL = 1e-10
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _guard(n: int, p: int) -> None:
    if n > _MAX_SIDE or p > _MAX_SIDE:
        raise DataError(f"oracles accept n, p <= {_MAX_SIDE} only (got {n}, {p})")


@dataclass(frozen=True)
class DensePosterior:
    """Gaussian posterior of the coefficients at fixed (tau2, sigma2)."""

    beta_hat: np.ndarray
    covariance: np.ndarray


def dense_ridge_solve(X: np.ndarray, y: np.ndarray, lam: float) -> np.ndarray:
    """beta = (X'X + lambda I)^-1 X'y by a direct dense solve, in whichever
    classical form is better conditioned.

    (X'X + lam I)^-1 X'y and X'(XX' + lam I)^-1 y are algebraically equal,
    but for p > n the p x p system carries p - n eigenvalues equal to lam,
    so at small penalties it loses ~log10(s_max^2/lam) digits that the
    n x n form keeps; the n x n form is taken when p > n and lam > 0. The
    oracle's own rounding must stay far below the tolerances it arbitrates.
    lambda, a real number of at least 0 (data.real), may be 0 when X has
    full column rank; it then takes the p x p form, so a singular system
    surfaces as numpy.linalg.LinAlgError.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    n, p = X.shape
    _guard(n, p)
    real("lambda", lam, positive=False)
    if lam > 0 and p > n:
        return X.T @ np.linalg.solve(X @ X.T + lam * np.eye(n), y)
    return np.linalg.solve(X.T @ X + lam * np.eye(p), X.T @ y)


def dense_em_statistics(
    X: np.ndarray, y: np.ndarray, tau2: float, sigma2: float
) -> tuple[float, float, DensePosterior]:
    """E-step statistics via the explicit p x p posterior precision.

    A = X'X + (1/tau2) I, beta_hat = A^-1 X'y, and

        ESS = ||y - X beta_hat||^2 + sigma2 * tr(X'X A^-1)
        ESN = sigma2 * tr(A^-1) + ||beta_hat||^2

    Returned alongside the DensePosterior (beta_hat, sigma2 * A^-1). tau2
    is a positive real number and sigma2 one of at least 0 (data.real).
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    n, p = X.shape
    _guard(n, p)
    real("tau2", tau2)
    real("sigma2", sigma2, positive=False)
    gram = X.T @ X
    A_inv = np.linalg.inv(gram + (1.0 / tau2) * np.eye(p))
    beta_hat = A_inv @ (X.T @ y)
    resid = y - X @ beta_hat
    ess = float(resid @ resid) + sigma2 * float(np.trace(gram @ A_inv))
    esn = sigma2 * float(np.trace(A_inv)) + float(beta_hat @ beta_hat)
    return ess, esn, DensePosterior(beta_hat=beta_hat, covariance=sigma2 * A_inv)


def brute_force_loocv(X: np.ndarray, y: np.ndarray, lam: float) -> float:
    """LOOCV mean squared error by n literal refits, one per omitted row,
    each by dense_ridge_solve."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    n, p = X.shape
    _guard(n, p)
    if n < 2:
        raise DataError("brute_force_loocv requires n >= 2")
    total = 0.0
    for i in range(n):
        keep = np.arange(n) != i
        beta = dense_ridge_solve(X[keep], y[keep], lam)
        err = y[i] - float(X[i] @ beta)
        total += err * err
    return total / n


def _profile_q(log_tau2: float, ess: float, esn: float, n: int, p: int) -> float:
    """Objective in log tau^2 with the stationary sigma^2 substituted."""
    tau2 = math.exp(log_tau2)
    sigma2 = (tau2 * ess + esn) / ((n + p + 2.0) * tau2)
    return (
        0.5 * (n + p + 2.0) * math.log(sigma2)
        + ess / (2.0 * sigma2)
        + 0.5 * (p + 1.0) * math.log(tau2)
        + esn / (2.0 * sigma2 * tau2)
        + math.log1p(tau2)
    )


def numeric_m_step(ess: float, esn: float, n: int, p: int) -> tuple[float, float]:
    """Minimize the M-step objective numerically instead of in closed form.

    Golden-section search over log tau2 in [log 1e-15, log 1e15] (the
    profiled objective has a single interior minimum), then the stationary
    sigma2 at the winner. Bracket tolerance 1e-10 in log space. ess and
    esn are positive real numbers (data.real).
    """
    real("ess", ess)
    real("esn", esn)
    lo, hi = _LOG_TAU2_LO, _LOG_TAU2_HI
    a = hi - _INV_PHI * (hi - lo)
    b = lo + _INV_PHI * (hi - lo)
    fa = _profile_q(a, ess, esn, n, p)
    fb = _profile_q(b, ess, esn, n, p)
    while hi - lo > _GOLDEN_TOL:
        if fa < fb:
            hi, b, fb = b, a, fa
            a = hi - _INV_PHI * (hi - lo)
            fa = _profile_q(a, ess, esn, n, p)
        else:
            lo, a, fa = a, b, fb
            b = lo + _INV_PHI * (hi - lo)
            fb = _profile_q(b, ess, esn, n, p)
    tau2 = math.exp((lo + hi) / 2.0)
    sigma2 = (tau2 * ess + esn) / ((n + p + 2.0) * tau2)
    return tau2, sigma2
