"""EM estimation of the ridge hyperparameters (tau^2, sigma^2).

The model is y | beta ~ N(X beta, sigma^2 I), beta ~ N(0, sigma^2 tau^2 I),
with a half-Cauchy prior on tau (the beta-prime shape parameters are fixed
at a = b = 1/2 and not exposed). The E-step statistics ESS and ESN reduce to
O(r') sums over the rotated problem, and the M-step minimizer is closed
form, so one iteration costs O(r') independent of n and p.

Also houses the closed-form machinery for the p-means special case and the
posterior-unimodality diagnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .decomposition import RotatedProblem, recover_beta, rotated_ridge_solution, target_column
from .exceptions import DataError, DegenerateProblemError

# |RSS| below this fraction of ||y||^2 counts as rounding noise and is
# clamped to zero; anything more negative is a caller error.
_RSS_CLAMP_REL = 1e-10


@dataclass(frozen=True)
class EmConfig:
    """Convergence control for em_fit.

    tol is compared against the relative RSS change
    delta = |RSS_old - RSS| / (1 + |RSS|).
    """

    tol: float = 1e-8
    max_iterations: int = 100000

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise DataError("tol must be positive and finite")
        if self.max_iterations < 1:
            raise DataError("max_iterations must be at least 1")


@dataclass(frozen=True)
class EmFit:
    """Converged (or abandoned) EM estimate for a single target.

    beta = V @ alpha, and the property lambda_ = 1/tau2 is the implied ridge
    penalty. When degenerate is True the expected SSE underflowed to zero,
    alpha/beta hold the minimum-norm least-squares limit, tau2 is +inf and
    lambda_ is 0.
    """

    alpha: np.ndarray
    beta: np.ndarray
    tau2: float
    sigma2: float
    k: int
    converged: bool
    delta_final: float
    degenerate: bool = False

    @property
    def lambda_(self) -> float:
        return 1.0 / self.tau2


@dataclass(frozen=True)
class UnimodalityDiagnostic:
    """Posterior-uniqueness check from the design-conditioning bound.

    gamma_n is the smallest eigenvalue of X'X/n (zero whenever the compact
    rank falls short of p). epsilon_min = 4/(n*gamma_n) is the smallest
    exclusion radius the bound certifies; None when gamma_n = 0. The flag
    records whether the requested epsilon exceeds epsilon_min.
    """

    gamma_n: float
    epsilon_min: float | None
    epsilon: float
    epsilon_exceeds_bound: bool


# The E-step without input checks, shared with the em_fit loop, which
# computes inv = 1/(s_j^2 + 1/tau2) once per iteration.
def _esn(rp: RotatedProblem, alpha, inv, tau2: float, sigma2: float) -> float:
    return float(alpha @ alpha) + sigma2 * (float(np.sum(inv)) + tau2 * rp.n_dropped_directions)


def _ess(rp: RotatedProblem, alpha, c, y2: float, inv, sigma2: float) -> tuple[float, float]:
    rss = y2 - 2.0 * float(alpha @ c) + float((alpha * alpha) @ rp.s2)
    if rss < 0:
        if rss < -_RSS_CLAMP_REL * y2:
            raise DataError(f"negative residual sum of squares ({rss!r})")
        rss = 0.0
    return rss + sigma2 * float(rp.s2 @ inv), rss


def expected_squared_norm(
    rp: RotatedProblem, alpha: np.ndarray, tau2: float, sigma2: float
) -> float:
    """Posterior-expected ||beta||^2 given (tau2, sigma2).

    ESN = ||alpha||^2 + sigma2 * ( sum_j 1/(s_j^2 + 1/tau2)
                                   + tau2 * (p - r') ).

    alpha must be the rotated ridge solution at lambda = 1/tau2. The second
    term is the posterior-covariance trace; coefficient directions with zero
    singular value each contribute sigma2 * tau2 to it.
    """
    if not tau2 > 0:  # also rejects NaN, as does every not-form check below
        raise DataError("tau2 must be positive")
    if not sigma2 >= 0:
        raise DataError("sigma2 must be nonnegative")
    alpha = np.asarray(alpha, dtype=float)
    return _esn(rp, alpha, 1.0 / (rp.s2 + 1.0 / tau2), tau2, sigma2)


def expected_sse(
    rp: RotatedProblem,
    alpha: np.ndarray,
    tau2: float,
    sigma2: float,
    target: int = 0,
) -> tuple[float, float]:
    """Posterior-expected sum of squared errors, and the plug-in RSS.

    RSS = ||y||^2 - 2 alpha'c + ||s * alpha||^2
    ESS = RSS + sigma2 * sum_j s_j^2/(s_j^2 + 1/tau2)

    RSS is mathematically nonnegative; tiny negatives (within
    1e-10 * ||y||^2) are rounding and clamped to zero, larger ones mean
    alpha does not belong to this problem and raise.
    """
    if not tau2 > 0:
        raise DataError("tau2 must be positive")
    if not sigma2 >= 0:
        raise DataError("sigma2 must be nonnegative")
    alpha = np.asarray(alpha, dtype=float)
    c = target_column(rp, target)
    y2 = float(rp.y_sq_norms[target])
    return _ess(rp, alpha, c, y2, 1.0 / (rp.s2 + 1.0 / tau2), sigma2)


def m_step(ess: float, esn: float, n: int, p: int) -> tuple[float, float]:
    """Exact joint minimizer of the EM objective over (tau2, sigma2).

    With g = (4n+4) ESN (3+p) ESS + ((1-n) ESN + (p+1) ESS)^2:

        tau2_hat   = ((n-1) ESN - (1+p) ESS + sqrt(g)) / ((6+2p) ESS)
        sigma2_hat = (tau2_hat ESS + ESN) / ((n+p+2) tau2_hat)

    Both outputs are strictly positive whenever ESS > 0 and ESN > 0.
    """
    if not (ess > 0 and esn > 0):
        raise DegenerateProblemError("m_step requires ESS > 0 and ESN > 0")
    g = (4.0 * n + 4.0) * esn * (3.0 + p) * ess + ((1.0 - n) * esn + (p + 1.0) * ess) ** 2
    tau2_hat = ((n - 1.0) * esn - (1.0 + p) * ess + math.sqrt(g)) / ((6.0 + 2.0 * p) * ess)
    sigma2_hat = (tau2_hat * ess + esn) / ((n + p + 2.0) * tau2_hat)
    return tau2_hat, sigma2_hat


def q_function(tau2: float, sigma2: float, ess: float, esn: float, n: int, p: int) -> float:
    """Expected complete-data negative log-posterior, up to an additive
    constant; the quantity the M-step minimizes at fixed (ESS, ESN).

    Q = ((n+p+2)/2) log sigma2 + ESS/(2 sigma2)
        + ((p+1)/2) log tau2 + ESN/(2 sigma2 tau2) + log(1 + tau2)
    """
    if not (tau2 > 0 and sigma2 > 0 and ess > 0 and esn > 0):
        raise DataError("q_function requires positive arguments")
    return (
        0.5 * (n + p + 2.0) * math.log(sigma2)
        + ess / (2.0 * sigma2)
        + 0.5 * (p + 1.0) * math.log(tau2)
        + esn / (2.0 * sigma2 * tau2)
        + math.log1p(tau2)
    )


def em_fit(rp: RotatedProblem, cfg: EmConfig = EmConfig(), target: int = 0) -> EmFit:
    """Run the EM loop on one target of a rotated problem, under cfg's
    tolerance and iteration cap (EmConfig's defaults unless given).

    Initialization: tau2 = 1, sigma2 = ||y||^2 / n (the target
    is assumed centered, so this is the mean squared deviation). Each
    iteration refreshes alpha at lambda = 1/tau2, computes (ESN, RSS, ESS),
    applies the closed-form M-step, and stops once
    delta = |RSS_old - RSS| / (1 + |RSS|) < cfg.tol or the iteration cap is
    reached. The returned alpha/beta are recomputed at the final tau2.

    A target that is exactly zero raises DegenerateProblemError. If ESS
    underflows to zero during iteration the fit returns the minimum-norm
    least-squares solution (the lambda -> 0 limit) flagged degenerate.
    """
    n, p = rp.n, rp.p
    if n < 2:
        raise DataError("em_fit requires n >= 2")

    c = target_column(rp, target)
    s2 = rp.s2
    y2 = float(rp.y_sq_norms[target])
    if y2 == 0.0:
        raise DegenerateProblemError("target has zero variance after centering")

    def min_norm_fallback(sigma2: float, k: int) -> EmFit:
        # Perfect-fit collapse: the penalty has no finite optimum, so
        # return the lambda -> 0 limit and flag it.
        alpha = c / s2
        return EmFit(
            alpha=alpha,
            beta=recover_beta(rp, alpha),
            tau2=math.inf,
            sigma2=sigma2,
            k=k,
            converged=False,
            delta_final=math.nan,
            degenerate=True,
        )

    tau2 = 1.0
    sigma2 = y2 / n
    rss = math.inf
    delta = math.inf
    k = 0
    while k < cfg.max_iterations:
        rss_old = rss
        inv = 1.0 / (s2 + 1.0 / tau2)
        alpha = c * inv
        esn = _esn(rp, alpha, inv, tau2, sigma2)
        ess, rss = _ess(rp, alpha, c, y2, inv, sigma2)
        try:
            tau2, sigma2 = m_step(ess, esn, n, p)
        except DegenerateProblemError:
            return min_norm_fallback(sigma2, k + 1)
        if not (math.isfinite(tau2) and tau2 > 0 and math.isfinite(sigma2)):
            # tau2 can overflow to inf one step before ESS underflows.
            return min_norm_fallback(sigma2 if math.isfinite(sigma2) else 0.0, k + 1)
        k += 1
        delta = abs(rss_old - rss) / (1.0 + abs(rss))
        if delta < cfg.tol:
            break

    alpha = rotated_ridge_solution(rp, 1.0 / tau2, target)
    return EmFit(
        alpha=alpha,
        beta=recover_beta(rp, alpha),
        tau2=tau2,
        sigma2=sigma2,
        k=k,
        converged=delta < cfg.tol,
        delta_final=delta,
    )


def tau_update_fixed_variance(w: float, p: int) -> float:
    """Stationary tau update for the p-means model with unit noise variance.

    tau_hat = sqrt( (w - p + sqrt(p^2 + 8w + 2pw + w^2)) / (2(2+p)) )

    where w is the current expected squared norm of the means.
    """
    if not w >= 0:
        raise DataError("w must be nonnegative")
    if p < 1:
        raise DataError("p must be at least 1")
    inner = math.sqrt(p * p + 8.0 * w + 2.0 * p * w + w * w)
    return math.sqrt(max(w - p + inner, 0.0) / (2.0 * (2.0 + p)))


def multiple_means_kappa(y: np.ndarray) -> float:
    """Closed-form shrinkage factor for estimating p independent means.

    kappa = min(1, (p+2)/||y||^2); the estimate is (1-kappa)*y. The clamp
    keeps the estimate from flipping sign when ||y||^2 < p+2.
    """
    y = np.asarray(y, dtype=float).ravel()
    y2 = float(y @ y)
    if not 0.0 < y2 < math.inf:
        raise DataError("multiple_means_kappa requires a finite y != 0")
    return min(1.0, (y.shape[0] + 2.0) / y2)


def unimodality_bound(
    s2: np.ndarray, n: int, p: int, epsilon: float
) -> UnimodalityDiagnostic:
    """Check whether the posterior-uniqueness bound applies at epsilon.

    gamma_n is min eig(X'X)/n computed from the squared singular values of
    the standardized design; it is zero whenever fewer than p singular
    values survived (s2 comes from the compact decomposition, so missing
    entries are exact zeros). A unique mode with tau^2 >= epsilon is
    certified when gamma_n > 0 and epsilon > 4/(n*gamma_n).
    """
    if n < 1:
        raise DataError("n must be at least 1")
    if not epsilon > 0:
        raise DataError("epsilon must be positive")
    s2 = np.asarray(s2, dtype=float).ravel()
    if s2.shape[0] < p:
        gamma_n = 0.0
    else:
        gamma_n = float(np.min(s2)) / n
    if gamma_n > 0:
        epsilon_min = 4.0 / (n * gamma_n)
        return UnimodalityDiagnostic(
            gamma_n=gamma_n,
            epsilon_min=epsilon_min,
            epsilon=epsilon,
            epsilon_exceeds_bound=epsilon > epsilon_min,
        )
    return UnimodalityDiagnostic(
        gamma_n=0.0, epsilon_min=None, epsilon=epsilon, epsilon_exceeds_bound=False
    )


def sample_size_threshold(c: float, alpha: float, epsilon: float) -> float:
    """Smallest n beyond which eigenvalue decay gamma_n = c * n^-alpha still
    certifies a unique mode at radius epsilon: n > (4/(c*epsilon))^(1/(1-alpha))."""
    if not (c > 0 and epsilon > 0):
        raise DataError("c and epsilon must be positive")
    if not 0 <= alpha < 1:
        raise DataError("alpha must lie in [0, 1)")
    return (4.0 / (c * epsilon)) ** (1.0 / (1.0 - alpha))
