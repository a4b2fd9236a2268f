"""EM estimation of the ridge hyperparameters (tau^2, sigma^2).

The model is y | beta ~ N(X beta, sigma^2 I), beta ~ N(0, sigma^2 tau^2 I),
with a half-Cauchy prior on tau (the beta-prime shape parameters are fixed
at a = b = 1/2 and not exposed). The E-step statistics ESS and ESN reduce to
O(r') sums over the rotated problem, plus R0 = ||(I - UU')y||^2, the one
number of y outside span(U) that rotate keeps per target, and the M-step
minimizer is closed form, so one iteration costs O(r') independent of n
and p.

Also houses the closed-form machinery for the p-means special case and the
posterior-unimodality diagnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import count, real
from .decomposition import RotatedProblem, recover_beta, target_column
from .exceptions import DataError, DegenerateProblemError


@dataclass(frozen=True)
class EmConfig:
    """Convergence control for em_fit.

    tol, a positive real number (data.real), is compared against the RSS
    change relative to the target's squared norm,
    delta = |RSS_old - RSS| / ||y||^2, which does not depend on the units of
    y; max_iterations is a count of at least 1 (data.count). Anything else
    raises DataError naming the field.
    """

    tol: float = 1e-8
    max_iterations: int = 100000

    def __post_init__(self):
        real("tol", self.tol)
        count("max_iterations", self.max_iterations, 1)


@dataclass(frozen=True)
class EmFit:
    """Converged (or abandoned) EM estimate for a single target.

    beta = V @ alpha with alpha = c / (s^2 + 1/tau2), and the property
    lambda_ = 1/tau2 is the implied ridge penalty. tau2 = +inf is the
    collapse em_fit reports when the EM statistics leave the positive
    reals: degenerate is then true (it is math.isinf(tau2), not stored),
    lambda_ is 0 and alpha/beta are the minimum-norm least-squares limit.
    """

    alpha: np.ndarray
    beta: np.ndarray
    tau2: float
    sigma2: float
    k: int
    converged: bool
    delta_final: float

    @property
    def lambda_(self) -> float:
        return 1.0 / self.tau2

    @property
    def degenerate(self) -> bool:
        return math.isinf(self.tau2)


@dataclass(frozen=True)
class UnimodalityDiagnostic:
    """Posterior-uniqueness check from the design-conditioning bound.

    gamma_n is the smallest eigenvalue of X'X/n (zero whenever the compact
    rank falls short of p). epsilon_min = 4/(n*gamma_n) is the smallest
    exclusion radius the bound certifies; None when gamma_n = 0. The
    property epsilon_exceeds_bound says whether the requested epsilon
    exceeds epsilon_min (false when there is none).
    """

    gamma_n: float
    epsilon_min: float | None
    epsilon: float

    @property
    def epsilon_exceeds_bound(self) -> bool:
        return self.epsilon_min is not None and self.epsilon > self.epsilon_min


def _split(rp: RotatedProblem, target: int) -> tuple[np.ndarray, np.ndarray, float]:
    """One target as rotate split it: c, its coordinates z = c/s inside
    span(U) and R0, its energy outside."""
    c = target_column(rp, target)
    return c, c / rp.s, float(rp.residual_sq_norms[target])


# The E-step without input checks, shared with the em_fit loop, which
# computes inv = 1/(s_j^2 + 1/tau2) once per iteration; z and r0 come from
# _split.
def _esn(rp: RotatedProblem, alpha, inv, tau2: float, sigma2: float) -> float:
    return float(alpha @ alpha) + sigma2 * (float(np.sum(inv)) + tau2 * rp.n_dropped_directions)


def _ess(rp: RotatedProblem, alpha, z, r0: float, inv, sigma2: float) -> tuple[float, float]:
    d = z - rp.s * alpha
    rss = r0 + float(d @ d)
    return rss + sigma2 * float(rp.s2 @ inv), rss


def _checked_inv(rp: RotatedProblem, tau2: float, sigma2: float) -> np.ndarray:
    """inv = 1/(s_j^2 + 1/tau2) for the public E-step functions, once tau2 is
    checked positive and sigma2 at least 0 (data.real)."""
    real("tau2", tau2)
    real("sigma2", sigma2, positive=False)
    return 1.0 / (rp.s2 + 1.0 / tau2)


def expected_squared_norm(
    rp: RotatedProblem, alpha: np.ndarray, tau2: float, sigma2: float
) -> float:
    """Posterior-expected ||beta||^2 given (tau2, sigma2).

    ESN = ||alpha||^2 + sigma2 * ( sum_j 1/(s_j^2 + 1/tau2)
                                   + tau2 * (p - r') ).

    alpha must be the rotated ridge solution at lambda = 1/tau2. The second
    term is the posterior-covariance trace; coefficient directions with zero
    singular value each contribute sigma2 * tau2 to it. Raises DataError
    unless tau2 is a positive real number and sigma2 one of at least 0
    (data.real), as expected_sse does.
    """
    inv = _checked_inv(rp, tau2, sigma2)
    return _esn(rp, np.asarray(alpha, dtype=float), inv, tau2, sigma2)


def expected_sse(
    rp: RotatedProblem,
    alpha: np.ndarray,
    tau2: float,
    sigma2: float,
    target: int = 0,
) -> tuple[float, float]:
    """Posterior-expected sum of squared errors, and the plug-in RSS.

    RSS = R0 + ||c/s - s * alpha||^2
    ESS = RSS + sigma2 * sum_j s_j^2/(s_j^2 + 1/tau2)

    RSS is ||y - U diag(s) alpha||^2 for any alpha, split by rotate into the
    energy R0 outside span(U) and a sum of squares over the spectrum, so it
    is never negative. Raises DataError unless tau2 is a positive real number
    and sigma2 one of at least 0 (data.real).
    """
    inv = _checked_inv(rp, tau2, sigma2)
    _, z, r0 = _split(rp, target)
    return _ess(rp, np.asarray(alpha, dtype=float), z, r0, inv, sigma2)


def m_step(ess: float, esn: float, n: int, p: int) -> tuple[float, float]:
    """Exact joint minimizer of the EM objective over (tau2, sigma2).

    With rho = ESN/ESS, tau2_hat is the positive root of
    (p+3) t^2 + b t - c = 0, b = (p+1) - (n-1) rho, c = (n+1) rho:

        tau2_hat   = 2c / (b + root)            if b > 0
                   = (root - b) / (2(p+3))      otherwise,
        root       = sqrt(b^2 + 4(p+3) c)
        sigma2_hat = ESS (tau2_hat + rho) / ((n+p+2) tau2_hat)

    Each branch adds terms of one sign, so neither cancels. tau2_hat depends
    on ESS and ESN only through rho, and sigma2_hat is ESS times a function
    of rho: scaling both statistics by a power of two leaves tau2_hat
    bitwise and scales sigma2_hat by it exactly. Both outputs are positive
    whenever rho is, but can leave the range of a double (c = (n+1) rho
    overflows for rho near 1.8e308/(n+1)).

    Raises DegenerateProblemError unless ESS > 0 and ESN/ESS is positive and
    finite, and unless both outputs are positive and finite: the update is
    defined exactly where it returns. n and p are not checked as counts:
    em_fit calls m_step every iteration with the problem's own n and p, and
    one data.count call costs about as much as the whole step (0.5-0.9 us
    against 0.6 us on a 2-vCPU x86 host).
    """
    if not (ess > 0 and 0 < esn / ess < math.inf):
        raise DegenerateProblemError("m_step requires ESS > 0 and ESN > 0, and a finite ESN/ESS")
    rho = esn / ess
    b, c = (p + 1.0) - (n - 1.0) * rho, (n + 1.0) * rho
    root = math.hypot(b, 2.0 * math.sqrt((p + 3.0) * c))
    tau2_hat = 2.0 * c / (b + root) if b > 0 else (root - b) / (2.0 * (p + 3.0))
    sigma2_hat = ess * ((tau2_hat + rho) / ((n + p + 2.0) * tau2_hat))
    if not (0 < tau2_hat < math.inf and 0 < sigma2_hat < math.inf):
        raise DegenerateProblemError("m_step's update leaves the positive finite reals")
    return tau2_hat, sigma2_hat


def q_function(tau2: float, sigma2: float, ess: float, esn: float, n: int, p: int) -> float:
    """Expected complete-data negative log-posterior, up to an additive
    constant; the quantity the M-step minimizes at fixed (ESS, ESN).

    Q = ((n+p+2)/2) log sigma2 + ESS/(2 sigma2)
        + ((p+1)/2) log tau2 + ESN/(2 sigma2 tau2) + log(1 + tau2)

    tau2, sigma2, ess and esn are positive real numbers (data.real), and n
    and p counts of at least 1 (data.count), or DataError naming the first
    that is not.
    """
    real("tau2", tau2)
    real("sigma2", sigma2)
    real("ess", ess)
    real("esn", esn)
    count("n", n, 1)
    count("p", p, 1)
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
    with RSS = R0 + ||c/s - s * alpha||^2 as in expected_sse, applies the
    closed-form M-step, and stops once
    delta = |RSS_old - RSS| / ||y||^2 < cfg.tol or the iteration cap is
    reached. The returned alpha/beta are recomputed at the final tau2.
    Every step is homogeneous in y: a*y gives the same tau2 and k, a*beta
    and a^2*sigma2, bitwise when a is a power of two. So the loop runs on
    y * 2^-j, with 2^j the power of two nearest ||y||, and scales alpha and
    sigma2 back exactly: no statistic leaves the range of a double while
    ||y||^2 stays inside it, though ESN starts near (p - r')/n * ||y||^2.

    A target that is exactly zero raises DegenerateProblemError ("has zero
    variance after centering"; pipeline.fit names the target); standardize
    refuses a constant target before that, so this covers rotated problems
    built by hand. If the statistics collapse during iteration, m_step
    raises (ESS or ESN underflows to zero or overflows, or the update leaves
    the positive finite reals; tau2 can overflow one step before ESS
    underflows) and the penalty has no finite optimum: the loop stops there
    with tau2 = +inf, so the fit is degenerate, unconverged with delta_final
    NaN, sigma2 is the last finite iterate, and alpha/beta are the
    minimum-norm least-squares solution (the lambda -> 0 limit).
    """
    n, p = rp.n, rp.p
    if n < 2:
        raise DataError("em_fit requires n >= 2")

    c, z, r0 = _split(rp, target)
    y2 = float(rp.y_sq_norms[target])
    if y2 == 0.0:
        raise DegenerateProblemError("has zero variance after centering")
    # The loop runs on y * 2^-j, whose squared norm lies in [0.5, 2), and
    # scales alpha and sigma2 back: exact, as every step is homogeneous in y.
    j = math.frexp(y2)[1] // 2
    c, z = np.ldexp(c, -j), np.ldexp(z, -j)
    r0, y2 = math.ldexp(r0, -2 * j), math.ldexp(y2, -2 * j)

    tau2 = 1.0
    sigma2 = y2 / n
    rss = math.inf
    delta = math.inf
    k = 0
    while k < cfg.max_iterations:
        rss_old = rss
        inv = 1.0 / (rp.s2 + 1.0 / tau2)
        alpha = c * inv
        esn = _esn(rp, alpha, inv, tau2, sigma2)
        ess, rss = _ess(rp, alpha, z, r0, inv, sigma2)
        k += 1
        try:
            tau2, sigma2 = m_step(ess, esn, n, p)
        except DegenerateProblemError:  # collapse: sigma2 keeps its last iterate
            tau2, delta = math.inf, math.nan
            break
        delta = abs(rss_old - rss) / y2
        if delta < cfg.tol:
            break

    alpha = np.ldexp(c / (rp.s2 + 1.0 / tau2), j)  # at tau2 = inf, the minimum-norm c / s2
    return EmFit(
        alpha=alpha,
        beta=recover_beta(rp, alpha),
        tau2=tau2,
        sigma2=math.ldexp(sigma2, 2 * j),
        k=k,
        converged=delta < cfg.tol,
        delta_final=delta,
    )


def tau_update_fixed_variance(w: float, p: int) -> float:
    """Stationary tau update for the p-means model with unit noise variance.

    tau_hat = sqrt( (w - p + sqrt(p^2 + 8w + 2pw + w^2)) / (2(2+p)) )

    where w, the current expected squared norm of the means, is a real
    number of at least 0 (data.real), and p, the number of means, a count of
    at least 1 (data.count).
    """
    real("w", w, positive=False)
    count("p", p, 1)
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
    values survived (s2 comes from the compact decomposition, so a missing
    entry is a direction whose s^2 fell below compact_svd's resolution
    floor, indistinguishable from zero). A unique mode with tau^2 >= epsilon
    is certified when gamma_n > 0 and epsilon > 4/(n*gamma_n). n and p are
    counts of at least 1 (data.count) and epsilon a positive real number
    (data.real).
    """
    count("n", n, 1)
    count("p", p, 1)
    real("epsilon", epsilon)
    s2 = np.asarray(s2, dtype=float).ravel()
    gamma_n = float(np.min(s2)) / n if s2.shape[0] >= p else 0.0
    epsilon_min = 4.0 / (n * gamma_n) if gamma_n > 0 else None
    return UnimodalityDiagnostic(gamma_n=gamma_n, epsilon_min=epsilon_min, epsilon=epsilon)


def sample_size_threshold(c: float, alpha: float, epsilon: float) -> float:
    """Smallest n beyond which eigenvalue decay gamma_n = c * n^-alpha still
    certifies a unique mode at radius epsilon: n > (4/(c*epsilon))^(1/(1-alpha)).

    c and epsilon are positive real numbers, alpha one of at least 0
    (data.real) and below 1, or DataError naming the argument."""
    real("c", c)
    real("alpha", alpha, positive=False)
    real("epsilon", epsilon)
    if not alpha < 1:
        raise DataError("alpha must lie in [0, 1)")
    return (4.0 / (c * epsilon)) ** (1.0 / (1.0 - alpha))
