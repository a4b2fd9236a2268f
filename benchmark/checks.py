"""Correctness oracle for the benchmark, independent of fastridge's fast path.

Everything here is built from the raw inputs with plain numpy: the
benchmark's own standardization, a spectrum from a general SVD (not the
Gram-matrix route the library takes), and dense solves for PRESS. Each
check returns an error message, or None when the output is correct.

Tolerances are relative and fixed here, so a change to the program can
never loosen them:

* normal equations: ||(Xs'Xs + lam I) b - Xs'y|| <= NORMAL_EQ_RTOL *
  (s_max^2 ||b|| + ||Xs'y||), computed with matrix-vector products only;
* intercepts: |b0 - (ybar - xbar'beta)| <= INTERCEPT_RTOL * scale;
* EM fixed point: one EM step from the reported (tau2, sigma2) moves the
  fitted values X beta by at most EM_FIXED_POINT_RTOL * ||y|| and log
  sigma2 by at most EM_FIXED_POINT_RTOL;
* LOOCV: the reported CVE at lambda* equals a dense PRESS to CVE_RTOL;
* predictions: equal X @ beta + b0 to PREDICT_RTOL of their scale.
"""

from __future__ import annotations

import math

import numpy as np

NORMAL_EQ_RTOL = 1e-10
INTERCEPT_RTOL = 1e-10
EM_FIXED_POINT_RTOL = 1e-6
CVE_RTOL = 1e-9
PREDICT_RTOL = 1e-12

# A fit whose penalty shrinks every direction by more than this factor is
# numerically the null fit: tau2 sits at the lower boundary.
_LOWER_BOUNDARY_SHRINK = 1e-4
# In a rank-deficient design, tau2 * s_min^2 above this is the upper
# boundary (the penalty no longer acts on any direction).
_UPPER_BOUNDARY_RATIO = 1e6


class Reference:
    """Standardized copy of one dataset plus what the checks need."""

    def __init__(self, X: np.ndarray, Y: np.ndarray):
        n, p = X.shape
        self.n, self.p = n, p
        self.x_mean = X.mean(axis=0)
        self.x_sd = X.std(axis=0, ddof=1)
        if np.any(self.x_sd == 0):
            raise ValueError("benchmark inputs must have no constant column")
        self.Xs = (X - self.x_mean) / self.x_sd
        self.y_mean = Y.mean(axis=0)
        self.Yc = Y - self.y_mean
        self.Xty = self.Xs.T @ self.Yc
        self.y_sq = np.einsum("ij,ij->j", self.Yc, self.Yc)

        U, s, _ = np.linalg.svd(self.Xs, full_matrices=False)
        s = s[s > 100.0 * max(n, p) * np.spacing(s[0])]
        self.s2 = s * s
        self.uty = U[:, : s.size].T @ self.Yc
        self.rank = s.size
        # Dense Gram for PRESS: p x p when n >= p, else the n x n kernel.
        self.gram = self.Xs.T @ self.Xs if n >= p else self.Xs @ self.Xs.T

    # -- ridge normal equations -------------------------------------------

    def check_normal_equations(
        self, beta_raw: np.ndarray, intercepts: np.ndarray, lambdas
    ) -> str | None:
        beta_raw = np.asarray(beta_raw, dtype=float).reshape(self.p, -1)
        intercepts = np.asarray(intercepts, dtype=float).ravel()
        b = beta_raw * self.x_sd[:, None]  # standardized coefficients
        s2_max = float(self.s2[0])
        for t, lam in enumerate(lambdas):
            bt = b[:, t]
            resid = self.Xs.T @ (self.Xs @ bt) + lam * bt - self.Xty[:, t]
            scale = s2_max * np.linalg.norm(bt) + np.linalg.norm(self.Xty[:, t])
            err = np.linalg.norm(resid) / scale
            if not err <= NORMAL_EQ_RTOL:
                return f"target {t}: normal-equation residual {err:.3e} > {NORMAL_EQ_RTOL}"
            b0 = self.y_mean[t] - self.x_mean @ beta_raw[:, t]
            b0_scale = abs(self.y_mean[t]) + np.abs(self.x_mean) @ np.abs(beta_raw[:, t])
            if not abs(intercepts[t] - b0) <= INTERCEPT_RTOL * max(b0_scale, 1.0):
                return f"target {t}: intercept {intercepts[t]!r} != {b0!r}"
        return None

    # -- EM -----------------------------------------------------------------

    def em_step(self, t: int, tau2: float, sigma2: float) -> tuple[float, float]:
        """One EM step for target t, from the E/M formulas of the model
        y ~ N(X b, sigma2 I), b ~ N(0, sigma2 tau2 I), half-Cauchy on tau.

        E-step, in the SVD basis (c = s * U'y, d = s^2 + 1/tau2):
          alpha = c / d
          ESN = ||alpha||^2 + sigma2 (sum 1/d + tau2 (p - r))
          ESS = ||y - U (s alpha)||^2 + sigma2 sum s^2/d
        M-step: minimize ((n+p+2)/2) log sigma2 + (ESS + ESN/tau2)/(2 sigma2)
          + ((p+1)/2) log tau2 + log(1 + tau2); profiling sigma2 out gives
          the quadratic (p+3) ESS t^2 + ((p+1) ESS - (n-1) ESN) t
          - (n+1) ESN = 0 for t = tau2, whose positive root is taken.
        """
        n, p = self.n, self.p
        s2 = self.s2
        s = np.sqrt(s2)
        uty = self.uty[:, t]
        d = s2 + 1.0 / tau2
        alpha = s * uty / d
        esn = alpha @ alpha + sigma2 * (np.sum(1.0 / d) + tau2 * (p - self.rank))
        # Residual split into the part outside span(U) and the part inside.
        rss = (self.y_sq[t] - uty @ uty) + np.sum((uty - s * alpha) ** 2)
        ess = max(rss, 0.0) + sigma2 * np.sum(s2 / d)
        a = (p + 3.0) * ess
        b = (p + 1.0) * ess - (n - 1.0) * esn
        c = -(n + 1.0) * esn
        root = math.sqrt(b * b - 4.0 * a * c)
        # Cancellation-free positive root of a t^2 + b t + c (a > 0 > c).
        tau2_new = (-b + root) / (2.0 * a) if b <= 0 else (-2.0 * c) / (b + root)
        sigma2_new = (tau2_new * ess + esn) / ((n + p + 2.0) * tau2_new)
        return tau2_new, sigma2_new

    def check_em_fixed_point(self, t: int, tau2: float, sigma2: float) -> str | None:
        if not (math.isfinite(tau2) and tau2 > 0 and sigma2 > 0):
            return f"target {t}: tau2={tau2!r}, sigma2={sigma2!r} are not an EM state"
        tau2_new, sigma2_new = self.em_step(t, tau2, sigma2)
        # ||X b(tau2_new) - X b(tau2)||, from the spectrum.
        s2 = self.s2
        moved = float(np.linalg.norm((s2 / (s2 + 1.0 / tau2_new) - s2 / (s2 + 1.0 / tau2)) * self.uty[:, t]))
        limit = EM_FIXED_POINT_RTOL * math.sqrt(self.y_sq[t])
        if not moved <= limit:
            return (
                f"target {t}: one EM step moves the fit by {moved:.3e} "
                f"(limit {limit:.3e}; tau2 {tau2!r} -> {tau2_new!r})"
            )
        if not abs(math.log(sigma2_new / sigma2)) <= EM_FIXED_POINT_RTOL:
            return f"target {t}: one EM step moves sigma2 {sigma2!r} -> {sigma2_new!r}"
        return None

    def at_em_boundary(self, tau2: float) -> bool:
        """tau2 has drifted to a boundary of its range, judged from the
        spectrum: every direction shrunk to nothing, or (rank-deficient
        designs only) the penalty negligible against every direction."""
        if not math.isfinite(tau2):
            return True
        if tau2 * self.s2[0] < _LOWER_BOUNDARY_SHRINK:
            return True
        return self.rank < self.p and tau2 * self.s2[-1] > _UPPER_BOUNDARY_RATIO

    # -- LOOCV --------------------------------------------------------------

    def dense_press(self, t: int, lam: float) -> float:
        """Mean squared leave-one-out residual at one penalty, from a dense
        solve of the ridge system (no spectrum, no shortcut formulas)."""
        y = self.Yc[:, t]
        if self.n >= self.p:
            A = self.gram + lam * np.eye(self.p)
            A_inv_xt = np.linalg.solve(A, self.Xs.T)
            one_minus_h = 1.0 - np.einsum("ij,ji->i", self.Xs, A_inv_xt)
            resid = y - self.Xs @ (A_inv_xt @ y)
            loo = resid / one_minus_h
        else:
            # Kernel form: y_i - yhat_{-i} = [(K + lam I)^-1 y]_i / [(K + lam I)^-1]_ii.
            M = np.linalg.inv(self.gram + lam * np.eye(self.n))
            loo = (M @ y) / np.diag(M)
        return float(loo @ loo) / self.n

    def check_cve(self, t: int, lam_star: float, cve_star: float) -> str | None:
        dense = self.dense_press(t, lam_star)
        if not abs(cve_star - dense) <= CVE_RTOL * dense:
            return f"target {t}: CVE {cve_star!r} != dense PRESS {dense!r} at lambda {lam_star!r}"
        return None


def check_predictions(
    X_new: np.ndarray, beta_raw: np.ndarray, intercepts: np.ndarray, Y_hat: np.ndarray
) -> str | None:
    beta_raw = np.asarray(beta_raw, dtype=float).reshape(X_new.shape[1], -1)
    expected = X_new @ beta_raw + np.asarray(intercepts, dtype=float)
    Y_hat = np.asarray(Y_hat, dtype=float).reshape(expected.shape)
    scale = np.abs(X_new) @ np.abs(beta_raw) + np.abs(intercepts)
    err = np.max(np.abs(Y_hat - expected) / np.maximum(scale, 1e-300))
    if not err <= PREDICT_RTOL:
        return f"predictions differ from X @ beta + b by {err:.3e} (relative)"
    return None
