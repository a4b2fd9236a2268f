"""Compact SVD via the smaller Gram matrix, and the rotated ridge problem.

The decomposition is always obtained from a symmetric eigendecomposition of
X'X (n >= p) or XX' (n < p), never a general SVD, so the preprocessing cost
is O(max(n,p) * min(n,p)^2). Both solvers share the resulting cache: squared
singular values s^2, rotated targets c = s * (U'y), and the factor U. When
n < p, V is formed only on first read and the map back goes through X, so
the decomposition keeps a reference to X, which must not be modified while
the decomposition is in use.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter

import numpy as np

from .exceptions import DataError

# Multiples of ulp(s_max) below which a singular value counts as zero.
_DROP_SAFETY = 100.0


@dataclass(frozen=True)
class CompactSvd:
    """X = U diag(s) V' restricted to the r' singular values above the drop
    threshold; s is descending, U (n x r') and V (p x r') semi-orthonormal.

    X, the decomposed matrix, is held by reference. When n < p, V = X' U / s
    is formed on first read.
    """

    U: np.ndarray
    s: np.ndarray
    X: np.ndarray

    @cached_property
    def V(self) -> np.ndarray:
        return self.X.T @ self.U / self.s

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    @property
    def rank(self) -> int:
        return self.s.shape[0]


@dataclass(frozen=True)
class RotatedProblem:
    """The r'-dimensional equivalent ridge problem plus what LOOCV needs.

    c[:, t] = s * (U' y_t); y_sq_norms[t] = ||y_t||^2. U, V, n and p are
    those of the decomposition svd. n_dropped_directions counts the p - r'
    coefficient directions with zero singular value.
    """

    s2: np.ndarray
    c: np.ndarray
    y_sq_norms: np.ndarray
    svd: CompactSvd

    U = property(attrgetter("svd.U"))
    V = property(attrgetter("svd.V"))
    n = property(attrgetter("svd.n"))
    p = property(attrgetter("svd.p"))

    @property
    def rank(self) -> int:
        return self.s2.shape[0]

    @property
    def n_dropped_directions(self) -> int:
        return self.p - self.rank

    @property
    def q(self) -> int:
        return self.c.shape[1]


def compact_svd(X: np.ndarray) -> CompactSvd:
    """Compact SVD of X through the smaller Gram matrix.

    One route for both shapes: with A = X when n >= p and A = X' otherwise,
    A'A = W S^2 W' is eigendecomposed, and W is the factor on A's column
    side: (U, V) = (A W S^-1, W) when A = X, and U = W when A = X', with V =
    A W S^-1 left to be formed on first read. Negative eigenvalues are
    clamped to zero and singular values at or below
    100 * max(n,p) * ulp(s_max) are dropped; an all-zero X yields rank zero
    rather than an error. The factors are unique only up to a sign shared by
    a column of U and the same column of V, and they keep the signs eigh
    gives W. No output depends on them: every solver statistic is a square,
    or a product in which a column and its coefficient c = s * (U'y) change
    sign together.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise DataError("X must be 2-D")
    n, p = X.shape
    if n < 1 or p < 1:
        raise DataError("need n >= 1 and p >= 1")
    if not np.all(np.isfinite(X)):
        raise DataError("non-finite entries in X")

    A = X if n >= p else X.T
    evals, W = np.linalg.eigh(A.T @ A)
    # eigh returns ascending order; a stable argsort on the negated values
    # keeps equal eigenvalues in original-index order.
    order = np.argsort(-evals, kind="stable")
    s = np.sqrt(np.maximum(evals[order], 0.0))
    keep = s > _DROP_SAFETY * max(n, p) * np.spacing(s[0])
    s = s[keep]
    W = W[:, order][:, keep]
    svd = CompactSvd(U=A @ W / s if n >= p else W, s=s, X=X)
    if n >= p:
        object.__setattr__(svd, "V", W)  # V = W is free: fill the cached property
    return svd


def rotate(svd: CompactSvd, Y: np.ndarray) -> RotatedProblem:
    """Build the rotated problem: c_t = s * (U' y_t), y_sq_norms[t] = y_t'y_t."""
    Y = np.asarray(Y, dtype=float)
    if Y.ndim == 1:
        Y = Y[:, None]
    if Y.shape[0] != svd.n:
        raise DataError(f"Y has {Y.shape[0]} rows, expected {svd.n}")
    c = svd.s[:, None] * (svd.U.T @ Y)
    y_sq_norms = np.einsum("ij,ij->j", Y, Y)
    return RotatedProblem(s2=svd.s**2, c=c, y_sq_norms=y_sq_norms, svd=svd)


def target_column(rp: RotatedProblem, target: int) -> np.ndarray:
    """c[:, target], the rotated target every solver reads; an index outside
    0..q-1, negative ones included, raises DataError."""
    if not 0 <= target < rp.q:
        raise DataError(f"target {target} out of range for q={rp.q}")
    return rp.c[:, target]


def rotated_ridge_solution(rp: RotatedProblem, lam: float, target: int = 0) -> np.ndarray:
    """alpha_j = c_{j,t} / (s_j^2 + lambda), the O(r') ridge solve in the
    rotated coordinates (lambda = 1/tau^2 for the EM caller)."""
    if not lam > 0:  # also rejects NaN
        raise DataError("lambda must be positive")
    return target_column(rp, target) / (rp.s2 + lam)


def recover_beta(rp: RotatedProblem, alpha: np.ndarray) -> np.ndarray:
    """Map a rotated solution back: beta = V @ alpha (O(p r')) when n >= p,
    and beta = X' (U (alpha / s)) (O(n p)) when n < p, which leaves V unread."""
    svd = rp.svd
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape[0] != svd.rank:
        raise DataError(f"alpha has length {alpha.shape[0]}, expected {svd.rank}")
    if svd.n < svd.p:
        return svd.X.T @ (svd.U @ (alpha.T / svd.s).T)
    return svd.V @ alpha
