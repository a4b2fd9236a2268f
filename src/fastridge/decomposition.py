"""Compact SVD via the smaller Gram matrix, and the rotated ridge problem.

The decomposition is always obtained from a symmetric eigendecomposition of
X'X (n >= p) or XX' (n < p), never a general SVD, so the preprocessing cost
is O(max(n,p) * min(n,p)^2). The rotated problem both solvers read is that
decomposition plus its targets, in one type: the factor U, squared singular
values s^2, rotated targets c = s * (U'y) and each target's energy outside
span(U), R0 = ||(I - UU')y||^2. When n < p, V is formed only
on first read and the map back goes through X, so the decomposition keeps a
reference to X, which must not be modified while it is in use.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .data import all_finite, real
from .exceptions import DataError


@dataclass(frozen=True)
class CompactSvd:
    """X = U diag(s) V' restricted to the r' singular values whose squares
    clear compact_svd's resolution floor; s is descending, U (n x r') and V
    (p x r') semi-orthonormal.

    X, the decomposed matrix, is held by reference. When n < p, V = X' U / s
    is formed on first read, as is s2 = s**2. n_dropped_directions counts
    the p - r' coefficient directions whose s^2 is below the resolution
    floor.
    """

    U: np.ndarray
    s: np.ndarray
    X: np.ndarray

    @cached_property
    def V(self) -> np.ndarray:
        return self.X.T @ self.U / self.s

    @cached_property
    def s2(self) -> np.ndarray:
        return self.s**2

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    @property
    def rank(self) -> int:
        return self.s.shape[0]

    @property
    def n_dropped_directions(self) -> int:
        return self.p - self.rank


@dataclass(frozen=True)
class RotatedProblem(CompactSvd):
    """A decomposition plus its targets: the r'-dimensional equivalent ridge
    problem both solvers read. Each target y_t is split once, into its
    coordinates z_t = U' y_t inside span(U) and its energy outside it:

    c[:, t] = s * z_t; residual_sq_norms[t] = R0_t = ||y_t - U z_t||^2.

    The property y_sq_norms = R0 + ||c/s||^2 is ||y||^2, so ||y||^2 >= ||z||^2
    holds by construction.
    """

    c: np.ndarray
    residual_sq_norms: np.ndarray

    @property
    def q(self) -> int:
        return self.c.shape[1]

    @cached_property
    def y_sq_norms(self) -> np.ndarray:
        return self.residual_sq_norms + np.einsum("ij,ij->j", self.c, self.c / self.s2[:, None])


def compact_svd(X: np.ndarray) -> CompactSvd:
    """Compact SVD of X through the smaller Gram matrix.

    One route for both shapes: with A = X when n >= p and A = X' otherwise,
    A'A = W S^2 W' is eigendecomposed, and W is the factor on A's column
    side: (U, V) = (A W S^-1, W) when A = X, and U = W when A = X', with V =
    A W S^-1 left to be formed on first read. The eigenvalues s^2 carry an
    absolute error of about max(n,p) * eps * s_max^2, so that is the
    resolution floor: a direction is kept only when its s^2 lies above it.
    The kept directions are a prefix of the descending spectrum, and an
    all-zero X yields rank zero rather than an error. The factor formed as
    A W S^-1 is orthonormal only to about eps * (s_max / s_min)^2, since the
    rounding of A'A reaches its smallest directions divided by s_min^2;
    W is orthonormal to rounding. The factors are
    unique only up to a sign shared by a column of U and the same column of
    V, and they keep the signs eigh gives W. No output depends on them:
    every solver statistic is a square, or a product in which a column and
    its coefficient c = s * (U'y) change sign together.

    No temporary the size of X is made: the finiteness check reads min()
    and max(), and on the n >= p route U = X W is divided by s in place,
    so the one n x r' array is U itself. The n < p route makes only
    n x n arrays.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise DataError("X must be 2-D")
    n, p = X.shape
    if n < 1 or p < 1:
        raise DataError("need n >= 1 and p >= 1")
    if not all_finite(X):
        raise DataError("non-finite entries in X")

    A = X if n >= p else X.T
    evals, W = np.linalg.eigh(A.T @ A)
    s2 = evals[::-1]  # eigh is ascending
    r = np.count_nonzero(s2 > max(n, p) * np.finfo(float).eps * s2[0])
    s = np.sqrt(s2[:r])
    W = W[:, ::-1][:, :r].copy(order="F")  # each column contiguous
    if n < p:
        return CompactSvd(U=W, s=s, X=X)
    U = A @ W
    U /= s
    svd = CompactSvd(U=U, s=s, X=X)
    object.__setattr__(svd, "V", W)  # V = W is free: fill the cached property
    return svd


def rotate(svd: CompactSvd, Y: np.ndarray) -> RotatedProblem:
    """Build the rotated problem on svd's own arrays: with z_t = U' y_t,
    c_t = s * z_t and R0_t = ||y_t - U z_t||^2, summed from the residual
    itself (one n x q temporary), so it does not cancel where y_t lies
    almost inside span(U); what svd has formed (V, s2) is handed over.
    A non-finite target, or one whose y_sq_norms overflows, raises
    DataError."""
    Y = np.asarray(Y, dtype=float)
    if Y.ndim == 1:
        Y = Y[:, None]
    if Y.shape[0] != svd.n:
        raise DataError(f"Y has {Y.shape[0]} rows, expected {svd.n}")
    if not all_finite(Y):
        raise DataError("non-finite entries in Y")
    z = svd.U.T @ Y
    r = svd.U @ z
    np.subtract(Y, r, out=r)  # r = Y - U z in place
    r0 = np.einsum("ij,ij->j", r, r)
    rp = RotatedProblem(U=svd.U, s=svd.s, X=svd.X, c=svd.s[:, None] * z, residual_sq_norms=r0)
    # Hand over what svd has formed (V, s2), not a rotated svd's targets.
    vars(rp).update({name: vars(svd)[name] for name in vars(svd).keys() & vars(CompactSvd).keys()})
    if not all_finite(rp.y_sq_norms):
        raise DataError(f"target {np.flatnonzero(~np.isfinite(rp.y_sq_norms))[0]}: squared norm overflows")
    return rp


def target_column(rp: RotatedProblem, target: int) -> np.ndarray:
    """c[:, target], the rotated target every solver reads. The index is an
    integer in 0..q-1; anything else, negative ones, bools and floats such
    as 1.0 included, raises DataError."""
    if isinstance(target, bool) or not (isinstance(target, numbers.Integral) and 0 <= target < rp.q):
        raise DataError(f"target {target} out of range for q={rp.q}")
    return rp.c[:, target]


def rotated_ridge_solution(rp: RotatedProblem, lam: float, target: int = 0) -> np.ndarray:
    """alpha_j = c_{j,t} / (s_j^2 + lambda), the O(r') ridge solve in the
    rotated coordinates (lambda = 1/tau^2 for the EM caller). lambda is a
    positive real number (data.real)."""
    real("lambda", lam)
    return target_column(rp, target) / (rp.s2 + lam)


def recover_beta(rp: RotatedProblem, alpha: np.ndarray) -> np.ndarray:
    """Map a rotated solution back: beta = V @ alpha (O(p r')) when n >= p,
    and beta = X' (U (alpha / s)) (O(n p)) when n < p, which leaves V unread."""
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape[0] != rp.rank:
        raise DataError(f"alpha has length {alpha.shape[0]}, expected {rp.rank}")
    if rp.n < rp.p:
        return rp.X.T @ (rp.U @ (alpha.T / rp.s).T)
    return rp.V @ alpha
