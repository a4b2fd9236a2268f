"""Compact SVD via the smaller Gram matrix, and the rotated ridge problem.

The decomposition is always obtained from a symmetric eigendecomposition of
X'X (n >= p) or XX' (n < p), never a general SVD, so the preprocessing cost
is O(max(n,p) * min(n,p)^2). It stores that eigen factor W, the singular
values s and a reference to X, which must not be modified while it is in
use; the factors U and V follow from them by one rule and are formed only
where read. The rotated problem both solvers read is that decomposition
plus its targets, in one type: squared singular values s^2, rotated targets
c = s * (U'y) and each target's energy outside span(U),
R0 = ||(I - UU')y||^2. EM reads only those; LOOCV's leverages read U, and
the map back goes through W (and X when n < p).
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

    Stored are W, s and X (by reference). With A = X when n >= p and A = X'
    otherwise, W holds the kept eigenvectors of A'A, and U and V follow one
    rule: the factor on A's column side is W, and the other is A W / s,
    formed on first read and cached, as is s2 = s**2. So U = X W / s (tall)
    and V = X' W / s (wide) are made only where read. n_dropped_directions
    counts the p - r' coefficient directions whose s^2 is below the
    resolution floor.
    """

    W: np.ndarray
    s: np.ndarray
    X: np.ndarray

    def _times_w_over_s(self, A: np.ndarray) -> np.ndarray:
        """A W / s, divided in place: the product is the one array made."""
        AW = A @ self.W
        return np.divide(AW, self.s, out=AW)

    @cached_property
    def U(self) -> np.ndarray:
        return self.W if self.n < self.p else self._times_w_over_s(self.X)

    @cached_property
    def V(self) -> np.ndarray:
        return self.W if self.n >= self.p else self._times_w_over_s(self.X.T)

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
    side; the other, A W S^-1, is left to be formed on first read (U when
    A = X, V when A = X'). The eigenvalues s^2 carry an
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
    and max(), and the decomposition itself makes only the min(n,p)-sized
    Gram matrix and W. A W S^-1, when read, is divided by s in place, so its
    one n x r' (or p x r') array is the factor itself.
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
    return CompactSvd(W=W, s=s, X=X)


def rotate(svd: CompactSvd, Y: np.ndarray) -> RotatedProblem:
    """Build the rotated problem on svd's own W, s and X: with z_t = U' y_t,
    c_t = s * z_t and R0_t = ||y_t - U z_t||^2, summed from the residual
    itself (one n x q temporary), so it does not cancel where y_t lies
    almost inside span(U). Neither U nor V is formed: when n < p, U = W,
    and when n >= p, z = W'(X'Y)/s and U z = X (W z/s). The problem caches
    its own U, V and s2, as a decomposition does. A Y that is not 1-D or
    2-D, one with no columns, a non-finite target, or one whose y_sq_norms
    overflows, raises DataError."""
    Y = np.asarray(Y, dtype=float)
    if Y.ndim == 1:
        Y = Y[:, None]
    if Y.ndim != 2:
        raise DataError("Y must be 1-D or 2-D")
    if Y.shape[1] == 0:
        raise DataError("Y has no columns: there is no target to rotate")
    if Y.shape[0] != svd.n:
        raise DataError(f"Y has {Y.shape[0]} rows, expected {svd.n}")
    if not all_finite(Y):
        raise DataError("non-finite entries in Y")
    z = svd.W.T @ Y if svd.n < svd.p else svd.W.T @ (svd.X.T @ Y) / svd.s[:, None]
    r = svd.W @ z if svd.n < svd.p else svd.X @ (svd.W @ (z / svd.s[:, None]))
    np.subtract(Y, r, out=r)  # r = Y - U z in place
    r0 = np.einsum("ij,ij->j", r, r)
    rp = RotatedProblem(W=svd.W, s=svd.s, X=svd.X, c=svd.s[:, None] * z, residual_sq_norms=r0)
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
    """Map a rotated solution back through W: beta = W @ alpha (= V alpha,
    O(p r')) when n >= p, and beta = X' (W (alpha / s)) (O(n p)) when
    n < p, which leaves V unformed."""
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape[0] != rp.rank:
        raise DataError(f"alpha has length {alpha.shape[0]}, expected {rp.rank}")
    if rp.n < rp.p:
        return rp.X.T @ (rp.W @ (alpha.T / rp.s).T)
    return rp.W @ alpha
