"""Fast leave-one-out cross-validation for ridge on the rotated problem.

Every candidate lambda is scored with the PRESS shortcut: the full-data
residuals and the hat-matrix diagonals give the exact LOOCV error without
refitting, at O(n * r') per lambda. One scorer serves every entry point
(loocv_fits for all targets, loocv_fit for one, press for one penalty): it
scores the targets in passes of at most _PASS_PAIRS = 1024 (target,
penalty) pairs, whole targets together, and each pass walks the rows of U
in blocks of about 1 MiB of residuals, with one matrix product for 1 - h
(shared by the pass's targets when they share a grid) and one for the
residuals. Grid construction (a fixed log-spaced ladder and a data-driven
heuristic) lives here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import count, floats, real
from .decomposition import RotatedProblem, recover_beta, rotated_ridge_solution, target_column
from .exceptions import DataError, DegenerateProblemError

# Leverages this close to 1 make the PRESS denominator meaningless.
_LEVERAGE_CEILING = 1.0 - 1e-12

# Relative slack when validating that consecutive grid ratios are constant.
_RATIO_TOL = 1e-12

# Penalties per LOOCV grid unless a caller asks for another length.
GRID_LENGTH = 100

# Bytes of a row block's residuals, b x (g * l) doubles for the g targets
# and l penalties of one pass of the scorer: small enough that a fit's work
# arrays stay far below U's size.
_BLOCK_BYTES = 1 << 20

# Fewest rows in a block: tall enough that each block's products are
# efficient matrix products, which read the pass's r' x (g * l)
# coefficients once per block.
_BLOCK_ROWS = 128

# Most (target, penalty) pairs in one pass of the scorer, 1024: a block of
# _BLOCK_ROWS rows of their residuals takes _BLOCK_BYTES.
_PASS_PAIRS = _BLOCK_BYTES // (8 * _BLOCK_ROWS)


@dataclass(frozen=True)
class LambdaGrid:
    """Descending, log-spaced candidate penalties.

    values must be a nonempty 1-D array (data.floats), strictly positive and
    strictly descending with a constant consecutive ratio (within 1e-12
    relative); a single-value grid is allowed and trivially satisfies both.
    Which rule made the grid is the fit method's to record, not the grid's.
    """

    values: np.ndarray

    def __post_init__(self):
        values = floats("grid values", self.values, None)
        object.__setattr__(self, "values", values)
        if values.size < 1:
            raise DataError("grid must be nonempty")
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
    the winning penalty, the property lambda_star (_first_minimum)."""

    grid: LambdaGrid
    cve: np.ndarray
    beta: np.ndarray

    @property
    def lambda_star(self) -> float:
        return _first_minimum(self.grid, self.cve)


def _first_minimum(grid: LambdaGrid, cve: np.ndarray) -> float:
    """The grid value at the first CVE minimum: of tied penalties, the
    earliest entry of the descending grid, hence the largest, as in model
    files."""
    return float(grid.values[np.argmin(cve)])


def _typed(name: str, grid) -> LambdaGrid:
    """``grid`` when it is a LambdaGrid, or DataError naming it."""
    if not isinstance(grid, LambdaGrid):
        raise DataError(f"{name} must be a LambdaGrid, not {type(grid).__name__}")
    return grid


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
    of two. l is an integer (not a bool) of at least 2, X_std is n x p and
    y_centered 1-D of length n (data.floats), or DataError.
    """
    count("l", l, 2)
    X_std = floats("X_std", X_std, None, None)
    n, p = X_std.shape
    y = floats("y_centered", y_centered, n)
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


def _cve(rp: RotatedProblem, Y: np.ndarray, targets: list, lams: np.ndarray) -> np.ndarray:
    """CVE of each target of ``targets`` (columns of rp.c, whose centered
    columns Y holds, n x q) at each of its penalties: row t of lams (q x l,
    positive) holds target t's, or lams is 1 x l when every target has the
    same ones. Returns q x l.

    The (target, penalty) pairs are scored in passes of at most
    _PASS_PAIRS (1024) pairs: groups of whole targets, or
    slices of one target's grid when the grid alone is wider. Each pass
    walks the rows in blocks of at least _BLOCK_ROWS (_pass), so its
    arrays stay near _BLOCK_BYTES whatever n, q or l. The first target in
    target order whose leverage saturates at some penalty raises at its
    first such penalty in grid order; the passes run in that order, and a
    pass scores all of its targets and penalties before it raises.
    """
    q, l = len(targets), lams.shape[1]
    width = min(l, _PASS_PAIRS)  # penalties per pass
    group = _PASS_PAIRS // width  # targets per pass
    cve = np.empty((q, l))
    for t0 in range(0, q, group):
        ts = slice(t0, t0 + group)
        for j0 in range(0, l, width):
            js = slice(j0, j0 + width)
            part = lams[:, js] if lams.shape[0] == 1 else lams[ts, js]
            cve[ts, js] = _pass(rp, Y[:, ts], targets[ts], part)
    cve /= rp.n
    return cve


def _pass(rp: RotatedProblem, Y: np.ndarray, targets: list, lams: np.ndarray) -> np.ndarray:
    """n times the CVE of one pass of _cve, g x l for its g targets at l
    penalties (lams is g x l, or 1 x l shared by the targets).

    The rows are walked in blocks of _BLOCK_BYTES // (8 max(g l, r')) rows
    but at least _BLOCK_ROWS, so a block's b x (g l) residuals and its
    U_b*U_b (b x r') take about _BLOCK_BYTES each, unless r' is so wide
    that _BLOCK_ROWS rows of it take more. Each block forms 1 - h from
    U_b*U_b in one product, once for all targets when lams is 1 x l, and
    the residuals of every target in another, and adds the block's sum
    of (e / (1 - h))^2. Saturation flags are collected per (target,
    penalty) across blocks; the first target with one raises at its first
    flagged penalty, counting the observations there and naming the first
    few, and the error's ``target`` attribute is that target's index in rp.
    """
    n, rank, g, (k, l) = rp.n, rp.rank, len(targets), lams.shape
    s, s2 = rp.s[:, None, None], rp.s2[:, None, None]
    c, lam = rp.c[:, targets][:, :, None], lams[None]
    complement = rank == n
    d = s2 + lam
    if complement:  # G = w, the weights of 1 - h and of e = U (w * U'y)
        G = lam / d
        M = G * (c / s)
    else:  # G = s^2 / (s^2 + lambda), the weights of h; U M is the fit
        G = s2 / d
        M = c / d
        M *= s
    del d
    G, M = G.reshape(rank, k * l), M.reshape(rank, g * l)

    def one_minus_h(U_b):
        out = (U_b * U_b) @ G
        if not complement:
            np.subtract(1.0, out, out=out)
        return out

    b = max(_BLOCK_ROWS, _BLOCK_BYTES // (8 * max(g * l, rank)))
    blocks = range(0, n, b)
    floor = 1.0 - _LEVERAGE_CEILING
    saturated = np.zeros(k * l, dtype=bool)
    total = np.zeros((g, l))
    for a in blocks:
        U_b = rp.U[a : a + b]
        omh = one_minus_h(U_b)
        saturated |= (omh <= floor).any(axis=0)
        if saturated.any():
            continue  # an error follows: only the flags are still needed
        e = (U_b @ M).reshape(-1, g, l)
        if not complement:
            np.subtract(Y[a : a + b, :, None], e, out=e)
        e /= omh.reshape(-1, k, l)
        total += np.einsum("bgl,bgl->gl", e, e)
        del omh, e  # before the next block allocates its own
    if saturated.any():
        flags = saturated.reshape(k, l)
        t = int(np.flatnonzero(flags.any(axis=1))[0])
        j = t * l + int(np.flatnonzero(flags[t])[0])
        rows = np.concatenate([a + np.flatnonzero(one_minus_h(rp.U[a : a + b])[:, j] <= floor) for a in blocks])
        more = f" and {rows.size - 5} more" if rows.size > 5 else ""
        exc = DegenerateProblemError(
            f"leverage saturated at {rows.size} observation(s) "
            f"{rows[:5].tolist()}{more}; LOOCV residuals are undefined there"
        )
        exc.target = targets[t]
        raise exc
    return total


def _one_target(rp: RotatedProblem, y: np.ndarray, target: int) -> np.ndarray:
    """y as the n x 1 column _cve reads, once y is checked 1-D of length n
    (data.floats) and the index of its target is checked."""
    y = floats("y", y, rp.n)[:, None]
    target_column(rp, target)
    return y


def _refit(rp: RotatedProblem, grid: LambdaGrid, cve: np.ndarray, target: int) -> LoocvFit:
    """The LoocvFit of a scored grid: beta at its _first_minimum."""
    alpha = rotated_ridge_solution(rp, _first_minimum(grid, cve), target)
    return LoocvFit(grid=grid, cve=cve, beta=recover_beta(rp, alpha))


def press(rp: RotatedProblem, y: np.ndarray, lam: float, target: int = 0) -> float:
    """Exact LOOCV mean squared error at one penalty, without refitting: the
    one-penalty case of the scorer loocv_fit runs over a whole grid.

    CVE = (1/n) * sum_i (e_i / (1 - h_i))^2 with e = y - U (s * alpha).
    y must be the same centered target column the rotated problem was built
    from, 1-D of length n (data.floats); the residuals need all n entries,
    which the rotated cache alone does not carry. Cost O(n * r').

    At full row rank (r' = n, so U is square-orthonormal), e and 1 - h are
    evaluated in the complement form
    e = U (w * U'y), 1 - h = (U*U) w with w = lam/(s^2 + lam): both are then
    sums of positive-weighted terms of size O(lam), instead of differences
    of O(1) quantities that cancel to O(lam), which at small penalties
    would cost ~log10(s_max^2/lam) digits. Both forms are per-row formulas.
    A centered design never has full row rank (its centering direction lies
    below compact_svd's resolution floor), so a fit on standardized data
    always takes the 1 - h form. lambda is a positive real number
    (data.real).
    """
    real("lambda", lam)
    y = _one_target(rp, y, target)
    return float(_cve(rp, y, [target], np.array([[lam]], dtype=float))[0, 0])


def loocv_fit(
    rp: RotatedProblem, y: np.ndarray, grid: LambdaGrid, target: int = 0
) -> LoocvFit:
    """Score every grid value as press would and refit at the winner: the
    one-target case of loocv_fits.

    y is 1-D of length n (data.floats) and grid a LambdaGrid, or DataError
    naming it. Ties at the minimum go to the largest lambda, i.e. the
    earliest entry of the descending grid, so the selection is deterministic.
    """
    y = _one_target(rp, y, target)
    grid = _typed("grid", grid)
    return _refit(rp, grid, _cve(rp, y, [target], grid.values[None])[0], target)


def loocv_fits(rp: RotatedProblem, Y: np.ndarray, grids) -> list:
    """One LoocvFit per target of rp, target t scored on grids[t] as
    loocv_fit would score it, whole targets scored together in each pass
    over the rows (up to _PASS_PAIRS, 1024, (target, penalty) pairs a
    pass).

    Y is the n x q matrix of centered targets rp was built from
    (data.floats), and grids holds q LambdaGrids of one length, or
    DataError naming the argument. When every grid holds the same values
    (the fixed grid), 1 - h is formed once per block for the pass's
    targets. A saturated leverage raises as loocv_fit does, at the first
    target in target order that has one, and the DegenerateProblemError
    carries that target's index as its ``target`` attribute.
    """
    Y = floats("Y", Y, rp.n, rp.q)
    if len(grids) != rp.q:
        raise DataError(f"{len(grids)} grids for q={rp.q} targets")
    grids = [_typed(f"grids[{t}]", grid) for t, grid in enumerate(grids)]
    if len({len(grid) for grid in grids}) > 1:
        raise DataError("grids must all have the same length")
    lams = np.stack([grid.values for grid in grids])
    if np.all(lams == lams[0]):
        lams = lams[:1]
    cve = _cve(rp, Y, list(range(rp.q)), lams)
    return [_refit(rp, grid, cve[t], t) for t, grid in enumerate(grids)]
