"""Compact SVD via Gram eigendecomposition and the rotated ridge problem."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose

from fastridge.data import Dataset, standardize
from fastridge.decomposition import (
    compact_svd,
    recover_beta,
    rotate,
    rotated_ridge_solution,
)
from fastridge.em import em_fit, expected_sse
from fastridge.exceptions import DataError
from fastridge.loocv import fixed_grid, loocv_fit, press
from fastridge.oracles import dense_ridge_solve
from fastridge.rng import RandomStream


def _random_matrix(seed, n, p, rank=None):
    rng = np.random.default_rng(seed)
    if rank is None:
        return rng.normal(size=(n, p))
    return rng.normal(size=(n, rank)) @ rng.normal(size=(rank, p))


class TestCompactSvd:
    @given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_matches_lapack_singular_values(self, n, p, seed):
        X = _random_matrix(seed, n, p)
        svd = compact_svd(X)
        ref = np.linalg.svd(X, compute_uv=False)
        ref = ref[ref > 1e-10]
        assert_allclose(svd.s, ref, rtol=1e-8)

    @given(st.integers(1, 10), st.integers(1, 10), st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_reconstruction_and_orthonormality(self, n, p, seed):
        X = _random_matrix(seed, n, p)
        svd = compact_svd(X)
        r = svd.rank
        assert_allclose(svd.U.T @ svd.U, np.eye(r), atol=1e-9)
        assert_allclose(svd.V.T @ svd.V, np.eye(r), atol=1e-9)
        assert_allclose(svd.U @ np.diag(svd.s) @ svd.V.T, X, atol=1e-8)

    @given(st.integers(1, 10), st.integers(1, 10), st.integers(0, 10**6))
    @example(n=9, p=9, seed=2)
    @settings(max_examples=30, deadline=None)
    def test_transpose_has_same_singular_values(self, n, p, seed):
        """X and X' decompose the same Gram product when n != p, so their
        factorizations agree exactly up to column signs, with the roles of
        U and V swapped. A square X takes X'X and XX' in turn, whose
        eigenvalues s^2 each carry an error absolute in s_max^2: at 9 x 9,
        seed 2, the smallest s differ by 3.8e-9 relative, with
        |delta s^2| = 3.05 eps s_max^2."""
        X = _random_matrix(seed, n, p)
        a, b = compact_svd(X), compact_svd(X.T)
        if n == p:
            assert a.rank == b.rank
            tol = 10 * max(n, p) * np.finfo(float).eps * a.s[0] ** 2
            assert np.all(np.abs(a.s**2 - b.s**2) <= tol)
            return
        assert np.array_equal(a.s, b.s)
        assert np.array_equal(np.abs(a.U), np.abs(b.V))
        assert np.array_equal(np.abs(a.V), np.abs(b.U))

    def test_descending_order(self):
        svd = compact_svd(_random_matrix(7, 20, 6))
        assert np.all(np.diff(svd.s) <= 0)

    def test_exact_zero_directions_are_dropped(self):
        """A design whose Gram matrix is exactly singular (a zero column)
        loses that direction on both the tall and wide code paths."""
        X = np.zeros((5, 3))
        X[0, 0] = 3.0
        X[1, 1] = 2.0
        assert_allclose(compact_svd(X).s, [3.0, 2.0], rtol=1e-14)
        assert compact_svd(X).rank == 2
        assert compact_svd(X.T).rank == 2

    def test_near_rank_deficiency_stays_usable(self):
        """A random low-rank product carries Gram-route noise directions of
        size ~sqrt(eps)*s_max; all of them fall below the resolution floor,
        and the factorization reconstructs X."""
        X = _random_matrix(11, 15, 6, rank=3)
        svd = compact_svd(X)
        assert svd.rank == 3
        assert_allclose(svd.U @ np.diag(svd.s) @ svd.V.T, X, atol=1e-8)

    def test_duplicate_column(self):
        """The duplicated direction is dropped; the leading value is
        sqrt(2) times the column norm."""
        rng = np.random.default_rng(12)
        base = rng.normal(size=(10, 1))
        X = np.hstack([base, base])
        svd = compact_svd(X)
        assert_allclose(svd.s[0], np.sqrt(2.0) * np.linalg.norm(base), rtol=1e-12)
        assert svd.rank == 1

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("factor", [100.0, 0.01], ids=["above", "below"])
    @pytest.mark.parametrize("shape", [(40, 8), (8, 40)], ids=["tall", "wide"])
    def test_planted_direction_against_the_floor(self, shape, factor, seed):
        """The floor is max(n,p) * eps * s_max^2 on s^2: a direction planted
        100 times above it is kept, and to 1% of its value; one planted 100
        times below it is dropped."""
        n, p = shape
        k = min(n, p)
        rng = np.random.default_rng(seed)
        U = np.linalg.qr(rng.normal(size=(n, k)))[0]
        V = np.linalg.qr(rng.normal(size=(p, k)))[0]
        s = np.linspace(3.0, 1.0, k)
        s[-1] = np.sqrt(factor * max(n, p) * np.finfo(float).eps) * s[0]
        svd = compact_svd((U * s) @ V.T)
        if factor > 1:
            assert svd.rank == k
            assert_allclose(svd.s[-1], s[-1], rtol=1e-2)
        else:
            assert svd.rank == k - 1

    @given(st.integers(2, 40), st.integers(1, 280), st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_centered_wide_design_has_rank_n_minus_1(self, n, extra, seed):
        """Centering leaves the ones vector in the null space of X'; its
        eigenvalue in XX' is rounding, below the floor, so it is never
        counted as a direction."""
        X = _random_matrix(seed, n, n + extra)
        X -= X.mean(axis=0)
        assert compact_svd(X).rank == n - 1

    @pytest.mark.parametrize("seed", [2, 4, 7, 10])
    def test_standardized_wide_benchmark_shape_has_rank_n_minus_1(self, seed):
        """The 500 x 5000 design the wide benchmark fits, standardized: the
        seeds whose centering direction lies highest in the rounding still
        get rank n - 1."""
        n, p = 500, 5000
        shift = 3.0 * RandomStream(seed, 0, 0).normals(p)
        spread = np.exp(0.5 * RandomStream(seed, 0, 1).normals(p))
        Z = RandomStream(seed, 0, 2).normals(n * p).reshape(n, p)
        std = standardize(Dataset(X=Z * spread + shift, Y=np.arange(n, dtype=float)))
        assert compact_svd(std.X_std).rank == n - 1

    def test_zero_matrix_has_rank_zero(self):
        svd = compact_svd(np.zeros((4, 3)))
        assert svd.rank == 0
        assert svd.U.shape == (4, 0)
        assert svd.V.shape == (3, 0)

    def test_wide_matrix_uses_small_gram(self):
        X = _random_matrix(13, 3, 50)
        svd = compact_svd(X)
        assert svd.rank <= 3
        assert_allclose(svd.U @ np.diag(svd.s) @ svd.V.T, X, atol=1e-8)

    def test_wide_v_is_formed_on_first_read(self):
        """When n < p, V is not made with the decomposition; read, it is
        X' U / s exactly, and it is cached."""
        X = _random_matrix(15, 6, 40)
        svd = compact_svd(X)
        assert "V" not in vars(svd)
        assert np.array_equal(svd.V, X.T @ svd.U / svd.s)
        assert svd.V is svd.V

    def test_tall_u_is_formed_on_first_read(self):
        """When n >= p, U is not made with the decomposition; read, it is
        X W / s exactly, and it is cached. V is W itself."""
        X = _random_matrix(15, 40, 6)
        svd = compact_svd(X)
        assert "U" not in vars(svd)
        assert np.array_equal(svd.U, X @ svd.W / svd.s)
        assert svd.U is svd.U
        assert svd.V is svd.W

    def test_wide_fit_does_not_hold_v(self):
        """A wide decomposition, its rotated problem and a LOOCV fit peak
        below half the bytes of V (p x r')."""
        rng = np.random.default_rng(16)
        X = rng.normal(size=(200, 4000))
        X -= X.mean(axis=0)  # centered, as standardize leaves it: rank n - 1
        y = X[:, :10].sum(axis=1) + rng.normal(size=200)
        y -= y.mean()
        tracemalloc.start()
        try:
            svd = compact_svd(X)
            loocv_fit(rotate(svd, y), y, fixed_grid(100))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4000 * svd.rank * 8 / 2

    def test_rejects_non_finite(self):
        X = np.ones((3, 2))
        X[0, 0] = np.inf
        with pytest.raises(DataError):
            compact_svd(X)

    @pytest.mark.parametrize("entry", [0, 17, -1], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    @pytest.mark.parametrize("shape", [(8, 5), (5, 8)], ids=["tall", "wide"])
    def test_rejects_each_non_finite_entry(self, shape, value, entry):
        X = _random_matrix(4, *shape)
        X.flat[entry] = value
        with pytest.raises(DataError, match="^non-finite entries in X$"):
            compact_svd(X)

    def test_tall_peak_is_gram_sized(self):
        """A tall decomposition allocates only p x p work: no copy of X, and
        no n x r' array, since U is formed only where it is read."""
        X = _random_matrix(19, 4000, 30)
        tracemalloc.start()
        try:
            svd = compact_svd(X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        n, p = X.shape
        assert "U" not in vars(svd)
        assert peak <= 16 * p * p * 8 + 64 * 1024, peak

    def test_rejects_1d(self):
        with pytest.raises(DataError):
            compact_svd(np.ones(4))


class TestRotate:
    def test_rotated_targets_shape_and_norms(self):
        X = _random_matrix(21, 9, 4)
        Y = _random_matrix(22, 9, 3)
        rp = rotate(compact_svd(X), Y)
        assert rp.c.shape == (rp.rank, 3)
        assert rp.q == 3
        assert_allclose(rp.y_sq_norms, np.sum(Y * Y, axis=0), rtol=1e-12)

    @pytest.mark.parametrize("shape", [(50, 5), (200, 40), (30, 29), (400, 1)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_residual_energy_is_the_least_squares_rss(self, shape, seed):
        """On tall uncentered designs R0 = ||(I - UU')y||^2 is the residual
        sum of squares of the least-squares fit."""
        rng = np.random.default_rng(seed)
        n, p = shape
        X = rng.normal(size=(n, p)) + rng.normal(size=p)
        Y = X @ rng.normal(size=(p, 2)) + rng.normal(size=(n, 2)) + 3.0
        rp = rotate(compact_svd(X), Y)
        resid = Y - X @ np.linalg.lstsq(X, Y, rcond=None)[0]
        assert_allclose(rp.residual_sq_norms, np.einsum("ij,ij->j", resid, resid), rtol=1e-12)

    @pytest.mark.parametrize("shape", [(40, 200), (60, 300), (20, 1000)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_standardized_wide_target_lies_in_span(self, shape, seed):
        """A centered target of a standardized wide design lies in span(U)
        (rank n - 1), and R0, summed from the residual itself, is rounding
        far below the ||y||^2 * eps a difference of norms would leave."""
        rng = np.random.default_rng(seed)
        n, p = shape
        X = rng.normal(size=(n, p)) * rng.uniform(0.5, 3.0, size=p) + rng.normal(size=p)
        Y = X[:, :3] @ rng.normal(size=(3, 2)) + rng.normal(size=(n, 2)) + 5.0
        std = standardize(Dataset(X, Y))
        rp = rotate(compact_svd(std.X_std), std.Y_centered)
        assert rp.rank == n - 1
        assert np.all((rp.residual_sq_norms >= 0) & (rp.residual_sq_norms <= 1e-27 * rp.y_sq_norms))
        Yc = std.Y_centered
        assert_allclose(rp.y_sq_norms, np.einsum("ij,ij->j", Yc, Yc), rtol=1e-12)

    def test_dropped_direction_count(self):
        X = _random_matrix(23, 5, 8)
        rp = rotate(compact_svd(X), np.ones(5))
        assert rp.n_dropped_directions == 8 - rp.rank

    def test_row_mismatch_errors(self):
        svd = compact_svd(np.eye(3))
        with pytest.raises(DataError):
            rotate(svd, np.ones(4))

    @pytest.mark.parametrize(
        "value", [np.nan, np.inf, -np.inf, 1e200], ids=["nan", "+inf", "-inf", "square-overflows"]
    )
    @pytest.mark.parametrize("q", [1, 2])
    def test_rejects_non_finite_targets(self, q, value):
        Y = _random_matrix(25, 8, q)
        Y[3, q - 1] = value
        message = f"target {q - 1}: squared norm overflows" if np.isfinite(value) else "non-finite entries in Y"
        with pytest.raises(DataError, match=f"^{message}$"):
            rotate(compact_svd(_random_matrix(26, 8, 5)), Y[:, 0] if q == 1 else Y)

    @pytest.mark.parametrize("shape", [(9, 4), (4, 9)], ids=["tall", "wide"])
    def test_problem_is_the_decomposition_plus_targets(self, shape):
        """rotate shares the decomposition's W, s and X, copies no array and
        forms neither U nor V; the factor on the Gram side is W itself (U
        when n < p, V when n >= p); s2 is s**2 bitwise; rotating a rotated
        problem again keeps only the new targets."""
        svd = compact_svd(_random_matrix(24, *shape))
        Y = _random_matrix(27, shape[0], 2)
        rp = rotate(svd, Y)
        assert rp.W is svd.W and rp.s is svd.s and rp.X is svd.X
        assert not {"U", "V"} & (vars(svd).keys() | vars(rp).keys())
        assert (rp.U if shape[0] < shape[1] else rp.V) is rp.W
        assert rp.s2.tobytes() == (rp.s**2).tobytes()
        assert rp.U.shape == (shape[0], rp.rank) and rp.V.shape == (shape[1], rp.rank)
        again = rotate(rp, Y[:, 1])
        assert again.W is svd.W and not {"U", "V"} & vars(again).keys()
        assert again.c.tobytes() == rotate(svd, Y[:, 1]).c.tobytes()
        assert again.residual_sq_norms.tobytes() == rotate(svd, Y[:, 1]).residual_sq_norms.tobytes()
        assert_allclose(again.y_sq_norms, [Y[:, 1] @ Y[:, 1]], rtol=1e-12)

    @pytest.mark.parametrize("shape", [(8, 5), (5, 8)], ids=["tall", "wide"])
    def test_refuses_targets_with_no_columns(self, shape):
        """A Y with no columns names the problem before any check reads it."""
        with pytest.raises(DataError, match="^Y has no columns: there is no target to rotate$"):
            rotate(compact_svd(_random_matrix(28, *shape)), np.empty((shape[0], 0)))

    @pytest.mark.parametrize("Y", [np.float64(3.0), np.ones((8, 2, 1))], ids=["0-d", "3-d"])
    def test_refuses_targets_that_are_not_1d_or_2d(self, Y):
        with pytest.raises(DataError, match="^Y must be 1-D or 2-D$"):
            rotate(compact_svd(_random_matrix(28, 8, 5)), Y)

    @pytest.mark.parametrize("n, p", [(500, 50), (2000, 100)])
    @pytest.mark.parametrize("kappa", [1.0, 1e3, 1e5])
    @pytest.mark.parametrize("noise", [1e-8, 1e-10, 1e-12])
    def test_residual_energy_of_near_interpolating_targets(self, n, p, kappa, noise):
        """R0 of targets that a tall design of condition number kappa almost
        interpolates agrees with the QR residual ||Y - QQ'Y||^2 as a residual
        off by delta = eps * kappa * ||y|| would: |R0 - ref| is at most
        4 (2 sqrt(ref) delta + delta^2). Seeds 0-19 of these cells reached
        2.3 (seeds 0-7: 2.2, and 1.9 with R0 summed from Y - U(U'Y)); when
        kappa = 1e5 and noise = 1e-12 that is R0 off by thousands of times
        itself, on both routes, since W and s carry the Gram matrix's
        eps * kappa^2 error."""
        rng = np.random.default_rng(29)
        Q1, _ = np.linalg.qr(rng.normal(size=(n, p)))
        Q2, _ = np.linalg.qr(rng.normal(size=(p, p)))
        X = (Q1 * np.logspace(0, -np.log10(kappa), p)) @ Q2.T * np.sqrt(n)
        Y = X @ rng.normal(size=(p, 2)) + noise * rng.normal(size=(n, 2))
        rp = rotate(compact_svd(X), Y)
        Q, _ = np.linalg.qr(X)
        resid = Y - Q @ (Q.T @ Y)
        ref = np.einsum("ij,ij->j", resid, resid)
        delta = np.finfo(float).eps * kappa * np.linalg.norm(Y, axis=0)
        assert np.all(np.abs(rp.residual_sq_norms - ref) <= 4 * (2 * np.sqrt(ref) * delta + delta**2))
        assert "U" not in vars(rp)


class TestRotatedRidgeSolution:
    @given(
        st.integers(2, 12),
        st.integers(1, 12),
        st.floats(1e-4, 1e4),
        st.integers(0, 10**6),
    )
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_dense_solve(self, n, p, lam, seed):
        """V alpha(lambda) is the ridge solution for any shape, including
        rank-deficient and p > n designs: the dropped directions carry no
        X'y component, so the dense solve lands in the same subspace."""
        X = _random_matrix(seed, n, p)
        y = np.random.default_rng(seed + 1).normal(size=n)
        rp = rotate(compact_svd(X), y)
        beta = recover_beta(rp, rotated_ridge_solution(rp, lam))
        ref = dense_ridge_solve(X, y, lam)
        assert_allclose(beta, ref, atol=1e-8 * max(1.0, np.abs(ref).max()))

    @given(st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_coefficient_norm_preserved_by_recovery(self, seed):
        """V has orthonormal columns, so ||V alpha|| = ||alpha||."""
        X = _random_matrix(seed, 10, 6)
        rp = rotate(compact_svd(X), np.random.default_rng(seed).normal(size=10))
        alpha = rotated_ridge_solution(rp, 0.5)
        assert_allclose(
            np.linalg.norm(recover_beta(rp, alpha)), np.linalg.norm(alpha), rtol=1e-10
        )

    @given(st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_shrinks_monotonically_in_lambda(self, seed):
        """Every |alpha_j| is nonincreasing as lambda grows."""
        X = _random_matrix(seed, 8, 5)
        rp = rotate(compact_svd(X), np.random.default_rng(seed).normal(size=8))
        lams = np.logspace(-3, 3, 25)
        prev = np.abs(rotated_ridge_solution(rp, lams[0]))
        for lam in lams[1:]:
            cur = np.abs(rotated_ridge_solution(rp, lam))
            assert np.all(cur <= prev + 1e-15)
            prev = cur

    def test_requires_positive_lambda(self):
        rp = rotate(compact_svd(np.eye(2)), np.ones(2))
        with pytest.raises(DataError):
            rotated_ridge_solution(rp, 0.0)
        with pytest.raises(DataError):
            rotated_ridge_solution(rp, np.nan)

    def test_wide_recover_beta_matches_v(self):
        """When n < p beta is mapped back through X, without V, and agrees
        with V alpha; neither solver's fit forms V either."""
        X = _random_matrix(17, 12, 60)
        rp = rotate(compact_svd(X), np.random.default_rng(18).normal(size=12))
        alpha = rotated_ridge_solution(rp, 0.3)
        beta = recover_beta(rp, alpha)
        em_fit(rp)
        loocv_fit(rp, np.random.default_rng(18).normal(size=12), fixed_grid(5))
        assert "V" not in vars(rp)
        assert_allclose(beta, rp.V @ alpha, rtol=1e-13, atol=0)

    def test_recover_beta_length_check(self):
        rp = rotate(compact_svd(np.eye(3)), np.ones(3))
        with pytest.raises(DataError):
            recover_beta(rp, np.ones(2))


# Each public function that reads one target of a rotated problem, called
# on target t of a two-target problem built from (12 x 4) X and Y.
_TARGET_READERS = {
    "press": lambda rp, Y, t: press(rp, Y[:, 0], 1.0, target=t),
    "loocv_fit": lambda rp, Y, t: loocv_fit(rp, Y[:, 0], fixed_grid(5), target=t),
    "rotated_ridge_solution": lambda rp, Y, t: rotated_ridge_solution(rp, 1.0, target=t),
    "expected_sse": lambda rp, Y, t: expected_sse(rp, np.zeros(rp.rank), 1.0, 1.0, target=t),
    "em_fit": lambda rp, Y, t: em_fit(rp, target=t),
}


@pytest.mark.parametrize("target", [-1, 2, True, 1.0, 1.5])
@pytest.mark.parametrize("reader", list(_TARGET_READERS))
def test_target_outside_the_problem_is_rejected(reader, target):
    """A negative index does not wrap round to the last target, q itself is
    no target, and a bool or a float is no index: each raises the same
    DataError in every reader."""
    rng = np.random.default_rng(5)
    X, Y = rng.normal(size=(12, 4)), rng.normal(size=(12, 2))
    rp = rotate(compact_svd(X), Y)
    with pytest.raises(DataError, match=f"^target {target} out of range for q=2$"):
        _TARGET_READERS[reader](rp, Y, target)
