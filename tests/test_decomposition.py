"""Compact SVD via Gram eigendecomposition and the rotated ridge problem."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

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
    @settings(max_examples=30, deadline=None)
    def test_transpose_has_same_singular_values(self, n, p, seed):
        """X and X' decompose the same Gram product when n != p, so their
        factorizations agree exactly up to column signs, with the roles of
        U and V swapped; a square X takes X'X and XX' in turn."""
        X = _random_matrix(seed, n, p)
        a, b = compact_svd(X), compact_svd(X.T)
        if n == p:
            assert_allclose(a.s, b.s, rtol=1e-9)
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
        size ~sqrt(eps)*s_max; whether kept or dropped, the factorization
        contract (reconstruction, tiny trailing values) must hold."""
        X = _random_matrix(11, 15, 6, rank=3)
        svd = compact_svd(X)
        assert 3 <= svd.rank <= 6
        assert np.all(svd.s[3:] < 1e-6 * svd.s[0])
        assert_allclose(svd.U @ np.diag(svd.s) @ svd.V.T, X, atol=1e-8)

    def test_duplicate_column(self):
        """The duplicated direction is either dropped or kept as a
        numerically-zero singular value; the leading value is sqrt(2) times
        the column norm either way."""
        rng = np.random.default_rng(12)
        base = rng.normal(size=(10, 1))
        X = np.hstack([base, base])
        svd = compact_svd(X)
        assert_allclose(svd.s[0], np.sqrt(2.0) * np.linalg.norm(base), rtol=1e-12)
        assert svd.rank == 1 or svd.s[1] < 1e-7 * svd.s[0]

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

    def test_dropped_direction_count(self):
        X = _random_matrix(23, 5, 8)
        rp = rotate(compact_svd(X), np.ones(5))
        assert rp.n_dropped_directions == 8 - rp.rank

    def test_row_mismatch_errors(self):
        svd = compact_svd(np.eye(3))
        with pytest.raises(DataError):
            rotate(svd, np.ones(4))


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
        with V alpha."""
        X = _random_matrix(17, 12, 60)
        rp = rotate(compact_svd(X), np.random.default_rng(18).normal(size=12))
        alpha = rotated_ridge_solution(rp, 0.3)
        beta = recover_beta(rp, alpha)
        assert "V" not in vars(rp.svd)
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


@pytest.mark.parametrize("target", [-1, 2])
@pytest.mark.parametrize("reader", list(_TARGET_READERS))
def test_target_outside_the_problem_is_rejected(reader, target):
    """A negative index does not wrap round to the last target, and q itself
    is no target: both raise the same DataError in every reader."""
    rng = np.random.default_rng(5)
    X, Y = rng.normal(size=(12, 4)), rng.normal(size=(12, 2))
    rp = rotate(compact_svd(X), Y)
    with pytest.raises(DataError, match=f"^target {target} out of range for q=2$"):
        _TARGET_READERS[reader](rp, Y, target)
