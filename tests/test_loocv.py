"""Grid construction and exact leave-one-out scoring via PRESS."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from fastridge.decomposition import compact_svd, rotate, rotated_ridge_solution
from fastridge.exceptions import DataError, DegenerateProblemError
from fastridge.loocv import (
    LambdaGrid,
    fixed_grid,
    glmnet_grid,
    loocv_fit,
    press,
)
from fastridge.oracles import brute_force_loocv


def _rotated(X, y):
    return rotate(compact_svd(X), y)


class TestLambdaGrid:
    def test_accepts_descending_log_spaced(self):
        g = LambdaGrid(values=np.array([100.0, 10.0, 1.0]))
        assert len(g) == 3

    def test_single_value_allowed(self):
        g = LambdaGrid(values=np.array([2.0]))
        assert len(g) == 1

    def test_rejects_ascending(self):
        with pytest.raises(DataError, match="descending"):
            LambdaGrid(values=np.array([1.0, 10.0]))

    def test_rejects_nonpositive(self):
        with pytest.raises(DataError, match="positive"):
            LambdaGrid(values=np.array([1.0, 0.0]))

    def test_rejects_uneven_spacing(self):
        with pytest.raises(DataError, match="log-spaced"):
            LambdaGrid(values=np.array([10.0, 5.0, 1.0]))

    def test_rejects_matrix(self):
        with pytest.raises(DataError):
            LambdaGrid(values=np.ones((2, 2)))


class TestFixedGrid:
    def test_endpoints_are_exact(self):
        g = fixed_grid(100)
        assert g.values[0] == 1e10
        assert g.values[-1] == 1e-10

    def test_three_points(self):
        g = fixed_grid(3)
        assert_allclose(g.values, [1e10, 1.0, 1e-10], rtol=1e-15)

    def test_consecutive_ratio(self):
        g = fixed_grid(100)
        assert_allclose(g.values[1] / g.values[0], 10.0 ** (-20.0 / 99.0), rtol=1e-12)

    def test_default_length(self):
        assert len(fixed_grid()) == 100

    def test_too_short_rejected(self):
        with pytest.raises(DataError):
            fixed_grid(1)


class TestGlmnetGrid:
    def test_top_value_tall_design(self):
        """One active column with x'y = 5 at n = 10 puts the per-observation
        entry point at 5 / (10 * 0.001) = 500; the grid is on this library's
        scale, n * (1 - 0.001) times that."""
        X = np.zeros((10, 2))
        X[0, 0] = 1.0
        y = np.zeros(10)
        y[0] = 5.0
        scaled = glmnet_grid(X, y, l=10)
        assert_allclose(scaled.values[0], 10 * 0.999 * 500.0, rtol=1e-12)

    def test_ratio_exact_tall(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(40, 10))
        y = rng.normal(size=40)
        g = glmnet_grid(X, y, l=100)
        assert g.values[-1] / g.values[0] == 1e-4

    def test_ratio_exact_wide(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(10, 40))
        y = rng.normal(size=10)
        g = glmnet_grid(X, y, l=100)
        assert g.values[-1] / g.values[0] == 1e-2

    @given(st.integers(0, 10**6), st.integers(2, 25), st.integers(1, 25))
    @settings(max_examples=60, deadline=None)
    def test_ratio_exact_for_random_data(self, seed, n, p):
        """The min/max ratio equals the regime constant bitwise, whatever
        the data-driven top value happens to be."""
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, p))
        y = rng.normal(size=n)
        g = glmnet_grid(X, y, l=50)
        expected = 1e-4 if n >= p else 1e-2
        assert g.values[-1] / g.values[0] == expected

    def test_orthogonal_response_rejected(self):
        X = np.zeros((5, 2))
        with pytest.raises(DataError, match="orthogonal"):
            glmnet_grid(X, np.ones(5))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DataError):
            glmnet_grid(np.ones((4, 2)), np.ones(5))


class TestPress:
    def test_two_point_hand_value(self):
        """x = (1, 1), y = (1, 3), lambda = 2: beta_hat = 1, residuals
        (0, 2), leverages 1/4, so CVE = (1/2) (8/3)^2 = 32/9."""
        X = np.array([[1.0], [1.0]])
        y = np.array([1.0, 3.0])
        rp = _rotated(X, y)
        assert_allclose(press(rp, y, 2.0), 32.0 / 9.0, rtol=1e-14)

    def test_identity_design_is_lambda_free(self):
        """With X = I_n the shrinkage cancels in e/(1-h) and LOOCV
        equals (1/n) sum y_i^2 at every penalty, extremes included (the
        complement form keeps the cancellation out of the arithmetic)."""
        rng = np.random.default_rng(2)
        y = rng.normal(size=6)
        rp = _rotated(np.eye(6), y)
        expected = float(y @ y) / 6
        for lam in (1e-6, 1e-2, 1.0, 1e2, 1e6):
            assert_allclose(press(rp, y, lam), expected, rtol=1e-12)

    def test_zero_response(self):
        rp = _rotated(np.eye(3), np.zeros(3))
        assert press(rp, np.zeros(3), 1.0) == 0.0

    @given(st.integers(3, 15), st.integers(1, 12), st.integers(0, 10**6))
    @settings(max_examples=50, deadline=None)
    def test_matches_brute_force_refits(self, n, p, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, p))
        y = X @ rng.normal(size=p) + rng.normal(size=n)
        lam = float(10.0 ** rng.uniform(-4, 4))
        rp = _rotated(X, y)
        assert_allclose(press(rp, y, lam), brute_force_loocv(X, y, lam), rtol=1e-8)

    def test_saturated_leverage_raises_with_indices(self):
        rp = _rotated(np.eye(3), np.array([1.0, 2.0, 3.0]))
        with pytest.raises(DegenerateProblemError, match=r"\[0, 1, 2\]"):
            press(rp, np.array([1.0, 2.0, 3.0]), 1e-13)

    def test_length_mismatch_rejected(self):
        rp = _rotated(np.eye(3), np.ones(3))
        with pytest.raises(DataError):
            press(rp, np.ones(4), 1.0)

    @pytest.mark.parametrize("lam", [0.0, -1.0, np.nan])
    def test_rejects_nonpositive_lambda(self, lam):
        rp = _rotated(np.eye(3), np.ones(3))
        with pytest.raises(DataError, match="lambda must be positive"):
            press(rp, np.ones(3), lam)


class TestLoocvFit:
    def test_scores_every_candidate_and_picks_minimum(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(25, 6))
        y = X @ rng.normal(size=6) + rng.normal(size=25)
        rp = _rotated(X, y)
        grid = fixed_grid(40)
        fit = loocv_fit(rp, y, grid)
        assert fit.cve.shape == (40,)
        assert fit.lambda_star == grid.values[np.argmin(fit.cve)]
        assert np.min(fit.cve) == fit.cve[np.argmin(fit.cve)]
        alpha = rotated_ridge_solution(rp, fit.lambda_star)
        assert_allclose(fit.beta, rp.V @ alpha, rtol=1e-14)

    def test_ties_resolve_to_largest_lambda(self):
        """A zero response scores exactly 0.0 at every penalty, the one way
        to build a bitwise-flat curve; the winner must then be the first
        (largest) grid entry."""
        y = np.zeros(5)
        rp = _rotated(np.eye(5), y)
        grid = fixed_grid(10)
        fit = loocv_fit(rp, y, grid)
        assert np.all(fit.cve == 0.0)
        assert fit.lambda_star == grid.values[0] == 1e10

    def test_single_candidate_grid(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(8, 3))
        y = rng.normal(size=8)
        rp = _rotated(X, y)
        grid = LambdaGrid(values=np.array([2.0]))
        fit = loocv_fit(rp, y, grid)
        assert fit.lambda_star == 2.0
        assert fit.cve.shape == (1,)
        assert_allclose(fit.cve[0], press(rp, y, 2.0), rtol=1e-15)

    def test_multi_target_selection(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(30, 4))
        Y = np.column_stack(
            [X @ rng.normal(size=4) + 0.1 * rng.normal(size=30) for _ in range(2)]
        )
        rp = rotate(compact_svd(X), Y)
        grid = fixed_grid(30)
        fit1 = loocv_fit(rp, Y[:, 1], grid, target=1)
        solo = _rotated(X, Y[:, 1])
        ref = loocv_fit(solo, Y[:, 1], grid)
        assert fit1.lambda_star == ref.lambda_star
        assert_allclose(fit1.cve, ref.cve, rtol=1e-12)
        assert_allclose(fit1.beta, ref.beta, rtol=1e-12)


class TestChunkedScoring:
    """loocv_fit scores a grid at most rank penalties at a time; the
    low-rank problems here split an 11-point grid into three or four chunks
    with a partial last one."""

    @staticmethod
    def _assert_matches_press(rp, y, target=0):
        assert rp.rank in (3, 4)  # 11 penalties: 4 or 3 chunks, the last partial
        grid = fixed_grid(11)
        fit = loocv_fit(rp, y, grid, target=target)
        expected = [press(rp, y, lam, target) for lam in grid.values]
        assert_allclose(fit.cve, expected, rtol=1e-12)

    def test_complement_form_matches_press(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(4, 4))
        y = X @ rng.normal(size=4) + rng.normal(size=4)
        rp = _rotated(X, y)
        assert rp.rank == rp.n
        self._assert_matches_press(rp, y)

    def test_rank_deficient_form_matches_press(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(20, 3))
        y = X @ rng.normal(size=3) + rng.normal(size=20)
        rp = _rotated(X, y)
        assert rp.rank < rp.n
        self._assert_matches_press(rp, y)

    def test_second_target_matches_press(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(30, 4))
        Y = np.column_stack([X @ rng.normal(size=4) + rng.normal(size=30) for _ in range(2)])
        rp = rotate(compact_svd(X), Y)
        self._assert_matches_press(rp, Y[:, 1], target=1)

    def test_ties_resolve_to_largest_lambda_across_chunks(self):
        y = np.zeros(3)
        rp = _rotated(np.eye(3), y)
        grid = fixed_grid(10)  # chunks of 3, 3, 3 and 1 penalties
        fit = loocv_fit(rp, y, grid)
        assert np.all(fit.cve == 0.0)
        assert fit.lambda_star == grid.values[0]

    def test_saturation_in_a_later_chunk_names_press_observations(self):
        """Observation 1 alone loads on a column with s^2 = 1e6, so its
        leverage saturates below lambda ~ 1e-6; observation 0's column has
        s^2 = 1, so it saturates only below ~1e-12. With rank 3 the grid
        1e2, 1e-1, ..., 1e-16 is scored in chunks of three: the first
        saturating penalty, 1e-7, opens the second chunk, which ends at
        1e-13, where both observations have saturated."""
        X = np.zeros((5, 3))
        X[0, 0] = 1.0
        X[1, 1] = 1e3
        X[2:, 2] = 1.0
        y = np.array([1.0, -2.0, 0.5, 1.5, -1.0])
        rp = _rotated(X, y)
        assert rp.rank == 3
        grid = LambdaGrid(values=np.logspace(2.0, -16.0, 7))
        first = None
        for j, lam in enumerate(grid.values):
            try:
                press(rp, y, lam)
            except DegenerateProblemError as exc:
                first = j, str(exc)
                break
        assert first is not None and first[0] == 3
        assert "observation(s) [1];" in first[1]
        with pytest.raises(DegenerateProblemError, match=r"observation\(s\) \[0, 1\];"):
            press(rp, y, grid.values[5])
        with pytest.raises(DegenerateProblemError) as exc:
            loocv_fit(rp, y, grid)
        assert str(exc.value) == first[1]

    def test_saturation_message_stays_short(self):
        """An uncentered 200 x 4000 design saturates every leverage at the
        bottom of the fixed grid; the error counts them and names five."""
        X = np.random.default_rng(15).normal(size=(200, 4000))
        y = X[:, 0].copy()
        rp = _rotated(X, y)
        with pytest.raises(DegenerateProblemError) as exc:
            loocv_fit(rp, y, fixed_grid())
        message = str(exc.value)
        assert "200 observation(s) [0, 1, 2, 3, 4] and 195 more;" in message
        assert "\n" not in message and len(message) < 120

    def test_chunk_count_does_not_grow_with_n(self, monkeypatch):
        """A chunk is rank penalties wide whatever n, so at p = 50 a
        100-point grid takes two chunks (one einsum each) at n = 2000 and
        at n = 8000."""
        rng = np.random.default_rng(16)
        problems = []
        for n in (2000, 8000):
            X = rng.normal(size=(n, 50))
            y = X @ rng.normal(size=50) + rng.normal(size=n)
            problems.append((_rotated(X, y), y))
        counts = []
        einsum = np.einsum

        def counting_einsum(*args, **kwargs):
            counts[-1] += 1
            return einsum(*args, **kwargs)

        monkeypatch.setattr(np, "einsum", counting_einsum)
        for rp, y in problems:
            counts.append(0)
            loocv_fit(rp, y, fixed_grid(100))
        assert counts == [2, 2]

    @pytest.mark.parametrize("grid_size", [400, 4000])
    def test_memory_is_bounded_per_chunk(self, grid_size):
        """At n = 20000 an n x grid work array would take 64 or 640 MB;
        chunking keeps the peak near U*U plus a few 1 MB chunk arrays."""
        rng = np.random.default_rng(14)
        X = rng.normal(size=(20000, 20))
        y = X @ rng.normal(size=20) + rng.normal(size=20000)
        rp = _rotated(X, y)
        grid = fixed_grid(grid_size)
        tracemalloc.start()
        try:
            loocv_fit(rp, y, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < rp.U.nbytes + 8 * 2**20
