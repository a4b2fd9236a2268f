"""Grid construction and exact leave-one-out scoring via PRESS."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from fastridge import loocv
from fastridge.decomposition import compact_svd, recover_beta, rotate, rotated_ridge_solution
from fastridge.exceptions import DataError, DegenerateProblemError
from fastridge.loocv import (
    LambdaGrid,
    LoocvFit,
    fixed_grid,
    glmnet_grid,
    loocv_fit,
    loocv_fits,
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

    @pytest.mark.parametrize("l", [2.5, True])
    def test_length_is_a_count(self, l):
        with pytest.raises(DataError, match=f"^l must be an integer, not {l!r}$"):
            fixed_grid(l)


class TestGlmnetGrid:
    def test_top_value_tall_design(self):
        """One active column with x'y = 5 at n = 10 puts the per-observation
        entry point at 5 / (10 * 0.001) = 500 over sqrt(y'y/n) = sqrt(2.5);
        the grid is on this library's scale, n * (1 - 0.001) times that."""
        X = np.zeros((10, 2))
        X[0, 0] = 1.0
        y = np.zeros(10)
        y[0] = 5.0
        scaled = glmnet_grid(X, y, l=10)
        assert_allclose(scaled.values[0], 10 * 0.999 * 500.0 / math.sqrt(2.5), rtol=1e-12)

    def test_ratio_exact_tall(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(40, 10))
        y = rng.normal(size=40)
        g = glmnet_grid(X, y, l=100)
        assert g.values[-1] / g.values[0] == 1e-4

    @pytest.mark.parametrize("l", [2.5, True])
    def test_length_is_a_count(self, l):
        rng = np.random.default_rng(0)
        with pytest.raises(DataError, match=f"^l must be an integer, not {l!r}$"):
            glmnet_grid(rng.normal(size=(12, 3)), rng.normal(size=12), l)

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

    def test_grid_does_not_depend_on_the_units_of_y(self):
        """y times a power of two gives bitwise the same grid, also where
        y'y would underflow (2^-700) or overflow (2^1000) if formed directly."""
        rng = np.random.default_rng(4)
        X = rng.normal(size=(40, 10))
        y = rng.normal(size=40)
        values = glmnet_grid(X, y).values
        for j in (-700, -40, 40, 1000):
            assert np.array_equal(glmnet_grid(X, np.ldexp(y, j)).values, values), j

    def test_orthogonal_response_rejected(self):
        X = np.zeros((5, 2))
        with pytest.raises(DataError, match="orthogonal"):
            glmnet_grid(X, np.ones(5))
        with pytest.raises(DataError, match="orthogonal"):
            glmnet_grid(np.ones((5, 2)), np.zeros(5))

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

    @pytest.mark.parametrize(
        "lam, message",
        [
            (0.0, "lambda must be positive"),
            (-1.0, "lambda must be positive"),
            (np.nan, "lambda must be a finite real number, not nan"),
            (10**400, f"lambda must be a finite real number, not {10**400!r}"),
        ],
        ids=["0.0", "-1.0", "nan", "10**400"],
    )
    def test_rejects_nonpositive_lambda(self, lam, message):
        rp = _rotated(np.eye(3), np.ones(3))
        with pytest.raises(DataError, match=f"^{message}$"):
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

    def test_penalty_is_the_grid_value_at_the_first_minimum(self):
        """lambda_star is read from the scored grid, ties to the largest."""
        grid = LambdaGrid(values=np.array([8.0, 4.0, 2.0, 1.0]))
        fits = [LoocvFit(grid=grid, cve=np.array(cve), beta=np.zeros(2))
                for cve in ([3.0, 1.0, 1.0, 2.0], [3.0, 2.0, 2.0, 0.5], [1.0, 1.0, 1.0, 1.0])]
        assert [fit.lambda_star for fit in fits] == [4.0, 1.0, 8.0]

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


class TestBlockedScoring:
    """loocv_fit and loocv_fits score passes of at most
    _PASS_PAIRS = _BLOCK_BYTES // (8 _BLOCK_ROWS) (target, penalty) pairs,
    each in blocks of _BLOCK_BYTES // (8 max(g l, r')) rows but at least
    _BLOCK_ROWS; the small problems here are split into blocks of three
    rows, with a partial last block, by a smaller budget and floor."""

    @staticmethod
    def _layout(monkeypatch, block_bytes, block_rows):
        monkeypatch.setattr(loocv, "_BLOCK_BYTES", block_bytes)
        monkeypatch.setattr(loocv, "_BLOCK_ROWS", block_rows)
        monkeypatch.setattr(loocv, "_PASS_PAIRS", block_bytes // (8 * block_rows))

    @pytest.fixture
    def three_row_blocks(self, monkeypatch):
        self._layout(monkeypatch, 8 * 11 * 3, 1)  # q = 1, l = 11, r' < 11

    @staticmethod
    def _assert_matches_press(rp, y, target=0):
        assert rp.n > 3 and rp.n % 3  # several blocks, the last partial
        grid = fixed_grid(11)
        fit = loocv_fit(rp, y, grid, target=target)
        expected = [press(rp, y, lam, target) for lam in grid.values]
        assert_allclose(fit.cve, expected, rtol=1e-12)

    def test_complement_form_matches_press(self, three_row_blocks):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(4, 4))
        y = X @ rng.normal(size=4) + rng.normal(size=4)
        rp = _rotated(X, y)
        assert rp.rank == rp.n
        self._assert_matches_press(rp, y)

    def test_rank_deficient_form_matches_press(self, three_row_blocks):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(20, 3))
        y = X @ rng.normal(size=3) + rng.normal(size=20)
        rp = _rotated(X, y)
        assert rp.rank < rp.n
        self._assert_matches_press(rp, y)

    def test_second_target_matches_press(self, three_row_blocks):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(31, 4))
        Y = np.column_stack([X @ rng.normal(size=4) + rng.normal(size=31) for _ in range(2)])
        rp = rotate(compact_svd(X), Y)
        self._assert_matches_press(rp, Y[:, 1], target=1)

    def test_ties_resolve_to_largest_lambda_across_blocks(self, three_row_blocks):
        y = np.zeros(5)
        rp = _rotated(np.eye(5), y)
        grid = fixed_grid(10)
        fit = loocv_fit(rp, y, grid)
        assert np.all(fit.cve == 0.0)
        assert fit.lambda_star == grid.values[0]

    @pytest.mark.parametrize(
        "block_bytes, block_rows",
        [(loocv._BLOCK_BYTES, loocv._BLOCK_ROWS), (8 * 7, 1), (8 * 3, 1)],
        ids=["one block", "one row per block", "three penalties per pass"],
    )
    def test_saturation_in_a_later_block_names_press_observations(self, monkeypatch, block_bytes, block_rows):
        """Observation 1 alone loads on a column with s^2 = 1e6, so its
        leverage saturates below lambda ~ 1e-6; observation 0's column has
        s^2 = 1, so it saturates only below ~1e-12. On the grid 1e2, 1e-1,
        ..., 1e-16 the first saturating penalty is 1e-7, and at 1e-13 both
        observations have saturated. With one row per block, observation 0's
        block, the first, saturates at a later penalty than observation 1's:
        the error still names the first penalty in grid order. With three
        penalties per pass, that penalty opens the second pass."""
        self._layout(monkeypatch, block_bytes, block_rows)
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
        assert exc.value.target == 0

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

    def test_peak_does_not_grow_with_n_or_grid_length(self):
        """Every work array is one block of rows, so the traced peak of a
        two-target fit is the same at n = 2000 and n = 8000: a few block
        arrays of about _BLOCK_BYTES and a pass's r' x (g l) coefficients, at a
        100- and a 1000-point grid alike (U alone is 0.8 and 3.2 MB)."""
        rng = np.random.default_rng(16)
        peaks = {}
        for n in (2000, 8000):
            X = rng.normal(size=(n, 50))
            Y = X @ rng.normal(size=(50, 2)) + rng.normal(size=(n, 2))
            for l in (100, 1000):
                rp = rotate(compact_svd(X), Y)
                assert rp.U.shape == (n, rp.rank)  # formed on first read, outside the traced fit
                tracemalloc.start()
                try:
                    loocv_fits(rp, Y, [fixed_grid(l)] * 2)
                    _, peaks[n, l] = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                assert peaks[n, l] < 3 * loocv._BLOCK_BYTES + 3 * 8 * rp.rank * 2 * l, (n, l, peaks[n, l])
        for l in (100, 1000):
            assert peaks[8000, l] < 1.05 * peaks[2000, l], (l, peaks)

    def test_tall_fit_forms_u_once(self):
        """On a fresh tall problem the fit forms U on its first read, in
        place: the traced peak stays below U plus the bound above, where a
        second n x r' array (40000 x 50, 16 MB) would not."""
        rng = np.random.default_rng(17)
        X = rng.normal(size=(40000, 50))
        Y = X @ rng.normal(size=(50, 2)) + rng.normal(size=(40000, 2))
        rp = rotate(compact_svd(X), Y)
        assert "U" not in vars(rp)
        tracemalloc.start()
        try:
            loocv_fits(rp, Y, [fixed_grid(100)] * 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert "U" in vars(rp)
        assert peak < rp.U.nbytes + 3 * loocv._BLOCK_BYTES + 3 * 8 * rp.rank * 2 * 100, peak

    @pytest.mark.parametrize(
        "block_bytes, block_rows",
        [(loocv._BLOCK_BYTES, loocv._BLOCK_ROWS), (8 * 3000 * 40, 40), (8 * 300 * 50, 50)],
        ids=["a target per pass", "every target per pass", "grid slices"],
    )
    @pytest.mark.parametrize("full_row_rank", [True, False], ids=["complement form", "1 - h form"])
    @pytest.mark.parametrize("shared", [True, False], ids=["one grid", "a grid per target"])
    def test_every_target_matches_press(self, monkeypatch, block_bytes, block_rows, full_row_rank, shared):
        """Three targets on 1000-point grids at n = 300, r' <= 300: at the
        module's budget a pass scores one target in 131-row blocks; at the
        second budget one pass scores all three in 40-row blocks; at the
        third each grid is scored in four slices (300, 300, 300 and 100
        penalties) in 50-row blocks. Each target's CVE matches press at its
        own penalties, and its fit matches loocv_fit's."""
        self._layout(monkeypatch, block_bytes, block_rows)
        rng = np.random.default_rng(17)
        X = rng.normal(size=(300, 400 if full_row_rank else 30))
        Y = X[:, :3] + rng.normal(size=(300, 3))
        rp = rotate(compact_svd(X), Y)
        assert (rp.rank == rp.n) is full_row_rank
        base = np.logspace(6.0, -6.0, 1000)  # above where the complement form saturates
        grids = [LambdaGrid(base * (1.0 if shared else 1.5**t)) for t in range(3)]
        fits = loocv_fits(rp, Y, grids)
        for t, fit in enumerate(fits):
            assert fit.grid is grids[t]
            expected = [press(rp, Y[:, t], lam, t) for lam in grids[t].values[::7]]
            assert_allclose(fit.cve[::7], expected, rtol=1e-12)
            single = loocv_fit(rp, Y[:, t], grids[t], target=t)
            assert_allclose(fit.cve, single.cve, rtol=1e-12)
            assert fit.lambda_star == single.lambda_star
            assert_allclose(fit.beta, single.beta, rtol=1e-12)

    @pytest.mark.parametrize("shared", [True, False], ids=["one grid", "a grid per target"])
    def test_peak_does_not_grow_with_targets(self, shared):
        """A pass scores at most _PASS_PAIRS (target, penalty) pairs
        whatever q, so 200 targets on 1000-point grids peak at the pass's
        few block arrays plus what must grow with q: the q x l CVE and
        grids. Scoring every target per block at once would take r' x (q l)
        coefficients and 1 - h of 8 rows (over 150 MiB here)."""
        rng = np.random.default_rng(19)
        peaks = {}
        for q in (20, 200):
            X = rng.normal(size=(500, 50))
            Y = X @ rng.normal(size=(50, q)) + rng.normal(size=(500, q))
            rp = rotate(compact_svd(X), Y)
            base = fixed_grid(1000).values
            grids = [LambdaGrid(base * (1.0 if shared else 1.01**t)) for t in range(q)]
            tracemalloc.start()
            try:
                loocv_fits(rp, Y, grids)
                _, peaks[q] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peaks[q] < 4 * loocv._BLOCK_BYTES + 3 * 8 * q * 1000, (q, peaks[q])
        assert peaks[200] - peaks[20] < 3 * 8 * 180 * 1000, peaks

    def test_first_saturated_target_is_named(self):
        """Only the second target's grid reaches down to where observation
        1's leverage saturates: the error is press's for that target's first
        saturating penalty, and names target 1."""
        X = np.zeros((5, 3))
        X[0, 0] = 1.0
        X[1, 1] = 1e3
        X[2:, 2] = 1.0
        Y = np.array([[1.0, -2.0, 0.5, 1.5, -1.0]] * 2).T
        rp = rotate(compact_svd(X), Y)
        grids = [LambdaGrid(np.logspace(2.0, -4.0, 7)), LambdaGrid(np.logspace(2.0, -16.0, 7))]
        with pytest.raises(DegenerateProblemError) as exc:
            loocv_fits(rp, Y, grids)
        assert exc.value.target == 1
        with pytest.raises(DegenerateProblemError) as first:
            press(rp, Y[:, 1], grids[1].values[3], target=1)
        assert str(exc.value) == str(first.value)

    def test_arguments_are_checked(self):
        rng = np.random.default_rng(18)
        X, Y = rng.normal(size=(12, 4)), rng.normal(size=(12, 2))
        rp = rotate(compact_svd(X), Y)
        grid = fixed_grid(5)
        with pytest.raises(DataError, match=r"^Y has shape \(12, 1\), expected \(12, 2\)$"):
            loocv_fits(rp, Y[:, :1], [grid])
        with pytest.raises(DataError, match="^1 grids for q=2 targets$"):
            loocv_fits(rp, Y, [grid])
        with pytest.raises(DataError, match="^grids must all have the same length$"):
            loocv_fits(rp, Y, [grid, fixed_grid(6)])

    @pytest.mark.parametrize("grid_size", [400, 4000])
    def test_memory_is_bounded_per_block(self, grid_size):
        """At n = 20000 an n x grid work array would take 64 or 640 MB;
        blocking keeps the peak near a few 1 MB block arrays."""
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


class TestPassesAndGrids:
    def test_a_pass_holds_at_most_1024_pairs(self):
        assert loocv._PASS_PAIRS == 1024 == loocv._BLOCK_BYTES // (8 * loocv._BLOCK_ROWS)

    @pytest.mark.parametrize("shared", [True, False], ids=["one grid", "a grid per target"])
    def test_passes_are_pass_pairs_wide(self, monkeypatch, shared):
        """With three pairs a pass, two targets on 7-point grids are scored
        one target at a time, in slices of 3, 3 and 1 penalties, and give
        the CVE that one pass gives."""
        rng = np.random.default_rng(20)
        X = rng.normal(size=(30, 5))
        Y = X[:, :2] + rng.normal(size=(30, 2))
        rp = rotate(compact_svd(X), Y)
        grids = [LambdaGrid(np.logspace(3.0, -3.0, 7) * (1.0 if shared else 2.0**t)) for t in range(2)]
        whole = loocv_fits(rp, Y, grids)
        widths, real_pass = [], loocv._pass

        def recorded(rp, Y, targets, lams):
            widths.append((list(targets), lams.shape[1]))
            return real_pass(rp, Y, targets, lams)

        monkeypatch.setattr(loocv, "_pass", recorded)
        monkeypatch.setattr(loocv, "_PASS_PAIRS", 3)
        sliced = loocv_fits(rp, Y, grids)
        assert widths == [([0], 3), ([0], 3), ([0], 1), ([1], 3), ([1], 3), ([1], 1)]
        for a, b in zip(whole, sliced):
            assert_allclose(a.cve, b.cve, rtol=1e-13)

    def test_penalty_and_coefficients_follow_one_first_minimum_rule(self, monkeypatch):
        """lambda_star and the refit beta both read loocv._first_minimum: a
        rule that picked the last grid value moves both together."""
        rng = np.random.default_rng(21)
        X = rng.normal(size=(20, 4))
        y = X @ rng.normal(size=4) + rng.normal(size=20)
        rp = _rotated(X, y)
        grid = fixed_grid(9)
        monkeypatch.setattr(loocv, "_first_minimum", lambda grid, cve: float(grid.values[-1]))
        for fit in (loocv_fit(rp, y, grid), loocv_fits(rp, y[:, None], [grid])[0]):
            assert fit.lambda_star == grid.values[-1]
            expected = recover_beta(rp, rotated_ridge_solution(rp, grid.values[-1]))
            assert fit.beta.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "grid", [np.logspace(2.0, -2.0, 5), [1.0, 0.1], None], ids=["array", "list", "None"]
    )
    def test_a_grid_that_is_not_a_lambda_grid_is_refused(self, grid):
        rng = np.random.default_rng(22)
        X, Y = rng.normal(size=(12, 4)), rng.normal(size=(12, 2))
        rp = rotate(compact_svd(X), Y)
        kind = type(grid).__name__
        with pytest.raises(DataError, match=f"^grid must be a LambdaGrid, not {kind}$"):
            loocv_fit(rp, Y[:, 0], grid)
        with pytest.raises(DataError, match=rf"^grids\[1\] must be a LambdaGrid, not {kind}$"):
            loocv_fits(rp, Y, [fixed_grid(2), grid])
