"""EM hyperparameter estimation: E-step statistics, closed-form M-step,
the full loop, the p-means special case, and the unimodality diagnostic."""

import dataclasses
import math
import re
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose

from fastridge.data import Dataset, standardize
from fastridge.decomposition import compact_svd, rotate, rotated_ridge_solution
from fastridge.em import (
    EmConfig,
    UnimodalityDiagnostic,
    em_fit,
    expected_squared_norm,
    expected_sse,
    m_step,
    multiple_means_kappa,
    q_function,
    sample_size_threshold,
    tau_update_fixed_variance,
    unimodality_bound,
)
from fastridge.exceptions import DataError, DegenerateProblemError
from fastridge.loocv import press
from fastridge.oracles import (
    brute_force_loocv,
    dense_em_statistics,
    dense_ridge_solve,
    numeric_m_step,
)
from fastridge.rng import RandomStream
from fastridge.simulate import Setting1Config


def _rotated(X, y):
    return rotate(compact_svd(X), y)


def _random_problem(seed, n, p, rank=None):
    rng = np.random.default_rng(seed)
    if rank is None:
        X = rng.normal(size=(n, p))
    else:
        X = rng.normal(size=(n, rank)) @ rng.normal(size=(rank, p))
    beta = rng.normal(size=p)
    y = X @ beta + rng.normal(size=n)
    return X, y


class TestExpectedSquaredNorm:
    def test_identity_design_hand_value(self):
        """X = I_2, y = (1,0), tau2 = sigma2 = 1: alpha = (1/2, 0), trace
        term 2 * 1/(1+1) = 1, so ESN = 0.25 + 1 = 1.25."""
        rp = _rotated(np.eye(2), np.array([1.0, 0.0]))
        alpha = rp.c[:, 0] / (rp.s2 + 1.0)
        assert_allclose(expected_squared_norm(rp, alpha, 1.0, 1.0), 1.25, rtol=1e-14)

    def test_zero_noise_reduces_to_alpha_norm(self):
        rp = _rotated(*_random_problem(0, 12, 4))
        alpha = rp.c[:, 0] / (rp.s2 + 2.0)
        assert_allclose(
            expected_squared_norm(rp, alpha, 0.5, 0.0), float(alpha @ alpha), rtol=1e-14
        )

    def test_null_directions_add_tau2_each(self):
        """A design with p - r' zero singular values contributes
        sigma2 * tau2 per missing direction to the posterior trace."""
        X = np.zeros((2, 5))
        X[0, 0] = 1.0
        X[1, 1] = 1.0
        rp = _rotated(X, np.array([1.0, 1.0]))
        assert rp.n_dropped_directions == 3
        alpha = rp.c[:, 0] / (rp.s2 + 0.5)
        tau2 = 2.0
        with_noise = expected_squared_norm(rp, alpha, tau2, 1.0)
        without = expected_squared_norm(rp, alpha, tau2, 0.0)
        expected_trace = float(np.sum(1.0 / (rp.s2 + 0.5))) + tau2 * 3
        assert_allclose(with_noise - without, expected_trace, rtol=1e-12)
        # sanity: the deficiency part alone is 3 * tau2 = 6
        assert_allclose(tau2 * rp.n_dropped_directions, 6.0)

    def test_rejects_bad_hyperparameters(self):
        rp = _rotated(np.eye(2), np.ones(2))
        alpha = np.zeros(2)
        with pytest.raises(DataError):
            expected_squared_norm(rp, alpha, 0.0, 1.0)
        with pytest.raises(DataError):
            expected_squared_norm(rp, alpha, 1.0, -1.0)


class TestExpectedSse:
    def test_identity_design_hand_value(self):
        """Same instance as above: RSS = 0.25, trace term 1, ESS = 1.25."""
        rp = _rotated(np.eye(2), np.array([1.0, 0.0]))
        alpha = rp.c[:, 0] / (rp.s2 + 1.0)
        ess, rss = expected_sse(rp, alpha, 1.0, 1.0)
        assert_allclose(rss, 0.25, rtol=1e-14)
        assert_allclose(ess, 1.25, rtol=1e-14)

    def test_zero_target(self):
        rp = _rotated(np.eye(3), np.zeros(3))
        alpha = np.zeros(3)
        ess, rss = expected_sse(rp, alpha, 1.0, 2.0)
        assert rss == 0.0
        assert_allclose(ess, 2.0 * np.sum(rp.s2 / (rp.s2 + 1.0)), rtol=1e-14)

    def test_huge_tau2_approaches_least_squares_residual(self):
        X, y = _random_problem(1, 20, 4)
        rp = _rotated(X, y)
        tau2 = 1e12
        alpha = rp.c[:, 0] / (rp.s2 + 1.0 / tau2)
        _, rss = expected_sse(rp, alpha, tau2, 0.0)
        ls_resid = y - X @ np.linalg.lstsq(X, y, rcond=None)[0]
        assert_allclose(rss, float(ls_resid @ ls_resid), rtol=1e-6, atol=1e-10)


class TestSvdDenseEquivalence:
    @given(st.integers(2, 30), st.integers(1, 30), st.integers(0, 10**6))
    @example(n=30, p=30, seed=30)  # s_max / s_min = 1.4e3
    @settings(max_examples=50, deadline=None)
    def test_esn_ess_match_dense_formulas(self, n, p, seed):
        """The O(r') rotated statistics equal the explicit p x p posterior
        computation, tall and wide designs alike. RSS = R0 + ||c/s - s alpha||^2
        is the dense ||y - U diag(s) alpha||^2 for every alpha, also a random
        one and one solved on another problem."""
        X, y = _random_problem(seed, n, p)
        rng = np.random.default_rng(seed + 7)
        tau2 = float(rng.uniform(0.05, 20.0))
        sigma2 = float(rng.uniform(0.05, 5.0))
        rp = _rotated(X, y)
        alpha = rp.c[:, 0] / (rp.s2 + 1.0 / tau2)
        esn_fast = expected_squared_norm(rp, alpha, tau2, sigma2)
        ess_fast, _ = expected_sse(rp, alpha, tau2, sigma2)
        ess_ref, esn_ref, _ = dense_em_statistics(X, y, tau2, sigma2)
        assert_allclose(esn_fast, esn_ref, rtol=1e-8)
        assert_allclose(ess_fast, ess_ref, rtol=1e-8)
        other = _rotated(*_random_problem(seed + 1, n, p))
        alphas = [alpha, rng.normal(size=rp.rank) * rng.uniform(0.1, 10.0)]
        if other.rank == rp.rank:
            alphas.append(other.c[:, 0] / (other.s2 + 1.0 / tau2))
        # On the n >= p route U = X W / s is orthonormal only to about
        # eps * (s_max / s_min)^2, and the dense form reads U'U where the
        # rotated form takes it as I: the two differ by that much of
        # ||y||^2 + ||s alpha||^2.
        loss = np.finfo(float).eps * rp.s2[0] / rp.s2[-1]
        for a in alphas:
            _, rss = expected_sse(rp, a, tau2, sigma2)
            dense = y - rp.U @ (rp.s * a)
            scale = float(y @ y) + float((rp.s * a) @ (rp.s * a))
            assert rss >= 0.0
            assert_allclose(
                rss, float(dense @ dense), rtol=1e-10, atol=1e-13 * float(y @ y) + loss * scale
            )


class TestMStep:
    def test_hand_value_small(self):
        """ESS = ESN = 1.25, n = p = 2: the discriminant is exactly 100,
        giving tau2 = 0.6 and sigma2 = 5/9."""
        tau2, sigma2 = m_step(1.25, 1.25, 2, 2)
        assert_allclose(tau2, 0.6, atol=1e-14)
        assert_allclose(sigma2, 5.0 / 9.0, atol=1e-14)

    def test_hand_value_larger(self):
        tau2, sigma2 = m_step(50.0, 5.0, 100, 10)
        assert_allclose(tau2, 0.8401394833076412, rtol=1e-12)
        assert_allclose(sigma2, 0.49956600637817955, rtol=1e-12)

    @given(
        st.floats(1e-3, 1e3),
        st.floats(1e-3, 1e3),
        st.integers(2, 200),
        st.integers(1, 200),
    )
    @settings(max_examples=100, deadline=None)
    def test_outputs_positive_and_stationary(self, ess, esn, n, p):
        """The update is an interior stationary point of the objective:
        central finite differences in both coordinates vanish."""
        tau2, sigma2 = m_step(ess, esn, n, p)
        assert tau2 > 0 and sigma2 > 0
        h_t = 1e-6 * tau2
        h_s = 1e-6 * sigma2
        d_tau = (
            q_function(tau2 + h_t, sigma2, ess, esn, n, p)
            - q_function(tau2 - h_t, sigma2, ess, esn, n, p)
        ) / (2 * h_t)
        d_sig = (
            q_function(tau2, sigma2 + h_s, ess, esn, n, p)
            - q_function(tau2, sigma2 - h_s, ess, esn, n, p)
        ) / (2 * h_s)
        scale_t = abs(q_function(tau2, sigma2, ess, esn, n, p)) / tau2 + 1.0
        scale_s = abs(q_function(tau2, sigma2, ess, esn, n, p)) / sigma2 + 1.0
        assert abs(d_tau) < 1e-5 * scale_t
        assert abs(d_sig) < 1e-5 * scale_s

    def test_degenerate_statistics_raise(self):
        with pytest.raises(DegenerateProblemError):
            m_step(0.0, 1.0, 5, 3)
        with pytest.raises(DegenerateProblemError):
            m_step(1.0, 0.0, 5, 3)

    @pytest.mark.parametrize("ess", [1e-300, 1.0, 1e300])
    @pytest.mark.parametrize("esn", [1e-300, 1.0, 1e300])
    def test_extreme_statistics(self, ess, esn):
        """Statistics far from 1 give finite positive outputs wherever
        ESN/ESS is a double. tau2 lies between (n-1)/(p+3) and (n+1)/(p+1)
        times ESN/ESS, so where that ratio under- or overflows tau2 has no
        double either, and m_step refuses."""
        if 0.0 < esn / ess < math.inf:
            tau2, sigma2 = m_step(ess, esn, 50, 4)
            assert 0.0 < tau2 < math.inf and 0.0 < sigma2 < math.inf
        else:
            with pytest.raises(DegenerateProblemError):
                m_step(ess, esn, 50, 4)

    @given(
        st.floats(1e-3, 1e3),
        st.floats(1e-3, 1e3),
        st.integers(2, 200),
        st.integers(1, 200),
        st.integers(-200, 200),
    )
    @settings(max_examples=100, deadline=None)
    def test_scaling_both_statistics_by_a_power_of_four(self, ess, esn, n, p, j):
        """tau2 depends on the statistics only through ESN/ESS, and sigma2
        scales with them: bitwise, for powers of two."""
        tau2, sigma2 = m_step(ess, esn, n, p)
        a = 4.0**j
        assert m_step(a * ess, a * esn, n, p) == (tau2, a * sigma2)

    @given(
        st.floats(-8, 8),
        st.floats(-8, 8),
        st.integers(2, 100000),
        st.integers(1, 100000),
    )
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_a_60_digit_reference(self, log_ess, log_esn, n, p):
        """The ratio form has no cancellation: both outputs are within a few
        units in the last place of the minimizer written in ESS and ESN,
        tau2 = ((n-1) ESN - (1+p) ESS + sqrt(g)) / ((6+2p) ESS), evaluated in
        60-digit decimal arithmetic, over sixteen decades of ESS and ESN."""
        ess, esn = 10.0**log_ess, 10.0**log_esn
        tau2, sigma2 = m_step(ess, esn, n, p)
        E, N = Decimal(ess), Decimal(esn)
        with localcontext() as ctx:
            ctx.prec = 60
            g = (4 * n + 4) * N * (3 + p) * E + ((1 - n) * N + (p + 1) * E) ** 2
            tau2_ref = ((n - 1) * N - (1 + p) * E + g.sqrt()) / ((6 + 2 * p) * E)
            sigma2_ref = (tau2_ref * E + N) / ((n + p + 2) * tau2_ref)
            assert abs(Decimal(tau2) / tau2_ref - 1) < Decimal("2e-15")
            assert abs(Decimal(sigma2) / sigma2_ref - 1) < Decimal("2e-15")


class TestQFunction:
    def test_direct_evaluation(self):
        """tau2 = sigma2 = 1, ESS = ESN = 2, n = p = 2 gives
        0 + 1 + 0 + 1 + log 2."""
        assert_allclose(q_function(1, 1, 2, 2, 2, 2), 2.0 + math.log(2.0), rtol=1e-15)

    def test_rejects_nonpositive_arguments(self):
        with pytest.raises(DataError):
            q_function(0, 1, 1, 1, 2, 2)
        with pytest.raises(DataError):
            q_function(1, 1, -1, 1, 2, 2)

    @given(
        st.floats(1e-2, 1e2),
        st.floats(1e-2, 1e2),
        st.integers(2, 100),
        st.integers(1, 100),
    )
    @settings(max_examples=30, deadline=None)
    def test_m_step_beats_log_grid(self, ess, esn, n, p):
        """The closed-form update attains the minimum over a 200 x 200
        log-spaced grid of (tau2, sigma2) pairs."""
        tau2, sigma2 = m_step(ess, esn, n, p)
        q_star = q_function(tau2, sigma2, ess, esn, n, p)
        tt = np.logspace(-6, 6, 200)
        ss = np.logspace(-6, 6, 200)
        T, S = np.meshgrid(tt, ss)
        grid_q = (
            0.5 * (n + p + 2.0) * np.log(S)
            + ess / (2.0 * S)
            + 0.5 * (p + 1.0) * np.log(T)
            + esn / (2.0 * S * T)
            + np.log1p(T)
        )
        assert q_star <= grid_q.min() + 1e-12 * abs(q_star)


class TestMStepVsNumericOracle:
    @given(
        st.floats(1e-3, 1e3),
        st.floats(1e-3, 1e3),
        st.integers(2, 200),
        st.integers(1, 200),
    )
    @settings(max_examples=60, deadline=None)
    def test_closed_form_matches_search(self, ess, esn, n, p):
        tau2_a, sigma2_a = m_step(ess, esn, n, p)
        tau2_b, sigma2_b = numeric_m_step(ess, esn, n, p)
        assert_allclose(tau2_a, tau2_b, rtol=1e-4)
        assert_allclose(sigma2_a, sigma2_b, rtol=1e-4)


class TestEmFit:
    def test_converged_fit_equals_dense_ridge_at_selected_penalty(self):
        for seed in range(6):
            X, y = _random_problem(seed, 25, 6)
            std = standardize(Dataset(X=X, Y=y))
            rp = rotate(compact_svd(std.X_std), std.Y_centered)
            fit = em_fit(rp)
            assert fit.converged
            ref = dense_ridge_solve(std.X_std, std.Y_centered[:, 0], fit.lambda_)
            assert_allclose(fit.beta, ref, rtol=1e-8, atol=1e-12)

    def test_reports_iteration_count_and_delta(self):
        X, y = _random_problem(9, 30, 5)
        rp = _rotated(X, y)
        fit = em_fit(rp)
        assert 1 <= fit.k <= 100000
        assert fit.delta_final < 1e-8
        assert_allclose(fit.lambda_ * fit.tau2, 1.0, atol=1e-15)

    def test_beta_is_v_times_alpha(self):
        X, y = _random_problem(10, 15, 8)
        rp = _rotated(X, y)
        fit = em_fit(rp)
        assert_allclose(fit.beta, rp.V @ fit.alpha, rtol=1e-14)

    def test_zero_target_raises(self):
        rp = _rotated(np.eye(3), np.zeros(3))
        with pytest.raises(DegenerateProblemError):
            em_fit(rp)

    def test_iteration_cap_reported_as_not_converged(self):
        X, y = _random_problem(11, 20, 4)
        rp = _rotated(X, y)
        fit = em_fit(rp, EmConfig(max_iterations=1))
        assert fit.k == 1
        assert not fit.converged

    def test_exact_linear_data_converges_to_tiny_penalty(self):
        """With y exactly in the column span the residual reaches a
        floating-point fixed point, so the loop still converges (even at an
        absurdly small tolerance) with a near-zero penalty and the least
        squares coefficients."""
        x = np.array([1.0, 2.0, 3.0, 4.0])
        std = standardize(Dataset(X=x[:, None], Y=2.0 * x))
        rp = rotate(compact_svd(std.X_std), std.Y_centered)
        fit = em_fit(rp, EmConfig(tol=1e-320))
        assert fit.converged
        assert not fit.degenerate
        assert fit.lambda_ < 1e-6
        ls = np.linalg.lstsq(std.X_std, std.Y_centered[:, 0], rcond=None)[0]
        assert_allclose(fit.beta, ls, rtol=1e-8)

    def test_ess_underflow_returns_min_norm_fallback(self, monkeypatch):
        """If the M-step ever faces collapsed statistics, the fit reports
        the penalty-free limit (lambda = 0) instead of dividing by zero."""
        import fastridge.em as em_module

        X, y = _random_problem(21, 12, 3)
        rp = _rotated(X, y)

        def collapsed(ess, esn, n, p):
            raise DegenerateProblemError("statistics collapsed")

        monkeypatch.setattr(em_module, "m_step", collapsed)
        fit = em_fit(rp, EmConfig())
        assert fit.degenerate
        assert not fit.converged
        assert fit.lambda_ == 0.0
        assert math.isinf(fit.tau2)
        assert math.isnan(fit.delta_final)
        assert fit.k == 1
        assert np.array_equal(fit.alpha, rp.c[:, 0] / rp.s2)
        ls = np.linalg.lstsq(X, y, rcond=None)[0]
        assert_allclose(fit.beta, ls, rtol=1e-8)

    def test_m_step_refuses_an_update_that_overflows(self):
        """c = (n+1) rho overflows for rho = 1e307, so the update has no
        double: m_step raises, and em_fit's one collapse branch is the only
        place a non-finite update is met."""
        with pytest.raises(DegenerateProblemError):
            m_step(1.0, 1e307, 100, 4)

    def test_degenerate_is_an_infinite_tau2(self):
        """degenerate is read from tau2, so a fit cannot contradict it."""
        X, y = _random_problem(23, 12, 3)
        fit = em_fit(_rotated(X, y))
        assert not fit.degenerate
        assert dataclasses.replace(fit, tau2=math.inf).degenerate
        with pytest.raises(TypeError):
            dataclasses.replace(fit, degenerate=True)

    def test_monotone_descent_of_objective(self):
        """The objective evaluated at successive parameter iterates, with
        the expectation statistics refreshed at each, never increases."""
        for seed in (0, 3, 5):
            X, y = _random_problem(seed, 18, 7)
            std = standardize(Dataset(X=X, Y=y))
            rp = rotate(compact_svd(std.X_std), std.Y_centered)
            n, p = rp.n, rp.p
            tau2, sigma2 = 1.0, float(rp.y_sq_norms[0]) / n
            prev_q = None
            for _ in range(60):
                alpha = rp.c[:, 0] / (rp.s2 + 1.0 / tau2)
                esn = expected_squared_norm(rp, alpha, tau2, sigma2)
                ess, _ = expected_sse(rp, alpha, tau2, sigma2)
                cur_q = q_function(tau2, sigma2, ess, esn, n, p)
                if prev_q is not None:
                    assert cur_q <= prev_q + 1e-10 * (1.0 + abs(prev_q))
                prev_q = cur_q
                tau2, sigma2 = m_step(ess, esn, n, p)

    def test_self_consistency_at_convergence(self):
        """One extra iteration from the converged state moves tau2 by less
        than 10x the convergence tolerance, relatively."""
        X, y = _random_problem(13, 40, 6)
        std = standardize(Dataset(X=X, Y=y))
        rp = rotate(compact_svd(std.X_std), std.Y_centered)
        cfg = EmConfig()
        fit = em_fit(rp, cfg)
        alpha = rp.c[:, 0] / (rp.s2 + 1.0 / fit.tau2)
        esn = expected_squared_norm(rp, alpha, fit.tau2, fit.sigma2)
        ess, _ = expected_sse(rp, alpha, fit.tau2, fit.sigma2)
        tau2_next, _ = m_step(ess, esn, rp.n, rp.p)
        assert abs(tau2_next - fit.tau2) / fit.tau2 < 10 * cfg.tol

    def test_multi_target_runs_independently(self):
        rng = np.random.default_rng(17)
        X = rng.normal(size=(30, 5))
        Y = np.column_stack([X @ rng.normal(size=5) + rng.normal(size=30) for _ in range(2)])
        std = standardize(Dataset(X=X, Y=Y))
        rp = rotate(compact_svd(std.X_std), std.Y_centered)
        fit0 = em_fit(rp, target=0)
        fit1 = em_fit(rp, target=1)
        assert fit0.tau2 != fit1.tau2
        solo = rotate(compact_svd(std.X_std), std.Y_centered[:, 1])
        assert_allclose(em_fit(solo).beta, fit1.beta, rtol=1e-12)

    def test_config_validation(self):
        for tol in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(DataError):
                EmConfig(tol=tol)
        with pytest.raises(DataError):
            EmConfig(max_iterations=0)
        for count in (2.5, 3.0, "3"):
            with pytest.raises(DataError, match="^max_iterations must be an integer, not "):
                EmConfig(max_iterations=count)
        assert EmConfig(max_iterations=np.int64(3)).max_iterations == 3

    def test_config_refuses_a_bool_count(self):
        """max_iterations=True would run one iteration: a bool is no count."""
        with pytest.raises(DataError, match="^max_iterations must be an integer, not True$"):
            EmConfig(max_iterations=True)

    @pytest.mark.parametrize("tol", ["1e-8", None, 10**400], ids=["1e-8", "None", "10**400"])
    def test_config_refuses_a_tol_that_is_not_a_number(self, tol):
        with pytest.raises(DataError, match=f"^tol must be a finite real number, not {re.escape(repr(tol))}$"):
            EmConfig(tol=tol)


class TestMultipleMeans:
    def test_tau_update_zero_norm(self):
        assert tau_update_fixed_variance(0.0, 4) == 0.0

    def test_tau_update_hand_value(self):
        """w = 8, p = 6: sqrt((2 + sqrt(260)) / 16)."""
        expected = math.sqrt((2.0 + math.sqrt(260.0)) / 16.0)
        assert_allclose(tau_update_fixed_variance(8.0, 6), expected, rtol=1e-15)

    def test_tau_update_rejects_negative(self):
        with pytest.raises(DataError):
            tau_update_fixed_variance(-1.0, 3)

    @pytest.mark.parametrize("p", [6, 10, 50])
    def test_fixed_point_iteration_reaches_kappa(self, p):
        """Iterating tau -> update((1-kappa)^2 ||y||^2 + (1-kappa) p)
        with kappa = 1/(1+tau^2) converges to kappa = (p+2)/||y||^2."""
        rng = np.random.default_rng(p)
        y = rng.normal(scale=3.0, size=p)
        s = float(y @ y)
        assert s > p + 2
        tau = 1.0
        for _ in range(10000):
            kappa = 1.0 / (1.0 + tau * tau)
            w = (1.0 - kappa) ** 2 * s + (1.0 - kappa) * p
            tau_next = tau_update_fixed_variance(w, p)
            if abs(tau_next - tau) < 1e-14 * (1.0 + tau):
                tau = tau_next
                break
            tau = tau_next
        kappa = 1.0 / (1.0 + tau * tau)
        assert_allclose(kappa, (p + 2.0) / s, atol=1e-6)

    def test_kappa_hand_values(self):
        y4 = np.zeros(6)
        y4[0] = 4.0
        assert_allclose(multiple_means_kappa(y4), 0.5, rtol=1e-15)
        y10 = np.zeros(8)
        y10[0] = 10.0
        assert_allclose(multiple_means_kappa(y10), 0.1, rtol=1e-15)

    def test_kappa_clamped_at_one(self):
        y = np.ones(4) * 0.5
        assert multiple_means_kappa(y) == 1.0

    def test_kappa_rejects_zero_vector(self):
        with pytest.raises(DataError):
            multiple_means_kappa(np.zeros(3))

    def test_shrinkage_ratio_bound_holds_exactly_from_p_six(self):
        """(p+2)/(p-2) <= 2 if and only if p >= 6."""
        for p in range(3, 60):
            ratio = (p + 2.0) / (p - 2.0)
            assert (ratio <= 2.0) == (p >= 6)


class TestUnimodalityDiagnostic:
    def test_epsilon_min_hand_value(self):
        """n = 100 and gamma_n = 0.5 give epsilon_min = 4/50 = 0.08."""
        s2 = np.array([50.0, 80.0])
        d = unimodality_bound(s2, 100, 2, 0.1)
        assert d.gamma_n == 0.5
        assert d.epsilon_min == 0.08
        assert d.epsilon_exceeds_bound
        assert UnimodalityDiagnostic(0.5, 0.08, 0.1).epsilon_exceeds_bound
        assert not UnimodalityDiagnostic(0.5, 0.08, 0.08).epsilon_exceeds_bound

    def test_rank_deficient_is_inapplicable(self):
        d = unimodality_bound(np.array([3.0]), 10, 4, 0.5)
        assert d.gamma_n == 0.0
        assert d.epsilon_min is None
        assert not d.epsilon_exceeds_bound
        assert not UnimodalityDiagnostic(0.0, None, 0.5).epsilon_exceeds_bound

    def test_duplicated_column_reads_the_cut_spectrum(self):
        """A tall standardized design with a copy of one column is rank
        deficient: the copy's direction lies below compact_svd's floor, so
        no unique mode is certified from rounding."""
        rng = np.random.default_rng(5)
        X = rng.normal(size=(300, 20))
        std = standardize(Dataset(X=np.column_stack([X, X[:, 0]]), Y=rng.normal(size=300)))
        rp = rotate(compact_svd(std.X_std), std.Y_centered)
        d = unimodality_bound(rp.s2, rp.n, rp.p, 1.0)
        assert rp.n_dropped_directions == 1
        assert d.gamma_n == 0.0
        assert d.epsilon_min is None

    def test_sample_size_threshold_exact(self):
        assert sample_size_threshold(1.0, 0.5, 0.1) == 1600.0

    def test_threshold_certifies_uniqueness_beyond_it(self):
        """For gamma_n = c n^-alpha, epsilon > 4/(n gamma_n) exactly when
        n exceeds the threshold."""
        c, alpha, eps = 1.0, 0.5, 0.1
        thr = sample_size_threshold(c, alpha, eps)
        for n in (int(thr) - 100, int(thr) + 100):
            gamma = c * n**-alpha
            d = unimodality_bound(np.array([gamma * n]), n, 1, eps)
            assert d.epsilon_exceeds_bound == (n > thr)

    def test_validation(self):
        with pytest.raises(DataError):
            unimodality_bound(np.array([1.0]), 0, 1, 0.1)
        with pytest.raises(DataError):
            unimodality_bound(np.array([1.0]), 5, 1, 0.0)
        with pytest.raises(DataError):
            sample_size_threshold(1.0, 1.0, 0.1)


_NAN = math.nan
_RP3 = rotate(compact_svd(np.eye(3)), np.ones(3))
_ALPHA3 = rotated_ridge_solution(_RP3, 1.0)
_X3 = np.eye(3)
_Y3 = np.array([1.0, 2.0, 3.0])


# Every real-valued argument of the library, as a call taking the value, and
# the name data.real gives it.
_REAL_ARGUMENTS = [
    ("expected_squared_norm", lambda v: expected_squared_norm(_RP3, _ALPHA3, v, 1.0), "tau2"),
    ("expected_squared_norm", lambda v: expected_squared_norm(_RP3, _ALPHA3, 1.0, v), "sigma2"),
    ("expected_sse", lambda v: expected_sse(_RP3, _ALPHA3, v, 1.0), "tau2"),
    ("expected_sse", lambda v: expected_sse(_RP3, _ALPHA3, 1.0, v), "sigma2"),
    ("q_function", lambda v: q_function(v, 1.0, 1.0, 1.0, 5, 3), "tau2"),
    ("q_function", lambda v: q_function(1.0, v, 1.0, 1.0, 5, 3), "sigma2"),
    ("q_function", lambda v: q_function(1.0, 1.0, v, 1.0, 5, 3), "ess"),
    ("q_function", lambda v: q_function(1.0, 1.0, 1.0, v, 5, 3), "esn"),
    ("tau_update_fixed_variance", lambda v: tau_update_fixed_variance(v, 3), "w"),
    ("sample_size_threshold", lambda v: sample_size_threshold(v, 0.5, 0.1), "c"),
    ("sample_size_threshold", lambda v: sample_size_threshold(1.0, v, 0.1), "alpha"),
    ("sample_size_threshold", lambda v: sample_size_threshold(1.0, 0.5, v), "epsilon"),
    ("unimodality_bound", lambda v: unimodality_bound(np.ones(3), 10, 3, v), "epsilon"),
    ("EmConfig", lambda v: EmConfig(tol=v), "tol"),
    ("rotated_ridge_solution", lambda v: rotated_ridge_solution(_RP3, v), "lambda"),
    ("press", lambda v: press(_RP3, np.ones(3), v), "lambda"),
    ("Setting1Config", lambda v: Setting1Config(n=5, sigma=v, seed=0), "sigma"),
    ("bernoulli", lambda v: RandomStream(1).bernoulli(v, 4), "prob"),
    ("dense_ridge_solve", lambda v: dense_ridge_solve(_X3, _Y3, v), "lambda"),
    ("dense_em_statistics", lambda v: dense_em_statistics(_X3, _Y3, v, 1.0), "tau2"),
    ("dense_em_statistics", lambda v: dense_em_statistics(_X3, _Y3, 1.0, v), "sigma2"),
    ("brute_force_loocv", lambda v: brute_force_loocv(_X3, _Y3, v), "lambda"),
    ("numeric_m_step", lambda v: numeric_m_step(v, 1.0, 5, 3), "ess"),
    ("numeric_m_step", lambda v: numeric_m_step(1.0, v, 5, 3), "esn"),
]


@pytest.mark.parametrize("value", [_NAN, math.inf, True, "1", None], ids=repr)
@pytest.mark.parametrize(
    "call, name", [pytest.param(c, arg, id=f"{f}-{arg}") for f, c, arg in _REAL_ARGUMENTS]
)
def test_malformed_real_argument_is_refused(call, name, value):
    """Every real-valued argument is checked by data.real: NaN, an infinity,
    a bool, a string and None are each refused with one message naming it,
    never a TypeError or a silent 1.0."""
    with pytest.raises(DataError, match=f"^{name} must be a finite real number, not {re.escape(repr(value))}$"):
        call(value)


# Every count argument of the EM module's functions, as a call taking the
# value, and the name data.count gives it.
_COUNT_ARGUMENTS = [
    ("tau_update_fixed_variance", lambda v: tau_update_fixed_variance(1.0, v), "p"),
    ("unimodality_bound", lambda v: unimodality_bound(np.ones(3), v, 3, 0.1), "n"),
    ("unimodality_bound", lambda v: unimodality_bound(np.ones(3), 10, v, 0.1), "p"),
    ("q_function", lambda v: q_function(1.0, 1.0, 1.0, 1.0, v, 3), "n"),
    ("q_function", lambda v: q_function(1.0, 1.0, 1.0, 1.0, 5, v), "p"),
]


@pytest.mark.parametrize(
    "value, message",
    [
        (0, "must be at least 1"),
        (-4, "must be at least 1"),
        (2.5, "must be an integer, not 2.5"),
        ("3", "must be an integer, not '3'"),
        (True, "must be an integer, not True"),
    ],
    ids=repr,
)
@pytest.mark.parametrize(
    "call, name", [pytest.param(c, arg, id=f"{f}-{arg}") for f, c, arg in _COUNT_ARGUMENTS]
)
def test_malformed_count_argument_is_refused(call, name, value, message):
    """p means and n observations are counts, as every count is
    (data.count): zero, a negative, a float, a string and a bool are each
    refused with one message naming them, never a ValueError, a TypeError
    or a number."""
    with pytest.raises(DataError, match=f"^{name} {re.escape(message)}$"):
        call(value)


@pytest.mark.parametrize("args", [(_NAN, 1.0, 5, 3), (1.0, _NAN, 5, 3)], ids=["ess", "esn"])
def test_m_step_refuses_nan_as_a_collapse(args):
    """m_step is em_fit's inner step, not an argument check: a NaN statistic
    fails its domain test with the collapse signal em_fit catches."""
    with pytest.raises(DegenerateProblemError):
        m_step(*args)


def test_multiple_means_kappa_refuses_a_nan_entry():
    with pytest.raises(DataError):
        multiple_means_kappa([_NAN, 1.0])
