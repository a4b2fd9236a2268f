"""Synthetic data generators, accuracy metrics, the sweep harness, and the
CSV writers."""

import dataclasses
import io
import math
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fastridge.data import Dataset, Method, destandardize, standardize
from fastridge.decomposition import compact_svd, rotate
from fastridge.em import em_fit
from fastridge.exceptions import DataError, DegenerateProblemError
from fastridge.rng import RandomStream
from fastridge.simulate import (
    BENCH_CSV_HEADER,
    CSV_HEADER,
    BenchRow,
    MetricsRow,
    Setting1Config,
    Setting2Config,
    _bartlett_factor,
    bench_comparison,
    gen_bernoulli_sparse,
    gen_gaussian_wishart,
    parameter_mse,
    run_comparison,
    shrinkage_ratio,
    write_bench_csv,
    write_metrics_csv,
)


class TestConfigs:
    def test_setting1_validation(self):
        with pytest.raises(DataError):
            Setting1Config(n=0, sigma=1.0, seed=0)
        for sigma in (-1.0, math.nan, math.inf):
            with pytest.raises(DataError):
                Setting1Config(n=5, sigma=sigma, seed=0)
        with pytest.raises(DataError):
            Setting1Config(n=5, sigma=1.0, seed=-1)
        Setting1Config(n=5, sigma=0.0, seed=0)  # noiseless is legitimate

    def test_setting2_validation(self):
        with pytest.raises(DataError):
            Setting2Config(n=5, p=0, seed=0)
        with pytest.raises(DataError):
            Setting2Config(n=5, p=2, seed=-1)


class TestGenBernoulliSparse:
    def test_bit_identical_replay(self):
        cfg = Setting1Config(n=30, sigma=1.5, seed=11, p=20)
        X1, y1, b1 = gen_bernoulli_sparse(cfg)
        X2, y2, b2 = gen_bernoulli_sparse(cfg)
        assert np.array_equal(X1, X2)
        assert np.array_equal(y1, y2)
        assert np.array_equal(b1, b2)

    def test_shapes_and_binary_entries(self):
        X, y, beta0 = gen_bernoulli_sparse(Setting1Config(n=15, sigma=1.0, seed=3, p=7))
        assert X.shape == (15, 7)
        assert y.shape == (15,)
        assert beta0.shape == (7,)
        assert set(np.unique(X)) <= {0.0, 1.0}

    def test_fraction_of_ones_concentrates(self):
        """For np >= 1e5 draws the empirical rate sits within three binomial
        standard errors of the nominal 0.01."""
        cfg = Setting1Config(n=1000, sigma=1.0, seed=7, p=100)
        X, _, _ = gen_bernoulli_sparse(cfg)
        tol = 3.0 * math.sqrt(0.01 * 0.99 / X.size)
        assert abs(X.mean() - 0.01) < tol

    def test_noiseless_response_is_exact(self):
        X, y, beta0 = gen_bernoulli_sparse(Setting1Config(n=40, sigma=0.0, seed=5, p=10))
        assert np.array_equal(y, X @ beta0)

    def test_coefficients_do_not_depend_on_n(self):
        """beta0 lives on its own substream, so resizing the design leaves
        the true coefficients untouched."""
        _, _, small = gen_bernoulli_sparse(Setting1Config(n=10, sigma=1.0, seed=9, p=12))
        _, _, large = gen_bernoulli_sparse(Setting1Config(n=80, sigma=1.0, seed=9, p=12))
        assert np.array_equal(small, large)


class TestGenGaussianWishart:
    def test_bit_identical_replay(self):
        cfg = Setting2Config(n=25, p=6, seed=13)
        X1, y1, b1 = gen_gaussian_wishart(cfg)
        X2, y2, b2 = gen_gaussian_wishart(cfg)
        assert np.array_equal(X1, X2)
        assert np.array_equal(y1, y2)
        assert np.array_equal(b1, b2)

    def test_scalar_case_matches_its_covariance_draw(self):
        """p = 1: the covariance is one chi-square(1) scalar and the sample
        variance of the design converges to that exact draw."""
        cfg = Setting2Config(n=100000, p=1, seed=21)
        X, _, _ = gen_gaussian_wishart(cfg)
        sigma_draw = _bartlett_factor(RandomStream(cfg.seed, 2, 4), 1)[0, 0] ** 2
        assert_allclose(X.var(), sigma_draw, rtol=0.05)

    def test_wishart_mean_is_p_on_diagonal(self):
        """E[Sigma] = p I: averaging 1e4 draws lands within 5% of p on the
        diagonal and near zero off it."""
        p = 4
        stream = RandomStream(31, 2, 4)
        total = np.zeros((p, p))
        draws = 10000
        for _ in range(draws):
            A = _bartlett_factor(stream, p)
            total += A @ A.T
        mean = total / draws
        assert_allclose(np.diag(mean), np.full(p, float(p)), rtol=0.05)
        off = mean - np.diag(np.diag(mean))
        assert np.max(np.abs(off)) < 0.05 * p

    def test_design_is_normals_times_the_factor(self):
        """X is the design substream's normals times A' for the Bartlett
        factor A of the covariance substream, bit for bit."""
        cfg = Setting2Config(n=40, p=7, seed=5)
        X, _, _ = gen_gaussian_wishart(cfg)
        A = _bartlett_factor(RandomStream(5, 2, 4), 7)
        Z = RandomStream(5, 2, 1).normals(40 * 7).reshape(40, 7)
        assert np.array_equal(np.tril(A), A)
        assert np.array_equal(X, Z @ A.T)

    def test_noise_scale(self):
        """The noise is sqrt(0.25) times the noise substream's normals."""
        cfg = Setting2Config(n=50, p=3, seed=2)
        X, y, beta0 = gen_gaussian_wishart(cfg)
        assert y.shape == (50,)
        assert_allclose(y - X @ beta0, 0.5 * RandomStream(2, 2, 3).normals(50), atol=1e-12)


class TestMetrics:
    def test_parameter_mse_exact_cases(self):
        beta = np.array([1.0, -2.0, 3.0])
        assert parameter_mse(beta, beta) == 0.0
        assert parameter_mse(np.zeros(4), np.ones(4)) == 1.0

    def test_parameter_mse_matches_loop(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=9)
        b = rng.normal(size=9)
        total = 0.0
        for j in range(9):
            total += (a[j] - b[j]) ** 2
        assert_allclose(parameter_mse(a, b), total / 9, rtol=1e-15)

    def test_parameter_mse_length_mismatch(self):
        with pytest.raises(DataError):
            parameter_mse(np.ones(3), np.ones(4))

    def test_shrinkage_ratio_exact_cases(self):
        beta = np.array([3.0, 4.0])
        assert shrinkage_ratio(beta, beta) == 1.0
        assert shrinkage_ratio(np.zeros(2), beta) == 0.0
        assert shrinkage_ratio(beta / 2, beta) == 0.5

    def test_shrinkage_ratio_rejects_zero_truth(self):
        with pytest.raises(DataError):
            shrinkage_ratio(np.ones(2), np.zeros(2))


def _strip_times(row):
    return dataclasses.replace(row, t_preprocess_ns=0, t_mainloop_ns=0)


class TestRunComparison:
    def test_validation(self):
        with pytest.raises(DataError):
            run_comparison(3, [Method.EM], [10], [1.0], 1, 0)
        with pytest.raises(DataError):
            run_comparison(1, [], [10], [1.0], 1, 0)
        with pytest.raises(DataError):
            run_comparison(1, [Method.EM], [], [1.0], 1, 0)
        with pytest.raises(DataError):
            run_comparison(1, [Method.EM], [10], [1.0], 0, 0)

    def test_grid_length_below_two_rejected(self):
        """A one-point grid cannot be scored; the sweep refuses it instead of
        writing every row failed."""
        with pytest.raises(DataError, match="grid_size"):
            run_comparison(1, [Method.LOOCV_FIXED], [400], [1.0], 1, 0, p=8, grid_length=1)

    def test_repeated_method_rejected(self):
        """A repeated method would write each of its rows twice."""
        with pytest.raises(DataError, match="repeat"):
            run_comparison(1, [Method.EM, Method.LOOCV_FIXED, Method.EM], [10], [1.0], 1, 0)

    def test_p_rejected_for_setting2(self):
        """Setting 2 sweeps p, so a fixed p would be ignored."""
        with pytest.raises(DataError, match="p does not apply to setting 2"):
            run_comparison(2, [Method.EM], [20], [4], 1, 0, p=5)

    def test_setting1_p_defaults_to_setting1config(self):
        """Rows without p are the rows at Setting1Config's p, 100, byte for byte."""
        files = []
        for extra in ({}, {"p": 100}):
            rows = run_comparison(
                1, [Method.EM, Method.LOOCV_FIXED], [400], [1.0], 1, 3, grid_length=10, **extra
            )
            fh = io.StringIO()
            write_metrics_csv([_strip_times(r) for r in rows], fh)
            files.append(fh.getvalue())
        assert files[0] == files[1]
        assert ",400,100," in files[0]

    def test_rows_deterministic_up_to_timings(self):
        kwargs = dict(
            setting=2,
            methods=[Method.EM, Method.LOOCV_FIXED],
            n_list=[25],
            sigma_or_p_list=[6],
            reps=2,
            seed=4,
            grid_length=20,
        )
        a = run_comparison(**kwargs)
        b = run_comparison(**kwargs)
        assert [_strip_times(r) for r in a] == [_strip_times(r) for r in b]

    def test_row_order_is_cells_then_reps_then_methods(self):
        # n >= 400 keeps the Bernoulli(0.01) designs from degenerating
        methods = [Method.EM, Method.LOOCV_FIXED]
        rows = run_comparison(
            setting=1,
            methods=methods,
            n_list=[400, 500],
            sigma_or_p_list=[0.5, 1.0],
            reps=2,
            seed=1,
            p=8,
            grid_length=10,
        )
        assert len(rows) == 2 * 2 * 2 * 2
        assert [r.method for r in rows] == methods * 8
        assert [r.n for r in rows] == [400] * 8 + [500] * 8
        sigmas = [r.sigma for r in rows[:8]]
        assert sigmas == [0.5] * 4 + [1.0] * 4
        assert not any(r.failed for r in rows)

    def test_methods_share_preprocessing_time(self):
        rows = run_comparison(
            setting=2,
            methods=[Method.EM, Method.LOOCV_FIXED, Method.LOOCV_GLMNET],
            n_list=[30],
            sigma_or_p_list=[5],
            reps=1,
            seed=6,
            grid_length=15,
        )
        assert len(rows) == 3
        assert len({r.t_preprocess_ns for r in rows}) == 1
        assert all(r.seed == rows[0].seed for r in rows)

    def test_setting2_sigma_column_is_noise_sd(self):
        rows = run_comparison(
            setting=2,
            methods=[Method.EM],
            n_list=[20],
            sigma_or_p_list=[4],
            reps=1,
            seed=0,
        )
        assert rows[0].sigma == 0.5
        assert rows[0].p == 4

    def test_row_is_regenerable_from_recorded_seed(self):
        """Any row can be reproduced in isolation: rebuild the data from the
        per-replication seed it carries and refit."""
        rows = run_comparison(
            setting=1,
            methods=[Method.EM],
            n_list=[400],
            sigma_or_p_list=[1.0],
            reps=3,
            seed=123,
            p=12,
        )
        row = rows[1]
        cfg = Setting1Config(n=row.n, sigma=row.sigma, seed=row.seed, p=row.p)
        X, y, beta0 = gen_bernoulli_sparse(cfg)
        std = standardize(Dataset(X=X, Y=y))
        rp = rotate(compact_svd(std.X_std), std.Y_centered)
        fit = em_fit(rp)
        beta_raw, _ = destandardize(fit.beta, std)
        assert_allclose(parameter_mse(beta_raw[:, 0], beta0), row.param_mse, rtol=1e-12)
        assert fit.k == row.k_iterations

    def test_solver_failure_marks_row_and_continues(self, monkeypatch):
        import fastridge.em as em_module

        def boom(*args, **kwargs):
            raise DegenerateProblemError("forced failure")

        monkeypatch.setattr(em_module, "em_fit", boom)
        rows = run_comparison(
            setting=2,
            methods=[Method.EM, Method.LOOCV_FIXED],
            n_list=[20],
            sigma_or_p_list=[6],
            reps=1,
            seed=8,
            grid_length=10,
        )
        em_row, loocv_row = rows
        assert em_row.failed
        assert math.isnan(em_row.param_mse)
        assert math.isnan(em_row.shrinkage_ratio)
        assert em_row.k_iterations is None
        assert not loocv_row.failed
        assert loocv_row.param_mse >= 0

    def test_preprocessing_failure_marks_all_methods(self):
        """A draw that cannot be standardized (all-zero sparse design at
        tiny n) yields one failed row per method, not an aborted sweep."""
        rows = run_comparison(
            setting=1,
            methods=[Method.EM, Method.LOOCV_FIXED],
            n_list=[3],
            sigma_or_p_list=[1.0],
            reps=1,
            seed=0,
            p=4,
            grid_length=5,
        )
        assert len(rows) == 2
        assert all(r.failed for r in rows)
        assert all(math.isnan(r.param_mse) for r in rows)

    def test_phase_times_fit_inside_wall_clock(self):
        t0 = time.perf_counter_ns()
        rows = run_comparison(
            setting=2,
            methods=[Method.EM],
            n_list=[30],
            sigma_or_p_list=[5],
            reps=1,
            seed=3,
        )
        wall = time.perf_counter_ns() - t0
        row = rows[0]
        assert row.t_preprocess_ns >= 0 and row.t_mainloop_ns >= 0
        assert row.t_preprocess_ns + row.t_mainloop_ns <= wall


class TestBenchComparison:
    def test_one_row_per_method_and_cell(self):
        rows = bench_comparison(
            methods=[Method.EM, Method.LOOCV_FIXED],
            n_list=[40, 60],
            p_list=[5],
            reps=2,
            seed=0,
            grid_length=12,
        )
        assert len(rows) == 4
        assert [(r.n, r.p, r.method) for r in rows] == [
            (40, 5, Method.EM),
            (40, 5, Method.LOOCV_FIXED),
            (60, 5, Method.EM),
            (60, 5, Method.LOOCV_FIXED),
        ]
        for r in rows:
            assert r.reps == 2
            assert r.t_mainloop_ns > 0
            assert r.t_per_unit_ns > 0

    def test_unit_counts(self):
        """LOOCV work units are the grid length; EM units are the iteration
        count, which is deterministic for a fixed seed."""
        rows1 = bench_comparison([Method.EM, Method.LOOCV_FIXED], [50], [6], 2, 7, 25)
        rows2 = bench_comparison([Method.EM, Method.LOOCV_FIXED], [50], [6], 2, 7, 25)
        em1, cv1 = rows1
        em2, cv2 = rows2
        assert cv1.unit_count == 25.0
        assert em1.unit_count == em2.unit_count >= 1.0
        assert cv1.t_mainloop_ns >= cv1.t_per_unit_ns

    def test_validation(self):
        with pytest.raises(DataError):
            bench_comparison([], [10], [2], 1, 0)
        with pytest.raises(DataError):
            bench_comparison([Method.EM], [], [2], 1, 0)
        with pytest.raises(DataError):
            bench_comparison([Method.EM], [10], [2], 0, 0)

    def test_repeated_method_rejected(self):
        """A repeated method would pool both copies' samples into one list."""
        with pytest.raises(DataError, match="repeat"):
            bench_comparison([Method.EM, Method.EM], [10], [2], 1, 0)

    def test_first_failure_aborts_with_its_error(self):
        """The bench writes no failed rows: the first failure propagates."""
        with pytest.raises(DataError, match="standardize needs n >= 2"):
            bench_comparison([Method.EM], [1], [5], 1, 0)


class TestCsvWriters:
    def _sample_rows(self):
        ok = MetricsRow(
            method=Method.EM,
            n=10,
            p=3,
            sigma=1.0,
            param_mse=0.25,
            shrinkage_ratio=0.75,
            lambda_selected=2.5,
            k_iterations=12,
            t_preprocess_ns=100,
            t_mainloop_ns=200,
            seed=42,
        )
        bad = MetricsRow(
            method=Method.LOOCV_FIXED,
            n=10,
            p=3,
            sigma=1.0,
            param_mse=math.nan,
            shrinkage_ratio=math.nan,
            lambda_selected=math.nan,
            k_iterations=None,
            t_preprocess_ns=100,
            t_mainloop_ns=0,
            seed=42,
            failed=True,
        )
        return [ok, bad]

    def test_metrics_header_and_cells(self):
        buf = io.StringIO()
        write_metrics_csv(self._sample_rows(), buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == CSV_HEADER
        ok_cells = lines[1].split(",")
        assert ok_cells[0] == "em"
        assert ok_cells[4] == repr(0.25)
        assert ok_cells[7] == "12"
        assert ok_cells[11] == "false"
        bad_cells = lines[2].split(",")
        assert bad_cells[0] == "loocv-fixed"
        assert bad_cells[4] == "nan"
        assert bad_cells[7] == ""  # no iteration count outside EM
        assert bad_cells[11] == "true"

    def test_metrics_floats_roundtrip(self):
        buf = io.StringIO()
        rows = run_comparison(
            setting=2,
            methods=[Method.LOOCV_FIXED],
            n_list=[20],
            sigma_or_p_list=[6],
            reps=1,
            seed=9,
            grid_length=10,
        )
        write_metrics_csv(rows, buf)
        cells = buf.getvalue().splitlines()[1].split(",")
        assert float(cells[4]) == rows[0].param_mse
        assert float(cells[5]) == rows[0].shrinkage_ratio
        assert float(cells[6]) == rows[0].lambda_selected
        assert int(cells[10]) == rows[0].seed

    def test_int_sigma_is_written_as_a_float(self):
        buf = io.StringIO()
        write_metrics_csv(run_comparison(1, [Method.EM], [50], [1], 1, 0, p=5), buf)
        assert buf.getvalue().splitlines()[1].split(",")[3] == "1.0"

    def test_bench_cells(self):
        buf = io.StringIO()
        write_bench_csv([BenchRow(Method.EM, 3, 4, 2, 1.5, 2.25, 3.0, 0.75)], buf)
        assert buf.getvalue().splitlines()[1] == "em,3,4,2,1.5,2.25,3.0,0.75"

    def test_bench_header(self):
        buf = io.StringIO()
        rows = bench_comparison([Method.EM], [30], [4], 1, 0, grid_length=10)
        write_bench_csv(rows, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == BENCH_CSV_HEADER
        assert lines[1].startswith("em,30,4,1,")
