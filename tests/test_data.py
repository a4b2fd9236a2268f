"""Dataset loading, standardization, and raw-scale mapping."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from fastridge.data import (
    Dataset,
    FitResult,
    Method,
    destandardize,
    load_csv,
    predict,
    r_squared,
    read_csv,
    standardize,
)
from fastridge.exceptions import DataError


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")


class TestDataset:
    def test_promotes_single_target_to_column(self):
        d = Dataset(X=np.ones((3, 2)), Y=np.array([1.0, 2.0, 3.0]))
        assert d.Y.shape == (3, 1)
        assert (d.n, d.p, d.q) == (3, 2, 1)

    def test_rejects_row_mismatch(self):
        with pytest.raises(DataError):
            Dataset(X=np.ones((3, 2)), Y=np.ones(4))

    def test_rejects_non_finite(self):
        X = np.ones((3, 2))
        X[1, 1] = np.nan
        with pytest.raises(DataError):
            Dataset(X=X, Y=np.ones(3))


class TestLoadCsv:
    def test_named_targets(self, tmp_path):
        path = tmp_path / "d.csv"
        _write_csv(path, ["a", "b", "y"], [[1, 2, 3], [4, 5, 6]])
        d = load_csv(path, "y")
        assert d.column_names == ["a", "b"]
        assert d.target_names == ["y"]
        assert_allclose(d.X, [[1, 2], [4, 5]])
        assert_allclose(d.Y, [[3], [6]])

    def test_last_k_spec(self, tmp_path):
        path = tmp_path / "d.csv"
        _write_csv(path, ["a", "b", "c"], [[1, 2, 3], [4, 5, 6]])
        d = load_csv(path, "last 2")
        assert d.target_names == ["b", "c"]
        assert d.X.shape == (2, 1)

    def test_non_numeric_cell_names_row_and_column(self, tmp_path):
        path = tmp_path / "d.csv"
        _write_csv(path, ["a", "y"], [[1, 2], ["oops", 4]])
        with pytest.raises(DataError, match=r"row 3.*column 1.*a"):
            load_csv(path, "y")

    def test_missing_file(self):
        with pytest.raises(DataError, match="no such file"):
            load_csv("/nonexistent/nothing.csv", "y")

    def test_last_prefixed_names_are_column_names(self, tmp_path):
        path = tmp_path / "d.csv"
        _write_csv(path, ["a", "lastname", "y"], [[1, 2, 3], [4, 5, 6]])
        assert load_csv(path, "lastname").target_names == ["lastname"]
        with pytest.raises(DataError, match="'last x' not found"):
            load_csv(path, "last x")

    def test_cells_float_accepts(self, tmp_path):
        """A quoted number, a blank line and an underscore-grouped number
        read as float() reads them."""
        path = tmp_path / "d.csv"
        path.write_text('a,y\n"1.5",2\n\n1_000, 3 \n', encoding="utf-8")
        d = load_csv(path, "y")
        assert d.X.tolist() == [[1.5], [1000.0]]
        assert d.Y.tolist() == [[2.0], [3.0]]

    @pytest.mark.parametrize("row", ["4", "4,5,6"])
    def test_ragged_row_names_row_and_count(self, tmp_path, row):
        path = tmp_path / "d.csv"
        path.write_text(f"a,y\n1,2\n{row}\n", encoding="utf-8")
        with pytest.raises(DataError, match=r"row 3 has \d cells, expected 2"):
            load_csv(path, "y")

    def test_numeric_parse_is_float_exact(self, tmp_path, monkeypatch):
        """numpy's parser reads every number as float() does, in the forms
        numeric CSV writers emit."""
        parsed = []
        loadtxt = np.loadtxt
        monkeypatch.setattr(np, "loadtxt", lambda *a, **k: parsed.append(loadtxt(*a, **k)) or parsed[-1])
        rng = np.random.default_rng(0)
        values = rng.normal(size=(200, 4)) * 10.0 ** rng.integers(-30, 30, size=(200, 4))
        forms = (lambda v: repr(float(v)), "%.17g".__mod__, "%.6g".__mod__, "%.3e".__mod__)
        cells = [[fmt(v) for fmt, v in zip(forms, row)] for row in values]
        path = tmp_path / "d.csv"
        path.write_text("a,b,c,d\n" + "".join(",".join(r) + "\n" for r in cells), encoding="utf-8")
        header, table, texts = read_csv(path)
        assert header == ["a", "b", "c", "d"] and texts is None
        assert len(parsed) == 1  # the C parser read it
        assert table.tolist() == [[float(c) for c in r] for r in cells]

    def test_selected_columns_and_text_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text('id,a,b\n"r 1, x",1,2\n007,3,4\n', encoding="utf-8")
        header, table, texts = read_csv(path, lambda header: ([2, 1], 0))
        assert header == ["id", "a", "b"]
        assert table.tolist() == [[2.0, 1.0], [4.0, 3.0]]
        assert texts == ["r 1, x", "007"]

    def test_byte_order_mark_is_not_part_of_the_first_name(self, tmp_path):
        """Spreadsheet "CSV UTF-8" exports start with a byte-order mark, on
        the numeric path and on the cell-by-cell one."""
        path = tmp_path / "d.csv"
        path.write_text("x0,x1,y\n1,2,3\n4,5,6\n", encoding="utf-8-sig")
        d = load_csv(path, "x0")
        assert d.target_names == ["x0"]
        assert d.column_names == ["x1", "y"]
        assert d.Y.tolist() == [[1.0], [4.0]]
        path.write_text("id,a\nr1,1\n", encoding="utf-8-sig")
        header, table, texts = read_csv(path, lambda header: ([1], 0))
        assert header == ["id", "a"]
        assert texts == ["r1"]

    def test_unknown_target_column(self, tmp_path):
        path = tmp_path / "d.csv"
        _write_csv(path, ["a", "b"], [[1, 2]])
        with pytest.raises(DataError, match="not found"):
            load_csv(path, "z")


class TestStandardize:
    def test_columns_have_zero_mean_unit_sd(self):
        rng = np.random.default_rng(0)
        d = Dataset(X=rng.normal(2.0, 3.0, size=(40, 5)), Y=rng.normal(size=40))
        s = standardize(d)
        assert_allclose(s.X_std.mean(axis=0), 0.0, atol=1e-12)
        assert_allclose(s.X_std.std(axis=0, ddof=1), 1.0, rtol=1e-12)
        assert_allclose(s.Y_centered.mean(axis=0), 0.0, atol=1e-12)

    def test_drops_constant_columns(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(20, 3))
        X[:, 1] = 7.0
        s = standardize(Dataset(X=X, Y=rng.normal(size=20)))
        assert list(s.kept_columns) == [0, 2]
        assert s.p_kept == 2 and s.p_original == 3

    @pytest.mark.parametrize(
        "column",
        [
            np.full(3, 0.1),
            np.full(10, 0.1),
            np.full(5000, 0.1),
            np.full(7, 0.7),
            np.array([0.0, 1e-170, 0.0]),
        ],
        ids=["0.1x3", "0.1x10", "0.1x5000", "0.7x7", "underflow"],
    )
    def test_drops_columns_with_no_spread(self, column):
        """A column of 0.1 or 0.7 has a mean that does not round back to
        its value, hence a tiny nonzero computed sd; a column of tiny values
        has a sd that underflows to zero. Both are dropped."""
        n = column.shape[0]
        X = np.column_stack([np.arange(n, dtype=float), column])
        s = standardize(Dataset(X=X, Y=np.arange(n, dtype=float)))
        assert list(s.kept_columns) == [0]

    @pytest.mark.parametrize("constant", [None, 0.1, 7.0])
    def test_matches_numpy_mean_and_sd_exactly(self, constant):
        """X_std, col_means and col_sds are bitwise what numpy's mean and
        std give, and X_std is Fortran-ordered: glmnet_grid's X_std' y
        rounds by the layout."""
        rng = np.random.default_rng(3)
        X = rng.normal(2.0, 3.0, size=(50, 6)) * np.exp(rng.normal(size=6))
        if constant is not None:
            X[:, 2] = constant
        s = standardize(Dataset(X=X, Y=rng.normal(size=50)))
        kept = s.kept_columns
        assert kept.size == (6 if constant is None else 5)
        ref = (X[:, kept] - X.mean(axis=0)[kept]) / X.std(axis=0, ddof=1)[kept]
        assert np.array_equal(s.X_std, ref)
        assert s.X_std.flags.f_contiguous
        assert np.array_equal(s.col_means, X.mean(axis=0))
        assert np.array_equal(s.col_sds, X.std(axis=0, ddof=1))

    def test_all_constant_errors(self):
        with pytest.raises(DataError):
            standardize(Dataset(X=np.ones((5, 2)), Y=np.arange(5.0)))

    def test_single_row_errors(self):
        with pytest.raises(DataError):
            standardize(Dataset(X=np.array([[1.0, 2.0]]), Y=np.array([1.0])))

    @given(st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_standardizing_standardized_data_is_identity(self, seed):
        """A second standardize pass changes nothing: the output already
        has zero column means and unit sample sds."""
        rng = np.random.default_rng(seed)
        d = Dataset(X=rng.normal(5, 2, size=(15, 3)), Y=rng.normal(size=15))
        s1 = standardize(d)
        s2 = standardize(Dataset(X=s1.X_std, Y=s1.Y_centered))
        assert_allclose(s2.X_std, s1.X_std, atol=1e-12)
        assert_allclose(s2.Y_centered, s1.Y_centered, atol=1e-12)


class TestDestandardizeAndPredict:
    def test_roundtrip_recovers_training_fit(self):
        """Fitting on the standardized scale then mapping back must give the
        same fitted values as applying the raw-scale model to raw X."""
        rng = np.random.default_rng(2)
        X = rng.normal(3.0, 2.0, size=(30, 4))
        y = X @ np.array([1.0, -1.0, 0.5, 2.0]) + 5.0
        s = standardize(Dataset(X=X, Y=y))
        beta_std = rng.normal(size=4)
        beta_raw, intercepts = destandardize(beta_std, s)
        fitted_std = s.X_std @ beta_std + s.y_means[0]
        result = FitResult(
            beta_raw=beta_raw,
            intercepts=intercepts,
            lambda_=np.array([1.0]),
            method=Method.LOOCV_FIXED,
        )
        assert_allclose(predict(result, X)[:, 0], fitted_std, rtol=1e-12)

    def test_dropped_columns_get_zero_coefficient(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(20, 3))
        X[:, 2] = -1.0
        s = standardize(Dataset(X=X, Y=rng.normal(size=20)))
        beta_raw, _ = destandardize(np.array([1.0, 2.0]), s)
        assert beta_raw[2, 0] == 0.0

    def test_predict_rejects_wrong_width(self):
        result = FitResult(
            beta_raw=np.ones(3),
            intercepts=np.zeros(1),
            lambda_=np.array([1.0]),
            method=Method.EM,
            tau2=np.array([1.0]),
        )
        with pytest.raises(DataError):
            predict(result, np.ones((2, 4)))


class TestFitResult:
    def test_lambda_tau2_consistency_enforced(self):
        with pytest.raises(DataError):
            FitResult(
                beta_raw=np.ones(2),
                intercepts=np.zeros(1),
                lambda_=np.array([2.0]),
                method=Method.EM,
                tau2=np.array([1.0]),
            )

    def test_accepts_reciprocal_pair(self):
        f = FitResult(
            beta_raw=np.ones(2),
            intercepts=np.zeros(1),
            lambda_=np.array([4.0]),
            method=Method.EM,
            tau2=np.array([0.25]),
        )
        assert f.beta_raw.shape == (2, 1)


class TestRSquared:
    def test_perfect_prediction(self):
        y = np.array([1.0, 2.0, 3.0])
        assert r_squared(y, y) == 1.0

    def test_mean_prediction_scores_zero(self):
        y = np.array([1.0, 2.0, 3.0])
        assert_allclose(r_squared(y, np.full(3, 2.0)), 0.0, atol=1e-15)

    def test_can_be_negative(self):
        y = np.array([1.0, 2.0, 3.0])
        assert r_squared(y, -y) < 0

    @given(st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_invariant_under_affine_change_of_units(self, seed):
        """Rescaling y and predictions by the same affine map leaves the
        score unchanged."""
        rng = np.random.default_rng(seed)
        y = rng.normal(size=12)
        pred = y + rng.normal(scale=0.5, size=12)
        a, b = 2.5, -7.0
        assert_allclose(
            r_squared(a * y + b, a * pred + b), r_squared(y, pred), rtol=1e-9
        )

    def test_constant_truth_errors(self):
        with pytest.raises(DataError):
            r_squared(np.ones(4), np.arange(4.0))
