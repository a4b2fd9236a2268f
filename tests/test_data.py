"""Dataset loading, standardization, and raw-scale mapping."""

import os
import random
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from fastridge import data
from fastridge.data import (
    Dataset,
    FitResult,
    Method,
    destandardize,
    load_csv,
    predict,
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
        """The block parser reads every number as float() does, in the forms
        numeric CSV writers emit."""
        parsed = []
        parse_block = data._parse_block
        monkeypatch.setattr(data, "_parse_block", lambda *a: parsed.append(parse_block(*a)) or parsed[-1])
        rng = np.random.default_rng(0)
        values = rng.normal(size=(200, 4)) * 10.0 ** rng.integers(-30, 30, size=(200, 4))
        forms = (lambda v: repr(float(v)), "%.17g".__mod__, "%.6g".__mod__, "%.3e".__mod__)
        cells = [[fmt(v) for fmt, v in zip(forms, row)] for row in values]
        path = tmp_path / "d.csv"
        path.write_text("a,b,c,d\n" + "".join(",".join(r) + "\n" for r in cells), encoding="utf-8")
        header, table, texts = read_csv(path)
        assert header == ["a", "b", "c", "d"] and texts is None
        assert len(parsed) == 1 and parsed[0] is not None  # one block read it
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

    @pytest.mark.parametrize("header", ["a,a,y", ' a,"a",y'], ids=["blocks", "cells"])
    def test_header_naming_a_column_twice(self, tmp_path, header):
        """Both header paths, the block reader's and csv.reader's, compare
        the stripped names."""
        path = tmp_path / "d.csv"
        path.write_text(f"{header}\n1,2,3\n4,5,6\n", encoding="utf-8")
        with pytest.raises(DataError) as exc:
            read_csv(path)
        assert str(exc.value) == f"{path}: header names column 'a' twice"

    @pytest.mark.parametrize("spec", ["y,y", ["b", "y", "b"]])
    def test_target_listed_twice(self, tmp_path, spec):
        path = tmp_path / "d.csv"
        _write_csv(path, ["a", "b", "y"], [[1, 2, 3], [4, 5, 6]])
        with pytest.raises(DataError, match=f"^target column {spec[0]!r} listed twice$"):
            load_csv(path, spec)


def _hard_tokens() -> list[str]:
    """Number tokens that are hard to round: random doubles in the forms CSV
    writers emit, exact midpoints between adjacent doubles and numbers just
    off them (40+ digits), subnormals, the largest double, integers past
    2^53 and 2^64, and signed zeros and underflows."""
    rng = random.Random(11)
    tokens = []
    with localcontext() as ctx:
        ctx.prec = 2000  # midpoints and the numbers beside them are exact
        for _ in range(300):
            v = rng.uniform(1.0, 10.0) * 10.0 ** rng.randint(-300, 300)
            mid = (Decimal(v) + Decimal(float(np.nextafter(v, np.inf)))) / 2
            off = mid.scaleb(-40)
            tokens += [format(mid, "e"), format(mid + off, "e"), format(mid - off, "e")]
    for _ in range(2000):
        v = rng.uniform(1.0, 10.0) * 10.0 ** rng.randint(-300, 300) * rng.choice((1, -1))
        tokens += [repr(v), "%.17g" % v, "%.6g" % v, "%.3e" % v]
    tokens += [repr(5e-324 * rng.randint(1, 2**52)) for _ in range(100)]
    tokens += ["4.9406564584124654e-324", "2.4703282292062327e-324", "2.4703282292062328e-324"]
    tokens += ["1.7976931348623157e308", "-1.7976931348623157e308", "2.2250738585072011e-308"]
    for big in (2**53 + 1, 2**53 + 3, 2**63 + 1, 2**64 - 1, 2**64 + 1, 2**70 + 2**17 + 1):
        tokens += [str(big), str(-big)]
    return tokens + ["-0", "-0.0", "0", "1e-400", "-1e-400", "1e-0", "-0e0"]


class TestNumericBlocks:
    """The block reader gives float()'s bits for every number it takes, and
    a file it does not take reads exactly as the cell-by-cell path reads it."""

    @staticmethod
    def _refuse_cells(monkeypatch):
        def refuse(fh, path, select):
            raise AssertionError("read cell by cell")

        monkeypatch.setattr(data, "_read_cells", refuse)

    @pytest.mark.parametrize("block_bytes", [64, data._BLOCK_BYTES])
    def test_hard_numbers_read_as_float_does(self, tmp_path, monkeypatch, block_bytes):
        """CRLF line ends, a trailing blank line and blocks cut anywhere."""
        self._refuse_cells(monkeypatch)
        monkeypatch.setattr(data, "_BLOCK_BYTES", block_bytes)
        tokens = _hard_tokens()
        tokens += ["1"] * (-len(tokens) % 8)
        rows = [tokens[i:i + 8] for i in range(0, len(tokens), 8)]
        path = tmp_path / "d.csv"
        body = "\r\n".join(",".join(r) for r in rows)
        path.write_bytes(("a,b,c,d,e,f,g,h\r\n" + body + "\r\n\r\n").encode())
        header, table, _ = read_csv(path)
        assert header == list("abcdefgh")
        expected = np.array([[float(c) for c in r] for r in rows])
        assert np.array_equal(table.view(np.int64), expected.view(np.int64))

    def test_negative_zero_integers(self, tmp_path, monkeypatch):
        """orjson reads the integer -0 as 0; the reader keeps float()'s -0.0,
        also in a %.6g CRLF file with a constant column, and leaves the
        exponent in 1e-0 alone."""
        self._refuse_cells(monkeypatch)
        rng = np.random.default_rng(4)
        values = np.column_stack([rng.normal(size=50), np.full(50, 3.0), np.full(50, -0.0)])
        lines = [",".join("%.6g" % v for v in row) for row in values] + ["-0,0,1e-0", "-0e0,-0.0,-0"]
        path = tmp_path / "d.csv"
        path.write_bytes(("x,c,z\r\n" + "\r\n".join(lines) + "\r\n").encode())
        _, table, _ = read_csv(path)
        expected = np.array([[float(c) for c in line.split(",")] for line in lines])
        assert np.array_equal(table.view(np.int64), expected.view(np.int64))
        assert np.signbit(table[:50, 2]).all()

    @pytest.mark.parametrize(
        "row",
        ["+1,2", ".5,2", "1.,2", "007,2", "1_000,2", "nan,2", "1e400,2", '"2",2', "", " 1 ,\t2"],
        ids=["plus", "dot5", "1dot", "007", "underscore", "nan", "1e400", "quoted", "blank", "spaces"],
    )
    def test_other_cells_read_as_cells(self, tmp_path, monkeypatch, row):
        """Cells JSON does not read as float() does, after and between
        blocks the reader took, give the cell-by-cell table."""
        monkeypatch.setattr(data, "_BLOCK_BYTES", 64)
        lines = [f"{i}.25,{-i}" for i in range(40)]
        lines[25] = row
        path = tmp_path / "d.csv"
        path.write_text("a,b\n" + "\n".join(lines) + "\n", encoding="utf-8")
        header, table, texts = read_csv(path)
        with open(path, newline="", encoding="utf-8") as fh:
            ref_header, ref_table, ref_texts = data._read_cells(fh, path, None)
        assert (header, texts) == (ref_header, ref_texts)
        assert np.array_equal(table.view(np.int64), ref_table.view(np.int64))

    @pytest.mark.parametrize(
        "row, message",
        [
            ("x,2", r"non-numeric cell 'x' at row 32, column 1 \(a\)$"),
            ("1,true", r"non-numeric cell 'true' at row 32, column 2 \(b\)$"),
            ("1],[2,3", r"row 32 has 3 cells, expected 2$"),
            ("1,2,3", r"row 32 has 3 cells, expected 2$"),
            ("1\r,2", r"row 32 has 1 cells, expected 2$"),  # a lone CR ends a row
        ],
    )
    def test_errors_after_read_blocks_name_the_row(self, tmp_path, monkeypatch, row, message):
        monkeypatch.setattr(data, "_BLOCK_BYTES", 64)
        lines = [f"{i}.5,{i}" for i in range(40)]
        lines[30] = row
        path = tmp_path / "d.csv"
        path.write_text("a,b\n" + "\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(DataError, match=message):
            read_csv(path)

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    @pytest.mark.parametrize("row", [None, "+1,2", "1_000,2"], ids=["numeric", "plus", "underscore"])
    def test_pipe_reads_as_the_file(self, tmp_path, monkeypatch, row):
        """A pipe (say --input /dev/stdin) reads as the same bytes in a file
        do, also when the cell path reads it again from its start."""
        monkeypatch.setattr(data, "_BLOCK_BYTES", 64)
        lines = [f"{i}.25,{-i}" for i in range(40)]
        if row is not None:
            lines[30] = row
        text = ("a,b\n" + "\n".join(lines) + "\n").encode()
        path = tmp_path / "d.csv"
        path.write_bytes(text)
        read_fd, write_fd = os.pipe()
        os.write(write_fd, text)  # fits in the pipe's buffer
        os.close(write_fd)
        try:
            header, table, _ = read_csv(f"/dev/fd/{read_fd}")
        finally:
            os.close(read_fd)
        ref_header, ref_table, _ = read_csv(path)
        assert header == ref_header
        assert np.array_equal(table.view(np.int64), ref_table.view(np.int64))

    def test_peak_memory_is_two_tables_and_a_block(self, tmp_path):
        """load_csv of a 5000 x 210 %.17g file (22 MB) holds at most the
        table, its X/Y copies and one block's bytes and Python floats, not
        the whole file's."""
        rng = np.random.default_rng(5)
        table = rng.normal(size=(5000, 210))
        path = tmp_path / "d.csv"
        header = ",".join(f"x{j}" for j in range(210))
        np.savetxt(path, table, fmt="%.17g", delimiter=",", header=header, comments="")
        tracemalloc.start()
        try:
            d = load_csv(path, "last 10")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(np.hstack([d.X, d.Y]), table)
        assert peak <= 2 * table.nbytes + 4 * data._BLOCK_BYTES, peak / 2**20


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

