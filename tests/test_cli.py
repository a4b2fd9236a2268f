"""Command-line interface: model files, predictions, sweeps, exit codes,
and byte-level reproducibility."""

import json

import numpy as np
import pytest

from fastridge.cli import main
from fastridge.data import FitResult, Method, load_csv, predict
from fastridge.exceptions import DataError, DegenerateProblemError
from fastridge.pipeline import FitConfig, fit


def _write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(float(v)) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.fixture
def train_csv(tmp_path):
    rng = np.random.default_rng(42)
    X = rng.normal(size=(40, 3))
    y = X @ np.array([1.5, -2.0, 0.5]) + 0.1 * rng.normal(size=40)
    path = tmp_path / "train.csv"
    _write_csv(path, ["a", "b", "c", "y"], np.column_stack([X, y]))
    return path


class TestFit:
    def test_em_model_schema(self, train_csv, tmp_path):
        out = tmp_path / "model.json"
        rc = main(
            [
                "fit",
                "--input",
                str(train_csv),
                "--target",
                "y",
                "--method",
                "em",
                "--output",
                str(out),
            ]
        )
        assert rc == 0
        model = json.loads(out.read_text())
        assert model["method"] == "em"
        assert model["feature_names"] == ["a", "b", "c"]
        assert model["target_names"] == ["y"]
        assert len(model["coefficients"]) == 3
        assert isinstance(model["coefficients"][0], float)  # flat for one target
        assert len(model["intercepts"]) == 1
        assert len(model["lambda"]) == 1
        assert model["lambda"][0] * model["tau2"][0] == pytest.approx(1.0, rel=1e-12)
        assert model["sigma2"][0] > 0
        assert model["iterations"][0] >= 1
        std = model["standardization"]
        assert len(std["col_means"]) == len(std["col_sds"]) == 3
        assert std["kept_columns"] == [0, 1, 2]
        assert "grid" not in model

    @pytest.mark.parametrize("method", [m.value for m in Method])
    def test_large_magnitude_target(self, tmp_path, method):
        """Targets near 1e80 square to about 1e160, far from where the
        squared norm overflows; every method fits them."""
        path, out = tmp_path / "train.csv", tmp_path / "m.json"
        rows = [[1.0, 0.5, 1e80], [2.0, -1.0, -2e80], [0.0, 3.0, 3e80], [-1.0, 1.0, 1e80], [4.0, 2.0, -1e80]]
        _write_csv(path, ["a", "b", "y"], rows)
        assert main(["fit", "--input", str(path), "--target", "y", "--method", method, "--output", str(out)]) == 0
        assert FitResult.from_json(out.read_text()).lambda_[0] > 0

    def test_loocv_model_schema(self, train_csv, tmp_path):
        out = tmp_path / "model.json"
        rc = main(
            [
                "fit",
                "--input",
                str(train_csv),
                "--target",
                "y",
                "--method",
                "loocv-fixed",
                "--grid-size",
                "25",
                "--output",
                str(out),
            ]
        )
        assert rc == 0
        model = json.loads(out.read_text())
        assert model["grid_kind"] == "fixed"
        assert len(model["grid"]) == 1 and len(model["grid"][0]) == 25
        assert len(model["cve_curve"]) == 1 and len(model["cve_curve"][0]) == 25
        assert model["grid"][0][0] == 1e10
        assert model["lambda"][0] in model["grid"][0]
        assert "tau2" not in model

    def test_glmnet_kind_recorded(self, train_csv, tmp_path):
        out = tmp_path / "model.json"
        rc = main(
            [
                "fit",
                "--input",
                str(train_csv),
                "--target",
                "y",
                "--method",
                "loocv-glmnet",
                "--output",
                str(out),
            ]
        )
        assert rc == 0
        model = json.loads(out.read_text())
        assert model["grid_kind"] == "glmnet"
        g = model["grid"][0]
        assert g[-1] / g[0] == 1e-4  # 40 rows >= 3 kept columns

    @pytest.mark.parametrize("method", ["em", "loocv-fixed", "loocv-glmnet"])
    def test_reruns_are_byte_identical(self, train_csv, tmp_path, method):
        out1 = tmp_path / "m1.json"
        out2 = tmp_path / "m2.json"
        for out in (out1, out2):
            args = [
                "fit",
                "--input",
                str(train_csv),
                "--target",
                "y",
                "--method",
                method,
                "--output",
                str(out),
            ]
            assert main(args) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_multi_target_nested_coefficients(self, tmp_path):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(30, 2))
        Y = np.column_stack([X @ [1.0, 2.0], X @ [-1.0, 0.5]]) + 0.1 * rng.normal(
            size=(30, 2)
        )
        src = tmp_path / "multi.csv"
        _write_csv(src, ["a", "b", "u", "v"], np.column_stack([X, Y]))
        out = tmp_path / "model.json"
        rc = main(
            [
                "fit",
                "--input",
                str(src),
                "--target",
                "last 2",
                "--method",
                "em",
                "--output",
                str(out),
            ]
        )
        assert rc == 0
        model = json.loads(out.read_text())
        assert model["target_names"] == ["u", "v"]
        coef = np.asarray(model["coefficients"])
        assert coef.shape == (2, 2)
        assert len(model["lambda"]) == 2

    def test_missing_input_exits_3(self, tmp_path, capsys):
        rc = main(
            [
                "fit",
                "--input",
                str(tmp_path / "nope.csv"),
                "--target",
                "y",
                "--method",
                "em",
                "--output",
                str(tmp_path / "m.json"),
            ]
        )
        assert rc == 3
        assert "fastridge fit" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [5.0, 0.1])
    @pytest.mark.parametrize("method", ["em", "loocv-fixed", "loocv-glmnet"])
    def test_constant_target_exits_4(self, tmp_path, capsys, method, value):
        """Every method refuses a constant target alike, judged on the
        target itself: 0.1's mean does not round back to a zero deviation,
        and 5.0's LOOCV would otherwise fit the rounding."""
        src = tmp_path / "const.csv"
        rng = np.random.default_rng(2)
        X = rng.normal(size=(10, 2))
        _write_csv(src, ["a", "b", "y"], np.column_stack([X, np.full(10, value)]))
        rc = main(
            [
                "fit",
                "--input",
                str(src),
                "--target",
                "y",
                "--method",
                method,
                "--output",
                str(tmp_path / "m.json"),
            ]
        )
        assert rc == 4
        assert capsys.readouterr().err == "fastridge fit: standardize: target 'y' is constant\n"

    def test_last_prefixed_column_name(self, tmp_path):
        src = tmp_path / "d.csv"
        rng = np.random.default_rng(4)
        _write_csv(src, ["a", "b", "lastname"], rng.normal(size=(12, 3)))
        out = tmp_path / "m.json"
        base = ["fit", "--input", str(src), "--method", "em", "--output", str(out)]
        assert main(base + ["--target", "lastname"]) == 0
        assert json.loads(out.read_text())["target_names"] == ["lastname"]
        assert main(base + ["--target", "last x"]) == 3

    @pytest.mark.parametrize(
        "flag", [("--tol", "nan"), ("--tol", "0"), ("--grid-size", "1"), ("--max-iter", "0")]
    )
    def test_bad_solver_flags_exit_2(self, train_csv, tmp_path, flag):
        with pytest.raises(SystemExit) as exc:
            main(
                ["fit", "--input", str(train_csv), "--target", "y", "--method", "em"]
                + ["--output", str(tmp_path / "m.json"), *flag]
            )
        assert exc.value.code == 2

    def test_unknown_method_exits_2(self, train_csv, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "fit",
                    "--input",
                    str(train_csv),
                    "--target",
                    "y",
                    "--method",
                    "lasso",
                    "--output",
                    str(tmp_path / "m.json"),
                ]
            )
        assert exc.value.code == 2
        message = "argument --method: 'lasso' is not one of em, loocv-fixed, loocv-glmnet"
        assert message in capsys.readouterr().err


class TestPredict:
    def _fit(self, train_csv, tmp_path):
        model_path = tmp_path / "model.json"
        assert (
            main(
                [
                    "fit",
                    "--input",
                    str(train_csv),
                    "--target",
                    "y",
                    "--method",
                    "em",
                    "--output",
                    str(model_path),
                ]
            )
            == 0
        )
        return model_path

    def test_predictions_match_model_arithmetic(self, train_csv, tmp_path):
        model_path = self._fit(train_csv, tmp_path)
        new = tmp_path / "new.csv"
        rng = np.random.default_rng(3)
        X = rng.normal(size=(7, 3))
        _write_csv(new, ["a", "b", "c"], X)
        out = tmp_path / "pred.csv"
        rc = main(
            ["predict", "--model", str(model_path), "--input", str(new), "--output", str(out)]
        )
        assert rc == 0
        model = json.loads(model_path.read_text())
        expected = X @ np.asarray(model["coefficients"]) + model["intercepts"][0]
        lines = out.read_text().splitlines()
        assert lines[0] == "y"
        got = np.array([float(v) for v in lines[1:]])
        assert np.array_equal(got, expected)

    def test_id_column_passthrough(self, train_csv, tmp_path):
        model_path = self._fit(train_csv, tmp_path)
        new = tmp_path / "new.csv"
        new.write_text(
            "row,a,b,c\nr1,0.1,0.2,0.3\nr2,1.0,-1.0,0.5\n", encoding="utf-8"
        )
        out = tmp_path / "pred.csv"
        rc = main(
            [
                "predict",
                "--model",
                str(model_path),
                "--input",
                str(new),
                "--id-column",
                "row",
                "--output",
                str(out),
            ]
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "row,y"
        assert lines[1].startswith("r1,")
        assert lines[2].startswith("r2,")

    def test_positional_fallback_when_names_differ(self, train_csv, tmp_path):
        """Columns are taken in order when the model's feature names are
        absent from the input header."""
        model_path = self._fit(train_csv, tmp_path)
        X = np.array([[0.5, 1.5, -0.5]])
        named = tmp_path / "named.csv"
        _write_csv(named, ["a", "b", "c"], X)
        renamed = tmp_path / "renamed.csv"
        _write_csv(renamed, ["x1", "x2", "x3"], X)
        out1, out2 = tmp_path / "p1.csv", tmp_path / "p2.csv"
        assert main(["predict", "--model", str(model_path), "--input", str(named), "--output", str(out1)]) == 0
        assert main(["predict", "--model", str(model_path), "--input", str(renamed), "--output", str(out2)]) == 0
        assert out1.read_text().splitlines()[1:] == out2.read_text().splitlines()[1:]

    def test_input_with_byte_order_mark_matched_by_name(self, train_csv, tmp_path):
        """A byte-order mark does not hide the first column's name, so
        reordered columns are still matched by name, not by position."""
        model_path = self._fit(train_csv, tmp_path)
        X = np.array([[0.5, 1.5, -0.5], [2.0, -1.0, 0.25]])
        named, marked = tmp_path / "named.csv", tmp_path / "marked.csv"
        _write_csv(named, ["a", "b", "c"], X)
        _write_csv(marked, ["c", "a", "b"], X[:, [2, 0, 1]])
        marked.write_text(marked.read_text(encoding="utf-8"), encoding="utf-8-sig")
        out1, out2 = tmp_path / "p1.csv", tmp_path / "p2.csv"
        assert main(["predict", "--model", str(model_path), "--input", str(named), "--output", str(out1)]) == 0
        assert main(["predict", "--model", str(model_path), "--input", str(marked), "--output", str(out2)]) == 0
        assert out1.read_text() == out2.read_text()

    @pytest.mark.parametrize("method", [m.value for m in Method])
    def test_predictions_equal_library_predict(self, tmp_path, method):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(25, 3))
        src = tmp_path / "train.csv"
        _write_csv(src, ["a", "b", "u", "v"], np.column_stack([X[:, :2], X @ [[1.0, 0.0], [2.0, -1.0], [0.0, 1.0]]]))
        model_path, out = tmp_path / "m.json", tmp_path / "p.csv"
        new = tmp_path / "new.csv"
        X_new = rng.normal(size=(6, 2))
        _write_csv(new, ["a", "b"], X_new)
        assert main(["fit", "--input", str(src), "--target", "last 2", "--method", method, "--grid-size", "20", "--output", str(model_path)]) == 0
        assert main(["predict", "--model", str(model_path), "--input", str(new), "--output", str(out)]) == 0
        expected = predict(fit(load_csv(src, "last 2"), Method(method), FitConfig(grid_size=20)), X_new)
        lines = out.read_text().splitlines()
        assert lines[0] == "u,v"
        assert [line.split(",") for line in lines[1:]] == [[repr(float(v)) for v in row] for row in expected]

    def test_ragged_row_exits_3(self, train_csv, tmp_path, capsys):
        model_path = self._fit(train_csv, tmp_path)
        new = tmp_path / "new.csv"
        new.write_text("a,b,c\n0.1,0.2,0.3\n1.0,-1.0\n", encoding="utf-8")
        rc = main(["predict", "--model", str(model_path), "--input", str(new), "--output", str(tmp_path / "p.csv")])
        assert rc == 3
        assert "row 3 has 2 cells, expected 3" in capsys.readouterr().err

    def test_wrong_width_exits_3(self, train_csv, tmp_path):
        model_path = self._fit(train_csv, tmp_path)
        narrow = tmp_path / "narrow.csv"
        _write_csv(narrow, ["x1", "x2"], np.zeros((2, 2)))
        rc = main(
            [
                "predict",
                "--model",
                str(model_path),
                "--input",
                str(narrow),
                "--output",
                str(tmp_path / "p.csv"),
            ]
        )
        assert rc == 3


class TestSimulate:
    def _args(self, out, extra=()):
        return [
            "simulate",
            "--setting",
            "bernoulli",
            "--n-list",
            "500",
            "--sigma-list",
            "0.5,1",
            "--reps",
            "2",
            "--seed",
            "5",
            "--methods",
            "em,loocv-fixed",
            "--p",
            "8",
            "--grid-size",
            "10",
            "--output",
            str(out),
            *extra,
        ]

    def test_row_counts_and_strata(self, tmp_path):
        out = tmp_path / "rows.csv"
        assert main(self._args(out)) == 0
        lines = out.read_text().splitlines()
        # 1 n x 2 sigmas x 2 reps x 2 methods
        assert len(lines) == 1 + 8
        cells = [line.split(",") for line in lines[1:]]
        assert {c[0] for c in cells} == {"em", "loocv-fixed"}
        assert {c[3] for c in cells} == {"0.5", "1.0"}
        for c in cells:
            if c[0] == "em":
                assert c[7] != ""
            else:
                assert c[7] == ""

    def test_reruns_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(self._args(out1)) == 0
        assert main(self._args(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_timings_flag_populates_columns(self, tmp_path):
        out = tmp_path / "t.csv"
        assert main(self._args(out, extra=("--timings",))) == 0
        first = out.read_text().splitlines()[1].split(",")
        assert int(first[8]) > 0  # preprocessing took measurable time

    def test_default_timing_columns_are_zero(self, tmp_path):
        out = tmp_path / "z.csv"
        assert main(self._args(out)) == 0
        for line in out.read_text().splitlines()[1:]:
            cells = line.split(",")
            assert cells[8] == "0" and cells[9] == "0"

    def test_seed_env_override(self, tmp_path, monkeypatch):
        flag_out = tmp_path / "flag.csv"
        env_out = tmp_path / "env.csv"
        explicit = tmp_path / "explicit.csv"
        assert main(self._args(flag_out)) == 0  # --seed 5
        monkeypatch.setenv("FASTRIDGE_SEED", "77")
        assert main(self._args(env_out)) == 0
        monkeypatch.delenv("FASTRIDGE_SEED")
        args = self._args(explicit)
        args[args.index("--seed") + 1] = "77"
        assert main(args) == 0
        assert env_out.read_bytes() == explicit.read_bytes()
        assert env_out.read_bytes() != flag_out.read_bytes()

    def test_largest_seed_is_accepted(self, tmp_path, monkeypatch):
        """2^64 - 1, the last seed the generator absorbs whole, from the flag
        and from the environment alike."""
        flag_out, env_out = tmp_path / "flag.csv", tmp_path / "env.csv"
        args = self._args(flag_out)
        args[args.index("--seed") + 1] = str(2**64 - 1)
        assert main(args) == 0
        monkeypatch.setenv("FASTRIDGE_SEED", str(2**64 - 1))
        assert main(self._args(env_out)) == 0
        assert env_out.read_bytes() == flag_out.read_bytes()

    def test_gaussian_setting_sweeps_p(self, tmp_path):
        out = tmp_path / "g.csv"
        rc = main(
            [
                "simulate",
                "--setting",
                "gaussian",
                "--n-list",
                "25",
                "--p-list",
                "3,5",
                "--reps",
                "1",
                "--methods",
                "em",
                "--output",
                str(out),
            ]
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 2
        assert {line.split(",")[2] for line in lines[1:]} == {"3", "5"}

    def test_missing_sweep_list_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "simulate",
                    "--setting",
                    "bernoulli",
                    "--n-list",
                    "20",
                    "--reps",
                    "1",
                    "--methods",
                    "em",
                    "--output",
                    str(tmp_path / "x.csv"),
                ]
            )
        assert exc.value.code == 2

    def test_malformed_n_list_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "simulate",
                    "--setting",
                    "bernoulli",
                    "--n-list",
                    "10,abc",
                    "--sigma-list",
                    "1",
                    "--reps",
                    "1",
                    "--methods",
                    "em",
                    "--output",
                    str(tmp_path / "x.csv"),
                ]
            )
        assert exc.value.code == 2


class TestBench:
    def test_rows_and_header(self, tmp_path):
        out = tmp_path / "bench.csv"
        rc = main(
            [
                "bench",
                "--n-list",
                "30,40",
                "--p-list",
                "4",
                "--methods",
                "em,loocv-fixed",
                "--reps",
                "2",
                "--grid-size",
                "10",
                "--output",
                str(out),
            ]
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("method,n,p,reps")
        assert len(lines) == 1 + 4


class TestRejectedFlags:
    _SIMULATE = ["simulate", "--setting", "bernoulli", "--sigma-list", "1", "--p", "5"]
    _BENCH = ["bench", "--p-list", "5"]

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("simulate", "--grid-size", "1"),
            ("bench", "--grid-size", "1"),
            ("simulate", "--sigma-list", "nan"),
            ("simulate", "--sigma-list", "inf"),
            ("simulate", "--seed", "-1"),
            ("bench", "--seed", "-1"),
            ("simulate", "--seed", str(2**64)),
            ("bench", "--seed", str(2**64)),
            ("simulate", "--p", "0"),
            ("simulate", "--reps", "0"),
            ("bench", "--reps", "0"),
            ("simulate", "--n-list", "0"),
            ("bench", "--n-list", "0"),
            ("simulate", "--methods", "lasso"),
            ("bench", "--methods", "lasso"),
            ("simulate", "--methods", "em,em"),
            ("bench", "--methods", "em,loocv-fixed,em"),
        ],
    )
    def test_exits_2_naming_the_flag(self, tmp_path, capsys, command, flag, value):
        out = tmp_path / "out.csv"
        base = self._SIMULATE if command == "simulate" else self._BENCH
        argv = base + ["--n-list", "20", "--reps", "1", "--methods", "em", "--grid-size", "5"]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--output", str(out), flag, value])
        assert exc.value.code == 2
        assert f"fastridge {command}: error: argument {flag}: {value!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "setting, flag, value",
        [
            ("bernoulli", "--p-list", "5,6"),
            ("gaussian", "--sigma-list", "3"),
            ("gaussian", "--p", "7"),
        ],
    )
    def test_flag_of_the_other_setting_reported_by_simulate(self, tmp_path, capsys, setting, flag, value):
        out = tmp_path / "out.csv"
        swept = ["--sigma-list", "1"] if setting == "bernoulli" else ["--p-list", "5"]
        argv = ["simulate", "--setting", setting, *swept, "--n-list", "20", "--reps", "1"]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--methods", "em", "--output", str(out), flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: fastridge simulate ")
        assert f"fastridge simulate: error: {flag} does not apply to the {setting} setting" in err
        assert not out.exists()

    @pytest.mark.parametrize("setting, flag", [("bernoulli", "--sigma-list"), ("gaussian", "--p-list")])
    def test_missing_swept_list_reported_by_simulate(self, tmp_path, capsys, setting, flag):
        out = tmp_path / "out.csv"
        argv = ["simulate", "--setting", setting, "--n-list", "10", "--reps", "1"]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--methods", "em", "--output", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: fastridge simulate ")
        assert f"fastridge simulate: error: {flag} is required for the {setting} setting" in err
        assert not out.exists()

    def test_no_lambda_rescale_is_not_a_fit_flag(self, train_csv, tmp_path, capsys):
        """The glmnet grid has one penalty scale, this library's."""
        out = tmp_path / "m.json"
        argv = ["fit", "--input", str(train_csv), "--target", "y", "--method", "loocv-glmnet"]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--output", str(out), "--no-lambda-rescale"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --no-lambda-rescale" in capsys.readouterr().err
        assert not out.exists()



def _worst_penalty(model):
    """Move the last target's penalty to its grid value at the largest CVE."""
    cve = model["cve_curve"][-1]
    model["lambda"][-1] = model["grid"][-1][cve.index(max(cve))]


def _set(key, value, nested=False):
    def change(model):
        (model["standardization"] if nested else model)[key] = value

    return change


# Model-file edits that keep every count right but make the file disagree
# with itself: (method, edit, message; {last} is the last feature index).
_SELF_DISAGREEMENTS = {
    "cve-row-shorter": (
        Method.LOOCV_FIXED,
        lambda model: [row.pop() for row in model["cve_curve"]],
        "grid and cve_curves rows must have equal lengths",
    ),
    "lambda-off-grid": (
        Method.LOOCV_GLMNET,
        lambda model: model["lambda"].__setitem__(-1, model["lambda"][-1] * 1.001),
        "lambda must be the grid value at the CVE minimum",
    ),
    "lambda-off-minimum": (
        Method.LOOCV_FIXED,
        _worst_penalty,
        "lambda must be the grid value at the CVE minimum",
    ),
    "kept-column-out-of-range": (
        Method.EM,
        _set("kept_columns", [0, 7], nested=True),
        "kept_columns must be strictly increasing within 0..{last}",
    ),
    "kept-columns-decreasing": (
        Method.LOOCV_GLMNET,
        _set("kept_columns", [1, 0], nested=True),
        "kept_columns must be strictly increasing within 0..{last}",
    ),
    "feature-name-twice": (
        Method.EM,
        lambda model: model["feature_names"].__setitem__(-1, model["feature_names"][0]),
        "feature_names lists 'a' twice",
    ),
}


class TestErrorPaths:
    """Data errors exit 3 with one stderr line naming the stage."""

    def _one_line(self, capsys, prefix):
        err = capsys.readouterr().err
        assert err.startswith(prefix) and err.count("\n") == 1, err
        return err

    def _predict(self, model, features, tmp_path, *extra):
        out = tmp_path / "p.csv"
        rc = main(["predict", "--model", str(model), "--input", str(features), "--output", str(out), *extra])
        assert not out.exists()
        return rc

    def test_predict_missing_model(self, train_csv, tmp_path, capsys):
        assert self._predict(tmp_path / "absent.json", train_csv, tmp_path) == 3
        self._one_line(capsys, "fastridge predict: load-model: no such file: ")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("not json {", "invalid JSON"),
            ('{"method": "em", "intercepts": [0.0], "lambda": [1.0]}', "malformed model file"),
        ],
        ids=["not-json", "no-coefficients"],
    )
    def test_predict_unreadable_model(self, train_csv, tmp_path, capsys, text, message):
        model = tmp_path / "model.json"
        model.write_text(text, encoding="utf-8")
        assert self._predict(model, train_csv, tmp_path) == 3
        self._one_line(capsys, f"fastridge predict: load-model: {model}: {message}")

    @pytest.mark.parametrize(
        "key, method",
        [
            ("intercepts", "em"),
            ("lambda", "loocv-fixed"),
            ("tau2", "em"),
            ("sigma2", "em"),
            ("iterations", "em"),
            ("grid", "loocv-glmnet"),
            ("cve_curve", "loocv-fixed"),
            ("y_means", "em"),
            ("target_names", "loocv-glmnet"),
            ("feature_names", "em"),
            ("col_means", "loocv-fixed"),
            ("col_sds", "loocv-glmnet"),
        ],
    )
    def test_predict_model_with_an_extra_entry(self, train_csv, tmp_path, capsys, key, method):
        """A model file array with one entry more than the coefficients'
        targets (1) or features (3) exits 3 naming the model file."""
        model = tmp_path / "model.json"
        fit_args = ["fit", "--input", str(train_csv), "--target", "y", "--method", method]
        assert main(fit_args + ["--output", str(model)]) == 0
        capsys.readouterr()
        content = json.loads(model.read_text())
        holder = content["standardization"] if key in ("y_means", "col_means", "col_sds") else content
        holder[key].append(holder[key][0])
        model.write_text(json.dumps(content), encoding="utf-8")
        assert self._predict(model, train_csv, tmp_path) == 3
        field = {"lambda": "lambda_", "cve_curve": "cve_curves"}.get(key, key)
        count, unit = (3, "feature") if key in ("feature_names", "col_means", "col_sds") else (1, "target")
        err = self._one_line(capsys, f"fastridge predict: load-model: {model}: malformed model file: ")
        assert err.endswith(f"{field} has length {count + 1}; expected {count}, one per {unit}\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                '{"method":"em","coefficients":[1.0,2.0],"intercepts":[0.0,5.0],"lambda":[1.0]}',
                "intercepts has length 2; expected 1, one per target",
            ),
            (
                '{"method":"em","coefficients":[1.0,2.0],"intercepts":[0.0],"lambda":[1,2,3]}',
                "lambda_ has length 3; expected 1, one per target",
            ),
            (
                '{"method":"em","coefficients":[[1.0],[2.0]],"intercepts":[0.0],"lambda":[1.0],'
                '"sigma2":1.0}',
                "sigma2 is a scalar; expected 1, one per target",
            ),
            (
                '{"method":"em","coefficients":1.0,"intercepts":[0.0],"lambda":[1.0]}',
                "beta_raw must be 1-D or 2-D",
            ),
            (
                '{"method":"em","coefficients":[1.0,2.0],"intercepts":[0.0],"lambda":[1.0],"sigma2":["x"]}',
                "sigma2 entries must be finite numbers",
            ),
            (
                '{"method":"em","coefficients":[1.0,2.0],"intercepts":[0.0],"lambda":[1.0],"iterations":[1.5]}',
                "iterations entries must be integers",
            ),
            (
                '{"method":"em","coefficients":[1.0,2.0],"intercepts":[0.0],"lambda":[1.0],'
                '"standardization":{"col_means":["0.5","1.5"]}}',
                "col_means entries must be finite numbers",
            ),
            (
                '{"method":"em","coefficients":[1.0,2.0],"intercepts":[0.0],"lambda":[1.0],'
                '"standardization":{"y_means":[null]}}',
                "y_means entries must be finite numbers",
            ),
            (
                '{"method":"em","coefficients":[1.0,2.0,3.0],"intercepts":[0.0],"lambda":[1.0],'
                '"feature_names":[1,"a","b"]}',
                "feature_names entries must be strings",
            ),
            (
                '{"method":"em","coefficients":[Infinity,2.0],"intercepts":[0.0],"lambda":[1.0]}',
                "beta_raw entries must be finite numbers",
            ),
            (
                '{"method":"em","coefficients":[1.0,2.0],"intercepts":null,"lambda":[1.0]}',
                "intercepts is missing",
            ),
            (
                '{"method":"em","coefficients":[1.0,2.0],"intercepts":0.0,"lambda":[1.0]}',
                "intercepts is a scalar; expected 1, one per target",
            ),
            (
                '{"method":"em","coefficients":[1.0,2.0],"intercepts":[0.0],"lambda":1.0}',
                "lambda_ is a scalar; expected 1, one per target",
            ),
            (
                '{"method":"em","coefficients":[1.0,2.0],"intercepts":[0.0],"lambda":[1.0],"tau2":1.0}',
                "tau2 is a scalar; expected 1, one per target",
            ),
            (
                '{"method":"em","coefficients":[[1.0,2.0],[3.0]],"intercepts":[0.0,0.0],"lambda":[1.0,1.0]}',
                "beta_raw rows have unequal lengths",
            ),
            (
                '{"method":"em","coefficients":[1.0,2.0],"intercepts":[[0.0,5.0]],"lambda":[1.0]}',
                "intercepts is 2-D; expected 1-D",
            ),
            (
                '{"method":"em","coefficients":[1.0,2.0,3.0],"intercepts":[0.0],"lambda":[-1.0],'
                '"tau2":[-1.0],"standardization":{"col_sds":[0.0,-1.0,0.0]}}',
                "lambda_ entries must be positive",
            ),
            (
                '{"method":"em","coefficients":[1.0,2.0],"intercepts":[0.0],"lambda":[1.0],"tau2":[-1.0]}',
                "tau2 entries must be positive",
            ),
            (
                '{"method":"em","coefficients":[1.0,2.0],"intercepts":[0.0],"lambda":[1.0],'
                '"standardization":{"col_sds":[1.0,-1.0]}}',
                "col_sds entries must be nonnegative",
            ),
            (
                '{"method":"em","coefficients":[1.0,2.0],"intercepts":[0.0],"lambda":[1.0],"sigma2":[-1.0]}',
                "sigma2 entries must be positive",
            ),
            (
                '{"method":"em","coefficients":[1.0,2.0],"intercepts":[0.0],"lambda":[1.0],"iterations":[-3]}',
                "iterations entries must be positive",
            ),
            (
                '{"method":"loocv-fixed","coefficients":[1.0,2.0],"intercepts":[0.0],"lambda":[-1.0],'
                '"grid":[[-1.0,-2.0]],"cve_curve":[[1.0,2.0]]}',
                "lambda_ entries must be positive",
            ),
            (
                '{"method":"loocv-fixed","coefficients":[1.0,2.0],"intercepts":[0.0],"lambda":[1.0],'
                '"grid":[[1.0,-2.0]],"cve_curve":[[1.0,2.0]]}',
                "grid entries must be positive",
            ),
            (
                '{"method":"loocv-fixed","coefficients":[1.0,2.0],"intercepts":[0.0],"lambda":[2.0],'
                '"grid":[[2.0,1.0]],"cve_curve":[[-1.0,2.0]]}',
                "cve_curves entries must be nonnegative",
            ),
            (
                '{"method":"EM","coefficients":[1.0,2.0],"intercepts":[0.0],"lambda":[1.0]}',
                "method must be one of em, loocv-fixed, loocv-glmnet; got 'EM'",
            ),
            (
                '{"coefficients":[1.0,2.0],"intercepts":[0.0],"lambda":[1.0]}',
                "method must be one of em, loocv-fixed, loocv-glmnet; got None",
            ),
            (
                '{"method":"em","coefficients":[[1.0,2.0],[3.0,4.0]],"intercepts":[0.0,0.0],'
                '"lambda":[1.0,1.0],"target_names":["y","y"]}',
                "target_names lists 'y' twice",
            ),
            (
                '{"method":"loocv-fixed","coefficients":[1.0,2.0],"intercepts":[0.5],"lambda":[2.0],'
                '"tau2":[0.5],"sigma2":[1.0],"iterations":[3]}',
                "tau2 does not apply to method loocv-fixed",
            ),
            (
                '{"method":"em","coefficients":[1.0,2.0],"intercepts":[0.0],"lambda":[2.0],'
                '"grid":[[2.0,1.0]],"cve_curve":[[1.0,2.0]]}',
                "grid does not apply to method em",
            ),
        ],
        ids=[
            "two-intercepts", "three-lambdas", "scalar-sigma2", "scalar-coefficients",
            "text-sigma2", "fractional-iterations", "text-col-means", "null-y-mean",
            "number-feature-name", "infinite-coefficient", "null-intercepts", "scalar-intercepts",
            "scalar-lambda", "scalar-tau2", "ragged-coefficients", "intercepts-row",
            "negative-penalty-and-scale", "negative-tau2", "negative-col-sd", "negative-sigma2",
            "negative-iterations", "negative-grid-row", "negative-grid-entry", "negative-cve",
            "method-by-member-name",
            "no-method", "target-name-twice", "em-detail-in-loocv-model", "loocv-detail-in-em-model",
        ],
    )
    def test_predict_hand_written_model_with_miscounted_array(
        self, tmp_path, capsys, text, message
    ):
        model, features = tmp_path / "model.json", tmp_path / "x.csv"
        model.write_text(text, encoding="utf-8")
        _write_csv(features, ["a", "b"], [[1.0, 2.0], [3.0, 4.0]])
        assert self._predict(model, features, tmp_path) == 3
        self._one_line(capsys, f"fastridge predict: load-model: {model}: malformed model file: {message}\n")

    def test_predict_unknown_id_column(self, train_csv, tmp_path, capsys):
        model = tmp_path / "model.json"
        fit_args = ["fit", "--input", str(train_csv), "--target", "y", "--method", "em"]
        assert main(fit_args + ["--output", str(model)]) == 0
        capsys.readouterr()
        assert self._predict(model, train_csv, tmp_path, "--id-column", "row") == 3
        self._one_line(capsys, "fastridge predict: load-input: id column 'row' not in input header")

    def test_predict_on_a_header_naming_some_features(self, train_csv, tmp_path, capsys):
        """A header that names any model feature is matched by name, so it must
        name all: by position, these columns would swap a and b."""
        model = tmp_path / "model.json"
        fit_args = ["fit", "--input", str(train_csv), "--target", "y", "--method", "em"]
        assert main(fit_args + ["--output", str(model)]) == 0
        capsys.readouterr()
        features = tmp_path / "x.csv"
        _write_csv(features, ["b", "a", "d"], [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        assert self._predict(model, features, tmp_path) == 3
        self._one_line(capsys, "fastridge predict: load-input: model feature 'c' not in input header\n")

    @pytest.mark.parametrize("method", [m.value for m in Method])
    def test_fit_a_target_whose_squared_norm_overflows(self, tmp_path, capsys, method):
        """standardize refuses the target by its name, as it does a constant one."""
        path, out = tmp_path / "train.csv", tmp_path / "m.json"
        rows = [[1.0, 0.5, 1e160], [2.0, -1.0, -2e160], [0.0, 3.0, 3e160], [-1.0, 1.0, 1e160], [4.0, 2.0, -1e160]]
        _write_csv(path, ["a", "b", "y"], rows)
        assert main(["fit", "--input", str(path), "--target", "y", "--method", method, "--output", str(out)]) == 3
        self._one_line(capsys, "fastridge fit: standardize: target 'y': squared norm overflows\n")
        assert not out.exists()

    @pytest.mark.parametrize("method", [m.value for m in Method])
    def test_fit_across_the_units_of_y(self, tmp_path, capsys, method):
        """y * 10^e fits with the penalty of y itself for every e from -150
        to 150; at 1e-160 the squared norm underflows, and every method
        refuses the target by its name."""
        rng = np.random.default_rng(3)
        X = rng.normal(size=(50, 4))
        y = X @ [1.0, -2.0, 0.5, 0.0] + rng.normal(size=50)
        path, out = tmp_path / "train.csv", tmp_path / "m.json"
        argv = ["fit", "--input", str(path), "--target", "resp", "--method", method, "--output", str(out)]
        lambdas = {}
        for e in range(-150, 151, 10):
            _write_csv(path, ["a", "b", "c", "d", "resp"], np.column_stack([X, y * 10.0**e]))
            assert main(argv) == 0, e
            lambdas[e] = FitResult.from_json(out.read_text()).lambda_[0]
        for e, lam in lambdas.items():
            assert lam == pytest.approx(lambdas[0], rel=1e-9, abs=0), e
        out.unlink()
        capsys.readouterr()
        _write_csv(path, ["a", "b", "c", "d", "resp"], np.column_stack([X, y * 1e-160]))
        assert main(argv) == 3
        self._one_line(capsys, "fastridge fit: standardize: target 'resp': squared norm underflows\n")
        assert not out.exists()

    def test_fit_names_the_target_whose_em_fit_collapses(self, tmp_path, capsys, monkeypatch):
        """When EM's statistics collapse the refusal names the target column
        as standardize does."""
        import fastridge.em as em_module

        def collapsed(ess, esn, n, p):
            raise DegenerateProblemError("statistics collapsed")

        monkeypatch.setattr(em_module, "m_step", collapsed)
        rng = np.random.default_rng(3)
        X = rng.normal(size=(50, 4))
        y = X @ [1.0, -2.0, 0.5, 0.0] + rng.normal(size=50)
        path, out = tmp_path / "train.csv", tmp_path / "m.json"
        _write_csv(path, ["a", "b", "c", "d", "resp"], np.column_stack([X, y]))
        assert main(["fit", "--input", str(path), "--target", "resp", "--method", "em", "--output", str(out)]) == 4
        self._one_line(capsys, "fastridge fit: solve: target 'resp': no finite penalty exists for this data\n")
        assert not out.exists()

    def test_fit_names_the_target_whose_grid_has_no_top(self, tmp_path, capsys):
        """y1 is orthogonal to every centered column, so its glmnet grid has
        no top; the refusal names it, as a collapsed EM fit is named."""
        path, out = tmp_path / "train.csv", tmp_path / "m.json"
        rows = [[1.0, 0.0, 1.0, 1.0], [-1.0, 0.0, 2.0, 1.0], [0.0, 1.0, 0.0, -1.0], [0.0, -1.0, 4.0, -1.0]]
        _write_csv(path, ["a", "b", "y0", "y1"], rows)
        argv = ["fit", "--input", str(path), "--target", "y0,y1", "--method", "loocv-glmnet"]
        assert main(argv + ["--output", str(out)]) == 3
        message = "fastridge fit: solve: target 'y1': y_centered is orthogonal to every column; grid top is 0\n"
        self._one_line(capsys, message)
        assert not out.exists()

    def test_fit_on_a_header_naming_a_column_twice(self, tmp_path, capsys):
        """Two columns named a would be saved as feature names that predict
        cannot tell apart."""
        rng = np.random.default_rng(8)
        X = rng.normal(size=(50, 2))
        path = tmp_path / "train.csv"
        _write_csv(path, ["a", "a", "y"], np.column_stack([X, X @ [1.0, -3.0] + rng.normal(size=50)]))
        out = tmp_path / "m.json"
        argv = ["fit", "--input", str(path), "--target", "y", "--method", "em"]
        assert main(argv + ["--output", str(out)]) == 3
        self._one_line(capsys, f"fastridge fit: load: {path}: header names column 'a' twice\n")
        assert not out.exists()

    def test_predict_on_a_header_naming_a_column_twice(self, train_csv, tmp_path, capsys):
        model = tmp_path / "model.json"
        fit_args = ["fit", "--input", str(train_csv), "--target", "y", "--method", "em"]
        assert main(fit_args + ["--output", str(model)]) == 0
        capsys.readouterr()
        features = tmp_path / "x.csv"
        _write_csv(features, ["a", "b", "b"], [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]])
        assert self._predict(model, features, tmp_path) == 3
        self._one_line(capsys, f"fastridge predict: load-input: {features}: header names column 'b' twice\n")

    def test_fit_target_listed_twice(self, train_csv, tmp_path, capsys):
        out = tmp_path / "m.json"
        argv = ["fit", "--input", str(train_csv), "--target", "y,y", "--method", "em"]
        assert main(argv + ["--output", str(out)]) == 3
        self._one_line(capsys, "fastridge fit: load: target column 'y' listed twice\n")
        assert not out.exists()

    @pytest.mark.parametrize("route", ["from_json", "predict"])
    @pytest.mark.parametrize("targets", ["y", "c,y"], ids=["q1", "q2"])
    @pytest.mark.parametrize("case", list(_SELF_DISAGREEMENTS))
    def test_model_that_disagrees_with_itself(self, train_csv, tmp_path, capsys, case, targets, route):
        """Each array has the right count, but the arrays contradict each
        other; where one target's entry is changed, it is the last's."""
        method, change, message = _SELF_DISAGREEMENTS[case]
        ds = load_csv(train_csv, targets)
        content = json.loads(fit(ds, method, FitConfig(grid_size=12)).to_json())
        change(content)
        message = message.format(last=ds.p - 1)
        if route == "from_json":
            with pytest.raises(DataError) as exc:
                FitResult.from_json(json.dumps(content))
            assert str(exc.value) == f"malformed model file: {message}"
            return
        model = tmp_path / "model.json"
        model.write_text(json.dumps(content), encoding="utf-8")
        assert self._predict(model, train_csv, tmp_path) == 3
        self._one_line(capsys, f"fastridge predict: load-model: {model}: malformed model file: {message}\n")

    @pytest.mark.parametrize("route", ["from_json", "predict"])
    @pytest.mark.parametrize(
        "keys, message",
        [
            (("cve_curve",), "cve_curves rows have unequal lengths"),
            (("grid", "cve_curve"), "grid rows have unequal lengths"),
        ],
        ids=["cve-row", "grid-and-cve-rows"],
    )
    def test_model_with_ragged_rows(self, train_csv, tmp_path, capsys, keys, message, route):
        """One target's rows shortened in a two-target LOOCV model file: the
        error names the array, not numpy's inhomogeneous shape."""
        content = json.loads(fit(load_csv(train_csv, "c,y"), Method.LOOCV_FIXED, FitConfig(grid_size=12)).to_json())
        for key in keys:
            content[key][0].pop()
        if route == "from_json":
            with pytest.raises(DataError) as exc:
                FitResult.from_json(json.dumps(content))
            assert str(exc.value) == f"malformed model file: {message}"
            return
        model = tmp_path / "model.json"
        model.write_text(json.dumps(content), encoding="utf-8")
        assert self._predict(model, train_csv, tmp_path) == 3
        self._one_line(capsys, f"fastridge predict: load-model: {model}: malformed model file: {message}\n")

    def test_fit_output_in_missing_directory(self, train_csv, tmp_path, capsys):
        out = tmp_path / "absent" / "model.json"
        rc = main(["fit", "--input", str(train_csv), "--target", "y", "--method", "em", "--output", str(out)])
        assert rc == 3
        self._one_line(capsys, f"fastridge fit: write: cannot write {out}: ")

    @pytest.mark.parametrize(
        "content, message",
        [
            (None, "cannot read {path}: Is a directory"),
            (b"a\xff,y\n1,2\n3,4\n5,7\n", "{path}: not UTF-8 text"),
            (b"a,y\n1,2\n3,\xff4\n5,7\n", "{path}: not UTF-8 text"),
            (b'a,y\n1,2\n"' + b"1" * 131073 + b'",4\n5,7\n', "{path}: line 3: field larger than field limit (131072)"),
            (b"", "{path}: empty file"),
            (b"a,y\n", "{path}: no data rows"),
        ],
        ids=["directory", "header-not-utf8", "row-not-utf8", "cell-over-limit", "empty", "header-only"],
    )
    def test_fit_on_an_unreadable_input(self, tmp_path, capsys, content, message):
        path = tmp_path / "d.csv"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        out = tmp_path / "m.json"
        argv = ["fit", "--input", str(path), "--target", "y", "--method", "em", "--output", str(out)]
        assert main(argv) == 3
        expected = "fastridge fit: load: " + message.format(path=path) + "\n"
        assert self._one_line(capsys, "fastridge fit: load: ") == expected
        assert not out.exists()

    @pytest.mark.parametrize(
        "content, message",
        [(None, "cannot read {path}: Is a directory"), (b'{"method": "em"\xff}', "{path}: not UTF-8 text")],
        ids=["directory", "not-utf8"],
    )
    def test_predict_with_an_unreadable_model(self, train_csv, tmp_path, capsys, content, message):
        model = tmp_path / "model.json"
        if content is None:
            model.mkdir()
        else:
            model.write_bytes(content)
        assert self._predict(model, train_csv, tmp_path) == 3
        self._one_line(capsys, "fastridge predict: load-model: " + message.format(path=model) + "\n")

    @pytest.mark.parametrize(
        "target, message",
        [
            ("a,y", "all columns selected as targets; no predictors left"),
            ("last 0", "'last 0' out of range for 2 columns"),
            ("last 3", "'last 3' out of range for 2 columns"),
            (",", "empty target spec"),
        ],
    )
    def test_fit_target_that_leaves_no_fit(self, tmp_path, capsys, target, message):
        path = tmp_path / "d.csv"
        _write_csv(path, ["a", "y"], [[1, 2], [3, 5], [4, 1]])
        out = tmp_path / "m.json"
        argv = ["fit", "--input", str(path), "--target", target, "--method", "em", "--output", str(out)]
        assert main(argv) == 3
        self._one_line(capsys, f"fastridge fit: load: {message}\n")

    @pytest.mark.parametrize(
        "cell, message",
        [
            ("true", "non-numeric cell 'true' at row 3, column 1 (a)"),
            ("null", "non-numeric cell 'null' at row 3, column 1 (a)"),
            ("[1]", "non-numeric cell '[1]' at row 3, column 1 (a)"),
            ("1],[2", "row 3 has 3 cells, expected 2"),
            ("{}", "non-numeric cell '{}' at row 3, column 1 (a)"),
            ('"""1"""', "non-numeric cell '\"1\"' at row 3, column 1 (a)"),
        ],
    )
    def test_json_values_are_not_numbers(self, tmp_path, capsys, cell, message):
        """Cells that JSON would read as a literal, list, object or string
        are data errors, as in any other non-numeric cell. (A cell quoted as
        CSV quotes it, "1", is the number 1; the string "1" is written
        \"\"\"1\"\"\".)"""
        path = tmp_path / "d.csv"
        path.write_text(f"a,y\n1.5,2\n{cell},4\n5,6\n7,8.5\n", encoding="utf-8")
        argv = ["fit", "--input", str(path), "--target", "y", "--method", "em"]
        assert main(argv + ["--output", str(tmp_path / "m.json")]) == 3
        assert self._one_line(capsys, "fastridge fit: load: ") == f"fastridge fit: load: {path}: {message}\n"

    @pytest.mark.parametrize(
        "value, message",
        [
            ("abc", "FASTRIDGE_SEED is not an integer: 'abc'"),
            ("-1", "FASTRIDGE_SEED must be at least 0"),
            (str(2**64), f"FASTRIDGE_SEED must be at most {2**64 - 1}"),
        ],
    )
    def test_bad_seed_environment(self, tmp_path, capsys, monkeypatch, value, message):
        monkeypatch.setenv("FASTRIDGE_SEED", value)
        out = tmp_path / "b.csv"
        argv = ["bench", "--n-list", "20", "--p-list", "3", "--methods", "em", "--reps", "1"]
        assert main(argv + ["--output", str(out)]) == 3
        self._one_line(capsys, f"fastridge bench: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "bench"])
    def test_empty_n_list_exits_2(self, tmp_path, capsys, command):
        base = TestRejectedFlags._SIMULATE if command == "simulate" else TestRejectedFlags._BENCH
        out = tmp_path / "out.csv"
        with pytest.raises(SystemExit) as exc:
            main(base + ["--n-list", ",", "--reps", "1", "--methods", "em", "--output", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"fastridge {command}: error: argument --n-list: must list at least one value" in err
        assert not out.exists()


class TestTopLevel:
    def test_help_exits_0(self):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0

    def test_version_exits_0(self):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
