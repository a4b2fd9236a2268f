"""The library fit pipeline, its method dispatch, and the model file."""

import dataclasses
import json
import math

import numpy as np
import pytest

import fastridge.decomposition as decomposition
import fastridge.em as em_module
from fastridge.data import Dataset, FitResult, Method, standardize
from fastridge.decomposition import compact_svd, rotate
from fastridge.exceptions import DataError, DegenerateProblemError
from fastridge.pipeline import FitConfig, fit, solve


def _dataset(q, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(30, 4)) * [1.0, 2.0, 0.5, 3.0] + [0.0, 4.0, -1.0, 9.0]
    X[:, 2] = 1.5  # a constant column, dropped by standardize
    Y = X @ rng.normal(size=(4, q)) + rng.normal(size=(30, q))
    return Dataset(
        X=X,
        Y=Y,
        column_names=["a", "b", "c", "d"],
        target_names=[f"y{t}" for t in range(q)],
    )


def _same(a, b):
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and np.array_equal(a, b)
    return a == b


@pytest.mark.parametrize("grid_size", [1, 0, -3])
def test_config_rejects_a_grid_shorter_than_two(grid_size):
    with pytest.raises(DataError, match="grid_size must be at least 2"):
        FitConfig(grid_size=grid_size)


@pytest.mark.parametrize("q", [1, 2])
@pytest.mark.parametrize("method", list(Method))
def test_model_file_roundtrip_is_bitwise(method, q):
    result = fit(_dataset(q), method, FitConfig(grid_size=12))
    back = FitResult.from_json(result.to_json())
    for f in dataclasses.fields(FitResult):
        assert _same(getattr(result, f.name), getattr(back, f.name)), f.name
    assert back.to_json() == result.to_json()


# Model-file arrays with one entry per target, then per feature, each with a
# method whose file has it; the standardization statistics sit under their
# own key.
_PER_TARGET_KEYS = [
    ("intercepts", Method.EM),
    ("lambda", Method.LOOCV_FIXED),
    ("tau2", Method.EM),
    ("sigma2", Method.EM),
    ("iterations", Method.EM),
    ("grid", Method.LOOCV_GLMNET),
    ("cve_curve", Method.LOOCV_FIXED),
    ("y_means", Method.EM),
    ("target_names", Method.LOOCV_GLMNET),
]
_PER_FEATURE_KEYS = [
    ("feature_names", Method.EM),
    ("col_means", Method.LOOCV_FIXED),
    ("col_sds", Method.LOOCV_GLMNET),
]


@pytest.mark.parametrize("extra", [1, -1], ids=["one-more", "one-fewer"])
@pytest.mark.parametrize("q", [1, 2])
@pytest.mark.parametrize("key, method", _PER_TARGET_KEYS + _PER_FEATURE_KEYS)
def test_model_file_with_a_miscounted_array_is_refused(key, method, q, extra):
    model = json.loads(fit(_dataset(q), method, FitConfig(grid_size=12)).to_json())
    holder = model["standardization"] if key in ("y_means", "col_means", "col_sds") else model
    holder[key] = holder[key] + holder[key][:1] if extra > 0 else holder[key][:-1]
    field = {"lambda": "lambda_", "cve_curve": "cve_curves"}.get(key, key)
    unit, count = ("target", q) if (key, method) in _PER_TARGET_KEYS else ("feature", 4)
    message = f"{field} has length {count + extra}; expected {count}, one per {unit}"
    with pytest.raises(DataError, match=f"^malformed model file: {message}$"):
        FitResult.from_json(json.dumps(model))


@pytest.mark.parametrize("method", list(Method))
def test_fit_fills_the_method_detail(method):
    result = fit(_dataset(2), method, FitConfig(grid_size=12))
    assert result.kept_columns.tolist() == [0, 1, 3]
    assert result.beta_raw[2].tolist() == [0.0, 0.0]
    assert result.feature_names == ["a", "b", "c", "d"]
    if method is Method.EM:
        assert result.grid is None and result.cve_curves is None
        assert result.sigma2.shape == result.iterations.shape == (2,)
    else:
        assert result.tau2 is None and result.iterations is None
        assert result.grid.shape == result.cve_curves.shape == (2, 12)
        grid_kind = json.loads(result.to_json())["grid_kind"]
        assert grid_kind == ("fixed" if method is Method.LOOCV_FIXED else "glmnet")
        assert set(result.lambda_) <= set(result.grid.ravel())


def test_degenerate_em_is_flagged_by_solve_and_refused_by_fit(monkeypatch):
    """solve leaves the policy to its caller; fit will not build a model
    without a finite penalty."""

    def collapsed(ess, esn, n, p):
        raise DegenerateProblemError("statistics collapsed")

    monkeypatch.setattr(em_module, "m_step", collapsed)
    ds = _dataset(1)
    std = standardize(ds)
    rp = rotate(compact_svd(std.X_std), std.Y_centered)
    (flagged,) = solve(std, rp, Method.EM)
    assert flagged.degenerate and flagged.lambda_ == 0.0 and math.isinf(flagged.tau2)
    with pytest.raises(DegenerateProblemError, match="target 0"):
        fit(ds, Method.EM)


def test_fit_stops_at_the_first_degenerate_target(monkeypatch):
    """A degenerate target ends the fit before later targets are solved, and
    the error names the step and the target."""
    solved = []
    real_em_fit = em_module.em_fit

    def first_collapses(rp, cfg=None, target=0):
        solved.append(target)
        if target == 0:
            return dataclasses.replace(real_em_fit(rp, cfg, target), degenerate=True)
        raise AssertionError("solved a target after a degenerate one")

    monkeypatch.setattr(em_module, "em_fit", first_collapses)
    with pytest.raises(DegenerateProblemError, match=r"^solve: target 0: "):
        fit(_dataset(2), Method.EM)
    assert solved == [0]


@pytest.mark.parametrize("method", list(Method))
def test_wide_fit_never_forms_v(monkeypatch, method):
    """With n < p no solver reads V: each coefficient vector is mapped back
    through X."""
    made = []

    def recorded(X):
        made.append(compact_svd(X))
        return made[-1]

    monkeypatch.setattr(decomposition, "compact_svd", recorded)
    rng = np.random.default_rng(5)
    X = rng.normal(size=(40, 120))
    Y = X[:, :5] @ rng.normal(size=(5, 2)) + rng.normal(size=(40, 2))
    result = fit(Dataset(X=X, Y=Y), method)
    assert len(made) == 1 and made[0].n < made[0].p
    assert "V" not in vars(made[0])
    assert np.all(np.isfinite(result.beta_raw))


@pytest.mark.parametrize("method", list(Method))
def test_constant_column_gets_no_coefficient(method):
    """A constant column of 0.1, whose computed sd is not exactly zero, is
    dropped: its coefficient is 0 and the intercept is not split with it."""
    rng = np.random.default_rng(6)
    X = rng.normal(size=(200, 6))
    X[:, 3] = 0.1
    y = X @ rng.normal(size=6) + rng.normal(size=200)
    result = fit(Dataset(X=X, Y=y), method)
    assert list(result.kept_columns) == [0, 1, 2, 4, 5]
    assert result.beta_raw[3, 0] == 0.0


@pytest.mark.parametrize("shape", [(60, 8), (20, 50)], ids=["tall", "wide"])
@pytest.mark.parametrize("method", list(Method))
def test_model_does_not_depend_on_eigenvector_signs(monkeypatch, method, shape):
    """compact_svd keeps the column signs eigh returns; negating some of
    them leaves every byte of the model file unchanged."""
    n, p = shape
    rng = np.random.default_rng(7)
    X = rng.normal(size=(n, p))
    Y = X[:, :3] @ rng.normal(size=(3, 2)) + rng.normal(size=(n, 2))
    ds = Dataset(X=X, Y=Y)
    config = FitConfig(grid_size=20)
    plain = fit(ds, method, config).to_json()

    real_eigh = np.linalg.eigh
    calls = []

    def flipped(a):
        evals, W = real_eigh(a)
        calls.append(W.shape[1])
        return evals, W * np.where(np.arange(W.shape[1]) % 3 == 0, -1.0, 1.0)

    monkeypatch.setattr(np.linalg, "eigh", flipped)
    assert fit(ds, method, config).to_json() == plain
    assert calls == [min(n, p)]
