"""The library fit pipeline, its method dispatch, and the model file."""

import dataclasses
import json
import math
import types

import numpy as np
import pytest
from numpy.testing import assert_allclose

import fastridge.data as data_module
import fastridge.decomposition as decomposition
import fastridge.em as em_module
from fastridge.data import Dataset, FitResult, Method, predict, standardize
from fastridge.decomposition import compact_svd, rotate
from fastridge.exceptions import DataError, DegenerateProblemError
from fastridge.pipeline import FitConfig, fit, solve
from fastridge.simulate import Setting2Config, gen_gaussian_wishart


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


@pytest.mark.parametrize("grid_size", [2.5, 12.0, "12"])
def test_config_rejects_a_grid_size_that_is_not_an_integer(grid_size):
    """A count is an integer, as simulate's n, p and seed are."""
    with pytest.raises(DataError, match="^grid_size must be an integer, not "):
        FitConfig(grid_size=grid_size)


def test_config_refuses_a_bool_grid_size():
    with pytest.raises(DataError, match="^grid_size must be an integer, not True$"):
        FitConfig(grid_size=True)


@pytest.mark.parametrize("method", list(Method))
def test_fit_takes_a_method_by_its_value(method):
    config = FitConfig(grid_size=12)
    assert fit(_dataset(2), method.value, config).to_json() == fit(_dataset(2), method, config).to_json()


def test_fit_refuses_an_unknown_method_before_standardizing(monkeypatch):
    """The caller's method is refused by Method's rule, blaming no stage or
    target."""

    def standardized(d):
        raise AssertionError("standardized before the method was checked")

    monkeypatch.setattr(data_module, "standardize", standardized)
    with pytest.raises(DataError, match="^method must be one of em, loocv-fixed, loocv-glmnet; got 'lasso'$"):
        fit(_dataset(2), "lasso")


@pytest.mark.parametrize("q", [1, 2])
@pytest.mark.parametrize("method", list(Method))
def test_model_file_roundtrip_is_bitwise(method, q):
    result = fit(_dataset(q), method, FitConfig(grid_size=12))
    back = FitResult.from_json(result.to_json())
    for f in dataclasses.fields(FitResult):
        assert _same(getattr(result, f.name), getattr(back, f.name)), f.name
    assert back.to_json() == result.to_json()


# Wrong values put in place of a model file's values, one at a time.
_MUTATIONS = [
    None, True, 0, 1.5, "x", [], [None], [True, False], [1, "a"], [[1.0, 2.0], [3.0]],
    math.inf, [math.inf, 1.0], {},
]


@pytest.mark.parametrize("q", [1, 2])
@pytest.mark.parametrize("method", list(Method))
def test_mutated_model_file_loads_whole_or_is_refused(method, q):
    """Every top-level and standardization value, and the standardization
    itself, replaced in turn by each mutation: the file either loads,
    round-trips bitwise and predicts finite values, or raises DataError."""
    ds = _dataset(q)
    model = json.loads(fit(ds, method, FitConfig(grid_size=12)).to_json())
    std = model["standardization"]
    loaded = 0
    for holder, key in [(model, key) for key in model] + [(std, key) for key in std]:
        for value in _MUTATIONS:
            kept, holder[key] = holder[key], value
            text = json.dumps(model)
            holder[key] = kept
            try:
                result = FitResult.from_json(text)
            except DataError:
                continue
            loaded += 1
            back = FitResult.from_json(result.to_json())
            for f in dataclasses.fields(FitResult):
                assert _same(getattr(result, f.name), getattr(back, f.name)), (key, value, f.name)
            assert back.to_json() == result.to_json()
            assert np.isfinite(predict(result, ds.X)).all(), (key, value)
    assert loaded > 0  # an optional array dropped, say, still loads


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


@pytest.mark.parametrize(
    "column_names, target_names, message",
    [
        (["a", "b", "c", "d"], ["y", "y"], "target_names lists 'y' twice"),
        (["a"], ["y0", "y1"], "column_names has length 1; expected 4, one per feature"),
        (["a", "b", "a", "d"], ["y0", "y1"], "column_names lists 'a' twice"),
        ("abcd", None, "column_names is a scalar; expected 4, one per feature"),
        ([1, 2, 3, 4], None, "column_names entries must be strings"),
        ([["a"], ["b"], ["c"], ["d"]], None, "column_names is 2-D; expected 1-D"),
        (None, "y", "target_names is a scalar; expected 2, one per target"),
    ],
    ids=[
        "target-twice", "one-name-for-four-columns", "column-twice",
        "string-for-columns", "integer-names", "2-d-names", "string-for-targets",
    ],
)
def test_fit_refuses_a_target_name_given_twice(monkeypatch, column_names, target_names, message):
    """predict could not tell the two prediction columns apart, nor match a
    feature by a name that is missing, repeated or not a string: the
    Dataset refuses the names by the model file's name rule, with its
    message, before anything is standardized or solved."""
    solved = []
    real_em_fit = em_module.em_fit

    def recorded(rp, cfg, target):
        solved.append(target)
        return real_em_fit(rp, cfg, target)

    def refused(_):
        raise AssertionError("standardize was called")

    monkeypatch.setattr(em_module, "em_fit", recorded)
    monkeypatch.setattr(data_module, "standardize", refused)
    d = _dataset(2)
    with pytest.raises(DataError, match=f"^{message}$"):
        fit(Dataset(d.X, d.Y, column_names, target_names), Method.EM)
    assert solved == []


def test_dataset_holds_names_as_lists():
    d = _dataset(2)
    named = Dataset(d.X, d.Y, ("a", "b", "c", "d"), np.array(["y0", "y1"]))
    assert named.column_names == ["a", "b", "c", "d"] and named.target_names == ["y0", "y1"]
    assert fit(named, Method.EM).feature_names == ["a", "b", "c", "d"]


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


def test_degenerate_em_is_refused_by_solve_and_fit(monkeypatch):
    """The refusal lives in solve, so no caller gets a fit without a finite
    penalty: solve names the target by index or by name, and fit by name."""

    def collapsed(ess, esn, n, p):
        raise DegenerateProblemError("statistics collapsed")

    monkeypatch.setattr(em_module, "m_step", collapsed)
    ds = _dataset(1)
    std = standardize(ds)
    rp = rotate(compact_svd(std.X_std), std.Y_centered)
    message = "no finite penalty exists for this data$"
    with pytest.raises(DegenerateProblemError, match=f"^solve: target 0: {message}"):
        solve(std, rp, Method.EM)
    with pytest.raises(DegenerateProblemError, match=f"^solve: target 'y0': {message}"):
        solve(std, rp, Method.EM, target_names=ds.target_names)
    with pytest.raises(DegenerateProblemError, match=f"^solve: target 'y0': {message}"):
        fit(ds, Method.EM)


@pytest.mark.parametrize("method", list(Method))
def test_solve_returns_one_fit_per_target(method):
    ds = _dataset(3)
    std = standardize(ds)
    rp = rotate(compact_svd(std.X_std), std.Y_centered)
    fits = solve(std, rp, method, FitConfig(grid_size=12))
    assert isinstance(fits, list) and len(fits) == 3


@pytest.mark.parametrize("names, label", [(None, "1"), (["a", "b"], "'b'")])
def test_solve_names_the_target_whose_grid_saturates(names, label):
    """Each target gets its own glmnet grid. Observation 1 alone loads on
    the column with s^2 = 1e20, so its leverage saturates below lambda ~ 1e8;
    target 0's grid stops at 2.2e9 and target 1's, whose largest x'y is a
    thousandth of target 0's, at 2.2e6. Only target 1 saturates, and the error names it. The
    uncentered design stands in for std: standardized data never saturates."""
    X = np.zeros((5, 3))
    X[0, 0], X[1, 1], X[2:, 2] = 1e7, 1e10, 1e7
    Y = np.zeros((5, 2))
    Y[1, 0] = Y[0, 1] = 1.0
    std = types.SimpleNamespace(X_std=X, Y_centered=Y)
    rp = rotate(compact_svd(X), Y)
    with pytest.raises(DegenerateProblemError) as exc:
        solve(std, rp, Method.LOOCV_GLMNET, target_names=names)
    assert str(exc.value) == (
        f"solve: target {label}: leverage saturated at 1 observation(s) [1]; LOOCV residuals are undefined there"
    )


def test_fit_stops_at_the_first_degenerate_target(monkeypatch):
    """A degenerate target ends the fit before later targets are solved, and
    the error names the step and the target."""
    solved = []
    real_em_fit = em_module.em_fit

    def first_collapses(rp, cfg=None, target=0):
        solved.append(target)
        if target == 0:
            return dataclasses.replace(real_em_fit(rp, cfg, target), tau2=math.inf)
        raise AssertionError("solved a target after a degenerate one")

    monkeypatch.setattr(em_module, "em_fit", first_collapses)
    with pytest.raises(DegenerateProblemError, match=r"^solve: target 'y0': "):
        fit(_dataset(2), Method.EM)
    assert solved == [0]


def test_fit_names_a_later_degenerate_target(monkeypatch):
    """The refusal names the target that collapsed, not the first one."""
    real_em_fit = em_module.em_fit

    def second_collapses(rp, cfg=None, target=0):
        f = real_em_fit(rp, cfg, target)
        return dataclasses.replace(f, tau2=math.inf) if target == 1 else f

    monkeypatch.setattr(em_module, "em_fit", second_collapses)
    with pytest.raises(
        DegenerateProblemError, match=r"^solve: target 'y1': no finite penalty exists for this data$"
    ):
        fit(_dataset(2), Method.EM)


def test_fit_names_the_target_a_solver_refuses():
    """Every per-target solver error is named as EM's collapse is: here the
    glmnet grid of a target orthogonal to every centered column."""
    X = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    Y = np.array([[1.0, 2.0, 0.0, 4.0], [1.0, 1.0, -1.0, -1.0]]).T
    ds = Dataset(X, Y, target_names=["y0", "y1"])
    fit(Dataset(X, Y[:, :1]), Method.LOOCV_GLMNET)  # the first target alone fits
    message = "^solve: target 'y1': y_centered is orthogonal to every column; grid top is 0$"
    with pytest.raises(DataError, match=message):
        fit(ds, Method.LOOCV_GLMNET)


@pytest.mark.parametrize(
    "a, exact",
    [(2.0**509, True), (1.25 * 2.0**509, False), (2.0**-511, True)],
    ids=["2^509", "1.25*2^509", "2^-511"],
)
def test_em_at_the_ends_of_the_range_of_y(a, exact):
    """On a wide design, whose first expected squared norm is about
    (p - r')/n times ||y||^2, EM keeps the penalty and iteration count of y
    itself at both ends of the accepted range: a*y gives a*beta and
    a^2*sigma2, bitwise when a is a power of two."""
    rng = np.random.default_rng(5)
    X = rng.normal(size=(30, 100))
    y = rng.normal(size=30)
    base = fit(Dataset(X, y), Method.EM)
    scaled = fit(Dataset(X, a * y), Method.EM)
    assert scaled.iterations.tolist() == base.iterations.tolist()
    if exact:
        assert scaled.lambda_.tolist() == base.lambda_.tolist()
        assert np.array_equal(scaled.beta_raw, a * base.beta_raw)
        assert scaled.sigma2.tolist() == (a * a * base.sigma2).tolist()
    else:
        assert scaled.lambda_[0] == pytest.approx(base.lambda_[0], rel=1e-12, abs=0)
        assert_allclose(scaled.beta_raw, a * base.beta_raw, rtol=1e-9, atol=0)


def _record_decompositions(monkeypatch):
    """Record each decomposition and rotated problem a fit makes."""
    made = []

    def recording(layer):
        def recorded(*args):
            made.append(layer(*args))
            return made[-1]

        return recorded

    monkeypatch.setattr(decomposition, "compact_svd", recording(compact_svd))
    monkeypatch.setattr(decomposition, "rotate", recording(rotate))
    return made


@pytest.mark.parametrize("method", list(Method))
def test_wide_fit_never_forms_v(monkeypatch, method):
    """With n < p no solver reads V: each coefficient vector is mapped back
    through X."""
    made = _record_decompositions(monkeypatch)
    rng = np.random.default_rng(5)
    X = rng.normal(size=(40, 120))
    Y = X[:, :5] @ rng.normal(size=(5, 2)) + rng.normal(size=(40, 2))
    result = fit(Dataset(X=X, Y=Y), method)
    assert len(made) == 2 and made[0].n < made[0].p
    assert not any("V" in vars(m) for m in made)
    assert np.all(np.isfinite(result.beta_raw))


def test_tall_em_fit_never_forms_u(monkeypatch):
    """With n >= p EM reads only s^2, c and R0, and maps back through W: U
    is never formed."""
    made = _record_decompositions(monkeypatch)
    rng = np.random.default_rng(5)
    X = rng.normal(size=(120, 40))
    Y = X[:, :5] @ rng.normal(size=(5, 2)) + rng.normal(size=(120, 2))
    result = fit(Dataset(X=X, Y=Y), Method.EM)
    assert len(made) == 2 and made[0].n >= made[0].p
    assert not any("U" in vars(m) for m in made)
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


def _unit_design(name):
    if name == "50x4":
        rng = np.random.default_rng(2)
        X = rng.normal(size=(50, 4))
        return X, X @ rng.normal(size=4) + rng.normal(size=50)
    X, y, _ = gen_gaussian_wishart(Setting2Config(n=100, p=400, seed=3))
    return X, y


@pytest.mark.parametrize("method", list(Method))
@pytest.mark.parametrize(
    "design, j",
    [("50x4", j) for j in (-500, -40, -10, 10, 40, 500)]
    + [("setting2-100x400", j) for j in (-40, -10, 10, 40)],
)
def test_penalties_do_not_depend_on_the_units_of_y(design, j, method):
    """y * 2^j gives bitwise the same penalties (and EM iteration counts),
    2^j times the coefficients and intercepts, and 4^j times sigma2 and the
    CVE curves. At 2^+-500 ||y||^2 on 50x4 is about 3e303 and 2e-299."""
    X, y = _unit_design(design)
    a = math.ldexp(1.0, j)
    base, scaled = fit(Dataset(X=X, Y=y), method), fit(Dataset(X=X, Y=a * y), method)
    assert np.array_equal(scaled.lambda_, base.lambda_)
    assert np.array_equal(scaled.beta_raw, a * base.beta_raw)
    assert np.array_equal(scaled.intercepts, a * base.intercepts)
    if method is Method.EM:
        assert np.array_equal(scaled.iterations, base.iterations)
        assert np.array_equal(scaled.sigma2, a * a * base.sigma2)
    else:
        assert np.array_equal(scaled.cve_curves, a * a * base.cve_curves)


@pytest.mark.parametrize("method", list(Method))
@pytest.mark.parametrize("design", ["50x4", "setting2-100x400"])
@pytest.mark.parametrize("a", [1e-3, 1e3])
def test_penalties_at_other_units_agree_to_rounding(design, a, method):
    """y * 10^+-3 is not an exact rescaling, yet the penalty agrees to 1e-12
    and EM takes the same number of iterations."""
    X, y = _unit_design(design)
    base, scaled = fit(Dataset(X=X, Y=y), method), fit(Dataset(X=X, Y=a * y), method)
    np.testing.assert_allclose(scaled.lambda_, base.lambda_, rtol=1e-12)
    if method is Method.EM:
        assert np.array_equal(scaled.iterations, base.iterations)
