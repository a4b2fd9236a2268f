"""The one shape rule for array arguments, data.floats, and every entry point
that applies it."""

import re

import numpy as np
import pytest

from fastridge.data import Dataset, FitResult, Method, destandardize, floats, predict, standardize
from fastridge.decomposition import compact_svd, recover_beta, rotate
from fastridge.em import expected_squared_norm, expected_sse
from fastridge.exceptions import DataError
from fastridge.loocv import LambdaGrid, fixed_grid, glmnet_grid, loocv_fit, loocv_fits, press


class TestFloats:
    def test_returns_a_float_array_of_the_shape(self):
        a = floats("a", [[1, 2, 3], [4, 5, 6]], 2, None)
        assert a.dtype == np.float64 and a.shape == (2, 3)
        assert floats("a", 2.5).shape == ()

    def test_a_float_array_is_not_copied(self):
        X = np.asfortranarray(np.ones((4, 3)))
        assert floats("X", X, None, 3) is X
        column = np.ones((5, 2))[:, 1]
        assert floats("y", column, 5) is column

    @pytest.mark.parametrize(
        "value, shape, message",
        [
            (np.ones((2, 4, 4)), (None, 4), "X has shape (2, 4, 4), expected (any, 4)"),
            (np.ones(7), (4,), "X has shape (7,), expected (4,)"),
            (np.float64(1.0), (None,), "X has shape (), expected (any,)"),
            (np.ones((3, 2)), (3, 3), "X has shape (3, 2), expected (3, 3)"),
            (np.ones(3), (), "X has shape (3,), expected ()"),
        ],
        ids=["3-d", "wrong-length", "0-d", "wrong-width", "not-a-scalar"],
    )
    def test_any_other_shape_is_refused(self, value, shape, message):
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            floats("X", value, *shape)

    @pytest.mark.parametrize(
        "value",
        [[[1, 2], [3]], [["a", "b"]], [1j, 2j], [{"a": 1}], [10**400]],
        ids=["ragged", "strings", "complex", "dict", "past-the-doubles"],
    )
    def test_what_is_not_an_array_of_numbers_is_refused(self, value):
        """numpy's own ValueError, TypeError or OverflowError becomes the
        rule's DataError, naming the argument."""
        with pytest.raises(DataError, match=r"^X must be a rectangular array of numbers \("):
            floats("X", value, None, None)

    def test_a_vector_is_one_row_or_one_column(self):
        assert floats("y", [1, 2, 3], None, None, vector="column").shape == (3, 1)
        assert floats("x", [1, 2, 3], None, 3, vector="row").shape == (1, 3)
        assert floats("Y", np.ones((3, 2)), 3, None, vector="column").shape == (3, 2)
        with pytest.raises(DataError, match=r"^x has shape \(1, 3\), expected \(any, 4\)$"):
            floats("x", [1, 2, 3], None, 4, vector="row")


# One problem for every entry point: n = 8, p = 5, q = 2, rank 5.
_RNG = np.random.default_rng(40)
_X = _RNG.normal(size=(8, 5))
_Y = _RNG.normal(size=(8, 2))
_SVD = compact_svd(_X)
_STD = standardize(Dataset(_X, _Y))
_RP = rotate(compact_svd(_STD.X_std), _STD.Y_centered)
_Y_C = _STD.Y_centered
_MODEL = FitResult(np.ones((5, 2)), [0.0, 0.0], [1.0, 1.0], Method.LOOCV_FIXED)

# (entry point, argument, call with the argument, an array of the right
# kind but the wrong size: its other arguments fix that size, or, for an
# argument of any size, a 2-D array for a vector or a 1-D one for a matrix).
_ENTRY_POINTS = [
    ("Dataset", "X", lambda v: Dataset(v, _Y), np.ones(8)),
    ("Dataset", "Y", lambda v: Dataset(_X, v), np.ones((7, 2))),
    ("compact_svd", "X", compact_svd, np.ones(8)),
    ("rotate", "Y", lambda v: rotate(_SVD, v), np.ones((7, 2))),
    ("recover_beta", "alpha", lambda v: recover_beta(_RP, v), np.ones(4)),
    ("expected_sse", "alpha", lambda v: expected_sse(_RP, v, 1.0, 1.0), np.ones(7)),
    ("expected_squared_norm", "alpha", lambda v: expected_squared_norm(_RP, v, 1.0, 1.0), np.ones(7)),
    ("destandardize", "beta_std", lambda v: destandardize(v, _STD), np.ones((5, 3))),
    ("predict", "X_new", lambda v: predict(_MODEL, v), np.ones((2, 4))),
    ("LambdaGrid", "grid values", LambdaGrid, np.ones((2, 2))),
    ("glmnet_grid", "X_std", lambda v: glmnet_grid(v, _Y_C[:, 0]), np.ones(8)),
    ("glmnet_grid", "y_centered", lambda v: glmnet_grid(_STD.X_std, v), np.ones(7)),
    ("press", "y", lambda v: press(_RP, v, 1.0), np.ones(7)),
    ("loocv_fit", "y", lambda v: loocv_fit(_RP, v, fixed_grid(5)), np.ones(7)),
    ("loocv_fits", "Y", lambda v: loocv_fits(_RP, v, [fixed_grid(5)] * 2), np.ones((8, 3))),
]


_IDS = [f"{function}-{name.split()[-1]}" for function, name, _, _ in _ENTRY_POINTS]


@pytest.mark.parametrize("kind", ["0-d", "3-d", "wrong-size"])
@pytest.mark.parametrize("function, name, call, wrong", _ENTRY_POINTS, ids=_IDS)
def test_every_entry_point_refuses_a_misshapen_array(function, name, call, wrong, kind):
    """A 0-d, a 3-D and a wrong-size array each raise the one rule's
    DataError, naming the argument and the shape it has."""
    value = {"0-d": np.float64(1.0), "3-d": np.ones((8, 5, 2)), "wrong-size": wrong}[kind]
    with pytest.raises(DataError, match=rf"^{re.escape(name)} has shape {re.escape(str(value.shape))}, expected \("):
        call(value)


@pytest.mark.parametrize("function, name, call, wrong", _ENTRY_POINTS, ids=_IDS)
def test_every_entry_point_accepts_its_shape(function, name, call, wrong):
    """The sizes the table calls wrong are off what each entry point takes:
    the right shape goes through."""
    right = {
        ("Dataset", "X"): _X, ("Dataset", "Y"): _Y, ("compact_svd", "X"): _X, ("rotate", "Y"): _Y,
        ("destandardize", "beta_std"): np.ones((5, 2)), ("predict", "X_new"): np.ones((2, 5)),
        ("LambdaGrid", "grid values"): np.array([2.0, 1.0]), ("glmnet_grid", "X_std"): _STD.X_std,
        ("loocv_fits", "Y"): _Y_C,
    }.get((function, name), _Y_C[:, 0] if name in ("y", "y_centered") else np.ones(_RP.rank))
    call(right)


class TestRegressions:
    """Arrays that returned a wrong result or leaked numpy's own error."""

    @pytest.mark.parametrize(
        "name, call",
        [
            ("X_new", lambda: predict(_MODEL, [[1, 2, 3, 4, 5], [1, 2]])),
            ("X_new", lambda: predict(_MODEL, [["a", "b", "c", "d", "e"]])),
            ("X", lambda: Dataset([[1, 2], [3]], [1, 2])),
            ("Y", lambda: Dataset(_X, [[1]] * 7 + [[1, 2]])),
            ("Y", lambda: rotate(_SVD, [[1], [2, 3], [4]])),
            ("beta_std", lambda: destandardize([[1, 2], [3]], _STD)),
        ],
        ids=["predict-ragged", "predict-strings", "dataset-x", "dataset-y", "rotate", "destandardize"],
    )
    def test_a_ragged_or_text_array_is_refused_by_name(self, name, call):
        """Entry points that lift a 1-D argument to a row or column read it
        through the rule too, so numpy's inhomogeneous-shape or conversion
        ValueError never leaks."""
        with pytest.raises(DataError, match=rf"^{name} must be a rectangular array of numbers \("):
            call()

    def test_predict_refuses_predictions_that_are_not_finite(self):
        """The n x q predictions are checked, and the first row with a NaN
        or infinite one is named; a finite X_new whose products overflow is
        refused too."""
        model = FitResult(np.ones((4, 2)), [0.0, 0.0], [1.0, 1.0], Method.LOOCV_FIXED)
        for X_new, row in (
            ([[0, 0, 0, 0], [np.nan, 0, 0, 0], [np.inf, 0, 0, 0]], 1),
            ([[np.inf, 0, 0, 0], [np.nan, 0, 0, 0]], 0),
            ([[0, 0, 0, 0], [0, 0, 0, 0], [1e308, 1e308, 0, 0]], 2),
            ([np.inf, -np.inf, 0, 0], 0),
        ):
            with pytest.raises(DataError, match=f"^prediction for row {row} is not finite$"):
                predict(model, X_new)
        assert predict(model, np.ones((0, 4))).shape == (0, 2)

    def test_predict_refuses_a_3d_x_new(self):
        model = FitResult(np.ones(4), [0.0], [1.0], Method.LOOCV_FIXED)
        with pytest.raises(DataError, match=r"^X_new has shape \(2, 4, 4\), expected \(any, 4\)$"):
            predict(model, np.ones((2, 4, 4)))

    def test_e_step_refuses_alpha_longer_than_the_rank(self):
        rng = np.random.default_rng(41)
        rp = rotate(compact_svd(rng.normal(size=(10, 4))), rng.normal(size=10))
        assert rp.rank == 4
        with pytest.raises(DataError, match=r"^alpha has shape \(7,\), expected \(4,\)$"):
            expected_squared_norm(rp, np.ones(7), 1.0, 1.0)
        with pytest.raises(DataError, match=r"^alpha has shape \(7,\), expected \(4,\)$"):
            expected_sse(rp, np.ones(7), 1.0, 1.0)

    def test_destandardize_and_recover_beta_refuse_3d_arrays(self):
        rng = np.random.default_rng(42)
        std = standardize(Dataset(rng.normal(size=(10, 4)), rng.normal(size=10)))
        with pytest.raises(DataError, match=r"^beta_std has shape \(4, 1, 1\), expected \(4, 1\)$"):
            destandardize(np.ones((4, 1, 1)), std)
        rp = rotate(compact_svd(std.X_std), std.Y_centered)
        with pytest.raises(DataError, match=rf"^alpha has shape \(4, 2, 2\), expected \({rp.rank},\)$"):
            recover_beta(rp, np.ones((4, 2, 2)))

    def test_a_target_vector_is_1d(self):
        """A (15, 2) y with n = 30 has n entries, but is not a target
        vector: press, loocv_fit and glmnet_grid refuse it rather than
        score it flattened."""
        rng = np.random.default_rng(43)
        X = rng.normal(size=(30, 3))
        y = rng.normal(size=30)
        rp = rotate(compact_svd(X), y)
        folded = y.reshape(15, 2)
        for name, call in (
            ("y", lambda: press(rp, folded, 1.0)),
            ("y", lambda: loocv_fit(rp, folded, fixed_grid(5))),
            ("y_centered", lambda: glmnet_grid(X, folded)),
        ):
            with pytest.raises(DataError, match=rf"^{name} has shape \(15, 2\), expected \(30,\)$"):
                call()
