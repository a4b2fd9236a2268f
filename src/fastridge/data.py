"""Dataset handling: CSV reading, standardization, the model file, prediction, R^2.

Everything downstream of this module consumes standardized predictors
(zero mean, unit sample standard deviation) and centered targets; the
intercept is recovered when mapping coefficients back to the raw scale.
"""

from __future__ import annotations

import contextlib
import csv
import json
import re
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import __version__
from .exceptions import DataError


class Method(Enum):
    EM = "em"
    LOOCV_FIXED = "loocv-fixed"
    LOOCV_GLMNET = "loocv-glmnet"


@dataclass(frozen=True)
class Dataset:
    """Raw design matrix X (n x p) and targets Y (n x q, q >= 1)."""

    X: np.ndarray
    Y: np.ndarray
    column_names: list[str] | None = None
    target_names: list[str] | None = None

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        Y = np.asarray(self.Y, dtype=float)
        if Y.ndim == 1:
            Y = Y[:, None]
        if X.ndim != 2 or Y.ndim != 2:
            raise DataError("X must be 2-D and Y 1-D or 2-D")
        if X.shape[0] != Y.shape[0]:
            raise DataError(
                f"X has {X.shape[0]} rows but Y has {Y.shape[0]}"
            )
        if X.shape[0] < 1 or X.shape[1] < 1 or Y.shape[1] < 1:
            raise DataError("need n >= 1, p >= 1, q >= 1")
        if not np.all(np.isfinite(X)) or not np.all(np.isfinite(Y)):
            raise DataError("non-finite entries in X or Y")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    @property
    def q(self) -> int:
        return self.Y.shape[1]


@dataclass(frozen=True)
class StandardizedDataset:
    """Standardized predictors and centered targets with the statistics
    needed to undo the transform.

    ``kept_columns`` indexes into the original p columns; a column is
    dropped when all its entries are equal, or when its sample standard
    deviation underflows to zero.
    """

    X_std: np.ndarray
    Y_centered: np.ndarray
    col_means: np.ndarray
    col_sds: np.ndarray
    y_means: np.ndarray
    kept_columns: np.ndarray

    @property
    def p_kept(self) -> int:
        return self.X_std.shape[1]

    @property
    def p_original(self) -> int:
        return self.col_means.shape[0]

    @property
    def q(self) -> int:
        return self.Y_centered.shape[1]


@dataclass(frozen=True)
class FitResult:
    """A fitted model on the raw data scale: what a model file holds.

    ``lambda_`` and the per-method detail hold one entry per target: EM
    fills tau2, sigma2 and iterations, LOOCV grid, cve_curves and
    grid_kind. lambda_[t] == 1/tau2[t] whenever tau2 is present.
    """

    beta_raw: np.ndarray
    intercepts: np.ndarray
    lambda_: np.ndarray
    method: Method
    tau2: np.ndarray | None = None
    sigma2: np.ndarray | None = None
    iterations: np.ndarray | None = None
    cve_curves: np.ndarray | None = None
    grid: np.ndarray | None = None
    grid_kind: str | None = None
    col_means: np.ndarray | None = None
    col_sds: np.ndarray | None = None
    kept_columns: np.ndarray | None = None
    y_means: np.ndarray | None = None
    feature_names: list[str] | None = None
    target_names: list[str] | None = None

    def __post_init__(self):
        beta = np.asarray(self.beta_raw, dtype=float)
        if beta.ndim == 1:
            beta = beta[:, None]
        object.__setattr__(self, "beta_raw", beta)
        for name in ("intercepts", "lambda_"):
            value = np.atleast_1d(np.asarray(getattr(self, name), dtype=float))
            object.__setattr__(self, name, value)
        for name in ("sigma2", "iterations", "cve_curves", "grid", *_STANDARDIZATION):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, np.asarray(getattr(self, name)))
        if self.tau2 is not None:
            tau2 = np.atleast_1d(np.asarray(self.tau2, dtype=float))
            object.__setattr__(self, "tau2", tau2)
            rel = np.abs(self.lambda_ * tau2 - 1.0)
            if np.any(rel > 1e-12):
                raise DataError("lambda must equal 1/tau2")

    def to_json(self) -> str:
        """The model file: JSON with sorted keys, repr-exact floats and no
        timestamps, so equal fits give byte-identical files. Coefficients
        are a flat list for one target; fields that are None are left out."""
        beta = self.beta_raw[:, 0] if self.beta_raw.shape[1] == 1 else self.beta_raw
        model = {
            "method": self.method.value,
            "library_version": __version__,
            "coefficients": beta,
            "intercepts": self.intercepts,
            "lambda": self.lambda_,
        }
        model.update((key, getattr(self, name)) for name, key in _OPTIONAL_KEYS.items())
        if self.col_means is not None:
            model["standardization"] = {name: getattr(self, name) for name in _STANDARDIZATION}
        model = {key: value for key, value in model.items() if value is not None}
        # Arrays become lists of Python scalars, which json writes repr-exact.
        return json.dumps(model, sort_keys=True, indent=2, default=np.ndarray.tolist) + "\n"

    @classmethod
    def from_json(cls, text: str) -> FitResult:
        """Parse a model file written by to_json. Only coefficients,
        intercepts, lambda and method are required; a file that is not JSON
        or lacks them raises DataError."""
        try:
            model = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DataError(f"invalid JSON: {exc}") from None
        try:
            return cls(
                beta_raw=np.asarray(model["coefficients"], dtype=float),
                intercepts=np.asarray(model["intercepts"], dtype=float),
                lambda_=np.asarray(model["lambda"], dtype=float),
                method=Method(model["method"]),
                **{name: model[key] for name, key in _OPTIONAL_KEYS.items() if key in model},
                **model.get("standardization", {}),
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise DataError(f"malformed model file: {exc}") from None


# Optional FitResult fields and their keys in the model file.
_OPTIONAL_KEYS = dict(
    tau2="tau2", sigma2="sigma2", iterations="iterations", grid="grid", grid_kind="grid_kind",
    cve_curves="cve_curve", feature_names="feature_names", target_names="target_names",
)
# The standardization statistics, nested under their own key in the file.
_STANDARDIZATION = ("col_means", "col_sds", "kept_columns", "y_means")


def _parse_target_spec(target_spec, header: list[str]) -> list[int]:
    """Resolve a target spec (names, comma-joined names, or 'last k') to
    column indices within ``header``. Only ``last`` and ``last <k>`` select
    trailing columns; any other string is read as column names."""
    if isinstance(target_spec, str):
        spec = target_spec.strip()
        last = re.fullmatch(r"last(?:\s+(\d+))?", spec, re.IGNORECASE)
        if last:
            k = int(last.group(1) or 1)
            if not 1 <= k <= len(header):
                raise DataError(f"'last {k}' out of range for {len(header)} columns")
            return list(range(len(header) - k, len(header)))
        names = [s.strip() for s in spec.split(",") if s.strip()]
    else:
        names = list(target_spec)
    idx = []
    for name in names:
        if name not in header:
            raise DataError(f"target column {name!r} not found in header")
        idx.append(header.index(name))
    if not idx:
        raise DataError("empty target spec")
    return idx


def read_csv(path, select=None):
    """Read a CSV file with one header row into ``(header, table, texts)``.

    ``select(header)`` returns the indices of the columns to parse, in
    order, and the index of one column returned unparsed as ``texts``, or
    None; by default every column is parsed. Numeric files are read by
    numpy's C parser, which reads numbers as float() does. Other files are
    read cell by cell with csv.reader and float(), which accepts all that
    float() accepts (such as 1_000) and names the first malformed row.
    """
    try:
        fh = open(path, newline="", encoding="utf-8-sig")  # drops a byte-order mark
    except FileNotFoundError:
        raise DataError(f"no such file: {path}") from None
    with fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        columns, text_column = select(header) if select else (range(len(header)), None)
        table = None
        if text_column is None:
            with warnings.catch_warnings(), contextlib.suppress(ValueError):
                warnings.simplefilter("ignore")  # a file without data rows warns
                table = np.loadtxt(fh, delimiter=",", quotechar='"', comments=None, ndmin=2)
        if table is not None and table.shape[0] and table.shape[1] == len(header):
            # Row-major, as the cell-by-cell path builds it: a matmul's
            # rounding depends on the operand's layout.
            return header, np.ascontiguousarray(table[:, columns]) if select else table, None
        fh.seek(0)
        next(reader)
        rows, texts = [], [] if text_column is not None else None
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise DataError(
                    f"{path}: row {lineno} has {len(row)} cells, expected {len(header)}"
                )
            vals = []
            for j in columns:
                try:
                    vals.append(float(row[j]))
                except ValueError:
                    raise DataError(
                        f"{path}: non-numeric cell {row[j]!r} at row {lineno}, "
                        f"column {j + 1} ({header[j]})"
                    ) from None
            rows.append(vals)
            if texts is not None:
                texts.append(row[text_column])
    if not rows:
        raise DataError(f"{path}: no data rows")
    return header, np.asarray(rows, dtype=float), texts


def load_csv(path, target_spec) -> Dataset:
    """Load a numeric CSV (one header row) into a Dataset.

    ``target_spec`` is either an iterable of column names, a comma-joined
    string of names, or ``"last k"`` selecting the trailing k columns.
    Non-target columns become X in file order.
    """
    header, table, _ = read_csv(path)
    t_idx = _parse_target_spec(target_spec, header)
    x_idx = [j for j in range(len(header)) if j not in t_idx]
    if not x_idx:
        raise DataError("all columns selected as targets; no predictors left")
    return Dataset(
        X=table[:, x_idx],
        Y=table[:, t_idx],
        column_names=[header[j] for j in x_idx],
        target_names=[header[j] for j in t_idx],
    )


def standardize(d: Dataset) -> StandardizedDataset:
    """Center and scale each column of X to sample sd 1 (denominator n-1),
    center each target; constant columns are dropped and recorded."""
    if d.n < 2:
        raise DataError("standardize needs n >= 2")
    col_means = d.X.mean(axis=0)
    dev = d.X - col_means
    # The operations of X.std(axis=0, ddof=1), on the one deviation array.
    col_sds = np.sqrt(np.square(dev).sum(axis=0) / (d.n - 1))
    # A constant column's mean need not round back, leaving a tiny sd.
    kept = np.flatnonzero((d.X != d.X[0]).any(axis=0) & (col_sds > 0.0))
    if kept.size == 0:
        raise DataError("all predictor columns have zero variance")
    # Fortran order, as a column gather would give: glmnet_grid's X_std' y
    # rounds by the layout.
    X_std = np.divide(dev if kept.size == d.p else dev[:, kept], col_sds[kept], order="F")
    y_means = d.Y.mean(axis=0)
    return StandardizedDataset(
        X_std=X_std,
        Y_centered=d.Y - y_means,
        col_means=col_means,
        col_sds=col_sds,
        y_means=y_means,
        kept_columns=kept,
    )


def destandardize(beta_std: np.ndarray, s: StandardizedDataset):
    """Map coefficients fit on X_std back to the raw scale.

    Returns ``(beta_raw, intercepts)`` with beta_raw of shape (p, q);
    dropped columns get coefficient 0 and the intercept absorbs the
    column means: intercept = y_mean - sum_j beta_raw[j] * col_means[j].
    """
    beta_std = np.asarray(beta_std, dtype=float)
    if beta_std.ndim == 1:
        beta_std = beta_std[:, None]
    if beta_std.shape[0] != s.p_kept:
        raise DataError(
            f"beta_std has {beta_std.shape[0]} rows, expected {s.p_kept}"
        )
    q = beta_std.shape[1]
    beta_raw = np.zeros((s.p_original, q))
    beta_raw[s.kept_columns] = beta_std / s.col_sds[s.kept_columns, None]
    intercepts = s.y_means[:q] - s.col_means @ beta_raw
    return beta_raw, intercepts


def predict(f: FitResult, X_new: np.ndarray) -> np.ndarray:
    """Predict targets for raw-scale rows: X_new @ beta_raw + intercepts."""
    X_new = np.asarray(X_new, dtype=float)
    if X_new.ndim == 1:
        X_new = X_new[None, :]
    if X_new.shape[1] != f.beta_raw.shape[0]:
        raise DataError(
            f"X_new has {X_new.shape[1]} columns, model expects {f.beta_raw.shape[0]}"
        )
    return X_new @ f.beta_raw + f.intercepts


def r_squared(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """1 - SSE/SST with SST around the mean of y_true; may be negative."""
    y_true = np.asarray(y_true, dtype=float).ravel()
    y_pred = np.asarray(y_pred, dtype=float).ravel()
    if y_true.shape != y_pred.shape:
        raise DataError("y_true and y_pred must have equal length")
    if y_true.size < 2:
        raise DataError("r_squared needs m >= 2")
    sst = float(np.sum((y_true - y_true.mean()) ** 2))
    if sst == 0.0:
        raise DataError("y_true has zero variance")
    sse = float(np.sum((y_true - y_pred) ** 2))
    return 1.0 - sse / sst
