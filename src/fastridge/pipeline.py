"""The fit pipeline: standardize, decompose and rotate, select a penalty per
target, map back to the raw scale. Layers are called through their modules
(``decomposition.compact_svd``, not an imported name), so code that wraps a
module's function, such as a tracer, sees every call.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np

from . import data, decomposition, em, loocv
from .data import FitResult, Method
from .exceptions import DataError, DegenerateProblemError, FastridgeError


@contextlib.contextmanager
def _stage(name: str):
    """Prefix library errors with the pipeline stage that raised them."""
    try:
        yield
    except FastridgeError as exc:
        raise type(exc)(f"{name}: {exc}") from None


@dataclass(frozen=True)
class FitConfig:
    """LOOCV grid length (default loocv.GRID_LENGTH) and EM convergence control."""

    grid_size: int = loocv.GRID_LENGTH
    em: em.EmConfig = em.EmConfig()

    def __post_init__(self):
        if self.grid_size < 2:
            raise DataError("grid_size must be at least 2")


def solve(std, rp, method: Method, config: FitConfig = FitConfig()):
    """Run one penalty selector on every target of a rotated problem, yielding
    one EmFit or LoocvFit per target, on the standardized scale, as each is
    made. A degenerate EM fit is yielded flagged, not raised; what to do with
    it is the caller's decision."""
    for t in range(rp.q):
        if method is Method.EM:
            yield em.em_fit(rp, config.em, target=t)
            continue
        y_t = std.Y_centered[:, t]
        if method is Method.LOOCV_FIXED:
            grid = loocv.fixed_grid(config.grid_size)
        elif method is Method.LOOCV_GLMNET:
            grid = loocv.glmnet_grid(std.X_std, y_t, config.grid_size)
        else:
            raise DataError(f"unknown method {method!r}")
        yield loocv.loocv_fit(rp, y_t, grid, target=t)


def fit(dataset: data.Dataset, method: Method, config: FitConfig = FitConfig()) -> FitResult:
    """Fit every target of a dataset and return the model.

    Errors are prefixed with the step that raised them: "standardize",
    "decompose", "solve" or "destandardize". A degenerate EM fit raises
    DegenerateProblemError at the first target that has one: a model needs a
    finite penalty."""
    with _stage("standardize"):
        std = data.standardize(dataset)
    with _stage("decompose"):
        rp = decomposition.rotate(decomposition.compact_svd(std.X_std), std.Y_centered)
    fits = []
    with _stage("solve"):
        for t, f in enumerate(solve(std, rp, method, config)):
            if getattr(f, "degenerate", False):
                raise DegenerateProblemError(
                    f"target {t}: expected SSE underflowed; no finite "
                    "penalty exists for this data"
                )
            fits.append(f)
    with _stage("destandardize"):
        beta_raw, intercepts = data.destandardize(np.column_stack([f.beta for f in fits]), std)
    if method is Method.EM:
        detail = dict(
            lambda_=[f.lambda_ for f in fits],
            tau2=[f.tau2 for f in fits],
            sigma2=[f.sigma2 for f in fits],
            iterations=[f.k for f in fits],
        )
    else:
        detail = dict(
            lambda_=[f.lambda_star for f in fits],
            grid=[f.grid.values for f in fits],
            cve_curves=[f.cve for f in fits],
        )
    return FitResult(
        beta_raw,
        intercepts,
        method=method,
        col_means=std.col_means,
        col_sds=std.col_sds,
        kept_columns=std.kept_columns,
        y_means=std.y_means,
        feature_names=dataset.column_names,
        target_names=dataset.target_names,
        **detail,
    )
