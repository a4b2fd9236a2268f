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
from .exceptions import DegenerateProblemError, FastridgeError


@contextlib.contextmanager
def _stage(name: str):
    """Prefix library errors with the pipeline stage that raised them."""
    try:
        yield
    except FastridgeError as exc:
        raise type(exc)(f"{name}: {exc}") from None


@dataclass(frozen=True)
class FitConfig:
    """LOOCV grid length, an integer (not a bool) of at least 2 (default
    loocv.GRID_LENGTH), checked by data.count, and EM convergence control."""

    grid_size: int = loocv.GRID_LENGTH
    em: em.EmConfig = em.EmConfig()

    def __post_init__(self):
        data.count("grid_size", self.grid_size, 2)


def _target_stage(target_names, t: int):
    return _stage(f"target {data.target_label(target_names, t)}")


def solve(std, rp, method: Method, config: FitConfig = FitConfig(), target_names=None) -> list:
    """Run one penalty selector on every target of a rotated problem and
    return one EmFit or LoocvFit per target, on the standardized scale.
    method is a Method or its value, as Method() takes it. The fixed grid is
    built once, and one call of loocv.loocv_fits scores every target.
    Errors read "solve: ..." and, for one target's step, "solve: target
    <label>: ..." with the label data.target_label makes from target_names:
    a saturated leverage names the first target that has one. A degenerate
    EM fit raises DegenerateProblemError at the first target that has one,
    before later targets are solved: every caller needs a finite penalty."""
    method = Method(method)
    with _stage("solve"):
        if method is Method.EM:
            fits = []
            for t in range(rp.q):
                with _target_stage(target_names, t):
                    fit = em.em_fit(rp, config.em, target=t)
                    if fit.degenerate:
                        raise DegenerateProblemError("no finite penalty exists for this data")
                fits.append(fit)
            return fits
        if method is Method.LOOCV_FIXED:
            grids = [loocv.fixed_grid(config.grid_size)] * rp.q
        else:
            grids = []
            for t in range(rp.q):
                with _target_stage(target_names, t):
                    grids.append(loocv.glmnet_grid(std.X_std, std.Y_centered[:, t], config.grid_size))
        try:
            return loocv.loocv_fits(rp, std.Y_centered, grids)
        except DegenerateProblemError as exc:  # a saturated leverage
            with _target_stage(target_names, exc.target):
                raise


def fit(dataset: data.Dataset, method: Method, config: FitConfig = FitConfig()) -> FitResult:
    """Fit every target of a dataset and return the model.

    method is a Method or its value; anything else raises Method's
    DataError before anything is standardized, with no stage prefix. Errors
    are prefixed with the step that raised them: "standardize", "decompose",
    "solve" or "destandardize", and an error of one target's solve also
    with that target, by name or index: "solve: target 'y': ...". A
    degenerate EM fit raises DegenerateProblemError, as solve does."""
    method = Method(method)
    with _stage("standardize"):
        std = data.standardize(dataset)
    with _stage("decompose"):
        rp = decomposition.rotate(decomposition.compact_svd(std.X_std), std.Y_centered)
    fits = solve(std, rp, method, config, dataset.target_names)
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
