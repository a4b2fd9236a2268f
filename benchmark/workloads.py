"""Benchmark workloads: seeded inputs, the timed fit/predict ops, and the
records the correctness checks read.

* cli-multi    the CLI end to end: `fastridge fit` on a CSV with 10
               targets of weak to moderate signal, cycling LOOCV on a fixed
               grid, LOOCV on a glmnet grid and EM. PRESS (loocv) dominates
               the LOOCV fits and CSV parsing (data.load_csv) the EM fits;
               the leverages are shared by every target.
* wide         the n < p Gram route of compact_svd (decomposition), fitted
               through the library by glmnet-grid LOOCV.

A predict op is the library `predict` on both workloads: on cli-multi it
applies the model the CLI wrote. The CLI `predict` command parses and
writes CSV cell by cell in the interpreter, and on a shared virtual
machine interpreter-bound time swings with the host by more than any
bound a benchmark can hold, so it runs only in traced rounds and is
reported per layer. For the same reason no workload is dominated by the
EM loop, which is interpreter-bound too: EM is measured per layer on
cli-multi.

Inputs come from fastridge.rng.RandomStream, so a seed names the same data
on every machine. Columns get random offsets and scales so that
standardization and the intercept carry real work.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

import fastridge.cli as fr_cli
import fastridge.data as fr_data
import fastridge.decomposition as fr_dec
import fastridge.loocv as fr_loocv
from fastridge.rng import RandomStream

GRID_SIZE = 100
# The warm-up dataset has at most this many rows: enough to touch every code
# path and BLAS kernel at the workload's column count.
WARMUP_ROWS = 1000


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    p: int
    q: int
    methods: tuple[str, ...]  # cycled fit by fit
    signal_scales: tuple[float, ...] = (1.0,)  # cycled target by target
    cli: bool = False
    # A library predict takes about a millisecond; several per fit give its
    # average as many samples as the fit's.
    predicts_per_fit: int = 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cli-multi",
            5000,
            200,
            10,
            ("loocv-fixed", "loocv-glmnet", "em"),
            (0.3, 0.5, 0.7, 1.0),
            cli=True,
            predicts_per_fit=10,
        ),
        Workload("wide", 500, 5000, 1, ("loocv-glmnet",), predicts_per_fit=10),
    )
}


@dataclass
class Inputs:
    X: np.ndarray  # n x p training design
    Y: np.ndarray  # n x q targets
    X_new: np.ndarray  # n x p rows to predict


def make_inputs(w: Workload, seed: int) -> Inputs:
    """The seed's dataset: y_t = scale_t * X beta_t + noise with
    beta ~ N(0, I/p), so the signal-to-noise ratio of target t is about
    scale_t^2."""
    n, p, q = w.n, w.p, w.q
    shift = 3.0 * RandomStream(seed, 0, 0).normals(p)
    spread = np.exp(0.5 * RandomStream(seed, 0, 1).normals(p))
    Z = RandomStream(seed, 0, 2).normals(n * p).reshape(n, p)
    B = RandomStream(seed, 0, 3).normals(p * q).reshape(p, q) / math.sqrt(p)
    E = RandomStream(seed, 0, 4).normals(n * q).reshape(n, q)
    scales = np.resize(np.asarray(w.signal_scales), q)
    Y = (Z @ B) * scales + E + 10.0
    X_new = RandomStream(seed, 0, 5).normals(n * p).reshape(n, p) * spread + shift
    return Inputs(Z * spread + shift, Y, X_new)


@dataclass
class FitRecord:
    """What one fit reported, in the form the checks read."""

    method: str
    beta_raw: np.ndarray  # p x q
    intercepts: np.ndarray
    lambdas: np.ndarray
    tau2: list = field(default_factory=list)  # EM only, per target
    sigma2: list = field(default_factory=list)
    iterations: list = field(default_factory=list)
    converged: list = field(default_factory=list)
    boundary: list = field(default_factory=list)  # EM: tau2 at a boundary, judged by the checks
    grids: list = field(default_factory=list)  # LOOCV only, per target
    cves: list = field(default_factory=list)
    result: fr_data.FitResult | None = None  # what a library predict applies


class LibraryRunner:
    """LOOCV fits through the library pipeline, calling every layer through
    its module so that a traced op sees each call."""

    def __init__(self, inputs: Inputs):
        self.inputs = inputs

    def predict(self, rec: FitRecord) -> np.ndarray:
        return fr_data.predict(rec.result, self.inputs.X_new)

    def fit(self, method: str):
        ds = fr_data.Dataset(self.inputs.X, self.inputs.Y)
        std = fr_data.standardize(ds)
        rp = fr_dec.rotate(fr_dec.compact_svd(std.X_std), std.Y_centered)
        fits = []
        for t in range(std.q):
            y_t = std.Y_centered[:, t]
            if method == "loocv-fixed":
                grid = fr_loocv.fixed_grid(GRID_SIZE)
            else:
                grid = fr_loocv.glmnet_grid(std.X_std, y_t, GRID_SIZE)
            fits.append(fr_loocv.loocv_fit(rp, y_t, grid, target=t))
        beta_raw, intercepts = fr_data.destandardize(np.column_stack([f.beta for f in fits]), std)
        result = fr_data.FitResult(
            beta_raw=beta_raw,
            intercepts=intercepts,
            lambda_=[f.lambda_star for f in fits],
            method=fr_data.Method(method),
        )
        return result, fits

    def record(self, fitted) -> FitRecord:
        result, fits = fitted
        return FitRecord(
            result.method.value,
            result.beta_raw,
            result.intercepts,
            result.lambda_,
            grids=[f.grid.values for f in fits],
            cves=[f.cve for f in fits],
            result=result,
        )

    def io_bytes(self) -> tuple[int, int, int]:
        return 0, 0, 0

    def close(self) -> None:
        pass


def write_csv(path: str, header: list[str], table: np.ndarray) -> None:
    """%.17g round-trips every double, so the CLI parses exactly the
    values the checks use."""
    np.savetxt(path, table, fmt="%.17g", delimiter=",", header=",".join(header), comments="")


class CliRunner(LibraryRunner):
    """Fits through fastridge.cli.main on a CSV file written at set-up, in
    this process; cli_predict runs the CLI predict command on a second
    one."""

    EM_MAX_ITER = 100000  # the CLI default; a fit that reaches it did not converge

    def __init__(self, w: Workload, inputs: Inputs, workdir: str):
        super().__init__(inputs)
        self.w = w
        os.makedirs(workdir, exist_ok=True)
        self.train = os.path.join(workdir, "train.csv")
        self.features = os.path.join(workdir, "features.csv")
        self.model = os.path.join(workdir, "model.json")
        self.out = os.path.join(workdir, "predictions.csv")
        x_names = [f"x{j}" for j in range(w.p)]
        write_csv(self.train, x_names + [f"y{t}" for t in range(w.q)], np.hstack([inputs.X, inputs.Y]))
        write_csv(self.features, x_names, inputs.X_new)

    def _main(self, argv: list[str]) -> None:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = fr_cli.main(argv)
        if code != 0:
            raise RuntimeError(f"fastridge {argv[0]} exited {code}: {stderr.getvalue().strip()}")

    def fit(self, method: str):
        argv = ["fit", "--input", self.train, "--target", f"last {self.w.q}"]
        self._main(argv + ["--method", method, "--grid-size", str(GRID_SIZE), "--output", self.model])

    def cli_predict(self) -> None:
        self._main(["predict", "--model", self.model, "--input", self.features, "--output", self.out])

    def cli_predictions(self) -> np.ndarray:
        return np.loadtxt(self.out, delimiter=",", skiprows=1, ndmin=2)

    def record(self, fitted) -> FitRecord:
        with open(self.model, encoding="utf-8") as fh:
            model = json.load(fh)
        beta = np.asarray(model["coefficients"], dtype=float).reshape(self.w.p, -1)
        rec = FitRecord(model["method"], beta, np.asarray(model["intercepts"]), np.asarray(model["lambda"]))
        if rec.method == "em":
            rec.tau2, rec.sigma2, rec.iterations = model["tau2"], model["sigma2"], model["iterations"]
            rec.converged = [k < self.EM_MAX_ITER for k in rec.iterations]
        else:
            rec.grids = [np.asarray(g) for g in model["grid"]]
            rec.cves = [np.asarray(c) for c in model["cve_curve"]]
        rec.result = fr_data.FitResult(
            beta, rec.intercepts, rec.lambdas, fr_data.Method(rec.method), np.asarray(rec.tau2) if rec.tau2 else None
        )
        return rec

    def io_bytes(self) -> tuple[int, int, int]:
        """Computed from file sizes: (bytes load_csv reads, bytes the CLI
        reads in one fit + CLI predict, bytes it writes). A file not
        written yet counts 0."""
        def size(path):
            return os.path.getsize(path) if os.path.exists(path) else 0

        train, features, model, out = (size(f) for f in (self.train, self.features, self.model, self.out))
        return train, train + model + features, model + out

    def close(self) -> None:
        for path in (self.train, self.features, self.model, self.out):
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)


def make_runner(w: Workload, inputs: Inputs, workdir: str):
    return CliRunner(w, inputs, workdir) if w.cli else LibraryRunner(inputs)


def compact_svd_gflop(n: int, p: int, rank: int) -> float:
    """Computed flops of compact_svd: the Gram product (2 M m^2), a
    symmetric eigendecomposition with vectors (~9 m^3, Golub & Van Loan)
    and the back product for the other factor (2 n p r), m = min(n, p),
    M = max(n, p)."""
    m, big = min(n, p), max(n, p)
    return (2.0 * big * m * m + 9.0 * m**3 + 2.0 * n * p * rank) / 1e9
