"""SHA-256 of every output a behaviour-preserving change must leave byte-identical,
then the penalties of every fitted model.

    python3 tools/output_digest.py > digest.txt

Takes no flags and prints one "name sha256" line per output, in a fixed
order, using the fastridge in the src/ directory next to this file:

* fit/...      pipeline.fit model files (to_json) for every method on seeded
               normal designs of 300x40, 80x600, 1000x200 and 30x4, two
               targets and one constant column each, seeds 0-2;
* ends/...     pipeline.fit model files for every method at both ends of
               the accepted range of y: a 30x100 normal design (numpy
               seed 5) with y scaled by 2^509 and by 2^-511, or, where fit
               refuses, the digest of its one-line error;
* cli/...      the model file of `fastridge fit` and the predictions file
               of `fastridge predict` on the benchmark's cli-multi inputs
               (every method) and wide inputs (both LOOCV grids), seeds 1-2,
               built by benchmark/workloads.make_inputs;
* simulate/... `fastridge simulate` CSVs of both settings, each sweep with
               a p > n cell;
* bench        `fastridge bench` CSV with its timing columns dropped;
* results/...  the solver results no model file records, on the fit/...
               designs and every target: each EmFit field (degenerate and
               lambda_ read as attributes), loocv_fit's grid, CVE curve,
               lambda_star and beta on both grids, and unimodality_bound's
               gamma_n, epsilon_min and epsilon_exceeds_bound at epsilon 0.1.

After the hash lines it prints one "penalties NAME lambda=[...]" line per
fit/..., ends/... and cli/fit/... model, with the penalty of each target in
repr and, for EM, also "k=[...] tau2=[...]", for LOOCV also "at=[...]", the
index of each target's penalty in its grid (0 is the top, the grid size
less 1 the bottom). Where a hash moved, a diff of these lines shows which
penalties moved, by how much, and whether one moved onto or off a grid edge.

It reads only the public API and the CLI, so the same file can be run from
a copy placed in another checkout. Run it on both trees and diff the output.
Takes about half a minute on two cores.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "benchmark")]

import numpy as np  # noqa: E402

from fastridge import cli, decomposition, em, loocv, pipeline  # noqa: E402
from fastridge.data import Dataset, FitResult, Method, standardize  # noqa: E402
from fastridge.exceptions import FastridgeError  # noqa: E402
import workloads  # noqa: E402

FIT_SHAPES = ((300, 40), (80, 600), (1000, 200), (30, 4))
ENDS_SCALES = (("2^509", 2.0**509), ("2^-511", 2.0**-511))
CLI_RUNS = (
    ("cli-multi", ("em", "loocv-fixed", "loocv-glmnet")),
    ("wide", ("loocv-fixed", "loocv-glmnet")),
)
SIMULATE_RUNS = (
    ("bernoulli", ["--n-list", "60,400", "--sigma-list", "0.5,2", "--p", "100"]),
    ("gaussian", ["--n-list", "30,200", "--p-list", "10,50"]),
)
BENCH_TIMINGS = {"t_preprocess_ns", "t_mainloop_ns", "t_per_unit_ns"}
# Read by name, so the same listing runs against a tree whose results store
# a field that another derives.
EM_FIELDS = ("alpha", "beta", "tau2", "sigma2", "k", "converged", "delta_final", "degenerate", "lambda_")
LOOCV_FIELDS = ("cve", "lambda_star", "beta")
UNIMODALITY_FIELDS = ("gamma_n", "epsilon_min", "epsilon_exceeds_bound")


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return _digest(fh.read())


def _cli(*argv: str) -> None:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    if code != 0:
        raise SystemExit(f"fastridge {argv[0]} exited {code}: {err.getvalue().strip()}")


def _fit_datasets():
    """(name, Dataset) per FIT_SHAPES design and seed 0-2."""
    for n, p in FIT_SHAPES:
        for seed in range(3):
            rng = np.random.default_rng(seed)
            X = rng.normal(size=(n, p)) * rng.uniform(0.5, 3.0, size=p) + rng.normal(size=p)
            X[:, 1] = 2.5
            Y = X @ rng.normal(size=(p, 2)) / np.sqrt(p) + rng.normal(size=(n, 2))
            yield f"{n}x{p}/seed{seed}", Dataset(X, Y)


def _fields_digest(result, names, **more) -> str:
    """Digest of the repr of each named attribute of result, then of each
    value in more, arrays as lists of Python scalars."""
    values = {**{name: getattr(result, name) for name in names}, **more}
    return _digest("\n".join(f"{k}={np.asarray(v).tolist()!r}" for k, v in values.items()).encode())


def _penalties(name: str, model: str) -> str:
    """The penalties line of one model file."""
    f = FitResult.from_json(model)
    values = {"lambda": f.lambda_}
    if f.method is Method.EM:
        values.update(k=f.iterations, tau2=f.tau2)
    else:
        values.update(at=np.argmin(f.cve_curves, axis=1))
    return " ".join([f"penalties {name}"] + [f"{k}={v.tolist()!r}" for k, v in values.items()])


def fit_digests(penalties: list):
    for name, ds in _fit_datasets():
        for method in Method:
            key, model = f"fit/{method.value}/{name}", pipeline.fit(ds, method).to_json()
            yield key, _digest(model.encode())
            penalties.append(_penalties(key, model))


def ends_digests(penalties: list):
    rng = np.random.default_rng(5)
    X = rng.normal(size=(30, 100))
    y = rng.normal(size=30)
    for method in Method:
        for label, a in ENDS_SCALES:
            key = f"ends/{method.value}/30x100/{label}"
            try:
                model = pipeline.fit(Dataset(X, a * y), method).to_json()
            except FastridgeError as exc:
                yield key, _digest(str(exc).encode())
                continue
            yield key, _digest(model.encode())
            penalties.append(_penalties(key, model))


def result_digests():
    for name, ds in _fit_datasets():
        std = standardize(ds)
        rp = decomposition.rotate(decomposition.compact_svd(std.X_std), std.Y_centered)
        d = em.unimodality_bound(rp.s2, rp.n, rp.p, 0.1)
        yield f"results/unimodality/{name}", _fields_digest(d, UNIMODALITY_FIELDS)
        for t in range(rp.q):
            y_t = std.Y_centered[:, t]
            yield f"results/em/{name}/t{t}", _fields_digest(em.em_fit(rp, target=t), EM_FIELDS)
            for kind, grid in (("fixed", loocv.fixed_grid()), ("glmnet", loocv.glmnet_grid(std.X_std, y_t))):
                f = loocv.loocv_fit(rp, y_t, grid, target=t)
                yield f"results/loocv-{kind}/{name}/t{t}", _fields_digest(f, LOOCV_FIELDS, grid=f.grid.values)


def cli_digests(tmp: str, penalties: list):
    for name, methods in CLI_RUNS:
        w = workloads.WORKLOADS[name]
        for seed in (1, 2):
            inputs = workloads.make_inputs(w, seed)
            train, features = os.path.join(tmp, "train.csv"), os.path.join(tmp, "features.csv")
            x_names = [f"x{j}" for j in range(w.p)]
            workloads.write_csv(train, x_names + [f"y{t}" for t in range(w.q)], np.hstack([inputs.X, inputs.Y]))
            workloads.write_csv(features, x_names, inputs.X_new)
            del inputs
            model, out = os.path.join(tmp, "model.json"), os.path.join(tmp, "predictions.csv")
            for method in methods:
                _cli("fit", "--input", train, "--target", f"last {w.q}", "--method", method, "--output", model)
                _cli("predict", "--model", model, "--input", features, "--output", out)
                key = f"cli/fit/{name}/{method}/seed{seed}"
                yield key, _file_digest(model)
                with open(model, encoding="utf-8") as fh:
                    penalties.append(_penalties(key, fh.read()))
                yield f"cli/predict/{name}/{method}/seed{seed}", _file_digest(out)


def simulate_digests(tmp: str):
    out = os.path.join(tmp, "simulate.csv")
    for setting, flags in SIMULATE_RUNS:
        _cli("simulate", "--setting", setting, *flags, "--reps", "2", "--seed", "7",
             "--methods", "em,loocv-fixed,loocv-glmnet", "--output", out)
        yield f"simulate/{setting}", _file_digest(out)


def bench_digest(tmp: str):
    out = os.path.join(tmp, "bench.csv")
    _cli("bench", "--n-list", "50,200", "--p-list", "10,80", "--reps", "2", "--seed", "3",
         "--methods", "em,loocv-fixed,loocv-glmnet", "--output", out)
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    keep = [j for j, column in enumerate(rows[0]) if column not in BENCH_TIMINGS]
    text = "\n".join(",".join(row[j] for j in keep) for row in rows) + "\n"
    yield "bench", _digest(text.encode())


def main() -> None:
    os.environ.pop("FASTRIDGE_SEED", None)  # it would override every --seed
    penalties = []
    with tempfile.TemporaryDirectory() as tmp:
        parts = (
            fit_digests(penalties),
            ends_digests(penalties),
            cli_digests(tmp, penalties),
            simulate_digests(tmp),
            bench_digest(tmp),
            result_digests(),
        )
        for part in parts:
            for name, digest in part:
                print(name, digest, flush=True)
    print("\n".join(penalties))


if __name__ == "__main__":
    main()
