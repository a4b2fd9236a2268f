"""Command-line interface: fit, predict, simulate, bench.

Exit codes: 0 success, 2 bad flags or an invalid sweep, 3 data errors
(unreadable/malformed input), 4 solver degeneracy. Error messages name the
stage that failed. Each flag has one rule, checked by its argparse type
(method names by _method, for both --method and --methods); simulate also
rejects a flag its --setting does not read. Each subcommand names its
handler through set_defaults. The FASTRIDGE_SEED environment variable
overrides --seed for every command that accepts one. Model files are
written and read by FitResult.to_json and FitResult.from_json, which checks
every array against the coefficients' shape and the arrays against each
other.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import math
import os
import sys

from . import __version__
from .data import FitResult, Method, load_csv, open_input, predict, read_csv
from .em import EmConfig
from .exceptions import DataError, DegenerateProblemError, FastridgeError
from .pipeline import FitConfig, _stage, fit
from .simulate import (
    Setting1Config,
    bench_comparison,
    run_comparison,
    write_bench_csv,
    write_metrics_csv,
)

_EXIT_DATA = 3
_EXIT_DEGENERATE = 4


def _write_output(path, write) -> None:
    """Create the file at ``path`` and fill it with ``write(fh)``."""
    with _stage("write"):
        try:
            with open(path, "w", newline="", encoding="utf-8") as fh:
                write(fh)
        except OSError as exc:
            raise DataError(f"cannot write {path}: {exc}") from None


def _effective_seed(args) -> int:
    """--seed, unless FASTRIDGE_SEED is set in the environment."""
    env = os.environ.get("FASTRIDGE_SEED")
    if env is None:
        return args.seed
    try:
        seed = int(env)
    except ValueError:
        raise DataError(f"FASTRIDGE_SEED is not an integer: {env!r}") from None
    if seed < 0:
        raise DataError("FASTRIDGE_SEED must be nonnegative")
    return seed


def cmd_fit(args) -> int:
    with _stage("load"):
        ds = load_csv(args.input, args.target)
    config = FitConfig(
        grid_size=args.grid_size,
        em=EmConfig(tol=args.tol, max_iterations=args.max_iter),
    )
    result = fit(ds, args.method, config)

    _write_output(args.output, lambda fh: fh.write(result.to_json()))

    lam_txt = ",".join(format(v, ".6g") for v in result.lambda_.tolist())
    if result.method is Method.EM:
        detail = "k=" + ",".join(str(k) for k in result.iterations.tolist())
    else:
        detail = "cve*=" + ",".join(format(float(c.min()), ".6g") for c in result.cve_curves)
    print(
        f"fit method={result.method.value} targets={len(result.lambda_)} lambda=[{lam_txt}] "
        f"{detail} -> {args.output}"
    )
    return 0


def cmd_predict(args) -> int:
    with _stage("load-model"), open_input(args.model) as fh:
        try:
            result = FitResult.from_json(fh.read().decode("utf-8"))
        except DataError as exc:
            raise DataError(f"{args.model}: {exc}") from None

    def columns(header):
        """Feature columns by the model's names when all are present,
        otherwise every column but the id column, in order."""
        id_idx = None
        if args.id_column is not None:
            if args.id_column not in header:
                raise DataError(f"id column {args.id_column!r} not in input header")
            id_idx = header.index(args.id_column)
        names = result.feature_names
        if names and all(name in header for name in names):
            return [header.index(name) for name in names], id_idx
        cols = [j for j in range(len(header)) if j != id_idx]
        p = result.beta_raw.shape[0]
        if len(cols) != p:
            raise DataError(f"input has {len(cols)} feature columns, model expects {p}")
        return cols, id_idx

    with _stage("load-input"):
        _, X, ids = read_csv(args.input, columns)

    with _stage("predict"):
        Y_hat = predict(result, X)

    q = Y_hat.shape[1]
    out_names = result.target_names or [f"y{t + 1}" for t in range(q)]

    def write(fh):
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(([args.id_column] if ids is not None else []) + out_names)
        for i, row in enumerate(Y_hat):
            writer.writerow(([ids[i]] if ids is not None else []) + [repr(float(v)) for v in row])

    _write_output(args.output, write)

    print(f"predict rows={Y_hat.shape[0]} targets={q} -> {args.output}")
    return 0


def cmd_simulate(args) -> int:
    parser = args.subparser
    if args.setting == "bernoulli":
        setting, flag, swept = 1, "--sigma-list", args.sigma_list
        unread = {"--p-list": args.p_list}
    else:
        setting, flag, swept = 2, "--p-list", args.p_list
        unread = {"--sigma-list": args.sigma_list, "--p": args.p}
    for name, value in unread.items():
        if value is not None:
            parser.error(f"{name} does not apply to the {args.setting} setting")
    if swept is None:
        parser.error(f"{flag} is required for the {args.setting} setting")

    rows = run_comparison(
        setting=setting,
        methods=args.methods,
        n_list=args.n_list,
        sigma_or_p_list=swept,
        reps=args.reps,
        seed=_effective_seed(args),
        p=args.p,
        grid_length=args.grid_size,
    )
    if not args.timings:
        # Wall-clock fields are the only nondeterministic columns; zero them
        # so identical flags and seed give a byte-identical file.
        rows = [
            dataclasses.replace(r, t_preprocess_ns=0, t_mainloop_ns=0) for r in rows
        ]
    _write_output(args.output, lambda fh: write_metrics_csv(rows, fh))
    print(f"simulate setting={args.setting} rows={len(rows)} -> {args.output}")
    return 0


def cmd_bench(args) -> int:
    rows = bench_comparison(
        methods=args.methods,
        n_list=args.n_list,
        p_list=args.p_list,
        reps=args.reps,
        seed=_effective_seed(args),
        grid_length=args.grid_size,
    )
    _write_output(args.output, lambda fh: write_bench_csv(rows, fh))
    print(f"bench rows={len(rows)} -> {args.output}")
    return 0


def _flag_type(convert, rule: str, ok=lambda value: True):
    """An argparse ``type=`` that converts a flag's text and requires ``ok``
    of the value; anything else exits 2 naming the flag and ``rule``."""

    def parse(text: str):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{text!r} is not {rule}")

    return parse


def _comma_list(item, distinct: bool = False):
    """An argparse ``type=`` for a comma-separated list of ``item`` values;
    empty entries are skipped, and at least one value is required. With
    ``distinct`` a value may appear only once."""

    def parse(text: str) -> list:
        values = [item(tok.strip()) for tok in text.split(",") if tok.strip()]
        if not values:
            raise argparse.ArgumentTypeError("must list at least one value")
        if distinct and len(set(values)) < len(values):
            raise argparse.ArgumentTypeError(f"{text!r} lists a value more than once")
        return values

    return parse


_METHODS = ", ".join(m.value for m in Method)
_positive_int = _flag_type(int, "a positive integer", lambda v: v >= 1)
_grid_size = _flag_type(int, "an integer of at least 2", lambda v: v >= 2)
_seed = _flag_type(int, "a non-negative integer", lambda v: v >= 0)
_tol = _flag_type(float, "a positive finite number", lambda v: math.isfinite(v) and v > 0)
_sigma = _flag_type(float, "a non-negative finite number", lambda v: math.isfinite(v) and v >= 0)
_method = _flag_type(Method, "one of " + _METHODS)
_counts = _comma_list(_positive_int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fastridge",
        description=(
            "Ridge regression with EM-based and fast LOOCV penalty selection "
            "on a shared SVD cache."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    # Flags shared by several subcommands, each declared once.
    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument(
        "--grid-size",
        type=_grid_size,
        default=FitConfig.grid_size,
        help="LOOCV grid length (default %(default)s)",
    )
    sweep = argparse.ArgumentParser(add_help=False)
    sweep.add_argument(
        "--n-list", required=True, type=_counts, help="comma-separated sample sizes"
    )
    sweep.add_argument(
        "--methods",
        required=True,
        type=_comma_list(_method, distinct=True),
        help="comma-separated subset of: " + _METHODS,
    )
    sweep.add_argument("--seed", type=_seed, default=0, help="master seed")

    fit = sub.add_parser("fit", parents=[grid], help="fit a model on a numeric CSV")
    fit.add_argument("--input", required=True, help="training CSV with a header row")
    fit.add_argument(
        "--target",
        required=True,
        help="target columns: comma-joined names, or 'last K' for trailing columns",
    )
    fit.add_argument(
        "--method",
        required=True,
        type=_method,
        metavar="{" + ",".join(m.value for m in Method) + "}",
        help="penalty selection procedure",
    )
    fit.add_argument(
        "--tol",
        type=_tol,
        default=EmConfig.tol,
        help="EM convergence threshold (default %(default)s)",
    )
    fit.add_argument(
        "--max-iter",
        type=_positive_int,
        default=EmConfig.max_iterations,
        help="EM iteration cap (default %(default)s)",
    )
    fit.add_argument("--output", required=True, help="model JSON path")
    fit.set_defaults(handler=cmd_fit)

    pred = sub.add_parser("predict", help="apply a fitted model to new rows")
    pred.add_argument("--model", required=True, help="model JSON from 'fit'")
    pred.add_argument("--input", required=True, help="CSV of feature rows")
    pred.add_argument(
        "--id-column",
        default=None,
        help="input column copied through to the output unchanged",
    )
    pred.add_argument("--output", required=True, help="predictions CSV path")
    pred.set_defaults(handler=cmd_predict)

    sim = sub.add_parser(
        "simulate", parents=[sweep, grid], help="run a synthetic-data comparison sweep"
    )
    sim.add_argument(
        "--setting",
        required=True,
        choices=["bernoulli", "gaussian"],
        help="data generator: sparse binary or correlated Gaussian",
    )
    sim.add_argument(
        "--sigma-list", type=_comma_list(_sigma), help="noise SDs (bernoulli setting only)"
    )
    sim.add_argument("--p-list", type=_counts, help="dimensions (gaussian setting only)")
    sim.add_argument(
        "--p",
        type=_positive_int,
        help=f"fixed dimension for the bernoulli setting (default {Setting1Config.p})",
    )
    sim.add_argument("--reps", type=_positive_int, default=20, help="replications per cell")
    sim.add_argument(
        "--timings",
        action="store_true",
        help=(
            "record wall-clock phase timings in the CSV; the file is then "
            "not byte-reproducible across runs"
        ),
    )
    sim.add_argument("--output", required=True, help="metrics CSV path")
    # Which flags --setting requires and reads is checked by cmd_simulate,
    # which reports through this parser.
    sim.set_defaults(handler=cmd_simulate, subparser=sim)

    bench = sub.add_parser("bench", parents=[sweep, grid], help="time preprocessing vs main loops")
    bench.add_argument("--p-list", required=True, type=_counts, help="comma-separated dimensions")
    bench.add_argument("--reps", type=_positive_int, default=5, help="replications per cell")
    bench.add_argument("--output", required=True, help="timing CSV path")
    bench.set_defaults(handler=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except FastridgeError as exc:
        print(f"fastridge {args.command}: {exc}", file=sys.stderr)
        return _EXIT_DEGENERATE if isinstance(exc, DegenerateProblemError) else _EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
