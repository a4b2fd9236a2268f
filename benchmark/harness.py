"""Set-up, the measured loop, and the metrics of one benchmark run."""

from __future__ import annotations

import collections
import ctypes
import dataclasses
import gc
import itertools
import os
import platform
import resource
import statistics
import sys
import time
import traceback

import numpy as np

from checks import Reference, check_predictions
from spans import Tracer, op_summaries
from workloads import WARMUP_ROWS, compact_svd_gflop, make_inputs, make_runner

SETUP_REPEATS = 3
# Share of a run's op times dropped from each end before fit_s and
# predict_s average them.
TRIM = 0.1

END_TO_END_UNITS = {"setup_s": "s", "fit_s": "s", "predict_s": "s", "peak_rss_mib": "MiB"}

PER_LAYER_UNITS = {
    "data.load_csv.s": "s",
    "data.load_csv.bytes": "bytes",
    "data.load_csv.mb_per_s": "MB/s",
    "data.standardize.s": "s",
    "data.destandardize.s": "s",
    "data.predict.s": "s",
    "decomposition.compact_svd.s": "s",
    "decomposition.compact_svd.gflop": "GFLOP",
    "decomposition.compact_svd.gflop_per_s": "GFLOP/s",
    "decomposition.rotate.s": "s",
    "em.em_fit.s": "s",
    "em.iterations": "count",
    "em.us_per_iteration": "us",
    "em.converged_ratio": "ratio",
    "em.boundary_ratio": "ratio",
    "loocv.grid.s": "s",
    "loocv.loocv_fit.s": "s",
    "loocv.candidates": "count",
    "loocv.us_per_candidate": "us",
    "loocv.edge_ratio": "ratio",
    "cli.fit.self_s": "s",
    "cli.predict.self_s": "s",
    "cli.predict.s": "s",
    "cli.input.bytes": "bytes",
    "cli.output.bytes": "bytes",
    "trace.coverage": "ratio",
    "trace.fit_s": "s",
    "trace.overhead_s": "s",
}

# Metrics that are computed from shapes and file sizes, not measured.
COMPUTED = {"data.load_csv.bytes", "decomposition.compact_svd.gflop", "cli.input.bytes", "cli.output.bytes"}


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _trimmed_mean(values, cut: float = TRIM) -> float:
    """Mean of the samples left after dropping the fraction `cut` from
    each end. On a shared virtual machine a core's interpreter speed can flip
    between two levels about 1.6x apart, for seconds at a time, so a run's
    op times are bimodal: their median jumps to whichever level held the
    run for more than half its length, while the mean moves smoothly with
    the share of time spent at each. The trim drops the rare stalls that
    dominate the mean of sub-millisecond ops."""
    values = sorted(values)
    k = int(len(values) * cut)
    return float(statistics.fmean(values[k : len(values) - k])) if values else 0.0


def _per_method_mean(by_method: dict[str, list[float]]) -> float:
    """Mean over methods of each method's trimmed mean, so that a run's fit
    seconds do not depend on how many rounds of each method fit in it."""
    means = [_trimmed_mean(v) for v in by_method.values() if v]
    return float(statistics.fmean(means)) if means else 0.0


def _median_count(values) -> float:
    """Median of counts that is itself an observed count."""
    values = list(values)
    return float(statistics.median_low(values)) if values else 0.0


def _ratio(hits: int, total: int) -> float:
    return hits / total if total else 0.0


def _tail(values: list[float]) -> str:
    """The highest of p99/p90 with at least ten samples beyond it."""
    for pct in (99, 90):
        if len(values) * (100 - pct) / 100 >= 10:
            return f", p{pct} {statistics.quantiles(values, n=100)[pct - 1]:.6g} s"
    return ""


def _spread_note(values: list[float], what: str) -> str:
    """How a trimmed-mean metric was taken, with the run's median and tail."""
    if not values:
        return f"no {what}"
    return (
        f"mean of the middle {100 - 200 * TRIM:.0f}% of {len(values)} {what}; "
        f"median {statistics.median(values):.6g} s{_tail(values)}"
    )


def _fit_note(by_method: dict[str, list[float]]) -> str:
    parts = [f"{method}: {_spread_note(values, 'fits')}" for method, values in by_method.items()]
    return "mean over methods of  " + " | ".join(parts)


def _git_commit(root: str) -> str:
    """HEAD of the checkout, read from .git without starting a process."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: str) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_version = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "numpy": np.__version__,
        "blas": blas_version,
        "python": platform.python_version(),
        "git_commit": _git_commit(root),
    }


# -- set-up -------------------------------------------------------------------


def set_up(w, seed: int, run_dir: str):
    """Generate the inputs (writing the CSVs for a CLI workload) and warm
    up with one fit + predict per method (+ one CLI predict), SETUP_REPEATS
    times. The warm-up dataset has the workload's columns but at most
    WARMUP_ROWS rows and one strong-signal target, so its cost does not
    depend on the seed. Returns the last runner and the seconds each
    repetition took."""
    warm_w = dataclasses.replace(w, n=min(w.n, WARMUP_ROWS), q=1, signal_scales=(1.0,))
    times = []
    for _ in range(SETUP_REPEATS):
        runner = None  # release the previous repetition's inputs first
        t0 = time.perf_counter()
        runner = make_runner(w, make_inputs(w, seed), run_dir)
        warm = make_runner(warm_w, make_inputs(warm_w, seed), os.path.join(run_dir, "warmup"))
        for method in w.methods:
            warm.predict(warm.record(warm.fit(method)))
        if w.cli:
            warm.cli_predict()
        warm.close()
        times.append(time.perf_counter() - t0)
    return runner, times


# -- the measured loop --------------------------------------------------------


def _heap_trimmer():
    """glibc's malloc_trim, or None where the C library has none."""
    try:
        return ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError):
        return None


_MALLOC_TRIM = _heap_trimmer()


def release_freed_memory() -> None:
    """Collect garbage and hand freed heap pages back to the system, so
    that every fit starts from the same heap, as a fresh CLI process would.
    Without it the peak resident memory of a run depends on which freed
    blocks the allocator happened to keep from earlier ops, and jumps
    between levels about 10% apart from run to run."""
    gc.collect()
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)


class Measurement:
    """What one run observed, op by op."""

    def __init__(self):
        self.fit_s: dict[str, list[float]] = collections.defaultdict(list)  # untraced, by method
        self.predict_s: list[float] = []  # untraced
        self.cli_predict_s: list[float] = []  # traced rounds only
        self.traced_fit_s: dict[str, list[float]] = collections.defaultdict(list)
        self.records: list[tuple[int, object]] = []  # (fit op id, FitRecord)
        self.attempted = 0
        self.failed = 0
        self.rank = 0  # of the standardized design


def check_fit(ref: Reference, rec) -> str | None:
    """Every check one fit must pass; the first failure's message."""
    err = ref.check_normal_equations(rec.beta_raw, rec.intercepts, rec.lambdas)
    for t in range(len(rec.tau2)):
        err = err or ref.check_em_fixed_point(t, rec.tau2[t], rec.sigma2[t])
    for t, (grid, cve) in enumerate(zip(rec.grids, rec.cves)):
        best = int(np.argmin(cve))
        if grid[best] != rec.lambdas[t]:
            err = err or f"target {t}: lambda {rec.lambdas[t]!r} is not the CVE minimizer"
        err = err or ref.check_cve(t, float(grid[best]), float(cve[best]))
    return err


def _timed(call, tracer: Tracer | None, op: int, kind: str):
    if tracer is None:
        t0 = time.perf_counter()
        out = call()
        return out, time.perf_counter() - t0
    tracer.op = op
    with tracer.patched():
        t0 = time.perf_counter()
        with tracer.span(f"op.{kind}"):
            out = call()
        return out, time.perf_counter() - t0


def _attempt(m: Measurement, label: str, op, *args):
    """Run one op with its check. A raise or a failed check counts as a
    failed op and the loop goes on."""
    m.attempted += 1
    try:
        result, err = op(*args)
    except Exception:  # noqa: BLE001 - a failed op is reported, not fatal
        traceback.print_exc(file=sys.stderr)
        result, err = None, "raised"
    if err is not None:
        print(f"{label}: {err}", file=sys.stderr)
        m.failed += 1
        return None
    return result


def _fit_op(runner, ref: Reference, method: str, tracer: Tracer | None, op: int):
    fitted, elapsed = _timed(lambda: runner.fit(method), tracer, op, "fit")
    rec = runner.record(fitted)
    return (fitted, rec, elapsed), check_fit(ref, rec)


def _predict_op(runner, rec, tracer: Tracer | None, op: int):
    Y_hat, elapsed = _timed(lambda: runner.predict(rec), tracer, op, "predict")
    return elapsed, check_predictions(runner.inputs.X_new, rec.beta_raw, rec.intercepts, Y_hat)


def _cli_predict_op(runner, rec, tracer: Tracer, op: int):
    _, elapsed = _timed(runner.cli_predict, tracer, op, "cli_predict")
    Y_hat = runner.cli_predictions()
    return elapsed, check_predictions(runner.inputs.X_new, rec.beta_raw, rec.intercepts, Y_hat)


def measure(w, runner, ref: Reference, seconds: float, tracer: Tracer | None) -> Measurement:
    """Closed loop with one caller. Each round fits, checks, then predicts
    with that fit and checks, predicts_per_fit times; rounds repeat until
    `seconds` have passed. When tracing, even-numbered rounds are traced
    and odd ones not, and at least one of each runs; a traced round of a
    CLI workload ends with one checked CLI predict. Each fit starts from a
    released heap (release_freed_memory), outside its timing."""
    m = Measurement()
    m.rank = ref.rank
    op_ids = itertools.count()
    deadline = time.perf_counter() + seconds
    i = 0
    while i < (2 if tracer else 1) or time.perf_counter() < deadline:
        tr = tracer if tracer is not None and i % 2 == 0 else None
        method = w.methods[(i // 2) % len(w.methods)]  # traced and untraced rounds see each method
        op = next(op_ids)
        release_freed_memory()
        done = _attempt(m, f"fit {i}", _fit_op, runner, ref, method, tr, op)
        if done is not None:
            fitted, rec, elapsed = done
            rec.boundary = [ref.at_em_boundary(tau2) for tau2 in rec.tau2]
            m.records.append((op, rec))
            (m.traced_fit_s if tr else m.fit_s)[method].append(elapsed)
            for k in range(w.predicts_per_fit):
                elapsed = _attempt(m, f"predict {i}.{k}", _predict_op, runner, rec, tr, next(op_ids))
                if elapsed is not None and tr is None:
                    m.predict_s.append(elapsed)
            if tr is not None and w.cli:
                elapsed = _attempt(m, f"cli predict {i}", _cli_predict_op, runner, rec, tr, next(op_ids))
                if elapsed is not None:
                    m.cli_predict_s.append(elapsed)
        i += 1
    return m


# -- metrics ------------------------------------------------------------------


def end_to_end_metrics(m: Measurement, setup_s: float) -> dict[str, float]:
    return {
        "setup_s": setup_s,
        "fit_s": _per_method_mean(m.fit_s),
        "predict_s": _trimmed_mean(m.predict_s),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer_metrics(m: Measurement, tracer: Tracer, w, runner) -> dict[str, float]:
    ops = op_summaries(tracer.spans)
    fits = {op: s for op, s in ops.items() if s["root"] == "op.fit"}
    preds = [s for s in ops.values() if s["root"] == "op.predict"]
    cli_preds = [s for s in ops.values() if s["root"] == "op.cli_predict"]
    records = dict(m.records)

    def fit_total(name):
        """Summed span seconds per fit, over the fits that called `name`:
        a workload that cycles methods calls em_fit in some fits only."""
        return {op: s["total_s"][name] for op, s in fits.items() if name in s["total_s"]}

    def per_unit(times, counts, scale=1.0):
        return _median(scale * times[op] / counts[op] for op in times if counts.get(op))

    load_bytes, cli_in, cli_out = runner.io_bytes()
    load = fit_total("data.load_csv")
    svd = fit_total("decomposition.compact_svd")
    em = fit_total("em.em_fit")
    loocv = fit_total("loocv.loocv_fit")
    gflop = compact_svd_gflop(w.n, w.p, m.rank)

    iterations = {op: sum(r.iterations) for op, r in records.items() if r.iterations}
    candidates = {op: sum(len(g) for g in r.grids) for op, r in records.items() if r.grids}
    em_targets = [t for r in records.values() for t in zip(r.boundary, r.converged)]
    loocv_targets = [
        float(lam) in (float(g[0]), float(g[-1]))
        for r in records.values()
        for lam, g in zip(r.lambdas, r.grids)
    ]
    return {
        "data.load_csv.s": _median(load.values()),
        "data.load_csv.bytes": float(load_bytes),
        "data.load_csv.mb_per_s": _median(load_bytes / 1e6 / s for s in load.values() if s > 0),
        "data.standardize.s": _median(fit_total("data.standardize").values()),
        "data.destandardize.s": _median(fit_total("data.destandardize").values()),
        "data.predict.s": _median(s["total_s"].get("data.predict", 0.0) for s in preds),
        "decomposition.compact_svd.s": _median(svd.values()),
        "decomposition.compact_svd.gflop": gflop,
        "decomposition.compact_svd.gflop_per_s": _median(gflop / s for s in svd.values() if s > 0),
        "decomposition.rotate.s": _median(fit_total("decomposition.rotate").values()),
        "em.em_fit.s": _median(em.values()),
        "em.iterations": _median_count(iterations.values()),
        "em.us_per_iteration": per_unit(em, iterations, 1e6),
        "em.converged_ratio": _ratio(sum(c for _, c in em_targets), len(em_targets)),
        "em.boundary_ratio": _ratio(sum(b for b, _ in em_targets), len(em_targets)),
        "loocv.grid.s": _median(fit_total("loocv.grid").values()),
        "loocv.loocv_fit.s": _median(loocv.values()),
        "loocv.candidates": _median_count(candidates.values()),
        "loocv.us_per_candidate": per_unit(loocv, candidates, 1e6),
        "loocv.edge_ratio": _ratio(sum(loocv_targets), len(loocv_targets)),
        "cli.fit.self_s": _median(s["self_s"].get("cli.fit", 0.0) for s in fits.values()),
        "cli.predict.self_s": _median(s["self_s"].get("cli.predict", 0.0) for s in cli_preds),
        "cli.predict.s": _median(m.cli_predict_s),
        "cli.input.bytes": float(cli_in),
        "cli.output.bytes": float(cli_out),
        "trace.coverage": _median(s["coverage"] for s in fits.values()),
        "trace.fit_s": _per_method_mean(m.traced_fit_s),
        "trace.overhead_s": _per_method_mean(m.traced_fit_s) - _per_method_mean(m.fit_s),
    }


# -- one run ------------------------------------------------------------------


def run(w, seed: int, seconds: float, trace: bool, run_dir: str, import_s: float = 0.0):
    """Set up, measure and derive the metrics of one run. Returns the
    result dict (the JSON line plus details) and the tracer, if any."""
    runner, setup_times = set_up(w, seed, run_dir)
    try:
        ref = Reference(runner.inputs.X, runner.inputs.Y)
        tracer = Tracer() if trace else None
        m = measure(w, runner, ref, seconds, tracer)
        setup_s = import_s + _median(setup_times)
        if trace:
            values = per_layer_metrics(m, tracer, w, runner)
            units = PER_LAYER_UNITS
        else:
            values = end_to_end_metrics(m, setup_s)
            units = END_TO_END_UNITS
    finally:
        runner.close()
    result = {
        "correct": m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    details = {
        "workload": w.name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "import_s": import_s,
        "setup_repeats_s": setup_times,
        "fit_samples_s": m.fit_s,
        "predict_samples_s": m.predict_s,
        "cli_predict_samples_s": m.cli_predict_s,
        "traced_fit_samples_s": m.traced_fit_s,
    }
    return result, details, tracer


def report_lines(result: dict, details: dict) -> list[str]:
    """Human-readable summary: every metric by name with its unit."""
    lines = [
        f"workload {details['workload']}  seed {details['seed']}  trace {details['trace']}  "
        f"seconds {details['seconds']}"
    ]
    notes = {
        "setup_s": f"import {details['import_s']:.4g} s + median of {len(details['setup_repeats_s'])} set-ups",
        "fit_s": _fit_note(details["fit_samples_s"]),
        "predict_s": _spread_note(details["predict_samples_s"], "predicts"),
        "trace.fit_s": "fit_s of the traced rounds",
        "trace.overhead_s": "traced minus untraced fit_s",
    }
    for name, metric in result["metrics"].items():
        note = notes.get(name, "computed" if name in COMPUTED else "")
        lines.append(f"  {name:40s} {metric['value']:>14.6g} {metric['unit']:8s} {note}")
    ratio = result["failed"] / result["attempted"]
    lines.append(f"  {'fail_ratio':40s} {ratio:>14.6g} {'ratio':8s} {result['failed']}/{result['attempted']} ops failed")
    return lines
