"""Tests of the benchmark itself: every workload at a small shape, the
correctness checks against perturbed outputs, and the span arithmetic.

    python3 -m pytest benchmark/test_benchmark.py
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import harness  # noqa: E402
import run  # noqa: E402
from checks import Reference, check_predictions  # noqa: E402
from spans import op_summaries  # noqa: E402
from workloads import WORKLOADS, make_inputs, make_runner  # noqa: E402

SMALL = {
    "cli-multi": dict(n=150, p=20, q=4),
    "wide": dict(n=40, p=200),
}


def test_command_line_names_every_workload():
    assert set(run.WORKLOAD_NAMES) == set(WORKLOADS)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        assert {w["name"] for w in json.load(fh)["workloads"]} == set(WORKLOADS)


def small(name):
    return dataclasses.replace(WORKLOADS[name], **SMALL[name])


def spec_metrics(kind: str) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


@pytest.mark.parametrize("name", sorted(SMALL))
@pytest.mark.parametrize("trace, seed", [(False, 7), (False, 8), (True, 7)])
def test_small_run_emits_every_metric_and_passes_checks(name, trace, seed, tmp_path):
    result, details, _ = harness.run(small(name), seed, 0.0, trace, str(tmp_path))
    expected = spec_metrics("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["correct"] and result["failed"] == 0
    w = WORKLOADS[name]
    assert result["attempted"] == (2 if trace else 1) * (1 + w.predicts_per_fit) + (trace and w.cli)
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert not [f for _, _, files in os.walk(tmp_path) for f in files]  # CSVs, models removed


@pytest.mark.parametrize("name, method", [(name, method) for name in sorted(SMALL) for method in WORKLOADS[name].methods])
def test_perturbed_outputs_trip_the_checks(name, method, tmp_path):
    w = small(name)
    inputs = make_inputs(w, 7)
    runner = make_runner(w, inputs, str(tmp_path))
    try:
        rec = runner.record(runner.fit(method))
        Y_hat = runner.predict(rec)
        if w.cli:
            runner.cli_predict()
            assert np.array_equal(runner.cli_predictions(), Y_hat)
    finally:
        runner.close()
    ref = Reference(inputs.X, inputs.Y)
    assert harness.check_fit(ref, rec) is None
    assert check_predictions(inputs.X_new, rec.beta_raw, rec.intercepts, Y_hat) is None

    beta = rec.beta_raw.copy()
    beta[0, -1] *= 1.0 + 1e-6
    assert harness.check_fit(ref, dataclasses.replace(rec, beta_raw=beta)) is not None
    assert check_predictions(inputs.X_new, beta, rec.intercepts, Y_hat) is not None
    shifted = rec.intercepts + 1e-6 * np.abs(rec.intercepts)
    assert harness.check_fit(ref, dataclasses.replace(rec, intercepts=shifted)) is not None
    if rec.tau2:
        # Double tau2 of an interior target and refit its coefficients at
        # the new penalty: only the fixed-point check can object.
        t = int(np.argmax(rec.tau2))
        tau2 = list(rec.tau2)
        tau2[t] *= 2.0
        lambdas = np.array(rec.lambdas)
        lambdas[t] = 1.0 / tau2[t]
        gram = ref.Xs.T @ ref.Xs + lambdas[t] * np.eye(ref.p)
        beta = rec.beta_raw.copy()
        beta[:, t] = np.linalg.solve(gram, ref.Xs.T @ ref.Yc[:, t]) / ref.x_sd
        intercepts = rec.intercepts.copy()
        intercepts[t] = ref.y_mean[t] - ref.x_mean @ beta[:, t]
        moved = dataclasses.replace(rec, beta_raw=beta, lambdas=lambdas, tau2=tau2, intercepts=intercepts)
        assert ref.check_normal_equations(moved.beta_raw, moved.intercepts, moved.lambdas) is None
        assert harness.check_fit(ref, moved) is not None
    if rec.cves:
        cves = [c.copy() for c in rec.cves]
        cves[0] *= 1.0 + 1e-6
        assert harness.check_fit(ref, dataclasses.replace(rec, cves=cves)) is not None


def test_a_failed_check_counts_as_a_failed_op(tmp_path):
    w = small("wide")
    runner = make_runner(w, make_inputs(w, 7), str(tmp_path))
    ref = Reference(runner.inputs.X, runner.inputs.Y)
    record = runner.record

    def perturbed(fitted):
        rec = record(fitted)
        return dataclasses.replace(rec, beta_raw=rec.beta_raw * (1.0 + 1e-6))

    runner.record = perturbed
    m = harness.measure(w, runner, ref, 0.0, None)
    assert (m.attempted, m.failed) == (1, 1)


def test_trimmed_mean_drops_a_tenth_from_each_end():
    assert harness._trimmed_mean([0.0] + [1.0] * 8 + [100.0]) == 1.0
    assert harness._trimmed_mean([2.0, 4.0]) == 3.0
    assert harness._trimmed_mean([]) == 0.0


def test_self_time_subtracts_children():
    spans = [
        ["op.fit", 0, 100, None, 0],
        ["cli.fit", 5, 95, 0, 0],
        ["data.load_csv", 10, 60, 1, 0],
        ["em.em_fit", 70, 80, 1, 0],
        ["em.em_fit", 80, 90, 1, 0],
    ]
    summary = op_summaries(spans)[0]
    assert summary["root_s"] == 100e-9
    assert summary["coverage"] == 0.9
    assert summary["total_s"]["em.em_fit"] == 20e-9
    assert summary["self_s"]["cli.fit"] == pytest.approx(20e-9)


def test_exits_nonzero_without_the_package(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "wide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
