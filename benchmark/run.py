"""fastridge benchmark: one workload per process, closed loop.

    python3 benchmark/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a fastridge checkout; the package is imported from
./src. One caller fits, and predicts with that fit, back to back for S
seconds, and every output is checked against an oracle that does not use
the library's fast path (checks.py). The workloads are described in
workloads.py; BLAS runs with one thread per available core.

--trace 0 reports the end-to-end metrics: set-up seconds, fit and predict
seconds (the mean of the middle 80% of the run's samples, for fits taken
per method and averaged over methods; harness.py says why not the
median), and peak resident memory. --trace 1 alternates traced
and untraced rounds and reports per-layer metrics from spans recorded
around the public function of each layer (spans.py), plus the tracing
overhead. Human-readable lines come first; the last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics. The
spans and the full result are written to .benchwork/ in the checkout.

Exit codes: 0 when the run completed (even with failed ops, which the
JSON reports), 2 for bad arguments or a directory without src/fastridge.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

WORK_DIR = ".benchwork"
WORKLOAD_NAMES = ("cli-multi", "wide")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    parser.add_argument("--seconds", type=float, default=50.0, help="measured seconds (default 50)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "fastridge", "__init__.py")):
        print("benchmark: src/fastridge not found; run from the root of a fastridge checkout", file=sys.stderr)
        return 2
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    sys.path.insert(0, src)

    t0 = time.perf_counter()
    import fastridge.cli  # noqa: F401  (imports numpy and every layer)

    import_s = time.perf_counter() - t0

    import harness
    from workloads import WORKLOADS

    work = os.path.join(root, WORK_DIR)
    os.makedirs(work, exist_ok=True)
    run_dir = os.path.join(work, f"{args.workload}-{os.getpid()}")
    try:
        result, details, tracer = harness.run(
            WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), run_dir, import_s
        )
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    details["environment"] = harness.environment(root)
    stem = os.path.join(work, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"result": result, "details": details}, fh, indent=2)
    if tracer is not None:
        tracer.write_jsonl(stem + ".spans.jsonl")

    for line in harness.report_lines(result, details):
        print(line)
    print("environment " + json.dumps(details["environment"], sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
