"""Alternating benchmark pairs of two fastridge checkouts, and the verdict.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W [--workload W2]
        --pairs N --seconds S --out FILE [--seed0 K] [--traced T]

PARENT and CHANGE are checkout directories; each runs its own
benchmark/run.py from its root, one process per run. Pair i of workload W
runs both trees on seed K + i with --trace 0, the parent first on even i
and the change first on odd i; the pairs of the workloads are interleaved.
Then T traced pairs (--trace 1) per workload run on the seeds after those,
in the same alternation, for the per-layer metrics.

For every end-to-end metric the file holds, per workload, each side's
median and quartiles, the parent's interquartile range, the pairs the
change won (ties count for neither) and whether a gain may be claimed:
the change wins at least nine tenths of the pairs, the medians differ,
in the metric's better direction, by more than the parent's interquartile
range, and the change's share of failed operations on the workload is no
larger than the parent's. The better direction and the bounds are read
from the parent's BENCHMARK.json; a metric whose change median is worse
than the parent's by more than its bound is marked as a regression, and
one whose parent interquartile range exceeds the bound relative to its
median is marked "unresolved" (the runs spread too widely to tell) unless
every change run beats every parent run. Per-layer metrics are
given as each side's values from the traced runs and their medians. Every
run's JSON result line is kept.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time


def _commit(root: str) -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def run_once(root: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run in ``root``: the JSON object on its last stdout line."""
    cmd = [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{root}: {' '.join(cmd[1:])} exited {proc.returncode}: {proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {
        "seed": seed,
        "trace": trace,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def quartiles(values: list[float]) -> list[float]:
    """[q1, median, q3], by statistics.quantiles' inclusive method."""
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q2, q3]


def failed_share(runs: list[dict]) -> float:
    """The share of the runs' operations that failed."""
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def compare(
    parent: list[float],
    change: list[float],
    lower_is_better: bool,
    bound: float | None,
    failed_shares: tuple[float, float] = (0.0, 0.0),
) -> dict:
    """Quartiles, pairs won and the claim and regression verdicts of one
    metric on paired samples (parent[i], change[i]); ``failed_shares`` are
    the parent's and the change's shares of failed operations."""
    sign = 1.0 if lower_is_better else -1.0
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    pq, cq = quartiles(parent), quartiles(change)
    iqr = pq[2] - pq[0]
    gain = sign * (pq[1] - cq[1])  # positive when the change's median is better
    out = {
        "parent_q1_median_q3": pq,
        "change_q1_median_q3": cq,
        "parent_iqr": iqr,
        "change_better_pairs": wins,
        "pairs": len(parent),
        "median_change_vs_parent": (cq[1] - pq[1]) / pq[1] if pq[1] else None,
        "claim_met": (
            wins >= math.ceil(0.9 * len(parent)) and gain > iqr and failed_shares[1] <= failed_shares[0]
        ),
    }
    if bound is not None:
        out["bound"] = bound
        # every change run beats every parent run
        separated = max(sign * c for c in change) < min(sign * p for p in parent)
        if pq[1] and iqr / abs(pq[1]) > bound and not separated:
            out["regression"] = "unresolved"
        else:
            out["regression"] = bool(pq[1]) and -gain / abs(pq[1]) > bound
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="parent checkout directory")
    parser.add_argument("change", help="changed checkout directory")
    parser.add_argument("--workload", action="append", required=True, help="workload name; repeatable")
    parser.add_argument("--pairs", type=int, required=True, help="untraced pairs per workload")
    parser.add_argument("--seconds", type=float, required=True, help="measured seconds per run")
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--seed0", type=int, default=1, help="seed of the first pair (default 1)")
    parser.add_argument("--traced", type=int, default=1, help="traced pairs per workload (default 1)")
    args = parser.parse_args(argv)
    if args.pairs < 2 or args.traced < 0 or args.seconds <= 0 or args.seed0 < 0:
        parser.error("need --pairs >= 2, --traced >= 0, --seconds > 0 and --seed0 >= 0")
    roots = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with open(os.path.join(roots["parent"], "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}

    runs = {w: {"parent": [], "change": []} for w in args.workload}
    traced = {w: {"parent": [], "change": []} for w in args.workload}
    schedule = [(i, args.seed0 + i, 0, runs) for i in range(args.pairs)]
    schedule += [(i, args.seed0 + args.pairs + i, 1, traced) for i in range(args.traced)]
    for i, seed, trace, into in schedule:
        for w in args.workload:
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                t0 = time.perf_counter()
                rec = run_once(roots[side], w, seed, args.seconds, trace)
                rec["first"] = side == order[0]
                into[w][side].append(rec)
                print(f"{w} seed {seed} trace {trace} {side}: {time.perf_counter() - t0:.0f} s, "
                      f"{rec['failed']}/{rec['attempted']} failed", file=sys.stderr, flush=True)

    summary = {}
    for w in args.workload:
        sides = runs[w]
        end_to_end = {}
        shares = tuple(failed_share(sides[s]) for s in ("parent", "change"))
        for name in sides["parent"][0]["metrics"]:
            m = declared[name]
            values = [[r["metrics"][name] for r in sides[s]] for s in ("parent", "change")]
            end_to_end[name] = compare(*values, m["better"] == "lower", m.get("bound"), shares)
        per_layer = {}
        for name in (traced[w]["parent"] or [{"metrics": {}}])[0]["metrics"]:
            values = {s: [r["metrics"][name] for r in traced[w][s]] for s in ("parent", "change")}
            per_layer[name] = {
                **values,
                "parent_median": statistics.median(values["parent"]),
                "change_median": statistics.median(values["change"]),
                "better": declared[name]["better"],
            }
        summary[w] = {
            "failed_ops": {s: [r["failed"] for r in sides[s]] for s in sides},
            "failed_share": dict(zip(("parent", "change"), shares)),
            "attempted_ops": {s: [r["attempted"] for r in sides[s]] for s in sides},
            "end_to_end": end_to_end,
            "per_layer": per_layer,
        }

    doc = {
        "command": (
            f"tools/bench_pairs.py PARENT CHANGE {' '.join(f'--workload {w}' for w in args.workload)} "
            f"--pairs {args.pairs} --seconds {args.seconds:g} --seed0 {args.seed0} --traced {args.traced}"
        ),
        "commits": {side: _commit(root) for side, root in roots.items()},
        "machine": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "processor": platform.processor() or platform.machine(),
        },
        "method": (
            f"{args.pairs} untraced pairs per workload on seeds {args.seed0}..{args.seed0 + args.pairs - 1}, "
            f"then {args.traced} traced pairs on the following seeds; the parent runs first on even pairs. "
            "claim_met: the change wins at least 9/10 of the pairs, the medians differ in its favour "
            "by more than the parent's interquartile range, and its share of failed operations is no "
            "larger than the parent's. regression is 'unresolved' when the parent's interquartile range "
            "exceeds the bound relative to its median and not every change run beats every parent run."
        ),
        "summary": summary,
        "runs": {"untraced": runs, "traced": traced},
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    for w, s in summary.items():
        for name, v in s["end_to_end"].items():
            print(f"{w:10s} {name:14s} parent {v['parent_q1_median_q3'][1]:.6g} change "
                  f"{v['change_q1_median_q3'][1]:.6g} wins {v['change_better_pairs']}/{v['pairs']} "
                  f"iqr {v['parent_iqr']:.3g} claim_met {v['claim_met']} regression {v.get('regression')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
