"""Span recorder for the traced benchmark run.

A traced op patches the public function of each fastridge layer where its
callers look it up (the defining module for the benchmark's own library
calls, ``fastridge.cli`` for the names the CLI imported), records one span
per call and restores the originals afterwards. Spans are kept in memory
and written out when the run ends; nothing inside the package changes.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time

# (span name, function name, defining module). Both grid constructors report as
# one "loocv.grid" span; cmd_fit/cmd_predict are the CLI layer itself.
LAYER_FUNCTIONS = (
    ("data.load_csv", "load_csv", "fastridge.data"),
    ("data.standardize", "standardize", "fastridge.data"),
    ("data.destandardize", "destandardize", "fastridge.data"),
    ("data.predict", "predict", "fastridge.data"),
    ("decomposition.compact_svd", "compact_svd", "fastridge.decomposition"),
    ("decomposition.rotate", "rotate", "fastridge.decomposition"),
    ("em.em_fit", "em_fit", "fastridge.em"),
    ("loocv.grid", "fixed_grid", "fastridge.loocv"),
    ("loocv.grid", "glmnet_grid", "fastridge.loocv"),
    ("loocv.loocv_fit", "loocv_fit", "fastridge.loocv"),
    ("cli.fit", "cmd_fit", "fastridge.cli"),
    ("cli.predict", "cmd_predict", "fastridge.cli"),
)

_CLI = "fastridge.cli"


class Tracer:
    """Spans as [name, start_ns, end_ns, parent index, op id] records."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.op = -1

    @contextlib.contextmanager
    def span(self, name: str):
        record = [name, time.perf_counter_ns(), 0, self._open[-1] if self._open else None, self.op]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter_ns()
            self._open.pop()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextlib.contextmanager
    def patched(self):
        """Wrap every layer function for the duration of the block."""
        saved = []
        try:
            for name, attr, home in LAYER_FUNCTIONS:
                original = getattr(importlib.import_module(home), attr)
                for modname in {home, _CLI}:
                    module = importlib.import_module(modname)
                    if getattr(module, attr, None) is original:
                        saved.append((module, attr, original))
                        setattr(module, attr, self._wrap(name, original))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start_ns": start, "end_ns": end, "parent": parent, "op": op}
                    )
                    + "\n"
                )


def op_summaries(spans: list[list]) -> dict[int, dict]:
    """Per op id: the root span's name and seconds, summed seconds and
    self seconds per span name, and the share of the root covered by its
    direct children (the named layer spans). Spans come from one thread, so
    the children of a span never overlap."""
    children: dict[int, list[int]] = {}
    for idx, (_, _, _, parent, _) in enumerate(spans):
        if parent is not None:
            children.setdefault(parent, []).append(idx)
    out: dict[int, dict] = {}
    for idx, (name, start, end, parent, op) in enumerate(spans):
        covered = sum(spans[k][2] - spans[k][1] for k in children.get(idx, ()))
        if parent is None:
            out[op] = {
                "root": name,
                "root_s": (end - start) / 1e9,
                "coverage": covered / max(end - start, 1),
                "total_s": {},
                "self_s": {},
            }
            continue
        summary = out[op]
        summary["total_s"][name] = summary["total_s"].get(name, 0.0) + (end - start) / 1e9
        summary["self_s"][name] = summary["self_s"].get(name, 0.0) + (end - start - covered) / 1e9
    return out
