"""Outside-in layer tracing for the benchmark.

The library is left untouched: `Tracer.install` replaces the entry points
listed in TARGETS with wrappers that record one span per call (name,
start, end, parent) and, after the span has closed, a few exact counts.
A layer's self time is its span durations minus the time its child spans
cover, so the self times of all layers plus the op's own unattributed time
add up to the traced op time.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np

PACKAGE = "stacked_iblt"

OP = "bench.op"
# Counting runs after the counted span has closed; its own span keeps that
# cost out of the enclosing layer's self time and in `bench.unattributed`.
COUNT = "bench.count"


def _calls(args, result):
    return {"calls": 1}


def _row_keys(args, result):
    table, keys = args[0], args[1]
    return {"row_keys": table.rows * int(np.size(keys))}


def _one_eval(args, result):
    return {"evals": 1}


def _batch_evals(args, result):
    # eval_batch computes one pow per distinct key.
    return {"evals": int(np.unique(np.asarray(args[1], dtype=np.uint64)).size)}


def _extraction(args, result):
    # BasicTable.list_entries only reads the table, so after the call it
    # still holds the cells the call saw.
    table = args[0]
    found = len(result[0]) + len(result[1]) if isinstance(result, tuple) else len(result)
    return {"candidates": int(np.count_nonzero(np.abs(table.count) == 1)),
            "entries": found}


# Every wrapped entry point: (layer, module, class or None, attribute, counter).
# BasicTable._apply is here because the decoder calls it directly. Module
# functions are rebound in every package module that imported them by name.
TARGETS = (
    ("hashing.draw", "hashing", "KWiseHash", "__init__", _calls),
    ("hashing.bucket", "core", "BasicTable", "bucket_rows", _row_keys),
    ("hashing.power", "hashing", "PowerHash", "eval", _one_eval),
    ("hashing.power", "hashing", "PowerHash", "eval_batch", _batch_evals),
    ("core.scatter", "core", "BasicTable", "_apply", _calls),
    ("core.extract", "core", "BasicTable", "list_entries", _extraction),
    ("core.zero_check", "core", "BasicTable", "is_zero", None),
    ("stacked.build", "stacked", "StackedSketch", "__init__", None),
    ("stacked.peel", "stacked", "StackedSketch", "list_entries", None),
    ("stacked.subtract", "stacked", "StackedSketch", "subtract", None),
    ("reconcile.encode", "reconcile", None, "serialize", None),
    ("reconcile.decode", "reconcile", None, "deserialize", None),
)

# stacked.verify is not a wrapped call but a phase of stacked.peel: the
# mutation and zero-check spans of a decode that start after its last
# extraction span. Its time overlaps core.scatter, hashing.bucket and
# core.zero_check.
VERIFY = "stacked.verify"
LAYERS = ("hashing.draw", "hashing.bucket", "hashing.power", "core.scatter",
          "core.extract", "core.zero_check", "stacked.build", "stacked.peel",
          VERIFY, "stacked.subtract", "reconcile.encode", "reconcile.decode")


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans: list[list] = []       # [name, start_ns, end_ns, parent index]
        self.counts: dict[tuple[str, str], int] = defaultdict(int)
        self.absent: list[str] = []       # layers none of whose targets exist
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, parent])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, layer, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if counter is not None:
                c = self.open(COUNT)
                for key, n in counter(args, result).items():
                    self.counts[layer, key] += n
                self.close(c)
            return result
        return traced

    def install(self) -> None:
        """Wrap every TARGETS entry point of the loaded package."""
        found = defaultdict(bool)
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for layer, modname, owner, attr, counter in TARGETS:
            module = sys.modules.get(f"{PACKAGE}.{modname}")
            holder = getattr(module, owner, None) if owner else module
            original = vars(holder).get(attr) if holder is not None else None
            found[layer] |= original is not None
            if original is None:
                continue
            traced = self._wrap(layer, original, counter)
            if owner:
                setattr(holder, attr, traced)
                continue
            for m in modules:
                if vars(m).get(attr) is original:
                    setattr(m, attr, traced)
        self.absent = [layer for layer, ok in found.items() if not ok]

    def layer_metrics(self, distinct_keys: int, untraced_op_ms: float) -> dict:
        """Per-op layer metrics over every recorded op; name -> (value, unit)."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self_ns: dict[str, int] = defaultdict(int)
        op_ns = []
        peel_children = defaultdict(list)
        for i, (name, start, end, parent) in enumerate(spans):
            self_ns[name] += end - start - child_ns[i]
            if name == OP:
                op_ns.append(end - start)
            if parent >= 0 and spans[parent][0] == "stacked.peel":
                peel_children[parent].append(spans[i])
        for kids in peel_children.values():
            last = max((end for name, _, end, _ in kids if name == "core.extract"), default=0)
            self_ns[VERIFY] += sum(end - start for name, start, end, _ in kids
                                   if name in ("core.scatter", "core.zero_check")
                                   and start >= last)

        ops = len(op_ns)
        total_ns = sum(op_ns)
        counts = self.counts
        out = {}
        for layer in LAYERS:
            out[f"{layer}.ms"] = (self_ns[layer] / ops / 1e6, "ms")
            out[f"{layer}.share"] = (self_ns[layer] / total_ns, "ratio")

        def per_op(layer, key):
            return counts[layer, key] / ops

        row_keys = counts["hashing.bucket", "row_keys"]
        candidates = counts["core.extract", "candidates"]
        out.update({
            "hashing.draw.calls": (per_op("hashing.draw", "calls"), "count"),
            "hashing.bucket.row_keys": (per_op("hashing.bucket", "row_keys"), "count"),
            "hashing.bucket.ns_per_row_key": (
                self_ns["hashing.bucket"] / row_keys if row_keys else 0.0, "ns"),
            "hashing.power.evals": (per_op("hashing.power", "evals"), "count"),
            "hashing.power.evals_per_key": (
                per_op("hashing.power", "evals") / distinct_keys, "ratio"),
            "core.scatter.calls": (per_op("core.scatter", "calls"), "count"),
            "core.extract.candidates": (per_op("core.extract", "candidates"), "count"),
            "core.extract.yield": (
                counts["core.extract", "entries"] / candidates if candidates else 0.0, "ratio"),
            "bench.unattributed.share": (
                (self_ns[OP] + self_ns[COUNT]) / total_ns, "ratio"),
            "bench.trace_overhead": (
                float(np.median(op_ns)) / 1e6 / untraced_op_ms - 1.0, "ratio"),
        })
        return out
