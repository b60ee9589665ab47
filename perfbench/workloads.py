"""The benchmark's workloads: seeded inputs, one timed op, ground truth.

Each workload turns `--seed` into a fixed pool of cases before timing
starts; op i runs case i mod len(pool), so a run of whole cycles repeats
exactly. The library only ever sees the generated arrays and pair lists.
Keys are distinct and below 2^60, inside every sketch's key domain.

Library entry points are looked up through their modules at call time so
that the tracer's wrappers, once installed, see every call.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from stacked_iblt import reconcile, stacked

KEY_BOUND = 1 << 60


@dataclass(frozen=True)
class Case:
    params: stacked.Params
    keys: np.ndarray | None           # inserted with insert_arrays
    values: np.ndarray | None
    deletes: list | None              # (key, value) pairs removed with delete_pairs
    remote: stacked.StackedSketch | None
    local_pairs: list | None
    want_plus: frozenset
    want_minus: frozenset


@dataclass
class OpResult:
    encode_s: float
    decode_s: float
    plus: set
    minus: set
    complete: bool
    inconsistent: bool

    def verdict(self, case: Case) -> str:
        """'ok', 'failed' (incomplete or inconsistent) or 'wrong'."""
        if self.inconsistent or not self.complete:
            return "failed"
        if self.plus == case.want_plus and self.minus == case.want_minus:
            return "ok"
        return "wrong"


def _pairs(rng, count: int) -> tuple[np.ndarray, np.ndarray]:
    while True:
        keys = rng.integers(0, KEY_BOUND, size=count, dtype=np.uint64)
        if np.unique(keys).size == count:
            break
    values = rng.integers(0, 1 << 64, size=count, dtype=np.uint64)
    return keys, values


def _seed64(rng) -> int:
    return int(rng.integers(0, 1 << 64, dtype=np.uint64))


def _as_set(keys, values) -> frozenset:
    return frozenset(zip(keys.tolist(), values.tolist()))


def _plain_cases(rng, count, n, delta, inserts, deletes) -> list[Case]:
    cases = []
    for _ in range(count):
        keys, values = _pairs(rng, inserts)
        keep = inserts - deletes
        cases.append(Case(
            params=stacked.Params(n=n, delta=delta, master_seed=_seed64(rng)),
            keys=keys, values=values,
            deletes=list(zip(keys[keep:].tolist(), values[keep:].tolist())) or None,
            remote=None, local_pairs=None,
            want_plus=_as_set(keys[:keep], values[:keep]), want_minus=frozenset()))
    return cases


def _run_plain(case: Case) -> OpResult:
    sketch = stacked.StackedSketch(case.params)
    t1 = time.perf_counter()
    sketch.insert_arrays(case.keys, case.values)
    if case.deletes:
        sketch.delete_pairs(case.deletes)
    t2 = time.perf_counter()
    out = sketch.list_entries(in_place=True)
    t3 = time.perf_counter()
    return OpResult(t2 - t1, t3 - t2, out.recovered_plus, out.recovered_minus,
                    out.complete, out.inconsistent)


def _reconcile_cases(rng) -> list[Case]:
    params = stacked.Params(n=256, delta=2.0 ** -10, mode="checksum",
                            master_seed=_seed64(rng))
    keys, values = _pairs(rng, 1024 + 128 + 128)
    remote_keys, remote_values = keys[:1152], values[:1152]
    local_keys = np.concatenate([keys[:1024], keys[1152:]])
    local_values = np.concatenate([values[:1024], values[1152:]])
    remote = stacked.StackedSketch(params)
    remote.insert_arrays(remote_keys, remote_values)
    return [Case(params=params, keys=None, values=None, deletes=None, remote=remote,
                 local_pairs=list(zip(local_keys.tolist(), local_values.tolist())),
                 want_plus=_as_set(keys[1024:1152], values[1024:1152]),
                 want_minus=_as_set(keys[1152:], values[1152:]))]


def _run_reconcile(case: Case) -> OpResult:
    t0 = time.perf_counter()
    envelope = reconcile.serialize(case.remote)
    t1 = time.perf_counter()
    missing_locally, missing_remotely, complete = reconcile.reconcile_local(
        case.local_pairs, envelope, case.params)
    t2 = time.perf_counter()
    return OpResult(t1 - t0, t2 - t1, missing_locally, missing_remotely, complete, False)


@dataclass(frozen=True)
class Workload:
    name: str
    salt: int             # keeps workloads' inputs apart under one seed
    distinct_keys: int    # distinct keys one op touches
    make_cases: Callable[[np.random.Generator], list[Case]]
    run: Callable[[Case], OpResult]
    reference: tuple[int, int, int]   # hostspeed.Reference grid: rows, keys, steps

    def cases(self, seed: int) -> list[Case]:
        return self.make_cases(np.random.default_rng([seed, self.salt]))

    def sketch_bytes(self, case: Case) -> int:
        return len(reconcile.serialize(stacked.StackedSketch(case.params)))


WORKLOADS = {w.name: w for w in (
    # C1 acceptance shape: a fresh small sketch per op, so construction and
    # per-stage decode bookkeeping are a real share beside hashing.
    Workload("trials", 1, 256,
             lambda rng: _plain_cases(rng, 64, 256, 2.0 ** -8, 256, 0), _run_plain,
             (16, 256, 32)),
    # Large batches: bucket hashing dominates, with deletes beside inserts
    # so a trade between mutation and decode cost shows.
    Workload("bulk", 2, 6144,
             lambda rng: _plain_cases(rng, 4, 4096, 2.0 ** -10, 6144, 2048), _run_plain,
             (32, 6144, 2)),
    # The only path through the power hash, object hash sums, the envelope,
    # subtraction and minus-side decode.
    Workload("reconcile", 3, 1280, _reconcile_cases, _run_reconcile, (32, 1152, 8)),
)}
