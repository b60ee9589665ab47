"""Golden-output pin: seeded envelopes and decode outcomes stay byte-stable.

The expected digest was computed once from the implementation this test
was written against. Any change to hashing, cell arithmetic, the decode
order, `stage_recoveries` or the envelope encoding changes it.
"""

import hashlib

import numpy as np

from stacked_iblt.reconcile import serialize
from stacked_iblt.stacked import Params, StackedSketch

GOLDEN = "1e4f1c0c0c0372e9357a5d3ca82bd319e40469eb22676ae25666d06429f5fdcd"


def _mutated(params, n_insert, n_false, n_unsigned, seed):
    rng = np.random.default_rng(seed)
    total = n_insert + n_false + 1
    keys = rng.choice(2**55, size=total, replace=False).astype(np.uint64)
    vals = rng.integers(0, 2**64, size=total, dtype=np.uint64)
    s = StackedSketch(params)
    s.insert_arrays(keys[:n_insert], vals[:n_insert])
    # False deletions of never-inserted pairs; sign -1 adds the last pair.
    signed = [(1, int(k), int(v)) for k, v in zip(keys[n_insert:-1], vals[n_insert:-1])]
    s.delete(signed + [(-1, int(keys[-1]), int(vals[-1]))])
    s.delete_pairs(list(zip(keys[:n_unsigned].tolist(), vals[:n_unsigned].tolist())))
    return s


def _feed(h, sketch):
    h.update(serialize(sketch))
    out = sketch.list_entries()
    h.update(repr((sorted(out.recovered_plus), sorted(out.recovered_minus),
                   out.complete, out.inconsistent, out.stage_recoveries)).encode())
    sketch.list_entries(in_place=True)
    h.update(serialize(sketch))


def test_golden_envelopes_and_outcomes():
    plain = Params(n=256, delta=2.0**-8, master_seed=5)
    check = Params(n=64, delta=2.0**-6, mode="checksum", master_seed=6)
    h = hashlib.sha256()
    for params, n_insert, n_false, n_unsigned in (
            (plain, 200, 0, 40),        # decodes completely
            (plain, 4000, 8, 20),       # overloaded: false recoveries, residue left
            (check, 50, 12, 10),        # false deletions land on the minus side
            (check, 1500, 30, 10)):     # overloaded in checksum mode
        _feed(h, _mutated(params, n_insert, n_false, n_unsigned, seed=n_insert))
    assert h.hexdigest() == GOLDEN
