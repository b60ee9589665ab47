"""Checksum hash sums as int64 limb lanes: the reduction against Python ints,
the update budget that keeps lanes exact, and non-canonical lanes through
the envelope and subtraction."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stacked_iblt import core, hashing
from stacked_iblt.core import LANE_BUDGET, extract, reduce_lanes, to_lanes
from stacked_iblt.hashing import KWiseHash, eval_poly_rows
from stacked_iblt.reconcile import deserialize, serialize
from stacked_iblt.stacked import Params, StackedSketch

DEFAULT_Q = Params(n=256, delta=2.0**-10, mode="checksum").q      # 106 bits
MODULI = [389, DEFAULT_Q, (1 << 128) - 159]                        # the last is prime
LIMB = (1 << 32) - 1
# Lanes after LANE_BUDGET updates, and a difference of two such stores.
BOUND = LANE_BUDGET * LIMB
INT64 = (-(1 << 63), (1 << 63) - 1)


def value(lanes):
    """The Python ints sum_j lanes[j] * 2^(32j), one per column."""
    return [sum(int(lanes[j, c]) << 32 * j for j in range(4)) for c in range(lanes.shape[1])]


def check(cols, q):
    lanes = np.array(cols, dtype=np.int64).reshape(-1, 4).T
    got = reduce_lanes(lanes, q)
    assert got.dtype == np.int64 and got.shape == lanes.shape
    assert ((got >= 0) & (got <= LIMB)).all()
    assert value(got) == [v % q for v in value(lanes)]


def lane_values(bound):
    return st.integers(-bound, bound) | st.sampled_from([0, 1, -1, LIMB, -LIMB, bound, -bound])


@pytest.mark.parametrize("q", MODULI)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_reduce_matches_python_ints_within_the_budget(q, data):
    bound = data.draw(st.sampled_from([LIMB, BOUND, 2 * BOUND]))
    cells = data.draw(st.lists(st.tuples(*[lane_values(bound)] * 4), min_size=1, max_size=40))
    check(cells, q)


@pytest.mark.parametrize("q", MODULI)
@settings(max_examples=100, deadline=None)
@given(cells=st.lists(st.tuples(*[st.integers(*INT64)] * 4), min_size=1, max_size=20))
def test_reduce_takes_any_int64_lanes(q, cells):
    check(cells, q)


@pytest.mark.parametrize("q", MODULI)
def test_reduce_near_multiples_of_q(q):
    # A multiple of q must come out 0, not q: the quotient estimate is exact there.
    rng = np.random.default_rng(5)
    vals = [int(k) * q + e for k in rng.integers(-2**20, 2**20, size=300) for e in (-1, 0, 1)]
    vals += [0, q - 1, q, q + 1, -q, (1 << 125) // q * q]
    lanes = np.array([[(v >> 32 * j) & LIMB for v in vals] for j in range(3)]
                     + [[v >> 96 for v in vals]], dtype=np.int64)
    assert value(lanes) == vals
    assert value(reduce_lanes(lanes, q)) == [v % q for v in vals]


def test_reduce_spans_blocks_and_views():
    # More cells than one pass, a strided segment view and a transposed copy.
    q = DEFAULT_Q
    rng = np.random.default_rng(6)
    lanes = rng.integers(-BOUND, BOUND, size=(4, 3 * core._REDUCE_BLOCK + 7), dtype=np.int64)
    want = [v % q for v in value(lanes)]
    assert value(reduce_lanes(lanes, q)) == want
    assert value(reduce_lanes(lanes[:, 5:-3], q)) == want[5:-3]
    assert value(reduce_lanes(np.asfortranarray(lanes[:, :50]), q)) == want[:50]
    assert reduce_lanes(lanes[:, :0], q).shape == (4, 0)


def reconcile_store():
    """The lanes of a `reconcile`-shape sketch (16,720 cells) after 1,152 inserts."""
    rng = np.random.default_rng(9)
    s = StackedSketch(Params(n=256, delta=2.0**-10, mode="checksum", master_seed=4))
    s.insert_arrays(rng.choice(2**55, size=1152, replace=False).astype(np.uint64),
                    rng.integers(0, 2**64, size=1152, dtype=np.uint64))
    return s


def test_warm_reduce_allocates_only_its_output():
    # A block's digits and product come from the thread's scratch area,
    # which tracemalloc does not see.
    s = reconcile_store()
    lanes, q = s._cells.hash_sum, s.params.q
    want = reduce_lanes(lanes, q)
    tracemalloc.start()
    try:
        out = reduce_lanes(lanes, q)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == (4, 16720) and np.array_equal(out, want)
    assert peak < out.nbytes + 100_000


def test_reduce_after_a_larger_kernel_call_gives_fresh_thread_results(on_fresh_thread):
    s = reconcile_store()
    lanes, q = s._cells.hash_sum[:, :5000], s.params.q
    want = on_fresh_thread(lambda: reduce_lanes(lanes, q))
    s._stack.flat_cells(np.arange(700, dtype=np.uint64))   # (65, 36): 872 KB of the area
    assert np.array_equal(reduce_lanes(lanes, q), want)
    assert np.array_equal(reduce_lanes(lanes[:, :9], q), want[:, :9])


RETURNED = {
    "flat_cells": lambda s, keys: [s._stack.flat_cells(keys), s._stack.flat_cells(keys[:1])],
    "eval_poly_rows": lambda s, keys: [eval_poly_rows(s._stack.limbs, keys, s._stack.gamma)],
    "eval_batch": lambda s, keys: [KWiseHash(1, 8, 100).eval_batch(keys)],
    "reduce_lanes": lambda s, keys: [reduce_lanes(s._cells.hash_sum, s.params.q)],
    "residues": lambda s, keys: [s._cells.residues()],
    "extract": lambda s, keys: list(extract(s.tables[0]._cells, s.checksum)),
}


@pytest.mark.parametrize("name", sorted(RETURNED))
def test_no_returned_array_shares_the_scratch_area(name):
    s = reconcile_store()
    outs = RETURNED[name](s, np.arange(300, dtype=np.uint64))
    area = hashing._SCRATCH.words
    assert outs and not any(np.shares_memory(out, area) for out in outs)


def test_to_lanes_splits_limbs():
    vals = [0, 1, LIMB, 1 << 32, (1 << 128) - 1, DEFAULT_Q - 1]
    lanes = to_lanes(np.array(vals, dtype=object))
    assert lanes.dtype == np.int64 and lanes.flags.c_contiguous
    assert value(lanes) == vals


# -- the update budget ----------------------------------------------------------

CHECK = Params(n=32, delta=2.0**-6, mode="checksum", master_seed=11)


def build(batches):
    """A sketch after the insert and delete batches, its bound checked after each."""
    s = StackedSketch(CHECK)
    for kind, keys, vals in batches:
        if kind == "insert":
            s.insert_arrays(keys, vals)
        else:
            s.delete_pairs(zip(keys.tolist(), vals.tolist()))
        assert s._cells.budget.updates <= core.LANE_BUDGET
    return s


def batches():
    rng = np.random.default_rng(9)
    keys = rng.choice(2**55, size=400, replace=False).astype(np.uint64)
    vals = rng.integers(0, 2**64, size=400, dtype=np.uint64)
    return [("insert", keys[:30], vals[:30]), ("insert", keys[30:330], vals[30:330]),
            ("delete", keys[40:320], vals[40:320]),      # leaves 50 inserted pairs
            ("delete", keys[330:350], vals[330:350])]    # 20 false deletions


def test_crossing_the_budget_reduces_and_keeps_the_envelope(monkeypatch):
    plain = build(batches())
    assert plain._cells.budget.updates == 1 + 300 + 30 + 280 + 20
    want_bytes, want = serialize(plain), plain.list_entries()

    reductions = []
    reduce = core.reduce_lanes

    def counted(lanes, q, out=None):
        reductions.append(lanes.shape[1])
        return reduce(lanes, q, out)

    monkeypatch.setattr(core, "LANE_BUDGET", 64)
    monkeypatch.setattr(core, "reduce_lanes", counted)
    small = build(batches())
    # Whole-store reductions only, and the 300-key batch went in blocks of 63.
    assert len(reductions) >= 300 // 63
    assert set(reductions) == {plain.cell_count()}
    assert serialize(small) == want_bytes
    got = small.list_entries()
    assert (got.recovered_plus, got.recovered_minus, got.complete) == \
        (want.recovered_plus, want.recovered_minus, want.complete)
    assert got.complete and len(got.recovered_minus) == 20


def test_difference_past_the_budget_is_reduced(monkeypatch):
    monkeypatch.setattr(core, "LANE_BUDGET", 64)
    a = build(batches()[:1])
    a._cells.budget.updates = 40          # as if 39 more updates had landed
    d = a.subtract(a.copy())
    assert d._cells.budget.updates == 1 and d.is_zero()


# -- non-canonical lanes through the envelope and subtraction ---------------------

def false_deletion_sketch(seed):
    rng = np.random.default_rng(seed)
    keys = rng.choice(2**55, size=60, replace=False).astype(np.uint64)
    vals = rng.integers(0, 2**64, size=60, dtype=np.uint64)
    s = StackedSketch(CHECK)
    s.insert_arrays(keys[:30], vals[:30])
    s.delete_pairs(zip(keys[30:].tolist(), vals[30:].tolist()))
    return s, keys, vals


def test_envelope_roundtrip_with_false_deletions():
    s, _, _ = false_deletion_sketch(1)
    assert (s._cells.hash_sum < 0).any()            # the lanes are not canonical
    t = deserialize(serialize(s))
    assert not np.array_equal(t._cells.hash_sum, s._cells.hash_sum)
    assert t == s
    assert serialize(t) == serialize(s)
    t.insert([(12345, 678)])
    assert t != s


def test_subtract_equality_with_false_deletions():
    a, keys, vals = false_deletion_sketch(2)
    b = StackedSketch(CHECK)
    b.insert_arrays(keys[:10], vals[:10])
    b.delete_pairs(zip(keys[50:].tolist(), vals[50:].tolist()))
    c, _, _ = false_deletion_sketch(2)
    c.delete_pairs(zip(keys[:10].tolist(), vals[:10].tolist()))
    c.insert_arrays(keys[50:], vals[50:])
    assert a.subtract(b) == c
    assert deserialize(serialize(a)).subtract(b) == c
    out = a.subtract(b).list_entries()
    assert out.complete
    assert out.recovered_plus == set(zip(keys[10:30].tolist(), vals[10:30].tolist()))
    assert out.recovered_minus == set(zip(keys[30:50].tolist(), vals[30:50].tolist()))


def test_hash_sum_grid_is_canonical_and_read_only():
    s, _, _ = false_deletion_sketch(3)
    q = CHECK.q
    for tab in s.tables:
        grid = tab.hash_sum
        assert grid.shape == (tab.rows, tab.cols) and not grid.flags.writeable
        lanes = tab._cells.hash_sum
        assert grid.reshape(-1).tolist() == [v % q for v in value(lanes)]
    with pytest.raises(ValueError):
        s.tables[0].hash_sum[0, 0] = 1
