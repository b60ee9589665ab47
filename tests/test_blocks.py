"""A batch is hashed and scattered one kernel key block at a time.

Block edges change no byte of a sketch or of a decode, and the memory a
mutation or a decode takes is bounded by the block, not by the batch.
"""

import tracemalloc

import numpy as np
import pytest

from stacked_iblt import hashing
from stacked_iblt.reconcile import serialize
from stacked_iblt.stacked import Params, StackedSketch

BULK = Params(n=4096, delta=2.0**-10, master_seed=21)                      # 69 rows, k = 40
CHECKSUM = Params(n=256, delta=2.0**-10, mode="checksum", master_seed=22)  # 65 rows, k = 36


def block_edge(params):
    """Keys per block of a sketch's stack, from the kernel's own sizing (as
    `test_hashing.block_edge` takes it)."""
    rows, k = StackedSketch(params)._stack.coefficients.shape
    return hashing._block_keys(rows, k, min(k, hashing.CHUNK_POWERS))


SHAPES = {"bulk": BULK, "checksum": CHECKSUM}


def pairs(size, seed):
    rng = np.random.default_rng(seed)
    keys = rng.choice(1 << 60, size=size, replace=False).astype(np.uint64)
    return keys, rng.integers(0, 1 << 64, size=size, dtype=np.uint64)


def signs(size, edge):
    """+1 before the first block edge and -1 from it on, every 7th flipped:
    the signs change across the edge and inside each block."""
    out = np.where(np.arange(size) < edge, 1, -1)
    out[::7] *= -1
    return out


OPS = {
    "insert_arrays": lambda s, keys, vals, sg: s.insert_arrays(keys, vals),
    "delete_pairs": lambda s, keys, vals, sg: s.delete_pairs(zip(keys.tolist(), vals.tolist())),
    "delete": lambda s, keys, vals, sg: s.delete(zip(sg.tolist(), keys.tolist(), vals.tolist())),
}


def state(s):
    budget = s._cells.budget
    return serialize(s), s.item_balance, budget and budget.updates


def test_the_scatter_block_is_the_kernel_block():
    assert (block_edge(BULK), block_edge(CHECKSUM)) == (1154, 1230)
    for params in SHAPES.values():
        assert StackedSketch(params)._stack.block == block_edge(params)


@pytest.mark.parametrize("op", sorted(OPS))
@pytest.mark.parametrize("size", ["B-1", "B", "B+1", "2B+7"])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_one_call_matches_calls_of_at_most_100_keys(shape, size, op):
    params = SHAPES[shape]
    edge = block_edge(params)
    n = {"B-1": edge - 1, "B": edge, "B+1": edge + 1, "2B+7": 2 * edge + 7}[size]
    keys, vals = pairs(n, n)
    sg = signs(n, edge)
    whole, parts = StackedSketch(params), StackedSketch(params)
    OPS[op](whole, keys, vals, sg)
    for a in range(0, n, 100):
        OPS[op](parts, keys[a:a + 100], vals[a:a + 100], sg[a:a + 100])
    assert state(whole) == state(parts)
    assert not whole.is_zero()


@pytest.mark.parametrize("mode", ["plain", "checksum"])
def test_an_overloaded_decode_matches_one_block_per_call(monkeypatch, mode):
    # 9,000 pairs at n = 4096: stage 0 recovers about 8,100 of them, so its
    # subtraction (with extraction's power hashes, in checksum mode) spans
    # seven block edges, and stage 1 most of the rest. With the block
    # widened past the batch, every scatter is one block.
    params = Params(n=4096, delta=2.0**-10, mode=mode, master_seed=21)
    keys, vals = pairs(9000, 5)

    def decoded(block):
        s = StackedSketch(params)
        assert s._stack.block == block
        s.insert_arrays(keys, vals)
        out = s.list_entries(in_place=True)
        return out, serialize(s)

    edge = block_edge(params)
    out, residual = decoded(edge)
    assert len(out.stage_recoveries[0][0]) > 7 * edge
    monkeypatch.setattr(StackedSketch(params)._stack, "block", 10 * keys.size)
    wide, wide_residual = decoded(10 * keys.size)
    assert (wide.stage_recoveries, wide.complete, wide.inconsistent) == \
        (out.stage_recoveries, out.complete, out.inconsistent)
    assert (wide.recovered_plus, wide.recovered_minus) == (out.recovered_plus, out.recovered_minus)
    assert wide_residual == residual


# -- bounded memory ---------------------------------------------------------------

def traced_peak(call):
    """The tracemalloc peak, in bytes, of call() over what was allocated before it."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def insert_peak(params, size):
    keys, vals = pairs(size, 7)
    StackedSketch(params).insert_arrays(keys[:10], vals[:10])     # the power table, once
    s = StackedSketch(params)
    return traced_peak(lambda: s.insert_arrays(keys, vals))


@pytest.mark.parametrize("mode", ["plain", "checksum"])
def test_a_large_insert_takes_memory_of_one_block(mode):
    # At the `bulk` shape a whole-batch scatter peaked 222 MB above the
    # store for 200,000 keys and 22 MB for 20,000.
    params = Params(n=4096, delta=2.0**-10, mode=mode, master_seed=23)
    large, small = insert_peak(params, 200_000), insert_peak(params, 20_000)
    assert large < 4_000_000 and large < 2 * small


def test_a_decode_takes_memory_of_one_block():
    # 4,096 pairs at n = 4096 (stage 0 recovers about four blocks' worth)
    # peaked 5.06 MB when each stage was hashed and tiled whole.
    keys, vals = pairs(4096, 8)
    s = StackedSketch(BULK)
    s.insert_arrays(keys, vals)
    s.list_entries()
    out = []
    assert traced_peak(lambda: out.append(s.list_entries(in_place=True))) < 3_000_000
    assert out[0].complete and len(out[0].recovered_plus) == keys.size
