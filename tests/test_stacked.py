import ast
import collections
import inspect
import math
import pathlib

import numpy as np
import pytest

import stacked_iblt
from stacked_iblt import stacked
from stacked_iblt.core import extract, to_lanes
from stacked_iblt.hashing import KWiseHash, PowerHash, bucket_stream_id
from stacked_iblt.reconcile import serialize
from stacked_iblt.stacked import (DEFAULT_BIG_C, MAX_INDEPENDENCE, DecodeOutcome,
                                  Params, StackedSketch, default_independence,
                                  plan_layout)

from reference import LookupHash, lookup_stack, reference_list_entries


def layout_oracle(n, delta, big_c, c0):
    """Independent spreadsheet-style recomputation of the table dimensions."""
    tau = 1
    while tau < max(c0 * math.log2(1 / delta), 2):
        tau *= 2
    n2 = 1
    while n2 < n:
        n2 *= 2
    dims = []
    if n2 >= tau:
        for i in range(int(math.log2(n2)) - int(math.log2(tau))):
            dims.append((1, math.ceil(big_c * n2 * 2.0 ** -i)))
        for i in range(int(math.log2(tau))):
            dims.append((2 ** i, math.ceil(big_c * tau * 2.0 ** -i)))
    else:
        for i in range(int(math.log2(tau // n2)), int(math.log2(tau)) + 1):
            dims.append((2 ** i, math.ceil(big_c * tau * 2.0 ** -i)))
    return tau, dims


def random_pairs(rng, size, key_bound=2**55):
    keys = rng.choice(key_bound, size=size, replace=False).astype(np.uint64)
    vals = rng.integers(0, 2**64, size=size, dtype=np.uint64)
    return keys, vals


# -- params ---------------------------------------------------------------------

def test_params_defaults_and_validation():
    p = Params(n=256, delta=2.0**-8)
    assert p.big_c == DEFAULT_BIG_C and p.c0 == 4.0
    assert p.k == default_independence(256, 2.0**-8)
    assert p.k % 2 == 0 and p.k >= 2
    assert p.meets_guarantee
    with pytest.raises(ValueError):
        Params(n=0, delta=0.5)
    with pytest.raises(ValueError):
        Params(n=4, delta=1.5)
    with pytest.raises(ValueError):
        Params(n=4, delta=float("nan"))
    with pytest.raises(ValueError):
        Params(n=4, delta=0.5, k=3)
    with pytest.raises(ValueError):
        Params(n=4, delta=0.5, mode="fancy")
    with pytest.raises(ValueError):
        Params(n=4, delta=0.5, p=97)   # p/q are checksum-mode settings


def test_params_bound_k():
    # k sizes the R x k coefficient and limb matrices, so it is capped;
    # defaults stay far below the cap even at extreme n and delta.
    assert Params(n=4, delta=0.5, k=MAX_INDEPENDENCE).k == MAX_INDEPENDENCE
    with pytest.raises(ValueError, match=f"at most MAX_INDEPENDENCE = {MAX_INDEPENDENCE}"):
        Params(n=4, delta=0.5, k=MAX_INDEPENDENCE + 2)
    assert default_independence(2**64 - 1, 2.0**-1000) <= MAX_INDEPENDENCE


def test_default_k_satisfies_target_inequality():
    # k = 2*ceil(lg(4*lg^2(n)/delta)); the inequality is tight (equality)
    # exactly when the argument is a power of two.
    for n in (2, 64, 1024, 2**16):
        for delta in (0.25, 2.0**-8, 2.0**-40, 0.3):
            k = default_independence(n, delta)
            lgn = math.ceil(math.log2(max(n, 2)))
            assert 2.0 ** (-k / 2) <= delta / (4 * lgn * lgn)
            assert k % 2 == 0 and k >= 2


def test_default_k_for_subnormal_delta():
    # 4 lg^2(n) / delta overflows a float here; the log-domain form gives
    # k = 2 * ceil(2 + 2 lg 40 + 1074), inside the MAX_INDEPENDENCE bound.
    p = Params(n=2**40, delta=5e-324)
    assert p.k == default_independence(2**40, 5e-324) == 2174
    assert p.meets_guarantee


@pytest.mark.parametrize("field,value,want", [
    ("n", np.int64(256), 256), ("k", np.int32(8), 8), ("master_seed", np.uint64(5), 5),
    ("n", 2.5, None), ("n", "256", None), ("k", 8.0, None), ("master_seed", 1.5, None),
    ("p", np.int64(5), 5), ("q", np.uint64(11), 11),
    ("p", 5.0, None), ("q", 11.0, None), ("p", "5", None)])
def test_params_integer_fields(field, value, want):
    # n, k, master_seed, p and q are normalized to int; anything not an
    # integer is refused up front, not deep inside hashing.
    kwargs = {"n": 256, "delta": 0.25, field: value}
    if field in ("p", "q"):
        kwargs = {"mode": "checksum", "p": 5, "q": 11, **kwargs}
    if want is None:
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            Params(**kwargs)
        return
    p = Params(**kwargs)
    assert type(getattr(p, field)) is int and getattr(p, field) == want
    s = StackedSketch(p)
    s.insert([(1, 2)])
    assert s.list_entries().recovered_plus == {(1, 2)}


def test_tau_rounds_up_to_power_of_two():
    assert Params(n=1024, delta=2.0**-10).tau == 64
    assert Params(n=1024, delta=2.0**-16, c0=4.0).tau == 64
    assert Params(n=16, delta=0.5, c0=4.0).tau == 4
    assert Params(n=16, delta=0.25, c0=3.0).tau == 8


def test_checksum_defaults():
    p = Params(n=64, delta=2.0**-6, mode="checksum")
    assert p.p == 2**61 - 1
    assert p.q > p.p and p.q.bit_length() <= 128
    assert p.q >= p.checksum_bound
    assert p.meets_guarantee
    small_q = Params(n=64, delta=2.0**-6, mode="checksum", q=2305843009213693967)
    assert not small_q.meets_guarantee          # explicit 61-bit q below the 95-bit bound
    with pytest.raises(ValueError):
        Params(n=64, delta=2.0**-6, mode="checksum", p=96)
    with pytest.raises(ValueError):
        Params(n=64, delta=2.0**-6, mode="checksum", p=101, q=101)
    with pytest.raises(ValueError):
        Params(n=2**20, delta=2.0**-64, mode="checksum")  # bound beyond 128 bits


def test_guarantee_flag_tracks_overrides():
    assert not Params(n=16, delta=0.5, big_c=4.0).meets_guarantee
    assert not Params(n=16, delta=0.5, c0=1.0).meets_guarantee
    assert not Params(n=256, delta=2.0**-8, k=4).meets_guarantee
    assert Params(n=16, delta=0.5).meets_guarantee


# -- layout ----------------------------------------------------------------------

def test_layout_worked_example():
    lay = plan_layout(Params(n=1024, delta=2.0**-10))
    assert lay.tau == 64
    assert len(lay.tables) == 10
    assert lay.single_count == 4
    c = DEFAULT_BIG_C
    want = [(1, math.ceil(c * 1024 / 2**i)) for i in range(4)] + \
           [(2**i, math.ceil(c * 64 / 2**i)) for i in range(6)]
    assert list(lay.tables) == want


def test_layout_n1_single_grouped_region():
    for delta in (0.5, 0.25, 2.0**-8, 2.0**-20):
        lay = plan_layout(Params(n=1, delta=delta))
        assert len(lay.tables) == 1
        assert lay.single_count == 0
        rows, cols = lay.tables[0]
        assert rows == lay.tau
        assert cols == math.ceil(DEFAULT_BIG_C * lay.tau / lay.tau)


def test_layout_table_count_is_lg_capacity():
    for n in (2, 3, 64, 100, 1024, 2**16):
        p = Params(n=n, delta=2.0**-8)
        lay = plan_layout(p)
        if p.capacity >= lay.tau:
            assert len(lay.tables) == p.capacity.bit_length() - 1


def test_layout_conformance_spot_grid():
    for n in (1, 2, 5, 16, 100, 1024, 2**14, 2**20):
        for delta in (2.0**-4, 2.0**-8, 2.0**-16, 2.0**-32, 2.0**-64):
            p = Params(n=n, delta=delta)
            lay = plan_layout(p)
            tau, dims = layout_oracle(n, delta, p.big_c, p.c0)
            assert lay.tau == tau
            assert list(lay.tables) == dims


def test_layout_cell_bound_closed_form():
    for n in (1, 2, 64, 2**10, 2**16):
        for delta in (2.0**-4, 2.0**-20, 2.0**-64):
            p = Params(n=n, delta=delta)
            lay = plan_layout(p)
            assert lay.total_cells <= lay.cell_bound(p.big_c)


def test_cell_count_doubling_growth():
    for delta in (2.0**-8, 2.0**-20):
        prev = None
        for lg_n in range(4, 18):
            cells = plan_layout(Params(n=2**lg_n, delta=delta)).total_cells
            if prev is not None:
                assert cells <= 2.2 * prev
            prev = cells


def test_cell_count_tracks_delta_term():
    n = 2**10
    base = plan_layout(Params(n=n, delta=2.0**-8)).total_cells

    def model(delta):
        lg = math.log2(1 / delta)
        return n + lg * math.log2(lg)

    for delta in (2.0**-16, 2.0**-32, 2.0**-64):
        cells = plan_layout(Params(n=n, delta=delta)).total_cells
        ratio = (cells / base) / (model(delta) / model(2.0**-8))
        assert 0.25 < ratio < 4.0


# -- sketch lifecycle ---------------------------------------------------------------

def test_init_deterministic():
    p = Params(n=32, delta=2.0**-6, master_seed=5)
    a, b = StackedSketch(p), StackedSketch(p)
    assert a == b
    assert a.is_zero()


def test_checksum_shared_across_tables():
    p = Params(n=32, delta=2.0**-6, mode="checksum", master_seed=5)
    s = StackedSketch(p)
    assert all(t.checksum == s.checksum for t in s.tables)
    assert all(t.hash_sum is not None for t in s.tables)


def test_insert_empty_is_noop():
    p = Params(n=16, delta=0.25)
    s, t = StackedSketch(p), StackedSketch(p)
    s.insert([])
    assert s == t and s.item_balance == 0


def test_insert_touches_each_row_once():
    s = StackedSketch(Params(n=16, delta=2.0**-4))
    s.insert({(5, 7)})
    for t in s.tables:
        assert t.count.sum(axis=1).tolist() == [1] * t.rows
    assert s.item_balance == 1


def test_stacked_cells_match_per_table_bucket_rows():
    # The one-matrix draw must place every key where independently built
    # row hashes do: row r of table t is KWiseHash on stream
    # bucket_stream_id(t, r), and its indices point into the sketch's flat
    # store at the table's base plus r * cols.
    p = Params(n=256, delta=2.0**-10, master_seed=11)
    s = StackedSketch(p)
    keys = np.random.default_rng(11).integers(0, 2**61 - 1, size=600, dtype=np.uint64)
    want, base = [], 0
    for t, (rows, cols) in enumerate(plan_layout(p).tables):
        buckets = np.stack([
            KWiseHash(p.master_seed, p.k, cols, stream_id=bucket_stream_id(t, r)).eval_batch(keys)
            for r in range(rows)])
        want.append(buckets + np.uint64(base)
                    + (np.arange(rows, dtype=np.uint64) * np.uint64(cols))[:, None])
        base += rows * cols
    assert np.array_equal(s._stack.flat_cells(keys), np.concatenate(want))


def test_sketch_tables_hash_within_their_segments():
    # A table of a sketch hashes with its rows' segment of the stack, so a
    # pair inserted through it lands once per row of that table only.
    s = StackedSketch(Params(n=64, delta=2.0**-6, master_seed=4))
    for i, t in enumerate(s.tables):
        t.insert([(5, 7)])
        assert t.count.sum(axis=1).tolist() == [1] * t.rows
        for r in range(t.rows):
            h = KWiseHash(4, s.params.k, t.cols, stream_id=bucket_stream_id(i, r))
            assert t.count[r, h.eval(5)] == 1
    assert s._cells.count.sum() == sum(t.rows for t in s.tables)


def test_insert_delete_roundtrip_zero():
    s = StackedSketch(Params(n=16, delta=2.0**-4, master_seed=3))
    pairs = [(i, i * i) for i in range(10)]
    s.insert(pairs)
    assert not s.is_zero()
    s.delete([(1, k, v) for k, v in pairs])
    assert s.is_zero() and s.item_balance == 0


def test_delete_absent_then_insert_zero():
    s = StackedSketch(Params(n=4, delta=0.25))
    s.delete([(1, 9, 1)])
    s.insert([(9, 1)])
    assert s.is_zero()


def test_decode_empty_sketch():
    out = StackedSketch(Params(n=8, delta=0.25)).list_entries()
    assert out == DecodeOutcome(set(), set(), True, False, out.stage_recoveries)


def test_decode_single_pair_first_table():
    s = StackedSketch(Params(n=64, delta=2.0**-6))
    s.insert({(123, 456)})
    out = s.list_entries()
    assert out.complete and not out.inconsistent
    assert out.recovered_plus == {(123, 456)}
    assert out.stage_recoveries[0][0] == ((123, 456),)


def test_decode_roundtrip_plain_100():
    rng = np.random.default_rng(7)
    s = StackedSketch(Params(n=128, delta=2.0**-8, master_seed=1))
    keys, vals = random_pairs(rng, 100)
    s.insert_arrays(keys, vals)
    out = s.list_entries()
    assert out.complete and not out.inconsistent
    assert out.recovered_plus == set(zip(keys.tolist(), vals.tolist()))
    assert out.recovered_minus == set()
    # non-destructive: the sketch still decodes
    assert s.list_entries().complete


def test_decode_inplace_consumes():
    s = StackedSketch(Params(n=16, delta=2.0**-4))
    s.insert([(1, 2), (3, 4)])
    out = s.list_entries(in_place=True)
    assert out.complete
    assert s.is_zero()


def test_false_deletions_roundtrip():
    rng = np.random.default_rng(8)
    p = Params(n=64, delta=2.0**-6, mode="checksum", master_seed=2)
    s = StackedSketch(p)
    keys, vals = random_pairs(rng, 50)
    s.insert_arrays(keys[:30], vals[:30])
    s.delete([(1, int(k), int(v)) for k, v in zip(keys[30:], vals[30:])])
    out = s.list_entries()
    assert out.complete and not out.inconsistent
    assert out.recovered_plus == set(zip(keys[:30].tolist(), vals[:30].tolist()))
    assert out.recovered_minus == set(zip(keys[30:].tolist(), vals[30:].tolist()))


@pytest.mark.parametrize("mode", ["plain", "checksum"])
def test_contradicting_pure_cells_mark_inconsistent(mode):
    # Two pure cells of the last table disagree on key 5: in plain mode two
    # count-1 cells with values 7 and 8, in checksum mode the pair (5, 7) as
    # a +1 cell and as a -1 cell. Only the first (5, 7) is admitted.
    extra = {"mode": "checksum", "p": 97, "q": 389} if mode == "checksum" else {}
    s = StackedSketch(Params(n=16, delta=0.25, **extra))
    tab = s.tables[-1]
    cells = [(5, 7, 1), (5, 8, 1)] if mode == "plain" else [(5, 7, 1), (-5, -7, -1)]
    for col, (k, v, c) in enumerate(cells):
        tab.key_sum[0, col], tab.value_sum[0, col], tab.count[0, col] = k % 2**64, v % 2**64, c
        if mode == "checksum":
            tab._cells.hash_sum[:, col] = to_lanes([c * s.checksum.eval(5) % 389])[:, 0]
    out = s.list_entries()
    assert out.inconsistent
    assert out.stage_recoveries[-1] == (((5, 7),), ())
    assert all(stage == ((), ()) for stage in out.stage_recoveries[:-1])


@pytest.mark.parametrize("mode, calls", [("checksum", 2), ("plain", 8)])
def test_stage_loop_stops_once_the_remaining_counts_are_zero(monkeypatch, mode, calls):
    # At the C1 shape with 16 false deletions: in checksum mode stages 0
    # and 1 recover everything, so the six later tables hold only zero
    # counts and are not extracted. In plain mode the -1 cells stay, and
    # every table is extracted.
    rng = np.random.default_rng(1)
    s = StackedSketch(Params(n=256, delta=2.0**-8, mode=mode, master_seed=1))
    keys = rng.choice(1 << 40, size=256, replace=False).astype(np.uint64)
    vals = rng.integers(0, 1 << 64, size=256, dtype=np.uint64)
    s.insert_arrays(keys[:240], vals[:240])
    s.delete_pairs(list(zip(keys[240:].tolist(), vals[240:].tolist())))
    seen = []

    def counted(cells, checksum):
        seen.append(cells.count.size)
        return extract(cells, checksum)

    monkeypatch.setattr(stacked, "extract", counted)
    out = s.list_entries()
    assert seen == [t.rows * t.cols for t in s.tables[:calls]]
    plus = tuple(sorted(zip(keys[:240].tolist(), vals[:240].tolist())))
    minus = tuple(sorted(zip(keys[240:].tolist(), vals[240:].tolist())))
    stages = out.stage_recoveries
    assert len(stages) == len(s.tables)
    assert stages[0][0] and stages[1][0] and stages[2:] == (((), ()),) * 6
    if mode == "checksum":
        assert out.complete and not out.inconsistent
        assert tuple(sorted(stages[0][0] + stages[1][0])) == plus
        assert tuple(sorted(stages[0][1] + stages[1][1])) == minus
    else:
        assert not out.complete and not out.inconsistent
        assert tuple(sorted(stages[0][0] + stages[1][0])) == plus
    # An empty sketch extracts nothing and records every stage empty.
    seen.clear()
    out = StackedSketch(Params(n=256, delta=2.0**-8, mode=mode)).list_entries()
    assert seen == [] and out.complete
    assert out.stage_recoveries == (((), ()),) * 8


def test_checksum_decode_evaluates_each_power_hash_once(monkeypatch):
    rng = np.random.default_rng(13)
    s = StackedSketch(Params(n=256, delta=2.0**-8, mode="checksum", master_seed=3))
    keys, vals = random_pairs(rng, 256)
    s.insert_arrays(keys, vals)
    evaluated = collections.Counter()
    eval_one, eval_batch = PowerHash.eval, PowerHash.eval_batch

    def counted_one(self, key):
        evaluated[int(key)] += 1
        return eval_one(self, key)

    def counted_batch(self, ks):
        # eval_batch computes each distinct key once.
        evaluated.update(np.unique(np.asarray(ks, dtype=np.uint64)).tolist())
        return eval_batch(self, ks)

    monkeypatch.setattr(PowerHash, "eval", counted_one)
    monkeypatch.setattr(PowerHash, "eval_batch", counted_batch)
    out = s.list_entries()
    assert out.complete and out.recovered_plus == set(zip(keys.tolist(), vals.tolist()))
    assert set(keys.tolist()) <= set(evaluated)
    assert max(evaluated.values()) == 1


def test_checksum_sketch_never_calls_pow(monkeypatch):
    # Mutations and the decode take every power hash from the fixed-base
    # table; builtin pow is only PowerHash.eval, the oracle. The cache is
    # cleared so the table itself is built under the patch too.
    rng = np.random.default_rng(21)
    s = StackedSketch(Params(n=256, delta=2.0**-8, mode="checksum", master_seed=5))
    keys, vals = random_pairs(rng, 256)

    def no_pow(*args):
        raise AssertionError("builtin pow called")

    stacked_iblt.hashing._power_table.cache_clear()
    monkeypatch.setattr(stacked_iblt.hashing, "pow", no_pow, raising=False)
    with pytest.raises(AssertionError):
        s.checksum.eval(1)              # the patch reaches the module
    s.insert_arrays(keys[:200], vals[:200])
    s.delete_pairs(zip(keys[200:].tolist(), vals[200:].tolist()))
    out = s.list_entries()
    assert out.complete and not out.inconsistent
    assert out.recovered_plus == set(zip(keys[:200].tolist(), vals[:200].tolist()))
    assert out.recovered_minus == set(zip(keys[200:].tolist(), vals[200:].tolist()))


def test_sketches_of_one_params_share_power_table():
    params = Params(n=64, delta=2.0**-6, mode="checksum", master_seed=9)
    table = stacked_iblt.hashing._power_table
    table.cache_clear()
    tables = []
    for _ in range(2):
        s = StackedSketch(params)
        s.insert([(3, 4), (5, 6)])
        assert s.list_entries().recovered_plus == {(3, 4), (5, 6)}
        g = s.checksum
        tables.append(table(g.base, g.modulus, g.key_bound.bit_length()))
    assert tables[0] is tables[1]
    assert table.cache_info().misses == 1


def test_decode_soundness_redeletion_zero():
    # complete=true must mean: deleting the output from the original zeroes it.
    rng = np.random.default_rng(9)
    for seed in range(10):
        s = StackedSketch(Params(n=32, delta=2.0**-4, master_seed=seed))
        keys, vals = random_pairs(rng, int(rng.integers(0, 33)))
        s.insert_arrays(keys, vals)
        out = s.list_entries()
        if out.complete and not out.inconsistent:
            s.delete([(1, k, v) for k, v in out.recovered_plus])
            s.delete([(-1, k, v) for k, v in out.recovered_minus])
            assert s.is_zero()


def test_monotone_staging():
    rng = np.random.default_rng(10)
    s = StackedSketch(Params(n=64, delta=2.0**-6, master_seed=4))
    keys, vals = random_pairs(rng, 64)
    truth = set(zip(keys.tolist(), vals.tolist()))
    s.insert_arrays(keys, vals)
    out = s.list_entries()
    unrecovered = len(truth)
    for stage_plus, stage_minus in out.stage_recoveries:
        unrecovered_next = unrecovered - len(set(stage_plus) & truth)
        assert unrecovered_next <= unrecovered
        unrecovered = unrecovered_next
        truth -= set(stage_plus)
    assert out.complete and unrecovered == 0


def test_subtract_self_zero():
    s = StackedSketch(Params(n=16, delta=0.25, mode="checksum"))
    s.insert([(1, 2), (3, 4)])
    assert s.subtract(s).is_zero()


def test_subtract_decodes_symmetric_difference():
    rng = np.random.default_rng(11)
    p = Params(n=32, delta=2.0**-6, mode="checksum", master_seed=6)
    a, b = StackedSketch(p), StackedSketch(p)
    keys, vals = random_pairs(rng, 120)
    shared = list(zip(keys[:100].tolist(), vals[:100].tolist()))
    only_a = list(zip(keys[100:110].tolist(), vals[100:110].tolist()))
    only_b = list(zip(keys[110:].tolist(), vals[110:].tolist()))
    a.insert(shared + only_a)
    b.insert(shared + only_b)
    out = a.subtract(b).list_entries()
    assert out.complete
    assert out.recovered_plus == set(only_a)
    assert out.recovered_minus == set(only_b)


def test_subtract_homomorphism_cell_for_cell():
    # a - b must equal a fresh sketch holding S \ S' inserted and S' \ S
    # false-deleted, so both decode identically at every stage.
    rng = np.random.default_rng(12)
    p = Params(n=16, delta=0.25, mode="checksum", master_seed=7)
    a, b, fresh = StackedSketch(p), StackedSketch(p), StackedSketch(p)
    keys, vals = random_pairs(rng, 30)
    s = list(zip(keys[:20].tolist(), vals[:20].tolist()))       # 10 shared + 10 own
    sp = list(zip(keys[10:].tolist(), vals[10:].tolist()))
    a.insert(s)
    b.insert(sp)
    fresh.insert([x for x in s if x not in sp])
    fresh.delete([(1, k, v) for k, v in sp if (k, v) not in s])
    diff = a.subtract(b)
    assert diff.tables == fresh.tables
    da, df = diff.list_entries(), fresh.list_entries()
    assert da.stage_recoveries == df.stage_recoveries
    assert (da.recovered_plus, da.recovered_minus) == (df.recovered_plus, df.recovered_minus)


def test_subtract_rejects_mismatched_params():
    a = StackedSketch(Params(n=16, delta=0.25, master_seed=1))
    b = StackedSketch(Params(n=16, delta=0.25, master_seed=2))
    with pytest.raises(ValueError):
        a.subtract(b)
    c = StackedSketch(Params(n=32, delta=0.25, master_seed=1))
    with pytest.raises(ValueError):
        a.subtract(c)


def test_space_accounting_methods():
    p = Params(n=1024, delta=2.0**-10)
    s = StackedSketch(p)
    lay = plan_layout(p)
    assert s.cell_count() == sum(r * c for r, c in lay.tables)
    assert s.memory_bits() == s.cell_count() * 24 * 8
    pc = Params(n=16, delta=0.25, mode="checksum")
    assert StackedSketch(pc).memory_bits() == plan_layout(pc).total_cells * 40 * 8


def test_reference_decoder_agrees_on_adversarial_layouts():
    # Small capacities with C forced tiny: plenty of collisions and decode
    # failures; production and the independent oracle must match exactly.
    rng = np.random.default_rng(13)
    agree = failures = 0
    for trial in range(60):
        n = int(rng.integers(1, 9))
        params = Params(n=n, delta=0.25, big_c=float(rng.choice([0.5, 1.0, 2.0])),
                        master_seed=trial)
        load = int(rng.integers(0, n + 1))
        keys = rng.choice(200, size=load, replace=False)
        pairs = [(int(k), int(rng.integers(0, 2**32))) for k in keys]
        lay = plan_layout(params)
        draw = np.random.default_rng(trial)
        mappings = [[{k: int(draw.integers(0, cols)) for k, _ in pairs}
                     for _ in range(rows)] for rows, cols in lay.tables]
        hashes = [[LookupHash(m, cols) for m in table]
                  for table, (_, cols) in zip(mappings, lay.tables)]
        s = StackedSketch.over_rows(params, lookup_stack(hashes, params.k))
        s.insert(pairs)
        got = s.list_entries()
        want = reference_list_entries(s, hashes)
        assert (got.recovered_plus, got.recovered_minus, got.complete, got.inconsistent) == want
        agree += 1
        failures += not got.complete
    assert agree == 60
    assert failures > 0   # the adversarial settings do exercise failure paths


def fixed_rows(params, seed=0):
    # Random LookupHash rows over keys 0..7 for every table row of the layout.
    draw = np.random.default_rng(seed)
    return [[LookupHash({k: int(draw.integers(0, cols)) for k in range(8)}, cols)
             for _ in range(rows)] for rows, cols in plan_layout(params).tables]


def test_lookup_stack_reproduces_maps():
    # The interpolated polynomial rows hit every mapped bucket exactly.
    rng = np.random.default_rng(21)
    for trial in range(200):
        size = int(rng.integers(0, 9))
        keys = rng.choice(4000, size=size, replace=False).tolist()
        gamma = int(rng.integers(1, 41))
        hashes = [[LookupHash({k: int(rng.integers(0, gamma)) for k in keys}, gamma)
                   for _ in range(3)]]
        stack = lookup_stack(hashes, 16)
        got = stack.flat_cells(np.array(keys, dtype=np.uint64)) - stack.offsets
        for r, h in enumerate(hashes[0]):
            assert got[r].tolist() == [h.mapping[k] for k in keys]


def test_over_rows_refuses_serialize_and_subtract():
    params = Params(n=4, delta=0.25, master_seed=2)
    hashes = fixed_rows(params)
    s = StackedSketch.over_rows(params, lookup_stack(hashes, params.k))
    s.insert([(3, 30), (5, 50)])
    assert s.list_entries().recovered_plus == {(3, 30), (5, 50)}
    with pytest.raises(ValueError, match="seed-derived"):
        serialize(s)
    with pytest.raises(ValueError, match="injected"):
        s.subtract(StackedSketch(params))
    with pytest.raises(ValueError, match="injected"):
        StackedSketch(params).subtract(s)
    with pytest.raises(ValueError, match="injected"):
        s.subtract(s.copy())


def test_over_rows_rejects_stack_off_layout():
    params = Params(n=4, delta=0.25, master_seed=2)
    hashes = fixed_rows(params)
    with pytest.raises(ValueError, match="does not match the layout"):
        StackedSketch.over_rows(params, lookup_stack(hashes[:-1], params.k))
    hashes[0] = [LookupHash(h.mapping, h.gamma + 1) for h in hashes[0]]
    with pytest.raises(ValueError, match="does not match the layout"):
        StackedSketch.over_rows(params, lookup_stack(hashes, params.k))


def test_public_surface():
    # The row stack stays internal, and the sketch has no hashing seam.
    assert stacked_iblt.__all__ == [
        "BasicTable", "DecodeOutcome", "DEFAULT_BIG_C", "DEFAULT_C0",
        "EnvelopeError", "KWiseHash", "LayoutPlan", "MERSENNE61", "Params",
        "PowerHash", "StackedSketch",
        "checksum_modulus_bound", "default_checksum_modulus",
        "default_independence", "deserialize", "is_prime",
        "layout_digest", "next_prime_at_least", "plan_layout", "reconcile_local",
        "serialize", "sketch_of",
    ]
    assert list(inspect.signature(StackedSketch).parameters) == ["params"]


def test_only_hashing_imports_the_kernel_operands():
    # eval_poly_rows and coeff_limbs work on the kernel's limb operands;
    # every other module hashes through RowStack.
    kernel = {"eval_poly_rows", "coeff_limbs"}
    for path in pathlib.Path(stacked_iblt.__file__).parent.glob("*.py"):
        if path.name == "hashing.py":
            continue
        tree = ast.parse(path.read_text())
        names = {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                 for a in node.names}
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        assert not names & kernel, path.name
