import ast
import collections
import inspect
import math
import pathlib
import sys
import threading

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

from reference import LookupHash, lookup_sketch, lookup_stack, reference_list_entries


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


@pytest.mark.parametrize("n, delta", [(16, 5e-324), (10**103, 0.5)], ids=["tiny-delta", "huge-n"])
def test_checksum_bound_past_every_float(n, delta):
    # 1/delta or n^3 overflows a float: the bound is far past 128 bits, so
    # the default q is refused and an explicit q misses the guarantee.
    with pytest.raises(ValueError, match="exceeds 128 bits"):
        Params(n=n, delta=delta, mode="checksum")
    explicit = Params(n=n, delta=delta, mode="checksum", q=(1 << 127) - 1)
    assert explicit.checksum_bound.bit_length() > 1024
    assert not explicit.meets_guarantee


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
    # A table of a sketch views its rows' segment of the stack and its
    # cells' segment of the store: a pair inserted into the sketch shows
    # once per row of every table, at that row's bucket, and a standalone
    # copy of the empty table hashes the pair to the same cells.
    p = Params(n=64, delta=2.0**-6, master_seed=4)
    s, empty = StackedSketch(p), StackedSketch(p)
    s.insert([(5, 7)])
    for i, (t, alone) in enumerate(zip(s.tables, (e.copy() for e in empty.tables))):
        assert t.count.sum(axis=1).tolist() == [1] * t.rows
        for r in range(t.rows):
            h = KWiseHash(4, p.k, t.cols, stream_id=bucket_stream_id(i, r))
            assert t.count[r, h.eval(5)] == 1
        alone.insert([(5, 7)])
        assert alone == t
    assert empty.is_zero()


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
    base, store = s.layout.spans[-1][1].start, s._cells
    cells = [(5, 7, 1), (5, 8, 1)] if mode == "plain" else [(5, 7, 1), (-5, -7, -1)]
    for i, (k, v, c) in enumerate(cells, start=base):
        store.key_sum[i], store.value_sum[i], store.count[i] = k % 2**64, v % 2**64, c
        if mode == "checksum":
            store.hash_sum[:, i] = to_lanes([c * s.checksum.eval(5) % 389])[:, 0]
    out = s.list_entries()
    assert out.inconsistent
    assert out.stage_recoveries[-1] == (((5, 7),), ())
    assert all(stage == ((), ()) for stage in out.stage_recoveries[:-1])


def admit_model(keys, values, signs, plus, minus):
    """The per-pair admission that `stacked._admit` must equal: plus side
    first, each side in (key, value) order; a key on its side with another
    value, or the pair on the other side, clashes and is not admitted."""
    neg = signs < 0
    ks, vs, ns = keys.tolist(), values.tolist(), neg.tolist()
    take, added, clash = [], ([], []), False
    for i in np.lexsort((values, keys, neg)).tolist():
        k, v, n = ks[i], vs[i], ns[i]
        side, other = (minus, plus) if n else (plus, minus)
        if k in side:
            clash |= side[k] != v
        elif other.get(k) == v:
            clash = True
        else:
            side[k] = v
            take.append(i)
            added[n].append((k, v))
    return take, (tuple(added[0]), tuple(added[1])), clash


def test_admission_matches_the_per_pair_model():
    # Random multi-stage decodes over tiny key and value ranges: duplicates
    # within a stage, keys seen in earlier stages, both signs in a stage,
    # one pair on both sides and one key with two values all occur. The
    # wide key range makes sides of distinct new keys, which take the
    # one-step path.
    rng = np.random.default_rng(2023)
    cases = 20_000
    stages = rng.integers(1, 5, size=cases)
    total = int(stages.sum())
    sizes = rng.integers(0, 9, size=total)
    key_mod = rng.choice(np.array([2, 3, 5, 8, 1 << 40], dtype=np.uint64), size=total)
    val_mod = rng.choice(np.array([1, 2, 3, 0], dtype=np.uint64), size=total)   # 0: any
    sign_kind = rng.integers(0, 3, size=total)          # all +1, all -1, mixed
    ends = np.cumsum(sizes).tolist()
    raw_k = rng.integers(0, 1 << 61, size=ends[-1], dtype=np.uint64)
    raw_v = rng.integers(0, 2**64, size=ends[-1], dtype=np.uint64)
    raw_s = rng.choice(np.array([1, -1]), size=ends[-1])
    seen = collections.Counter()
    stage = 0
    for count in stages.tolist():
        plus, minus, model_plus, model_minus = {}, {}, {}, {}
        for _ in range(count):
            a, b = ends[stage] - sizes[stage], ends[stage]
            keys = raw_k[a:b] % key_mod[stage]
            values = raw_v[a:b] % val_mod[stage] if val_mod[stage] else raw_v[a:b]
            signs = raw_s[a:b] if sign_kind[stage] == 2 else np.full(b - a, 1 - 2 * sign_kind[stage])
            for side in (signs > 0, signs < 0):
                ks = keys[side].tolist()
                known = model_plus.keys() | model_minus.keys()
                if len(set(ks)) == len(ks) > 1 and known.isdisjoint(ks):
                    seen["one step"] += 1
                seen["duplicate key"] += len(set(ks)) < len(ks)
                seen["known key"] += not known.isdisjoint(ks)
            seen["both signs"] += bool((signs > 0).any() and (signs < 0).any())
            pos, neg = (set(zip(keys[side].tolist(), values[side].tolist()))
                        for side in (signs > 0, signs < 0))
            seen["pair on both sides"] += bool(pos & neg or model_minus.items() & pos
                                               or model_plus.items() & neg)
            seen["key with two values"] += any(
                len({k for k, _ in side}) < len(side) or any(d.get(k, v) != v for k, v in side)
                for side, d in ((pos, model_plus), (neg, model_minus)))
            want = admit_model(keys, values, signs, model_plus, model_minus)
            take, added, clash = stacked._admit(keys, values, signs, plus, minus)
            assert (take.tolist(), added, clash) == want
            seen["clash"] += clash
            stage += 1
        assert list(plus.items()) == list(model_plus.items())
        assert list(minus.items()) == list(model_minus.items())
    assert len(seen) == 7 and min(seen.values()) > 1000, seen


def test_decode_with_one_step_and_per_pair_stages(monkeypatch):
    # Overloaded checksum sketch (C = 2) with false deletions: table 0, one
    # row, takes each side in one step; table 3, two rows, meets a key in
    # both rows' pure cells and admits per pair. The outcome equals a decode
    # that admits with the per-pair model.
    params = Params(n=64, delta=2.0**-4, big_c=2.0, mode="checksum", master_seed=2)
    rng = np.random.default_rng(2)
    keys = rng.choice(1 << 40, size=64, replace=False).astype(np.uint64)
    vals = rng.integers(0, 1 << 63, size=64).astype(np.uint64)
    s = StackedSketch(params)
    s.insert_arrays(keys[:60], vals[:60])
    s.delete_pairs(list(zip(keys[60:].tolist(), vals[60:].tolist())))
    seen, admit = [], stacked._admit

    def recorded(keys, values, signs, plus, minus):
        sides = [keys[signs > 0].tolist(), keys[signs < 0].tolist()]
        seen.append([len(set(k)) == len(k) and (plus.keys() | minus.keys()).isdisjoint(k)
                     for k in sides])
        return admit(keys, values, signs, plus, minus)

    def modelled(*args):
        take, added, clash = admit_model(*args)
        return np.array(take, dtype=np.intp), added, clash

    monkeypatch.setattr(stacked, "_admit", recorded)
    got = s.list_entries()
    assert [r for r, _ in s.layout.tables][:4] == [1, 1, 1, 2]
    assert seen[0] == [True, True] and seen[3] == [False, False]
    assert got.stage_recoveries[0][0] and got.stage_recoveries[3][0]
    monkeypatch.setattr(stacked, "_admit", modelled)
    want = s.list_entries()
    assert got.complete and not got.inconsistent
    assert got.recovered_plus == set(zip(keys[:60].tolist(), vals[:60].tolist()))
    assert got.recovered_minus == set(zip(keys[60:].tolist(), vals[60:].tolist()))
    assert got == want


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
        s = lookup_sketch(params, hashes)
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


def test_lookup_sketch_rejects_rows_off_layout():
    params = Params(n=4, delta=0.25, master_seed=2)
    hashes = fixed_rows(params)
    s = lookup_sketch(params, hashes)
    s.insert([(3, 30), (5, 50)])
    assert s.list_entries().recovered_plus == {(3, 30), (5, 50)}
    with pytest.raises(ValueError, match="do not match the layout"):
        lookup_sketch(params, hashes[:-1])
    hashes[0] = [LookupHash(h.mapping, h.gamma + 1) for h in hashes[0]]
    with pytest.raises(ValueError, match="do not match the layout"):
        lookup_sketch(params, hashes)


def test_two_threads_match_serial():
    # Two threads at once, each on sketches of its own, under a short switch
    # interval: a checksum insert hashes with eval_poly_rows, list_entries
    # and serialize reduce lanes with core.reduce_lanes, both from the
    # calling thread's scratch area. Both threads build sketches of the same
    # two Params, from caches emptied first, so they draw and share their
    # rows and checksum hashes at once. Each result must be the serial run's.
    cases = [Params(n=n, delta=2.0**-6, mode="checksum", master_seed=n) for n in (64, 200)]

    def run(params):
        rng = np.random.default_rng(params.n)
        keys = rng.choice(2**55, size=params.n, replace=False).astype(np.uint64)
        s = StackedSketch(params)
        s.insert_arrays(keys, rng.integers(0, 2**64, size=keys.size, dtype=np.uint64))
        s.delete_pairs([(int(keys[0]) + 1, 7)])
        out = s.list_entries()
        return serialize(s), (out.recovered_plus, out.recovered_minus, out.complete,
                              out.inconsistent, out.stage_recoveries)

    serial = [run(params) for params in cases]
    assert all(outcome[2] and not outcome[3] for _, outcome in serial)
    stacked._row_stack.cache_clear()
    stacked._checksum_hash.cache_clear()
    start = threading.Barrier(2)
    bad = []

    def work(i):
        start.wait(timeout=60)
        for rep in range(6):
            j = (i + rep) % len(cases)
            if run(cases[j]) != serial[j]:
                bad.append((i, rep))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        workers = [threading.Thread(target=work, args=(i,)) for i in range(2)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert bad == []


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
    # A sketch is built one way, from its params, and keeps no state beyond
    # what every sketch has: rows injected for tests go through the tests' own
    # `lookup_sketch`, not a second constructor or a flag in the sketch.
    assert not [name for name, v in vars(StackedSketch).items()
                if isinstance(v, (classmethod, staticmethod))]
    assert StackedSketch.__slots__ == ("params", "layout", "checksum", "item_balance",
                                       "_stack", "_cells")


def test_hash_caches_stay_bounded():
    # A fresh seed per trial misses every time; each cache keeps at most
    # its maxsize entries however many Params pass through it.
    caches = (stacked._row_stack, stacked._checksum_hash)
    size = caches[0].cache_info().maxsize
    for seed in range(size + 3):
        StackedSketch(Params(n=16, delta=2.0**-4, mode="checksum", master_seed=1000 + seed))
        assert all(c.cache_info().currsize <= size for c in caches)
    assert [c.cache_info().currsize for c in caches] == [size, size]


def unbounded_caches(source: str) -> list[int]:
    """Lines of `source` with a functools cache other than `functools.lru_cache(maxsize=<int>)`."""
    tree = ast.parse(source)
    modules = {a.asname or a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for a in node.names if a.name == "functools"}
    bounded = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            size = [k.value for k in node.keywords if k.arg == "maxsize"] or node.args[:1]
            if size and isinstance(size[0], ast.Constant) and type(size[0].value) is int:
                bounded.add(id(node.func))
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            hit = any(a.name in ("cache", "lru_cache") for a in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in modules:
            hit = node.attr == "cache" or (node.attr == "lru_cache" and id(node) not in bounded)
        else:
            continue
        if hit:
            lines.add(node.lineno)
    return sorted(lines)


def test_every_cache_is_bounded():
    # Aim 3 keeps memory bounded: a cache in the package holds a fixed
    # number of entries, so functools.cache and maxsize=None stay out.
    found = 0
    for path in pathlib.Path(stacked_iblt.__file__).parent.glob("*.py"):
        source = path.read_text()
        assert unbounded_caches(source) == [], path.name
        found += source.count("functools.lru_cache(maxsize=")
    assert found >= 6                       # not vacuous
    caught = ("import functools\nfrom functools import lru_cache\n@functools.cache\n"
              "def a(): pass\n@functools.lru_cache\ndef b(): pass\n"
              "@functools.lru_cache(maxsize=None)\ndef c(): pass\n"
              "@functools.lru_cache(maxsize=8)\ndef d(): pass\n"
              "import functools as f\n@f.lru_cache(16)\ndef e(): pass\nf.cache(len)\n")
    assert unbounded_caches(caught) == [2, 3, 5, 7, 14]


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


def environment_or_pool_uses(source: str) -> list[int]:
    """Lines of `source` that read the environment or import a worker pool."""
    banned = ("os.environ", "os.getenv", "concurrent.futures", "multiprocessing")
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names = [f"{node.value.id}.{node.attr}"]
        else:
            continue
        if any(n == b or n.startswith(b + ".") for n in names for b in banned):
            lines.add(node.lineno)
    return sorted(lines)


def test_no_environment_variables_or_worker_pools():
    # The package's behaviour is its arguments: no module reads an
    # environment variable or runs work in a pool. (hashing's per-thread
    # scratch stays: callers may hash from threads of their own.)
    for path in pathlib.Path(stacked_iblt.__file__).parent.glob("*.py"):
        assert environment_or_pool_uses(path.read_text()) == [], path.name
    # Nor do the tests read or set one: the package reads none, so a test
    # dimension made of one would check nothing.
    for path in pathlib.Path(__file__).parent.glob("*.py"):
        assert environment_or_pool_uses(path.read_text()) == [], path.name
    caught = ("import os\nos.environ.get('X')\nfrom os import getenv\n"
              "from concurrent.futures import ThreadPoolExecutor\nimport multiprocessing.pool\n")
    assert environment_or_pool_uses(caught) == [2, 3, 4, 5]


def test_only_the_integer_checks_decide_what_an_integer_is():
    # hashing.check_int and hashing.check_uint64 are the package's one
    # integer check, and hashing.check_real its one real check; no other
    # code tests a dtype kind, numpy's bool, operator.index, math.isfinite
    # or numbers.Real, so the sites cannot drift apart again.
    integer, real = {"check_int", "check_uint64"}, {"check_real"}

    def owners(node):
        """The checks that alone may hold `node`, or None if any code may."""
        if not isinstance(node, ast.Attribute):
            return None
        base = node.value.id if isinstance(node.value, ast.Name) else None
        if (base, node.attr) in (("math", "isfinite"), ("numbers", "Real")):
            return real
        if ((base, node.attr) == ("operator", "index") or node.attr == "bool_"
                or (node.attr == "kind" and isinstance(node.value, ast.Attribute)
                    and node.value.attr == "dtype")):
            return integer
        return None

    seen = set()
    for path in pathlib.Path(stacked_iblt.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        inside = {id(n): f.name for f in ast.walk(tree)
                  if isinstance(f, ast.FunctionDef) and f.name in integer | real
                  for n in ast.walk(f)}
        for node in ast.walk(tree):
            checks = owners(node)
            if checks:
                assert inside.get(id(node)) in checks, f"{path.name}:{node.lineno}"
                seen.add((path.name, inside[id(node)] in real))
    # Not vacuous: it finds the integer checks' dtype test and check_real's numbers.Real.
    assert seen == {("hashing.py", False), ("hashing.py", True)}


def ufunc_at_calls(source: str) -> list[tuple[int, str | None]]:
    """(line, enclosing top-level function) of each `np.<ufunc>.at(...)` call."""
    found = []
    for top in ast.parse(source).body:
        name = top.name if isinstance(top, ast.FunctionDef) else None
        for node in ast.walk(top):
            f = node.func if isinstance(node, ast.Call) else None
            if (isinstance(f, ast.Attribute) and f.attr == "at"
                    and isinstance(f.value, ast.Attribute)
                    and isinstance(f.value.value, ast.Name) and f.value.value.id == "np"):
                found.append((node.lineno, name))
    return found


def test_only_scatter_calls_a_ufunc_at():
    # np.add.at writes through an array whose writeable flag is off, so the
    # read-only check at the top of core.scatter is what keeps a sketch's
    # table views read-only; a ufunc `.at` call anywhere else would bypass it.
    for path in pathlib.Path(stacked_iblt.__file__).parent.glob("*.py"):
        calls = ufunc_at_calls(path.read_text())
        want = "scatter" if path.name == "core.py" else None
        assert all(where == want for _, where in calls), (path.name, calls)
        assert bool(calls) == (path.name == "core.py")
    caught = "import numpy as np\nnp.add.at(a, i, v)\ndef f(a):\n    np.maximum.at(a, [0], 1)\n"
    assert ufunc_at_calls(caught) == [(2, None), (4, "f")]


def output_uses(source: str) -> list[int]:
    """Lines of `source` that call print or touch sys.stdout or sys.stderr."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            hit = node.func.id == "print"
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            hit = node.value.id == "sys" and node.attr in ("stdout", "stderr")
        elif isinstance(node, ast.ImportFrom):
            hit = node.module == "sys" and any(a.name in ("stdout", "stderr")
                                               for a in node.names)
        else:
            continue
        if hit:
            lines.add(node.lineno)
    return sorted(lines)


def test_the_library_never_prints():
    # Only the experiment harness (cli.py) writes to the terminal; the
    # library reports through return values and exceptions.
    for path in pathlib.Path(stacked_iblt.__file__).parent.glob("*.py"):
        uses = output_uses(path.read_text())
        assert bool(uses) == (path.name == "cli.py"), (path.name, uses)
    caught = "import sys\nprint('x')\nsys.stderr.write('y')\nfrom sys import stdout\n"
    assert output_uses(caught) == [2, 3, 4]
