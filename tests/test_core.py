import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stacked_iblt.core import BasicTable, to_lanes
from stacked_iblt.hashing import KWiseHash, PowerHash
from stacked_iblt.stacked import Params, StackedSketch

from reference import LookupHash

U64 = 1 << 64


def row_hashes(rows=2, cols=8, seed=0, k=3):
    """The KWiseHash rows `fresh` builds its table from."""
    return [KWiseHash(seed, k, cols, stream_id=r) for r in range(rows)]


def fresh(rows=2, cols=8, seed=0, checksum=None, k=3):
    return BasicTable(rows, cols, row_hashes(rows, cols, seed, k), checksum)


def pairs_strategy(max_size=40):
    return st.dictionaries(st.integers(0, 2**61 - 2), st.integers(0, U64 - 1),
                           max_size=max_size).map(lambda d: sorted(d.items()))


# -- construction -------------------------------------------------------------

def test_init_zero_grid():
    t = fresh(2, 4)
    assert t.key_sum.shape == (2, 4)
    assert t.is_zero()
    assert t.mode == "plain"


def test_init_degenerate_grid():
    t = fresh(1, 1)
    assert t.count.shape == (1, 1)
    assert t.is_zero()


def test_init_checksum_grid():
    g = PowerHash(0, 5, 11)
    t = fresh(2, 4, checksum=g)
    assert t.mode == "checksum"
    assert t.hash_sum.shape == (2, 4)
    assert not t.hash_sum.any()


def test_init_dimension_mismatch():
    hashes = [KWiseHash(0, 3, 8, stream_id=r) for r in range(2)]
    with pytest.raises(ValueError):
        BasicTable(3, 8, hashes)
    with pytest.raises(ValueError):
        BasicTable(2, 9, hashes)


def test_init_rejects_rows_the_kernel_cannot_stack():
    # A table's rows are one polynomial stack: KWiseHash rows of one k.
    with pytest.raises(ValueError, match="KWiseHash"):
        BasicTable(1, 8, [LookupHash({1: 2}, 8)])
    mixed = [KWiseHash(0, 3, 8, stream_id=0), KWiseHash(0, 4, 8, stream_id=1)]
    with pytest.raises(ValueError, match="one independence"):
        BasicTable(2, 8, mixed)


# -- insert / delete ----------------------------------------------------------

def test_single_insert_hits_one_cell_per_row():
    t = fresh(3, 16)
    t.insert({(5, 7)})
    assert t.count.sum(axis=1).tolist() == [1, 1, 1]
    cols = [h.eval(5) for h in row_hashes(3, 16)]
    for r, c in enumerate(cols):
        assert t.key_sum[r, c] == 5
        assert t.value_sum[r, c] == 7
    assert not t.is_zero()


def test_insert_then_delete_cancels():
    t = fresh()
    t.insert({(5, 7)})
    t.delete([(1, 5, 7)])
    assert t.is_zero()


def test_colliding_inserts_sum():
    h = KWiseHash.from_coefficients([2], 4)
    t = BasicTable(1, 4, [h])
    t.insert([(5, 7), (9, 2)])
    assert t.key_sum[0, 2] == 14
    assert t.value_sum[0, 2] == 9
    assert t.count[0, 2] == 2


def test_delete_from_empty_negates():
    h = KWiseHash.from_coefficients([2], 4)
    t = BasicTable(1, 4, [h])
    t.delete([(1, 5, 7)])
    assert t.key_sum[0, 2] == U64 - 5
    assert t.value_sum[0, 2] == U64 - 7
    assert t.count[0, 2] == -1


def test_mixed_sign_delete_direct_arithmetic():
    # Removing (+1,3,_) subtracts 3, removing (-1,4,_) adds 4 back.
    h = KWiseHash.from_coefficients([2], 4)
    t = BasicTable(1, 4, [h])
    t.delete([(1, 3, 1), (-1, 4, 9)])
    assert t.count[0, 2] == 0
    assert t.key_sum[0, 2] == (-3 + 4) % U64
    assert t.value_sum[0, 2] == (-1 + 9) % U64


def test_unsigned_delete_matches_plus_one_signs():
    a, b = fresh(seed=3), fresh(seed=3)
    pairs = [(10, 11), (12, 13)]
    a.delete_pairs(pairs)
    b.delete([(1, k, v) for k, v in pairs])
    assert a == b


def test_bad_sign_rejected():
    t = fresh()
    for item in [(2, 5, 7), (True, 5, 7)]:
        with pytest.raises(ValueError, match="signs"):
            t.delete([item])
    # Unsigned numpy signs are checked as given, not after a wrapping negation.
    for sign in (np.uint64(1), np.uint8(1)):
        t.delete([(sign, 5, 7)])
    want = fresh()
    want.delete([(1, 5, 7), (1, 5, 7)])
    assert t == want


@pytest.mark.parametrize("make", [fresh, lambda: StackedSketch(Params(n=8, delta=0.25))],
                         ids=["BasicTable", "StackedSketch"])
def test_malformed_batch_rejected(make):
    t = make()
    keys = np.array([1, 2, 3], dtype=np.uint64)
    with pytest.raises(ValueError, match="integer"):
        t.insert_arrays(np.array([1.7, 2.2]), keys[:2])
    with pytest.raises(ValueError, match="equal length"):
        t.insert_arrays(keys, np.array([9], dtype=np.uint64))
    with pytest.raises(ValueError, match="equal length"):
        t.insert_arrays(keys.reshape(1, 3), keys.reshape(1, 3))
    with pytest.raises(ValueError, match="signs"):
        t.delete([(1, 5, 7), (2, 6, 8)])
    # Pair paths must not truncate: a float key or sign is refused as given.
    with pytest.raises(ValueError, match="integer"):
        t.insert([(1.7, 2)])
    with pytest.raises(ValueError, match="integer"):
        t.delete_pairs([(3, 4), (5, 6.5)])
    with pytest.raises(ValueError, match="signs"):
        t.delete([(1.5, 3, 4)])
    # A bool is not an integer key or value on any path, as in insert_arrays.
    for flag in (True, False, np.True_):
        with pytest.raises(ValueError, match="integer"):
            t.insert([(flag, 1)])
        with pytest.raises(ValueError, match="integer"):
            t.insert([(2, 3), (4, flag)])
        with pytest.raises(ValueError, match="integer"):
            t.delete([(1, flag, 1)])
        with pytest.raises(ValueError, match="integer"):
            t.delete([(1, 2, flag)])
        with pytest.raises(ValueError, match="integer"):
            t.delete_pairs([(flag, 1)])
    with pytest.raises(ValueError, match="integer"):
        t.insert_arrays(np.array([True]), np.array([1]))
    # Signed arrays must not wrap: a negative value or key is refused.
    with pytest.raises(ValueError, match="non-negative"):
        t.insert_arrays(np.array([3]), np.array([-1]))
    with pytest.raises(ValueError, match="non-negative"):
        t.insert_arrays(np.array([-3]), np.array([1]))
    assert t.is_zero()


def test_pair_path_keeps_full_width_values():
    # Mixed small and >= 2^63 ints must stay exact uint64, not become floats.
    t = fresh(1, 64)
    t.insert([(1, 2**63 + 5), (2, 3)])
    assert t.list_entries()[0] == {(1, 2**63 + 5), (2, 3)}


def test_checksum_key_domain_enforced():
    t = fresh(checksum=PowerHash(0, 5, 11))
    with pytest.raises(ValueError):
        t.insert({(5, 1)})
    t.insert({(4, 1)})


# -- extraction ---------------------------------------------------------------

def test_singleton_extraction():
    t = fresh(1, 8)
    t.insert({(5, 7)})
    assert t.list_entries() == ({(5, 7)}, set())


def test_count_two_cell_contributes_nothing():
    h = KWiseHash.from_coefficients([1], 4)
    t = BasicTable(1, 4, [h])
    t.insert([(5, 7), (9, 2)])
    assert t.list_entries() == (set(), set())


def test_checksum_extraction_splits_signs():
    g = PowerHash(1, 97, 389)
    t = fresh(2, 32, checksum=g)
    t.insert({(10, 1)})
    t.delete([(1, 20, 2)])
    plus, minus = t.list_entries()
    assert plus == {(10, 1)}
    assert minus == {(20, 2)}


def test_garbage_cell_rarely_verifies():
    # A count-1 cell holding k1+k2-k3: only bases satisfying the collision
    # identity accept it, at most 2*3*p+1 of them.
    p, q = 5, 101
    k1, k2, k3 = 1, 3, 2
    key_sum = (k1 + k2 - k3) % U64
    accepted = 0
    for a in range(1, q):
        g = PowerHash.with_base(a, p, q)
        h = KWiseHash.from_coefficients([0], 4)
        t = BasicTable(1, 4, [h], checksum=g)
        t.key_sum[0, 0] = key_sum
        t.value_sum[0, 0] = 9
        t.count[0, 0] = 1
        # The grid is read-only; the cell is written through the store's lanes.
        t._cells.hash_sum[:, 0] = to_lanes([(g.eval(k1) + g.eval(k2) - g.eval(k3)) % q])[:, 0]
        plus, minus = t.list_entries()
        accepted += bool(plus or minus)
    assert accepted <= 2 * 3 * p + 1
    assert accepted >= 1            # base 1 satisfies every identity


def test_extraction_skips_out_of_domain_keysum():
    h = KWiseHash.from_coefficients([0], 4)
    t = BasicTable(1, 4, [h])
    t.key_sum[0, 0] = 2**63       # no genuine key reaches this residue
    t.count[0, 0] = 1
    assert t.list_entries() == (set(), set())


# -- subtraction ---------------------------------------------------------------

def test_subtract_self_is_zero():
    t = fresh(seed=9)
    t.insert([(1, 2), (3, 4)])
    assert t.subtract(t).is_zero()


def test_subtract_superset_equals_fresh_difference():
    big = [(1, 10), (2, 20), (3, 30)]
    small = [(2, 20)]
    a, b, c = fresh(seed=4), fresh(seed=4), fresh(seed=4)
    a.insert(big)
    b.insert(small)
    c.insert([(1, 10), (3, 30)])
    assert a.subtract(b) == c


def test_subtract_from_empty_negates():
    a, b = fresh(seed=5), fresh(seed=5)
    b.insert({(5, 7)})
    d = a.subtract(b)
    for r, h in enumerate(row_hashes(seed=5)):
        assert d.count[r, h.eval(5)] == -1


def test_subtract_requires_matching_tables():
    a = fresh(seed=1)
    with pytest.raises(ValueError):
        a.subtract(fresh(seed=2))
    with pytest.raises(ValueError):
        a.subtract(fresh(rows=3, cols=8, seed=1))
    with pytest.raises(ValueError):
        a.subtract(fresh(seed=1, checksum=PowerHash(0, 5, 11)))


# -- is_zero -------------------------------------------------------------------

def test_is_zero_transitions():
    t = fresh()
    assert t.is_zero()
    t.insert({(8, 9)})
    assert not t.is_zero()
    t.delete([(1, 8, 9)])
    assert t.is_zero()


# -- algebraic properties -------------------------------------------------------

@settings(max_examples=50, deadline=None)
@given(pairs_strategy())
def test_property_cancellation(pairs):
    t = fresh(seed=11)
    t.insert(pairs)
    t.delete([(1, k, v) for k, v in pairs])
    assert t.is_zero()


@settings(max_examples=50, deadline=None)
@given(pairs_strategy(), st.randoms(use_true_random=False))
def test_property_permutation_invariance(pairs, rnd):
    ops = [("i", k, v) for k, v in pairs] + [("d", k, v) for k, v in pairs[::2]]
    shuffled = ops[:]
    rnd.shuffle(shuffled)
    a, b = fresh(seed=12), fresh(seed=12)
    for op, k, v in ops:
        (a.insert if op == "i" else a.delete_pairs)([(k, v)])
    for op, k, v in shuffled:
        (b.insert if op == "i" else b.delete_pairs)([(k, v)])
    assert a == b


@settings(max_examples=50, deadline=None)
@given(pairs_strategy(20), pairs_strategy(20))
def test_property_subtract_equals_insert_delete(s, sp):
    g = PowerHash(2, 2**61 - 1, 2**89 - 1)
    a, b, c = (fresh(seed=13, checksum=g) for _ in range(3))
    a.insert(s)
    b.insert(sp)
    c.insert(s)
    c.delete([(1, k, v) for k, v in sp])
    assert a.subtract(b) == c


def test_plain_soundness_insert_only():
    # Any count-1 cell of an insert-only table holds exactly one input pair.
    rng = np.random.default_rng(3)
    for trial in range(30):
        t = fresh(rows=2, cols=6, seed=trial)
        n = int(rng.integers(0, 12))
        keys = rng.choice(2**40, size=n, replace=False)
        pairs = [(int(k), int(rng.integers(0, U64, dtype=np.uint64))) for k in keys]
        t.insert(pairs)
        cell_of = {}
        for k, v in pairs:
            for r, h in enumerate(row_hashes(2, 6, trial)):
                cell_of.setdefault((r, h.eval(k)), []).append((k, v))
        for r in range(t.rows):
            for c in range(t.cols):
                if t.count[r, c] == 1:
                    assert cell_of[(r, c)] == [(int(t.key_sum[r, c]), int(t.value_sum[r, c]))]
