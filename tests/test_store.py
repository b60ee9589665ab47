"""The flat cell store: a sketch's tables are read-only views of one store, and
decode, copy, subtract and the envelope never alias where they must not."""

import numpy as np
import pytest

from stacked_iblt.reconcile import deserialize, serialize
from stacked_iblt.stacked import Params, StackedSketch

N = 32
STATES = [(mode, load) for mode in ("plain", "checksum") for load in ("complete", "overloaded")]


def sketch(mode, load, seed=0):
    # 20 pairs decode; 32n pairs saturate every table.
    size = 20 if load == "complete" else 32 * N
    rng = np.random.default_rng(seed)
    keys = rng.choice(2**55, size=size, replace=False).astype(np.uint64)
    vals = rng.integers(0, 2**64, size=size, dtype=np.uint64)
    s = StackedSketch(Params(n=N, delta=2.0**-6, mode=mode, master_seed=7))
    s.insert_arrays(keys, vals)
    return s


def arrays(s):
    """Every array a sketch holds: the store's fields and each table's grids."""
    out = list(s._cells.fields())
    for t in s.tables:
        out += [t.key_sum, t.value_sum, t.count]
        if t.hash_sum is not None:
            out.append(t.hash_sum)
    return out


def shares_any(a, b):
    return any(np.shares_memory(x, y) for x in arrays(a) for y in arrays(b))


@pytest.mark.parametrize("mode,load", STATES)
def test_list_entries_leaves_sketch_unchanged(mode, load):
    s = sketch(mode, load)
    before = serialize(s)
    out = s.list_entries()
    assert out.complete == (load == "complete")
    assert serialize(s) == before


@pytest.mark.parametrize("mode,load", STATES)
def test_copy_shares_no_memory(mode, load):
    s = sketch(mode, load)
    before = serialize(s)
    c = s.copy()
    assert not shares_any(c, s)
    c.insert([(12345, 678)])
    c.list_entries(in_place=True)
    assert serialize(s) == before


@pytest.mark.parametrize("mode,load", STATES)
def test_subtract_shares_no_memory(mode, load):
    s, o = sketch(mode, load), sketch(mode, load, seed=1)
    before_s, before_o = serialize(s), serialize(o)
    d = s.subtract(o)
    assert not shares_any(d, s) and not shares_any(d, o)
    d.insert([(12345, 678)])
    d.list_entries(in_place=True)
    assert (serialize(s), serialize(o)) == (before_s, before_o)


@pytest.mark.parametrize("mode,load", STATES)
def test_deserialized_tables_view_the_store(mode, load):
    t = deserialize(serialize(sketch(mode, load)))
    before = [tab.count.sum(axis=1) for tab in t.tables]
    t.insert([(12345, 678)])
    for tab, rows in zip(t.tables, before):
        assert (tab.count.sum(axis=1) - rows).tolist() == [1] * tab.rows
        assert all(np.shares_memory(g, f) for g, f in zip(
            (tab.key_sum, tab.value_sum, tab.count), t._cells.fields()))
        assert not any(a.flags.writeable for a in tab._cells.fields())


WRITES = {
    "insert": lambda t: t.insert([(12345, 678)]),
    "insert_arrays": lambda t: t.insert_arrays(np.array([12345], dtype=np.uint64),
                                               np.array([678], dtype=np.uint64)),
    "delete": lambda t: t.delete([(1, 12345, 678)]),
    "delete_pairs": lambda t: t.delete_pairs([(12345, 678)]),
    "grid": lambda t: t.count.__setitem__((0, 0), 1),
}


@pytest.mark.parametrize("write", sorted(WRITES))
@pytest.mark.parametrize("mode,load", STATES)
def test_table_views_refuse_every_write(mode, load, write):
    # The sketch is the one write path into its cells: a table view refuses
    # a mutation before any cell changes.
    s = sketch(mode, load)
    before = serialize(s)
    for t in s.tables:
        with pytest.raises(ValueError, match="read-only"):
            WRITES[write](t)
        assert serialize(s) == before
    assert s.item_balance == (20 if load == "complete" else 32 * N)


@pytest.mark.parametrize("mode", ["plain", "checksum"])
def test_views_taken_before_an_insert_show_it(mode):
    s = sketch(mode, "complete")
    views = s.tables
    before = [v.count.sum(axis=1) for v in views]
    s.insert([(12345, 678)])
    for v, rows, now in zip(views, before, s.tables):
        assert (v.count.sum(axis=1) - rows).tolist() == [1] * v.rows
        assert v == now


@pytest.mark.parametrize("mode", ["plain", "checksum"])
def test_table_copy_is_a_writable_standalone_table(mode):
    s = sketch(mode, "complete")
    before = serialize(s)
    for t in s.tables:
        c = t.copy()
        assert c == t
        assert not any(np.shares_memory(a, b) for a in c._cells.fields()
                       for b in s._cells.fields())
        c.insert([(12345, 678)])
        assert (c.count.sum(axis=1) - t.count.sum(axis=1)).tolist() == [1] * t.rows
        c.delete_pairs([(12345, 678)])
        assert c == t
    assert serialize(s) == before
