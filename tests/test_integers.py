"""One table of malformed integers against every public entry point.

Every integer a caller hands the package passes `hashing.check_int` (a
scalar) or `hashing.check_uint64` (a batch): a Python or numpy integer, or
an integer-dtype array, is an integer; a bool, float, str, object or None
never is, and none is truncated to a neighbouring int. Out-of-range
integers raise ValueError too, each against its entry point's own range.
"""

import numpy as np
import pytest

from stacked_iblt import (BasicTable, KWiseHash, Params, PowerHash, StackedSketch,
                          checksum_modulus_bound, default_checksum_modulus,
                          default_independence, is_prime, next_prime_at_least)
from stacked_iblt.hashing import RowStack, check_power_params

U64 = (1 << 64) - 1

MALFORMED = {
    "1.7": 1.7,
    "float64(2.0)": np.float64(2.0),
    "True": True,
    "np.True_": np.True_,
    "'3'": "3",
    "None": None,
    "-1": -1,
    "2^64": 1 << 64,
    "object array": np.array([3], dtype=object),
}


def table():
    return BasicTable(2, 16, [KWiseHash(1, 4, 16, stream_id=i) for i in range(2)])


def power():
    return PowerHash.with_base(3, 97, 389)


def ndarray(x):
    """A one-entry batch as an ndarray (an ndarray input is used as it is)."""
    return x if isinstance(x, np.ndarray) else np.array([x])


def listed(x):
    """A one-entry batch as a list (an ndarray input is used as it is)."""
    return x if isinstance(x, np.ndarray) else [x]


# Each entry point with x in one integer slot and valid values elsewhere.
ENTRY_POINTS = {
    "insert key": lambda x: table().insert([(x, 1)]),
    "insert value": lambda x: table().insert([(1, x)]),
    "insert_arrays keys": lambda x: table().insert_arrays(ndarray(x), np.array([1])),
    "insert_arrays values": lambda x: table().insert_arrays(np.array([1]), ndarray(x)),
    "insert_arrays key list": lambda x: table().insert_arrays(listed(x), [1]),
    "delete sign": lambda x: table().delete([(x, 1, 2)]),
    "delete key": lambda x: table().delete([(1, x, 2)]),
    "delete value": lambda x: table().delete([(1, 1, x)]),
    "delete_pairs key": lambda x: table().delete_pairs([(x, 1)]),
    "delete_pairs value": lambda x: table().delete_pairs([(1, x)]),
    "sketch insert key": lambda x: StackedSketch(Params(n=8, delta=0.25)).insert([(x, 1)]),
    "KWiseHash seed": lambda x: KWiseHash(x, 2, 5),
    "KWiseHash k": lambda x: KWiseHash(0, x, 5),
    "KWiseHash gamma": lambda x: KWiseHash(0, 2, x),
    "KWiseHash stream_id": lambda x: KWiseHash(0, 2, 5, stream_id=x),
    "from_coefficients coefficient": lambda x: KWiseHash.from_coefficients(listed(x), 4),
    "from_coefficients gamma": lambda x: KWiseHash.from_coefficients([1, 2], x),
    "KWiseHash.eval": lambda x: KWiseHash(0, 2, 5).eval(x),
    "KWiseHash.eval_batch": lambda x: KWiseHash(0, 2, 5).eval_batch(listed(x)),
    "RowStack coefficient": lambda x: RowStack(x[None] if isinstance(x, np.ndarray) else [[x]],
                                               [5]),
    "RowStack gamma": lambda x: RowStack([[1, 2]], listed(x)),
    "PowerHash seed": lambda x: PowerHash(x, 97, 389),
    "PowerHash p": lambda x: PowerHash(0, x, 389),
    "PowerHash q": lambda x: PowerHash(0, 97, x),
    "PowerHash.with_base base": lambda x: PowerHash.with_base(x, 97, 389),
    "PowerHash.eval": lambda x: power().eval(x),
    "PowerHash.eval_batch": lambda x: power().eval_batch(listed(x)),
    "Params n": lambda x: Params(n=x, delta=0.25),
    "Params k": lambda x: Params(n=8, delta=0.25, k=x),
    "Params master_seed": lambda x: Params(n=8, delta=0.25, master_seed=x),
    "Params p": lambda x: Params(n=8, delta=0.25, mode="checksum", p=x, q=389),
    "Params q": lambda x: Params(n=8, delta=0.25, mode="checksum", p=97, q=x),
    "BasicTable rows": lambda x: BasicTable(x, 4, [KWiseHash(0, 2, 4)]),
    "BasicTable cols": lambda x: BasicTable(1, x, [KWiseHash(0, 2, 4)]),
    "is_prime": lambda x: is_prime(x),
    "next_prime_at_least": lambda x: next_prime_at_least(x),
    "check_power_params p": lambda x: check_power_params(x, 389),
    "check_power_params q": lambda x: check_power_params(97, x),
    "default_independence n": lambda x: default_independence(x, 0.25),
    "checksum_modulus_bound n": lambda x: checksum_modulus_bound(x, 0.25, 21.7, 97),
    "checksum_modulus_bound p": lambda x: checksum_modulus_bound(8, 0.25, 21.7, x),
    "default_checksum_modulus n": lambda x: default_checksum_modulus(x, 0.25, 21.7, 97),
    "default_checksum_modulus p": lambda x: default_checksum_modulus(8, 0.25, 21.7, x),
}

# Inputs an entry point takes: seeds and stream ids are taken mod 2^64, a
# sign may be -1, any integer may be tested for primality, n has no upper
# bound, and None selects Params' default k, p or q.
TAKEN = {
    "KWiseHash seed": {"-1", "2^64"},
    "KWiseHash stream_id": {"-1", "2^64"},
    "PowerHash seed": {"-1", "2^64"},
    "delete sign": {"-1"},
    "is_prime": {"-1", "2^64"},
    "next_prime_at_least": {"-1", "2^64"},
    "Params n": {"2^64"},
    "Params k": {"None"},
    "Params p": {"None"},
    "Params q": {"None"},
    "default_independence n": {"2^64"},
    "checksum_modulus_bound n": {"2^64"},
}

# Inputs that were truncated, taken as 1, or refused with TypeError before
# the one check; each in its own words.
DRIFT = {
    "from_coefficients([2.9], 4)": lambda: KWiseHash.from_coefficients([2.9], 4),
    "PowerHash(0, 97.0, 389)": lambda: PowerHash(0, 97.0, 389),
    "with_base(3.0, 97, 389)": lambda: PowerHash.with_base(3.0, 97, 389),
    "KWiseHash(0, 2.0, 5)": lambda: KWiseHash(0, 2.0, 5),
    "KWiseHash(1.5, 2, 5)": lambda: KWiseHash(1.5, 2, 5),
    "PowerHash(1.5, 97, 389)": lambda: PowerHash(1.5, 97, 389),
    "BasicTable(1.0, 4, [h])": lambda: BasicTable(1.0, 4, [KWiseHash(0, 2, 4)]),
    "Params(master_seed=False)": lambda: Params(n=8, delta=0.25, master_seed=False),
    "check_power_params(97.0, 389)": lambda: check_power_params(97.0, 389),
}

CASES = [pytest.param(ENTRY_POINTS[e], MALFORMED[v], id=f"{e}-{v}")
         for e in ENTRY_POINTS for v in MALFORMED if v not in TAKEN.get(e, ())]
CASES += [pytest.param(lambda _, f=f: f(), None, id=name) for name, f in DRIFT.items()]


@pytest.mark.parametrize("call,value", CASES)
def test_malformed_integers_rejected(call, value):
    with pytest.raises(ValueError):
        call(value)


def after(method, items):
    """A fresh table after one call of its `method` on items."""
    t = table()
    getattr(t, method)(items)
    return t


ACCEPTED = {
    # numpy signed and unsigned integers as keys and signs.
    "numpy keys": lambda: (after("insert", [(np.int64(5), 1), (np.uint8(6), 2)]),
                           after("insert", [(5, 1), (6, 2)])),
    "numpy signs": lambda: (
        after("delete", [(np.uint64(1), 5, 1), (np.int8(-1), 6, 2), (np.uint8(1), 7, 3)]),
        after("delete", [(1, 5, 1), (-1, 6, 2), (1, 7, 3)])),
    "numpy key arrays": lambda: (
        KWiseHash(0, 4, 9).eval_batch(np.array([5, 2**60], dtype=np.int64)).tolist(),
        KWiseHash(0, 4, 9).eval_batch([5, 2**60]).tolist()),
    # Values at and above 2^63 stay exact on the pair path.
    "values >= 2^63": lambda: (after("insert", [(1, 2**63), (2, U64)]).list_entries(),
                               ({(1, 2**63), (2, U64)}, set())),
    # Seeds and stream ids are taken mod 2^64.
    "seed -1": lambda: (KWiseHash(-1, 4, 9), KWiseHash(U64, 4, 9)),
    "stream id -1": lambda: (KWiseHash(0, 4, 9, stream_id=-1),
                             KWiseHash(0, 4, 9, stream_id=U64)),
    "seed 2^64": lambda: (KWiseHash(1 << 64, 4, 9, stream_id=1 << 64), KWiseHash(0, 4, 9)),
    "checksum seed -1": lambda: (PowerHash(-1, 97, 389).base, PowerHash(U64, 97, 389).base),
    # numpy integers are ints everywhere a scalar is taken.
    "numpy scalars": lambda: (
        (Params(n=np.int64(8), delta=0.25, master_seed=np.uint64(3)),
         PowerHash.with_base(np.int8(3), np.int64(97), np.uint64(389)).eval(np.uint8(5)),
         KWiseHash(np.uint64(2), np.int32(4), np.int16(9)).eval(np.int64(7)),
         is_prime(np.uint64(97))),
        (Params(n=8, delta=0.25, master_seed=3), pow(3, 5, 389),
         KWiseHash(2, 4, 9).eval(7), True)),
}


@pytest.mark.parametrize("case", sorted(ACCEPTED))
def test_integer_inputs_accepted(case):
    got, want = ACCEPTED[case]()
    assert got == want
