import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stacked_iblt import hashing, stacked
from stacked_iblt.hashing import next_prime_at_least
from stacked_iblt.reconcile import (_HEADER, EnvelopeError, deserialize, layout_digest,
                                    reconcile_local, serialize, sketch_of)
from stacked_iblt.stacked import Params, StackedSketch, plan_layout

CHECK = Params(n=32, delta=2.0**-6, mode="checksum", master_seed=11)
PLAIN = Params(n=32, delta=2.0**-6, master_seed=11)

_K_OFF = 7               # struct offset of the u32 k field
_DELTA_OFF = 27          # struct offset of the f64 delta field
_DIGEST_OFF = 75         # struct offset of the u64 layout digest
_HEADER_FIELDS = ("magic", "version", "mode", "k", "n", "master_seed", "delta", "big_c",
                  "c0", "p", "q", "digest", "balance")


def filled(params, n_pairs=20, seed=0):
    rng = np.random.default_rng(seed)
    keys = rng.choice(2**55, size=n_pairs, replace=False).astype(np.uint64)
    vals = rng.integers(0, 2**64, size=n_pairs, dtype=np.uint64)
    s = StackedSketch(params)
    s.insert_arrays(keys, vals)
    return s, set(zip(keys.tolist(), vals.tolist()))


def test_serialize_deterministic():
    s, _ = filled(CHECK)
    assert serialize(s) == serialize(s)


def test_roundtrip_identity_plain():
    s, _ = filled(PLAIN)
    t = deserialize(serialize(s))
    assert t == s
    assert serialize(t) == serialize(s)


def test_roundtrip_identity_checksum():
    s, truth = filled(CHECK)
    t = deserialize(serialize(s))
    assert t == s
    out = t.list_entries()
    assert out.complete and out.recovered_plus == truth


def test_roundtrip_preserves_balance_and_deletions():
    s = StackedSketch(CHECK)
    s.insert([(1, 2)])
    s.delete([(1, 3, 4), (1, 5, 6)])
    t = deserialize(serialize(s))
    assert t.item_balance == -1
    assert t == s


def test_byte_length_formula():
    # header + cells * (8 + 8 + 8 [+ 16]) bytes
    for params, width in ((PLAIN, 24), (Params(n=1024, delta=2.0**-10, mode="checksum"), 40)):
        s = StackedSketch(params)
        cells = plan_layout(params).total_cells
        assert len(serialize(s)) == 91 + cells * width


def test_wire_size_independent_of_set_size():
    sizes = {len(serialize(filled(CHECK, n)[0])) for n in (0, 10, 200, 320)}
    assert len(sizes) == 1


def test_truncation_rejected():
    blob = serialize(filled(PLAIN)[0])
    with pytest.raises(EnvelopeError, match="truncated"):
        deserialize(blob[:40])
    with pytest.raises(EnvelopeError, match="truncated"):
        deserialize(blob[:-1])
    with pytest.raises(EnvelopeError, match="trailing"):
        deserialize(blob + b"\x00")


def test_bad_magic_rejected():
    blob = bytearray(serialize(filled(PLAIN)[0]))
    blob[0] ^= 0xFF
    with pytest.raises(EnvelopeError, match="magic"):
        deserialize(bytes(blob))


def test_version_flip_rejected():
    blob = bytearray(serialize(filled(PLAIN)[0]))
    blob[4] ^= 0x01
    with pytest.raises(EnvelopeError, match="version"):
        deserialize(bytes(blob))


def test_digest_mismatch_rejected():
    blob = bytearray(serialize(filled(PLAIN)[0]))
    blob[_DIGEST_OFF] ^= 0x01
    with pytest.raises(EnvelopeError, match="digest"):
        deserialize(bytes(blob))


def test_non_finite_delta_rejected():
    blob = bytearray(serialize(filled(PLAIN)[0]))
    blob[_DELTA_OFF:_DELTA_OFF + 8] = struct.pack("<d", math.inf)
    with pytest.raises(EnvelopeError, match="delta"):
        deserialize(bytes(blob))
    blob[_DELTA_OFF:_DELTA_OFF + 8] = struct.pack("<d", math.nan)
    with pytest.raises(EnvelopeError, match="delta"):
        deserialize(bytes(blob))


@pytest.mark.parametrize("fields, name", [
    ({"p": 12345}, "p"), ({"q": (999).to_bytes(16, "little")}, "q"),
    ({"p": 12345, "q": (999).to_bytes(16, "little")}, "p")])
def test_plain_envelope_with_nonzero_p_or_q_rejected(fields, name):
    # Plain mode has no p or q: a nonzero field would give one sketch a
    # second encoding, so the envelope is refused, naming the field.
    blob = with_header(serialize(filled(PLAIN)[0]), **fields)
    with pytest.raises(EnvelopeError, match=f"plain envelope with nonzero {name}$"):
        deserialize(blob)


def test_non_canonical_hash_sum_rejected():
    # hash_sum == q is congruent to 0 but not reduced: an empty sketch
    # carrying it would decode as incomplete, so the envelope is refused,
    # naming the cell's table. Each table's first and last cell are tried;
    # q - 1 is canonical and shows in that table's grid.
    empty = serialize(StackedSketch(CHECK))
    end = 0
    for t, (rows, cols) in enumerate(plan_layout(CHECK).tables):
        end += rows * cols
        for cell, at in ((end - rows * cols, (0, 0)), (end - 1, (-1, -1))):
            off = _HEADER.size + 40 * cell + 24     # the cell's u128 hash_sum
            for value, ok in ((CHECK.q - 1, True), (CHECK.q, False), ((1 << 128) - 1, False)):
                blob = bytearray(empty)
                blob[off:off + 16] = value.to_bytes(16, "little")
                if ok:
                    assert deserialize(bytes(blob)).tables[t].hash_sum[at] == value
                    continue
                with pytest.raises(EnvelopeError, match=f"table {t}: hash_sum"):
                    deserialize(bytes(blob))


def test_oversized_k_rejected_before_allocation():
    # The digest does not cover k; Params bounds it before any hash is built.
    blob = bytearray(serialize(filled(PLAIN)[0]))
    blob[_K_OFF:_K_OFF + 4] = struct.pack("<I", 1 << 20)
    with pytest.raises(EnvelopeError, match="invalid parameters"):
        deserialize(bytes(blob))


def with_header(blob: bytes, **fields) -> bytes:
    """blob with the named header fields replaced, the payload kept."""
    header = dict(zip(_HEADER_FIELDS, _HEADER.unpack_from(blob)))
    header.update(fields)
    return _HEADER.pack(*header.values()) + blob[_HEADER.size:]


@pytest.mark.parametrize("fields", [
    {"n": 2**62}, {"big_c": 1e30}, {"c0": 1e300}, {"c0": 1e306, "delta": 2.0**-1000}])
def test_layout_overflowing_header_rejected(fields):
    # Each layout has a size of 2^64 or more (or tau overflows a float), so
    # it cannot even be digested; the header is refused before the payload.
    blob = with_header(serialize(StackedSketch(Params(n=16, delta=2.0**-4))), **fields)
    with pytest.raises(EnvelopeError, match="invalid parameters"):
        deserialize(blob)


def _uint(bits: int):
    return st.integers(0, (1 << bits) - 1)


_FUZZ_FIELDS = dict(zip(_HEADER_FIELDS, (
    st.binary(min_size=4, max_size=4), _uint(16), _uint(8), _uint(32), _uint(64),
    _uint(64), st.floats(), st.floats(), st.floats(), _uint(64),
    st.binary(min_size=16, max_size=16), _uint(64), st.integers(-(1 << 63), (1 << 63) - 1))))


@settings(max_examples=200, deadline=None)
@given(st.fixed_dictionaries({}, optional=_FUZZ_FIELDS), st.binary(max_size=48))
def test_header_fuzz_raises_only_envelope_error(fields, payload):
    # Any subset of a checksum envelope's header fields, each replaced by
    # any value of its struct width, so examples also reach later checks.
    # A rejected envelope never builds a sketch, so it neither reads nor
    # fills the row and checksum caches.
    blob = with_header(serialize(StackedSketch(CHECK)), **fields)
    caches = cache_infos()
    try:
        sketch = deserialize(blob[:_HEADER.size] + payload)
    except EnvelopeError:
        assert cache_infos() == caches
        return
    assert isinstance(sketch, StackedSketch)


def cache_infos():
    return stacked._row_stack.cache_info(), stacked._checksum_hash.cache_info()


def test_one_envelope_twice_draws_its_rows_once(monkeypatch):
    # Every sketch of one Params shares its rows and checksum hash: the
    # second envelope of a session draws nothing.
    blob = serialize(filled(CHECK)[0])
    stacked._row_stack.cache_clear()
    stacked._checksum_hash.cache_clear()
    draws = []
    real = hashing._philox_blocks
    monkeypatch.setattr(hashing, "_philox_blocks", lambda *a: draws.append(a) or real(*a))
    a = deserialize(blob)
    assert len(draws) == 2                  # the rows and the checksum base
    b = deserialize(blob)
    assert len(draws) == 2
    assert a._stack is b._stack and a.checksum is b.checksum
    for arr in (a._stack.coefficients, a._stack.gamma, a._stack.offsets, *a._stack.limbs):
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 1
    # Shared rows, separate cells: a write through one leaves the other alone.
    a.insert([(5, 6)])
    assert serialize(b) == blob and serialize(a) != blob
    assert a.list_entries().recovered_plus == b.list_entries().recovered_plus | {(5, 6)}


def test_one_primality_proof_per_pair(monkeypatch):
    # Params, every sketch's PowerHash and the received envelope's Params
    # all validate (p, q); the 128-bit q is proven once.
    p, q = 1_000_003, next_prime_at_least(1 << 100)
    hashing._prove_power_params.cache_clear()
    proven = []
    real = hashing.is_prime
    monkeypatch.setattr(hashing, "is_prime", lambda n: proven.append(n) or real(n))
    params = Params(n=16, delta=2.0**-4, mode="checksum", p=p, q=q, master_seed=5)
    remote, local = sketch_of([(1, 2), (3, 4)], params), sketch_of([(1, 2)], params)
    assert local.subtract(remote).list_entries().recovered_minus == {(3, 4)}
    assert reconcile_local([(1, 2)], serialize(remote), params) == ({(3, 4)}, set(), True)
    assert proven.count(q) == 1


def test_digest_covers_layout():
    assert layout_digest(plan_layout(PLAIN)) != layout_digest(
        plan_layout(Params(n=64, delta=2.0**-6)))


def test_reconcile_identical_sets():
    s, truth = filled(CHECK, 50)
    missing_here, missing_there, complete = reconcile_local(truth, serialize(s), CHECK)
    assert (missing_here, missing_there, complete) == (set(), set(), True)


def test_reconcile_remote_superset():
    local = {(1, 10), (2, 20)}
    remote = sketch_of(local | {(9, 2)}, CHECK)
    missing_here, missing_there, complete = reconcile_local(local, serialize(remote), CHECK)
    assert complete
    assert missing_here == {(9, 2)}
    assert missing_there == set()


def test_reconcile_both_directions_mirror():
    rng = np.random.default_rng(4)
    keys = rng.choice(2**50, size=40, replace=False).tolist()
    vals = rng.integers(0, 2**64, size=40, dtype=np.uint64).tolist()
    pairs = list(zip(map(int, keys), map(int, vals)))
    set_a = set(pairs[:30])
    set_b = set(pairs[10:])
    env_a = serialize(sketch_of(set_a, CHECK))
    env_b = serialize(sketch_of(set_b, CHECK))
    a_missing, a_extra, ok_a = reconcile_local(set_a, env_b, CHECK)
    b_missing, b_extra, ok_b = reconcile_local(set_b, env_a, CHECK)
    assert ok_a and ok_b
    assert a_missing == set_b - set_a == b_extra
    assert a_extra == set_a - set_b == b_missing


def test_reconcile_rejects_plain_mode():
    s, truth = filled(PLAIN)
    with pytest.raises(ValueError, match="checksum"):
        reconcile_local(truth, serialize(s), PLAIN)


def test_reconcile_rejects_param_mismatch():
    other = Params(n=32, delta=2.0**-6, mode="checksum", master_seed=12)
    s, truth = filled(CHECK)
    with pytest.raises(ValueError, match="match"):
        reconcile_local(truth, serialize(s), other)


def test_reconcile_mismatch_names_fields():
    other = Params(n=32, delta=2.0**-6, mode="checksum", master_seed=12,
                   q=next_prime_at_least(CHECK.q + 1))
    s, truth = filled(CHECK)
    with pytest.raises(ValueError, match="do not match local ones: master_seed, q$"):
        reconcile_local(truth, serialize(s), other)


def test_reconcile_overload_reports_incomplete():
    # C = 8e provisions ~22n cells in the first table alone, so decoding
    # survives well past n; 32n reliably saturates it. Success must then
    # be reported honestly as incomplete.
    rng = np.random.default_rng(5)
    keys = rng.choice(2**50, size=32 * CHECK.n, replace=False).tolist()
    remote = sketch_of([(int(k), 1) for k in keys], CHECK)
    _, _, complete = reconcile_local(set(), serialize(remote), CHECK)
    assert not complete


def test_reconcile_property_random_pairs():
    rng = np.random.default_rng(6)
    completes = 0
    for trial in range(20):
        n_a = int(rng.integers(0, 10 * CHECK.n))
        diff = int(rng.integers(0, CHECK.n + 1))
        d_a = int(rng.integers(0, diff + 1))
        keys = rng.choice(2**55, size=n_a + (diff - d_a), replace=False).astype(np.uint64)
        vals = rng.integers(0, 2**64, size=keys.size, dtype=np.uint64)
        pairs = list(zip(keys.tolist(), vals.tolist()))
        set_a = set(pairs[:n_a])
        shared = pairs[d_a:n_a]
        set_b = set(shared) | set(pairs[n_a:])
        env_b = serialize(sketch_of(set_b, CHECK))
        missing_here, missing_there, complete = reconcile_local(set_a, env_b, CHECK)
        if complete:
            completes += 1
            assert missing_here == set_b - set_a
            assert missing_there == set_a - set_b
    assert completes >= 19   # delta = 2^-6 leaves room for rare failure


@pytest.mark.parametrize("extra", [16, 32 * CHECK.n], ids=["complete", "overloaded"])
def test_reconcile_in_place_deletion_matches_subtraction(extra):
    # Deleting the local pairs from the remote sketch leaves the same cells
    # as subtracting a sketch of them, before and after the decode.
    rng = np.random.default_rng(extra)
    keys = rng.choice(2**50, size=40 + extra, replace=False).tolist()
    pairs = [(int(k), int(v)) for k, v in
             zip(keys, rng.integers(0, 2**64, size=len(keys), dtype=np.uint64))]
    local = pairs[:40]
    envelope = serialize(sketch_of(pairs[30:], CHECK))
    deleted = deserialize(envelope)
    deleted.delete_pairs(local)
    subtracted = deserialize(envelope).subtract(sketch_of(local, CHECK))
    assert serialize(deleted) == serialize(subtracted)
    got, want = deleted.list_entries(in_place=True), subtracted.list_entries(in_place=True)
    assert got == want
    assert serialize(deleted) == serialize(subtracted)
    assert reconcile_local(local, envelope, CHECK) == (
        want.recovered_plus, want.recovered_minus, want.complete)
    assert want.complete == (extra == 16)
