import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from stacked_iblt import hashing
from stacked_iblt.cli import bad_base_count, is_identity_multiset
from stacked_iblt.hashing import (MERSENNE61, KWiseHash, PowerHash,
                                  RowStack, SeededStream, _field_elements,
                                  bucket_stream_id, coeff_limbs,
                                  eval_poly_rows, is_prime,
                                  next_prime_at_least)
from stacked_iblt.stacked import Params


def horner_oracle(coeffs, x, mod):
    """Independent big-integer polynomial evaluation (constant term first)."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % mod
    return acc


def naive_pow(base, exp, mod):
    acc = 1
    for _ in range(exp):
        acc = acc * base % mod
    return acc


# -- k-wise bucket hashing --------------------------------------------------

def test_same_seed_same_coefficients():
    a = KWiseHash(7, 4, 16)
    b = KWiseHash(7, 4, 16)
    assert a.coefficients == b.coefficients
    assert a == b
    assert len(a.coefficients) == 4
    assert all(0 <= c < MERSENNE61 for c in a.coefficients)


def test_distinct_streams_differ():
    a = KWiseHash(7, 4, 16, stream_id=1)
    b = KWiseHash(7, 4, 16, stream_id=2)
    assert a.coefficients != b.coefficients


def test_degree_zero_is_constant():
    h = KWiseHash(123, 1, 9)
    want = h.coefficients[0] % 9
    assert all(h.eval(x) == want for x in (0, 1, 5, 2**60))


def test_eval_matches_bigint_oracle():
    h = KWiseHash(1, 8, 97)
    for key in range(10):
        assert h.eval(key) == horner_oracle(h.coefficients, key, MERSENNE61) % 97


def test_eval_large_key_matches_oracle():
    h = KWiseHash(99, 6, 11)
    key = 2**40 + 17
    assert h.eval(key) == horner_oracle(h.coefficients, key, MERSENNE61) % 11


def test_fixed_coefficient_examples():
    assert KWiseHash.from_coefficients([5], 3).eval(123) == 2
    assert KWiseHash.from_coefficients([0, 1], 10).eval(42) == 2


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**64 - 1), st.integers(1, 12),
       st.integers(1, 10**6), st.lists(st.integers(0, MERSENNE61 - 2), min_size=1, max_size=6))
def test_eval_property_vs_oracle(seed, k, gamma, keys):
    h = KWiseHash(seed, k, gamma)
    got = h.eval_batch(np.array(keys, dtype=np.uint64))
    want = [horner_oracle(h.coefficients, x, MERSENNE61) % gamma for x in keys]
    assert got.tolist() == want
    assert h.eval_batch(np.array(keys, dtype=np.int64)).tolist() == want


def test_eval_poly_rows_matches_oracle():
    hs = [KWiseHash(5, 4, 13, stream_id=i) for i in range(6)]
    cm = np.stack([np.array(h.coefficients, dtype=np.uint64) for h in hs])
    keys = [0, 1, 7, 2**60, MERSENNE61 - 1]
    got = eval_poly_rows(coeff_limbs(cm), np.array(keys, dtype=np.uint64), 13)
    for r, h in enumerate(hs):
        want = [horner_oracle(h.coefficients, x, MERSENNE61) % 13 for x in keys]
        assert got[r].tolist() == want


@pytest.mark.parametrize("n", [1, 255, 256, 257, 700])
def test_eval_poly_rows_blocks_extremes_and_gamma_column(n):
    # Batches around the key block size, all-maximal coefficients and keys
    # (the largest limbs) beside random ones, and a per-row bucket range
    # column.
    top = MERSENNE61 - 1                       # 2^61-2, the largest field element
    rng = np.random.default_rng(n)
    cm = rng.integers(0, MERSENNE61, size=(4, 12), dtype=np.uint64)
    cm[0] = top
    cm[1, ::2] = top
    keys = rng.integers(0, MERSENNE61, size=n, dtype=np.uint64)
    keys[::3] = top
    gamma = np.array([[1], [97], [2**40 + 15], [MERSENNE61 - 1]], dtype=np.uint64)
    got = eval_poly_rows(coeff_limbs(cm), keys, gamma)
    assert got.shape == (4, n)
    for r in range(4):
        coeffs = cm[r].tolist()
        want = [horner_oracle(coeffs, x, MERSENNE61) % int(gamma[r, 0])
                for x in keys.tolist()]
        assert got[r].tolist() == want


@pytest.mark.parametrize("k", [1, 2, 3, 40, 512, 513, 1100, 4096])
def test_eval_poly_rows_degrees_across_power_chunks(k):
    # Degrees on both sides of the 512-power GEMM chunk, all-maximal
    # coefficients and keys beside random ones. At k = 4096 the top row's
    # class sums would pass 2^53, and round, without chunking. The last
    # row, 1 + x, sums to exactly 2^61-1 at x = 2^61-2, which only the
    # final canonical step maps to 0.
    top = MERSENNE61 - 1
    rng = np.random.default_rng(k)
    cm = rng.integers(0, MERSENNE61, size=(4, k), dtype=np.uint64)
    cm[0] = top
    cm[1, ::2] = top
    cm[3] = 0
    cm[3, :2] = 1
    keys = rng.integers(0, MERSENNE61, size=300 if k <= 1100 else 20, dtype=np.uint64)
    keys[::3] = top
    gamma = np.array([[1], [1000003], [top], [97]], dtype=np.uint64)
    got = eval_poly_rows(coeff_limbs(cm), keys, gamma)
    for r in range(4):
        coeffs = cm[r].tolist()
        want = [horner_oracle(coeffs, x, MERSENNE61) % int(gamma[r, 0])
                for x in keys.tolist()]
        assert got[r].tolist() == want


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 8, 9, 16, 17, 32, 33, 40, 64, 65])
def test_powers_match_pow(k):
    # Every doubling level, including the partial last one, at the extreme
    # keys and random ones. The powers are congruent, not canonical.
    rng = np.random.default_rng(k)
    keys = np.concatenate([np.array([0, 1, MERSENNE61 - 1], dtype=np.uint64),
                           rng.integers(0, MERSENNE61, size=29, dtype=np.uint64)])
    p, shared, _ = hashing._block_buffers(1, k, k, keys.size)
    hashing._powers(keys, k, p, shared)
    assert int(p.max()) < 2**61 + 4
    for j in range(k):
        assert [v % MERSENNE61 for v in p[j].tolist()] == \
            [pow(x, j, MERSENNE61) for x in keys.tolist()]


@pytest.mark.parametrize("k", [1, 40, 600])
def test_eval_poly_rows_batch_is_concatenation_of_pieces(k):
    # Splits at the key block edges and a random point: blocks share
    # buffers within a call, so no block may depend on another.
    rng = np.random.default_rng(k)
    cm = rng.integers(0, MERSENNE61, size=(5, k), dtype=np.uint64)
    limbs = coeff_limbs(cm)
    gamma = np.array([[7], [7], [1000], [MERSENNE61 - 1], [2]], dtype=np.uint64)
    keys = rng.integers(0, MERSENNE61, size=700, dtype=np.uint64)
    whole = eval_poly_rows(limbs, keys, gamma)
    for cut in (1, 255, 256, 257, int(rng.integers(2, 699))):
        parts = [eval_poly_rows(limbs, part, gamma) for part in (keys[:cut], keys[cut:])]
        assert np.array_equal(np.concatenate(parts, axis=1), whole)


def test_row_stack_rejects_out_of_field_rows():
    # At k=500 all-ones-word coefficients would push the GEMM's class sums
    # past 2^53; a zero range has no bucket.
    with pytest.raises(ValueError, match="coefficients"):
        RowStack(np.full((1, 500), 2**64 - 1, dtype=np.uint64), [7])
    for bad in ([[MERSENNE61]], [[-1]], [[2**70]], [[1.5]]):
        with pytest.raises(ValueError, match="coefficients"):
            RowStack(bad, [7])
    for gamma in ([0], [MERSENNE61], [-3], [2**64]):
        with pytest.raises(ValueError, match="bucket range"):
            RowStack([[1, 2]], gamma)
    with pytest.raises(ValueError, match="R bucket ranges"):
        RowStack([[1, 2], [3, 4]], [7])
    with pytest.raises(ValueError, match="k >= 1"):
        RowStack(np.zeros((2, 0), dtype=np.uint64), [7, 7])
    top = RowStack([[MERSENNE61 - 1] * 3], [MERSENNE61 - 1])
    assert top.coefficients.dtype == np.uint64


def test_row_stack_from_streams_matches_kwise_rows():
    ids = [5, (0x10 << 56) | 3, bucket_stream_id(2, 1)]
    stack = RowStack.from_streams(11, 6, ids, [97, 5, 97])
    for row, (sid, gamma) in enumerate(zip(ids, (97, 5, 97))):
        h = KWiseHash(11, 6, gamma, stream_id=sid)
        assert tuple(stack.coefficients[row].tolist()) == h.coefficients
        assert int(stack.gamma[row, 0]) == gamma


def test_coefficients_follow_seeded_stream_word_for_word():
    # The vectorized draw keeps the word sequence of SeededStream.below,
    # so every seed keeps its meaning.
    for seed in (0, 1, 123456789, 2**64 - 1):
        for stream_id in (0, 7, bucket_stream_id(3, 5), 2**64 - 1):
            for k in (1, 2, 3, 4, 5, 17, 40):
                s = SeededStream(seed, stream_id)
                want = tuple(s.below(MERSENNE61) for _ in range(k))
                assert KWiseHash(seed, k, 97, stream_id=stream_id).coefficients == want


def test_field_elements_reject_and_redraw():
    # Words whose low 61 bits are all ones are skipped, as SeededStream
    # skips them, and the stream continues for the shortfall.
    class Words:
        def __init__(self, words):
            self.words = list(words)

        def random_raw(self, n):
            out, self.words = self.words[:n], self.words[n:]
            return np.array(out, dtype=np.uint64)

    words = [5, 2**64 - 1, MERSENNE61, 7, 2**63 + 9, 11]
    assert _field_elements(Words(words), 4).tolist() == [5, 7, 9, 11]


def test_eval_rejects_out_of_domain_key():
    h = KWiseHash(0, 2, 8)
    with pytest.raises(ValueError):
        h.eval(MERSENNE61)
    with pytest.raises(ValueError):
        h.eval(1.7)                     # not truncated to key 1


def test_bad_ranges_rejected():
    with pytest.raises(ValueError):
        KWiseHash(0, 3, 0)
    with pytest.raises(ValueError):
        KWiseHash(0, 3, MERSENNE61)
    with pytest.raises(ValueError):
        KWiseHash(0, 0, 8)


def test_pairwise_uniformity_smoke():
    # Seeded statistical check, not a proof: 10^5 pairwise-independent
    # draws put ~1562 hits per joint cell; 5% relative is about two sigma,
    # so the fixed keys below were picked to leave margin.
    x1, x2 = 1104322416556111, 1049405914329767
    keys = np.array([x1, x2], dtype=np.uint64)
    counts = np.zeros((8, 8), dtype=np.int64)
    for seed in range(100_000):
        b = KWiseHash(seed, 2, 8).eval_batch(keys)
        counts[int(b[0]), int(b[1])] += 1
    expected = 100_000 / 64
    rel = np.abs(counts - expected) / expected
    chi2 = ((counts - expected) ** 2 / expected).sum()
    assert rel.max() < 0.05
    assert chi2 < 103.0  # far tail of chi-square with 63 dof


# -- power-map checksum ------------------------------------------------------

def test_power_direct_example():
    g = PowerHash.with_base(3, 5, 11)
    assert g.eval(4) == 81 % 11 == 4


def test_power_of_zero_is_one():
    for seed in range(5):
        g = PowerHash(seed, 13, 31)
        assert g.eval(0) == 1


def test_power_matches_naive_loop():
    g = PowerHash.with_base(7, 101, 103)
    assert g.eval(13) == naive_pow(7, 13, 103)
    for key in range(20):
        assert g.eval(key) == naive_pow(7, key, 103)


def test_power_deterministic_and_in_range():
    a = PowerHash(99, 5, 11)
    b = PowerHash(99, 5, 11)
    assert a.base == b.base
    assert 1 <= a.base <= 10


def test_power_seed_sweep_covers_group():
    seen = {PowerHash(seed, 29, 31).base for seed in range(10_000)}
    assert seen == set(range(1, 31))


def test_power_rejects_bad_params():
    with pytest.raises(ValueError):
        PowerHash(0, 4, 11)           # p not prime
    with pytest.raises(ValueError):
        PowerHash(0, 5, 15)           # q not prime
    with pytest.raises(ValueError):
        PowerHash(0, 11, 5)           # p >= q
    g = PowerHash(0, 5, 11)
    with pytest.raises(ValueError):
        g.eval(5)                     # key >= p


def test_power_batch_matches_scalar():
    g = PowerHash(3, 97, 389)
    keys = np.array([0, 1, 5, 96, 5, 0], dtype=np.uint64)
    assert g.eval_batch(keys).tolist() == [g.eval(int(k)) for k in keys]
    # Signed arrays of non-negative keys are taken as they are.
    assert g.eval_batch(keys.astype(np.int64)).tolist() == g.eval_batch(keys).tolist()


def test_power_homomorphism():
    g = PowerHash(11, 97, 389)
    rng = np.random.default_rng(0)
    for _ in range(300):
        x = int(rng.integers(0, 97))
        y = int(rng.integers(0, 97 - x))
        assert g.eval(x) * g.eval(y) % 389 == g.eval(x + y)


# -- fixed-base power table ---------------------------------------------------

_DEFAULT_CHECKSUM = Params(n=256, delta=2.0**-10, mode="checksum")
# (p, q) pairs from one window up to a 64-bit p with a 128-bit q; bits of p, q:
_POWER_PAIRS = [
    (5, 11),                                        # 3, 4
    (97, 389),                                      # 7, 9
    (MERSENNE61, 2**89 - 1),                        # 61, 89
    (_DEFAULT_CHECKSUM.p, _DEFAULT_CHECKSUM.q),     # 61, 106
    (2**64 - 59, next_prime_at_least(2**127)),      # 64, 128
]


@pytest.mark.parametrize("p,q", _POWER_PAIRS)
def test_power_table_matches_pow_at_window_edges(p, q):
    # 0, 1, p-1 and both sides of every window boundary 2^(8j) below p.
    edges = {(1 << 8 * j) - d for j in range(1, 9) for d in (0, 1)}
    keys = sorted(k for k in edges | {0, 1, p - 1} if k < p)
    for base in (1, 2, q - 1, PowerHash(7, p, q).base):
        g = PowerHash.with_base(base, p, q)
        got = g.eval_batch(np.array(keys, dtype=np.uint64))
        assert got.dtype == object
        assert got.tolist() == [pow(base, k, q) for k in keys]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_power_table_matches_pow_property(data):
    p, q = data.draw(st.sampled_from(_POWER_PAIRS))
    base = data.draw(st.integers(1, q - 1))
    keys = data.draw(st.lists(st.integers(0, p - 1), max_size=40))
    g = PowerHash.with_base(base, p, q)
    got = g.eval_batch(np.array(keys, dtype=np.uint64))
    assert got.tolist() == [pow(base, k, q) for k in keys]


def test_power_batch_empty():
    g = PowerHash(3, 97, 389)
    for keys in ([], np.array([], dtype=np.uint64)):
        out = g.eval_batch(keys)
        assert out.dtype == object and out.shape == (0,)


def test_power_batch_checks_keys_before_table_work(monkeypatch):
    def no_table(*args):
        raise AssertionError("table looked up for a rejected batch")

    monkeypatch.setattr(hashing, "_power_table", no_table)
    g = PowerHash.with_base(3, 97, 389)
    for keys in ([97], np.array([0, 5, 2**64 - 1], dtype=np.uint64), [1.7], [-1]):
        with pytest.raises(ValueError):
            g.eval_batch(keys)


def test_power_table_rows_and_read_only():
    # Every caller shares the cached table, so it must not be writable.
    table = hashing._power_table(3, 389, 20)
    assert table.shape == (3, 256) and not table.flags.writeable
    assert table.tolist() == [[pow(3, d << 8 * j, 389) for d in range(256)] for j in range(3)]


@pytest.mark.parametrize("keys", [
    [1.7], np.array([0.0, 2.0]), [-1], np.array([3, -2], dtype=np.int8),
    np.array([True]), np.array([4], dtype=object)])
def test_hash_families_reject_non_integer_keys(keys):
    # A uint64 cast would hash 1.7 as 1 and overflow on -1.
    for h in (PowerHash.with_base(3, 97, 389), KWiseHash(0, 4, 10)):
        with pytest.raises(ValueError):
            h.eval_batch(keys)


def test_power_eval_rejects_non_integer_keys():
    # pow would raise TypeError on 1.7 and take True as key 1.
    g = PowerHash.with_base(3, 97, 389)
    for key in (1.7, 2.0, True, np.bool_(True), np.float64(4.0), "5", None):
        with pytest.raises(ValueError, match="integers"):
            g.eval(key)
    assert g.eval(np.uint64(5)) == g.eval(5) == pow(3, 5, 389)
    assert g.eval(np.int8(7)) == pow(3, 7, 389)


def test_power_batch_rejects_negative_key_that_wraps_into_domain():
    # With a 64-bit p, -100 cast to uint64 is 2^64-100 < p: a valid key.
    p, q = _POWER_PAIRS[-1]
    assert (1 << 64) - 100 < p
    with pytest.raises(ValueError):
        PowerHash.with_base(3, p, q).eval_batch(np.array([-100]))


# -- false-verification base counting ----------------------------------------

def root_count_oracle(p, q, keys, signs):
    """Count roots in Z_q* of the difference polynomial, by dense evaluation.

    The verification identity, cleared of negative exponents, compares
    a^(l*p + sum s_i k_i) with sum s_i a^(l*p + k_i); both sides are
    polynomials in a, so count zeros of their difference directly.
    """
    ell = len(keys)
    shift = ell * p
    coeffs = {}
    lhs_exp = shift + sum(s * k for s, k in zip(signs, keys))
    coeffs[lhs_exp] = coeffs.get(lhs_exp, 0) + 1
    for s, k in zip(signs, keys):
        coeffs[shift + k] = coeffs.get(shift + k, 0) - s
    degree = max(coeffs)
    dense = [coeffs.get(i, 0) % q for i in range(degree + 1)]
    count = 0
    for a in range(1, q):
        acc = 0
        for c in reversed(dense):
            acc = (acc * a + c) % q
        if acc == 0:
            count += 1
    return count


def test_single_plus_key_is_identity():
    # One +1 key makes both sides the same polynomial: every base verifies.
    for key in range(5):
        assert bad_base_count(5, 101, [key], [1]) == 100


def test_pair_bound_example():
    assert bad_base_count(5, 101, [2, 3], [1, -1]) <= 2 * 2 * 5 + 1


def test_exhaustive_pairs_match_root_oracle():
    p, q = 3, 31
    worst = 0
    for k1 in range(p):
        for k2 in range(p):
            for signs in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                got = bad_base_count(p, q, [k1, k2], signs)
                assert got == root_count_oracle(p, q, [k1, k2], signs)
                assert got <= 2 * 2 * p + 1
                worst = max(worst, got)
    assert worst <= 13


def test_bound_holds_for_random_triples():
    rng = np.random.default_rng(5)
    p, q = 7, 211
    for _ in range(40):
        keys = rng.integers(0, p, size=3).tolist()
        signs = rng.choice([1, -1], size=3).tolist()
        if is_identity_multiset(keys, signs):
            assert bad_base_count(p, q, keys, signs) == q - 1
        else:
            assert bad_base_count(p, q, keys, signs) <= 2 * 3 * p + 1


def test_identity_multiset_detection():
    assert is_identity_multiset([4], [1])
    assert is_identity_multiset([5, 5, 0], [1, -1, 1])
    assert not is_identity_multiset([4], [-1])
    assert not is_identity_multiset([1, 2], [1, 1])
    assert not is_identity_multiset([3, 3], [1, -1])
    assert not is_identity_multiset([3, 3], [1, 1])


def test_sweep_guard():
    with pytest.raises(ValueError):
        bad_base_count(5003, 5009, [1, 2, 3], [1, 1, 1])
    with pytest.raises(ValueError):
        bad_base_count(5, 101, [1], [2])
    with pytest.raises(ValueError):
        bad_base_count(5, 101, [], [])


# -- primality helpers --------------------------------------------------------

def test_is_prime_matches_sympy_small():
    for n in range(2000):
        assert is_prime(n) == sympy.isprime(n)


def test_is_prime_matches_sympy_large():
    rng = np.random.default_rng(1)
    for _ in range(25):
        n = int(rng.integers(2**62, 2**63))
        assert is_prime(n) == sympy.isprime(n)
    for n in (2**61 - 1, 2**89 - 1, 2**89 - 3, 10**30 + 57, 10**30 + 1):
        assert is_prime(n) == sympy.isprime(n)


def test_next_prime_matches_sympy():
    for start in (100, 2**61 - 3, 10**20, 26 * 10**27):
        got = next_prime_at_least(start)
        assert got == (start if sympy.isprime(start) else sympy.nextprime(start))


# -- seeded stream -------------------------------------------------------------

def test_stream_determinism_and_bounds():
    a = SeededStream(5, 77)
    b = SeededStream(5, 77)
    va = [a.below(1000) for _ in range(100)]
    vb = [b.below(1000) for _ in range(100)]
    assert va == vb
    assert all(0 <= v < 1000 for v in va)
    assert SeededStream(5, 78).below(1 << 100) != SeededStream(5, 79).below(1 << 100)


def test_stream_power_of_two_bound_unbiased_window():
    s = SeededStream(0, 0)
    vals = [s.below(8) for _ in range(2000)]
    assert set(vals) == set(range(8))
