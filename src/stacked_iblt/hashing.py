"""Hash families used by the sketch tables.

Bucket placement uses seeded degree-(k-1) polynomials over the Mersenne
field Z_(2^61-1): drawing the k coefficients from a counter-mode stream
gives a k-wise independent family, and the Mersenne modulus reduces by
shift-and-add folding (2^61 == 1), after Thorup, "High Speed Hashing for
Integers and Strings". A sketch's polynomials are one `RowStack`, an
(R, k) coefficient matrix drawn row by row from per-row streams, and
`RowStack.flat_cells` is the one bucket evaluation. `eval_poly_rows` is
the one polynomial kernel. Every row of a stack evaluates the same keys,
so it computes the powers x^j mod 2^61-1 once per key and turns
sum_j c[r, j] * x^j into a matrix product: coefficients and powers are
split into 21-bit limbs, which keeps one float64 GEMM exact, and its
three limb-shift classes are folded back mod 2^61-1 in uint64.

The checksum family maps a key x to a^x mod q for a base a drawn once per
sketch; it is what lets a table distinguish a cell holding one genuine
pair from a cell whose count merely sums to +-1. The base is fixed and
keys lie below p < 2^64, so a batch is evaluated by fixed-base windowing
(Brickell, Gordon, McCurley & Wilson, "Fast Exponentiation with
Precomputation"; Lim & Lee, "More Flexible Exponentiation with
Precomputation"): a table of a^(d*2^(8j)) mod q, built once per (a, q)
and cached, turns each a^x into one lookup per 8-bit window of x and a
multiply-mod between them.
"""

from __future__ import annotations

import functools

import numpy as np

MERSENNE61 = (1 << 61) - 1

# Keys per kernel block: a block's (rows, BLOCK_KEYS) and (k, BLOCK_KEYS)
# temporaries stay cache-sized for a whole sketch's rows and small enough
# for the allocator to recycle, whatever the batch size.
BLOCK_KEYS = 256

# Powers per limb GEMM. A class sum is exact up to 682 columns (derived in
# `_limb_classes`); larger k is evaluated in chunks of this many, summed
# mod 2^61-1.
CHUNK_POWERS = 512

_M61 = np.uint64(MERSENNE61)
_M21 = np.uint64((1 << 21) - 1)
_LOW32 = np.uint64(0xFFFFFFFF)
_S3, _S19, _S21, _S29, _S32, _S40, _S42, _S61 = (
    np.uint64(s) for s in (3, 19, 21, 29, 32, 40, 42, 61))
_U64 = 0xFFFFFFFFFFFFFFFF

# The power limbs stacked as Y = [X2; X1; X0], by the right shift of each.
_Y_SHIFT = np.array([42, 21, 0], dtype=np.uint64)[:, None, None]
# Class t's coefficient limb against X2, X1, X0 (see `_limb_classes`), as
# the right shift that selects the limb and the left shift that scales it
# by 4 or 1:
#   T0: 4*C1, 4*C2, C0    T1: 4*C2, C0, C1    T2: C0, C1, C2
_CLASS_LIMBS = tuple(np.array(v, dtype=np.uint64)[:, None, :, None] for v in (
    [[21, 42, 0], [42, 0, 21], [0, 21, 42]],
    [[2, 2, 0], [2, 0, 0], [0, 0, 0]]))

# Bits per window of the fixed-base power table (`_power_table`): 8-bit
# windows take at most 8 lookups for a 64-bit key from 256-entry rows.
_WINDOW_BITS = 8
_WINDOW_MASK = np.uint64((1 << _WINDOW_BITS) - 1)

# Stream-id namespaces: one master seed drives every draw in a sketch, so
# each consumer gets its own Philox key half.
_STREAM_BUCKET = 1
_STREAM_CHECKSUM = 2
_STREAM_WITNESS = 3


def _philox(seed: int, stream_id: int) -> np.random.Philox:
    return np.random.Philox(key=np.array([seed & _U64, stream_id & _U64], dtype=np.uint64))


def _key_array(keys) -> np.ndarray:
    """keys as uint64; ValueError unless every key is a non-negative integer.

    A forced uint64 cast would hash 1.7 as key 1 and fail on -1 with
    OverflowError, so the dtype kind, and the sign of signed input, are
    checked first. A uint64 array passes with one dtype test.
    """
    keys = np.asarray(keys)
    kind = keys.dtype.kind
    if kind != "u" and keys.size:
        if kind != "i":
            raise ValueError("keys must be integers")
        if keys.min() < 0:
            raise ValueError("keys must be non-negative")
    return keys.astype(np.uint64, copy=False)


class SeededStream:
    """Counter-mode pseudorandom word stream keyed by (seed, stream id).

    Philox is counter-based, so two streams with distinct ids never
    overlap and rebuilding a stream replays it exactly.
    """

    def __init__(self, seed: int, stream_id: int):
        self._bitgen = _philox(seed, stream_id)
        self._words: list[int] = []

    def _word(self) -> int:
        if not self._words:
            # Chunk size only affects batching, never the word sequence.
            self._words = self._bitgen.random_raw(16).tolist()
            self._words.reverse()
        return self._words.pop()

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound) via bit-window rejection."""
        if bound <= 1:
            return 0
        nbits = (bound - 1).bit_length()
        nwords = (nbits + 63) // 64
        mask = (1 << nbits) - 1
        while True:
            v = 0
            for i in range(nwords):
                v |= self._word() << (64 * i)
            v &= mask
            if v < bound:
                return v


def _field_elements(bitgen, k: int) -> np.ndarray:
    """k uniform elements of Z_(2^61-1) as uint64, drawn from bitgen's words.

    The same sequence k calls of `SeededStream.below(2^61-1)` give: each
    64-bit word masked to 61 bits, kept when below 2^61-1. A word is
    rejected with probability 2^-61, so one draw of k words nearly always
    suffices; otherwise the stream continues for the shortfall.
    """
    words = bitgen.random_raw(k) & _M61
    out = words[words < _M61]
    while out.size < k:
        words = bitgen.random_raw(k - out.size) & _M61
        out = np.concatenate([out, words[words < _M61]])
    return out


def bucket_stream_id(table: int, row: int) -> int:
    """Stream id for the row hash of one table row."""
    if not (0 <= table < 1 << 24 and 0 <= row < 1 << 28):
        raise ValueError("table/row index out of stream-id range")
    return (_STREAM_BUCKET << 56) | (table << 28) | row


class KWiseHash:
    """Seeded degree-(k-1) polynomial over Z_(2^61-1), reduced mod `gamma`.

    A one-row RowStack; immutable after construction, so instances may be
    shared across threads.
    """

    __slots__ = ("independence", "gamma", "coefficients", "_row")

    def __init__(self, seed: int, k: int, gamma: int, stream_id: int = 0):
        if k < 1:
            raise ValueError("independence k must be >= 1")
        self._init_fields(_field_elements(_philox(seed, stream_id), k), gamma)

    def _init_fields(self, coeffs: np.ndarray, gamma: int) -> None:
        if not 1 <= gamma < MERSENNE61:
            raise ValueError("bucket range must satisfy 1 <= gamma < 2^61-1")
        self._row = RowStack(coeffs[None, :], [gamma])
        self.independence, self.gamma = coeffs.size, gamma
        self.coefficients = tuple(coeffs.tolist())

    @classmethod
    def from_coefficients(cls, coeffs, gamma: int) -> "KWiseHash":
        """Build directly from field elements c_0..c_(k-1) (constant first)."""
        coeffs = [int(c) for c in coeffs]
        if not coeffs:
            raise ValueError("need at least one coefficient")
        if any(not 0 <= c < MERSENNE61 for c in coeffs):
            raise ValueError("coefficients must lie in [0, 2^61-1)")
        obj = cls.__new__(cls)
        obj._init_fields(np.array(coeffs, dtype=np.uint64), gamma)
        return obj

    def eval(self, key: int) -> int:
        """Bucket index in [0, gamma) for a single key."""
        return int(self.eval_batch(np.array([key]))[0])

    def eval_batch(self, keys: np.ndarray) -> np.ndarray:
        """Bucket indices for an integer key array; every key must be in [0, 2^61-1)."""
        keys = _key_array(keys)
        if keys.size and int(keys.max()) >= MERSENNE61:
            raise ValueError("key out of hash domain [0, 2^61-1)")
        return self._row.flat_cells(keys.reshape(-1)).reshape(keys.shape)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, KWiseHash)
            and self.gamma == other.gamma
            and self.coefficients == other.coefficients
        )

    def __hash__(self):
        return hash((self.gamma, self.coefficients))

    def __repr__(self):
        return f"KWiseHash(k={self.independence}, gamma={self.gamma})"


class RowStack:
    """The bucket polynomials of a table or a whole sketch, one per row.

    Immutable: `coefficients` is the (R, k) matrix over Z_(2^61-1),
    constant term first; `gamma` the (R, 1) column of per-row bucket
    ranges, each in [1, 2^61-1); `offsets` the (R, 1) column of each row's
    first cell in a flat store of the rows back to back, `gamma` cells
    each; `limbs` the matrix's `coeff_limbs` form, built once.
    """

    __slots__ = ("coefficients", "gamma", "offsets", "limbs")

    def __init__(self, coefficients, gamma):
        cm = np.array(coefficients, dtype=np.uint64)
        self._init_fields(cm, np.array(gamma, dtype=np.uint64).reshape(-1, 1), coeff_limbs(cm))

    def _init_fields(self, cm: np.ndarray, gamma: np.ndarray, limbs: tuple) -> None:
        offsets = np.cumsum(gamma, dtype=np.uint64).reshape(-1, 1) - gamma
        for a in (cm, gamma, offsets, *limbs):
            a.flags.writeable = False
        self.coefficients, self.gamma, self.offsets, self.limbs = cm, gamma, offsets, limbs

    @classmethod
    def draw(cls, seed: int, k: int, dims) -> "RowStack":
        """The rows of tables with these (rows, cols) dims, drawn from one seed.

        Row r of table t is what KWiseHash(seed, k, cols,
        stream_id=bucket_stream_id(t, r)) draws, word for word.
        """
        counts = [rows for rows, _ in dims]
        cm = np.empty((sum(counts), k), dtype=np.uint64)
        streams = (bucket_stream_id(t, r) for t, rows in enumerate(counts) for r in range(rows))
        for i, stream_id in enumerate(streams):
            cm[i] = _field_elements(_philox(seed, stream_id), k)
        return cls(cm, np.repeat([cols for _, cols in dims], counts))

    def segment(self, start: int, stop: int) -> "RowStack":
        """Rows [start, stop), sharing this stack's arrays; offsets restart at 0."""
        out = RowStack.__new__(RowStack)
        out._init_fields(self.coefficients[start:stop], self.gamma[start:stop],
                         tuple(c[:, start:stop] for c in self.limbs))
        return out

    def flat_cells(self, keys: np.ndarray) -> np.ndarray:
        """(R, n) store indices of a uint64 key batch: row r's bucket + offsets[r]."""
        flat = eval_poly_rows(self.limbs, keys, self.gamma)
        flat += self.offsets
        return flat

    def __eq__(self, other) -> bool:
        return (isinstance(other, RowStack)
                and np.array_equal(self.gamma, other.gamma)
                and np.array_equal(self.coefficients, other.coefficients))


def coeff_limbs(coeff_matrix: np.ndarray) -> tuple:
    """The operand form of a (rows, k) coefficient matrix for `eval_poly_rows`.

    Each coefficient is split as c = C0 + C1*2^21 + C2*2^42. Per chunk of
    kc <= CHUNK_POWERS columns it holds one float64 (3, rows, 3*kc) array:
    class t's limbs against the stacked powers [X2; X1; X0], as laid out in
    `_CLASS_LIMBS` and explained in `_limb_classes`. Callers that evaluate
    the same rows repeatedly build it once.
    """
    cm = np.asarray(coeff_matrix, dtype=np.uint64)
    shift, scale = _CLASS_LIMBS
    return tuple(
        (((cm[None, :, None, a : a + CHUNK_POWERS] >> shift) & _M21) << scale)
        .reshape(3, cm.shape[0], -1).astype(np.float64)
        for a in range(0, cm.shape[1], CHUNK_POWERS))


def eval_poly_rows(limbs: tuple, keys: np.ndarray, gamma) -> np.ndarray:
    """Evaluate a stack of polynomials over one key batch.

    limbs is the `coeff_limbs` form of a (rows, k) uint64 matrix with
    entries below 2^61-1, constant term first; keys is (n,) uint64 below
    2^61-1; gamma is one bucket range for every row or a (rows, 1) column
    of per-row ranges, each in [1, 2^61-1). Returns (rows, n) bucket
    indices, row r reduced mod its gamma. This is the one polynomial
    kernel: a RowStack sweeps all its rows in one call, and
    KWiseHash.eval_batch one row.

    Keys go in blocks of BLOCK_KEYS, so temporaries are bounded by
    (3*rows or 3*k) x BLOCK_KEYS whatever the batch size. Per block:
    1. Powers: P[j] = x^j mod 2^61-1 for j < k, canonical, by doubling
       (P[b:2b] = P[:b] * x^b), so about 2*log2(k) vectorized
       multiply-mods, none wider than (k, BLOCK_KEYS).
    2. Limbs: powers split like the coefficients, x^j = X0 + X1*2^21 +
       X2*2^42 with X0, X1 < 2^21 and X2 < 2^19.
    3. Class sums: the limb products C_a X_b fall into shift classes
       a+b = 0..4; as 2^63 == 4 (mod 2^61-1), classes 3 and 4 wrap onto
       0 and 1 with 4*C_a, leaving three sums T0, T1, T2 of weight 1,
       2^21 and 2^42, all from one float64 GEMM. It is exact (bound in
       `_limb_classes`), so the result does not depend on summation order
       or BLAS thread count. For k > CHUNK_POWERS the columns go in
       chunks, summed mod 2^61-1.
    4. Recombination in uint64: T0 + T1*2^21 + T2*2^42 folded mod
       2^61-1, made canonical once before the reduction mod gamma.
    """
    k = sum(c.shape[2] for c in limbs) // 3
    out = np.empty((limbs[0].shape[1], keys.size), dtype=np.uint64)
    gamma = np.asarray(gamma, dtype=np.uint64)
    for start in range(0, keys.size, BLOCK_KEYS):
        powers = _powers(keys[start : start + BLOCK_KEYS], k)
        acc, j = None, 0
        for c in limbs:
            kc = c.shape[2] // 3
            t = _limb_classes(c, powers[j : j + kc])
            j += kc
            if acc is not None:
                t += acc
            acc = _fold(t)
        # acc < 2^61 + 4 < 2*(2^61-1): one subtraction makes it canonical.
        np.remainder(_canonical(acc), gamma, out=out[:, start : start + BLOCK_KEYS])
    return out


def _fold(s: np.ndarray) -> np.ndarray:
    # s < 2^64 -> a congruent value (s mod 2^61) + (s >> 61) < 2^61 + 8.
    t = s & _M61
    t += s >> _S61
    return t


def _canonical(v: np.ndarray) -> np.ndarray:
    # v < 2*(2^61-1) -> v mod 2^61-1: below 2^61-1, v - (2^61-1) wraps high.
    return np.minimum(v, v - _M61)


def _mulmod61(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Canonical a*b mod 2^61-1 for a, b below 2^61 (b broadcasts)."""
    # 32-bit limbs: a_hi, b_hi < 2^29, so mid = a_hi*b_lo + a_lo*b_hi <
    # 2^62 and lo = a_lo*b_lo < 2^64 fit in uint64. With 2^64 == 8 and
    # 2^61 == 1, a*b = a_hi*b_hi*2^64 + mid*2^32 + lo is congruent to
    #   8*a_hi*b_hi + (mid >> 29) + (mid mod 2^29)*2^32 + (lo >> 61) + (lo mod 2^61),
    # a sum below 2^61 + 2^33 + 2^61 + 8 + 2^61 < 2^63.
    a_hi, a_lo = a >> _S32, a & _LOW32
    b_hi, b_lo = b >> _S32, b & _LOW32
    mid = a_hi * b_lo
    mid += a_lo * b_hi
    lo = a_lo * b_lo
    s = (a_hi * b_hi) << _S3
    s += mid >> _S29
    mid <<= _S32                # keeps mid mod 2^32, shifted up
    mid &= _M61                 # now (mid mod 2^29) * 2^32
    s += mid
    s += lo >> _S61
    lo &= _M61
    s += lo
    return _canonical(_fold(s))


def _powers(x: np.ndarray, k: int) -> np.ndarray:
    """(k, n) canonical powers x^j mod 2^61-1, j < k, of the keys x."""
    p = np.empty((k, x.size), dtype=np.uint64)
    p[0] = 1
    b, xb = 1, x
    while b < k:
        # P[b:2b] = P[:b] * x^b, whose first row is x^b itself.
        if b > 1:
            xb = _mulmod61(xb, xb)
        p[b] = xb
        n = min(b, k - b)
        if n > 1:
            p[b + 1 : b + n] = _mulmod61(p[1:n], xb)
        b *= 2
    return p


def _limb_classes(c: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """sum_j coefficient[r, j] * powers[j], congruent mod 2^61-1, below 2^63.

    c is one (3, rows, 3*kc) `coeff_limbs` chunk, powers the matching
    (kc, n) canonical powers x^j = X0 + X1*2^21 + X2*2^42. In the product
    sum_(a,b) C_a X_b 2^(21(a+b)), shift class a+b = 3 carries 2^63 == 4
    and class 4 carries 2^84 == 4*2^21 (mod 2^61-1), so both wrap onto
    classes 0 and 1 with their coefficient limb scaled by 4:
        T0 = C0 X0 + 4 C2 X1 + 4 C1 X2        (weight 1)
        T1 = C1 X0 + C0 X1 + 4 C2 X2          (weight 2^21)
        T2 = C2 X0 + C1 X1 + C0 X2            (weight 2^42)
    With Y = [X2; X1; X0] stacked, class t is c[t] @ Y, so one GEMM of
    (3*rows, 3*kc) by (3*kc, n) gives all three.
    Exactness: X0, X1, C0, C1 < 2^21 and X2, C2 < 2^19, so every product,
    scaled ones included, is below 2^42, and a class holds 3 of them per
    column: T_t < 3 * kc * 2^42 <= 2^53 for kc <= 682 (CHUNK_POWERS = 512).
    Every product and partial sum is then an integer that float64 holds
    exactly, so the GEMM is exact in any summation order, with or without
    FMA and for any BLAS thread count.
    Recombination: T1*2^21 = (T1 >> 40)*2^61 + (T1 mod 2^40)*2^21, and
    likewise T2*2^42, so with 2^61 == 1 the result is congruent to
        T0 + (T1 >> 40) + (T2 >> 19) + ((T1 << 21) mod 2^61) + ((T2 << 42) mod 2^61),
    a sum below 2^53 + 2^13 + 2^34 + 2 * 2^61 < 2^63.
    """
    kc, n = powers.shape
    y = ((powers >> _Y_SHIFT) & _M21).reshape(3 * kc, n).astype(np.float64)
    t0, t1, t2 = (c.reshape(-1, 3 * kc) @ y).astype(np.uint64).reshape(3, -1, n)
    t = t1 >> _S40
    t += t2 >> _S19
    t += t0
    t1 <<= _S21
    t1 &= _M61
    t += t1
    t2 <<= _S42
    t2 &= _M61
    t += t2
    return t


class PowerHash:
    """Checksum hash x -> a^x mod q with base a drawn uniformly from Z_q*.

    Keys must come from Z_p; p < q and both prime, q up to any width (the
    arithmetic is on Python ints). `eval` is the definition, builtin
    `pow`, and stays so: it is the oracle the batch path is tested
    against, and the reference decoder calls it. `eval_batch` reads each
    distinct key's 8-bit windows from `_power_table(a, q, p.bit_length())`,
    shared by every hash with the same (a, q) and built once per process,
    so a key costs one lookup per window and a multiply-mod between them
    (at most 8 lookups for 64-bit p) instead of about 61 squarings.
    """

    __slots__ = ("base", "modulus", "key_bound")

    def __init__(self, seed: int, p: int, q: int):
        stream = SeededStream(seed, _STREAM_CHECKSUM << 56)
        self._init_fields(1 + stream.below(q - 1), p, q)

    def _init_fields(self, base: int, p: int, q: int) -> None:
        check_power_params(p, q)
        self.base = base
        self.modulus = q
        self.key_bound = p

    @classmethod
    def with_base(cls, base: int, p: int, q: int) -> "PowerHash":
        """Build with an explicit base (exhaustive sweeps, fixed examples)."""
        if not 1 <= base <= q - 1:
            raise ValueError("base must lie in [1, q-1]")
        obj = cls.__new__(cls)
        obj._init_fields(base, p, q)
        return obj

    def eval(self, key: int) -> int:
        # A bool is an int to `pow`; like eval_batch, refuse it and non-integers.
        if isinstance(key, (bool, np.bool_)) or not isinstance(key, (int, np.integer)):
            raise ValueError("checksum keys must be integers")
        if not 0 <= key < self.key_bound:
            raise ValueError("checksum key out of domain [0, p)")
        return pow(self.base, int(key), self.modulus)

    def eval_batch(self, keys) -> np.ndarray:
        """Object array of a^key mod q; repeated keys are computed once."""
        uniq, inverse = np.unique(_key_array(keys), return_inverse=True)
        if uniq.size and int(uniq[-1]) >= self.key_bound:
            raise ValueError("checksum key out of domain [0, p)")
        q = self.modulus
        table = _power_table(self.base, q, self.key_bound.bit_length())
        acc = table[0][uniq & _WINDOW_MASK]
        for j in range(1, len(table)):
            acc = acc * table[j][(uniq >> np.uint64(_WINDOW_BITS * j)) & _WINDOW_MASK] % q
        return acc[inverse]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PowerHash)
            and self.base == other.base
            and self.modulus == other.modulus
            and self.key_bound == other.key_bound
        )

    def __hash__(self):
        return hash((self.base, self.modulus, self.key_bound))

    def __repr__(self):
        return f"PowerHash(p={self.key_bound}, q={self.modulus})"


@functools.lru_cache(maxsize=16)
def _power_table(base: int, q: int, bits: int) -> np.ndarray:
    """Read-only (ceil(bits/8), 256) object array: T[j][d] = base^(d*2^(8j)) mod q.

    For x < 2^bits with 8-bit windows x_j, base^x = prod_j T[j][x_j] mod q.
    Row j is 255 running products of g_j = base^(2^(8j)), and g_(j+1) is
    one more, so the table costs 256 multiply-mods per row and no `pow`.
    Every hash with the same (base, q), and so every sketch of one Params,
    shares one cached table (about 2k ints of q's width for 64-bit keys);
    it is read-only because every caller gets the same object.
    """
    width = 1 << _WINDOW_BITS
    table = np.empty((-(-bits // _WINDOW_BITS), width), dtype=object)
    g = base
    for row in table:
        row[0] = acc = 1
        for d in range(1, width):
            row[d] = acc = acc * g % q
        g = acc * g % q
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=64)
def check_power_params(p: int, q: int) -> None:
    """Raise ValueError unless p < q are both prime.

    Params, PowerHash and the envelope decoder all meet the same pair, and
    proving a 128-bit q takes 64 Miller-Rabin rounds, so a valid pair is
    cached: proven once per process. Rejections raise and are not cached.
    """
    if not is_prime(p):
        raise ValueError(f"p={p} is not prime")
    if not is_prime(q):
        raise ValueError(f"q={q} is not prime")
    if p >= q:
        raise ValueError("need p < q")


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
                 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139,
                 149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199)

# Verifying these bases decides primality for every n < 3.3 * 10^24, which
# covers all 64-bit candidates exactly.
_MR_BASES_64 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

MILLER_RABIN_ROUNDS = 64


def _mr_witness(a: int, d: int, r: int, n: int) -> bool:
    # True if a proves n composite.
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def is_prime(n: int) -> bool:
    """Miller-Rabin primality: exact below 2^64, 64 seeded rounds above."""
    if n < 2:
        return False
    for sp in _SMALL_PRIMES:
        if n == sp:
            return True
        if n % sp == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    if n < 1 << 64:
        return not any(_mr_witness(a, d, r, n) for a in _MR_BASES_64)
    stream = SeededStream(n & _U64, (_STREAM_WITNESS << 56) | (n >> 64) & _U64)
    for _ in range(MILLER_RABIN_ROUNDS):
        a = 2 + stream.below(n - 3)
        if _mr_witness(a, d, r, n):
            return False
    return True


def next_prime_at_least(n: int) -> int:
    """Smallest prime >= n."""
    if n <= 2:
        return 2
    c = n | 1
    while not is_prime(c):
        c += 2
    return c
