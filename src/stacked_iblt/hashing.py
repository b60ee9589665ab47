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
three limb-shift classes are folded back mod 2^61-1 in uint64. Per block
of 256 keys that is ceil(log2(k)) - 1 vectorized multiply-mods for the
powers (6 at k = 40, over k - 2 rows in all) and one GEMM. Values stay
below 2^61 + 8, congruent but not reduced, until one canonical step
before the reduction mod each row's bucket range.

The block kernels (`eval_poly_rows` here, `core.reduce_lanes`) take their
temporaries from one scratch area per thread (`thread_scratch`): a
private anonymous mapping of 1 MiB, not heap memory, made at the
thread's first request and kept while the thread lives. Buffers of this
size freed at the end of every call lie above glibc's mmap threshold, so
each call would page-fault them in afresh; kept, a small sketch's
evaluation takes no page fault at all, and the mapping leaves the malloc
heap's layout as it was. Only the pages a thread has used are resident:
483 KB for 34 rows at k = 32, 930 KB for 69 rows at k = 40. A larger
request (256 rows at k = 32 take 3.2 MB, k = 4096 about 24 MB) gets a
fresh array per call instead, so no thread keeps more than 1 MiB. Being
private, the mapping is copied on write into a forked child, not shared
with it. Every array a caller receives is a fresh allocation.

The checksum family maps a key x to a^x mod q for a base a drawn once per
sketch; it is what lets a table distinguish a cell holding one genuine
pair from a cell whose count merely sums to +-1. The base is fixed and
keys lie below p < 2^64, so a batch is evaluated by fixed-base windowing
(Brickell, Gordon, McCurley & Wilson, "Fast Exponentiation with
Precomputation"; Lim & Lee, "More Flexible Exponentiation with
Precomputation"): a table of a^(d*2^(8j)) mod q, built once per (a, q)
and cached, turns each a^x into one lookup per 8-bit window of x and a
multiply-mod between them.

Every seeded draw (polynomial coefficients, the checksum base, the
Miller-Rabin witnesses of a wide prime, the CLI's per-trial seeds, all
trials' at once through `_stream_heads`) reads one word stream per key
(seed, stream id): Philox4x64-10 (Salmon, Moraes, Dror & Shaw, "Parallel
Random Numbers: As Easy as 1, 2, 3", SC '11) in counter mode with
counters from 1, which is numpy's `Philox(key=[seed, stream id])` word
for word. `_philox_blocks` runs the ten rounds for the counter blocks of
every stream of a draw at once, on 32-bit halves; numpy's Philox is not
called, and stays in the tests as the oracle. Where a draw reads on
after k words, it continues mid-block, as numpy's 4-word buffer does
after `random_raw(k)`.
"""

from __future__ import annotations

import functools
import mmap
import threading

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

# Kernel constants are 0-d arrays: a ufunc takes them like numpy scalars,
# with the same result dtype, but converts them in about 0.6 us less per
# call, and a 256-key block makes about 150 calls.
_M61, _M21, _M31 = (np.array(v, dtype=np.uint64)
                    for v in (MERSENNE61, (1 << 21) - 1, (1 << 31) - 1))
_S21, _S30, _S31, _S40, _S61 = (np.array(v, dtype=np.uint64) for v in (21, 30, 31, 40, 61))
_I21, _I42, _IM21 = (np.array(v, dtype=np.int64) for v in (21, 42, (1 << 21) - 1))
_U64 = 0xFFFFFFFFFFFFFFFF

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

# Philox4x64-10: the two round multipliers and the two key bumps (Weyl
# constants), as in Random123 and numpy.
_PHILOX_ROUNDS = 10
_PHILOX_MUL = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_BUMP = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_M32, _S32 = (np.array(v, dtype=np.uint64) for v in (0xFFFFFFFF, 32))
# Per round parity (see `_philox_blocks`): the multipliers as a (2, 1, 1)
# column, and their (low, high) 32-bit halves as a (2, 2, 1, 1) block.
_PHILOX_COLUMNS = tuple(np.array(m, dtype=np.uint64).reshape(2, 1, 1)
                        for m in (_PHILOX_MUL, _PHILOX_MUL[::-1]))
_PHILOX_HALVES = tuple(np.array([[v & 0xFFFFFFFF for v in m], [v >> 32 for v in m]],
                                dtype=np.uint64).reshape(2, 2, 1, 1)
                       for m in (_PHILOX_MUL, _PHILOX_MUL[::-1]))
# Round r's key is the base key plus r times the bumps, mod 2^64.
_PHILOX_KEY_BUMPS = np.array([[r * w & _U64 for w in _PHILOX_BUMP]
                              for r in range(1, _PHILOX_ROUNDS)],
                             dtype=np.uint64).reshape(-1, 2, 1, 1)
# Blocks per SeededStream refill: a draw costs about the same for 1 block
# as for 16, and most streams are read for one or two words.
_STREAM_BLOCKS = 16
# Streams per `_stream_heads` pass: its work buffer stays near 1 MB.
_HEAD_CHUNK = 4096

# Words in a thread's scratch area: the largest block buffers in use, 930
# KB for 69 rows at k = 40, fit.
_SCRATCH_WORDS = 1 << 17
# The calling thread's scratch area (`thread_scratch`), as the attribute `words`.
_SCRATCH = threading.local()


def thread_scratch(words: int) -> np.ndarray:
    """`words` uint64 words of scratch, the calling thread's area when they fit.

    The area is a private anonymous mapping (`mmap`) of _SCRATCH_WORDS
    words, not heap memory, made at the thread's first request and kept
    while the thread lives; its pages are resident once used. A request
    that fits gets the area's start, so its users never nest, and no view
    of it outlives the call that took it or reaches a caller. A larger
    request gets a fresh array, which its caller frees.
    """
    if words > _SCRATCH_WORDS:
        return np.empty(words, dtype=np.uint64)
    area = getattr(_SCRATCH, "words", None)
    if area is None:
        area = _SCRATCH.words = np.frombuffer(
            mmap.mmap(-1, _SCRATCH_WORDS * 8, flags=mmap.MAP_PRIVATE), dtype=np.uint64)
    return area[:words]


def _stream_ids(stream_ids) -> np.ndarray:
    """Stream ids as a uint64 array, each masked to 64 bits."""
    return np.array([int(s) & _U64 for s in stream_ids], dtype=np.uint64)


def _philox_blocks(seed: int, stream_ids: np.ndarray, start: int, count: int) -> np.ndarray:
    """(R, 4*count) uint64: words 4*start .. 4*(start+count) - 1 of R streams.

    Stream i is Philox4x64-10 under the key (seed mod 2^64, stream_ids[i]),
    whose 4-word block b is the ten-round bijection of the counter
    (b + 1, 0, 0, 0): numpy's `Philox(key=[seed, stream_ids[i]])` returns
    the same words from `random_raw`, four per counter from counter 1.
    One pass runs the rounds for every (block, stream) lane at once. A round
    maps (x0, x1, x2, x3) under the key (k0, k1) to
        (hi(M1*x2) ^ x1 ^ k0, lo(M1*x2), hi(M0*x0) ^ x3 ^ k1, lo(M0*x0)),
    with hi and lo the halves of a 64x64 -> 128-bit product. The state is
    held as two lane pairs a = (x0, x2) and b = (x3, x1), each (2, count,
    R): then hi(M*a) ^ b ^ (k1, k0) is (x2', x0') and lo(M*a) reversed is
    (x1', x3'). Each round thus reverses both pairs, the next round takes
    the multipliers and the key halves reversed as well, and after ten
    rounds the pairs are in their first order again. hi is done on 32-bit
    halves, its four partial products from one multiply; lo is uint64's
    wrapping product. The last round writes its pairs straight into the
    output's word columns. Besides the output, the draw allocates one
    buffer of (16*count + 20)*R words: eight (2, count, R) lane slots and
    the ten round keys.
    """
    rows = stream_ids.size
    lanes = 2 * count * rows
    # The output is allocated before the work buffer. In the other order,
    # the hole the freed buffer left in glibc's heap moved later
    # allocations so that perfbench's reference kernel ran in its fast mode
    # on `reconcile`, which reads as a slowdown of the op.
    out = np.empty((rows, count, 4), dtype=np.uint64)
    buf = np.empty(8 * lanes + 2 * _PHILOX_ROUNDS * rows, dtype=np.uint64)
    work = buf[: 8 * lanes].reshape(8, 2, count, rows)
    a, b, halves = work[0], work[1], work[2:4]
    a_low, a_high = halves
    prod = work[4:].reshape(2, 2, 2, count, rows)   # [a half, multiplier half]
    low, cross, carry, hi = prod[0, 0], prod[1, 0], prod[0, 1], prod[1, 1]
    keys = buf[8 * lanes :].reshape(_PHILOX_ROUNDS, 2, 1, rows)
    keys[0, 0] = seed & _U64
    keys[0, 1, 0] = stream_ids
    np.add(_PHILOX_KEY_BUMPS, keys[0], out=keys[1:])
    a[0] = np.arange(start + 1, start + count + 1, dtype=np.uint64)[:, None]
    a[1] = 0
    for r in range(_PHILOX_ROUNDS):
        odd = r & 1
        np.bitwise_and(a, _M32, out=a_low)
        np.right_shift(a, _S32, out=a_high)
        np.multiply(halves[:, None], _PHILOX_HALVES[odd], out=prod)
        low >>= _S32
        low += cross                            # < 2^64: no carry out
        np.bitwise_and(low, _M32, out=cross)
        cross += carry
        low >>= _S32
        cross >>= _S32
        hi += low
        hi += cross                             # hi(M*a)
        if r:
            hi ^= b                             # b is 0 before the first round
        if r == _PHILOX_ROUNDS - 1:             # a -> words 0, 2; b -> words 3, 1
            a_next, b_next = out[:, :, 0::2].T, out[:, :, 3::-2].T
        else:
            a_next, b_next = a, b
        np.multiply(a, _PHILOX_COLUMNS[odd], out=b_next[::-1])
        np.bitwise_xor(hi, keys[r] if odd else keys[r, ::-1], out=a_next)
    return out.reshape(rows, 4 * count)


def _stream_heads(seed: int, stream_ids: np.ndarray) -> np.ndarray:
    """(R,) uint64: word 0 of each stream, SeededStream(seed, id).below(2^64).

    A 2^64 bound takes one whole word and never rejects, so that draw is
    the stream's first word; one `_philox_blocks` pass per _HEAD_CHUNK
    streams gives them all, against a ten-round pass per stream.
    """
    out = np.empty(stream_ids.size, dtype=np.uint64)
    for a in range(0, stream_ids.size, _HEAD_CHUNK):
        ids = stream_ids[a : a + _HEAD_CHUNK]
        out[a : a + ids.size] = _philox_blocks(seed, ids, 0, 1)[:, 0]
    return out


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
    """Word stream keyed by (seed, stream id), drawn a few blocks at a time.

    It is the Philox4x64-10 stream of `_philox_blocks`, counters from 1,
    word for word what numpy's `Philox(key=[seed, stream id]).random_raw`
    returns (the tests' oracle). Philox is counter-based, so two streams
    with distinct ids never overlap and rebuilding a stream replays it
    exactly.
    """

    def __init__(self, seed: int, stream_id: int):
        self._seed, self._id = seed, _stream_ids([stream_id])
        self._block = 0
        self._words: list[int] = []

    def _word(self) -> int:
        if not self._words:
            # Refill size only affects batching, never the word sequence.
            self._words = _philox_blocks(self._seed, self._id, self._block,
                                         _STREAM_BLOCKS)[0].tolist()
            self._block += _STREAM_BLOCKS
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


def _field_rows(seed: int, stream_ids, k: int) -> np.ndarray:
    """(R, k) uint64 view: row i holds k uniform elements of Z_(2^61-1).

    Row i is what k calls of `SeededStream(seed, stream_ids[i]).below(2^61-1)`
    give: each word masked to 61 bits, kept when below 2^61-1. The first k
    words of every stream come from one `_philox_blocks` pass, masked in
    place. A word is rejected with probability 2^-61; a row that holds one
    continues its stream at word k, mid-block where k is not a multiple of
    4, as numpy's Philox continues from its 4-word buffer after
    `random_raw(k)`.
    """
    ids = _stream_ids(stream_ids)
    words = _philox_blocks(seed, ids, 0, -(-k // 4))
    words &= _M61
    rows = words[:, :k]
    for i in np.flatnonzero((rows == _M61).any(axis=1)).tolist():
        row, word = rows[i][rows[i] != _M61], k
        while row.size < k:
            need = k - row.size
            block, skip = divmod(word, 4)
            more = _philox_blocks(seed, ids[i : i + 1], block, -(-(skip + need) // 4))
            more = more[0, skip : skip + need] & _M61
            row = np.concatenate([row, more[more != _M61]])
            word += need
        rows[i] = row
    return rows


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
        self._init_fields(_field_rows(seed, [stream_id], k)[0], gamma)

    def _init_fields(self, coeffs, gamma: int) -> None:
        self._row = RowStack([coeffs], [gamma])     # validates both
        self.independence, self.gamma = self._row.coefficients.shape[1], gamma
        self.coefficients = tuple(self._row.coefficients[0].tolist())

    @classmethod
    def from_coefficients(cls, coeffs, gamma: int) -> "KWiseHash":
        """Build directly from field elements c_0..c_(k-1) (constant first)."""
        obj = cls.__new__(cls)
        obj._init_fields([int(c) for c in coeffs], gamma)
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
    each; `limbs` the matrix's `coeff_limbs` form, built once. The
    constructor raises ValueError for anything else: `eval_poly_rows` is
    exact only for field elements, and a zero range has no bucket.
    """

    __slots__ = ("coefficients", "gamma", "offsets", "limbs")

    def __init__(self, coefficients, gamma):
        cm = _field_array(coefficients, 0, "coefficients must lie in [0, 2^61-1)")
        g = _field_array(gamma, 1, "bucket range must satisfy 1 <= gamma < 2^61-1")
        if cm.ndim != 2 or cm.shape[1] < 1 or g.shape != cm.shape[:1]:
            raise ValueError("need an (R, k) coefficient matrix, k >= 1, and R bucket ranges")
        self._init_fields(cm, g.reshape(-1, 1), coeff_limbs(cm))

    def _init_fields(self, cm: np.ndarray, gamma: np.ndarray, limbs: tuple) -> None:
        offsets = np.cumsum(gamma, dtype=np.uint64).reshape(-1, 1) - gamma
        for a in (cm, gamma, offsets, *limbs):
            a.flags.writeable = False
        self.coefficients, self.gamma, self.offsets, self.limbs = cm, gamma, offsets, limbs

    @classmethod
    def draw(cls, seed: int, k: int, dims) -> "RowStack":
        """The rows of tables with these (rows, cols) dims, drawn from one seed.

        Row r of table t is what KWiseHash(seed, k, cols,
        stream_id=bucket_stream_id(t, r)) draws, word for word: the first
        k words of the Philox4x64-10 stream keyed (seed, stream id),
        counters from 1 as numpy's Philox counts them (numpy's generator
        is the tests' oracle). One `_philox_blocks` pass draws every row.
        """
        counts = [rows for rows, _ in dims]
        streams = [bucket_stream_id(t, r) for t, rows in enumerate(counts) for r in range(rows)]
        return cls.from_streams(seed, k, streams, np.repeat([cols for _, cols in dims], counts))

    @classmethod
    def from_streams(cls, seed: int, k: int, stream_ids, gamma) -> "RowStack":
        """Row i is what KWiseHash(seed, k, gamma[i], stream_id=stream_ids[i]) draws."""
        return cls(_field_rows(seed, stream_ids, k), gamma)

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


def _field_array(values, low: int, message: str) -> np.ndarray:
    """values as a uint64 copy; ValueError(message) unless all are integers in [low, 2^61-1)."""
    a = np.asarray(values)
    if a.dtype.kind not in "iu" or (a.size and (a.min() < low or a.max() >= MERSENNE61)):
        raise ValueError(message)
    return a.astype(np.uint64)


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
    (3*rows or 3*k) x BLOCK_KEYS whatever the batch size; the blocks'
    buffers come from the calling thread's scratch area
    (`_block_buffers`), and the (rows, n) output is a fresh array. It never
    nests with the area's other user, `core.reduce_lanes`. Values stay
    below 2^61 + 8, congruent mod 2^61-1 but not canonical, until the
    last step. Per block:
    1. Powers: P[j] == x^j mod 2^61-1 for j < k, each below 2^61 + 4, by
       doubling (P[b+1 : 2b+1] = P[1 : b+1] * x^b), so one vectorized
       multiply-mod (`_mulmod61`) per level: ceil(log2(k)) - 1 of them,
       none wider than (k/2, BLOCK_KEYS).
    2. Limbs: powers split like the coefficients, x^j = X0 + X1*2^21 +
       X2*2^42 with X0, X1 < 2^21 and X2 <= 2^19, and converted to
       float64 through int64, which numpy vectorizes.
    3. Class sums: the limb products C_a X_b fall into shift classes
       a+b = 0..4; as 2^63 == 4 (mod 2^61-1), classes 3 and 4 wrap onto
       0 and 1 with 4*C_a, leaving three sums T0, T1, T2 of weight 1,
       2^21 and 2^42, all from one float64 GEMM. It is exact (bound in
       `_limb_classes`), so the result does not depend on summation order
       or BLAS thread count. For k > CHUNK_POWERS the columns go in
       chunks, each chunk's sum added to the folded running sum.
    4. Recombination in place, in the int64 class sums read as uint64
       (bound in `_limb_classes`), one fold mod 2^61-1 and one canonical
       step; then acc mod gamma = acc - (acc // gamma) * gamma, with one
       floor division per run of rows that share a gamma: numpy divides
       by a scalar several times faster than `%` by a column.
    """
    rows = limbs[0].shape[1]
    k = sum(c.shape[2] for c in limbs) // 3
    out = np.empty((rows, keys.size), dtype=np.uint64)
    gamma = np.asarray(gamma, dtype=np.uint64)
    runs = _gamma_runs(gamma.reshape(-1), rows)
    bufs = None
    for start in range(0, keys.size, BLOCK_KEYS):
        x = keys[start : start + BLOCK_KEYS]
        if bufs is None or bufs[0].shape[1] != x.size:
            bufs = _block_buffers(rows, k, limbs[0].shape[2] // 3, x.size)
        powers, shared, classes = bufs
        _powers(x, k, powers, shared)
        acc, j = None, 0
        for c in limbs:
            kc = c.shape[2] // 3
            t, spare = _limb_classes(c, powers[j : j + kc], shared, classes)
            j += kc
            if acc is not None:
                t += acc            # < 2^62 + 2^61 + 8
            acc = _fold(t, spare)
            if j < k:
                acc = acc.copy()    # the next chunk reuses t's buffer
        # acc < 2^61 + 8 < 2*(2^61-1): one subtraction makes it canonical.
        np.subtract(acc, _M61, out=spare)
        np.minimum(acc, spare, out=acc)
        for a, b, g in runs:
            np.floor_divide(acc[a:b], g, out=spare[a:b])
        spare *= gamma
        np.subtract(acc, spare, out=out[:, start : start + acc.shape[1]])
    return out


def _block_buffers(rows: int, k: int, kc: int, n: int) -> tuple:
    """(powers, shared, classes): the buffers of n-key blocks, reused by each.

    powers is (k, n) and lives through every chunk. shared is flat and
    holds in turn the `_mulmod61` scratch, a limb temporary, the GEMM
    result and a scratch row block; classes is flat and holds the float64
    power limbs, then the class sums. Overlaying buffers whose lifetimes
    do not meet keeps each within (3*rows or 3*k) x n, the size of the
    largest temporary they replace. All three are carved, back to back,
    from one `thread_scratch` request of
        (k + max(3*max((k-1)//2, 1), kc, 3*rows) + max(3*kc, 3*rows)) * n
    words: 930 KB at 69 rows, k = 40 and n = 256, inside the calling
    thread's area, so a call after the first at its shape allocates and
    page-faults none of them. Past the area (3.2 MB at 256 rows and k =
    32), the request is one fresh array per call. Inside the area, taking
    them again, as a shorter last block does, hands out the same memory.
    """
    a = k * n
    b = a + max(3 * max((k - 1) // 2, 1), kc, 3 * rows) * n
    buf = thread_scratch(b + max(3 * kc, 3 * rows) * n)
    return buf[:a].reshape(k, n), buf[a:b], buf[b:]


def _gamma_runs(gamma: np.ndarray, rows: int) -> list:
    """[(a, b, g)]: the maximal runs of rows a..b-1 whose bucket range is g.

    gamma is flat: one entry per row, or one for every row.
    """
    cuts = (np.flatnonzero(gamma[1:] != gamma[:-1]) + 1).tolist()
    return [(a, b, gamma[a : a + 1].reshape(())) for a, b in zip([0, *cuts], [*cuts, rows])]


def _fold(v: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """v in place: (v mod 2^61) + (v >> 61), congruent, below 2^61 + 8."""
    np.right_shift(v, _S61, out=scratch)
    v &= _M61
    v += scratch
    return v


def _mulmod61(a: np.ndarray, b: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> None:
    """out = a*b mod 2^61-1, below 2^61 + 4, for a (m, n) and b (n,) below 2^61 + 8.

    Neither input nor output need be canonical. scratch is a (3, m, n)
    uint64 buffer. With 31-bit halves a = a_hi*2^31 + a_lo (a_hi <= 2^30,
    a_lo < 2^31), and likewise b,
        a*b = a_hi*b_hi*2^62 + mid*2^31 + lo,  mid = a_hi*b_lo + a_lo*b_hi,
    where 2a_hi*b_hi <= 2^61 and mid, lo = a_lo*b_lo < 2^62 fit in uint64.
    As 2^62 == 2 and mid*2^31 = (mid >> 30)*2^61 + (mid mod 2^30)*2^31
    with 2^61 == 1, the product is congruent to
        2*a_hi*b_hi + (mid >> 30) + (mid mod 2^30)*2^31 + lo
    < 2^61 + 2^32 + 2^61 + 2^62 < 5*2^61, so one fold leaves it below
    2^61 + 4: 16 passes over (m, n) and 3 over b's row.
    """
    hi, lo, t = scratch
    b_hi, b_lo = b >> _S31, b & _M31
    np.right_shift(a, _S31, out=hi)
    np.bitwise_and(a, _M31, out=lo)
    np.multiply(hi, b_hi + b_hi, out=out)
    hi *= b_lo
    np.multiply(lo, b_hi, out=t)
    hi += t                     # mid
    lo *= b_lo
    out += lo
    np.right_shift(hi, _S30, out=t)
    out += t
    hi <<= _S31                 # keeps mid mod 2^33, shifted up
    hi &= _M61                  # now (mid mod 2^30) * 2^31
    out += hi
    _fold(out, t)


def _powers(x: np.ndarray, k: int, p: np.ndarray, shared: np.ndarray) -> None:
    """p[j] == x^j (mod 2^61-1), below 2^61 + 4, for keys x < 2^61-1 and j < k.

    p is (k, n) and shared the flat scratch of `_block_buffers`.
    """
    scratch = shared[: 3 * max((k - 1) // 2, 1) * x.size].reshape(3, -1, x.size)
    p[0] = 1
    if k > 1:
        p[1] = x
    b = 1
    while b < k - 1:
        # P[b+1 : 2b+1] = P[1 : b+1] * x^b, whose last row x^(2b) is the
        # next level's multiplier.
        m = min(b, k - 1 - b)
        _mulmod61(p[1 : m + 1], p[b], p[b + 1 : b + m + 1], scratch[:, :m])
        b *= 2


def _limb_classes(c: np.ndarray, powers: np.ndarray, shared: np.ndarray,
                  classes: np.ndarray) -> tuple:
    """(t, scratch): t == sum_j coefficient[r, j] * powers[j] mod 2^61-1, t < 2^62.

    c is one (3, rows, 3*kc) `coeff_limbs` chunk, powers the matching
    (kc, n) powers x^j = X0 + X1*2^21 + X2*2^42, each below 2^61 + 8.
    shared and classes are the last two buffers of `_block_buffers`; t
    is a view of classes, and scratch a free (rows, n) view of shared.
    In the product sum_(a,b) C_a X_b 2^(21(a+b)), shift class a+b = 3 carries 2^63 == 4
    and class 4 carries 2^84 == 4*2^21 (mod 2^61-1), so both wrap onto
    classes 0 and 1 with their coefficient limb scaled by 4:
        T0 = C0 X0 + 4 C2 X1 + 4 C1 X2        (weight 1)
        T1 = C1 X0 + C0 X1 + 4 C2 X2          (weight 2^21)
        T2 = C2 X0 + C1 X1 + C0 X2            (weight 2^42)
    With Y = [X2; X1; X0] stacked, class t is c[t] @ Y, so one GEMM of
    (3*rows, 3*kc) by (3*kc, n) gives all three.
    Exactness: X0, X1, C0, C1 < 2^21, C2 < 2^19 and X2 <= 2^19, so every
    product, scaled ones included, is below 2^42, and a class holds 3 of
    them per column: T_t < 3 * kc * 2^42 <= 2^53 for kc <= 682
    (CHUNK_POWERS = 512). Every product and partial sum is then an integer
    that float64 holds exactly, so the GEMM is exact in any summation
    order, with or without FMA and for any BLAS thread count.
    Recombination: for any U < 2^64, U*2^21 = (U >> 40)*2^61 +
    (U mod 2^40)*2^21 == (U >> 40) + ((U << 21) mod 2^61). So
    U = T1 + T2*2^21 reduces to T1 + (T2 >> 40) + ((T2 << 21) mod 2^61)
    < 2^53 + 2^13 + 2^61 < 2^62, and T0 + U*2^21 to
    T0 + (U >> 40) + ((U << 21) mod 2^61) < 2^53 + 2^22 + 2^61 < 2^62.
    """
    kc, n = powers.shape
    rows = c.shape[1]
    # Limbs in int64, which numpy converts to float64 in its vectorized loops.
    x = powers.view(np.int64)
    x1 = shared[: kc * n].view(np.int64).reshape(kc, n)
    y = classes[: 3 * kc * n].view(np.float64).reshape(3, kc, n)
    np.right_shift(x, _I42, out=y[0])
    np.right_shift(x, _I21, out=x1)
    np.bitwise_and(x1, _IM21, out=y[1])
    np.bitwise_and(x, _IM21, out=y[2])
    gemm = shared[: 3 * rows * n].view(np.float64).reshape(3, rows, n)
    np.matmul(c.reshape(-1, 3 * kc), y.reshape(3 * kc, n), out=gemm.reshape(-1, n))
    t = classes[: 3 * rows * n].reshape(3, rows, n)
    np.copyto(t.view(np.int64), gemm, casting="unsafe")
    t0, t1, t2 = t
    scratch = shared[: rows * n].reshape(rows, n)     # the GEMM result is spent
    for hi, lo in ((t2, t1), (t1, t0)):
        np.right_shift(hi, _S40, out=scratch)
        lo += scratch
        hi <<= _S21
        hi &= _M61
        lo += hi
    return t0, scratch


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
