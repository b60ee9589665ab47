"""Hash families used by the sketch tables.

Bucket placement uses seeded degree-(k-1) polynomials over the Mersenne
field Z_(2^61-1): drawing the k coefficients from a counter-mode stream
gives a k-wise independent family, and the Mersenne modulus lets a whole
batch of keys reduce inside uint64 numpy arithmetic (32-bit limb products,
shift-and-add folding, after Thorup, "High Speed Hashing for Integers and
Strings"). `eval_poly_rows` is the one Horner kernel: it evaluates a stack
of polynomial rows, each with its own bucket range, over blocks of
BLOCK_KEYS keys, and keeps the accumulator only partly reduced (below
2^62) until the last step. The checksum family maps a key x to a^x mod q
for a base a drawn once per sketch; it is what lets a table distinguish a
cell holding one genuine pair from a cell whose count merely sums to +-1.
"""

from __future__ import annotations

import numpy as np

MERSENNE61 = (1 << 61) - 1

# Keys per Horner block: a block's (rows, BLOCK_KEYS) temporaries stay
# cache-sized for a whole sketch's rows. Of 128, 256 and 512 keys, 256 was
# fastest or within noise at every workload shape measured.
BLOCK_KEYS = 256

_M61 = np.uint64(MERSENNE61)
_LOW32 = np.uint64(0xFFFFFFFF)
_S3, _S29, _S32, _S61 = (np.uint64(s) for s in (3, 29, 32, 61))
_U64 = 0xFFFFFFFFFFFFFFFF

# Stream-id namespaces: one master seed drives every draw in a sketch, so
# each consumer gets its own Philox key half.
_STREAM_BUCKET = 1
_STREAM_CHECKSUM = 2
_STREAM_WITNESS = 3


class SeededStream:
    """Counter-mode pseudorandom word stream keyed by (seed, stream id).

    Philox is counter-based, so two streams with distinct ids never
    overlap and rebuilding a stream replays it exactly.
    """

    def __init__(self, seed: int, stream_id: int):
        key = np.array([seed & _U64, stream_id & _U64], dtype=np.uint64)
        self._bitgen = np.random.Philox(key=key)
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


def bucket_stream_id(table: int, row: int) -> int:
    """Stream id for the row hash of one table row."""
    if not (0 <= table < 1 << 24 and 0 <= row < 1 << 28):
        raise ValueError("table/row index out of stream-id range")
    return (_STREAM_BUCKET << 56) | (table << 28) | row


class KWiseHash:
    """Seeded degree-(k-1) polynomial over Z_(2^61-1), reduced mod `gamma`.

    Immutable after construction; evaluation is a pure function of
    (coefficients, key), so instances may be shared across threads.
    """

    __slots__ = ("independence", "gamma", "coefficients", "_coeffs_u64")

    def __init__(self, seed: int, k: int, gamma: int, stream_id: int = 0):
        if k < 1:
            raise ValueError("independence k must be >= 1")
        stream = SeededStream(seed, stream_id)
        coeffs = [stream.below(MERSENNE61) for _ in range(k)]
        self._init_fields(coeffs, gamma)

    def _init_fields(self, coeffs: list[int], gamma: int) -> None:
        if not 1 <= gamma < MERSENNE61:
            raise ValueError("bucket range must satisfy 1 <= gamma < 2^61-1")
        self.independence = len(coeffs)
        self.gamma = gamma
        self.coefficients = tuple(coeffs)
        self._coeffs_u64 = np.array(coeffs, dtype=np.uint64)

    @classmethod
    def from_coefficients(cls, coeffs, gamma: int) -> "KWiseHash":
        """Build directly from field elements c_0..c_(k-1) (constant first)."""
        coeffs = [int(c) for c in coeffs]
        if not coeffs:
            raise ValueError("need at least one coefficient")
        if any(not 0 <= c < MERSENNE61 for c in coeffs):
            raise ValueError("coefficients must lie in [0, 2^61-1)")
        obj = cls.__new__(cls)
        obj._init_fields(coeffs, gamma)
        return obj

    def eval(self, key: int) -> int:
        """Bucket index in [0, gamma) for a single key."""
        return int(self.eval_batch(np.array([key], dtype=np.uint64))[0])

    def eval_batch(self, keys: np.ndarray) -> np.ndarray:
        """Bucket indices for a uint64 key array; every key must be < 2^61-1."""
        keys = np.asarray(keys, dtype=np.uint64)
        if keys.size and int(keys.max()) >= MERSENNE61:
            raise ValueError("key out of hash domain [0, 2^61-1)")
        rows = eval_poly_rows(self._coeffs_u64[None, :], keys.reshape(-1), self.gamma)
        return rows.reshape(keys.shape)

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


def eval_poly_rows(coeff_matrix: np.ndarray, keys: np.ndarray, gamma) -> np.ndarray:
    """Evaluate a stack of polynomials over one key batch.

    coeff_matrix is (rows, k) uint64 with entries below 2^61-1, constant
    term first; keys is (n,) uint64 below 2^61-1; gamma is one bucket range
    for every row or a (rows, 1) column of per-row ranges, each in
    [1, 2^61-1). Returns (rows, n) bucket indices, row r reduced mod its
    gamma. This is the one Horner loop: a stacked sketch sweeps every row
    of every table in one call, a table all its rows, and
    KWiseHash.eval_batch one row. Keys go in blocks of BLOCK_KEYS, so
    temporaries are bounded by rows x BLOCK_KEYS whatever the batch size.
    Between Horner steps the accumulator is only partly reduced, staying
    below 2^62 (the bound is derived in the loop), and it is made canonical
    in [0, 2^61-1) once, before the reduction mod gamma.
    """
    rows, k = coeff_matrix.shape
    out = np.empty((rows, keys.size), dtype=np.uint64)
    gamma = np.asarray(gamma, dtype=np.uint64)
    steps = [coeff_matrix[:, j : j + 1] for j in range(k - 2, -1, -1)]
    for start in range(0, keys.size, BLOCK_KEYS):
        x = keys[None, start : start + BLOCK_KEYS]
        x_lo = x & _LOW32                           # < 2^32
        x_hi = x >> _S32                            # < 2^29
        x_hi8 = x_hi << _S3                         # 8 * x_hi < 2^32
        acc = np.repeat(coeff_matrix[:, -1:], x.shape[1], axis=1)
        for c in steps:
            # acc <- acc*x + c, only partly reduced. Entering, acc < 2^62, so
            # a_hi < 2^30 and every limb product fits in uint64:
            # mid = a_hi*x_lo + a_lo*x_hi < 2^63, lo = a_lo*x_lo < 2^64 and
            # a_hi*8*x_hi < 2^62. With 2^61 == 1 and 2^64 == 8 (mod 2^61-1),
            # acc*x is congruent to
            #   8*a_hi*x_hi + (mid >> 29) + (mid mod 2^29)*2^32
            #   + (lo >> 61) + (lo mod 2^61),
            # whose terms plus c sum below 5*2^61 + 2^35 < 2^64. One fold,
            # (s mod 2^61) + (s >> 61) <= 2^61 + 6, restores acc < 2^62.
            a_hi, a_lo = acc >> _S32, acc & _LOW32
            mid = a_hi * x_lo
            mid += a_lo * x_hi
            lo = a_lo * x_lo
            acc = a_hi * x_hi8
            acc += mid >> _S29
            mid <<= _S32                # keeps mid mod 2^32, shifted up
            mid &= _M61                 # now (mid mod 2^29) * 2^32
            acc += mid
            acc += lo >> _S61
            lo &= _M61
            acc += lo
            acc += c
            lo = acc >> _S61
            acc &= _M61
            acc += lo
        # acc <= 2^61 + 6 < 2*(2^61-1): one subtraction makes it canonical.
        acc = np.where(acc >= _M61, acc - _M61, acc)
        np.remainder(acc, gamma, out=out[:, start : start + BLOCK_KEYS])
    return out


class PowerHash:
    """Checksum hash x -> a^x mod q with base a drawn uniformly from Z_q*.

    Keys must come from Z_p; p < q and both prime. Exponentiation is
    square-and-multiply (native pow), so q may exceed machine width.
    """

    __slots__ = ("base", "modulus", "key_bound")

    def __init__(self, seed: int, p: int, q: int, stream_id: int | None = None):
        if stream_id is None:
            stream_id = _STREAM_CHECKSUM << 56
        stream = SeededStream(seed, stream_id)
        base = 1 + stream.below(q - 1)
        self._init_fields(base, p, q)

    def _init_fields(self, base: int, p: int, q: int) -> None:
        _check_power_params(p, q)
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
        if not 0 <= key < self.key_bound:
            raise ValueError("checksum key out of domain [0, p)")
        return pow(self.base, key, self.modulus)

    def eval_batch(self, keys) -> np.ndarray:
        """Object array of a^key mod q; repeated keys are computed once."""
        keys = np.asarray(keys, dtype=np.uint64)
        uniq, inverse = np.unique(keys, return_inverse=True)
        if uniq.size and int(uniq[-1]) >= self.key_bound:
            raise ValueError("checksum key out of domain [0, p)")
        vals = np.array([pow(self.base, int(k), self.modulus) for k in uniq], dtype=object)
        return vals[inverse]

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


def _check_power_params(p: int, q: int) -> None:
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


def is_identity_multiset(keys, signs) -> bool:
    """True when the signed keys reduce to one net +1 key.

    For such multisets the two sides of the checksum identity are the same
    polynomial in the base, so every base verifies (and rightly so: the
    cell genuinely holds one pair). Inside a sketch this needs paired +k/-k
    contributions of one key, which subtraction cancels beforehand, so the
    case matters only to exhaustive sweeps.
    """
    net: dict[int, int] = {}
    for k, s in zip(keys, signs):
        net[k] = net.get(k, 0) + s
    nonzero = [c for c in net.values() if c != 0]
    return nonzero == [1]


def bad_base_count(p: int, q: int, keys, signs) -> int:
    """Count bases a in Z_q* for which the checksum identity falsely holds.

    A cell holding the signed key multiset {(sigma_i, k_i)} verifies when
    a^(l*p + sum sigma_i k_i) == a^(l*p) * sum sigma_i a^(k_i) (mod q);
    the l*p shift keeps the exponent non-negative. Exhaustive over a, so
    guarded to desk-scale inputs (l * p <= 10^4).
    """
    keys = [int(k) for k in keys]
    signs = [int(s) for s in signs]
    ell = len(keys)
    if ell < 1 or len(signs) != ell:
        raise ValueError("need matching non-empty key and sign lists")
    if any(s not in (1, -1) for s in signs):
        raise ValueError("signs must be +1 or -1")
    _check_power_params(p, q)
    if any(not 0 <= k < p for k in keys):
        raise ValueError("keys must lie in [0, p)")
    if ell * p > 10_000:
        raise ValueError("exhaustive sweep guard: need l * p <= 10^4")
    shift = ell * p
    lhs_exp = shift + sum(s * k for s, k in zip(signs, keys))
    count = 0
    for a in range(1, q):
        lhs = pow(a, lhs_exp, q)
        rhs = pow(a, shift, q) * sum(s * pow(a, k, q) for s, k in zip(signs, keys)) % q
        if lhs == rhs:
            count += 1
    return count
