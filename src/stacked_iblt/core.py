"""One peelable table: a rows x cols grid of summed cells.

Every item touches each row exactly once, at the bucket its row hash
assigns; the row hashes are one `RowStack`, built from KWiseHash rows of
one k, or a segment of a StackedSketch's stack. A cell accumulates the
key sum and value sum in Z_(2^64) (wrapping uint64), a signed item count,
and, in checksum mode, the sum of power-hash values in Z_q.

Keys live in [0, 2^61-1); checksum mode further requires key < p.
Values are arbitrary uint64.

Cells live in a `CellStore`: one flat array per field, row-major. A
table's plain grids are (rows, cols) views of its store; a StackedSketch
keeps one store for all its tables, table after table, and each of its
tables views its own segment.

Mutation has one path, shared with StackedSketch: the `Mutations`
adapters (insert, insert_arrays, delete, delete_pairs) validate each
batch once in `_update`, hash it once with the class's row stack
`_stack` (indices into its store), and hand the indices with the (keys,
values, weights) arrays to its trusted `_apply`. Both classes' `_apply`,
and the stacked decoder, call the one `scatter`: it ravels the (rows, n)
indices and tiles the signed keys, values and weights to match, so each
field (each hash lane) takes one 1-D `np.add.at` (numpy's fast path for
`ufunc.at`).
Extraction is an array stage as well: `extract` returns a store's pure
cells as (keys, values, signs, glanes) arrays, checked in checksum mode by
one `eval_batch` whose power hashes, as lanes, the decoder's scatter
reuses.

A checksum cell's hash sum is four int64 lanes, one per 32-bit limb: an
update adds its signed limbs, and nothing is reduced on the way, so the
lanes only stay congruent, mod q, to the sum. `reduce_lanes` turns them
into canonical limbs where a value is read (the envelope, `is_zero`, the
candidates of `extract`, table equality and the `BasicTable.hash_sum`
grid), and the store reduces itself in place before its lanes could
overflow (`CellStore.reserve`). No Python int is stored; `eval_batch`'s
ints become lanes in `to_lanes`.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from .hashing import MERSENNE61, KWiseHash, PowerHash, RowStack, thread_scratch

PLAIN_CELL_BYTES = 24       # key_sum + value_sum + count
# + a 128-bit hash_sum: the envelope's and the paper's width, which
# `memory_bits` reports. In memory the hash sum is four int64 lanes, so a
# checksum cell takes 56 bytes.
CHECKSUM_CELL_BYTES = 40

MAX_Q_BITS = 128            # four 32-bit lanes, and the envelope's u128 field
# Most updates a store takes between reductions; see `CellStore`.
LANE_BUDGET = 1 << 30

_LIMB = 0xFFFFFFFF
# Cells per reduce_lanes block: its scratch, 21 float64 a cell, stays near
# 0.7 MB.
_REDUCE_BLOCK = 4096


def key_bound(checksum: PowerHash | None) -> int:
    """Keys must lie in [0, key_bound): 2^61-1, and p in checksum mode."""
    return MERSENNE61 if checksum is None else min(checksum.key_bound, MERSENNE61)


def to_lanes(values) -> np.ndarray:
    """(4, n) int64 32-bit limbs, least significant first, of n ints in [0, 2^128)."""
    raw = b"".join([v.to_bytes(16, "little") for v in values])
    limbs = np.frombuffer(raw, dtype="<u4").reshape(-1, 4).T
    return np.ascontiguousarray(limbs, dtype=np.int64)


@functools.lru_cache(maxsize=16)
def _fold(q: int) -> tuple:
    # reduce_lanes' constants: the quotient row, the (4, 17) remainder matrix
    # and q's limbs as a column.
    res = [pow(2, 32 * j + 16 * t, q) for t in range(4) for j in range(4)]
    limbs = [(q >> 32 * k) & _LIMB for k in range(4)]
    rem = [[(x >> 32 * k) & _LIMB for x in res] + [-limbs[k]] for k in range(4)]
    return (np.array([x / q for x in res]), np.array(rem, dtype=np.float64),
            np.array(limbs, dtype=np.int64)[:, None])


def _carry(x: np.ndarray) -> np.ndarray:
    # Carry-normalize the rows of x, least significant first, to 32-bit limbs
    # in place; returns the signed carry out of the top row.
    carry = 0
    for row in x:
        row += carry
        carry = row >> 32
        row &= _LIMB
    return carry


def reduce_lanes(lanes: np.ndarray, q: int, out: np.ndarray | None = None) -> np.ndarray:
    """Canonical (4, m) limbs of sum_j lanes[j] * 2^(32j) mod q, for any int64 lanes.

    q < 2^128. Every step is exact:
    1. Carry-normalize each lane into 16-bit digits, read in place as its
       four 16-bit pieces: d0 + d1*2^16 + d2*2^32 + d3*2^48, with d0..d2
       in [0, 2^16) and d3 in [-2^15, 2^15).
    2. Fold and estimate the quotient: the value is congruent to V', the
       sum of digit * (2^(32j+16t) mod q), and one float64 product of the
       digits with residue/q gives V'/q, |V'/q| < 2^20, to within 2^-28.
       Its estimate floor(V'/q + 2^-16) is Q or Q+1 for Q = floor(V'/q),
       and Q on a multiple of q.
    3. Subtract the quotient times q's limbs: one float64 GEMM forms, per
       limb k, the sum of digit * (limb k of its residue) minus quotient *
       (limb k of q). Every product is below 2^52 and every partial sum
       below 2^53, so the sums are exact integers in any order, and the
       remainder r they encode lies in [-q, q).
    4. Carry-normalize r to 32-bit limbs. The carry out of the top limb is
       -1 exactly where r < 0, and there q is added once.
    The limbs go to `out` (a new array when None; it may be `lanes`), one
    block of _REDUCE_BLOCK cells at a time. A block's digits and GEMM
    product, 21 float64 a cell (688 KB for a whole block), are views of the
    calling thread's scratch area (`hashing.thread_scratch`), a mapping
    kept while the thread lives: freed at the end of every block, buffers
    this size lie above glibc's mmap threshold and page-fault in afresh at
    the next one. This never nests with the area's other user,
    `hashing.eval_poly_rows`.
    """
    if out is None:
        out = np.empty(lanes.shape, dtype=np.int64)
    for a in range(0, lanes.shape[1], _REDUCE_BLOCK):
        _reduce_block(lanes[:, a:a + _REDUCE_BLOCK], q, out[:, a:a + _REDUCE_BLOCK])
    return out


def _reduce_block(lanes: np.ndarray, q: int, out: np.ndarray) -> None:
    # reduce_lanes on at most _REDUCE_BLOCK cells, into `out`, which may be
    # `lanes`: the digits are read before out is written.
    m = lanes.shape[1]
    quotient_row, rem, q_limbs = _fold(q)
    work = thread_scratch(21 * m).view(np.float64)
    digits = work[:17 * m].reshape(17, m)   # 16 digits then the quotient
    product = work[17 * m:].reshape(4, m)
    if lanes.strides[1] != 8:               # the pieces view needs contiguous rows
        lanes = np.ascontiguousarray(lanes)
    pieces = lanes.astype("<i8", copy=False).view("<u2").reshape(4, m, 4)
    np.copyto(digits[:12].reshape(3, 4, m), pieces[..., :3].transpose(2, 0, 1))
    np.copyto(digits[12:16], pieces[..., 3].view("<i2"))
    quotient = digits[16]
    np.matmul(quotient_row, digits[:16], out=quotient)
    quotient += 2.0**-16
    np.floor(quotient, out=quotient)
    np.matmul(rem, digits, out=product)
    np.copyto(out, product, casting="unsafe")
    low = np.flatnonzero(_carry(out) < 0)
    if low.size:
        up = out[:, low] + q_limbs
        _carry(up)
        out[:, low] = up


class Mutations:
    """Insert/delete adapters over a trusted `_apply(flat, keys, values, weights)`.

    A weight w in {+1,-1} adds w times the pair; `_update` validates, and
    `_stack` hashes the keys to the flat cell indices `_apply` scatters to.
    """

    __slots__ = ()

    def insert(self, pairs) -> None:
        self._update(*_pairs_to_arrays(pairs), 1)

    def insert_arrays(self, keys, values) -> None:
        self._update(keys, values, 1)

    def delete(self, signed_pairs) -> None:
        """Remove sign-weighted contributions; pairs are (sign, key, value)."""
        items = list(signed_pairs)
        keys, values = _pairs_to_arrays((k, v) for _, k, v in items)
        signs = np.array([s for s, _, _ in items])
        if signs.size and signs.dtype.kind not in "iu":   # before numpy negates a bool
            raise ValueError("signs must be +1 or -1")
        self._update(keys, values, -signs)

    def delete_pairs(self, pairs) -> None:
        """Unsigned delete: every pair removed with sign +1."""
        self._update(*_pairs_to_arrays(pairs), -1)

    def _update(self, keys, values, weights) -> None:
        """The one check of every public mutation, then `_apply`.

        keys and values must be 1-D non-negative integer arrays of one
        length, every key below `key_bound`; weights (one per key, or a
        scalar) must be integer +-1. Raises ValueError otherwise.
        """
        keys, values = np.asarray(keys), np.asarray(values)
        if keys.ndim != 1 or values.shape != keys.shape:
            raise ValueError("keys and values must be 1-D arrays of equal length")
        if keys.size == 0:
            return
        if not (keys.dtype.kind in "iu" and values.dtype.kind in "iu"):
            raise ValueError("keys and values must be integer arrays")
        # A signed array would wrap a negative entry to a large uint64.
        if any(a.dtype.kind == "i" and a.min() < 0 for a in (keys, values)):
            raise ValueError("keys and values must be non-negative")
        weights = np.asarray(weights)
        if weights.dtype.kind not in "iu" or not (np.abs(weights) == 1).all():
            raise ValueError("signs must be +1 or -1")
        weights = np.broadcast_to(weights.astype(np.int64), keys.shape)
        keys = np.ascontiguousarray(keys, dtype=np.uint64)
        bound = key_bound(self.checksum)
        if int(keys.max()) >= bound:
            raise ValueError(f"key out of domain [0, {bound})")
        self._apply(self._stack.flat_cells(keys), keys,
                    np.ascontiguousarray(values, dtype=np.uint64), weights)


@dataclass(eq=False, slots=True)
class LaneBudget:
    """What a checksum store shares with its segments: the whole store's
    (4, size) lanes, the modulus q and the store's update bound."""

    lanes: np.ndarray
    modulus: int
    updates: int = 1


@dataclass(eq=False, slots=True)
class CellStore:
    """Flat cell arrays: key_sum, value_sum (uint64), count (int64) and, in
    checksum mode, hash_sum, a (4, size) int64 array of lanes.

    Lane j of a cell holds the signed sum of limb j (bits 32j to 32j+31) of
    every power hash added to the cell, so sum_j lane_j * 2^(32j) is
    congruent, mod q, to the cell's hash sum; `residues` reduces them.

    Exactness is enforced through `budget.updates`, a bound B with
    |lane| <= B * (2^32 - 1) on every lane of the whole store. A fresh or
    just reduced store has B = 1: its limbs lie below 2^32. A key touches
    each row once, at one cell, so it adds or subtracts at most one limb
    below 2^32 to any cell, and a scatter of n keys raises B by n; a
    difference of stores has the sum of their bounds. `reserve` reduces the
    whole store in place, back to B = 1, before B could pass LANE_BUDGET =
    2^30, so a lane stays below 2^30 * 2^32 = 2^62 and a difference of two
    stores below 2^63: no lane overflows. Segments share their store's
    budget, and a segment's reserve reduces the whole store.
    """

    key_sum: np.ndarray
    value_sum: np.ndarray
    count: np.ndarray
    hash_sum: np.ndarray | None = None
    budget: LaneBudget | None = None

    @classmethod
    def zeros(cls, size: int, checksum: PowerHash | None) -> "CellStore":
        out = cls(np.zeros(size, dtype=np.uint64), np.zeros(size, dtype=np.uint64),
                  np.zeros(size, dtype=np.int64))
        if checksum is not None:
            if checksum.modulus.bit_length() > MAX_Q_BITS:
                raise ValueError(f"checksum cells hold a q of at most {MAX_Q_BITS} bits")
            out._own_lanes(np.zeros((4, size), dtype=np.int64), checksum.modulus, 1)
        return out

    def _own_lanes(self, lanes: np.ndarray, modulus: int, updates: int) -> None:
        # Lanes of this store's own, not a segment's view.
        self.hash_sum, self.budget = lanes, LaneBudget(lanes, modulus, updates)

    def fields(self) -> tuple:
        """The field arrays, hash_sum last and only in checksum mode."""
        out = (self.key_sum, self.value_sum, self.count)
        return out if self.hash_sum is None else out + (self.hash_sum,)

    def segment(self, start: int, stop: int) -> "CellStore":
        """A store viewing cells [start, stop) of this one, sharing its budget."""
        return CellStore(*(a[..., start:stop] for a in self.fields()), self.budget)

    def copy(self) -> "CellStore":
        out = CellStore(*(a.copy() for a in self.fields()[:3]))
        if self.budget is not None:
            out._own_lanes(self.hash_sum.copy(), self.budget.modulus, self.budget.updates)
        return out

    def minus(self, other: "CellStore") -> "CellStore":
        """Cell-wise difference. The lanes subtract as they stand, under the
        sum of both bounds, and are reduced at once if that passes LANE_BUDGET."""
        out = CellStore(*(a - b for a, b in zip(self.fields()[:3], other.fields()[:3])))
        if self.budget is not None:
            out._own_lanes(self.hash_sum - other.hash_sum, self.budget.modulus,
                           self.budget.updates + other.budget.updates)
            out.reserve(0)
        return out

    def reserve(self, n: int) -> None:
        """Count n more updates, reducing the whole store first (in place, to
        canonical limbs) if the bound would pass LANE_BUDGET; n < LANE_BUDGET."""
        budget = self.budget
        if budget.updates + n > LANE_BUDGET:
            reduce_lanes(budget.lanes, budget.modulus, out=budget.lanes)
            budget.updates = 1
        budget.updates += n

    def residues(self) -> np.ndarray:
        """The hash sums as canonical (4, size) limbs in [0, q)."""
        return reduce_lanes(self.hash_sum, self.budget.modulus)

    def is_zero(self) -> bool:
        """Every field zero, hash sums mod q. Lanes are reduced only when the
        plain fields are all zero, one block at a time, skipping zero blocks
        and stopping at the first nonzero one."""
        if any(a.any() for a in self.fields()[:3]):
            return False
        hs = self.hash_sum
        if hs is None:
            return True
        out = np.empty((4, min(hs.shape[1], _REDUCE_BLOCK)), dtype=np.int64)
        for a in range(0, hs.shape[1], _REDUCE_BLOCK):
            block = hs[:, a:a + _REDUCE_BLOCK]
            if block.any():
                r = out[:, :block.shape[1]]
                _reduce_block(block, self.budget.modulus, r)
                if r.any():
                    return False
        return True


def scatter(cells: CellStore, checksum: PowerHash | None, flat, keys, values, weights,
            glanes=None) -> None:
    """Add w * (k, v, 1, g(k)) at each row's cell of every pair: the one scatter.

    Trusted: flat holds (rows, n) indices into `cells`, keys (in the
    domain) and values are uint64, weights int64 w in {+1,-1}; glanes, the
    power hashes of the keys as `to_lanes` limbs, are computed when not
    given. Each hash lane takes w * limb unreduced, in blocks of fewer than
    LANE_BUDGET keys, each first counted by `CellStore.reserve`.
    """
    rows = flat.shape[0]
    idx = flat.reshape(-1)
    neg = weights < 0
    kd = np.where(neg, np.uint64(0) - keys, keys)
    vd = np.where(neg, np.uint64(0) - values, values)
    np.add.at(cells.key_sum, idx, np.tile(kd, rows))
    np.add.at(cells.value_sum, idx, np.tile(vd, rows))
    np.add.at(cells.count, idx, np.tile(weights, rows))
    if checksum is None:
        return
    if glanes is None:
        glanes = to_lanes(checksum.eval_batch(keys))
    signed = glanes * weights
    step = LANE_BUDGET - 1
    for start in range(0, keys.size, step):
        block = flat[:, start:start + step]
        cells.reserve(block.shape[1])
        block = block.reshape(-1)
        # One lane's tile at a time: all four at once would be the largest
        # temporary of a checksum op.
        for lane, add in zip(cells.hash_sum, signed[:, start:start + step]):
            np.add.at(lane, block, np.tile(add, rows))


def extract(cells: CellStore, checksum: PowerHash | None) -> tuple:
    """Pure cells of `cells` as arrays (keys, values, signs, glanes).

    Plain mode takes count 1 cells, and glanes is None. Checksum mode takes
    count +-1 cells whose hash sum minus sign * g(key), for the
    sign-corrected key sum (negated in Z_(2^64)), reduces to 0 mod q: one
    `eval_batch` for all candidates, one `reduce_lanes` over their lanes,
    and the candidates' g values are returned as lanes. Keys outside the
    domain are never returned; signs are the cells' int64 counts.
    """
    cnt = cells.count
    idx = np.nonzero(cnt == 1 if checksum is None else np.abs(cnt) == 1)[0]
    signs = cnt[idx]
    neg = signs < 0
    ks, vs = cells.key_sum[idx], cells.value_sum[idx]
    keys = np.where(neg, np.uint64(0) - ks, ks)
    values = np.where(neg, np.uint64(0) - vs, vs)
    ok = keys < np.uint64(key_bound(checksum))   # a multi-key residue can leave the domain
    idx, keys, values, signs = idx[ok], keys[ok], values[ok], signs[ok]
    if checksum is None:
        return keys, values, signs, None
    glanes = to_lanes(checksum.eval_batch(keys))
    rest = reduce_lanes(cells.hash_sum[:, idx] - glanes * signs, checksum.modulus)
    ok = ~rest.any(axis=0)
    return keys[ok], values[ok], signs[ok], glanes[:, ok]


class BasicTable(Mutations):
    """Grid of cells with one polynomial hash per row; plain or checksum mode."""

    __slots__ = ("rows", "cols", "checksum", "_stack", "_cells")

    def __init__(self, rows: int, cols: int, hashes, checksum: PowerHash | None = None):
        if rows < 1 or cols < 1:
            raise ValueError("need rows >= 1 and cols >= 1")
        hashes = tuple(hashes)
        if len(hashes) != rows:
            raise ValueError(f"hash vector has {len(hashes)} entries for {rows} rows")
        if not all(isinstance(h, KWiseHash) for h in hashes):
            raise ValueError("row hashes must be KWiseHash polynomials")
        if len({h.independence for h in hashes}) != 1:
            raise ValueError("row hashes must share one independence k")
        for h in hashes:
            if h.gamma != cols:
                raise ValueError("row hash range does not match column count")
        self._bind(RowStack([h.coefficients for h in hashes], [cols] * rows), checksum,
                   CellStore.zeros(rows * cols, checksum))

    def _bind(self, stack: RowStack, checksum: PowerHash | None, cells: CellStore) -> "BasicTable":
        # Every row of a table has the same bucket range: its column count.
        self.rows, self.cols = stack.gamma.shape[0], int(stack.gamma[0, 0])
        self.checksum, self._stack, self._cells = checksum, stack, cells
        return self

    def _view(self, cells: CellStore) -> "BasicTable":
        """A table with these rows over `cells`, shared, not copied."""
        return BasicTable.__new__(BasicTable)._bind(self._stack, self.checksum, cells)

    # The (rows, cols) grids: key_sum, value_sum and count are views of the
    # flat store, written through; hash_sum is reduced from its lanes.

    @property
    def key_sum(self) -> np.ndarray:
        return self._cells.key_sum.reshape(self.rows, self.cols)

    @property
    def value_sum(self) -> np.ndarray:
        return self._cells.value_sum.reshape(self.rows, self.cols)

    @property
    def count(self) -> np.ndarray:
        return self._cells.count.reshape(self.rows, self.cols)

    @property
    def hash_sum(self) -> np.ndarray | None:
        """Hash sums in [0, q) as a read-only (rows, cols) grid of Python ints,
        reduced from the store's lanes on each access; None in plain mode.
        Cells are written through the lanes (`_cells.hash_sum`), never here."""
        if self._cells.hash_sum is None:
            return None
        r = self._cells.residues().astype(object)
        grid = (r[0] | r[1] << 32 | r[2] << 64 | r[3] << 96).reshape(self.rows, self.cols)
        grid.flags.writeable = False
        return grid

    @property
    def mode(self) -> str:
        return "checksum" if self.checksum is not None else "plain"

    def _apply(self, flat, keys, values, weights) -> None:
        scatter(self._cells, self.checksum, flat, keys, values, weights)

    # -- queries ----------------------------------------------------------

    def list_entries(self):
        """Best-effort singleton extraction: `extract`'s pairs as sets (plus,
        minus), minus holding the count -1 side (empty in plain mode)."""
        keys, values, signs, _ = extract(self._cells, self.checksum)
        pos = signs > 0
        return (set(zip(keys[pos].tolist(), values[pos].tolist())),
                set(zip(keys[~pos].tolist(), values[~pos].tolist())))

    def subtract(self, other: "BasicTable") -> "BasicTable":
        """Cell-wise difference; both tables must be built compatibly."""
        if not isinstance(other, BasicTable):
            raise TypeError("expected a BasicTable")
        if self._stack != other._stack:
            raise ValueError("row hashes differ; tables were not built compatibly")
        if self.checksum != other.checksum:
            raise ValueError("checksum parameters differ")
        return self._view(self._cells.minus(other._cells))

    def is_zero(self) -> bool:
        return self._cells.is_zero()

    def copy(self) -> "BasicTable":
        return self._view(self._cells.copy())

    def __eq__(self, other) -> bool:
        if not isinstance(other, BasicTable):
            return NotImplemented
        return (self._stack == other._stack and self.checksum == other.checksum
                and self._cells.minus(other._cells).is_zero())

    def __repr__(self):
        return f"BasicTable({self.rows}x{self.cols}, mode={self.mode})"


def _pairs_to_arrays(pairs):
    items = list(pairs)
    return _int_column([k for k, _ in items]), _int_column([v for _, v in items])


def _int_column(xs: list) -> np.ndarray:
    # Integers become exact uint64. Anything else (a float, a negative or an
    # oversized int) leaves an object array for `_update` to reject, where a
    # forced uint64 cast would truncate 1.7 to 1.
    try:
        return np.array([operator.index(x) for x in xs], dtype=np.uint64)
    except (TypeError, OverflowError):
        return np.array(xs, dtype=object)
