"""One peelable table: a rows x cols grid of summed cells.

Every item touches each row exactly once, at the bucket its row hash
assigns; the row hashes are one `RowStack`, built from KWiseHash rows of
one k, or a segment of a StackedSketch's stack. A cell accumulates the
key sum and value sum in Z_(2^64) (wrapping uint64), a signed item count,
and, in checksum mode, the sum of power-hash values in Z_q.

Keys live in [0, 2^61-1); checksum mode further requires key < p.
Values are arbitrary uint64.

Cells live in a `CellStore`: one flat array per field, row-major. A
table's grids are (rows, cols) views of its store; a StackedSketch keeps
one store for all its tables, table after table, and each of its tables
views its own segment.

Mutation has one path, shared with StackedSketch: the `Mutations`
adapters (insert, insert_arrays, delete, delete_pairs) validate each
batch once in `_update`, hash it once with the class's row stack
`_stack` (indices into its store), and hand the indices with the (keys,
values, weights) arrays to its trusted `_apply`. Both classes' `_apply`,
and the stacked decoder, call the one `scatter`: it ravels the (rows, n)
indices and tiles the signed keys, values and weights to match, so each
field takes one 1-D `np.add.at` (numpy's fast path for `ufunc.at`).
Extraction is an array stage as well: `extract` returns a store's pure
cells as (keys, values, signs, gvals) arrays, checked in checksum mode by
one `eval_batch` whose power hashes the decoder's scatter reuses.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .hashing import MERSENNE61, KWiseHash, PowerHash, RowStack

PLAIN_CELL_BYTES = 24       # key_sum + value_sum + count
CHECKSUM_CELL_BYTES = 40    # + 128-bit hash_sum


def key_bound(checksum: PowerHash | None) -> int:
    """Keys must lie in [0, key_bound): 2^61-1, and p in checksum mode."""
    return MERSENNE61 if checksum is None else min(checksum.key_bound, MERSENNE61)


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
        self._update(keys, values, -np.array([s for s, _, _ in items]))

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
class CellStore:
    """Flat cell arrays: key_sum, value_sum (uint64), count (int64) and, in
    checksum mode, hash_sum (Python ints in [0, q), an object array)."""

    key_sum: np.ndarray
    value_sum: np.ndarray
    count: np.ndarray
    hash_sum: np.ndarray | None = None

    @classmethod
    def zeros(cls, size: int, checksum: PowerHash | None) -> "CellStore":
        return cls(np.zeros(size, dtype=np.uint64), np.zeros(size, dtype=np.uint64),
                   np.zeros(size, dtype=np.int64),
                   np.zeros(size, dtype=object) if checksum is not None else None)

    def fields(self) -> tuple:
        """The field arrays, hash_sum last and only in checksum mode."""
        out = (self.key_sum, self.value_sum, self.count)
        return out if self.hash_sum is None else out + (self.hash_sum,)

    def segment(self, start: int, stop: int) -> "CellStore":
        """A store viewing cells [start, stop) of this one."""
        return CellStore(*(a[start:stop] for a in self.fields()))

    def copy(self) -> "CellStore":
        return CellStore(*(a.copy() for a in self.fields()))

    def minus(self, other: "CellStore", checksum: PowerHash | None) -> "CellStore":
        """Cell-wise difference, hash sums reduced mod q."""
        out = CellStore(*(a - b for a, b in zip(self.fields(), other.fields())))
        if checksum is not None:
            out.hash_sum %= checksum.modulus
        return out

    def is_zero(self) -> bool:
        return not any(a.any() for a in self.fields())


def scatter(cells: CellStore, checksum: PowerHash | None, flat, keys, values, weights,
            gvals=None) -> None:
    """Add w * (k, v, 1, g(k)) at each row's cell of every pair: the one scatter.

    Trusted: flat holds (rows, n) indices into `cells`, keys (in the
    domain) and values are uint64, weights int64 w in {+1,-1}; gvals, the
    power hashes of the keys, are computed when not given. The object
    hash_sum is reduced mod q on the touched cells afterwards.
    """
    rows = flat.shape[0]
    idx = flat.reshape(-1)
    neg = weights < 0
    kd = np.where(neg, np.uint64(0) - keys, keys)
    vd = np.where(neg, np.uint64(0) - values, values)
    np.add.at(cells.key_sum, idx, np.tile(kd, rows))
    np.add.at(cells.value_sum, idx, np.tile(vd, rows))
    np.add.at(cells.count, idx, np.tile(weights, rows))
    if checksum is not None:
        if gvals is None:
            gvals = checksum.eval_batch(keys)
        hs = cells.hash_sum
        np.add.at(hs, idx, np.tile(gvals * weights, rows))
        touched = np.zeros(hs.size, dtype=bool)    # a mask: far cheaper than np.unique
        touched[idx] = True
        hs[touched] %= checksum.modulus


def extract(cells: CellStore, checksum: PowerHash | None) -> tuple:
    """Pure cells of `cells` as arrays (keys, values, signs, gvals).

    Plain mode takes count 1 cells, and gvals is None. Checksum mode takes
    count +-1 cells whose hash sum equals the power hash of the
    sign-corrected key sum (negation in Z_(2^64) and Z_q), all checked by
    one `eval_batch` whose values are returned as gvals. Keys outside the
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
    idx, neg, keys, values, signs = idx[ok], neg[ok], keys[ok], values[ok], signs[ok]
    if checksum is None:
        return keys, values, signs, None
    gvals = checksum.eval_batch(keys)
    hs = cells.hash_sum[idx]
    ok = gvals == np.where(neg, (checksum.modulus - hs) % checksum.modulus, hs)
    return keys[ok], values[ok], signs[ok], gvals[ok]


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

    # The (rows, cols) grids: views of the flat store, written through.

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
        hs = self._cells.hash_sum
        return None if hs is None else hs.reshape(self.rows, self.cols)

    @property
    def mode(self) -> str:
        return "checksum" if self.checksum is not None else "plain"

    @property
    def hashes(self) -> tuple:
        """The row hashes as KWiseHash objects, rebuilt from the row stack."""
        return tuple(KWiseHash.from_coefficients(c, self.cols)
                     for c in self._stack.coefficients.tolist())

    def bucket_rows(self, keys: np.ndarray) -> np.ndarray:
        """(rows, n) bucket indices in [0, cols) for a uint64 batch of keys."""
        return self._stack.flat_cells(keys) - self._stack.offsets

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
        return self._view(self._cells.minus(other._cells, self.checksum))

    def is_zero(self) -> bool:
        return self._cells.is_zero()

    def copy(self) -> "BasicTable":
        return self._view(self._cells.copy())

    def __eq__(self, other) -> bool:
        if not isinstance(other, BasicTable):
            return NotImplemented
        return (self._stack == other._stack and self.checksum == other.checksum
                and all(np.array_equal(a, b)
                        for a, b in zip(self._cells.fields(), other._cells.fields())))

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
