"""One peelable table: a rows x cols grid of summed cells.

Every item touches each row exactly once, at the bucket its row hash
assigns. A cell accumulates the key sum and value sum in Z_(2^64)
(wrapping uint64), a signed item count, and, in checksum mode, the sum of
power-hash values in Z_q.

Keys live in [0, 2^61-1); checksum mode further requires key < p.
Values are arbitrary uint64.

Mutation has one path, shared with StackedSketch: the `Mutations`
adapters (insert, insert_arrays, delete, delete_pairs) validate each
batch once in `_update`, hash it once with the class's `_flat_cells`,
and hand the flat cell indices with the (keys, values, weights) arrays to
its trusted `_apply`, one numpy scatter-add per field. A stacked sketch
hashes a batch for all its tables in one kernel call and passes each
table its rows of the indices; the decoder calls `_apply` directly with
indices it computed once per stage (extraction only yields in-domain keys).
"""

from __future__ import annotations

import operator

import numpy as np

from .hashing import MERSENNE61, KWiseHash, PowerHash, eval_poly_rows, stack_limbs

PLAIN_CELL_BYTES = 24       # key_sum + value_sum + count
CHECKSUM_CELL_BYTES = 40    # + 128-bit hash_sum


def key_bound(checksum: PowerHash | None) -> int:
    """Keys must lie in [0, key_bound): 2^61-1, and p in checksum mode."""
    return MERSENNE61 if checksum is None else min(checksum.key_bound, MERSENNE61)


class Mutations:
    """Insert/delete adapters over a trusted `_apply(flat, keys, values, weights)`.

    A weight w in {+1,-1} adds w times the pair; `_update` validates, and
    `_flat_cells` hashes the keys to the flat cell indices `_apply` scatters to.
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
        self._apply(self._flat_cells(keys), keys,
                    np.ascontiguousarray(values, dtype=np.uint64), weights)


class BasicTable(Mutations):
    """Grid of cells with one hash per row; plain or checksum mode."""

    __slots__ = ("rows", "cols", "hashes", "checksum",
                 "key_sum", "value_sum", "count", "hash_sum", "_limbs")

    def __init__(self, rows: int, cols: int, hashes, checksum: PowerHash | None = None):
        if rows < 1 or cols < 1:
            raise ValueError("need rows >= 1 and cols >= 1")
        hashes = tuple(hashes)
        if len(hashes) != rows:
            raise ValueError(f"hash vector has {len(hashes)} entries for {rows} rows")
        for h in hashes:
            if h.gamma != cols:
                raise ValueError("row hash range does not match column count")
        self.rows = rows
        self.cols = cols
        self.hashes = hashes
        self.checksum = checksum
        self.key_sum = np.zeros((rows, cols), dtype=np.uint64)
        self.value_sum = np.zeros((rows, cols), dtype=np.uint64)
        self.count = np.zeros((rows, cols), dtype=np.int64)
        self.hash_sum = np.zeros((rows, cols), dtype=object) if checksum else None
        self._limbs = None          # built by the first bucket_rows call

    @property
    def mode(self) -> str:
        return "checksum" if self.checksum is not None else "plain"

    def bucket_rows(self, keys: np.ndarray) -> np.ndarray:
        """(rows, n) bucket indices for a batch of keys.

        All-KWiseHash rows of one degree are evaluated in one kernel call,
        on their limb matrices stacked at the first call and kept. Tables
        inside a StackedSketch never build them: the sketch hashes for all
        its tables at once.
        """
        if self._limbs is None and _one_kernel(self.hashes):
            self._limbs = stack_limbs([h._limbs for h in self.hashes])
        if self._limbs is not None:
            return eval_poly_rows(self._limbs, keys, self.cols)
        return np.stack([np.asarray(h.eval_batch(keys), dtype=np.uint64) for h in self.hashes])

    def _flat_cells(self, keys: np.ndarray) -> np.ndarray:
        """(rows, n) indices into the flattened grid: bucket + row * cols."""
        offs = np.arange(self.rows, dtype=np.uint64) * np.uint64(self.cols)
        return self.bucket_rows(keys) + offs[:, None]

    # -- mutation ---------------------------------------------------------

    def _apply(self, flat, keys, values, weights, gvals=None) -> None:
        # Trusted scatter: flat holds the (rows, n) cell indices of the
        # uint64 keys (in the domain), values are uint64 and weights int64
        # w in {+1,-1}; each pair contributes (w*k, w*v, w, w*g(k)).
        neg = weights < 0
        kd = np.where(neg, np.uint64(0) - keys, keys)
        vd = np.where(neg, np.uint64(0) - values, values)
        np.add.at(self.key_sum.reshape(-1), flat, kd[None, :])
        np.add.at(self.value_sum.reshape(-1), flat, vd[None, :])
        np.add.at(self.count.reshape(-1), flat, weights[None, :])
        if self.checksum is not None:
            if gvals is None:
                gvals = self.checksum.eval_batch(keys)
            hs = self.hash_sum.reshape(-1)
            np.add.at(hs, flat, (gvals * weights)[None, :])
            touched = np.unique(flat)
            hs[touched] %= self.checksum.modulus

    # -- queries ----------------------------------------------------------

    def list_entries(self, g_cache: dict | None = None):
        """Best-effort singleton extraction; returns sets (plus, minus).

        Plain mode takes (key, value) from count==1 cells and leaves minus
        empty. Checksum mode takes cells with count +-1 whose hash sum
        matches the power hash of the (sign-corrected) key sum, negation
        meaning the group inverse in Z_(2^64) and Z_q; minus holds the
        count -1 side. Keys outside the domain are never returned.
        g_cache memoizes the power hash of every key it checks.
        """
        g = self.checksum
        cnt = self.count.reshape(-1)
        idx = np.nonzero(cnt == 1 if g is None else np.abs(cnt) == 1)[0]
        neg = cnt[idx] < 0
        ks = self.key_sum.reshape(-1)[idx]
        vs = self.value_sum.reshape(-1)[idx]
        kk = np.where(neg, np.uint64(0) - ks, ks)
        vv = np.where(neg, np.uint64(0) - vs, vs)
        ok = kk < np.uint64(key_bound(g))   # a multi-key residue can leave the domain
        if g is None:
            return {(int(k), int(v)) for k, v in zip(kk[ok], vv[ok])}, set()
        idx, neg, kk, vv = idx[ok], neg[ok], kk[ok], vv[ok]
        hs = self.hash_sum.reshape(-1)[idx]
        if g_cache is None:
            g_cache = {}
        plus, minus = set(), set()
        for j in range(idx.size):
            key = int(kk[j])
            want = int(hs[j]) if not neg[j] else (g.modulus - int(hs[j])) % g.modulus
            got = g_cache.get(key)
            if got is None:
                got = g_cache[key] = g.eval(key)
            if got == want:
                (minus if neg[j] else plus).add((key, int(vv[j])))
        return plus, minus

    def subtract(self, other: "BasicTable") -> "BasicTable":
        """Cell-wise difference; both tables must be built compatibly."""
        if not isinstance(other, BasicTable):
            raise TypeError("expected a BasicTable")
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("table dimensions differ")
        if self.hashes != other.hashes:
            raise ValueError("row hashes differ; tables were not built compatibly")
        if self.checksum != other.checksum:
            raise ValueError("checksum parameters differ")
        out = BasicTable(self.rows, self.cols, self.hashes, self.checksum)
        out.key_sum = self.key_sum - other.key_sum
        out.value_sum = self.value_sum - other.value_sum
        out.count = self.count - other.count
        if self.checksum is not None:
            out.hash_sum = (self.hash_sum - other.hash_sum) % self.checksum.modulus
        return out

    def is_zero(self) -> bool:
        if self.key_sum.any() or self.value_sum.any() or self.count.any():
            return False
        return self.hash_sum is None or not self.hash_sum.any()

    def copy(self) -> "BasicTable":
        out = BasicTable(self.rows, self.cols, self.hashes, self.checksum)
        out.key_sum = self.key_sum.copy()
        out.value_sum = self.value_sum.copy()
        out.count = self.count.copy()
        if self.hash_sum is not None:
            out.hash_sum = self.hash_sum.copy()
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, BasicTable):
            return NotImplemented
        if (self.rows, self.cols, self.hashes, self.checksum) != \
                (other.rows, other.cols, other.hashes, other.checksum):
            return False
        # Equal checksums imply both hash_sum grids exist or neither does.
        return (np.array_equal(self.key_sum, other.key_sum)
                and np.array_equal(self.value_sum, other.value_sum)
                and np.array_equal(self.count, other.count)
                and (self.hash_sum is None or bool((self.hash_sum == other.hash_sum).all())))

    def __repr__(self):
        return f"BasicTable({self.rows}x{self.cols}, mode={self.mode})"


def _one_kernel(hashes) -> bool:
    # Rows the kernel can evaluate together: all KWiseHash, one degree.
    return all(isinstance(h, KWiseHash) for h in hashes) and \
        len({h.independence for h in hashes}) == 1


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
