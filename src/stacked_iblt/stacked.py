"""Stacked sketch: geometrically shrinking tables decoded in order.

Layout: with tau = c0*lg(1/delta) rounded up to a power of two and the
capacity n rounded likewise, the sketch holds single-row tables of
ceil(C*n*2^-i) columns while the expected remaining load stays above tau,
then groups of 2^i rows with ceil(C*tau*2^-i) columns.

Store: the cells of all tables live in one flat `CellStore`, table after
table, each row-major. Hashing is stacked the same way: the bucket
polynomials of all R rows are one `RowStack`, drawn from the master seed
(row r of table t from stream `bucket_stream_id(t, r)`) into one (R, k)
matrix with its kernel limbs and per-row store offsets (table base + row
* cols). The rows, like the checksum hash, are fixed by Params, so they
are drawn once per Params and shared, read-only, by every sketch built
with it (`_row_stack`, `_checksum_hash`): a reconciliation session's
envelopes all rebuild one sketch shape. One `scatter` call applies a
batch to every row of every table, hashing it with the stack one key
block at a time (`RowStack.block`). Only the sketch writes its cells:
`tables` are read-only views, bounded by `LayoutPlan.spans`.

Decoding peels each table once, in order: `core.extract` returns table
i's pure cells as arrays (with their power hashes in checksum mode), and
the slices holding pairs new to the output (stage i) are subtracted from
the whole store in one scatter. Table i+1 thus sees every earlier stage
removed, and at the end every table holds original-minus-everything.
Success is verified by cancellation: the decode is complete when the
whole store is zero.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .core import (BasicTable, CHECKSUM_CELL_BYTES, CellStore, MAX_Q_BITS, Mutations,
                   PLAIN_CELL_BYTES, extract, scatter)
from .hashing import (MERSENNE61, PowerHash, RowStack, check_int, check_power_params,
                      check_real, next_prime_at_least)

DEFAULT_BIG_C = 8 * math.e
DEFAULT_C0 = 4.0
DEFAULT_KEY_PRIME = MERSENNE61          # 2^61-1 is itself prime

# Largest accepted hash independence. Every default k is at most 2176
# (n < 2^64, delta >= 2^-1074); the bound keeps an untrusted k from sizing
# the R x k coefficient and limb matrices a sketch builds.
MAX_INDEPENDENCE = 4096


def default_independence(n: int, delta: float) -> int:
    """Smallest even k with 2^(-k/2) < delta / (4 * ceil(lg n)^2)."""
    n, delta = check_int(n, "n", 1), check_real(delta, "delta", 0, 1)
    lgn = math.ceil(math.log2(max(n, 2)))
    # lg(4 lgn^2 / delta) in the log domain: the quotient overflows a float
    # for subnormal delta.
    return 2 * math.ceil(2 + 2 * math.log2(lgn) - math.log2(delta))


def checksum_modulus_bound(n: int, delta: float, big_c: float, p: int) -> int:
    """Modulus size needed for the subtraction guarantee at these params."""
    n, p = check_int(n, "n", 1), check_int(p, "p", 0, 1 << 64)
    delta, big_c = check_real(delta, "delta", 0, 1), check_real(big_c, "big_c", 0)
    lg_inv = -math.log2(delta)
    factor = max(lg_inv * math.log2(lg_inv), 1.0)
    try:
        bound = 2.0 * big_c * factor / delta * (n ** 3) * p
    except OverflowError:           # n^3 past every float
        bound = math.inf
    if bound < math.inf:
        return math.ceil(bound)
    # Past a float's range, so far past MAX_Q_BITS: the same product, exactly.
    return math.ceil(2 * Fraction(big_c) * Fraction(factor) / Fraction(delta) * n ** 3 * p)


def default_checksum_modulus(n: int, delta: float, big_c: float, p: int) -> int:
    """Smallest prime q above p and at least `checksum_modulus_bound`;
    ValueError when it would pass 128 bits."""
    return _checksum_prime(checksum_modulus_bound(n, delta, big_c, p), check_int(p, "p", 0, 1 << 64))


@functools.lru_cache(maxsize=64)
def _checksum_prime(bound: int, p: int) -> int:
    # Cached on checked ints: finding a 128-bit prime takes many Miller-Rabin rounds.
    if bound.bit_length() > MAX_Q_BITS:
        raise ValueError(
            "guarantee bound for q exceeds 128 bits at these parameters; "
            "pass an explicit q")
    q = next_prime_at_least(max(bound, p + 1) | 1)
    if q.bit_length() > MAX_Q_BITS:
        raise ValueError("no 128-bit prime at or above the q bound; pass an explicit q")
    return q


# One Params serves a whole reconciliation session, so the row stack and
# checksum hash caches keep only 4 entries each; a run of fresh seeds (one
# per trial) misses every time and keeps no more than that.
@functools.lru_cache(maxsize=4)
def _row_stack(seed: int, k: int, dims: tuple) -> RowStack:
    """`RowStack.draw(seed, k, dims)`, drawn once and shared by every sketch
    with these rows.

    A stack is immutable and its arrays are read-only, so sharing it is
    safe. The cache holds at most 4 stacks, so it retains at most 4 times
    the largest stack drawn: one stack's limb form alone is 20 MB at
    n = 256, delta = 2^-128 (1,022 rows at k = 272), and about 200 KB at
    n = 4096, delta = 2^-10.
    """
    return RowStack.draw(seed, k, dims)


@functools.lru_cache(maxsize=4)
def _checksum_hash(seed: int, p: int, q: int) -> PowerHash:
    """`PowerHash(seed, p, q)`, its base drawn once and shared like `_row_stack`."""
    return PowerHash(seed, p, q)


def _pow2_at_least(x: int) -> int:
    return 1 << max(x - 1, 0).bit_length()


def _ilog2(x: int) -> int:
    return x.bit_length() - 1


@dataclass(frozen=True)
class Params:
    """Sketch configuration; two sketches interoperate iff all fields match.

    n is the decode-capacity threshold, delta the target failure
    probability. big_c, c0 and k may be pushed below the provable regime
    for experiments; `meets_guarantee` reports whether the configuration
    is inside it. Checksum mode needs primes p < q of at most 64 and 128
    bits; both get defaults (p = 2^61-1, q = smallest prime at the
    guarantee bound), and `check_power_params` proves them. Sizes derived
    from several fields are checked where computed (`tau`, `plan_layout`).
    """

    n: int
    delta: float
    big_c: float = DEFAULT_BIG_C
    c0: float = DEFAULT_C0
    k: int | None = None
    mode: str = "plain"
    p: int | None = None
    q: int | None = None
    master_seed: int = 0

    def __post_init__(self):
        # Numbers become Python ints and floats; k, p and q may be None until defaulted.
        for name, low, high in (("n", 1, None), ("master_seed", 0, 1 << 64), ("k", None, None),
                                ("p", 0, 1 << 64), ("q", 0, 1 << MAX_Q_BITS)):
            value = getattr(self, name)
            if value is not None or name in ("n", "master_seed"):
                object.__setattr__(self, name, check_int(value, name, low, high))
        for name, high in (("delta", 1), ("big_c", math.inf), ("c0", math.inf)):
            object.__setattr__(self, name, check_real(getattr(self, name), name, 0, high))
        if self.mode not in ("plain", "checksum"):
            raise ValueError("mode must be 'plain' or 'checksum'")
        if self.k is None:
            object.__setattr__(self, "k", default_independence(self.n, self.delta))
        if self.k < 2 or self.k % 2:
            raise ValueError("hash independence k must be even and >= 2")
        if self.k > MAX_INDEPENDENCE:
            raise ValueError(f"hash independence k must be at most "
                             f"MAX_INDEPENDENCE = {MAX_INDEPENDENCE}")
        if self.mode == "plain":
            if self.p is not None or self.q is not None:
                raise ValueError("p/q only apply to checksum mode")
            return
        if self.p is None:
            object.__setattr__(self, "p", DEFAULT_KEY_PRIME)
        if self.q is None:
            object.__setattr__(self, "q", default_checksum_modulus(
                self.n, self.delta, self.big_c, self.p))
        check_power_params(self.p, self.q)

    @property
    def tau(self) -> int:
        """Crossover load c0*lg(1/delta), rounded up to a power of two."""
        raw = self.c0 * -math.log2(self.delta)
        if not raw <= 1 << 63:          # also refuses inf
            raise ValueError("c0 * lg(1/delta) must be at most 2^63")
        return _pow2_at_least(max(math.ceil(raw), 2))

    @property
    def capacity(self) -> int:
        """n rounded up to a power of two; the layout is sized for this."""
        return _pow2_at_least(self.n)

    @property
    def checksum_bound(self) -> int | None:
        if self.mode != "checksum":
            return None
        return checksum_modulus_bound(self.n, self.delta, self.big_c, self.p)

    @property
    def meets_guarantee(self) -> bool:
        """True when every knob is inside the provably sufficient regime."""
        eps = 1e-9
        if self.big_c < DEFAULT_BIG_C - eps or self.c0 < DEFAULT_C0 - eps:
            return False
        if self.k < default_independence(self.n, self.delta):
            return False
        if self.mode == "checksum" and self.q < self.checksum_bound:
            return False
        return True


@dataclass(frozen=True)
class LayoutPlan:
    """Per-table dimensions; the first `single_count` tables have one row."""

    tables: tuple[tuple[int, int], ...]
    tau: int
    capacity: int
    single_count: int

    @functools.cached_property
    def spans(self) -> tuple[tuple[slice, slice], ...]:
        """Per table, (its rows' slice of the row stack, its cells' slice of the store)."""
        out, row, cell = [], 0, 0
        for rows, cols in self.tables:
            out.append((slice(row, row + rows), slice(cell, cell + rows * cols)))
            row, cell = row + rows, cell + rows * cols
        return tuple(out)

    @property
    def total_cells(self) -> int:
        return self.spans[-1][1].stop

    def cell_bound(self, big_c: float) -> float:
        """Closed-form cap 2*C*n + C*tau*(lg tau + 1) on total cells."""
        big_c = check_real(big_c, "big_c", 0)
        return 2.0 * big_c * self.capacity + big_c * self.tau * (_ilog2(self.tau) + 1)


def plan_layout(params: Params) -> LayoutPlan:
    """Table dims for these params; ValueError if a size passes 64 bits."""
    n2 = params.capacity
    tau = params.tau
    c = params.big_c
    if n2 > 1 << 63 or c * max(n2, tau) >= 2.0**64:
        raise ValueError("layout sizes must fit in 64 bits")
    dims = []
    if n2 >= tau:
        singles = _ilog2(n2) - _ilog2(tau)
        for i in range(singles):
            dims.append((1, math.ceil(c * n2 / (1 << i))))
        for i in range(_ilog2(tau)):
            dims.append((1 << i, math.ceil(c * tau / (1 << i))))
    else:
        singles = 0
        for i in range(_ilog2(tau) - _ilog2(n2), _ilog2(tau) + 1):
            dims.append((1 << i, math.ceil(c * tau / (1 << i))))
    return LayoutPlan(tuple(dims), tau, n2, singles)


@dataclass
class DecodeOutcome:
    """Result of listing a sketch.

    recovered_plus holds pairs present with net count +1, recovered_minus
    pairs with net count -1 (false deletions / the other side of a
    difference). `complete` means re-deleting the recovered output left
    every table zero; `inconsistent` means extraction contradicted itself
    (same pair on both sides, or one key with two values on a side).
    stage_recoveries records what each table stage newly produced.
    """

    recovered_plus: set = field(default_factory=set)
    recovered_minus: set = field(default_factory=set)
    complete: bool = False
    inconsistent: bool = False
    stage_recoveries: tuple = ()


class StackedSketch(Mutations):
    """Ordered stack of peelable tables driven by one master seed."""

    __slots__ = ("params", "layout", "checksum", "item_balance", "_stack", "_cells")

    def __init__(self, params: Params):
        # Rows and checksum hash come from the per-Params caches. On a miss
        # the rows are drawn after the store is allocated: the draw's freed
        # temporaries then sit above the store, not in holes below it whose
        # reuse, and with it where glibc trims the heap after a large op,
        # varies from one process to the next.
        layout = plan_layout(params)
        power = (_checksum_hash(params.master_seed, params.p, params.q)
                 if params.mode == "checksum" else None)
        self._cells = CellStore.zeros(layout.total_cells, power)
        self._stack = _row_stack(params.master_seed, params.k, layout.tables)
        self.params, self.layout, self.checksum = params, layout, power
        self.item_balance = 0

    @property
    def tables(self) -> list[BasicTable]:
        """Read-only `BasicTable` views, one per table, made on each access: a
        view shows later writes to the sketch, refuses its own (ValueError),
        and its `copy()` is a writable standalone table."""
        return [BasicTable.__new__(BasicTable)._bind(self._stack.segment(rows.start, rows.stop),
                                                     self.checksum, self._cells.segment(cells))
                for rows, cells in self.layout.spans]

    # -- mutation ---------------------------------------------------------

    def _apply(self, keys, values, weights) -> None:
        # Trusted, like BasicTable._apply: one scatter call into the whole
        # store, which walks the batch by key block; the balance moves once.
        scatter(self._cells, self.checksum, self._stack, keys, values, weights)
        self.item_balance += int(weights.sum())

    # -- queries ----------------------------------------------------------

    def subtract(self, other: "StackedSketch") -> "StackedSketch":
        """Cell-wise difference; params (seed included) must match exactly."""
        if not isinstance(other, StackedSketch):
            raise TypeError("expected a StackedSketch")
        if self.params != other.params:
            raise ValueError("sketch params differ; subtraction undefined")
        return self._derive(self._cells.minus(other._cells),
                            self.item_balance - other.item_balance)

    def list_entries(self, in_place: bool = False) -> DecodeOutcome:
        """Staged peel over the tables, then verification by cancellation.

        Table i's pure cells come from `extract` as arrays; the pairs new to
        the output form stage i, and their slices are subtracted from the
        whole store in one scatter (item_balance is untouched).
        Table i+1 thus sees every earlier stage removed, and at the end
        every table holds original-minus-everything: the decode is complete
        when the store is zero. With in_place=True the sketch itself is
        consumed: afterwards it holds that residual.
        Extraction takes only cells of count +-1, so once every count from
        table i to the end of the store is zero, stage i and every later
        one recover nothing; they are recorded as empty without a pass.
        """
        work = self if in_place else self.copy()
        plus: dict[int, int] = {}
        minus: dict[int, int] = {}
        inconsistent = False
        stage_new: list[tuple[tuple, tuple]] = []
        for _, cells in work.layout.spans:
            if not work._cells.count[cells.start:].any():
                stage_new += [((), ())] * (len(work.layout.spans) - len(stage_new))
                break
            keys, values, signs, glanes = extract(work._cells.segment(cells), work.checksum)
            take, added, clash = _admit(keys, values, signs, plus, minus)
            inconsistent |= clash
            stage_new.append(added)
            if take.size:
                # Extraction keeps keys in the domain, so the scatter is trusted.
                keys = keys[take]
                if glanes is not None:
                    glanes = glanes[:, take]
                scatter(work._cells, work.checksum, work._stack, keys, values[take],
                        -signs[take], glanes)
        return DecodeOutcome(
            recovered_plus=set(plus.items()),
            recovered_minus=set(minus.items()),
            complete=work._cells.is_zero(),
            inconsistent=inconsistent,
            stage_recoveries=tuple(stage_new),
        )

    def is_zero(self) -> bool:
        return self._cells.is_zero()

    def cell_count(self) -> int:
        return self.layout.total_cells

    def memory_bits(self) -> int:
        width = CHECKSUM_CELL_BYTES if self.params.mode == "checksum" else PLAIN_CELL_BYTES
        return self.cell_count() * width * 8

    def copy(self) -> "StackedSketch":
        return self._derive(self._cells.copy(), self.item_balance)

    def _derive(self, cells: CellStore, item_balance: int) -> "StackedSketch":
        # A sketch with these params and rows over the given store.
        out = StackedSketch.__new__(StackedSketch)
        out.params, out.layout, out.checksum = self.params, self.layout, self.checksum
        out._stack, out._cells, out.item_balance = self._stack, cells, item_balance
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, StackedSketch):
            return NotImplemented
        return (self.params == other.params
                and self.item_balance == other.item_balance
                and self._stack == other._stack
                and self._cells.minus(other._cells).is_zero())

    def __repr__(self):
        return (f"StackedSketch(n={self.params.n}, delta={self.params.delta}, "
                f"mode={self.params.mode}, tables={len(self.layout.tables)})")


def _admit(keys, values, signs, plus: dict, minus: dict) -> tuple[np.ndarray, tuple, bool]:
    """Admit a stage's pairs to `plus` / `minus`; returns (taken, stage, clash).

    Plus side first, each side in (key, value) order. A key on its side with
    another value, or the pair on the other side, contradicts and is not
    admitted. taken is an index array of the admitted entries, stage holds
    them as the (plus, minus) tuples of `stage_recoveries`.
    """
    neg = signs < 0
    order = np.lexsort((values, keys, neg))
    cut = neg.size - int(np.count_nonzero(neg))
    ks, vs = keys[order], values[order]
    take_p, new_p, clash_p = _admit_side(ks[:cut], vs[:cut], order[:cut], plus, minus)
    take_m, new_m, clash_m = _admit_side(ks[cut:], vs[cut:], order[cut:], minus, plus)
    return np.concatenate((take_p, take_m)), (new_p, new_m), clash_p or clash_m


def _admit_side(ks, vs, idx, side: dict, other: dict) -> tuple[np.ndarray, tuple, bool]:
    """`_admit` for one side's pairs (ks, vs), sorted, at entries idx.

    The per-pair loop is the definition. When the keys are distinct and
    neither dict holds one, every pair is admitted, so one `update` does it.
    """
    if not idx.size:
        return idx, (), False
    kl, vl = ks.tolist(), vs.tolist()
    if (not np.count_nonzero(ks[1:] == ks[:-1])
            and side.keys().isdisjoint(kl) and other.keys().isdisjoint(kl)):
        new = tuple(zip(kl, vl))
        side.update(new)
        return idx, new, False
    keep, new, clash = [], [], False
    for j, (k, v) in enumerate(zip(kl, vl)):
        if k in side:
            clash |= side[k] != v
        elif other.get(k) == v:
            clash = True
        else:
            side[k] = v
            keep.append(j)
            new.append((k, v))
    return idx[keep], tuple(new), clash
