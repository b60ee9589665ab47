"""Stacked sketch: geometrically shrinking tables decoded in order.

Layout: with tau = c0*lg(1/delta) rounded up to a power of two and the
capacity n rounded likewise, the sketch holds single-row tables of
ceil(C*n*2^-i) columns while the expected remaining load stays above tau,
then groups of 2^i rows with ceil(C*tau*2^-i) columns.

Store: the cells of all tables live in one flat `CellStore`, table after
table, each table row-major; every table's plain grids are views of its
segment. Hashing is stacked the same way: the bucket polynomials of all
R rows are one `RowStack`, drawn at construction from the master seed
(row r of table t from stream `bucket_stream_id(t, r)`) into one (R, k)
matrix with its kernel limbs and per-row store offsets (table base +
row * cols). One `flat_cells` call gives a batch's store indices for
every row of every table, and one `scatter` applies it; each table holds
its rows' segment of the stack. `StackedSketch.over_rows` injects a given
stack instead, for tests that fix the hashing; such a sketch refuses
`serialize` and `subtract`, since a peer cannot rebuild its rows.

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
import itertools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .core import (BasicTable, CHECKSUM_CELL_BYTES, CellStore, MAX_Q_BITS, Mutations,
                   PLAIN_CELL_BYTES, extract, scatter)
from .hashing import MERSENNE61, PowerHash, RowStack, check_power_params, next_prime_at_least

DEFAULT_BIG_C = 8 * math.e
DEFAULT_C0 = 4.0
DEFAULT_KEY_PRIME = MERSENNE61          # 2^61-1 is itself prime

# Largest accepted hash independence. Every default k is at most 2176
# (n < 2^64, delta >= 2^-1074); the bound keeps an untrusted k from sizing
# the R x k coefficient and limb matrices a sketch builds.
MAX_INDEPENDENCE = 4096


def default_independence(n: int, delta: float) -> int:
    """Smallest even k with 2^(-k/2) < delta / (4 * ceil(lg n)^2)."""
    lgn = max(math.ceil(math.log2(max(n, 2))), 1)
    # lg(4 lgn^2 / delta) in the log domain: the quotient overflows a float
    # for subnormal delta.
    return 2 * math.ceil(2 + 2 * math.log2(lgn) - math.log2(delta))


def checksum_modulus_bound(n: int, delta: float, big_c: float, p: int) -> int:
    """Modulus size needed for the subtraction guarantee at these params."""
    lg_inv = -math.log2(delta)
    factor = max(lg_inv * max(math.log2(lg_inv) if lg_inv > 0 else 0.0, 0.0), 1.0)
    return math.ceil(2.0 * big_c * factor / delta * (n ** 3) * p)


@functools.lru_cache(maxsize=64)
def default_checksum_modulus(n: int, delta: float, big_c: float, p: int) -> int:
    bound = checksum_modulus_bound(n, delta, big_c, p)
    if bound.bit_length() > MAX_Q_BITS:
        raise ValueError(
            "guarantee bound for q exceeds 128 bits at these parameters; "
            "pass an explicit q")
    q = next_prime_at_least(max(bound, p + 1) | 1)
    if q.bit_length() > MAX_Q_BITS:
        raise ValueError("no 128-bit prime at or above the q bound; pass an explicit q")
    return q


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
        for name in ("n", "k", "master_seed", "p", "q"):
            if name in ("n", "master_seed") or getattr(self, name) is not None:
                try:
                    object.__setattr__(self, name, operator.index(getattr(self, name)))
                except TypeError:
                    raise ValueError(f"{name} must be an integer") from None
        if self.n < 1:
            raise ValueError("capacity n must be >= 1")
        if not (isinstance(self.delta, float) and math.isfinite(self.delta)
                and 0.0 < self.delta < 1.0):
            raise ValueError("delta must be a finite float in (0, 1)")
        if not (self.big_c > 0 and math.isfinite(self.big_c)):
            raise ValueError("big_c must be positive and finite")
        if not (self.c0 > 0 and math.isfinite(self.c0)):
            raise ValueError("c0 must be positive and finite")
        if self.mode not in ("plain", "checksum"):
            raise ValueError("mode must be 'plain' or 'checksum'")
        if not 0 <= self.master_seed < 1 << 64:
            raise ValueError("master_seed must fit in 64 bits")
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
        if self.p.bit_length() > 64:
            raise ValueError("p must fit in 64 bits (keys are 64-bit)")
        if self.q.bit_length() > MAX_Q_BITS:
            raise ValueError("q must fit in 128 bits")
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

    @property
    def total_cells(self) -> int:
        return sum(r * c for r, c in self.tables)

    def cell_bound(self, big_c: float) -> float:
        """Closed-form cap 2*C*n + C*tau*(lg tau + 1) on total cells."""
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

    __slots__ = ("params", "layout", "tables", "item_balance", "_seeded", "_stack",
                 "_cells")

    def __init__(self, params: Params):
        self._build(params, plan_layout(params), None)

    @classmethod
    def over_rows(cls, params: Params, stack: RowStack) -> "StackedSketch":
        """A sketch whose bucket rows are `stack` instead of seed-drawn ones.

        The stack needs one row per table row of `plan_layout(params)`, in
        order, each with its table's column count as bucket range; anything
        else raises ValueError. The sketch refuses serialize and subtract.
        """
        layout = plan_layout(params)
        if stack.gamma[:, 0].tolist() != [c for r, c in layout.tables for _ in range(r)]:
            raise ValueError("row stack does not match the layout's rows and column counts")
        out = cls.__new__(cls)
        out._build(params, layout, stack)
        return out

    def _build(self, params: Params, layout: LayoutPlan, stack: RowStack | None) -> None:
        # stack None draws the rows from the master seed, after the store is
        # allocated: the draw's freed temporaries then sit above the store,
        # not in holes below it whose reuse, and with it where glibc trims
        # the heap after a large op, varies from one process to the next.
        power = None
        if params.mode == "checksum":
            power = PowerHash(params.master_seed, params.p, params.q)
        self._cells = CellStore.zeros(layout.total_cells, power)
        self._seeded = stack is None
        if stack is None:
            stack = RowStack.draw(params.master_seed, params.k, layout.tables)
        self.params, self.layout, self._stack = params, layout, stack
        starts = itertools.accumulate((rows for rows, _ in layout.tables), initial=0)
        self.tables = _tables_over([stack.segment(a, a + rows)
                                    for a, (rows, _) in zip(starts, layout.tables)],
                                   power, self._cells)
        self.item_balance = 0

    @property
    def checksum(self) -> PowerHash | None:
        return self.tables[0].checksum

    # -- mutation ---------------------------------------------------------

    def _apply(self, flat, keys, values, weights) -> None:
        # Trusted, like BasicTable._apply: one scatter into the whole store.
        scatter(self._cells, self.checksum, flat, keys, values, weights)
        self.item_balance += int(weights.sum())

    # -- queries ----------------------------------------------------------

    def subtract(self, other: "StackedSketch") -> "StackedSketch":
        """Cell-wise difference; params (seed included) must match exactly."""
        if not isinstance(other, StackedSketch):
            raise TypeError("expected a StackedSketch")
        if self.params != other.params:
            raise ValueError("sketch params differ; subtraction undefined")
        if not (self._seeded and other._seeded):
            raise ValueError("cannot subtract sketches built with injected hashes")
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
        base = 0
        for tab in work.tables:
            if not work._cells.count[base:].any():
                stage_new += [((), ())] * (len(work.tables) - len(stage_new))
                break
            base += tab.rows * tab.cols
            keys, values, signs, glanes = extract(tab._cells, work.checksum)
            take, added, clash = _admit(keys, values, signs, plus, minus)
            inconsistent |= clash
            stage_new.append(added)
            if take:
                # Extraction keeps keys in the domain, so the scatter is trusted.
                keys = keys[take]
                if glanes is not None:
                    glanes = glanes[:, take]
                scatter(work._cells, work.checksum, work._stack.flat_cells(keys), keys,
                        values[take], -signs[take], glanes)
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
        out.params, out.layout, out._seeded = self.params, self.layout, self._seeded
        out._stack, out._cells, out.item_balance = self._stack, cells, item_balance
        out.tables = _tables_over([t._stack for t in self.tables], self.checksum, cells)
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, StackedSketch):
            return NotImplemented
        return (self.params == other.params
                and self.item_balance == other.item_balance
                and self.tables == other.tables)

    def __repr__(self):
        return (f"StackedSketch(n={self.params.n}, delta={self.params.delta}, "
                f"mode={self.params.mode}, tables={len(self.tables)})")


def _tables_over(stacks: list, checksum: PowerHash | None, cells: CellStore) -> list:
    # One table per row-stack segment, each over its own segment of `cells`.
    tables, base = [], 0
    for stack in stacks:
        size = int(stack.gamma.sum())
        tables.append(BasicTable.__new__(BasicTable)._bind(
            stack, checksum, cells.segment(base, base + size)))
        base += size
    return tables


def _admit(keys, values, signs, plus: dict, minus: dict) -> tuple[list, tuple, bool]:
    """Admit a stage's pairs to `plus` / `minus`; returns (taken, stage, clash).

    Plus side first, each side in (key, value) order. A key on its side with
    another value, or the pair on the other side, contradicts and is not
    admitted. taken indexes the admitted entries, stage holds them as the
    (plus, minus) tuples of `stage_recoveries`.
    """
    neg = signs < 0
    ks, vs, ns = keys.tolist(), values.tolist(), neg.tolist()
    take, added, clash = [], ([], []), False
    for i in np.lexsort((values, keys, neg)).tolist():
        k, v, n = ks[i], vs[i], ns[i]
        side, other = (minus, plus) if n else (plus, minus)
        if k in side:
            clash |= side[k] != v
        elif other.get(k) == v:
            clash = True
        else:
            side[k] = v
            take.append(i)
            added[n].append((k, v))
    return take, (tuple(added[0]), tuple(added[1])), clash
