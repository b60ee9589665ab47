"""Stacked invertible Bloom lookup tables.

A key-value sketch with a fixed capacity threshold n: insertions,
(possibly false) deletions, cell-wise subtraction of two sketches, and a
full listing that succeeds with probability 1 - delta whenever at most n
pairs are outstanding. Space is O(n + lg(1/delta) lglg(1/delta)) cells and
all randomness comes from one 64-bit master seed through limited-
independence polynomial hashing.

The path through it: pick `Params` (n, delta, and mode="checksum" for
subtraction), build a `StackedSketch`, `insert` and `delete` pairs, and
`list_entries` to decode. To reconcile two sets, one side sends
`serialize(sketch)` and the other calls `reconcile_local` on it.
"""

from .core import BasicTable
from .hashing import MERSENNE61, KWiseHash, PowerHash, is_prime, next_prime_at_least
from .reconcile import (EnvelopeError, deserialize, layout_digest,
                        reconcile_local, serialize, sketch_of)
from .stacked import (DEFAULT_BIG_C, DEFAULT_C0, DecodeOutcome, LayoutPlan,
                      Params, StackedSketch, checksum_modulus_bound,
                      default_checksum_modulus, default_independence,
                      plan_layout)

__version__ = "0.1.0"

__all__ = [
    "BasicTable", "DecodeOutcome", "DEFAULT_BIG_C", "DEFAULT_C0",
    "EnvelopeError", "KWiseHash", "LayoutPlan", "MERSENNE61", "Params",
    "PowerHash", "StackedSketch",
    "checksum_modulus_bound", "default_checksum_modulus",
    "default_independence", "deserialize", "is_prime",
    "layout_digest", "next_prime_at_least", "plan_layout", "reconcile_local",
    "serialize", "sketch_of",
]
