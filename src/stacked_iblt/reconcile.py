"""Set reconciliation over serialized sketches.

Two parties that agree on Params (seed included) each build a sketch of
their key-value set and exchange the bytes. Each side deletes its own
pairs from the remote sketch, which leaves the sketch of the difference,
and decodes it: pairs the remote holds land in `missing_locally`, pairs
only held locally, deleted without ever being inserted, in
`missing_remotely`. Wire size depends only on Params, never on set sizes.

Envelope layout (all little-endian)::

    magic "SIBL" | version u16 | mode u8 | k u32 | n u64 | master_seed u64
    delta f64 | big_c f64 | c0 f64 | p u64 | q u128 | layout_digest u64
    item_balance i64
    then the sketch's cell store: per table, cells row-major, per cell:
    key_sum u64 | value_sum u64 | count i64 | hash_sum u128 (checksum mode)
    where hash_sum is the same bytes as its four u32 limbs, low limb first.

The payload is the sketch's flat cell store in order, so each direction
handles it as one record array. In memory a hash_sum is four int64 lanes
of 32-bit limbs, unreduced (`core.CellStore`): `serialize` reduces them
once, with `CellStore.residues`, and writes the canonical limbs as they
are; `deserialize` copies them back into the lanes. Neither holds a
Python int per cell or does limb arithmetic.

delta travels as a binary64 float; every derived integer (tau, layout) is recomputed from Params on receipt and
checked against the 64-bit layout digest, so a drifting recomputation can
never silently desynchronize peers. A layout too large for the digest's
u64 fields is refused, and the digest checked, before any payload is
touched. Params bound k (MAX_INDEPENDENCE), which the digest does not
cover, before the receiver builds any hash. Plain mode's p and q must be
0. A hash_sum >= q is refused, naming the table of the first such cell.
"""

from __future__ import annotations

import dataclasses
import hashlib
import struct

import numpy as np

from .stacked import LayoutPlan, Params, StackedSketch, plan_layout

MAGIC = b"SIBL"
VERSION = 1

_HEADER = struct.Struct("<4sHBIQQdddQ16sQq")

_PLAIN_CELL = np.dtype([("k", "<u8"), ("v", "<u8"), ("c", "<i8")])
_CHECKSUM_CELL = np.dtype([("k", "<u8"), ("v", "<u8"), ("c", "<i8"), ("h", "<u4", (4,))])


class EnvelopeError(ValueError):
    """Raised for malformed, corrupted, or incompatible envelopes."""


def layout_digest(layout: LayoutPlan) -> int:
    blob = struct.pack("<QQQQ", layout.tau, layout.capacity,
                       layout.single_count, len(layout.tables))
    blob += b"".join(struct.pack("<QQ", r, c) for r, c in layout.tables)
    return int.from_bytes(hashlib.blake2b(blob, digest_size=8).digest(), "little")


def serialize(sketch: StackedSketch) -> bytes:
    """Deterministic byte encoding; header plus fixed-width cells."""
    p = sketch.params
    checksum_mode = p.mode == "checksum"
    header = _HEADER.pack(
        MAGIC, VERSION, 1 if checksum_mode else 0, p.k, p.n, p.master_seed,
        p.delta, p.big_c, p.c0,
        p.p or 0, (p.q or 0).to_bytes(16, "little"),
        layout_digest(sketch.layout), sketch.item_balance,
    )
    cells = sketch._cells
    rec = np.empty(sketch.layout.total_cells,
                   dtype=_CHECKSUM_CELL if checksum_mode else _PLAIN_CELL)
    rec["k"], rec["v"], rec["c"] = cells.key_sum, cells.value_sum, cells.count
    if checksum_mode:
        rec["h"] = cells.residues().T       # canonical limbs, each below 2^32
    return header + memoryview(rec)     # one copy of the payload, not two


def deserialize(data: bytes) -> StackedSketch:
    """Rebuild a sketch, rejecting corruption before reading the payload."""
    if len(data) < _HEADER.size:
        raise EnvelopeError("truncated envelope: header incomplete")
    (magic, version, mode_byte, k, n, master_seed, delta, big_c, c0,
     p_raw, q_raw, digest, balance) = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise EnvelopeError("bad magic; not a sketch envelope")
    if version != VERSION:
        raise EnvelopeError(f"unsupported envelope version {version}")
    if mode_byte not in (0, 1):
        raise EnvelopeError(f"unknown mode byte {mode_byte}")
    mode = "checksum" if mode_byte else "plain"
    q = int.from_bytes(q_raw, "little")
    if not mode_byte and (p_raw or q):
        raise EnvelopeError(f"plain envelope with nonzero {'p' if p_raw else 'q'}")
    try:
        params = Params(n=n, delta=delta, big_c=big_c, c0=c0, k=k, mode=mode,
                        p=p_raw if mode_byte else None,
                        q=q if mode_byte else None,
                        master_seed=master_seed)
        layout = plan_layout(params)
    except ValueError as exc:
        raise EnvelopeError(f"invalid parameters: {exc}") from exc
    if layout_digest(layout) != digest:
        raise EnvelopeError("layout digest mismatch")
    cell_dtype = _CHECKSUM_CELL if mode_byte else _PLAIN_CELL
    want = _HEADER.size + layout.total_cells * cell_dtype.itemsize
    if len(data) < want:
        raise EnvelopeError("truncated envelope: payload incomplete")
    if len(data) > want:
        raise EnvelopeError("oversized envelope: trailing bytes")
    rec = np.frombuffer(data, dtype=cell_dtype, count=layout.total_cells,
                        offset=_HEADER.size)
    if mode_byte:
        h0, h1 = rec["h"].view("<u8").T     # the same 16 bytes as two words
        q_lo, q_hi = np.frombuffer(q_raw, dtype="<u8")
        bad = np.flatnonzero((h1 > q_hi) | ((h1 == q_hi) & (h0 >= q_lo)))
        if bad.size:
            table = next(t for t, (_, cells) in enumerate(layout.spans)
                         if bad[0] < cells.stop)
            raise EnvelopeError(f"table {table}: hash_sum not reduced mod q")
    sketch = StackedSketch(params)
    sketch.item_balance = balance
    cells = sketch._cells       # written in place: the sketch owns its cells
    cells.key_sum[:], cells.value_sum[:], cells.count[:] = rec["k"], rec["v"], rec["c"]
    if mode_byte:
        cells.hash_sum[:] = rec["h"].T      # canonical limbs, within the fresh store's bound
    return sketch


def sketch_of(pairs, params: Params) -> StackedSketch:
    """Convenience: a fresh sketch holding `pairs`."""
    s = StackedSketch(params)
    s.insert(pairs)
    return s


def reconcile_local(local_pairs, remote_envelope: bytes, local_params: Params):
    """One side of the reconciliation protocol.

    Returns (missing_locally, missing_remotely, complete): pairs the remote
    party holds that we lack, pairs we hold that it lacks, and whether the
    difference decoded completely. The local pairs are deleted from the
    deserialized remote sketch in place, which gives the same cells as
    subtracting a sketch of them, without building one; the result is
    decoded in place too. Requires checksum mode: our deletions of pairs
    the remote never inserted are exactly the false-deletion case.
    """
    if local_params.mode != "checksum":
        raise ValueError("reconciliation requires checksum mode")
    remote = deserialize(remote_envelope)
    if remote.params != local_params:
        differ = sorted(f.name for f in dataclasses.fields(Params)
                        if getattr(remote.params, f.name) != getattr(local_params, f.name))
        raise ValueError("remote sketch parameters do not match local ones: "
                         + ", ".join(differ))
    remote.delete_pairs(local_pairs)
    outcome = remote.list_entries(in_place=True)
    return outcome.recovered_plus, outcome.recovered_minus, outcome.complete
