"""A fixed computation that gauges how fast the host runs right now.

On a shared machine, contention from other tenants moves op latency by up
to 1.6x between 30-second runs (see README.md, "Noise"). Timing this kernel
right after each op, and dividing the op's time by it, gives the op's cost
in units of the host's current speed.

The kernel is a frozen copy of the library's bucket-hashing arithmetic
(Horner steps of a Mersenne-61 multiply-mod over a rows x keys uint64
grid), the layer that takes 55-92% of every workload's op, run at the
workload's own grid shape so that it meets the same cache and memory
pressure. It is a copy on purpose: it must not speed up or slow down when
the library changes.
"""

from __future__ import annotations

import time

import numpy as np

_M61 = np.uint64((1 << 61) - 1)
_LOW32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)
_S61 = np.uint64(61)
_S3 = np.uint64(3)


def _mulmod61(a, b):
    a_hi, a_lo = a >> _S32, a & _LOW32
    b_hi, b_lo = b >> _S32, b & _LOW32
    mid = a_hi * b_lo + a_lo * b_hi
    lo = a_lo * b_lo + ((mid & _LOW32) << _S32)
    carry = lo < a_lo * b_lo
    hi = a_hi * b_hi + (mid >> _S32) + carry
    res = (hi << _S3) + (lo >> _S61) + (lo & _M61)
    res = (res >> _S61) + (res & _M61)
    return np.where(res >= _M61, res - _M61, res)


class Reference:
    """`steps` Horner steps over a fixed (rows, keys) grid."""

    def __init__(self, rows: int, keys: int, steps: int):
        rng = np.random.default_rng(0)
        self._coeffs = rng.integers(0, _M61, size=(rows, 1), dtype=np.uint64)
        self._keys = rng.integers(0, _M61, size=(1, keys), dtype=np.uint64)
        self._steps = steps

    def seconds(self) -> float:
        """Wall time of one pass."""
        t0 = time.perf_counter()
        acc = np.repeat(self._coeffs, self._keys.shape[1], axis=1)
        for _ in range(self._steps):
            acc = _mulmod61(acc, self._keys) + self._coeffs
            acc = np.where(acc >= _M61, acc - _M61, acc)
        return time.perf_counter() - t0
