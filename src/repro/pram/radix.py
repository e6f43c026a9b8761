"""Operational LSD radix sort on a CRCW PRAM.

The Section 5 internal processing uses "an algorithm of Rajasekaran and
Reif [RaR] as part of a radix sort" — which is why the parallel-disk
theorem needs a CRCW interconnect when ``log(M/B) = o(log M)``.  The
charged model lives in :func:`repro.pram.sorting.rajasekaran_reif_radix`;
this module is the *operational* counterpart: a least-significant-digit
radix sort whose every pass really executes on the machine (vectorized
histogram, prefix sum, scatter) with the canonical charges:

=====================  =======================  ==================
pass stage             work                     depth
=====================  =======================  ==================
digit extraction       n                        1
histogram (CRCW)       n + 2^r                  1 (concurrent +=)
prefix over counters   2·2^r                    2r
stable scatter         n                        1 (CRCW arbitration)
=====================  =======================  ==================

Total over ``⌈key_bits/r⌉`` passes: ``O(n·key_bits/r)`` work — linear in n
for fixed-width keys, the property the [RaR] charge encodes asymptotically.
"""

from __future__ import annotations

import numpy as np

from ..records import RECORD_DTYPE, composite_keys
from .machine import PRAM
from .primitives import log2_ceil

__all__ = ["radix_sort", "radix_pass_count"]


def radix_pass_count(key_bits: int, digit_bits: int) -> int:
    """Number of LSD passes for ``key_bits``-bit keys, ``digit_bits`` per pass."""
    if digit_bits < 1:
        raise ValueError("digit_bits must be >= 1")
    return -(-key_bits // digit_bits)


def radix_sort(
    machine: PRAM,
    values: np.ndarray,
    key_bits: int = 64,
    digit_bits: int = 8,
) -> np.ndarray:
    """Sort values (plain uint or record arrays) by operational LSD radix.

    Requires a CRCW machine (the histogram and scatter stages use
    concurrent writes).  Record arrays sort in composite (key, rid) order;
    stability of each counting pass makes the whole sort stable.
    """
    machine.require_concurrent_write("radix sort histogram/scatter")
    original = values
    if values.dtype == RECORD_DTYPE:
        keys = composite_keys(values).copy()
    else:
        keys = np.asarray(values, dtype=np.uint64).copy()
    n = int(keys.size)
    if n <= 1:
        machine.charge(work=1, depth=1, label="radix-trivial")
        return original.copy()

    order = np.arange(n)
    radix = 1 << digit_bits
    mask = np.uint64(radix - 1)
    passes = radix_pass_count(key_bits, digit_bits)

    for p in range(passes):
        shift = np.uint64(p * digit_bits)
        digits = (keys >> shift) & mask
        machine.charge(work=n, depth=1, label="radix-digits")
        counts = np.bincount(digits, minlength=radix)
        machine.charge(work=n + radix, depth=1, label="radix-histogram")
        machine.charge(work=2 * radix, depth=2 * log2_ceil(radix), label="radix-prefix")
        # Stable scatter: an element's destination is its rank in the
        # stable digit order (= digit-segment start + within-digit rank,
        # which is what the counters + prefix compute on the real machine).
        dest = np.empty(n, dtype=np.int64)
        dest[np.argsort(digits, kind="stable")] = np.arange(n)
        new_keys = np.empty_like(keys)
        new_order = np.empty_like(order)
        new_keys[dest] = keys
        new_order[dest] = order
        keys, order = new_keys, new_order
        machine.charge(work=n, depth=1, label="radix-scatter")

    return original[order]
