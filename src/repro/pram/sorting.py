"""PRAM sorting: an operational EREW network sort plus charged cost models.

Three sorters, matching the citations the paper builds on:

* :func:`batcher_sort` — Batcher's odd-even merge sort, *operational*: it
  executes every compare–exchange round on the machine (work ``n/2`` per
  round, depth 1 per round, ``O(log² n)`` rounds).  EREW-safe by
  construction (each round touches each cell once).  Used when step-exact
  execution matters (tests of the accounting itself).
* :func:`cole_merge_sort` — Cole's EREW merge sort [Col], *charged model*:
  the paper invokes it for the parallel-disk internal processing (Section 5).
  Data is sorted with NumPy; the machine is charged the published
  ``Θ(n log n)`` work / ``Θ(log n)`` depth.
* :func:`rajasekaran_reif_radix` — the [RaR] randomized radix sort used "as
  part of a radix sort" in Section 5, *charged model*: ``O(n)`` work,
  ``O(log n / log log n)`` depth, requires concurrent writes.

The charged models are substitutions documented in DESIGN.md §2: the
theorems consume only these asymptotic charges, so the accounting — not a
reimplementation of Cole's ranks-and-samples machinery — is what the
reproduction needs.  Constants are explicit and configurable so benchmark
fits can report them.
"""

from __future__ import annotations

import math

import numpy as np

from ..records import RECORD_DTYPE, argsort_records, composite_keys
from .machine import PRAM
from .primitives import log2_ceil

__all__ = [
    "batcher_sort",
    "batcher_round_count",
    "cole_merge_sort",
    "rajasekaran_reif_radix",
    "COLE_WORK_CONSTANT",
    "COLE_DEPTH_CONSTANT",
]

#: Constants used by the charged Cole model; Cole reports small constants
#: (~2-4 comparisons per element per level); we charge 2·n·log n work.
COLE_WORK_CONSTANT = 2
COLE_DEPTH_CONSTANT = 4


def _as_sortable(values: np.ndarray) -> np.ndarray:
    """Record arrays sort by composite key; plain arrays sort as-is."""
    if values.dtype == RECORD_DTYPE:
        return composite_keys(values)
    return values


def batcher_round_count(n: int) -> int:
    """Number of compare-exchange rounds of odd-even merge sort on n=2^k items."""
    k = int(math.log2(n))
    return k * (k + 1) // 2


def batcher_sort(machine: PRAM, values: np.ndarray) -> np.ndarray:
    """Operational Batcher odd-even merge sort.

    ``len(values)`` is padded to the next power of two with max-key
    sentinels.  Every compare-exchange round really executes (vectorized,
    one round = one charged step of depth 1) so the machine's counters
    reflect the true ``O(log² n)``-depth, ``O(n log² n)``-work network.
    Returns a new sorted array of the original length (record arrays sort in
    composite (key, rid) order).
    """
    original = values
    keys = _as_sortable(values).astype(np.uint64, copy=True)
    n0 = int(keys.size)
    if n0 <= 1:
        return original.copy()
    n = 1 << int(math.ceil(math.log2(n0)))
    pad = np.full(n - n0, np.iinfo(np.uint64).max, dtype=np.uint64)
    work = np.concatenate([keys, pad])
    perm = np.arange(n)

    # Iterative odd-even merge sort (Batcher 1968).  In pass (p, k) element
    # j is compared with j+k when j has the k-bit clear in the sub-pass
    # pattern: classic scalar form
    #   for j in range(k % p, n - k, 2k):
    #     for i in range(min(k, n - j - k)):
    #       if (i + j) // (2p) == (i + j + k) // (2p): exchange(i+j, i+j+k)
    p = 1
    while p < n:
        k = p
        while k >= 1:
            lo, hi = _batcher_pairs(n, p, k)
            a, b = work[lo], work[hi]
            swap = a > b
            if np.any(swap):
                ls, hs = lo[swap], hi[swap]
                work[ls], work[hs] = b[swap], a[swap]
                perm[ls], perm[hs] = perm[hs].copy(), perm[ls].copy()
            machine.charge(work=max(int(lo.size), 1), depth=1, label="batcher-round")
            k //= 2
        p *= 2

    order = perm[perm < n0]
    return original[order]


def _batcher_pairs(n: int, p: int, k: int):
    """Vectorized index pairs for round (p, k) of iterative odd-even merge sort."""
    j = np.arange(k % p, n - k)
    block_ok = (j // (2 * p)) == ((j + k) // (2 * p))
    # j ranges over arithmetic progressions of stride 2k starting at k % p,
    # each of length k: position within stride must be < k.
    offset = (j - (k % p)) % (2 * k)
    mask = block_ok & (offset < k)
    lo = j[mask]
    return lo, lo + k


def cole_merge_sort(machine: PRAM, values: np.ndarray) -> np.ndarray:
    """Cole's EREW merge sort as a charged cost model.

    Charges ``COLE_WORK_CONSTANT·n·log n`` work and
    ``COLE_DEPTH_CONSTANT·log n`` depth, the bounds of [Col]; returns the
    sorted array (records in composite order).
    """
    n = int(values.size)
    if n <= 1:
        machine.charge(work=1, depth=1, label="cole-sort")
        return values.copy()
    lg = log2_ceil(n)
    machine.charge(work=COLE_WORK_CONSTANT * n * lg, depth=COLE_DEPTH_CONSTANT * lg, label="cole-sort")
    if values.dtype == RECORD_DTYPE:
        return values[argsort_records(values)]
    return np.sort(values)


def rajasekaran_reif_radix(machine: PRAM, values: np.ndarray, key_bits: int = 40) -> np.ndarray:
    """[RaR] randomized radix sort, charged model (CRCW required).

    ``O(n)`` work and ``O(log n / log log n)`` depth for keys of
    ``n^{O(1)}`` magnitude.  The paper uses it inside the parallel-disk
    internal processing (Section 5), which is why that theorem needs a CRCW
    PRAM when ``log(M/B) = o(log M)``.
    """
    machine.require_concurrent_write("Rajasekaran-Reif radix sort")
    n = int(values.size)
    if n <= 1:
        machine.charge(work=1, depth=1, label="rr-radix")
        return values.copy()
    lg = log2_ceil(n)
    lglg = max(1, int(math.ceil(math.log2(max(lg, 2)))))
    machine.charge(work=4 * n, depth=max(1, lg // lglg), label="rr-radix")
    if values.dtype == RECORD_DTYPE:
        return values[argsort_records(values)]
    return np.sort(values)
