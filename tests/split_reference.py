"""The histogram split rule written out plainly: the oracle the disk-sort
tests hold every split pass to (``core.sort_pdm.histogram_split`` is the
implementation; DESIGN.md §2, "Histogram splitters").

A child of ``n_b`` records, whose parent counted it in intervals between
candidate keys, takes the smallest ``S_c`` from ``S₀`` up that the
memoryload admits whose boundaries — for each ``j``, the key whose rank
is nearest ``j·n_b/S_c``, the lowest of equally near keys — give every
bucket at most the base case and fewer than ``2n_b/S_c`` records.
"""

import numpy as np

from repro.core.sort_pdm import _memoryload, default_bucket_count
from repro.exceptions import ParameterError


def base_case(machine, storage):
    return machine.M - (storage.n_virtual + 1) * storage.virtual_block_size


def widest(machine, storage):
    """``S_max``: every ``S`` up to ``M`` scanned for the memoryload rule."""
    out = 0
    for s in range(2, machine.M + 1):
        try:
            _memoryload(machine, storage, s)
        except ParameterError:
            continue
        out = s
    return out


def the_rule(machine, storage, keys, counts):
    """``(S_c, splitters)`` for a child counted as ``counts`` in the
    intervals between ``keys``, or None when no ``S_c`` fits."""
    base = base_case(machine, storage)
    n = int(sum(counts))
    ranks = np.cumsum(counts)[:-1]  # records below each key
    if not len(keys):
        return None
    for s in range(default_bucket_count(machine.M, machine.B), widest(machine, storage) + 1):
        picks = [
            min(range(len(ranks)), key=lambda i: (abs(ranks[i] - j * n / s), i))
            for j in range(1, s)
        ]
        bounds = [0] + [int(ranks[i]) for i in picks] + [n]
        largest = max(b - a for a, b in zip(bounds, bounds[1:]))
        if largest <= base and largest * s < 2 * n:
            return s, keys[picks]
    return None


def assert_split_pass(machine, storage, parent, child):
    """``child`` — a pass with ``n``, ``s``, ``pivots`` and bucket
    ``counts`` — is exactly the rule's choice on the counts its
    ``parent`` (which also has a ``histogram``: keys and interval counts
    per bucket) took of it, and every one of its buckets is a base case
    under ``2n/S``."""
    n, s = child["n"], child["s"]
    bucket = int(np.searchsorted(parent["pivots"], child["pivots"][0], side="right"))
    keys, counts = parent["histogram"][bucket]
    assert counts.sum() == n == parent["counts"][bucket]
    s_rule, pivots = the_rule(machine, storage, keys, counts)
    assert s == s_rule and np.array_equal(child["pivots"], pivots)
    # Each bucket is the sum of the intervals between its boundaries.
    cut = np.searchsorted(keys, child["pivots"])
    sums = np.diff(np.concatenate(([0], np.cumsum(counts)[cut], [n])))
    assert child["counts"] == sums.tolist()
    largest = max(child["counts"])
    assert largest <= base_case(machine, storage) and largest * s < 2 * n
