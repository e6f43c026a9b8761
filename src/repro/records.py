"""Record representation for external sorting.

The paper (Section 4.1) assumes the ``N`` keys are distinct and notes that
"this assumption is easily realizable by appending to each key the record's
initial location".  We implement exactly that: a record is a ``(key, rid)``
pair where ``rid`` is the record's position in the original input.  The sort
order is lexicographic on ``(key, rid)``, which is a total order even when
keys repeat, and stability of the overall sort follows for free.

Records are stored as NumPy structured arrays (dtype :data:`RECORD_DTYPE`)
so that the simulators can slice them into blocks without copying and so the
vectorized idioms recommended by the scientific-Python guides apply.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "RECORD_DTYPE",
    "PAD_KEY",
    "make_records",
    "empty_records",
    "composite_keys",
    "sort_records",
    "argsort_records",
    "merge_records",
    "searchsorted_records",
    "records_equal",
    "pad_records",
    "real_records_mask",
    "strip_pad_records",
    "concat_records",
]

#: Structured dtype of one record: the sort key and the record id (initial
#: location, which doubles as the payload identity for permutation checks).
RECORD_DTYPE = np.dtype([("key", np.uint64), ("rid", np.uint64)])

#: Number of low bits reserved for the rid when packing a composite key.
_RID_BITS = 24
_RID_MASK = np.uint64((1 << _RID_BITS) - 1)


def make_records(keys: np.ndarray) -> np.ndarray:
    """Build a record array from raw keys, appending initial locations.

    Parameters
    ----------
    keys:
        1-D integer array.  Values are taken modulo 2**64.

    Returns
    -------
    numpy.ndarray
        Structured array of dtype :data:`RECORD_DTYPE` with ``rid`` equal to
        each key's index in ``keys``.
    """
    keys = np.asarray(keys)
    if keys.ndim != 1:
        raise ValueError(f"keys must be 1-D, got shape {keys.shape}")
    out = np.empty(keys.shape[0], dtype=RECORD_DTYPE)
    out["key"] = keys.astype(np.uint64, copy=False)
    out["rid"] = np.arange(keys.shape[0], dtype=np.uint64)
    return out


def empty_records(n: int) -> np.ndarray:
    """Allocate an uninitialized record array of length ``n``."""
    return np.empty(n, dtype=RECORD_DTYPE)


def composite_keys(records: np.ndarray) -> np.ndarray:
    """Pack ``(key, rid)`` into a single uint64 for fast comparisons.

    Only valid when ``rid < 2**24`` and ``key < 2**40`` — the workload
    generators in :mod:`repro.workloads` stay inside this range.  The packing
    preserves lexicographic order of ``(key, rid)``.
    """
    key = records["key"]
    rid = records["rid"]
    if key.size and int(key.max()) >= (1 << (64 - _RID_BITS)):
        raise ValueError("keys too large to pack with rid tie-break")
    if rid.size and int(rid.max()) >= (1 << _RID_BITS):
        raise ValueError("rid too large to pack (input longer than 2**24?)")
    return (key << np.uint64(_RID_BITS)) | (rid & _RID_MASK)


def argsort_records(records: np.ndarray) -> np.ndarray:
    """Indices that sort ``records`` by ``(key, rid)`` lexicographically."""
    # np.lexsort sorts by the *last* key first.
    return np.lexsort((records["rid"], records["key"]))


def sort_records(records: np.ndarray) -> np.ndarray:
    """Return a new record array sorted by ``(key, rid)``."""
    return records[argsort_records(records)]


def merge_records(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Merge two record arrays that are each sorted by ``(key, rid)``."""
    if a.size == 0:
        return b.copy()
    if b.size == 0:
        return a.copy()
    ka = composite_keys(a)
    kb = composite_keys(b)
    out = np.empty(a.size + b.size, dtype=RECORD_DTYPE)
    # positions of b's elements within the merged output
    pos_b = np.searchsorted(ka, kb, side="left") + np.arange(b.size)
    mask = np.zeros(out.size, dtype=bool)
    mask[pos_b] = True
    out[mask] = b
    out[~mask] = a
    return out


def searchsorted_records(sorted_records: np.ndarray, probes: np.ndarray) -> np.ndarray:
    """``np.searchsorted`` on the composite (key, rid) order."""
    return np.searchsorted(
        composite_keys(sorted_records), composite_keys(probes), side="left"
    )


#: Sentinel key/rid marking padding records in partially filled blocks.
PAD_KEY = np.uint64(np.iinfo(np.uint64).max)


def pad_records(records: np.ndarray, multiple: int) -> np.ndarray:
    """Pad with sentinel records up to a (non-zero) multiple of ``multiple``."""
    n = records.shape[0]
    rem = n % multiple
    if rem == 0 and n > 0:
        return records
    pad_n = multiple - rem if n > 0 else multiple
    out = np.empty(n + pad_n, dtype=RECORD_DTYPE)
    out[:n] = records
    out[n:]["key"] = PAD_KEY
    out[n:]["rid"] = PAD_KEY
    return out


def real_records_mask(records: np.ndarray) -> np.ndarray:
    """Boolean mask: True for every record that is not sentinel padding."""
    return ~((records["key"] == PAD_KEY) & (records["rid"] == PAD_KEY))


def strip_pad_records(records: np.ndarray) -> np.ndarray:
    """Remove sentinel padding records."""
    return records[real_records_mask(records)]


def concat_records(parts) -> np.ndarray:
    """Concatenate record arrays without ``np.concatenate``'s dtype work.

    ``np.concatenate`` on structured arrays routes through NumPy's field
    promotion machinery (``_promote_fields``), which costs microseconds per
    call — material on the simulators' hot paths where tens of thousands of
    tiny batches are merged.  A preallocated ``np.empty`` plus slice
    assignment produces the byte-identical result for free.  Always returns
    a fresh array (even for a single part), matching ``np.concatenate``.
    """
    parts = list(parts)
    if not parts:
        return np.empty(0, dtype=RECORD_DTYPE)
    total = 0
    for p in parts:
        total += p.shape[0]
    out = np.empty(total, dtype=RECORD_DTYPE)
    pos = 0
    for p in parts:
        n = p.shape[0]
        out[pos : pos + n] = p
        pos += n
    return out


def records_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """True when two record arrays are elementwise identical."""
    return bool(
        a.shape == b.shape
        and np.array_equal(a["key"], b["key"])
        and np.array_equal(a["rid"], b["rid"])
    )
