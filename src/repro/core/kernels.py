"""Compute kernels for the Balance-engine hot paths.

The per-round bookkeeping of the Balance engine (Algorithm 3) and the
conflict-resolution step of the matchers (Algorithm 7, step 2) were
originally written as straightforward per-bucket / per-vertex Python
loops.  Those loops are exactly the "CPU work" the paper charges to its
PRAM — simulating them record-by-record in Python is where the wall-clock
of large grid sweeps goes.  This module holds their NumPy formulations,
one implementation each; the original loops live on under ``tests/`` as
the reference oracle every kernel is required to match bit for bit.

``tail_blocks``
    Slice a bucket's padded tail into (block, fill) pairs at flush time.
``resolve_conflicts``
    Algorithm 7 step 2 — smallest-numbered ``u`` wins each contested
    ``v``.
``stream_batches``
    The round planner: split an ordered run's per-block channel sequence
    into maximal contention-free parallel-read rounds (greedy
    until-a-channel-repeats batching).  Planned rounds are what the fused
    gather executor (:func:`repro.core.streams.read_run_batches`) prefetches.
``ROUND_OPS``
    The incremental matrices bookkeeping in C
    (:class:`repro._speedups.RoundOps`) when the optional extension is
    built (``python setup.py build_ext --inplace``), else ``None``.  The
    Balance engine attaches it whenever it is present; it is bit-identical
    to the pure path, which ``tests/test_compiled_differential.py`` gates
    on whole payloads.

(Grouping a track's records by bucket and cutting them into virtual
blocks is not a kernel: ``BalanceEngine.feed`` does it for a whole
gather window in one NumPy pass.)
"""

from __future__ import annotations

import numpy as np

try:  # the optional C extension (setup.py build_ext --inplace)
    from .._speedups import RoundOps as ROUND_OPS
except ImportError:  # pure-Python install: the engine keeps its own upkeep
    ROUND_OPS = None

__all__ = [
    "ROUND_OPS",
    "default_backend_name",
    "resolve_conflicts",
    "stream_batches",
    "tail_blocks",
]


def default_backend_name() -> str:
    """Which round path runs: ``"compiled"`` when :data:`ROUND_OPS` is
    the C extension's, else ``"vectorized"``."""
    return "vectorized" if ROUND_OPS is None else "compiled"


def tail_blocks(padded, true_n, vb):
    """Slice a padded tail into ``(block, fill)`` pairs in order."""
    starts = np.arange(0, padded.shape[0], vb)
    fills = np.clip(true_n - starts, 0, vb)
    return [
        (padded[s : s + vb], int(f))
        for s, f in zip(starts.tolist(), fills.tolist())
    ]


def resolve_conflicts(u_channels, picks):
    """Algorithm 7 step 2: smallest-numbered ``u`` wins each ``v``.

    ``picks[i]`` is vertex ``i``'s picked channel (−1 = no pick);
    returns ``[(u_channel, v), ...]`` ordered by vertex index.
    """
    valid = np.nonzero(picks >= 0)[0]
    if valid.size == 0:
        return []
    vs = picks[valid]
    # np.unique's return_index is the *first* occurrence of each value
    # in `vs`; first occurrence == smallest vertex index because
    # `valid` is ascending.  Re-sorting the kept indices restores the
    # output order by vertex index.
    _, first = np.unique(vs, return_index=True)
    keep = np.sort(first)
    return [
        (u_channels[int(valid[i])], int(vs[i]))
        for i in keep.tolist()
    ]


def stream_batches(channels, n_virtual):
    """Greedy contention-free round boundaries over a channel sequence.

    ``channels`` is each block's channel in logical order; a round
    extends while its channels stay distinct and closes at the first
    repeat.  Returns the boundary list ``[0, b1, ..., len(channels)]``
    (round ``i`` spans ``[bounds[i], bounds[i+1])``); ``[0]`` for an
    empty sequence.

    The dominant layout (round-robin runs from ``write_ordered_run`` /
    ``load_ordered_run``) makes every aligned ``H'``-wide window a
    permutation of all ``H'`` channels — then each greedy round is
    exactly that window (a full palette forces the next channel to
    repeat), so the boundaries are just the aligned strides.  The
    permutation test is two vectorized comparisons; any other layout
    (e.g. concatenated sub-runs with phase breaks) takes the greedy loop.
    """
    n = len(channels)
    if n == 0:
        return [0]
    h = int(n_virtual)
    if h > 1 and n >= h:
        arr = np.asarray(channels, dtype=np.int64)
        full = (n // h) * h
        windows = arr[:full].reshape(-1, h)
        ok = bool(
            (np.sort(windows, axis=1) == np.arange(h, dtype=np.int64)).all()
        )
        if ok and full < n:
            tail = arr[full:]
            ok = np.unique(tail).size == tail.size
        if ok:
            bounds = list(range(0, n, h))
            bounds.append(n)
            return bounds
    bounds = [0]
    seen: set[int] = set()
    for i, c in enumerate(channels):
        if c in seen:
            bounds.append(i)
            seen = {c}
        else:
            seen.add(c)
    bounds.append(n)
    return bounds
