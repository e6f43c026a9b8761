"""Run abstractions: how datasets live on a balance-storage backend.

Both Balance Sort variants (disks, Section 5; hierarchies, Section 4) view a
dataset as a collection of *virtual blocks* on the backend's channels, each
tracked as a :class:`~repro.core.balance.BlockRef` (address + true record
count, so padded tails never need reading to be accounted):

* an :class:`OrderedRun` has a defined logical order (block 0's records
  precede block 1's ...) — the shape of the initial input, of sorted
  outputs, and of the sorted groups Algorithm 2 produces.  Blocks are laid
  round-robin across channels, so streaming it costs one parallel step per
  ``H'`` blocks (full bandwidth).
* a :class:`~repro.core.balance.BucketRun` is a bucket's unordered
  per-channel chains — the location-matrix view.  Streaming it takes
  ``max_blocks_on_channel`` parallel reads, the quantity Theorem 4 bounds.

Both go through ``read_run_batches``: a generator of record chunks, each
charged as one parallel read, padding stripped and the memory ledger
adjusted.

Plan/execute split
------------------
Streaming is structured as **plan then execute**: the pure round planner
(:func:`plan_read_rounds`, built on the ``stream_batches`` kernel) turns a
run into its exact sequence of parallel-read rounds without touching
storage, and the executor either performs them round-at-a-time (the
classic path — hierarchy backends, fault/checksum runs) or, when the
backend has an active I/O plan (``storage.io_plan_window > 1``), gathers
whole windows of future rounds in one physical store pass and charges
each logical round at its yield point.  Counters, trace events, ledger
trajectory, and yielded records are bit-identical either way — only the
number of physical store calls changes.

Padding is stripped once per gather window, and a caller may hand the
whole window to a hook (``read_run_batches(..., window_map=...)``): the
distribute loops pass :meth:`~repro.core.balance.BalanceEngine.feed`, so
the Balance engine groups a window of tracks in one pass.  The classic
path is a window of one round.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import ParameterError
from ..records import (
    RECORD_DTYPE,
    concat_records,
    pad_records,
    real_records_mask,
    strip_pad_records,
)
from .balance import BlockRef, BucketRun
from .kernels import stream_batches

__all__ = [
    "OrderedRun",
    "as_ordered_run",
    "load_ordered_run",
    "write_ordered_run",
    "plan_read_rounds",
    "read_run_batches",
    "read_run_all",
    "reposition_run",
    "peek_run",
    "concat_runs",
]


@dataclass
class OrderedRun:
    """A dataset with a defined logical block order on a storage backend."""

    blocks: list  # BlockRefs in logical order; address.vdisk is the channel
    n_records: int

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    def slice_blocks(self, start: int, stop: int) -> "OrderedRun":
        """A sub-run over blocks [start, stop); record count from the fills."""
        blocks = self.blocks[start:stop]
        return OrderedRun(blocks=blocks, n_records=sum(r.fill for r in blocks))


def as_ordered_run(run) -> OrderedRun:
    """View any run as an OrderedRun (bucket chains flatten in chain order)."""
    if isinstance(run, OrderedRun):
        return run
    if isinstance(run, BucketRun):
        return OrderedRun(blocks=run.block_refs(), n_records=run.n_records)
    raise ParameterError(f"unknown run type {type(run).__name__}")


def _round_robin_matrix(storage, records: np.ndarray, start_channel: int = 0):
    """Split records into a block matrix, channel ``(i + start) mod H'``.

    Returns ``(matrix, channels, fills, n_pad)`` where ``matrix`` is the
    padded input viewed as ``(n_blocks, virtual_block_size)`` — a reshape,
    not a copy — so writers can push whole batches without per-block
    slicing.
    """
    vb = storage.virtual_block_size
    padded = pad_records(records, vb)
    n_blocks = padded.shape[0] // vb
    matrix = padded.reshape(n_blocks, vb)
    channels = (np.arange(n_blocks, dtype=np.int64) + start_channel) % storage.n_virtual
    n = records.shape[0]
    fills = np.minimum(vb, np.maximum(0, n - np.arange(n_blocks) * vb)).tolist()
    return matrix, channels, fills, padded.shape[0] - n


def load_ordered_run(storage, records: np.ndarray) -> OrderedRun:
    """Place input on the backend without cost (the problem's given state)."""
    matrix, channels, fills, _ = _round_robin_matrix(storage, records)
    items = [(int(c), matrix[i]) for i, c in enumerate(channels.tolist())]
    addresses = storage.load_initial(items)
    blocks = [BlockRef(a, f) for a, f in zip(addresses, fills)]
    return OrderedRun(blocks=blocks, n_records=int(records.shape[0]))


def write_ordered_run(
    storage, records: np.ndarray, start_channel: int = 0, park: bool = False
) -> OrderedRun:
    """Write in-memory records out as a round-robin run (charged).

    Issues one parallel write per ``H'`` blocks — each a single batched
    ``parallel_write_arr`` over a view of the padded input, so no
    per-block copies happen above the storage layer.  On a ledgered
    backend the records must already be held in memory (padding is
    acquired here).  ``start_channel`` staggers the round-robin phase —
    runs that will later be merged in lockstep (Greed Sort) must not all
    place their k-th block on the same disk.  ``park`` requests
    out-of-the-front placement on hierarchy backends (sorted outputs;
    see :func:`reposition_run`).
    """
    matrix, channels, fills, n_pad = _round_robin_matrix(storage, records, start_channel)
    storage.acquire_memory(n_pad)
    blocks = []
    hp = storage.n_virtual
    for i in range(0, matrix.shape[0], hp):
        addresses = storage.parallel_write_arr(
            channels[i : i + hp], matrix[i : i + hp], park=park
        )
        blocks.extend(
            BlockRef(a, f) for a, f in zip(addresses, fills[i : i + hp])
        )
    return OrderedRun(blocks=blocks, n_records=int(records.shape[0]))


def plan_read_rounds(storage, run) -> list[list[BlockRef]]:
    """The round planner: a run's exact parallel-read schedule, no I/O.

    Pure bookkeeping over the run's structure — each returned entry is
    one contention-free parallel read round (``≤ 1`` block per channel),
    exactly the rounds the classic streaming loops performed:

    * :class:`OrderedRun` — greedy batching of consecutive blocks until
      a channel repeats (the ``stream_batches`` kernel);
    * :class:`~repro.core.balance.BucketRun` — one round per chain
      depth, the head of every non-exhausted chain (Theorem 4's
      ``max_blocks_on_channel`` rounds).
    """
    if isinstance(run, BucketRun):
        depth = run.max_blocks_on_channel
        return [
            [chain[i] for chain in run.chains if len(chain) > i]
            for i in range(depth)
        ]
    if not isinstance(run, OrderedRun):
        raise ParameterError(f"unknown run type {type(run).__name__}")
    blocks = run.blocks
    if not blocks:
        return []
    channels = [r.address.vdisk for r in blocks]
    bounds = stream_batches(channels, storage.n_virtual)
    return [blocks[bounds[i]: bounds[i + 1]] for i in range(len(bounds) - 1)]


def _execute_windows(storage, rounds, free):
    """Yield ``(window_rounds, matrix, fused)`` per gather window.

    With an active I/O plan on the backend (``storage.io_plan_window >
    1``) whole windows of future rounds are gathered in one physical
    store pass, uncharged (``fused``): the caller charges each round
    (fault hook, ledger, stats, obs event —
    :meth:`~repro.pdm.striping.VirtualDisks.charge_read_round`) at its
    yield point, preserving the logical schedule bit-for-bit.  Otherwise
    every round is its own window: one classic, charged
    ``parallel_read_arr`` call.
    """
    window = getattr(storage, "io_plan_window", 0)
    if window > 1 and len(rounds) > 1:
        for lo in range(0, len(rounds), window):
            chunk = rounds[lo: lo + window]
            matrix = storage.gather_rounds_arr(
                [[r.address for r in refs] for refs in chunk], free=free
            )
            yield chunk, matrix, True
    else:
        for refs in rounds:
            yield [refs], storage.parallel_read_arr(
                [r.address for r in refs], free=free
            ), False


def _strip_window(flat, sizes, promised):
    """Drop a window's padding: ``(records, per-round record counts)``.

    Fills are authoritative: a round whose fills promise full blocks is
    kept as read (padding only ever sits at block tails), and only the
    other rounds are filtered by the PAD mask — so a corrupted fill
    surfaces in the caller's per-round guard.
    """
    if promised == sizes:
        return flat, sizes
    keep = real_records_mask(flat)
    trusted = [p == s for p, s in zip(promised, sizes)]
    if any(trusted):
        keep |= np.repeat(trusted, sizes)
    kept = np.cumsum(keep)[np.cumsum(sizes) - 1]
    return flat[keep], np.diff(kept, prepend=0).tolist()


def read_run_batches(storage, run, free: bool = False, window_map=None):
    """Stream any run back as record chunks, one parallel read per chunk.

    Each yielded chunk corresponds to exactly one charged parallel read
    (physical gathers may be fused across rounds — see
    :func:`plan_read_rounds` / :func:`_execute_windows`).  Chunks may be
    views of a shared gather buffer: hold them as long as needed, but do
    not mutate them in place.

    ``window_map`` — optionally, a per-window hook called as
    ``window_map(records, tracks=counts)`` with each gather window's
    pad-stripped records and its per-round record counts, returning one
    result per round (:meth:`repro.core.balance.BalanceEngine.feed` is
    the intended hook).  The generator then yields ``(chunk, result)``
    pairs.  The hook runs once per window, before the window's first
    round is charged; each round's charge, fill check and ledger release
    still happen at its own yield point.
    """
    strict = not isinstance(run, BucketRun)
    rounds = plan_read_rounds(storage, run)
    remaining = run.n_records
    for chunk, matrix, fused in _execute_windows(storage, rounds, free):
        vb = matrix.shape[1]
        sizes = [len(refs) * vb for refs in chunk]
        promised = [sum(r.fill for r in refs) for refs in chunk]
        records, counts = _strip_window(matrix.reshape(-1), sizes, promised)
        mapped = None if window_map is None else window_map(records, tracks=counts)
        offset = 0
        for i, refs in enumerate(chunk):
            if fused:
                storage.charge_read_round(len(refs))
            n = counts[i]
            if promised[i] != sizes[i]:
                if strict and n != promised[i]:
                    raise ParameterError(
                        f"block fill bookkeeping error: read {n} records, "
                        f"refs promised {promised[i]}"
                    )
                if n != sizes[i]:
                    storage.release_memory(sizes[i] - n)
            trimmed = records[offset: offset + n]
            offset += n
            remaining -= n
            if window_map is None:
                yield trimmed
            else:
                yield trimmed, mapped[i]
    if strict and remaining != 0:
        raise ParameterError(
            f"run bookkeeping error: {remaining} records unaccounted for"
        )


def read_run_all(storage, run, free: bool = False) -> np.ndarray:
    """Materialize a whole run in memory (base cases; N must fit)."""
    chunks = list(read_run_batches(storage, run, free=free))
    if not chunks:
        return np.empty(0, dtype=RECORD_DTYPE)
    return concat_records(chunks)


def reposition_run(storage, run) -> OrderedRun:
    """Rewrite a run into the lowest free addresses (one read+write stream).

    Section 4.4's bucket repositioning, made operational for every
    hierarchy model: after a distribution pass the bucket's blocks sit at
    high (expensive) addresses; the recursion is only charged its own
    subproblem's footprint if the data first moves to the front.  The freed
    source addresses recycle lowest-first, so the rewritten run occupies
    ``[0, N_b/(H'·VB))`` per channel.  Costs one streamed read plus one
    streamed write — within the constant factor the paper's recurrences
    allow (for P-BT it is the generalized-transposition step of [ACSa]).
    """
    blocks = []
    total = 0
    start = 0
    hp = storage.n_virtual
    pending: list[np.ndarray] = []
    pending_n = 0
    vb = storage.virtual_block_size

    def flush(final=False):
        nonlocal pending, pending_n, start, total
        if pending_n == 0:
            return
        width = hp * vb
        take = pending_n if final else (pending_n // width) * width
        if take == 0:
            return
        data = concat_records(pending) if len(pending) > 1 else pending[0]
        head, tail = data[:take], data[take:]
        written = write_ordered_run(storage, head, start_channel=start)
        blocks.extend(written.blocks)
        start = (start + len(written.blocks)) % hp
        total += head.shape[0]
        pending = [tail] if tail.size else []
        pending_n = int(tail.shape[0]) if tail.size else 0

    for chunk in read_run_batches(storage, run, free=True):
        pending.append(chunk)
        pending_n += chunk.shape[0]
        flush()
    flush(final=True)
    return OrderedRun(blocks=blocks, n_records=total)


def peek_run(storage, run) -> np.ndarray:
    """Materialize a run without I/O charges or ledger effects (validation).

    Works on both run types; an :class:`OrderedRun` comes back in logical
    order, a bucket run in chain order.
    """
    refs = as_ordered_run(run).blocks
    if not refs:
        return np.empty(0, dtype=RECORD_DTYPE)
    return strip_pad_records(storage.peek_many([r.address for r in refs]).reshape(-1))


def concat_runs(runs: list[OrderedRun]) -> OrderedRun:
    """Concatenate sorted runs whose records are in increasing order.

    Padding mid-run (each sub-run's final block) is harmless: readers strip
    padding per block and the BlockRef fills keep the counts exact.
    """
    blocks = []
    total = 0
    for r in runs:
        blocks.extend(r.blocks)
        total += r.n_records
    return OrderedRun(blocks=blocks, n_records=total)
