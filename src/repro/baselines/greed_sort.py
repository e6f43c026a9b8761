"""Greed Sort — Nodine & Vitter's earlier deterministic PDM sort [NoV].

Section 1: "An affirmative answer [to deterministic optimality] was provided
by Nodine and Vitter using an algorithm based on merge sort called Greed
Sort.  Unfortunately, the Greed Sort technique does not seem to yield
optimal sorting bounds on memory hierarchies."

Greed Sort is an R-way merge over *independent* (non-striped) disks whose
signature move is the greedy read schedule: in each parallel I/O, every
disk independently supplies the block most needed by the merge — the block
belonging to the run that is closest to starving.  That schedule is what
lets a merge-based algorithm use all D disks at once without striping and
match the distribution-sort I/O bound on the PDM.

This implementation keeps the greedy per-disk scheduling, the independent-
disk layout, and the R = Θ(M/B) fan-in operationally (every block motion
is a machine I/O under the one-block-per-disk rule), in two flavours:

* ``mode="exact"`` (default) — a forecasted safe-boundary merge whose
  output is exactly sorted per pass; per-run multi-block claims keep wide
  arrays busy;
* ``mode="approximate"`` — the original NoV pipeline shape: emit full
  stripes of the smallest buffered records without waiting for laggards,
  then repair the bounded displacement with a sliding-window cleanup pass.
  The original's displacement bound relies on their precise schedule and
  columnsort-style cleanup, which we do not replicate; our cleanup window
  adapts (doubling within memory) and, if a group's displacement still
  exceeds it, that group deterministically falls back to the exact merge —
  the wasted approximate I/Os stay counted and the fallback is reported in
  ``GreedSortResult.cleanup_fallbacks``.  DESIGN.md §2 records the
  substitution.

The E3 benchmark shows the paper's comparison: Greed Sort matches Balance
Sort's I/O order on disks, while only Balance Sort generalizes to the
hierarchy models.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import ParameterError
from ..pdm.machine import ParallelDiskMachine
from ..pdm.striping import VirtualDisks
from ..pram.sorting import cole_merge_sort
from ..records import composite_keys, concat_records
from ..core.streams import (
    OrderedRun,
    load_ordered_run,
    read_run_batches,
    write_ordered_run,
)

__all__ = ["greed_sort", "GreedSortResult"]

#: Max buffered blocks per input run during a merge (forecast lookahead).
RUN_BUFFER_BLOCKS = 2


@dataclass
class GreedSortResult:
    output: OrderedRun
    n_records: int
    io_stats: dict
    cpu: dict
    storage: object
    fan_in: int
    merge_passes: int
    cleanup_fallbacks: int = 0

    @property
    def total_ios(self) -> int:
        return self.io_stats["total_ios"]


def greed_sort(
    machine: ParallelDiskMachine,
    records: np.ndarray | None = None,
    *,
    run: OrderedRun | None = None,
    fan_in: int | None = None,
    mode: str = "exact",
) -> GreedSortResult:
    """Merge sort with greedy per-disk scheduling on independent disks.

    ``mode="exact"`` (default) uses the forecasted safe-boundary merge: the
    output of every pass is exactly sorted, at the price of occasional
    read stalls when a starving run gates emission.  ``mode="approximate"``
    follows the original Greed Sort structure: each pass emits a full
    stripe of the smallest *buffered* records per I/O regardless of
    starving runs — producing an approximately sorted run with bounded
    displacement — and a windowed cleanup pass restores exact order
    (NoV's approximate-merge-then-fix pipeline, with our columnsort-free
    sliding-window cleanup; DESIGN.md §2).
    """
    if mode not in ("exact", "approximate"):
        raise ParameterError(f"mode must be 'exact' or 'approximate', got {mode!r}")
    storage = VirtualDisks(machine, machine.D)  # independent disks: VB = B
    if (records is None) == (run is None):
        raise ParameterError("provide exactly one of records / run")
    if run is None:
        run = load_ordered_run(storage, records)
    n = run.n_records
    b = machine.B
    # Reserve a full-width output buffer; pick the fan-in so every input run
    # can buffer ~4 blocks (the forecast lookahead that keeps all D disks
    # busy), halving it from the bare-minimum 1-block-per-run fan-in.
    budget = machine.M - 2 * machine.D * b
    # Fan-in: high enough to keep merge passes few, low enough that each
    # run can look ahead ~D/2 blocks (otherwise wide arrays idle while the
    # exact merge waits on one starving run — see the E3 notes).
    r = fan_in or max(
        2,
        min(
            budget // (2 * (RUN_BUFFER_BLOCKS + 1) * b),
            budget // ((machine.D // 2 + 1) * b),
        ),
    )
    # Global lookahead budget (in blocks) shared by all runs of a merge,
    # with one reserved block per run so a starving run can always refill.
    cap = max(r + machine.D, budget // b - r)
    if r < 2 or budget <= 0:
        raise ParameterError(f"machine too small for greed sort (M={machine.M}, B={b}, D={machine.D})")
    if fan_in and (r + 1) * b > machine.M:
        raise ParameterError(f"fan-in {fan_in} cannot buffer one block per run in M={machine.M}")

    # --- run formation ----------------------------------------------------
    load_size = machine.M - machine.D * b
    runs: list[OrderedRun] = []
    buffer, buffered = [], 0

    def emit(chunks, size):
        if size == 0:
            return
        load = concat_records(chunks) if len(chunks) > 1 else chunks[0]
        # Stagger each run's round-robin phase so lockstep merging does not
        # ask every run for a block on the same disk (NoV's layout).
        runs.append(
            write_ordered_run(
                storage, cole_merge_sort(machine.cpu, load), start_channel=len(runs)
            )
        )

    for chunk in read_run_batches(storage, run, free=True):
        buffer.append(chunk)
        buffered += chunk.shape[0]
        if buffered >= load_size:
            emit(buffer, buffered)
            buffer, buffered = [], 0
    emit(buffer, buffered)
    if not runs:
        return GreedSortResult(
            output=OrderedRun(blocks=[], n_records=0), n_records=0,
            io_stats=machine.stats.snapshot(), cpu=machine.cpu.snapshot(),
            storage=storage, fan_in=r, merge_passes=0,
        )

    # --- greedy merge passes ----------------------------------------------
    passes = 0
    cleanup_fallbacks = 0
    while len(runs) > 1:
        passes += 1
        merged = []
        for i in range(0, len(runs), r):
            group = runs[i : i + r]
            if mode == "approximate" and len(group) > 1:
                from ..exceptions import InvariantViolation

                approx = _approximate_merge(
                    machine, storage, group, stagger=len(merged), free_source=False
                )
                try:
                    cleaned = _adaptive_cleanup(
                        machine, storage, approx, len(group) * b,
                        stagger=len(merged),
                    )
                except InvariantViolation:
                    # Displacement exceeded what memory can absorb: discard
                    # the approximate output (its I/Os were really spent and
                    # stay counted) and redo this group with the exact merge
                    # — deterministic and always correct.
                    storage.free_arr([ref.address for ref in approx.blocks])
                    cleanup_fallbacks += 1
                    merged.append(
                        _greedy_merge(
                            machine, storage, group, stagger=len(merged), cap=cap,
                        )
                    )
                else:
                    for source in group:
                        storage.free_arr([ref.address for ref in source.blocks])
                    merged.append(cleaned)
            else:
                merged.append(
                    _greedy_merge(
                        machine, storage, group, stagger=len(merged), cap=cap,
                    )
                )
        runs = merged
    return GreedSortResult(
        output=runs[0], n_records=n, io_stats=machine.stats.snapshot(),
        cpu=machine.cpu.snapshot(), storage=storage, fan_in=r, merge_passes=passes,
        cleanup_fallbacks=cleanup_fallbacks,
    )


class _RunCursor:
    """Progress through one input run: buffered records + unread block list."""

    def __init__(self, run: OrderedRun):
        self.pending = list(run.blocks)  # unread BlockRefs, logical order
        self.buffer = None  # np record array or None
        self.buffered_blocks = 0

    @property
    def live(self) -> bool:
        return bool(self.pending) or (self.buffer is not None and self.buffer.size > 0)

    def next_channel(self):
        return self.pending[0].address.vdisk if self.pending else None

    def urgency(self):
        """Merge priority: empty buffer is starving; else last buffered key."""
        if self.buffer is None or self.buffer.size == 0:
            return -1
        return int(composite_keys(self.buffer)[-1])


def _greedy_merge(
    machine, storage, in_runs: list[OrderedRun], stagger: int = 0,
    cap: int = RUN_BUFFER_BLOCKS,
) -> OrderedRun:
    if len(in_runs) == 1:
        return in_runs[0]
    from ..records import strip_pad_records

    cursors = [_RunCursor(rn) for rn in in_runs]
    total = sum(rn.n_records for rn in in_runs)
    machine.cpu.charge(
        work=total * max(1, (len(in_runs) - 1).bit_length()),
        depth=max(1, total.bit_length()),
        label="greed-merge",
    )

    out_parts: list[np.ndarray] = []
    out_blocks = []
    out_count = 0
    vb = storage.virtual_block_size

    full_width = vb * storage.n_virtual

    def flush_output(final=False):
        nonlocal out_parts, out_count
        if not out_parts:
            return
        data = concat_records(out_parts)
        # Write only in full-machine-width batches so every output I/O uses
        # all D disks (tiny trickle writes would serialize the array).
        if not final and data.shape[0] < full_width:
            out_parts = [data]
            return
        cut = data.shape[0] if final else (data.shape[0] // vb) * vb
        if cut == 0:
            out_parts = [data]
            return
        # continue this run's round-robin phase across flushes
        written = write_ordered_run(
            storage, data[:cut], start_channel=stagger + len(out_blocks)
        )
        out_blocks.extend(written.blocks)
        out_count += cut
        out_parts = [data[cut:]] if cut < data.shape[0] else []

    total_buffered = 0
    while any(c.live for c in cursors):
        # --- greedy read: each disk supplies the most-starving run's block.
        # Non-starving runs may prefetch only while the shared lookahead
        # budget has room; a starving (empty-buffer) run may always read —
        # that headroom is what makes emission progress unconditional.
        # Runs are served most-urgent-first (starving runs ahead of all);
        # each run may claim several of its *consecutive* next blocks in one
        # I/O — a run's blocks sit on consecutive disks (round-robin), so a
        # freshly drained run refills at near-full width.
        room = max(0, cap - total_buffered)
        claims: list[tuple[_RunCursor, int]] = []  # (cursor, how many blocks)
        claimed_channels: set[int] = set()
        for c in sorted((c for c in cursors if c.pending), key=_RunCursor.urgency):
            starving = c.buffer is None or c.buffer.size == 0
            # a starving run may take one block even when over budget
            max_take = max(1, room) if starving else room
            max_take = min(max_take, len(c.pending))
            k = 0
            while k < max_take and c.pending[k].address.vdisk not in claimed_channels:
                claimed_channels.add(c.pending[k].address.vdisk)
                k += 1
            if k:
                claims.append((c, k))
                room -= k
        if claims:
            refs = [c.pending[i] for c, k in claims for i in range(k)]
            addresses = [r.address for r in refs]
            blocks = storage.gather_rounds_arr([addresses], free=True)
            storage.charge_read_round(addresses, free=True)
            bi = 0
            for c, k in claims:
                parts = [] if c.buffer is None or c.buffer.size == 0 else [c.buffer]
                for _ in range(k):
                    c.pending.pop(0)
                    block = strip_pad_records(blocks[bi])
                    bi += 1
                    n_pad = vb - block.shape[0]
                    if n_pad:
                        storage.release_memory(n_pad)
                    parts.append(block)
                c.buffer = parts[0] if len(parts) == 1 else concat_records(parts)
                c.buffered_blocks += k
                total_buffered += k

        # --- emit the safe prefix -----------------------------------------
        live = [c for c in cursors if c.live]
        if not live:
            break
        if any(c.buffer is None or c.buffer.size == 0 for c in live):
            continue  # a starving run blocks emission; keep reading
        # Keep the boundary in uint64: mixing a Python int into uint64
        # comparisons makes NumPy promote to float64, which cannot represent
        # 62-bit composite keys exactly.
        boundary = np.uint64(min(int(composite_keys(c.buffer)[-1]) for c in live))
        emit_parts = []
        for c in live:
            ck = composite_keys(c.buffer)
            cut = int(np.searchsorted(ck, boundary, side="right"))
            if cut:
                emit_parts.append(c.buffer[:cut])
                c.buffer = c.buffer[cut:]
                total_buffered -= c.buffered_blocks
                c.buffered_blocks = -(-int(c.buffer.shape[0]) // vb)
                total_buffered += c.buffered_blocks
        block = concat_records(emit_parts)
        out_parts.append(block[np.argsort(composite_keys(block), kind="stable")])
        flush_output()
    flush_output(final=True)
    return OrderedRun(blocks=out_blocks, n_records=out_count)


def _approximate_merge(
    machine, storage, in_runs: list[OrderedRun], stagger: int = 0,
    free_source: bool = True,
) -> OrderedRun:
    """The original Greed Sort move: merge approximately, at full bandwidth.

    Per iteration one parallel read fetches, from every disk that has one,
    the most promising unread block (smallest forecast = the reading run's
    last-seen key), and one parallel write emits a full stripe of the
    smallest *buffered* records — even if a lagging run still holds smaller
    unread keys.  No stalls, so wide arrays stay busy; the price is bounded
    displacement in the output, which :func:`_cleanup_pass` removes.
    """
    from ..records import strip_pad_records

    vb = storage.virtual_block_size
    width = vb * storage.n_virtual  # records per full-stripe write
    cursors = [_RunCursor(rn) for rn in in_runs]
    total = sum(rn.n_records for rn in in_runs)
    machine.cpu.charge(
        work=total * max(1, (len(in_runs) - 1).bit_length()),
        depth=max(1, total.bit_length()),
        label="greed-approx-merge",
    )

    buffered: list[np.ndarray] = []
    buffered_n = 0
    out_blocks = []
    out_count = 0
    # keep total buffering within M/2: reads pause when the merge runs ahead
    buffer_cap = max(2 * width, machine.M // 2)

    def emit_stripe(limit_key: int | None, force: bool, final: bool = False) -> None:
        """Write out buffered records: the safe prefix (≤ limit_key), padded
        to full stripes by force-emitting under memory pressure."""
        nonlocal buffered, buffered_n, out_count
        if buffered_n == 0:
            return
        data = concat_records(buffered) if len(buffered) > 1 else buffered[0]
        data = data[np.argsort(composite_keys(data), kind="stable")]
        if final:
            take = buffered_n
        else:
            ck = composite_keys(data)
            safe = int(np.searchsorted(ck, np.uint64(limit_key), side="right")) if limit_key is not None else 0
            take = (safe // width) * width
            if take == 0 and force:
                take = min(width, buffered_n)  # forced: displacement risk
        if take == 0:
            buffered = [data]
            buffered_n = int(data.shape[0])
            return
        head, tail = data[:take], data[take:]
        written = write_ordered_run(
            storage, head, start_channel=stagger + len(out_blocks)
        )
        out_blocks.extend(written.blocks)
        out_count += head.shape[0]
        buffered = [tail] if tail.size else []
        buffered_n = int(tail.shape[0])

    while any(c.live for c in cursors) or buffered_n:
        # --- read phase: one block per disk, by forecast urgency ----------
        # (forecast = the run's last key seen so far; its buffered records
        # move straight to the shared pool, so the forecast lives on _last)
        # Most-urgent-first, multi-block claims: a run whose blocks sit on
        # consecutive disks (round-robin layout) may fetch several in one
        # I/O — essential when fewer runs than disks remain, or the
        # laggard's input rate cannot keep up with the output stripe.
        # Over budget only *unwarmed* runs read (one block each): emission
        # cannot start until every run has contributed its first block, so
        # those reads must never be gated by the pool.
        over_budget = buffered_n >= buffer_cap
        if True:
            claims: list[tuple[_RunCursor, int]] = []
            claimed: set[int] = set()
            for c in sorted(
                (c for c in cursors if c.pending),
                key=lambda c: getattr(c, "_last", -1),
            ):
                unwarmed = not hasattr(c, "_last")
                if over_budget and not unwarmed:
                    continue
                max_k = 1 if (over_budget or unwarmed) else len(c.pending)
                k = 0
                while (
                    k < min(max_k, len(c.pending))
                    and c.pending[k].address.vdisk not in claimed
                ):
                    claimed.add(c.pending[k].address.vdisk)
                    k += 1
                if k:
                    claims.append((c, k))
            if claims:
                refs = [c.pending[i] for c, k in claims for i in range(k)]
                addresses = [ref.address for ref in refs]
                blocks = storage.gather_rounds_arr([addresses], free=free_source)
                storage.charge_read_round(addresses, free=free_source)
                bi = 0
                for c, k in claims:
                    parts = [] if c.buffer is None or c.buffer.size == 0 else [c.buffer]
                    for _ in range(k):
                        c.pending.pop(0)
                        block = strip_pad_records(blocks[bi])
                        bi += 1
                        n_pad = vb - block.shape[0]
                        if n_pad:
                            storage.release_memory(n_pad)
                        parts.append(block)
                    c.buffer = parts[0] if len(parts) == 1 else concat_records(parts)
            # move every cursor's buffered records into the shared pool,
            # remembering the last key as the run's forecast floor
            for c in cursors:
                if c.buffer is not None and c.buffer.size:
                    c._last = int(composite_keys(c.buffer)[-1])
                    buffered.append(c.buffer)
                    buffered_n += int(c.buffer.shape[0])
                    c.buffer = None
        # --- write phase ---------------------------------------------------
        # Safe limit: nothing below the least-advanced run's frontier can
        # still arrive, so records ≤ that key are exactly placed.  Under
        # memory pressure a stripe is forced out anyway (the displacement
        # the cleanup pass exists to fix).  No emission until every run has
        # contributed its first block (warm-up), or the first stripe could
        # miss whole runs.
        warmed = all(hasattr(c, "_last") or not c.pending for c in cursors)
        if not any(c.live for c in cursors):
            emit_stripe(None, force=True, final=True)
        elif warmed:
            with_pending = [getattr(c, "_last", -1) for c in cursors if c.pending]
            limit = min(with_pending) if with_pending else None
            emit_stripe(limit, force=buffered_n >= buffer_cap)
    return OrderedRun(blocks=out_blocks, n_records=out_count)


def _adaptive_cleanup(
    machine, storage, run: OrderedRun, base_window: int, stagger: int = 0
) -> OrderedRun:
    """Cleanup with window doubling: retry until the displacement fits.

    The original Greed Sort proves a displacement bound for its exact read
    schedule; our operational schedule keeps the structure but not the
    proof, so the cleanup window adapts: start at ``2·R·B``, double on
    failure (each failed attempt's partial output is discarded, its I/Os —
    honestly — remain counted), give up at ``M/3`` (memory must hold the
    sliding pool plus an output stripe).
    """
    from ..exceptions import InvariantViolation

    window = 2 * base_window
    limit = max(window, machine.M // 3)
    while True:
        final_attempt = window >= limit
        try:
            out = _cleanup_pass(
                machine, storage, run, window, free_source=False,
                stagger=stagger,
            )
        except InvariantViolation:
            if final_attempt:
                raise  # caller decides (greed_sort falls back to exact merge)
            window = min(2 * window, limit)
            continue
        storage.free_arr([ref.address for ref in run.blocks])
        return out


def _cleanup_pass(
    machine, storage, run: OrderedRun, window: int, free_source: bool = True,
    stagger: int = 0,
) -> OrderedRun:
    """Restore exact order in an approximately sorted run (one stream).

    A sliding sorted buffer of ``window`` records absorbs the bounded
    displacement the approximate merge introduces; records leave the buffer
    only once ``window`` records larger than them have arrived, so any
    record displaced by less than ``window`` positions lands correctly.
    Raises :class:`~repro.exceptions.InvariantViolation` if a record turns
    out to be displaced further; on failure any partially written output is
    discarded (its I/Os stay counted, as they were really performed).
    """
    from ..exceptions import InvariantViolation
    from ..records import RECORD_DTYPE

    pool = np.empty(0, dtype=RECORD_DTYPE)
    out_blocks = []
    out_count = 0
    last_emitted = -1
    vb = storage.virtual_block_size
    pending_out: list[np.ndarray] = []
    pending_n = 0
    held = 0  # records read but not yet written (ledger bookkeeping)

    def flush_out(final: bool = False) -> None:
        nonlocal pending_out, pending_n, out_count, held
        width = vb * storage.n_virtual
        take = pending_n if final else (pending_n // width) * width
        if take == 0:
            return
        data = concat_records(pending_out) if len(pending_out) > 1 else pending_out[0]
        head, tail = data[:take], data[take:]
        written = write_ordered_run(
            storage, head, start_channel=stagger + len(out_blocks)
        )
        out_blocks.extend(written.blocks)
        out_count += head.shape[0]
        held -= int(head.shape[0])
        pending_out = [tail] if tail.size else []
        pending_n = int(tail.shape[0]) if tail.size else 0

    def emit(records: np.ndarray) -> None:
        nonlocal last_emitted, pending_out, pending_n
        if records.size == 0:
            return
        ck = composite_keys(records)
        if last_emitted >= 0 and int(ck[0]) < last_emitted:
            raise InvariantViolation(
                "cleanup window too small: displacement exceeded the NoV bound"
            )
        last_emitted = int(ck[-1])
        pending_out.append(records)
        pending_n += int(records.shape[0])
        flush_out()

    try:
        for chunk in read_run_batches(storage, run, free=free_source):
            held += int(chunk.shape[0])
            merged = concat_records([pool, chunk])
            merged = merged[np.argsort(composite_keys(merged), kind="stable")]
            if merged.shape[0] > window:
                emit(merged[: merged.shape[0] - window])
                pool = merged[merged.shape[0] - window :]
            else:
                pool = merged
        emit(pool)
        flush_out(final=True)
    except InvariantViolation:
        # discard the partial output and release everything still held
        storage.free_arr([ref.address for ref in out_blocks])
        storage.release_memory(held)
        raise
    return OrderedRun(blocks=out_blocks, n_records=out_count)
