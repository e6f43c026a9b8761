"""The parallel disk machine: D disks, block size B, memory M, P CPUs.

Model rules enforced here (everything the lower bounds of [AgV]/[ViSb]
assume):

* one parallel I/O moves at most one block per disk
  (:class:`~repro.exceptions.DiskContentionError` otherwise);
* every transferred block holds exactly ``B`` records;
* internal memory never holds more than ``M`` records (a ledger that
  algorithms check blocks in and out of);
* parameters satisfy ``M < N`` is the caller's business, but ``1 ≤ DB ≤
  M/2`` and ``1 ≤ P ≤ M`` are validated at construction (Section 1).

Disks are unbounded collections of B-record blocks addressed by
``(disk, slot)``; the machine never interprets record contents.

Storage substrate
-----------------
Block bytes live in the slab-allocated arena of :mod:`repro.pdm.store`;
the dict-of-dicts backend stays as the tests' reference.  The paper's
cost model only counts parallel I/Os, so the substrate is free to be as
fast as the hardware allows — both backends are pinned bit-identical by
the differential suite.  Block operations take integer address arrays: a
parallel I/O is :meth:`ParallelDiskMachine.read_blocks_arr` /
:meth:`~ParallelDiskMachine.write_blocks_arr`, moving one ``(k, B)``
record matrix with a single vectorized gather/scatter; blocks are
dropped by :meth:`~ParallelDiskMachine.free_blocks_arr` and inspected
by :meth:`~ParallelDiskMachine.peek_blocks_arr`.  The virtual disks
write through :meth:`~ParallelDiskMachine.write_round_blocks` (the
logical effects of :meth:`~ParallelDiskMachine.write_blocks_arr`, from
one shared body) and read through
:meth:`~ParallelDiskMachine.gather_blocks_arr` +
:meth:`~ParallelDiskMachine.charge_read_io`.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..exceptions import (
    AddressError,
    CapacityError,
    DiskContentionError,
    ParameterError,
)
from ..pram.machine import PRAM, Variant
from ..records import RECORD_DTYPE, concat_records
from ..resilience.injector import active_fault_injector
from ..util.env import env_switch
from .store import make_store

__all__ = ["BlockAddress", "IOPlanStats", "IOStats", "ParallelDiskMachine"]

#: Rounds per fused store pass: pending write rounds flush once this many
#: have queued, and planned readers gather this many rounds at a time.
PLAN_WINDOW = 64


@dataclass(frozen=True, slots=True)
class BlockAddress:
    """Physical address of one block: which disk, which slot on it."""

    disk: int
    slot: int


@dataclass
class IOStats:
    """I/O counters: the paper's primary performance measure.

    ``full_width_writes`` counts write I/Os that touched *every* disk —
    full-stripe writes, the pattern Section 6 highlights as friendly to
    error-checking/correcting protocols (a parity block can be computed
    over a full stripe without read-modify-write).
    """

    read_ios: int = 0
    write_ios: int = 0
    blocks_read: int = 0
    blocks_written: int = 0
    full_width_writes: int = 0

    @property
    def total_ios(self) -> int:
        """Parallel I/O operations performed (reads + writes)."""
        return self.read_ios + self.write_ios

    @property
    def write_width_fraction(self) -> float:
        """Fraction of write I/Os that were full stripes.

        With no write I/Os at all the fraction is **0.0**: an empty run
        has demonstrated no full-stripe behaviour, so it must not report
        a perfect score.  (Earlier versions returned 1.0 here.)
        """
        return self.full_width_writes / self.write_ios if self.write_ios else 0.0

    def snapshot(self) -> dict:
        """Current counters as a plain dict (for reporting).

        Keys mirror the counters exported by an attached metrics scope
        (:meth:`ParallelDiskMachine.attach_obs`) plus the derived
        ``write_width_fraction`` — the Section-6 full-stripe metric.
        """
        return {
            "read_ios": self.read_ios,
            "write_ios": self.write_ios,
            "total_ios": self.total_ios,
            "blocks_read": self.blocks_read,
            "blocks_written": self.blocks_written,
            "full_width_writes": self.full_width_writes,
            "write_width_fraction": self.write_width_fraction,
        }


@dataclass
class IOPlanStats:
    """Physical plan-execution counters (wall-clock telemetry only).

    Deliberately **not** part of any payload, span, metric, or trace
    event: exec payloads must stay a pure function of ``(task, params)``
    regardless of how rounds are physically fused (``PLAN_WINDOW`` and
    the reads that force an early flush change the fusion), so plan
    shape is reported out of band — ``machine.plan_stats`` and the
    ``repro sort`` CLI summary line.
    """

    deferred_write_rounds: int = 0
    write_flushes: int = 0
    max_write_flush_blocks: int = 0
    prefetched_read_rounds: int = 0
    read_gathers: int = 0
    max_read_gather_blocks: int = 0

    def snapshot(self) -> dict:
        """Current counters as a plain dict (CLI/telemetry reporting)."""
        return {
            "deferred_write_rounds": self.deferred_write_rounds,
            "write_flushes": self.write_flushes,
            "max_write_flush_blocks": self.max_write_flush_blocks,
            "prefetched_read_rounds": self.prefetched_read_rounds,
            "read_gathers": self.read_gathers,
            "max_read_gather_blocks": self.max_read_gather_blocks,
        }


#: How each block of the out-of-band sidecar (:meth:`ParallelDiskMachine.sidecar`)
#: folds across machines, cells and runs: (counters that add, high waters
#: that max).
_SIDECAR_FOLD = {
    "io_plan": (
        ("deferred_write_rounds", "write_flushes",
         "prefetched_read_rounds", "read_gathers"),
        ("max_write_flush_blocks", "max_read_gather_blocks"),
    ),
    "memory": (
        ("machines", "grow_events"),
        ("slab_rows", "slab_bytes", "resident_blocks", "high_water_blocks",
         "ledger_high_water_records", "peak_rss_kb"),
    ),
}


def merge_sidecars(sidecars: Iterable[dict]) -> dict:
    """Fold sidecar dicts block by block: counters add, high waters max.

    Each sidecar holds an ``io_plan`` block (:meth:`IOPlanStats.snapshot`)
    and a ``memory`` block (:meth:`ParallelDiskMachine.mem_snapshot`);
    the fold of none is all zeros.  Used across the machines of one grid
    cell and across the cells of a sweep, strictly out of band (stderr
    summaries, ``--stats-json``, the progress channel — never payloads).
    """
    out = {
        block: dict.fromkeys(add + high, 0)
        for block, (add, high) in _SIDECAR_FOLD.items()
    }
    for side in sidecars:
        for block, (add, high) in _SIDECAR_FOLD.items():
            snap, acc = side.get(block) or {}, out[block]
            for k in add:
                acc[k] += int(snap.get(k, 0))
            for k in high:
                acc[k] = max(acc[k], int(snap.get(k, 0) or 0))
    return out


#: The ambient collector, one per thread: when active, every machine
#: created on that thread registers itself here, so callers outside the
#: task boundary can fold its out-of-band telemetry without touching
#: payloads.  Per thread, so a machine another thread builds meanwhile
#: (``repro serve`` checks each admitted spec's shape on its event loop
#: while a job runs) never lands in the running job's collection.
_COLLECTOR = threading.local()


@contextmanager
def collect_machines():
    """Collect every :class:`ParallelDiskMachine` built in this context.

    Yields the live list; fold ``m.sidecar()`` of each after the block
    through :func:`merge_sidecars` (gauges are read then, so they
    reflect lifetime high waters).  Nestable — an inner collector
    shadows the outer one, mirroring how each sweep cell owns exactly
    the machines its task constructs.
    """
    prev = getattr(_COLLECTOR, "machines", None)
    live: list = []
    _COLLECTOR.machines = live
    try:
        yield live
    finally:
        _COLLECTOR.machines = prev


class _IOPlan:
    """Pending physically-deferred write rounds (logically already done).

    Each deferred round is one logical parallel write whose
    stats/ledger/obs effects — and fault hook — have already landed;
    only the ``store.write_batch`` scatter is outstanding.  Addresses
    accumulate as flat Python int lists (building per-round numpy arrays
    just to concatenate them at flush costs more than the store scatter
    itself for tiny stripe widths); ``data`` keeps the callers' record
    buffers as handed over, flattened into one ``(k, B)`` matrix only at
    flush.  ``corrupt`` holds the ``(disk, slot, bit_seed)`` damage of
    injected corrupt writes, applied right after the flush that stores
    their blocks.  ``min_slot`` is the smallest pending slot — the
    overlap watermark that forces a flush before any read/free/peek that
    could touch a pending block (slots are bump-allocated monotonically,
    so ``slot < min_slot`` proves a block cannot be pending).
    """

    __slots__ = ("disks", "slots", "data", "corrupt", "rounds", "min_slot")

    def __init__(self) -> None:
        self.disks: list[int] = []
        self.slots: list[int] = []
        self.data: list[np.ndarray] = []
        self.corrupt: list[tuple[int, int, int]] = []
        self.rounds = 0
        self.min_slot = -1


class ParallelDiskMachine:
    """Simulator for the parallel disk model of Figure 2.

    Parameters
    ----------
    memory:
        ``M``, number of records that fit in internal memory.
    block:
        ``B``, records per block.
    disks:
        ``D``, number of independent disks.
    processors:
        ``P``, number of internal CPUs (metered by an attached PRAM).
    pram_variant:
        Concurrency discipline of the interconnect ("EREW"/"CREW"/"CRCW").
    store:
        Storage backend name (``"arena"`` or ``"dict"``); defaults to
        :data:`repro.pdm.store.DEFAULT_STORE`, the arena.  Backends are
        observationally identical — only wall-clock differs.
    checksums:
        Keep a 64-bit checksum per stored block
        (:func:`~repro.pdm.store.block_checksums`, one vectorized pass
        per store batch) so bit rot (in practice, a ``corrupt``-mode
        injected fault) raises
        :class:`~repro.exceptions.BlockCorruptionError` on read/peek.
        Every change confined to one 64-bit word of a block — each
        single-bit flip — is detected; random damage to several words
        escapes with probability about 2^-64.  ``None`` (the default)
        consults ``$REPRO_PDM_CHECKSUMS`` (``1``/``on``/``true`` on,
        ``0``/``off``/``false``/empty off, anything else a
        :class:`~repro.exceptions.ParameterError`) and then the ambient
        fault plan: a plan that corrupts stored blocks turns checksums
        on automatically so its damage is detectable.
    """

    def __init__(
        self,
        memory: int,
        block: int,
        disks: int,
        processors: int = 1,
        pram_variant: str | Variant = Variant.EREW,
        store: str | None = None,
        checksums: bool | None = None,
    ) -> None:
        if block < 1 or disks < 1:
            raise ParameterError(f"need B >= 1 and D >= 1, got B={block}, D={disks}")
        if disks * block > memory // 2:
            raise ParameterError(
                f"model requires D·B <= M/2 (got D·B={disks * block}, M={memory})"
            )
        if not 1 <= processors <= memory:
            raise ParameterError(f"model requires 1 <= P <= M (got P={processors}, M={memory})")
        self.M = int(memory)
        self.B = int(block)
        self.D = int(disks)
        self.P = int(processors)
        self.cpu = PRAM(processors, pram_variant)
        self.stats = IOStats()
        # Fault injection (optional; None keeps the hot path untouched).
        # The ambient injector is captured at construction — each attempt
        # of each cell builds its simulation from scratch, so this scoping
        # makes a cell's fault schedule a pure function of (plan, cell,
        # attempt), independent of worker scheduling.
        injector = active_fault_injector()
        self._fault = (
            injector if injector is not None and injector.watches_store else None
        )
        if checksums is None:
            checksums = env_switch("REPRO_PDM_CHECKSUMS")
            if not checksums and self._fault is not None:
                checksums = self._fault.wants_store_checksums
        self.store = make_store(store, self.D, self.B, checksums=bool(checksums))
        self._mem_used = 0
        self._mem_high_water = 0
        self._alloc_ptr = 0
        # Every write scatter is deferred into the plan (see write_blocks_arr).
        self._plan = _IOPlan()
        #: Checksum mismatches a fused gather found, keyed ``(disk, slot)``;
        #: each raises at the charge of the round that reads its block.
        self.corrupt_reads: dict[tuple[int, int], Exception] = {}
        self.plan_stats = IOPlanStats()
        machines = getattr(_COLLECTOR, "machines", None)
        if machines is not None:
            machines.append(self)
        # Observability (optional; None keeps the hot path untouched).
        self._obs_scope = None
        self._ev_read = self._ev_write = None

    # ------------------------------------------------------- fault injection

    def attach_faults(self, injector) -> None:
        """Attach a :class:`~repro.resilience.FaultInjector` directly.

        Tests use this to target one machine; production code relies on
        the ambient :func:`~repro.resilience.activate` context consulted
        at construction instead.  Only plans that watch ``store.*`` sites
        take effect here.
        """
        self._fault = (
            injector if injector is not None and injector.watches_store else None
        )

    def detach_faults(self) -> None:
        """Remove the attached fault injector (I/O hooks become no-ops)."""
        self._fault = None

    # ---------------------------------------------------------- observability

    def attach_obs(self, obs, scope: str = "pdm") -> None:
        """Attach an :class:`~repro.obs.Observation` to this machine.

        Every parallel I/O then appends its stripe width to an
        ``io.read`` / ``io.write`` trace channel.  The counters and
        stripe-width histograms under ``obs.scope(scope)`` (names mirror
        :meth:`IOStats.snapshot`) are replayed from those columns in bulk
        when the scope is next read (see
        :meth:`~repro.obs.MetricsRegistry.add_pending_flush`).  With no
        observation attached (the default) the I/O path performs one
        ``is not None`` check and nothing else — counted I/Os are
        bit-identical either way.
        """
        self._obs_scope = reg = obs.scope(scope)
        ios_r = reg.counter("read_ios")
        blocks_r = reg.counter("blocks_read")
        hist_r = reg.histogram("io.read.width")
        ios_w = reg.counter("write_ios")
        blocks_w = reg.counter("blocks_written")
        full_w = reg.counter("full_width_writes")
        hist_w = reg.histogram("io.write.width")
        read_ch = obs.tracer.scalar_channel("io.read", ("width",))
        write_ch = obs.tracer.scalar_channel("io.write", ("width", "full_stripe"))
        self._ev_read = read_ch.append
        self._ev_write = write_ch.append
        read_widths = read_ch.cols[0]
        write_widths, full_flags = write_ch.cols
        read_cursor = [0]
        write_cursor = [0]

        def _flush_reads():
            n = len(read_widths)
            i = read_cursor[0]
            if i >= n:
                return
            read_cursor[0] = n
            widths = read_widths[i:n]
            ios_r.inc(n - i)
            blocks_r.inc(sum(widths))
            hist_r.observe_bulk(widths)

        def _flush_writes():
            n = len(write_widths)
            i = write_cursor[0]
            if i >= n:
                return
            write_cursor[0] = n
            widths = write_widths[i:n]
            ios_w.inc(n - i)
            blocks_w.inc(sum(widths))
            full_w.inc(sum(full_flags[i:n]))
            hist_w.observe_bulk(widths)

        reg.add_pending_flush(_flush_reads)
        reg.add_pending_flush(_flush_writes)
        self.cpu.attach_obs(obs, scope=f"{scope}.cpu")

    def detach_obs(self) -> None:
        """Remove the attached observation (hooks become no-ops again)."""
        self._obs_scope = None
        self._ev_read = self._ev_write = None
        self.cpu.detach_obs()

    # ------------------------------------------------------------- I/O plans
    #
    # Every parallel write charges its **logical** costs (fault hook,
    # ``IOStats``, memory ledger, obs counters/events) at its own point —
    # the paper's cost model is untouched — but its physical scatter is
    # queued and executed as one fused ``store.write_batch`` per
    # ``PLAN_WINDOW`` rounds.  Reads, frees and peeks that could touch a
    # pending slot flush the queue first, so store contents observable
    # through *any* entry point never differ from round-at-a-time
    # execution.  Planned readers additionally use
    # :meth:`gather_blocks_arr` + :meth:`charge_read_io` to prefetch
    # whole windows of read rounds in one store pass.

    def flush_io_plan(self) -> None:
        """Execute all pending deferred writes as one fused store scatter.

        Injected corruption of a pending block lands right after the
        scatter that stores it.
        """
        plan = self._plan
        if not plan.rounds:
            return
        disks = np.array(plan.disks, dtype=np.int64)
        slots = np.array(plan.slots, dtype=np.int64)
        # Each piece's flat record order already matches its span of the
        # disk/slot lists, so one bytes join of the pieces (C order; every
        # in-tree writer hands over contiguous blocks) rebuilds the full
        # (k, B) scatter matrix.
        try:
            joined = b"".join(plan.data)
        except TypeError:  # a non-contiguous piece: copy piece by piece
            joined = concat_records([p.reshape(-1) for p in plan.data])
        data = np.frombuffer(joined, dtype=RECORD_DTYPE).reshape(-1, self.B)
        corrupt, plan.corrupt = plan.corrupt, []
        plan.disks.clear()
        plan.slots.clear()
        plan.data.clear()
        plan.rounds = 0
        plan.min_slot = -1
        self.store.write_batch(disks, slots, data)
        for disk, slot, bit_seed in corrupt:
            self.store.corrupt_block(disk, slot, bit_seed)
        stats = self.plan_stats
        stats.write_flushes += 1
        if disks.size > stats.max_write_flush_blocks:
            stats.max_write_flush_blocks = int(disks.size)

    def _flush_if_overlap(self, slots: np.ndarray) -> None:
        """Flush pending writes iff ``slots`` could address a pending block.

        Slots are bump-allocated monotonically, so any slot below the
        plan's ``min_slot`` watermark provably predates every pending
        write — the streaming common case (reads consume the *input* run
        while writes land on freshly allocated slots) never flushes.
        """
        plan = self._plan
        if not plan.rounds:
            return
        sl_max = max(slots.tolist()) if slots.size <= 64 else int(slots.max())
        if sl_max >= plan.min_slot:
            self.flush_io_plan()

    def gather_blocks_arr(
        self, disks: np.ndarray, slots: np.ndarray, free: bool = False
    ) -> np.ndarray:
        """Physically gather blocks for an I/O plan — **no logical charges**.

        The plan executor's read half: fetches (and with ``free=True``
        recycles) many future rounds' blocks in one store pass, returning
        the fused ``(k, B)`` record matrix.  The caller must charge each
        logical round via :meth:`charge_read_io` exactly where
        round-at-a-time execution would have performed it.  The
        one-block-per-disk contention rule is a *per-logical-round* rule —
        the planner enforces it per round, never across the fused gather —
        so only negative slots are guarded here.  A checksum mismatch does
        not raise here: it is recorded in :attr:`corrupt_reads` and raised
        by the charge of the round that reads the block.
        """
        disks = np.asarray(disks, dtype=np.int64)
        slots = np.asarray(slots, dtype=np.int64)
        if disks.size == 0:
            return np.empty((0, self.B), dtype=RECORD_DTYPE)
        self._flush_if_overlap(slots)
        if int(slots.min()) < 0:
            i = int(np.argmax(slots < 0))
            raise AddressError(
                f"negative slot in BlockAddress(disk={int(disks[i])}, slot={int(slots[i])})"
            )
        if self.corrupt_reads:  # a verdict from an earlier gather may be stale
            for addr in zip(disks.tolist(), slots.tolist()):
                self.corrupt_reads.pop(addr, None)
        matrix = self.store.read_batch(
            disks, slots, free=free, mismatches=self.corrupt_reads
        )
        stats = self.plan_stats
        stats.read_gathers += 1
        if disks.size > stats.max_read_gather_blocks:
            stats.max_read_gather_blocks = int(disks.size)
        return matrix

    def charge_read_io(
        self, width: int, blocks: Sequence[tuple[int, int]] | None = None
    ) -> None:
        """Charge one logical parallel read of ``width`` blocks (plan executor).

        The logical half of a planned read: the fault hook, checksum
        verdict, memory ledger, ``IOStats`` counters and obs event fire
        here — at the point round-at-a-time execution would have issued
        the I/O — so every counter, trace event, and failure
        (``CapacityError`` included) surfaces exactly as it would there.
        ``blocks`` lists the round's physical ``(disk, slot)`` pairs in
        read order; callers pass it whenever :attr:`corrupt_reads` is
        non-empty, and the first recorded mismatch among them raises.
        """
        if self._fault is not None:
            self._fault.on_read()
        if blocks is not None:
            for addr in blocks:
                error = self.corrupt_reads.get(addr)
                if error is not None:
                    raise error
        self.mem_acquire(width * self.B)
        self.stats.read_ios += 1
        self.stats.blocks_read += width
        self.plan_stats.prefetched_read_rounds += 1
        if self._ev_read is not None:
            self._ev_read(width)

    # ------------------------------------------------- batched I/O (fast path)

    def read_blocks_arr(
        self, disks: np.ndarray, slots: np.ndarray, free: bool = False
    ) -> np.ndarray:
        """One parallel read I/O over integer address arrays.

        ``disks[i], slots[i]`` addresses block ``i``; all disks must be
        distinct (one block per disk per I/O).  Returns a **freshly
        gathered** ``(k, B)`` record matrix — never views into the
        backing store — so the caller may hold it across later writes
        and frees.  Raises :class:`DiskContentionError` on duplicate
        disks and :class:`CapacityError` if memory cannot hold the
        fetched records.

        ``free=True`` drops the blocks right after the gather — the
        streaming consume pattern — identical to a separate
        :meth:`free_blocks_arr` call but fused in the store (the row
        lookup is shared).

        No caller in ``src/`` is left (the virtual disks read through
        :meth:`gather_blocks_arr` + :meth:`charge_read_io`).  It stays
        because the I/O oracle (``tests/io_reference.py``) reads each
        round through it and ``perfbench/layers.py`` times it by name.
        """
        disks = np.asarray(disks, dtype=np.int64)
        slots = np.asarray(slots, dtype=np.int64)
        k = disks.size
        if k == 0:
            return np.empty((0, self.B), dtype=RECORD_DTYPE)
        self._check_io_batch(disks, slots)
        self._flush_if_overlap(slots)
        if self._fault is not None:
            # One opportunity per parallel I/O; fires *before* the store is
            # touched, so a failed read has no partial effects (nothing
            # gathered, nothing freed) — identically on both backends.
            self._fault.on_read()
        matrix = self.store.read_batch(disks, slots, free=free)
        self.mem_acquire(k * self.B)
        self.stats.read_ios += 1
        self.stats.blocks_read += k
        if self._ev_read is not None:
            self._ev_read(k)
        return matrix

    def write_blocks_arr(
        self, disks: np.ndarray, slots: np.ndarray, data: np.ndarray
    ) -> None:
        """One parallel write I/O: scatter a ``(k, B)`` record matrix.

        Row ``i`` of ``data`` lands on ``(disks[i], slots[i])``.  The
        logical effects land now, in program order; the scatter is
        deferred into the I/O plan, so ``data`` is handed over — the
        caller must not mutate it afterwards.  The written records leave
        internal memory (the ledger is released).  The slots may be any
        slots, so a write that rewrites a pending block flushes the plan
        first.

        No caller in ``src/`` is left (the virtual disks write through
        :meth:`write_round_blocks`); tests write through it, and
        ``perfbench/layers.py`` times it by name.
        """
        disks = np.asarray(disks, dtype=np.int64)
        slots = np.asarray(slots, dtype=np.int64)
        k = disks.size
        if k == 0:
            return
        if data.dtype != RECORD_DTYPE:
            raise TypeError(f"blocks must have record dtype, got {data.dtype}")
        if data.shape != (k, self.B):
            raise AddressError(
                f"write batch must be shaped (k={k}, B={self.B}), got {data.shape}"
            )
        self._check_io_batch(disks, slots)
        disk_list, slot_list = disks.tolist(), slots.tolist()
        plan = self._plan
        if plan.rounds and not set(zip(plan.disks, plan.slots)).isdisjoint(
            zip(disk_list, slot_list)
        ):
            self.flush_io_plan()  # a rewrite lands after the first write
        self._queue_write(disk_list, slot_list, data)

    def write_round_blocks(self, disks: Sequence[int], slot: int, blocks) -> None:
        """One parallel write of whole blocks sharing a single slot.

        The list-native write of round-structured writers
        (:meth:`repro.pdm.striping.VirtualDisks.write_round`): ``disks``
        is an int sequence (distinctness/range already enforced by the
        caller), every block lands at ``slot`` — a fresh slot from
        :meth:`allocate_slots`, so no pending block can sit there — and
        ``blocks`` is a list of record arrays or one record matrix whose
        flat record order matches ``disks`` (each block a multiple of
        ``B`` records).  Logical effects are those of
        :meth:`write_blocks_arr`; only the per-call array construction
        is gone.  Blocks are handed over: the caller must not mutate
        them afterwards (the scatter is deferred).
        """
        k = len(disks)
        if k == 0:
            return
        self._queue_write(disks, [slot] * k, blocks)

    def _queue_write(self, disks: Sequence[int], slots: list[int], data) -> None:
        """The logical effects of one parallel write of ``len(disks)`` blocks.

        Fires the fault hook, queues the scatter in the I/O plan (flushing
        once ``PLAN_WINDOW`` rounds are pending), then releases the
        ledger and counts the I/O in :class:`IOStats` and obs.  ``data``
        is one record matrix or a list of record arrays, in the flat
        order of ``disks``.
        """
        k = len(disks)
        # Raise-class fault rules fire *before* the write is queued (no
        # partial effects); corrupt rules return the (row, bit_seed) to
        # damage once the flush has stored the block.
        corrupt = self._fault.on_write(k) if self._fault is not None else None
        plan = self._plan
        plan.disks.extend(disks)
        plan.slots.extend(slots)
        if isinstance(data, np.ndarray):
            plan.data.append(data)
        else:
            plan.data.extend(data)
        if corrupt is not None:
            row, bit_seed = corrupt
            plan.corrupt.append((disks[row], slots[row], bit_seed))
        plan.rounds += 1
        smin = min(slots)
        if plan.min_slot < 0 or smin < plan.min_slot:
            plan.min_slot = smin
        self.plan_stats.deferred_write_rounds += 1
        if plan.rounds >= PLAN_WINDOW:
            self.flush_io_plan()
        self.mem_release(k * self.B)
        self.stats.write_ios += 1
        self.stats.blocks_written += k
        if k == self.D:
            self.stats.full_width_writes += 1
        if self._ev_write is not None:
            self._ev_write(k, k == self.D)

    def free_blocks_arr(self, disks: np.ndarray, slots: np.ndarray) -> None:
        """Drop many blocks at once (no I/O cost; unwritten slots are no-ops)."""
        disks = np.asarray(disks, dtype=np.int64)
        slots = np.asarray(slots, dtype=np.int64)
        if disks.size == 0:
            return
        self._validate_addr_arr(disks, slots)
        self._flush_if_overlap(slots)
        if self._fault is not None:
            self._fault.on_free()
        self.store.free_batch(disks, slots)

    def load_blocks_arr(
        self, disks: np.ndarray, slots: np.ndarray, data: np.ndarray
    ) -> None:
        """Place blocks on the disks without charging I/Os or the ledger.

        External sorting starts with the data resident on disk
        (Section 1); the initial layout is part of the problem
        statement, not the algorithm's cost — so no contention rule and
        no stats either.
        """
        disks = np.asarray(disks, dtype=np.int64)
        slots = np.asarray(slots, dtype=np.int64)
        k = disks.size
        if k == 0:
            return
        if data.dtype != RECORD_DTYPE:
            raise TypeError(f"blocks must have record dtype, got {data.dtype}")
        if data.shape != (k, self.B):
            raise AddressError(
                f"load batch must be shaped (k={k}, B={self.B}), got {data.shape}"
            )
        self._validate_addr_arr(disks, slots)
        self._flush_if_overlap(slots)
        self.store.write_batch(disks, slots, data)

    def peek_blocks_arr(self, disks: np.ndarray, slots: np.ndarray) -> np.ndarray:
        """Inspect blocks without an I/O (tests/validators only).

        One store gather, nothing charged.  Returns a fresh ``(k, B)``
        matrix.  Pending plan writes are flushed first and checksums are
        verified (a mismatch raises
        :class:`~repro.exceptions.BlockCorruptionError`); an unwritten
        block raises :class:`AddressError`.
        """
        disks = np.asarray(disks, dtype=np.int64)
        slots = np.asarray(slots, dtype=np.int64)
        if disks.size == 0:
            return np.empty((0, self.B), dtype=RECORD_DTYPE)
        self._validate_addr_arr(disks, slots)
        self.flush_io_plan()
        try:
            return self.store.read_batch(disks, slots)
        except AddressError:
            for d, s in zip(disks.tolist(), slots.tolist()):
                if not self.store.has(d, s):
                    raise AddressError(
                        f"peek of unwritten block BlockAddress(disk={d}, slot={s})"
                    ) from None
            raise  # pragma: no cover - read_batch raised for another reason

    # ------------------------------------------------------- address checks

    def _check_io_batch(self, disks: np.ndarray, slots: np.ndarray) -> None:
        """Contention + address validation fused into one pass.

        One block per disk per I/O, then :meth:`_validate_addr_arr`'s
        checks, in that order.  A Python set over the (always tiny:
        k ≤ D) address list beats ``np.unique`` by an order of magnitude
        and materializes each list exactly once — the per-I/O overhead
        matters at ~20k I/Os/s; ``np.unique`` takes over for wide batches.
        """
        k = disks.size
        if k > 64:
            uniq, counts = np.unique(disks, return_counts=True)
            if uniq.size != k:
                dup = int(uniq[np.argmax(counts > 1)])
                raise DiskContentionError(
                    f"two blocks addressed to disk {dup} in one I/O"
                )
            self._validate_addr_arr(disks, slots)
            return
        dl = disks.tolist()
        if k > 1 and len(set(dl)) != k:
            seen: set[int] = set()
            for d in dl:
                if d in seen:
                    raise DiskContentionError(
                        f"two blocks addressed to disk {d} in one I/O"
                    )
                seen.add(d)
        if min(dl) < 0 or max(dl) >= self.D:
            bad = next(d for d in dl if not 0 <= d < self.D)
            raise AddressError(f"disk {bad} out of range [0, {self.D})")
        sl = slots.tolist()
        if min(sl) < 0:
            i = next(i for i, s in enumerate(sl) if s < 0)
            raise AddressError(
                f"negative slot in BlockAddress(disk={dl[i]}, slot={sl[i]})"
            )

    def _validate_addr_arr(self, disks: np.ndarray, slots: np.ndarray) -> None:
        # Builtin min/max over small lists avoid per-call ufunc-reduce
        # overhead (four numpy reductions per I/O add up at ~20k I/Os/s).
        if disks.size <= 64:
            dl, sl = disks.tolist(), slots.tolist()
            if min(dl) < 0 or max(dl) >= self.D:
                bad = next(d for d in dl if not 0 <= d < self.D)
                raise AddressError(f"disk {bad} out of range [0, {self.D})")
            if min(sl) < 0:
                i = next(i for i, s in enumerate(sl) if s < 0)
                raise AddressError(
                    f"negative slot in BlockAddress(disk={dl[i]}, slot={sl[i]})"
                )
            return
        if int(disks.min()) < 0 or int(disks.max()) >= self.D:
            bad = int(disks[(disks < 0) | (disks >= self.D)][0])
            raise AddressError(f"disk {bad} out of range [0, {self.D})")
        if int(slots.min()) < 0:
            i = int(np.argmax(slots < 0))
            raise AddressError(
                f"negative slot in BlockAddress(disk={int(disks[i])}, slot={int(slots[i])})"
            )

    # ------------------------------------------------------- memory ledger

    @property
    def memory_in_use(self) -> int:
        """Records currently checked out of the ledger (held in memory)."""
        return self._mem_used

    @property
    def memory_free(self) -> int:
        return self.M - self._mem_used

    def mem_acquire(self, n_records: int) -> None:
        """Claim internal memory for ``n_records``; raises on overflow."""
        if n_records < 0:
            raise ParameterError("cannot acquire negative memory")
        if self._mem_used + n_records > self.M:
            raise CapacityError(
                f"memory overflow: {self._mem_used} + {n_records} > M={self.M}"
            )
        self._mem_used += n_records
        if self._mem_used > self._mem_high_water:
            self._mem_high_water = self._mem_used

    def mem_release(self, n_records: int) -> None:
        """Return ``n_records`` of internal memory to the ledger."""
        if n_records < 0:
            raise ParameterError("cannot release negative memory")
        if n_records > self._mem_used:
            raise CapacityError(
                f"memory underflow: releasing {n_records} with only {self._mem_used} in use"
            )
        self._mem_used -= n_records

    def mem_snapshot(self) -> dict:
        """Memory gauges: store occupancy + the internal-memory ledger.

        Out-of-band telemetry (stderr, ``--stats-json``, the progress
        channel) — never part of a payload.  ``ledger_high_water_records``
        is the lifetime peak of :attr:`memory_in_use`, i.e. how close the
        run actually came to the configured ``M``.
        """
        self.flush_io_plan()  # pending blocks count as resident
        snap = self.store.mem_snapshot()
        snap["machines"] = 1
        snap["ledger_high_water_records"] = int(self._mem_high_water)
        snap["M"] = self.M
        return snap

    def sidecar(self) -> dict:
        """This machine's out-of-band telemetry, folded by :func:`merge_sidecars`.

        The ``io_plan`` counters are read before :meth:`mem_snapshot`
        flushes the pending write rounds, so that flush is not counted.
        """
        return {"io_plan": self.plan_stats.snapshot(), "memory": self.mem_snapshot()}

    # -------------------------------------------------------------- misc

    def allocate_slots(self, n_slots: int) -> int:
        """Reserve ``n_slots`` consecutive slots on every disk (bump allocator).

        Returns the starting slot.  Keeps independently created files and
        regions from overlapping on the simulated disks.
        """
        if n_slots < 0:
            raise ParameterError("cannot allocate negative slots")
        start = self._alloc_ptr
        self._alloc_ptr += n_slots
        return start

    def reset_stats(self) -> None:
        """Zero the I/O and CPU counters (between experiment phases).

        Also resets the attached metrics scope (if any), so compare-style
        multi-phase runs report clean per-phase numbers from both the
        ``IOStats`` snapshot and the registry export.  ``_alloc_ptr`` (the
        disk slot bump allocator) is *intentionally preserved*: resetting
        counters must not let a later phase overwrite an earlier phase's
        resident blocks.
        """
        self.stats = IOStats()
        self.cpu.reset()
        if self._obs_scope is not None:
            self._obs_scope.reset()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ParallelDiskMachine(M={self.M}, B={self.B}, D={self.D}, P={self.P}, "
            f"ios={self.stats.total_ios})"
        )
