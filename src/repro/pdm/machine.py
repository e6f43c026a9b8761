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
Block bytes live in a pluggable backend (:mod:`repro.pdm.store`): the
default slab-allocated arena, or the legacy dict-of-dicts reference
backend under ``REPRO_PDM_STORE=dict``.  The paper's cost model only
counts parallel I/Os, so the substrate is free to be as fast as the
hardware allows — both backends are pinned bit-identical by the
differential suite.  The **batched entry points**
:meth:`ParallelDiskMachine.read_blocks_arr` /
:meth:`~ParallelDiskMachine.write_blocks_arr` move one ``(k, B)`` record
matrix per parallel I/O with a single vectorized gather/scatter; the
classic :class:`BlockAddress`-list API is a thin shim over them.
"""

from __future__ import annotations

import os
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
from .store import make_store

__all__ = ["BlockAddress", "IOPlanStats", "IOStats", "ParallelDiskMachine"]

#: Default rounds per fused flush/gather when an I/O plan is active.
_PLAN_WINDOW_DEFAULT = 64


def _env_io_plan_window() -> int:
    """Plan window from ``$REPRO_IO_PLAN``: rounds per fused flush.

    Unset / ``auto`` / ``on`` select the default window; ``0`` / ``off`` /
    ``no`` / ``false`` disable plans entirely (exact round-at-a-time
    execution); any other integer is used literally (``1`` keeps the plan
    machinery active but flushes after every round — a debugging mode).
    """
    raw = os.environ.get("REPRO_IO_PLAN", "").strip().lower()
    if raw in ("", "auto", "on"):
        return _PLAN_WINDOW_DEFAULT
    if raw in ("off", "no", "false"):
        return 0
    try:
        window = int(raw)
    except ValueError:
        raise ParameterError(
            f"REPRO_IO_PLAN must be an integer or off/auto, got {raw!r}"
        ) from None
    return max(0, window)


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
    regardless of how rounds are physically fused (``REPRO_IO_PLAN``,
    fault injectors and checksums all change the fusion), so plan shape
    is reported out of band — ``machine.plan_stats`` and the
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


#: Plan counters that add across machines/cells vs. high-water marks.
_PLAN_SUM_KEYS = (
    "deferred_write_rounds", "write_flushes",
    "prefetched_read_rounds", "read_gathers",
)
_PLAN_MAX_KEYS = ("max_write_flush_blocks", "max_read_gather_blocks")


def merge_plan_snapshots(snapshots: Iterable[dict]) -> dict:
    """Fold :meth:`IOPlanStats.snapshot` dicts: counters add, maxima max.

    Used to aggregate physical-fusion telemetry across the machines of
    one grid cell and across the cells of a sweep — still strictly out
    of band (the result feeds stderr summaries and ``--stats-json``,
    never a payload).
    """
    out = {k: 0 for k in _PLAN_SUM_KEYS + _PLAN_MAX_KEYS}
    for snap in snapshots:
        for k in _PLAN_SUM_KEYS:
            out[k] += int(snap.get(k, 0))
        for k in _PLAN_MAX_KEYS:
            out[k] = max(out[k], int(snap.get(k, 0)))
    return out


#: Ambient (per-process) collector: when active, every machine created
#: registers its ``plan_stats`` here so callers outside the task boundary
#: can aggregate physical-fusion telemetry without touching payloads.
_PLAN_COLLECTOR: list | None = None


@contextmanager
def collect_plan_stats():
    """Collect the ``IOPlanStats`` of every machine built in this context.

    Yields the live list; snapshot after the block (e.g. through
    :func:`merge_plan_snapshots`).  Nestable — an inner collector
    shadows the outer one, mirroring how each sweep cell owns exactly
    the machines its task constructs.
    """
    global _PLAN_COLLECTOR
    prev, _PLAN_COLLECTOR = _PLAN_COLLECTOR, []
    try:
        yield _PLAN_COLLECTOR
    finally:
        _PLAN_COLLECTOR = prev


#: Memory gauges that add across machines/cells vs. high-water marks.
_MEM_SUM_KEYS = ("machines", "grow_events")
_MEM_MAX_KEYS = (
    "slab_rows", "slab_bytes", "resident_blocks", "high_water_blocks",
    "ledger_high_water_records", "peak_rss_kb",
)


def merge_mem_snapshots(snapshots: Iterable[dict]) -> dict:
    """Fold :meth:`mem_snapshot` dicts: counters add, high waters max.

    The memory-telemetry analogue of :func:`merge_plan_snapshots` — used
    to aggregate arena/ledger gauges across the machines of one grid cell
    and across the cells of a sweep, strictly out of band (stderr
    summaries, ``--stats-json``, the progress channel — never payloads).
    """
    out = {k: 0 for k in _MEM_SUM_KEYS + _MEM_MAX_KEYS}
    for snap in snapshots:
        out["machines"] += int(snap.get("machines", 1))
        out["grow_events"] += int(snap.get("grow_events", 0))
        for k in _MEM_MAX_KEYS:
            out[k] = max(out[k], int(snap.get(k, 0) or 0))
    return out


#: Ambient (per-process) collector: when active, every machine created
#: registers its bound ``mem_snapshot`` here (a callable, not a dict —
#: gauges are read lazily so the snapshot reflects lifetime high waters).
_MEM_COLLECTOR: list | None = None


@contextmanager
def collect_mem_stats():
    """Collect the ``mem_snapshot`` callable of every machine built here.

    Yields the live list of zero-argument callables; invoke them after
    the block and fold through :func:`merge_mem_snapshots`.  Nestable,
    exactly like :func:`collect_plan_stats`.
    """
    global _MEM_COLLECTOR
    prev, _MEM_COLLECTOR = _MEM_COLLECTOR, []
    try:
        yield _MEM_COLLECTOR
    finally:
        _MEM_COLLECTOR = prev


class _IOPlan:
    """Pending physically-deferred write rounds (logically already done).

    Each deferred round is one logical parallel write whose
    stats/ledger/obs effects have already landed; only the
    ``store.write_batch`` scatter is outstanding.  Addresses accumulate
    as flat Python int lists (building per-round numpy arrays just to
    concatenate them at flush costs more than the store scatter itself
    for tiny stripe widths); ``data`` keeps the callers' record buffers
    as handed over, flattened into one ``(k, B)`` matrix only at flush.
    ``min_slot`` is the smallest pending slot — the overlap watermark
    that forces a flush before any read/free/peek that could touch a
    pending block (slots are bump-allocated monotonically, so ``slot <
    min_slot`` proves a block cannot be pending).
    """

    __slots__ = ("window", "disks", "slots", "data", "rounds", "min_slot")

    def __init__(self, window: int) -> None:
        self.window = int(window)
        self.disks: list[int] = []
        self.slots: list[int] = []
        self.data: list[np.ndarray] = []
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
        ``$REPRO_PDM_STORE`` or the arena.  Backends are observationally
        identical — only wall-clock differs.
    checksums:
        Keep a per-block CRC-32 in the store so bit rot (in practice, a
        ``corrupt``-mode injected fault) raises
        :class:`~repro.exceptions.BlockCorruptionError` on read/peek.
        ``None`` (the default) consults ``$REPRO_PDM_CHECKSUMS`` and
        then the ambient fault plan: a plan that corrupts stored blocks
        turns checksums on automatically so its damage is detectable.
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
            checksums = os.environ.get("REPRO_PDM_CHECKSUMS", "0") not in ("", "0")
            if not checksums and self._fault is not None:
                checksums = self._fault.wants_store_checksums
        self.store = make_store(store, self.D, self.B, checksums=bool(checksums))
        self._mem_used = 0
        self._mem_high_water = 0
        self._alloc_ptr = 0
        # Fused I/O plans (optional; None keeps the hot path untouched).
        self._plan: _IOPlan | None = None
        self.plan_stats = IOPlanStats()
        if _PLAN_COLLECTOR is not None:
            _PLAN_COLLECTOR.append(self.plan_stats)
        if _MEM_COLLECTOR is not None:
            _MEM_COLLECTOR.append(self.mem_snapshot)
        # Observability (optional; None keeps the hot path untouched).
        self._obs = None
        self._obs_scope = None
        self._m_read = self._m_write = None
        self._ev_read = self._ev_write = None
        self._trace_event = None

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
        if self._fault is not None and self._plan is not None:
            # Store-watching injectors require round-at-a-time execution
            # (see io_plans_supported); retire any in-flight plan now.
            self.flush_io_plan()
            self._plan = None

    def detach_faults(self) -> None:
        """Remove the attached fault injector (I/O hooks become no-ops)."""
        self._fault = None

    # ---------------------------------------------------------- observability

    def attach_obs(self, obs, scope: str = "pdm") -> None:
        """Attach an :class:`~repro.obs.Observation` to this machine.

        Every parallel I/O then increments counters and the stripe-width
        histograms under ``obs.scope(scope)`` (names mirror
        :meth:`IOStats.snapshot`) and emits an ``io.read`` / ``io.write``
        trace event carrying the stripe width.  With no observation
        attached (the default) the I/O path performs one ``is not None``
        check and nothing else — counted I/Os are bit-identical either way.
        """
        self._obs = obs
        self._trace_event = obs.tracer.event  # bound: one event per I/O
        self._obs_scope = reg = obs.scope(scope)
        self._m_read = (
            reg.counter("read_ios"),
            reg.counter("blocks_read"),
            reg.histogram("io.read.width"),
        )
        self._m_write = (
            reg.counter("write_ios"),
            reg.counter("blocks_written"),
            reg.counter("full_width_writes"),
            reg.histogram("io.write.width"),
        )
        # Columnar fast path: one scalar append per I/O instead of three
        # instrument updates plus an event dict.  Metrics are replayed in
        # bulk from the width columns when the scope is next read (see
        # MetricsRegistry.add_pending_flush) — exports, traces, and the
        # payload stay bit-identical to the eager path.
        read_ch = obs.tracer.scalar_channel("io.read", ("width",))
        if read_ch is not None:
            write_ch = obs.tracer.scalar_channel(
                "io.write", ("width", "full_stripe")
            )
            self._ev_read = read_ch.append
            self._ev_write = write_ch.append
            ios_r, blocks_r, hist_r = self._m_read
            ios_w, blocks_w, full_w, hist_w = self._m_write
            read_widths = read_ch.cols[0]
            write_widths = write_ch.cols[0]
            full_flags = write_ch.cols[1]
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
        self._obs = self._obs_scope = None
        self._m_read = self._m_write = None
        self._ev_read = self._ev_write = None
        self._trace_event = None
        self.cpu.detach_obs()

    def _observe_read(self, width: int) -> None:
        ev = self._ev_read
        if ev is not None:
            ev(width)
            return
        ios, blocks, hist = self._m_read
        ios.inc()
        blocks.inc(width)
        hist.observe(width)
        self._trace_event("io.read", width=width)

    def _observe_write(self, width: int) -> None:
        ev = self._ev_write
        if ev is not None:
            ev(width, width == self.D)
            return
        ios, blocks, full, hist = self._m_write
        ios.inc()
        blocks.inc(width)
        if width == self.D:
            full.inc()
        hist.observe(width)
        self._trace_event("io.write", width=width, full_stripe=width == self.D)

    # ------------------------------------------------------------- I/O plans

    @property
    def io_plan_window(self) -> int:
        """Rounds the active I/O plan may fuse (0 = no plan active)."""
        return self._plan.window if self._plan is not None else 0

    def io_plans_supported(self) -> bool:
        """May physical execution be fused across logical rounds here?

        Fault injectors need their store hooks to interleave with store
        effects exactly as the logical schedule does, and checksummed
        stores verify blocks on physical gather — both therefore force
        round-at-a-time execution (the plan machinery stays off and the
        classic per-round path runs unchanged, so chaos schedules and
        corruption detection are bit-identical to pre-plan behaviour).
        """
        return self._fault is None and not self.store.checksums

    @contextmanager
    def io_plan(self, window: int | None = None):
        """Scope in which physical I/O may be fused across logical rounds.

        Inside the scope every parallel write charges its **logical**
        costs (``IOStats``, memory ledger, obs counters/events) at the
        usual point — the paper's cost model is untouched — but the
        physical scatter is queued and executed as one fused
        ``store.write_batch`` per up-to-``window`` rounds.  Reads that
        could touch a pending slot flush the queue first, so store
        contents observable through *any* entry point never differ from
        round-at-a-time execution.  Planned readers additionally use
        :meth:`gather_blocks_arr` + :meth:`charge_read_io` to prefetch
        whole windows of read rounds in one store pass.

        ``window`` defaults to ``$REPRO_IO_PLAN`` (64); the scope is a
        no-op when plans are unsupported (:meth:`io_plans_supported`) or
        the window is 0.  Re-entrant: nested scopes join the outer plan.
        Yields the machine's :class:`IOPlanStats`.
        """
        if self._plan is not None:
            yield self.plan_stats
            return
        window = _env_io_plan_window() if window is None else int(window)
        if window < 1 or not self.io_plans_supported():
            yield self.plan_stats
            return
        self._plan = _IOPlan(window)
        try:
            yield self.plan_stats
        finally:
            try:
                self.flush_io_plan()
            finally:
                self._plan = None

    def flush_io_plan(self) -> None:
        """Execute all pending deferred writes as one fused store scatter."""
        plan = self._plan
        if plan is None or not plan.rounds:
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
        plan.disks.clear()
        plan.slots.clear()
        plan.data.clear()
        plan.rounds = 0
        plan.min_slot = -1
        self.store.write_batch(disks, slots, data)
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
        if plan is None or not plan.rounds:
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
        logical round via :meth:`charge_read_io` exactly where the
        unfused schedule would have performed it.  The one-block-per-disk
        contention rule is a *per-logical-round* rule — the planner
        enforces it per round, never across the fused gather — so only
        negative slots are guarded here.
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
        matrix = self.store.read_batch(disks, slots, free=free)
        stats = self.plan_stats
        stats.read_gathers += 1
        if disks.size > stats.max_read_gather_blocks:
            stats.max_read_gather_blocks = int(disks.size)
        return matrix

    def charge_read_io(self, width: int) -> None:
        """Charge one logical parallel read of ``width`` blocks (plan executor).

        The logical half of a planned read: the fault hook, memory
        ledger, ``IOStats`` counters and obs event fire here — at the
        point the unfused schedule would have issued the I/O — so every
        counter, trace event, and failure (``CapacityError`` included)
        surfaces exactly as in round-at-a-time execution.
        """
        if self._fault is not None:
            self._fault.on_read()
        self.mem_acquire(width * self.B)
        self.stats.read_ios += 1
        self.stats.blocks_read += width
        self.plan_stats.prefetched_read_rounds += 1
        if self._obs is not None:
            self._observe_read(width)

    # ------------------------------------------------- batched I/O (fast path)

    def read_blocks_arr(
        self,
        disks: np.ndarray,
        slots: np.ndarray,
        free: bool = False,
        checked: bool = True,
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
        lookup is shared).  ``checked=False`` skips the contention and
        disk-range validation for callers that already enforce them at
        their own layer (:class:`~repro.pdm.striping.VirtualDisks`
        validates distinct in-range *virtual* disks, which maps to
        distinct in-range physical disks); caller-provided slots are
        still guarded non-negative (a negative slot would silently
        alias under the arena's row map).
        """
        disks = np.asarray(disks, dtype=np.int64)
        slots = np.asarray(slots, dtype=np.int64)
        k = disks.size
        if k == 0:
            return np.empty((0, self.B), dtype=RECORD_DTYPE)
        if checked:
            self._check_io_batch(disks, slots)
        else:
            sl = slots.tolist()
            if min(sl) < 0:
                i = next(i for i, s in enumerate(sl) if s < 0)
                raise AddressError(
                    f"negative slot in BlockAddress(disk={int(disks[i])}, slot={sl[i]})"
                )
        if self._plan is not None:
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
        if self._obs is not None:
            self._observe_read(k)
        return matrix

    def write_blocks_arr(
        self,
        disks: np.ndarray,
        slots: np.ndarray,
        data: np.ndarray,
        checked: bool = True,
    ) -> None:
        """One parallel write I/O: scatter a ``(k, B)`` record matrix.

        Row ``i`` of ``data`` lands on ``(disks[i], slots[i])``.  The
        store copies the rows (one vectorized scatter), so ``data`` may
        be a view of caller-owned memory.  The written records leave
        internal memory (the ledger is released).  ``checked=False``
        skips contention/address validation for callers that enforce
        both at their own layer *and* generate the slots themselves
        (:class:`~repro.pdm.striping.VirtualDisks` bump-allocates them).
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
        if checked:
            self._check_io_batch(disks, slots)
        corrupt = None
        if self._fault is not None:
            # Raise-class rules fire *before* the write (no partial
            # effects); corrupt rules return the (row, bit_seed) to damage
            # after the scatter lands.
            corrupt = self._fault.on_write(k)
        plan = self._plan
        if plan is not None and corrupt is None:
            # Fused execution: the logical effects below land now, in
            # program order; only the physical scatter is deferred.  The
            # caller must not mutate `data` rows after this call — every
            # in-tree writer hands over a freshly assembled buffer.
            # (`corrupt` can only be non-None with an attached injector,
            # which disables plans — the branch guard is defensive.)
            slot_list = slots.tolist()
            plan.disks.extend(disks.tolist())
            plan.slots.extend(slot_list)
            plan.data.append(data)
            plan.rounds += 1
            smin = min(slot_list)
            if plan.min_slot < 0 or smin < plan.min_slot:
                plan.min_slot = smin
            self.plan_stats.deferred_write_rounds += 1
            if plan.rounds >= plan.window:
                self.flush_io_plan()
        else:
            self.store.write_batch(disks, slots, data)
            if corrupt is not None:
                row, bit_seed = corrupt
                self.store.corrupt_block(int(disks[row]), int(slots[row]), bit_seed)
        self.mem_release(k * self.B)
        self.stats.write_ios += 1
        self.stats.blocks_written += k
        if k == self.D:
            self.stats.full_width_writes += 1
        if self._obs is not None:
            self._observe_write(k)

    def write_round_blocks(
        self, disks: Sequence[int], slot: int, blocks: Sequence[np.ndarray]
    ) -> None:
        """One parallel write of whole blocks sharing a single slot.

        The list-native fast path for round-structured writers
        (:meth:`repro.pdm.striping.VirtualDisks.write_round`): ``disks``
        is an int sequence (distinctness/range already enforced by the
        caller, exactly like ``checked=False``), every block lands at
        ``slot``, and ``blocks`` are record arrays whose concatenation in
        list order is the scatter payload (each a multiple of ``B``
        records, flat order matching ``disks``).  Logical effects —
        fault hook, ledger, :class:`IOStats`, obs — are identical to the
        equivalent :meth:`write_blocks_arr` call; only the per-call array
        construction is gone.  Blocks are handed over: the caller must
        not mutate them afterwards (deferred scatter under a plan).
        """
        k = len(disks)
        if k == 0:
            return
        corrupt = None
        if self._fault is not None:
            corrupt = self._fault.on_write(k)
        plan = self._plan
        if plan is not None and corrupt is None:
            plan.disks.extend(disks)
            plan.slots.extend([slot] * k)
            plan.data.extend(blocks)
            plan.rounds += 1
            if plan.min_slot < 0 or slot < plan.min_slot:
                plan.min_slot = slot
            self.plan_stats.deferred_write_rounds += 1
            if plan.rounds >= plan.window:
                self.flush_io_plan()
        else:
            disk_arr = np.array(disks, dtype=np.int64)
            slot_arr = np.full(k, slot, dtype=np.int64)
            data = (
                blocks[0] if len(blocks) == 1 else concat_records(blocks)
            ).reshape(-1, self.B)
            self.store.write_batch(disk_arr, slot_arr, data)
            if corrupt is not None:
                row, bit_seed = corrupt
                self.store.corrupt_block(int(disk_arr[row]), slot, bit_seed)
        self.mem_release(k * self.B)
        self.stats.write_ios += 1
        self.stats.blocks_written += k
        if k == self.D:
            self.stats.full_width_writes += 1
        if self._obs is not None:
            self._observe_write(k)

    def free_blocks_arr(self, disks: np.ndarray, slots: np.ndarray) -> None:
        """Drop many blocks at once (no I/O cost; unwritten slots are no-ops)."""
        disks = np.asarray(disks, dtype=np.int64)
        slots = np.asarray(slots, dtype=np.int64)
        if disks.size == 0:
            return
        self._validate_addr_arr(disks, slots)
        if self._plan is not None:
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
        if self._plan is not None:
            self._flush_if_overlap(slots)
        self.store.write_batch(disks, slots, data)

    # ------------------------------------------------------------------ I/O

    def read_blocks(self, addresses: Sequence[BlockAddress]) -> list[np.ndarray]:
        """One parallel read I/O: fetch one block from each addressed disk.

        Thin shim over :meth:`read_blocks_arr`; the returned blocks are
        rows of the freshly gathered batch matrix (safe to hold and
        mutate — they never alias the store).

        Raises :class:`DiskContentionError` if two addresses share a disk,
        and :class:`CapacityError` if memory cannot hold the fetched records.
        """
        addresses = list(addresses)
        if not addresses:
            return []
        k = len(addresses)
        disks = np.fromiter((a.disk for a in addresses), np.int64, k)
        slots = np.fromiter((a.slot for a in addresses), np.int64, k)
        matrix = self.read_blocks_arr(disks, slots)
        return list(matrix)

    def write_blocks(self, writes: Sequence[tuple[BlockAddress, np.ndarray]]) -> None:
        """One parallel write I/O: store one block on each addressed disk.

        Thin shim over :meth:`write_blocks_arr`.  The written records
        leave internal memory (the ledger is released).  Blocks must
        contain exactly ``B`` records of the record dtype.
        """
        writes = list(writes)
        if not writes:
            return
        k = len(writes)
        disks = np.fromiter((addr.disk for addr, _ in writes), np.int64, k)
        slots = np.fromiter((addr.slot for addr, _ in writes), np.int64, k)
        self._check_contention_arr(disks)
        matrix = np.empty((k, self.B), dtype=RECORD_DTYPE)
        for i, (_, data) in enumerate(writes):
            if data.dtype != RECORD_DTYPE:
                raise TypeError(f"blocks must have record dtype, got {data.dtype}")
            if data.shape != (self.B,):
                raise AddressError(
                    f"block must hold exactly B={self.B} records, got shape {data.shape}"
                )
            matrix[i] = data
        self.write_blocks_arr(disks, slots, matrix)

    def _check_io_batch(self, disks: np.ndarray, slots: np.ndarray) -> None:
        """Contention + address validation fused into one pass.

        Semantically identical (same checks, same order, same messages) to
        :meth:`_check_contention_arr` followed by :meth:`_validate_addr_arr`,
        but the small-batch path materializes each address list exactly
        once — the per-I/O overhead matters at ~20k I/Os/s.
        """
        k = disks.size
        if k > 64:
            self._check_contention_arr(disks)
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

    def _check_contention_arr(self, disks: np.ndarray) -> None:
        # One block per disk per I/O.  A Python set over the (always tiny:
        # k ≤ D) address list beats np.unique by an order of magnitude at
        # these sizes; np.unique takes over for genuinely wide batches.
        k = disks.size
        if k <= 1:
            return
        if k <= 64:
            listed = disks.tolist()
            if len(set(listed)) != k:
                seen: set[int] = set()
                for d in listed:
                    if d in seen:
                        raise DiskContentionError(
                            f"two blocks addressed to disk {d} in one I/O"
                        )
                    seen.add(d)
        elif np.unique(disks).size != k:
            uniq, counts = np.unique(disks, return_counts=True)
            dup = int(uniq[np.argmax(counts > 1)])
            raise DiskContentionError(
                f"two blocks addressed to disk {dup} in one I/O"
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

    def _validate_addr(self, disk: int, slot: int) -> None:
        if not 0 <= disk < self.D:
            raise AddressError(f"disk {disk} out of range [0, {self.D})")
        if slot < 0:
            raise AddressError(
                f"negative slot in BlockAddress(disk={disk}, slot={slot})"
            )

    def peek_block(self, addr: BlockAddress) -> np.ndarray:
        """Inspect a block without an I/O (for tests/validators only).

        Under the arena backend this is a **read-only zero-copy view**
        of the stored block (the dict backend always copies).
        """
        self._validate_addr(addr.disk, addr.slot)
        if self._plan is not None:
            self.flush_io_plan()
        return self.store.peek(addr.disk, addr.slot)

    def peek_blocks_arr(self, disks: np.ndarray, slots: np.ndarray) -> np.ndarray:
        """Batched :meth:`peek_block`: one store gather, no I/O charged.

        Returns a fresh ``(k, B)`` matrix.  Pending plan writes are
        flushed first and checksums are verified; an unwritten block
        raises :class:`AddressError` as :meth:`peek_block` does.
        """
        disks = np.asarray(disks, dtype=np.int64)
        slots = np.asarray(slots, dtype=np.int64)
        if disks.size == 0:
            return np.empty((0, self.B), dtype=RECORD_DTYPE)
        self._validate_addr_arr(disks, slots)
        if self._plan is not None:
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

    def free_block(self, addr: BlockAddress) -> None:
        """Drop a block from a disk (reclaims simulator memory, no I/O cost)."""
        self._validate_addr(addr.disk, addr.slot)
        if self._plan is not None:
            self.flush_io_plan()
        self.store.free(addr.disk, addr.slot)

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
        snap = self.store.mem_snapshot()
        snap["machines"] = 1
        snap["ledger_high_water_records"] = int(self._mem_high_water)
        snap["M"] = self.M
        return snap

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
