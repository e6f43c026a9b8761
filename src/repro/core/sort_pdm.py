"""Balance Sort on the parallel disk model (Section 5; Theorem 1).

Structure (the Section 5 modifications to Algorithm 1):

* recursion terminates at ``N ≤ M`` — read everything, sort internally
  (charged to the attached PRAM: Cole's merge sort on an EREW interconnect,
  the Rajasekaran–Reif radix sort on CRCW), write back;
* ``S = (M/B)^{1/4}`` buckets;
* partition elements come from the [ViSa] memoryload-sampling method
  (:func:`repro.core.partition.pdm_partition_elements`);
* the Balance engine reads memoryloads (streamed at full ``DB``-records-
  per-I/O bandwidth) and places virtual blocks on the ``D'`` partially
  striped virtual disks, rebalancing with ``Fast-Partial-Match``;
* each bucket is sorted recursively and appended to the output.

The recursion gives ``T(N) = S·T(N/S) + O(N/DB)`` I/Os, i.e.
``O((N/DB)·log(N/B)/log(M/B))`` — the optimal bound of [AgV] — while the
CPU charges accumulate to ``O((N/P) log N)`` work.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from ..exceptions import ParameterError
from ..obs import NULL_TRACER
from ..pdm.machine import ParallelDiskMachine
from ..pdm.striping import VirtualDisks, default_virtual_disk_count
from ..pram.primitives import log2_ceil
from ..pram.sorting import cole_merge_sort, rajasekaran_reif_radix
from ..records import RECORD_DTYPE, sort_records
from .balance import BalanceEngine, BucketRun
from .partition import pdm_partition_elements, validate_bucket_sizes
from .streams import (
    OrderedRun,
    concat_runs,
    load_ordered_run,
    read_run_all,
    read_run_batches,
    write_ordered_run,
)

__all__ = ["balance_sort_pdm", "PDMSortResult", "default_bucket_count"]


def default_bucket_count(m: int, b: int) -> int:
    """The paper's ``S = (M/B)^{1/4}``, floored at 3 (recursion progress)."""
    return max(3, round((m / b) ** 0.25))


@dataclass
class PDMSortResult:
    """Output run plus everything the experiments measure."""

    output: OrderedRun
    n_records: int
    io_stats: dict
    cpu: dict
    storage: VirtualDisks | None = None
    recursion_depth: int = 0
    distribution_passes: int = 0
    engine_rounds: int = 0
    blocks_swapped: int = 0
    blocks_unprocessed: int = 0
    match_calls: int = 0
    match_fallbacks: int = 0
    max_balance_factor: float = 1.0
    max_bucket_ratio: float = 0.0  # worst bucket size / (2N/S)

    @property
    def total_ios(self) -> int:
        return self.io_stats["total_ios"]


@dataclass
class _Aggregate:
    depth: int = 0
    passes: int = 0
    rounds: int = 0
    swapped: int = 0
    unprocessed: int = 0
    match_calls: int = 0
    match_fallbacks: int = 0
    balance_factor: float = 1.0
    bucket_ratio: float = 0.0


def balance_sort_pdm(
    machine: ParallelDiskMachine,
    records: np.ndarray | None = None,
    *,
    run: OrderedRun | None = None,
    storage: VirtualDisks | None = None,
    virtual_disks: int | None = None,
    buckets: int | None = None,
    matcher: str = "derandomized",
    internal: str = "cole",
    rng: np.random.Generator | None = None,
    check_invariants: bool = True,
    obs=None,
) -> PDMSortResult:
    """Sort ``records`` (or an already loaded ``run``) on a PDM machine.

    Parameters
    ----------
    machine:
        The :class:`~repro.pdm.machine.ParallelDiskMachine` to run on; its
        I/O statistics and CPU counters are the experiment's measurements.
    matcher:
        Rebalancing matcher (see :class:`~repro.core.balance.BalanceEngine`).
    internal:
        Internal-sort flavour: ``"cole"`` (EREW, [Col], charged model),
        ``"radix"`` (CRCW, [RaR], charged model), or
        ``"radix-operational"`` (CRCW, every radix pass executed on the
        PRAM — :func:`repro.pram.radix.radix_sort`).
    buckets / virtual_disks:
        Override ``S`` and ``D'`` (defaults: ``(M/B)^{1/4}`` and partial
        striping at ``~D^{1/3}``).
    obs:
        Optional :class:`~repro.obs.Observation`.  When given, the machine
        and Balance engine stream metrics/events into it and every phase
        (``partition`` / ``distribute`` / ``recurse`` / ``base-case``)
        becomes a span carrying I/O and CPU attribution (spans are
        *inclusive*: a phase's costs include its nested spans).  When
        ``None`` (default) no instrumentation runs and measured I/O/CPU
        counts are bit-identical to the uninstrumented code path.
    """
    if (records is None) == (run is None):
        raise ParameterError("provide exactly one of records / run")
    if storage is None:
        storage = VirtualDisks(
            machine, virtual_disks or default_virtual_disk_count(machine.D)
        )
    if run is None:
        run = load_ordered_run(storage, records)
    n = run.n_records

    if internal == "cole":
        internal_sort = lambda recs: cole_merge_sort(machine.cpu, recs)
    elif internal == "radix":
        internal_sort = lambda recs: rajasekaran_reif_radix(machine.cpu, recs)
    elif internal == "radix-operational":
        from ..pram.radix import radix_sort

        internal_sort = lambda recs: radix_sort(machine.cpu, recs)
    else:
        raise ParameterError(f"unknown internal sort {internal!r}")

    s = buckets or default_bucket_count(machine.M, machine.B)
    agg = _Aggregate()
    rng = rng or np.random.default_rng(2718)

    tracer = NULL_TRACER
    if obs is not None:
        machine.attach_obs(obs)
        tracer = obs.tracer

    # The whole sort runs under one fused I/O plan: every logical round
    # still charges IOStats / ledger / obs at its usual point (the cost
    # model and trace are bit-identical with plans off), but physical
    # store traffic is batched — reads gathered a window of rounds at a
    # time, writes scattered once per window (see machine.io_plan).  The
    # scope is a no-op under fault injection / checksums or REPRO_IO_PLAN=0.
    with machine.io_plan():
        output = _sort(
            machine, storage, run, n, s, matcher, internal_sort, rng,
            check_invariants, agg, depth=0, obs=obs, tracer=tracer,
        )
    return PDMSortResult(
        output=output,
        n_records=n,
        io_stats=machine.stats.snapshot(),
        cpu=machine.cpu.snapshot(),
        storage=storage,
        recursion_depth=agg.depth,
        distribution_passes=agg.passes,
        engine_rounds=agg.rounds,
        blocks_swapped=agg.swapped,
        blocks_unprocessed=agg.unprocessed,
        match_calls=agg.match_calls,
        match_fallbacks=agg.match_fallbacks,
        max_balance_factor=agg.balance_factor,
        max_bucket_ratio=agg.bucket_ratio,
    )


def _memoryload(machine: ParallelDiskMachine, storage: VirtualDisks, s: int) -> int:
    """Records processed per streaming step, leaving room for the engine.

    Reserves partial-block buffers (S blocks), the in-flight queue
    (2·D' blocks), and one read batch.
    """
    vb = storage.virtual_block_size
    reserve = (s + 2 * storage.n_virtual + 1) * vb
    load = machine.M - reserve
    if load < max(4 * s, machine.D * machine.B):
        raise ParameterError(
            f"machine too small: M={machine.M} cannot hold S={s} partial "
            f"blocks of {vb} records plus a memoryload"
        )
    return load


@contextmanager
def _phase(tracer, machine, name, **attrs):
    """Span a sort phase and attribute the machine-cost deltas to it."""
    stats = machine.stats
    read0 = stats.read_ios
    write0 = stats.write_ios
    work0 = machine.cpu.work
    time0 = machine.cpu.time
    with tracer.span(name, **attrs) as span:
        yield span
        read_ios = stats.read_ios - read0
        write_ios = stats.write_ios - write0
        span.annotate(
            ios=read_ios + write_ios,
            read_ios=read_ios,
            write_ios=write_ios,
            cpu_work=machine.cpu.work - work0,
            cpu_time=machine.cpu.time - time0,
        )


def _sort(machine, storage, run, n, s, matcher, internal_sort, rng,
          check_invariants, agg, depth, obs=None, tracer=NULL_TRACER) -> OrderedRun:
    agg.depth = max(agg.depth, depth)
    vb = storage.virtual_block_size

    if n == 0:
        return OrderedRun(blocks=[], n_records=0)
    # Base case: N ≤ M (minus working room) — one read, internal sort, write.
    if n <= machine.M - (storage.n_virtual + 1) * vb:
        with _phase(tracer, machine, "base-case", n=n, level=depth):
            recs = read_run_all(storage, run, free=True)
            out = internal_sort(recs)
            return write_ordered_run(storage, out)

    memoryload = _memoryload(machine, storage, s)

    # --- partition elements ([ViSa] sampling pass) ----------------------
    with _phase(tracer, machine, "partition", n=n, s=s, level=depth):
        pivots = pdm_partition_elements(
            machine, storage, run, s, memoryload, internal_sort=internal_sort
        )

    # --- distribution pass (Balance, Section 5 flavour) ------------------
    engine = BalanceEngine(
        storage, pivots, matcher=matcher, rng=rng, check_invariants=check_invariants
    )
    if obs is not None:
        engine.attach_obs(obs)
        # Auditors and other engine-level monitors ride the same per-round
        # hook (see Observation.engine_observers / obs.audit.TheoryAuditor).
        for callback in obs.engine_observers:
            engine.add_round_observer(callback)
    agg.passes += 1
    hp = storage.n_virtual
    lg_s = log2_ceil(s)
    with _phase(tracer, machine, "distribute", n=n, level=depth) as dspan:
        # The engine groups a whole gather window at a time; each track's
        # blocks are queued at the track's own read, as if fed alone.
        for chunk, blocks in read_run_batches(
            storage, run, free=True, window_map=engine.feed
        ):
            engine.enqueue(blocks)
            # CPU: partition the chunk among S sorted pivots (binary search).
            machine.cpu.charge(
                work=chunk.shape[0] * lg_s, depth=lg_s, label="partition"
            )
            engine.run_rounds(drain_below=2 * hp)
        bucket_runs = engine.flush()
        # CPU: matrix upkeep (incremental updating, Section 5) and matching.
        machine.cpu.charge(
            work=engine.stats.rounds * hp, depth=engine.stats.rounds, label="matrix-upkeep"
        )
        if engine.stats.match_calls:
            machine.cpu.charge(
                work=engine.stats.match_calls * hp * log2_ceil(hp),
                depth=engine.stats.match_calls * log2_ceil(machine.P),
                label="matching",
            )
        dspan.annotate(
            rounds=engine.stats.rounds,
            swapped=engine.stats.blocks_swapped,
            unprocessed=engine.stats.blocks_unprocessed,
            match_calls=engine.stats.match_calls,
        )

    agg.rounds += engine.stats.rounds
    agg.swapped += engine.stats.blocks_swapped
    agg.unprocessed += engine.stats.blocks_unprocessed
    agg.match_calls += engine.stats.match_calls
    agg.match_fallbacks += engine.stats.match_fallbacks
    agg.balance_factor = max(agg.balance_factor, engine.matrices.max_balance_factor())
    agg.bucket_ratio = max(
        agg.bucket_ratio, validate_bucket_sizes(engine.bucket_record_counts, n, s)
    )

    # --- recurse per bucket and append (Algorithm 1, steps 7–9) ---------
    outputs = []
    with _phase(tracer, machine, "recurse", n=n, level=depth):
        for brun in bucket_runs:
            if brun.n_records == 0:
                continue
            if brun.n_records >= n:
                raise ParameterError(
                    f"bucket {brun.bucket} did not shrink ({brun.n_records}/{n}); "
                    f"S={s} too small for this input"
                )
            outputs.append(
                _sort(machine, storage, brun, brun.n_records, s, matcher,
                      internal_sort, rng, check_invariants, agg, depth + 1,
                      obs=obs, tracer=tracer)
            )
    return concat_runs(outputs)
