"""Balance Sort on the parallel disk model (Section 5; Theorem 1).

Structure (the Section 5 modifications to Algorithm 1):

* recursion terminates at ``N ≤ M`` — read everything, sort internally
  (charged to the attached PRAM: Cole's merge sort on an EREW interconnect,
  the Rajasekaran–Reif radix sort on CRCW), write back;
* ``S`` buckets, planned per subproblem (:func:`plan_bucket_count`): the
  paper's ``(M/B)^{1/4}`` or wider, up to what the memoryload admits —
  the narrowest that provably leaves every child a base case, else the
  widest;
* partition elements come from the [ViSa] memoryload-sampling method
  (:func:`repro.core.partition.pdm_partition_elements`), or, below a
  pass expected to leave its children exactly one more pass, from the
  exact counts that pass took while distributing (histogram splitters,
  :func:`histogram_split`): such a child skips its sampling read;
* the Balance engine reads memoryloads (streamed at full ``DB``-records-
  per-I/O bandwidth) and places virtual blocks on the ``D'`` partially
  striped virtual disks, rebalancing with ``Fast-Partial-Match``;
* each bucket is sorted recursively and appended to the output.

The recursion gives ``T(N) = S·T(N/S) + O(N/DB)`` I/Os, i.e.
``O((N/DB)·log(N/B)/log(M/B))`` — the optimal bound of [AgV] — while the
CPU charges accumulate to ``O((N/P) log N)`` work.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from ..exceptions import ParameterError
from ..obs import NULL_TRACER
from ..pdm.machine import ParallelDiskMachine
from ..pdm.striping import VirtualDisks, default_virtual_disk_count
from ..pram.primitives import log2_ceil, prefix_sum
from ..pram.radix import radix_sort
from ..pram.sorting import cole_merge_sort, rajasekaran_reif_radix
from .balance import BalanceEngine
from .partition import (
    evenly_spaced_pivots,
    histogram_candidates,
    pdm_sample,
    validate_bucket_sizes,
)
from .streams import (
    OrderedRun,
    concat_runs,
    load_ordered_run,
    read_run_all,
    read_run_batches,
    write_ordered_run,
)

__all__ = [
    "balance_sort_pdm",
    "PDMSortResult",
    "default_bucket_count",
    "plan_bucket_count",
    "histogram_size",
    "histogram_split",
    "INTERNAL_SORTS",
]

#: The internal-sort flavours ``balance_sort_pdm`` accepts.
INTERNAL_SORTS = ("cole", "radix", "radix-operational")


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
        Fix ``S`` at every level and override ``D'`` (defaults: ``S``
        planned per subproblem by :func:`plan_bucket_count`, and partial
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
        if virtual_disks is None:
            virtual_disks = default_virtual_disk_count(machine.D)
        storage = VirtualDisks(machine, virtual_disks)
    if run is None:
        run = load_ordered_run(storage, records)
    n = run.n_records

    if internal == "cole":
        internal_sort = lambda recs: cole_merge_sort(machine.cpu, recs)
    elif internal == "radix":
        internal_sort = lambda recs: rajasekaran_reif_radix(machine.cpu, recs)
    elif internal == "radix-operational":
        internal_sort = lambda recs: radix_sort(machine.cpu, recs)
    else:
        raise ParameterError(f"unknown internal sort {internal!r}")

    agg = _Aggregate()
    rng = rng or np.random.default_rng(2718)

    tracer = NULL_TRACER
    if obs is not None:
        machine.attach_obs(obs)
        tracer = obs.tracer

    output = _sort(
        machine, storage, run, n, buckets, matcher, internal_sort, rng,
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
    if s < 2:
        raise ParameterError(f"need at least 2 buckets, got S={s}")
    vb = storage.virtual_block_size
    reserve = (s + 2 * storage.n_virtual + 1) * vb
    load = machine.M - reserve
    if load < max(4 * s, machine.D * machine.B):
        raise ParameterError(
            f"machine too small: M={machine.M} cannot hold S={s} partial "
            f"blocks of {vb} records plus a memoryload"
        )
    return load


def plan_bucket_count(machine: ParallelDiskMachine, storage: VirtualDisks, n: int) -> int:
    """The fan-out ``S`` for a subproblem of ``n`` records above the base case.

    The candidates are the paper's ``S₀ = (M/B)^{1/4}`` and every wider
    ``S`` whose memoryload :func:`_memoryload` admits with a [ViSa]
    stride ``t(S) = ⌊memoryload/(4S)⌋`` of at least ``B`` (so the sample
    keeps at most one key per block).  Every child of a pass is smaller
    than ``n/S + t·(⌈n/memoryload⌉ + 1)``, the guarantee of
    :func:`~repro.core.partition.pdm_partition_elements`; the plan takes
    the narrowest candidate for which that is a base case, so the
    recursion provably ends one level down, and otherwise the widest
    (fewest levels).  Every candidate keeps Theorem 1's bound (DESIGN.md
    §2, "Planned fan-out").
    """
    base = _base_case(machine, storage)
    s = default_bucket_count(machine.M, machine.B)
    load = _memoryload(machine, storage, s)
    while n / s + max(1, load // (4 * s)) * (-(-n // load) + 1) > base:
        try:
            wider = _memoryload(machine, storage, s + 1)
        except ParameterError:
            break
        if wider // (4 * (s + 1)) < machine.B:
            break
        s, load = s + 1, wider
    return s


def _base_case(machine: ParallelDiskMachine, storage: VirtualDisks) -> int:
    """The largest subproblem sorted in memory: ``M − (D′+1)·VB``."""
    return machine.M - (storage.n_virtual + 1) * storage.virtual_block_size


def _widest_bucket_count(machine: ParallelDiskMachine, storage: VirtualDisks) -> int:
    """``S_max``: the widest ``S`` whose memoryload :func:`_memoryload` admits."""
    s = default_bucket_count(machine.M, machine.B)
    while True:
        try:
            _memoryload(machine, storage, s + 1)
        except ParameterError:
            return s
        s += 1


def histogram_size(machine: ParallelDiskMachine, storage: VirtualDisks, n: int, s: int) -> int:
    """``q``: the candidate keys a pass of ``n`` records at ``S`` counts
    against, 0 when it collects no histogram.

    A pass collects when its children are expected to need exactly one
    more pass: ``n/S`` is above the base case but at most ``S_max`` base
    cases.  It holds ``memoryload(S) − D·B`` keys, each with its count
    one record on the ledger, which leaves one read round of room beside
    the engine's reserve (DESIGN.md §2, "Histogram splitters"); where
    the memoryload is a single read round, that is none.
    """
    base = _base_case(machine, storage)
    if not base < n / s <= _widest_bucket_count(machine, storage) * base:
        return 0
    return _memoryload(machine, storage, s) - machine.D * machine.B


def histogram_split(
    machine: ParallelDiskMachine, storage: VirtualDisks,
    keys: np.ndarray, counts: np.ndarray,
) -> np.ndarray | None:
    """A child's ``S_c − 1`` splitters from its exact interval counts, or
    None when the counts cannot prove every one of its buckets a base case.

    ``keys`` are the child's inner candidate keys and ``counts`` its
    records per interval between them (:meth:`BalanceEngine.histogram`).
    ``S_c`` is the smallest ``S`` from ``S₀`` up that :func:`_memoryload`
    admits whose boundaries — the candidate keys nearest the ranks
    ``j·n_b/S`` — give every bucket at most the base case and fewer than
    ``2n_b/S`` records; both hold exactly, by the counts.  Of keys
    equally near a rank, the lowest.  Charged as one prefix sum over the
    intervals.
    """
    ranks = prefix_sum(machine.cpu, counts)
    n = int(ranks[-1])
    ranks = ranks[:-1]  # records below each key
    base = _base_case(machine, storage)
    if ranks.size == 0:
        return None
    # Fewer than ⌈n/base⌉ buckets cannot all be base cases.
    first = max(default_bucket_count(machine.M, machine.B), -(-n // base))
    for s in range(first, _widest_bucket_count(machine, storage) + 1):
        targets = np.arange(1, s) * n / s
        above = np.minimum(np.searchsorted(ranks, targets), ranks.size - 1)
        below = np.maximum(above - 1, 0)
        pick = np.where(targets - ranks[below] <= ranks[above] - targets, below, above)
        pick = np.searchsorted(ranks, ranks[pick])  # ties: the lowest key
        largest = int(np.diff(ranks[pick], prepend=0, append=n).max())
        if largest <= base and largest * s < 2 * n:
            return keys[pick]
    return None


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


def _sort(machine, storage, run, n, buckets, matcher, internal_sort, rng,
          check_invariants, agg, depth, obs=None, tracer=NULL_TRACER,
          pivots=None) -> OrderedRun:
    """Sort one subproblem; ``buckets`` fixes its ``S`` (None: planned),
    and ``pivots`` (from its parent's histogram) skip its [ViSa] read."""
    agg.depth = max(agg.depth, depth)
    hp = storage.n_virtual
    base = _base_case(machine, storage)

    if n == 0:
        return OrderedRun(blocks=[], n_records=0)
    # Base case: N ≤ M (minus working room) — one read, internal sort, write.
    if n <= base:
        with _phase(tracer, machine, "base-case", n=n, level=depth):
            recs = read_run_all(storage, run, free=True)
            out = internal_sort(recs)
            return write_ordered_run(storage, out)

    # --- partition elements ([ViSa] sampling pass, or the histogram) ----
    candidates = None
    if pivots is not None:
        s = pivots.size + 1
        with _phase(tracer, machine, "partition", n=n, s=s, level=depth,
                    source="histogram") as pspan:
            pspan.annotate(sample=0)
    else:
        s = plan_bucket_count(machine, storage, n) if buckets is None else buckets
        with _phase(tracer, machine, "partition", n=n, s=s, level=depth) as pspan:
            sample = pdm_sample(
                machine, storage, run, s, _memoryload(machine, storage, s),
                internal_sort=internal_sort, span=pspan,
            )
            pivots = evenly_spaced_pivots(sample, s)
            q = 0 if buckets is not None else histogram_size(machine, storage, n, s)
            if q:
                candidates = histogram_candidates(sample, s, q)
            del sample  # off-ledger metadata: not held through the recursion

    # --- distribution pass (Balance, Section 5 flavour) ------------------
    engine = BalanceEngine(
        storage, pivots, matcher=matcher, rng=rng, check_invariants=check_invariants,
        candidates=candidates,
    )
    if obs is not None:
        engine.attach_obs(obs)  # records and audits every round
        # Other engine-level monitors get each round's info dict (see
        # Observation.engine_observers).
        for callback in obs.engine_observers:
            engine.add_round_observer(callback)
    agg.passes += 1
    q = 0 if candidates is None else int(candidates.size)
    lg_s = log2_ceil(s + q)
    attrs = {} if candidates is None else {"histogram": q}
    splits = {}  # bucket -> its child's splitters
    with _phase(tracer, machine, "distribute", n=n, level=depth, **attrs) as dspan, engine:
        # The histogram's keys and counts sit on the ledger for the pass.
        storage.acquire_memory(q)
        # The engine groups a whole gather window at a time; each track's
        # blocks are queued at the track's own read, as if fed alone.
        # Its flush writes the blocks it still holds, so this span's
        # write_ios count every write of the pass.
        for chunk, blocks in read_run_batches(
            storage, run, free=True, window_map=engine.feed
        ):
            engine.enqueue(blocks)
            # CPU: partition the chunk among S sorted pivots (binary search),
            # or among pivots and candidates under a histogram.
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
        if candidates is not None:
            for brun in bucket_runs:
                if brun.n_records > base:
                    split = histogram_split(
                        machine, storage, *engine.histogram(brun.bucket)
                    )
                    if split is not None:
                        splits[brun.bucket] = split
        storage.release_memory(q)
        dspan.annotate(
            rounds=engine.stats.rounds,
            swapped=engine.stats.blocks_swapped,
            unprocessed=engine.stats.blocks_unprocessed,
            match_calls=engine.stats.match_calls,
            spills=engine.stats.spill_writes,
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
                _sort(machine, storage, brun, brun.n_records, buckets, matcher,
                      internal_sort, rng, check_invariants, agg, depth + 1,
                      obs=obs, tracer=tracer, pivots=splits.get(brun.bucket))
            )
    return concat_runs(outputs)
