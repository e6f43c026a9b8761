"""Balance Sort on parallel memory hierarchies (Section 4; Algorithm 1).

``Sort(N, T)``:

* **base case** ``N ≤ max(3H, 20)`` — bring the records to the base level
  ``H`` at a time, sort each batch on the interconnect (``T(H)`` each),
  write back, and binary-merge the sorted lists (≤ 3 of them when
  ``N ≤ 3H``; the floor of 20 covers the small ``N`` for which Algorithm 2
  has no ``(S, G)``, reached only when ``H ≤ 6``);
* **recursive case** — ``ComputePartitionElements`` (Algorithm 2: ``G``
  recursively sorted groups, sample every ⌊log N⌋-th element), then
  ``Balance`` distributes the sorted groups' records into ``S`` buckets
  across the ``H' = H^{1/3}`` virtual hierarchies, then each bucket is
  sorted recursively and concatenated.

The cost model: virtual-block reads/writes charge ``max f(address+1)`` per
parallel step (HMM) or the Section 4.4 effective streaming cost (BT), the
interconnect charges ``T(H)`` per base-level sort and per matching call,
and on P-BT each recursion level additionally charges the [ACSa]
generalized-transposition repositioning of the buckets
(``O((N/H)(log log(N/H))⁴)``).

Parameter choices (Section 4.3 shape): ``S ≈ √(N / log N)`` capped so that
``G·log N ≤ N/S`` with ``G = ⌊N/(S·⌊log N⌋)⌋ ≥ 2`` — the constraint under
which Algorithm 2 guarantees ``0 < N_b < 2N/S``.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from ..exceptions import ParameterError
from ..obs import NULL_TRACER
from ..hierarchies.parallel import (
    EffectiveBTCost,
    ParallelHierarchies,
    VirtualHierarchies,
)
from ..records import sort_records
from .balance import BalanceEngine
from .partition import hierarchy_partition_elements, paper_floor_log2, validate_bucket_sizes
from .streams import (
    OrderedRun,
    concat_runs,
    load_ordered_run,
    read_run_all,
    read_run_batches,
    reposition_run,
    write_ordered_run,
)

__all__ = [
    "balance_sort_hierarchy", "HierarchySortResult", "choose_s_and_g",
    "BASE_CASE_MIN",
]

#: The base case takes every ``N ≤ max(3H, BASE_CASE_MIN)``.  For some
#: ``N`` up to 20, ``choose_s_and_g`` has no ``(S, G)`` at all; above
#: ``max(3H, 20)`` it always has one (pinned for H ≤ 64, N ≤ 10,000).
BASE_CASE_MIN = 20


@dataclass
class HierarchySortResult:
    """Sorted output run plus the model-time measurements of Theorems 2–3."""

    output: OrderedRun
    n_records: int
    storage: VirtualHierarchies | None
    memory_time: float
    interconnect_time: float
    total_time: float
    parallel_steps: int
    recursion_depth: int = 0
    base_case_calls: int = 0
    engine_rounds: int = 0
    blocks_swapped: int = 0
    blocks_unprocessed: int = 0
    match_calls: int = 0
    match_fallbacks: int = 0
    max_balance_factor: float = 1.0
    max_bucket_ratio: float = 0.0


@dataclass
class _Aggregate:
    depth: int = 0
    base_calls: int = 0
    rounds: int = 0
    swapped: int = 0
    unprocessed: int = 0
    match_calls: int = 0
    match_fallbacks: int = 0
    balance_factor: float = 1.0
    bucket_ratio: float = 0.0


def choose_s_and_g(n: int, h: int) -> tuple[int, int]:
    """Pick (S, G) so S ≥ 3, G ≥ 2, and G·⌊log N⌋ ≤ N/S (Algorithm 2's needs)."""
    lg = paper_floor_log2(n)
    s = max(3, math.isqrt(max(1, n // lg)))
    s = min(s, max(3, h))  # the S−1 partition elements live at the base level
    g = n // (s * lg)
    while g < 2 and s > 3:
        s = max(3, s // 2)
        g = n // (s * lg)
    if g < 2:
        g = 2
        s = max(3, n // (2 * lg))
    if g * lg > n // s + 1:
        raise ParameterError(f"could not satisfy G·log N ≤ N/S for N={n}, H={h}")
    return s, g


def balance_sort_hierarchy(
    machine: ParallelHierarchies,
    records: np.ndarray | None = None,
    *,
    run: OrderedRun | None = None,
    storage: VirtualHierarchies | None = None,
    virtual_hierarchies: int | None = None,
    matcher: str = "derandomized",
    rng: np.random.Generator | None = None,
    check_invariants: bool = True,
    obs=None,
) -> HierarchySortResult:
    """Sort on P-HMM or P-BT (chosen by ``machine.model``), Theorems 2–3.

    ``obs`` (optional :class:`~repro.obs.Observation`) instruments the
    machine, the Balance engine, and the phase boundaries (``partition`` —
    Algorithm 2's group run formation + sampling — / ``distribute`` /
    ``recurse`` / ``base-case``), attributing memory and interconnect time
    to each span.  ``None`` (default) leaves every hot path untouched.
    """
    if (records is None) == (run is None):
        raise ParameterError("provide exactly one of records / run")
    if storage is None:
        effective = EffectiveBTCost(machine.cost_fn) if machine.model == "bt" else None
        storage = VirtualHierarchies(
            machine, n_virtual=virtual_hierarchies, effective_cost=effective
        )
    if run is None:
        run = load_ordered_run(storage, records)
    n = run.n_records
    rng = rng or np.random.default_rng(31415)
    agg = _Aggregate()

    tracer = NULL_TRACER
    if obs is not None:
        machine.attach_obs(obs)
        tracer = obs.tracer

    output = _sort(machine, storage, run, n, matcher, rng, check_invariants,
                   agg, 0, obs=obs, tracer=tracer)
    return HierarchySortResult(
        output=output,
        n_records=n,
        storage=storage,
        memory_time=machine.memory_time,
        interconnect_time=machine.interconnect_time,
        total_time=machine.total_time,
        parallel_steps=machine.parallel_steps,
        recursion_depth=agg.depth,
        base_case_calls=agg.base_calls,
        engine_rounds=agg.rounds,
        blocks_swapped=agg.swapped,
        blocks_unprocessed=agg.unprocessed,
        match_calls=agg.match_calls,
        match_fallbacks=agg.match_fallbacks,
        max_balance_factor=agg.balance_factor,
        max_bucket_ratio=agg.bucket_ratio,
    )


@contextmanager
def _phase(tracer, machine, name, **attrs):
    """Span a sort phase and attribute the model-time deltas to it."""
    mem0 = machine.memory_time
    inter0 = machine.interconnect_time
    steps0 = machine.parallel_steps
    with tracer.span(name, **attrs) as span:
        yield span
        span.annotate(
            memory_time=round(machine.memory_time - mem0, 6),
            interconnect_time=round(machine.interconnect_time - inter0, 6),
            parallel_steps=machine.parallel_steps - steps0,
        )


def _sort(machine, storage, run, n, matcher, rng, check_invariants, agg, depth,
          obs=None, tracer=NULL_TRACER) -> OrderedRun:
    agg.depth = max(agg.depth, depth)
    if n == 0:
        return OrderedRun(blocks=[], n_records=0)
    h = machine.h
    if n <= max(3 * h, BASE_CASE_MIN):
        with _phase(tracer, machine, "base-case", n=n, level=depth):
            return _base_case(machine, storage, run, n, agg)

    s, g = choose_s_and_g(n, h)

    # --- Algorithm 2: recursively sorted groups + partition elements -----
    # (Run formation: the G groups are each recursively sorted before the
    # every-⌊log N⌋-th-element sample is taken.)
    with _phase(tracer, machine, "partition", n=n, s=s, g=g, level=depth):
        pivots, sorted_groups = hierarchy_partition_elements(
            machine, storage, run, n, s, g,
            recursive_sort=lambda group, m: _sort(
                machine, storage, group, m, matcher, rng, check_invariants, agg,
                depth + 1, obs=obs, tracer=tracer,
            ),
        )

    # --- Balance: distribute the G sorted runs into S buckets ------------
    engine = BalanceEngine(
        storage, pivots, matcher=matcher, rng=rng, check_invariants=check_invariants
    )
    if obs is not None:
        engine.attach_obs(obs)  # records and audits every round
        # Other engine-level monitors get each round's info dict (see
        # Observation.engine_observers).
        for callback in obs.engine_observers:
            engine.add_round_observer(callback)
    hp = storage.n_virtual
    with _phase(tracer, machine, "distribute", n=n, level=depth) as dspan:
        for group in sorted_groups:
            for chunk, blocks in read_run_batches(
                storage, group, free=True, window_map=engine.feed
            ):
                engine.enqueue(blocks)
                # Partitioning a track among the S−1 sorted partition elements.
                machine.charge_interconnect(
                    chunk.shape[0] / h * math.log2(max(2, s)) + math.log2(max(2, s))
                )
                engine.run_rounds(drain_below=2 * hp)
        bucket_runs = engine.flush()
        machine.charge_interconnect(engine.stats.match_calls * machine.sort_time())
        machine.charge_interconnect(engine.stats.rounds)  # X/A incremental upkeep
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

    # --- recurse per bucket, concatenate (Algorithm 1, steps 7–9) --------
    # Each bucket is first *repositioned* into the (now free) front of the
    # address space — operationally realizing the Section 4.4 repositioning
    # step (the [ACSa] generalized transposition on P-BT) and the standard
    # HMM working-set discipline: the recursion's access costs must scale
    # with the subproblem, not with the parent's footprint.
    outputs = []
    with _phase(tracer, machine, "recurse", n=n, level=depth):
        for brun in bucket_runs:
            if brun.n_records == 0:
                continue
            if brun.n_records >= n:
                raise ParameterError(
                    f"bucket {brun.bucket} did not shrink ({brun.n_records}/{n})"
                )
            compacted = reposition_run(storage, brun)
            outputs.append(
                _sort(machine, storage, compacted, compacted.n_records, matcher, rng,
                      check_invariants, agg, depth + 1, obs=obs, tracer=tracer)
            )
    return concat_runs(outputs)


def _base_case(machine, storage, run, n, agg) -> OrderedRun:
    """Batch-sort at the base level and binary-merge the sorted lists."""
    agg.base_calls += 1
    recs = read_run_all(storage, run, free=True)
    batches = -(-n // machine.h)  # ⌈N/H⌉ interconnect sorts of H records
    machine.charge_base_sort(rounds=batches)
    if batches > 1:
        # Binary merge of the k sorted lists: 2 merge sweeps for k ≤ 3 and
        # ⌈log₂ k⌉ above, each a scan at the base plus a log-H combine.
        sweeps = max(2, (batches - 1).bit_length())
        machine.charge_interconnect(
            sweeps * (n / machine.h + math.log2(max(2, machine.h)))
        )
    out = sort_records(recs)
    return write_ordered_run(storage, out, park=True)
