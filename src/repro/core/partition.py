"""Partition-element selection.

Two deterministic methods, as in the paper:

* :func:`pdm_partition_elements` — the [ViSa] memoryload-sampling method the
  parallel-disk variant uses (Section 5): stream the input one memoryload at
  a time, sort each load internally, keep every ``t``-th element
  (``t = ⌊memoryload/(4S)⌋``), sort the sample (:func:`pdm_sample`), and
  take ``S−1`` evenly spaced elements (:func:`evenly_spaced_pivots`;
  :func:`histogram_candidates` takes further evenly spaced keys for a
  pass that counts its records against them).  Guarantee: every bucket
  receives fewer than ``N/S + t·(⌈N/memoryload⌉ + 1)`` records.  With
  ``t ≤ memoryload/(4S)`` that is ``< N/S + N/(4S) + memoryload/(2S)``,
  which is inside the paper's ``< 2N/S`` because ``N`` exceeds the base
  case and so a memoryload;
  ``1.5·N/S`` only follows once ``N ≥ 2·memoryload`` (at ``N = 530``,
  ``D = 4`` the inequality gives 287.7, above ``1.5·N/S = 265``).
* :func:`hierarchy_partition_elements` — Algorithm 2: split the input into
  ``G`` groups, sort each *recursively* (the caller passes its own sort
  back in), set aside every ``⌊log N⌋``-th element of each sorted group
  into ``C``, sort ``C`` by binary merge sort with hierarchy striping
  (charged), and pick every ``⌊N/((S−1) log N)⌋``-th element.  With
  ``G log N ≤ N/S`` this yields ``0 < N_b < 2N/S`` for every bucket.

Both operate on *composite keys* (key, rid packed), so duplicates in the raw
keys never produce empty or overfull buckets — the paper's distinctness
assumption realized.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from ..exceptions import ParameterError
from ..records import composite_keys, concat_records
from .streams import OrderedRun, as_ordered_run, read_run_batches

__all__ = [
    "pdm_sample",
    "pdm_partition_elements",
    "evenly_spaced_pivots",
    "histogram_candidates",
    "hierarchy_partition_elements",
    "selection_partition_elements",
    "validate_bucket_sizes",
    "paper_floor_log2",
]


def paper_floor_log2(n: int) -> int:
    """``max(1, ⌊log₂ n⌋)`` — the sampling stride unit of Algorithm 2."""
    return max(1, n.bit_length() - 1)


def _pivot_ranks(c: int, s: int) -> np.ndarray:
    """Ranks ``⌈j·c/S⌉ − 1`` (0-based), ``j = 1 … S−1``, of a sorted sample of ``c``."""
    if c < s - 1:
        raise ParameterError(f"sample of {c} too small for {s - 1} pivots")
    return np.ceil(np.arange(1, s) * c / s).astype(np.int64) - 1


def evenly_spaced_pivots(sample_sorted: np.ndarray, s: int) -> np.ndarray:
    """``S−1`` pivots at ranks ``⌈j·|C|/S⌉`` of the sorted sample."""
    return sample_sorted[_pivot_ranks(sample_sorted.shape[0], s)]


def histogram_candidates(sample_sorted: np.ndarray, s: int, q: int) -> np.ndarray:
    """``q`` candidate splitters at evenly spaced ranks of the sorted
    sample, its ``S−1`` pivots excluded (every other key when ``q`` or
    fewer remain).

    A pass counts its records against the union of pivots and
    candidates, so each bucket's size is known per interval between
    consecutive keys (:class:`~repro.core.balance.BalanceEngine`).
    """
    rest = np.delete(sample_sorted, _pivot_ranks(sample_sorted.shape[0], s))
    if rest.shape[0] <= q:
        return rest
    ranks = np.ceil(np.arange(1, q + 1) * rest.shape[0] / (q + 1)).astype(np.int64) - 1
    return rest[ranks]


def pdm_partition_elements(
    machine,
    storage,
    run,
    s: int,
    memoryload: int,
    internal_sort: Callable | None = None,
    span=None,
) -> np.ndarray:
    """[ViSa] partition elements: ``S−1`` composite-key pivots evenly
    spaced in :func:`pdm_sample`'s sorted sample."""
    sample = pdm_sample(machine, storage, run, s, memoryload, internal_sort, span)
    return evenly_spaced_pivots(sample, s)


def pdm_sample(
    machine,
    storage,
    run,
    s: int,
    memoryload: int,
    internal_sort: Callable | None = None,
    span=None,
) -> np.ndarray:
    """[ViSa] sampling over memoryloads (Section 5).  One streaming pass.

    Reads the run one memoryload at a time (records leave memory after
    sampling), charging the machine's CPU for each internal sort via
    ``internal_sort`` (default: the charged Cole model on ``machine.cpu``).
    Returns the sorted sample of composite keys.  A tracer ``span``, when
    given, is annotated with ``sample``: the keys the sample kept,
    metadata off the memory ledger.
    """
    from ..pram.sorting import cole_merge_sort

    if s < 2:
        raise ParameterError("need at least 2 buckets")
    if memoryload < 4 * s:
        raise ParameterError(
            f"memoryload {memoryload} too small for S={s} (need ≥ 4S)"
        )
    sorter = internal_sort or (lambda recs: cole_merge_sort(machine.cpu, recs))
    t = max(1, memoryload // (4 * s))
    samples = []
    buffer = []
    buffered = 0

    def drain(chunks: list, size: int) -> None:
        if size == 0:
            return
        load = concat_records(chunks) if len(chunks) > 1 else chunks[0]
        sorted_load = sorter(load)
        ck = composite_keys(sorted_load)
        samples.append(ck[t - 1 :: t].copy())
        storage.release_memory(int(size))  # records leave memory; disk copy remains

    for chunk in read_run_batches(storage, run, free=False):
        buffer.append(chunk)
        buffered += chunk.shape[0]
        if buffered >= memoryload:
            drain(buffer, buffered)
            buffer, buffered = [], 0
    drain(buffer, buffered)

    sample = np.concatenate(samples) if samples else np.empty(0, dtype=np.uint64)
    sample.sort()  # the sample is metadata kept in memory, like X/A/L/E
    if span is not None:
        span.annotate(sample=int(sample.size))
    return sample


def hierarchy_partition_elements(
    machine,
    storage,
    run: OrderedRun,
    n: int,
    s: int,
    g: int,
    recursive_sort: Callable,
) -> tuple[np.ndarray, list[OrderedRun]]:
    """Algorithm 2 (``ComputePartitionElements``).

    Splits ``run`` into ``G`` block-aligned groups, recursively sorts each
    with ``recursive_sort(group_run, group_n) -> OrderedRun``, samples every
    ``⌊log N⌋``-th element into ``C``, sorts ``C`` (charged binary merge
    sort with hierarchy striping), and returns ``(pivots, sorted_groups)``
    — the sorted groups are handed to Balance, which is what makes partial
    hierarchy striping possible (Section 4.1).
    """
    if s < 2 or g < 1:
        raise ParameterError(f"need S ≥ 2 and G ≥ 1, got S={s}, G={g}")
    if g * paper_floor_log2(n) > n // s + 1:
        raise ParameterError(
            f"Algorithm 2 requires G·log N ≤ N/S (G={g}, log N="
            f"{paper_floor_log2(n)}, N/S={n // s})"
        )
    vb = storage.virtual_block_size
    run = as_ordered_run(run)
    blocks_per_group = -(-run.n_blocks // g)
    stride = paper_floor_log2(n)

    sorted_groups: list[OrderedRun] = []
    sample_parts = []
    for gi in range(g):
        lo = gi * blocks_per_group
        hi = min(lo + blocks_per_group, run.n_blocks)
        if lo >= hi:
            break
        group = run.slice_blocks(lo, hi)
        sorted_group = recursive_sort(group, group.n_records)
        sorted_groups.append(sorted_group)
        # Step (2): set aside every ⌊log N⌋-th element into C.  The scan is
        # a charged full read of the sorted group.
        offset = 0
        for chunk in read_run_batches(storage, sorted_group, free=False):
            ck = composite_keys(chunk)
            first = (stride - 1 - offset) % stride
            sample_parts.append(ck[first::stride].copy())
            offset = (offset + chunk.shape[0]) % stride
            storage.release_memory(int(chunk.shape[0]))

    sample = np.concatenate(sample_parts) if sample_parts else np.empty(0, dtype=np.uint64)
    # Step (3): sort C by binary merge sort with hierarchy striping (charged).
    _charge_striped_sort(machine, sample.shape[0], storage.n_virtual, vb)
    sample.sort()
    # Step (4): e_j := the ⌊N/((S−1) log N)⌋·j-th smallest element of C.
    pivots = evenly_spaced_pivots(sample, s)
    return pivots, sorted_groups


def _charge_striped_sort(machine, n: int, hp: int, vb: int) -> None:
    """Charge a binary merge sort of n records with hierarchy striping.

    ``⌈log₂(n/(H'·VB))⌉`` merge passes, each streaming the data once:
    memory side ≈ one scan of the per-hierarchy footprint per pass,
    interconnect side ≈ ``n/H + log H`` merge time per pass.
    """
    if n <= 0:
        return
    per_channel = -(-n // (hp * vb))
    passes = max(1, math.ceil(math.log2(max(2, per_channel * hp))))
    h = getattr(machine, "h", hp)
    scan = machine.cost_fn.scan_cost(0, max(1, per_channel))
    for _ in range(passes):
        machine.parallel_step([scan])
        machine.charge_interconnect(n / h + math.log2(max(2, h)))


def selection_partition_elements(
    machine,
    storage,
    run,
    s: int,
    memoryload: int,
) -> np.ndarray:
    """Pivot selection via deterministic linear-time selection ([BFP]).

    An alternative to the sorting-based sample reduction: the same
    memoryload sampling pass, but the ``S−1`` pivots are then extracted by
    repeated Blum–Floyd–Pratt–Rivest–Tarjan selection instead of sorting
    the whole sample — ``O(S·|C|)`` work instead of ``O(|C| log |C|)``,
    the trade the paper's deterministic toolbox (which cites [BFP]) makes
    available when ``S`` is small.  Produces *identical pivots* to
    :func:`pdm_partition_elements` (both select the same ranks), which the
    E13 ablation verifies; only the CPU charge differs.
    """
    from ..pram.sorting import cole_merge_sort
    from ..util.order_stats import median_of_medians

    if s < 2:
        raise ParameterError("need at least 2 buckets")
    if memoryload < 4 * s:
        raise ParameterError(
            f"memoryload {memoryload} too small for S={s} (need ≥ 4S)"
        )
    t = max(1, memoryload // (4 * s))
    samples = []
    buffer: list[np.ndarray] = []
    buffered = 0

    def drain(chunks, size):
        if size == 0:
            return
        load = concat_records(chunks) if len(chunks) > 1 else chunks[0]
        sorted_load = cole_merge_sort(machine.cpu, load)
        samples.append(composite_keys(sorted_load)[t - 1 :: t].copy())
        storage.release_memory(int(size))

    for chunk in read_run_batches(storage, run, free=False):
        buffer.append(chunk)
        buffered += chunk.shape[0]
        if buffered >= memoryload:
            drain(buffer, buffered)
            buffer, buffered = [], 0
    drain(buffer, buffered)

    sample = np.concatenate(samples) if samples else np.empty(0, dtype=np.uint64)
    c = sample.shape[0]
    if c < s - 1:
        raise ParameterError(f"sample of {c} too small for {s - 1} pivots")
    ranks = np.ceil(np.arange(1, s) * c / s).astype(np.int64)  # 1-indexed
    values = [int(v) for v in sample]
    pivots = np.array(
        [median_of_medians(values, int(r)) for r in ranks], dtype=np.uint64
    )
    # CPU charge: S−1 linear-time selections over the sample.
    machine.cpu.charge(work=int(5 * (s - 1) * c), depth=(s - 1), label="bfprt-select")
    return pivots


def validate_bucket_sizes(counts: np.ndarray, n: int, s: int) -> float:
    """Max bucket size as a fraction of the paper's 2N/S bound (≤ 1 is good)."""
    counts = np.asarray(counts)
    if counts.sum() != n:
        raise ParameterError(f"bucket counts sum to {counts.sum()}, expected {n}")
    bound = 2 * n / s
    return float(counts.max() / bound) if n else 0.0
