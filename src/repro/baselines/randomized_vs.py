"""Randomized distribution sort of Vitter and Shriver [ViSa].

The algorithm Balance Sort derandomizes: records are partitioned into
buckets exactly as in Balance Sort, but each full bucket block is written
to a *uniformly random* disk — "the randomization was used to distribute
each of the buckets evenly over the D disks so they could be read
efficiently with parallel I/O" (Section 1).  No histogram/auxiliary/location
matrices, no matching: the balls-in-bins concentration does the balancing
in expectation, and the measured per-bucket read cost is the random
analogue of Theorem 4's deterministic factor-2 bound.

Runs on the *same* machine and storage abstractions as Balance Sort so the
E3 benchmark compares them I/O for I/O; it can also use all ``D`` disks as
independent channels (``virtual_disks=D``) — the freedom randomization
buys, since it needs no ``(H')³`` processors for matching.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from ..exceptions import ParameterError
from ..pdm.machine import ParallelDiskMachine
from ..pdm.striping import VirtualDisks
from ..pram.primitives import log2_ceil
from ..pram.sorting import cole_merge_sort
from ..records import composite_keys, concat_records, pad_records
from ..core.balance import BlockRef, BucketRun
from ..core.partition import pdm_partition_elements
from ..core.sort_pdm import _memoryload, plan_bucket_count
from ..core.streams import (
    OrderedRun,
    concat_runs,
    load_ordered_run,
    read_run_all,
    read_run_batches,
    write_ordered_run,
)

__all__ = ["randomized_distribution_sort", "RandomizedSortResult", "RandomizedPlacer"]


@dataclass
class RandomizedSortResult:
    output: OrderedRun
    n_records: int
    io_stats: dict
    cpu: dict
    storage: object
    recursion_depth: int = 0
    max_balance_factor: float = 1.0

    @property
    def total_ios(self) -> int:
        return self.io_stats["total_ios"]


class RandomizedPlacer:
    """[ViSa] placement: queue full bucket blocks, write each to a random disk.

    Each write round takes the queued blocks, assigns every block an
    independent uniform channel, and writes the subset that landed on
    distinct channels (collisions wait for the next round) — one parallel
    I/O per round, at most one block per disk, exactly the paper's model
    discipline.
    """

    def __init__(self, storage: VirtualDisks, pivots: np.ndarray, rng: np.random.Generator):
        self.storage = storage
        self.pivots = np.asarray(pivots, dtype=np.uint64)
        self.rng = rng
        self.n_buckets = self.pivots.size + 1
        self.n_channels = storage.n_virtual
        self.block_size = storage.virtual_block_size
        self.chains: list[list[list[BlockRef]]] = [
            [[] for _ in range(self.n_channels)] for _ in range(self.n_buckets)
        ]
        self.counts = np.zeros(self.n_buckets, dtype=np.int64)
        self._partials: list[list[np.ndarray]] = [[] for _ in range(self.n_buckets)]
        self._sizes = np.zeros(self.n_buckets, dtype=np.int64)
        self._queue: deque = deque()
        self.rounds = 0
        self.collisions = 0

    def feed(self, records: np.ndarray) -> None:
        """Partition records into buckets and enqueue full blocks."""
        if records.size == 0:
            return
        buckets = np.searchsorted(self.pivots, composite_keys(records), side="right")
        order = np.argsort(buckets, kind="stable")
        recs, bks = records[order], buckets[order]
        edges = np.searchsorted(bks, np.arange(self.n_buckets + 1))
        vb = self.block_size
        for b in range(self.n_buckets):
            chunk = recs[edges[b] : edges[b + 1]]
            if not chunk.size:
                continue
            self.counts[b] += chunk.size
            self._partials[b].append(chunk)
            self._sizes[b] += chunk.size
            while self._sizes[b] >= vb:
                merged = concat_records(self._partials[b])
                self._partials[b] = [merged[vb:]] if merged.shape[0] > vb else []
                self._sizes[b] -= vb
                self._queue.append((b, merged[:vb], vb))

    def write_rounds(self, drain_below: int = 0) -> None:
        """Write queued blocks round by round until ≤ drain_below remain."""
        while len(self._queue) > drain_below:
            self._round()

    def _round(self) -> None:
        self.rounds += 1
        k = min(len(self._queue), self.n_channels)
        entries = [self._queue.popleft() for _ in range(k)]
        channels = self.rng.integers(0, self.n_channels, size=k)
        taken: set[int] = set()
        blocks = []
        writers = []
        for (b, block, fill), ch in zip(entries, channels.tolist()):
            if ch in taken:
                self.collisions += 1
                self._queue.append((b, block, fill))
                continue
            taken.add(ch)
            blocks.append(block)
            writers.append((b, ch, fill))
        if blocks:
            addrs = self.storage.write_round([ch for _, ch, _ in writers], blocks)
            for (b, ch, fill), addr in zip(writers, addrs):
                self.chains[b][ch].append(BlockRef(addr, fill))

    def flush(self) -> list[BucketRun]:
        """Pad partial blocks, place everything, return the bucket runs."""
        vb = self.block_size
        for b in range(self.n_buckets):
            if self._sizes[b] > 0:
                tail = concat_records(self._partials[b])
                padded = pad_records(tail, vb)
                self.storage.acquire_memory(padded.shape[0] - tail.shape[0])
                self._partials[b] = []
                for i in range(0, padded.shape[0], vb):
                    fill = min(vb, max(0, tail.shape[0] - i))
                    self._queue.append((b, padded[i : i + vb], fill))
                self._sizes[b] = 0
        self.write_rounds(0)
        return [
            BucketRun(bucket=b, chains=[list(c) for c in self.chains[b]],
                      n_records=int(self.counts[b]))
            for b in range(self.n_buckets)
        ]

    def max_balance_factor(self) -> float:
        """Worst per-bucket (max chain)/(optimal) factor — the random tail."""
        worst = 1.0
        for b in range(self.n_buckets):
            per = [len(c) for c in self.chains[b]]
            total = sum(per)
            if total:
                worst = max(worst, max(per) / -(-total // self.n_channels))
        return worst


def randomized_distribution_sort(
    machine: ParallelDiskMachine,
    records: np.ndarray | None = None,
    *,
    run: OrderedRun | None = None,
    storage: VirtualDisks | None = None,
    virtual_disks: int | None = None,
    buckets: int | None = None,
    rng: np.random.Generator | None = None,
) -> RandomizedSortResult:
    """[ViSa] randomized distribution sort on the PDM machine."""
    if (records is None) == (run is None):
        raise ParameterError("provide exactly one of records / run")
    if storage is None:
        # Randomization needs no partial striping: use all D disks.
        storage = VirtualDisks(machine, virtual_disks or machine.D)
    if run is None:
        run = load_ordered_run(storage, records)
    rng = rng or np.random.default_rng(1729)

    state = {"depth": 0, "bf": 1.0}
    output = _sort(machine, storage, run, run.n_records, buckets, rng, state, 0)
    return RandomizedSortResult(
        output=output,
        n_records=run.n_records,
        io_stats=machine.stats.snapshot(),
        cpu=machine.cpu.snapshot(),
        storage=storage,
        recursion_depth=state["depth"],
        max_balance_factor=state["bf"],
    )


def _sort(machine, storage, run, n, buckets, rng, state, depth) -> OrderedRun:
    """Sort one subproblem; ``buckets`` fixes its ``S`` (None: planned as
    Balance Sort plans it)."""
    state["depth"] = max(state["depth"], depth)
    vb = storage.virtual_block_size
    if n == 0:
        return OrderedRun(blocks=[], n_records=0)
    if n <= machine.M - (storage.n_virtual + 1) * vb:
        recs = read_run_all(storage, run, free=True)
        return write_ordered_run(storage, cole_merge_sort(machine.cpu, recs))

    s = plan_bucket_count(machine, storage, n) if buckets is None else buckets
    memoryload = _memoryload(machine, storage, s)
    pivots = pdm_partition_elements(machine, storage, run, s, memoryload)

    placer = RandomizedPlacer(storage, pivots, rng)
    for chunk in read_run_batches(storage, run, free=True):
        placer.feed(chunk)
        machine.cpu.charge(
            work=chunk.shape[0] * log2_ceil(s), depth=log2_ceil(s), label="partition"
        )
        placer.write_rounds(drain_below=2 * storage.n_virtual)
    bucket_runs = placer.flush()
    state["bf"] = max(state["bf"], placer.max_balance_factor())

    outputs = []
    for brun in bucket_runs:
        if brun.n_records == 0:
            continue
        if brun.n_records >= n:
            raise ParameterError(f"bucket did not shrink ({brun.n_records}/{n})")
        outputs.append(
            _sort(machine, storage, brun, brun.n_records, buckets, rng, state, depth + 1)
        )
    return concat_runs(outputs)
