"""Hypothesis stateful tests: the engine and the allocator under random drives.

Rule-based state machines explore interleavings that fixed scenarios miss:
arbitrary feed sizes, partial drains, flush timing, mixed park/low
allocations with frees.  The invariants checked after every rule are the
paper's (Invariants 1–2, conservation, Theorem 4) plus simulator-integrity
properties (no double allocation, ledger balance).
"""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro import workloads
from repro.core.balance import BalanceEngine
from repro.hierarchies import ParallelHierarchies, VirtualHierarchies
from repro.pdm import ParallelDiskMachine, VirtualDisks
from repro.records import composite_keys, make_records


class EngineMachine(RuleBasedStateMachine):
    """Drive a Balance engine with random feeds/drains; check the paper's
    invariants at every step."""

    def __init__(self):
        super().__init__()
        self.machine = ParallelDiskMachine(memory=1 << 17, block=2, disks=8)
        self.storage = VirtualDisks(self.machine, 4)
        keyspace = 1 << 20
        self.pivots = (
            np.sort(
                np.random.default_rng(0).integers(1, keyspace, size=5, dtype=np.uint64)
            )
            << np.uint64(24)
        )
        self.engine = BalanceEngine(self.storage, self.pivots, check_invariants=True)
        self.fed = 0
        self.rng = np.random.default_rng(1)
        self.flushed = False

    @precondition(lambda self: not self.flushed and self.fed < 3000)
    @rule(n=st.integers(1, 300), skew=st.sampled_from(["uniform", "one-bucket", "lanes"]))
    def feed(self, n, skew):
        if skew == "uniform":
            keys = self.rng.integers(0, 1 << 20, size=n, dtype=np.uint64)
        elif skew == "one-bucket":
            keys = self.rng.integers(0, 64, size=n, dtype=np.uint64)
        else:
            lane = np.arange(n, dtype=np.uint64) % 6
            keys = lane * np.uint64((1 << 20) // 6) + 1
        records = make_records(keys)
        records["rid"] += self.fed  # keep rids globally unique
        self.machine.mem_acquire(n)
        self.engine.feed(records)
        self.fed += n

    @rule(level=st.integers(0, 12))
    def drain(self, level):
        # safe after flush too: the queue is empty, so this is a no-op —
        # which also keeps at least one rule enabled in the final state
        self.engine.run_rounds(drain_below=level)

    @precondition(lambda self: not self.flushed)
    @rule()
    def flush(self):
        runs = self.engine.flush()
        self.flushed = True
        # conservation at the end of the pass
        assert sum(r.n_records for r in runs) == self.fed
        self.engine.matrices.check_invariant_2()
        assert self.engine.matrices.max_balance_factor() <= 2.5

    @invariant()
    def histogram_consistent(self):
        # X row sums equal placed blocks per bucket
        placed = self.engine.matrices.X.sum()
        assert placed == self.engine.stats.blocks_placed - 0  # all placements counted

    @invariant()
    def aux_entries_bounded(self):
        assert int(self.engine.matrices.A.max(initial=0)) <= 2


class AllocatorMachine(RuleBasedStateMachine):
    """Mixed park/low allocations and frees on the dual-ended pool."""

    def __init__(self):
        super().__init__()
        machine = ParallelHierarchies(8)
        self.vh = VirtualHierarchies(machine, 2)
        self.payload = make_records(np.arange(4, dtype=np.uint64))
        self.live: list = []

    @rule(park=st.booleans(), channel=st.integers(0, 1))
    def allocate(self, park, channel):
        addr = self.vh.write_round([channel], [self.payload], park=park)[0]
        assert addr not in self.live, "double allocation"
        self.live.append(addr)

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def release(self, data):
        idx = data.draw(st.integers(0, len(self.live) - 1))
        self.vh.free_arr([self.live.pop(idx)])

    @invariant()
    def no_shared_slots(self):
        slots = [(a.vdisk, a.slot) for a in self.live]
        assert len(set(slots)) == len(slots)

    @invariant()
    def all_live_blocks_readable(self):
        for a in self.live[-3:]:  # spot-check the most recent
            self.vh.peek_many([a])


TestEngineStateful = EngineMachine.TestCase
TestEngineStateful.settings = settings(
    max_examples=15, stateful_step_count=30, deadline=None
)

TestAllocatorStateful = AllocatorMachine.TestCase
TestAllocatorStateful.settings = settings(
    max_examples=25, stateful_step_count=50, deadline=None
)
