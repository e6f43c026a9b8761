"""Failure-injection tests: the simulators must reject illegal schedules.

The lower bounds the paper builds on are only meaningful if the machine
models are airtight — an algorithm that silently moved two blocks through
one disk, over-filled memory, or made an EREW machine do concurrent writes
would 'beat' the bound by cheating.  These tests drive every forbidden
transition and assert the machines refuse.
"""

import numpy as np
import pytest

from repro import workloads
from repro.core.balance import BalanceEngine
from repro.core.matching import MatchingInstance, greedy_match
from repro.core.matrices import BalanceMatrices
from repro.exceptions import (
    AddressError,
    CapacityError,
    ConcurrencyViolation,
    DiskContentionError,
    InvariantViolation,
    ParameterError,
    TopologyError,
)
from repro.hierarchies import HMM, UMH, ParallelHierarchies, VirtualHierarchies
from repro.hypercube import Hypercube
from repro.pdm import ParallelDiskMachine, VirtualDisks
from repro.pram import PRAM
from repro.records import make_records


def block(machine, value=1):
    return make_records(np.full(machine.B, value, dtype=np.uint64))


class TestDiskDiscipline:
    def test_two_blocks_one_disk_read(self):
        m = ParallelDiskMachine(memory=64, block=4, disks=4)
        m.mem_acquire(8)
        m.write_blocks_arr(np.array([0]), np.array([0]), block(m)[None])
        m.write_blocks_arr(np.array([0]), np.array([1]), block(m)[None])
        with pytest.raises(DiskContentionError):
            m.read_blocks_arr(np.array([0, 0]), np.array([0, 1]))

    def test_memory_hard_ceiling_on_read_path(self):
        m = ParallelDiskMachine(memory=64, block=4, disks=4)
        m.mem_acquire(4)
        m.write_blocks_arr(np.array([0]), np.array([0]), block(m)[None])
        m.mem_acquire(m.M - 3)  # leave 3 records of room < B
        with pytest.raises(CapacityError):
            m.read_blocks_arr(np.array([0]), np.array([0]))

    def test_memory_spill_runs_before_overflow_raises(self):
        """A holder's spill hook may free room first; M itself never bends."""
        m = ParallelDiskMachine(memory=64, block=4, disks=4)
        m.mem_acquire(60)
        spills = []

        def spill():  # writes out one held block per call, two at most
            if len(spills) == 2:
                return False
            spills.append(1)
            m.mem_release(4)
            return True

        m.mem_spill = spill
        m.mem_acquire(8)
        assert len(spills) == 1 and m.memory_in_use == 64
        with pytest.raises(CapacityError, match="memory overflow"):
            m.mem_acquire(16)
        assert len(spills) == 2 and m.memory_in_use == 60

    def test_cannot_fabricate_memory(self):
        m = ParallelDiskMachine(memory=64, block=4, disks=4)
        with pytest.raises(CapacityError):
            m.mem_release(1)

    def test_virtual_disks_propagate_contention(self):
        m = ParallelDiskMachine(memory=64, block=2, disks=8)
        v = VirtualDisks(m, 4)
        d = make_records(np.arange(4, dtype=np.uint64))
        with pytest.raises(DiskContentionError):
            v.write_round([1, 1], [d, d])

    def test_block_size_is_exact(self):
        m = ParallelDiskMachine(memory=64, block=4, disks=4)
        short = make_records(np.arange(3, dtype=np.uint64))
        m.mem_acquire(3)
        with pytest.raises(AddressError):
            m.write_blocks_arr(np.array([0]), np.array([0]), short[None])


class TestPRAMDiscipline:
    def test_erew_rejects_concurrent_ops(self):
        m = PRAM(4, variant="EREW")
        with pytest.raises(ConcurrencyViolation):
            m.require_concurrent_write("radix sort")

    def test_monotone_route_rejects_duplicate_targets(self):
        from repro.pram.routing import monotone_route

        m = PRAM(4, variant="EREW")
        with pytest.raises(ValueError):
            monotone_route(m, np.arange(8), np.array([0, 1]), np.array([3, 3]))


class TestHypercubeDiscipline:
    def test_non_adjacent_send(self):
        net = Hypercube(16)
        with pytest.raises(TopologyError):
            net.send(0, 5, "x")

    def test_exchange_shape_enforced(self):
        net = Hypercube(8)
        with pytest.raises(TopologyError):
            net.exchange_dim(np.arange(4), 0)

    def test_dimension_range(self):
        net = Hypercube(8)
        with pytest.raises(TopologyError):
            net.exchange_dim(np.arange(8), 3)


class TestHierarchyDiscipline:
    def test_unwritten_read(self):
        h = HMM()
        with pytest.raises(AddressError):
            h.read(np.array([5]))

    def test_virtual_hierarchy_contention(self):
        ph = ParallelHierarchies(8)
        vh = VirtualHierarchies(ph, 2)
        d = make_records(np.arange(4, dtype=np.uint64))
        with pytest.raises(DiskContentionError):
            vh.gather_rounds_arr(
                [[a for a in vh.write_round([0], [d]) for _ in range(2)]]
            )

    def test_umh_frame_bounds(self):
        u = UMH(rho=2, alpha=2, levels=3)
        with pytest.raises(CapacityError):
            u.put_block(0, 99, make_records(np.arange(1, dtype=np.uint64)))

    def test_umh_empty_transfer(self):
        u = UMH(rho=2, alpha=2, levels=3)
        with pytest.raises(AddressError):
            u.transfer(0, 0, 0, 0, direction="down")


class TestEngineDiscipline:
    def test_corrupted_histogram_detected(self):
        m = BalanceMatrices(2, 4)
        m.X[0, 0] = 5  # x exceeds median by > 2: impossible under the protocol
        with pytest.raises(InvariantViolation):
            m.refresh_aux()

    def test_matching_on_broken_degrees_detected(self):
        adj = np.zeros((2, 4), dtype=bool)
        adj[0, 0] = True
        adj[1, 0] = True  # both want the only channel: degree 1 < ⌈4/2⌉
        inst = MatchingInstance((0, 1), (0, 1), adj, 4)
        with pytest.raises(InvariantViolation):
            inst.check_degree_invariant()
        with pytest.raises(InvariantViolation):
            greedy_match(inst)

    def test_engine_rejects_double_finish(self):
        m = ParallelDiskMachine(memory=64, block=2, disks=4)
        storage = VirtualDisks(m, 2)
        engine = BalanceEngine(storage, np.array([10], dtype=np.uint64))
        engine.flush()
        with pytest.raises(ParameterError):
            engine.flush()

    def test_invariant_checks_catch_tampering_mid_run(self):
        m = ParallelDiskMachine(memory=8192, block=2, disks=4)
        storage = VirtualDisks(m, 2)
        data = workloads.uniform(400, seed=160)
        from repro.records import composite_keys

        ck = np.sort(composite_keys(data))
        engine = BalanceEngine(storage, ck[[100, 200, 300]], check_invariants=True)
        m.mem_acquire(200)
        engine.feed(data[:200])
        engine.run_rounds()
        # tamper with the histogram behind the engine's back
        engine.matrices.X[0, 0] += 3
        m.mem_acquire(200)
        engine.feed(data[200:])
        with pytest.raises(InvariantViolation):
            engine.run_rounds()
