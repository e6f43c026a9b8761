"""Tests for run abstractions on both storage backends."""

import numpy as np
import pytest

from repro import workloads
from repro.core.balance import BlockRef
from repro.core.streams import (
    OrderedRun,
    as_ordered_run,
    concat_runs,
    load_ordered_run,
    peek_run,
    read_run_all,
    read_run_batches,
    write_ordered_run,
)
from repro.exceptions import ParameterError
from repro.hierarchies import ParallelHierarchies, VirtualHierarchies
from repro.pdm import ParallelDiskMachine, VirtualDisks
from repro.records import pad_records, records_equal


def pdm_storage():
    machine = ParallelDiskMachine(memory=2048, block=4, disks=8)
    return machine, VirtualDisks(machine, 4)


def hier_storage():
    machine = ParallelHierarchies(16)
    return machine, VirtualHierarchies(machine, 4)


@pytest.fixture(params=["pdm", "hier"])
def backend(request):
    return pdm_storage() if request.param == "pdm" else hier_storage()


class TestLoadAndRead:
    def test_roundtrip(self, backend):
        machine, storage = backend
        data = workloads.uniform(100, seed=20)
        run = load_ordered_run(storage, data)
        out = read_run_all(storage, run)
        assert records_equal(out, data)
        storage.release_memory(100)

    def test_block_fills_sum_to_n(self, backend):
        _, storage = backend
        data = workloads.uniform(101, seed=21)  # non-multiple of block size
        run = load_ordered_run(storage, data)
        assert sum(r.fill for r in run.blocks) == 101
        assert run.blocks[-1].fill == 101 % storage.virtual_block_size

    def test_round_robin_channels(self, backend):
        _, storage = backend
        data = workloads.uniform(10 * storage.virtual_block_size, seed=22)
        run = load_ordered_run(storage, data)
        channels = [r.address.vdisk for r in run.blocks]
        assert channels == [i % storage.n_virtual for i in range(10)]

    def test_read_batches_full_parallelism(self):
        machine, storage = pdm_storage()
        vb = storage.virtual_block_size
        data = workloads.uniform(vb * 8, seed=23)  # 8 full virtual blocks
        run = load_ordered_run(storage, data)
        list(read_run_batches(storage, run))
        # 8 blocks over 4 channels round robin -> 2 parallel reads
        assert machine.stats.read_ios == 2
        storage.release_memory(vb * 8)

    def test_peek_run_has_no_cost(self, backend):
        machine, storage = backend
        data = workloads.uniform(64, seed=24)
        run = load_ordered_run(storage, data)
        out = peek_run(storage, run)
        assert records_equal(out, data)
        if hasattr(machine, "stats"):
            assert machine.stats.total_ios == 0
        else:
            assert machine.memory_time == 0


class TestPeekMany:
    """``peek_many``: one validated store gather that charges nothing."""

    def test_rows_are_the_blocks(self, backend):
        machine, storage = backend
        vb = storage.virtual_block_size
        data = workloads.uniform(50, seed=27)
        run = load_ordered_run(storage, data)
        addresses = [ref.address for ref in run.blocks]
        many = storage.peek_many(addresses)
        assert many.tobytes() == pad_records(data, vb).tobytes()
        for row, address in zip(many, addresses):
            assert row.tobytes() == storage.peek_many([address])[0].tobytes()
        if hasattr(machine, "stats"):
            assert machine.stats.total_ios == 0
        else:
            assert machine.memory_time == 0
        assert storage.peek_many([]).shape == (0, storage.virtual_block_size)

    def test_unwritten_block_raises_address_error(self, backend):
        from repro.exceptions import AddressError

        machine, storage = backend
        run = load_ordered_run(storage, workloads.uniform(20, seed=28))
        missing = type(run.blocks[0].address)(1, 999)
        with pytest.raises(AddressError, match="peek of unwritten"):
            storage.peek_many([run.blocks[0].address, missing])
        with pytest.raises(AddressError):  # never a wrapped-around index
            storage.peek_many([type(missing)(0, -1)])

    def test_flushes_pending_plan_writes(self):
        machine, storage = pdm_storage()
        vb = storage.virtual_block_size
        data = workloads.uniform(4 * vb, seed=29)
        machine.mem_acquire(4 * vb)
        run = write_ordered_run(storage, data)
        assert machine.plan_stats.write_flushes == 0  # still deferred
        assert records_equal(peek_run(storage, run), data)
        assert machine.plan_stats.write_flushes == 1
        machine.flush_io_plan()  # the peek left nothing pending
        assert machine.plan_stats.write_flushes == 1

    def test_verifies_checksums(self):
        from repro.exceptions import BlockCorruptionError

        machine = ParallelDiskMachine(memory=2048, block=4, disks=8, checksums=True)
        storage = VirtualDisks(machine, 4)
        run = load_ordered_run(storage, workloads.uniform(64, seed=30))
        machine.store.corrupt_block(5, run.blocks[2].address.slot, bit_seed=3)
        with pytest.raises(BlockCorruptionError):
            peek_run(storage, run)


class TestWrite:
    def test_write_then_read(self, backend):
        machine, storage = backend
        data = workloads.uniform(77, seed=25)
        storage.acquire_memory(77)
        run = write_ordered_run(storage, data)
        assert records_equal(peek_run(storage, run), data)

    def test_write_charges_backend(self):
        machine, storage = pdm_storage()
        vb = storage.virtual_block_size
        data = workloads.uniform(4 * vb, seed=26)  # one block per channel
        machine.mem_acquire(4 * vb)
        write_ordered_run(storage, data)
        assert machine.stats.write_ios == 1
        assert machine.memory_in_use == 0


class TestSliceAndConcat:
    def test_slice_blocks_counts(self):
        _, storage = pdm_storage()
        data = workloads.uniform(70, seed=27)  # vb=8: 8 full + 1 partial (6)
        run = load_ordered_run(storage, data)
        head = run.slice_blocks(0, 4)
        tail = run.slice_blocks(4, run.n_blocks)
        assert head.n_records == 32
        assert tail.n_records == 38

    def test_concat_runs(self):
        _, storage = pdm_storage()
        a = load_ordered_run(storage, workloads.uniform(20, seed=28))
        b = load_ordered_run(storage, workloads.uniform(30, seed=29))
        c = concat_runs([a, b])
        assert c.n_records == 50
        assert c.n_blocks == a.n_blocks + b.n_blocks

    def test_concat_preserves_read_order(self):
        machine, storage = pdm_storage()
        d1 = workloads.uniform(20, seed=30)
        d2 = workloads.uniform(20, seed=31)
        a = load_ordered_run(storage, d1)
        b = load_ordered_run(storage, d2)
        out = read_run_all(storage, concat_runs([a, b]))
        assert np.array_equal(out["key"], np.concatenate([d1["key"], d2["key"]]))
        storage.release_memory(40)

    def test_as_ordered_run_rejects_junk(self):
        with pytest.raises(ParameterError):
            as_ordered_run("nope")


class TestBookkeepingGuards:
    def test_fill_mismatch_detected(self):
        machine, storage = pdm_storage()
        data = workloads.uniform(16, seed=32)
        run = load_ordered_run(storage, data)
        # corrupt a fill count
        run.blocks[0] = BlockRef(run.blocks[0].address, run.blocks[0].fill - 1)
        with pytest.raises(ParameterError, match="fill bookkeeping"):
            list(read_run_batches(storage, run))
