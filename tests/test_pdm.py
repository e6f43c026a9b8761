"""Unit tests for the parallel disk machine, layout, and striping."""

import inspect

import numpy as np
import pytest

from repro.exceptions import (
    AddressError,
    CapacityError,
    DiskContentionError,
    ParameterError,
)
from repro.pdm import (
    BlockAddress,
    ParallelDiskMachine,
    StripedFile,
    VirtualDisks,
    fully_striped_view,
)
from repro.hierarchies import VirtualHierarchies
from repro.pdm import layout
from repro.pdm.layout import PAD_KEY
from repro.pdm.store import ArenaBlockStore, DictBlockStore
from repro.pdm.striping import default_virtual_disk_count
from repro.records import RECORD_DTYPE, make_records, pad_records, strip_pad_records
from repro.workloads import uniform


def machine(M=64, B=4, D=4, P=1):
    return ParallelDiskMachine(memory=M, block=B, disks=D, processors=P)


def block_of(machine_, value):
    r = make_records(np.full(machine_.B, value, dtype=np.uint64))
    return r


def at(*ints):
    return np.array(ints, dtype=np.int64)


class TestMachineRules:
    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            ParallelDiskMachine(memory=10, block=4, disks=4)  # DB > M/2
        with pytest.raises(ParameterError):
            ParallelDiskMachine(memory=64, block=0, disks=2)
        with pytest.raises(ParameterError):
            ParallelDiskMachine(memory=64, block=2, disks=2, processors=0)

    def test_write_then_read_roundtrip(self):
        m = machine()
        data = block_of(m, 7)
        m.mem_acquire(m.B)
        m.write_blocks_arr(at(0), at(0), data[None])
        out = m.read_blocks_arr(at(0), at(0))[0]
        assert np.array_equal(out["key"], data["key"])
        assert m.stats.read_ios == 1 and m.stats.write_ios == 1

    def test_contention_rejected(self):
        m = machine()
        m.mem_acquire(2 * m.B)
        with pytest.raises(DiskContentionError):
            m.write_blocks_arr(
                at(1, 1), at(0, 1), np.stack([block_of(m, 1), block_of(m, 2)])
            )

    def test_contention_rejected_in_a_wide_batch(self):
        """Batches wider than 64 blocks take the np.unique contention path."""
        m = machine(M=1024, B=2, D=128)
        disks = np.arange(100, dtype=np.int64)
        disks[70] = 5
        data = make_records(np.arange(200, dtype=np.uint64)).reshape(100, 2)
        m.mem_acquire(200)
        with pytest.raises(DiskContentionError, match="disk 5 in one I/O"):
            m.write_blocks_arr(disks, np.zeros(100, dtype=np.int64), data)
        disks[70] = 200
        with pytest.raises(AddressError, match="disk 200 out of range"):
            m.write_blocks_arr(disks, np.zeros(100, dtype=np.int64), data)

    def test_read_unwritten_block(self):
        m = machine()
        with pytest.raises(AddressError):
            m.read_blocks_arr(at(0), at(0))

    def test_wrong_block_size_rejected(self):
        m = machine()
        m.mem_acquire(2)
        bad = make_records(np.array([1, 2], dtype=np.uint64))
        with pytest.raises(AddressError):
            m.write_blocks_arr(at(0), at(0), bad[None])

    def test_wrong_dtype_rejected(self):
        m = machine()
        with pytest.raises(TypeError):
            m.write_blocks_arr(at(0), at(0), np.zeros((1, m.B)))

    def test_memory_ledger_overflow(self):
        m = machine(M=64, B=4, D=4)
        m.mem_acquire(64)
        with pytest.raises(CapacityError):
            m.mem_acquire(1)

    def test_memory_ledger_underflow(self):
        m = machine()
        with pytest.raises(CapacityError):
            m.mem_release(1)

    def test_read_respects_memory_capacity(self):
        m = machine(M=64, B=4, D=4)
        m.mem_acquire(m.B)
        m.write_blocks_arr(at(0), at(0), block_of(m, 3)[None])
        m.mem_acquire(m.M - m.B + 1)  # leave < B free
        with pytest.raises(CapacityError):
            m.read_blocks_arr(at(0), at(0))

    def test_one_io_moves_up_to_d_blocks(self):
        m = machine()
        m.mem_acquire(4 * m.B)
        m.write_blocks_arr(at(0, 1, 2, 3), at(0, 0, 0, 0),
                           np.stack([block_of(m, d) for d in range(4)]))
        assert m.stats.write_ios == 1
        assert m.stats.blocks_written == 4

    @pytest.mark.parametrize("strided", [False, True])
    def test_deferred_writes_flush_as_written(self, strided):
        """A plan flush stores exactly what each deferred write handed over,
        contiguous pieces (one bytes join) or strided views (copy loop)."""
        m = machine(M=256)
        records = make_records(np.arange(64, dtype=np.uint64))
        wide = records.reshape(8, 2 * m.B)
        m.mem_acquire(64)
        for slot in range(2):
            rows = wide[4 * slot : 4 * slot + 4]
            data = rows[:, ::2] if strided else rows[:, : m.B]
            disks = np.arange(4, dtype=np.int64)
            m.write_blocks_arr(disks, np.full(4, slot, dtype=np.int64), data)
        assert m.plan_stats.write_flushes == 0
        m.flush_io_plan()
        assert m.plan_stats.write_flushes == 1
        for slot in range(2):
            rows = wide[4 * slot : 4 * slot + 4]
            want = rows[:, ::2] if strided else rows[:, : m.B]
            for d in range(4):
                got = m.peek_blocks_arr(at(d), at(slot))[0]
                assert got.tobytes() == want[d].tobytes()

    def test_rewrite_of_a_pending_block_lands_last(self):
        """A checked write to a pending address flushes the plan first, so
        the rewrite wins and the store holds one block, not two."""
        m = machine()
        m.mem_acquire(2 * m.B)
        first, second = block_of(m, 1), block_of(m, 2)
        m.write_blocks_arr(at(0), at(3), first[None])
        m.write_blocks_arr(at(0), at(3), second[None])
        assert m.plan_stats.write_flushes == 1
        assert m.peek_blocks_arr(at(0), at(3))[0].tobytes() == second.tobytes()
        assert m.mem_snapshot()["resident_blocks"] == 1 == m.store.n_blocks()

    def test_allocate_slots_monotone(self):
        m = machine()
        a = m.allocate_slots(3)
        b = m.allocate_slots(2)
        assert b == a + 3

    def test_free_block_and_peek(self):
        m = machine()
        m.mem_acquire(m.B)
        m.write_blocks_arr(at(2), at(5), block_of(m, 9)[None])
        assert m.peek_blocks_arr(at(2), at(5))[0]["key"][0] == 9
        m.free_blocks_arr(at(2), at(5))
        with pytest.raises(AddressError, match="peek of unwritten"):
            m.peek_blocks_arr(at(2), at(5))


class TestPadding:
    def test_pad_to_block(self):
        r = make_records(np.array([1, 2, 3], dtype=np.uint64))
        p = pad_records(r, 4)
        assert p.shape == (4,)
        assert p["key"][3] == PAD_KEY

    def test_pad_exact_multiple_unchanged(self):
        r = make_records(np.array([1, 2], dtype=np.uint64))
        assert pad_records(r, 2).shape == (2,)

    def test_strip_padding_inverts_pad(self):
        r = make_records(np.array([5], dtype=np.uint64))
        assert strip_pad_records(pad_records(r, 8)).shape == (1,)


class TestStripedFile:
    def test_roundtrip_counts_ios(self):
        m = machine(M=640, B=4, D=4)
        data = uniform(100, seed=1)
        f = StripedFile(m, 100, start_slot=m.allocate_slots(100))
        f.load_initial(data)
        assert m.stats.total_ios == 0  # initial placement is free
        out = f.read_all()
        assert np.array_equal(out["key"], data["key"])
        # 100 records, B=4 -> 25 blocks -> ceil(25/4)=7 stripes = 7 I/Os
        assert m.stats.read_ios == 7
        m.mem_release(100)

    def test_write_all_then_read_all(self):
        m = machine(M=640, B=4, D=4)
        data = uniform(50, seed=2)
        f = StripedFile(m, 50, start_slot=0)
        m.mem_acquire(50)
        f.write_all(data)
        assert m.memory_in_use == 0  # writes drain memory
        out = f.read_all()
        assert np.array_equal(out["key"], data["key"])
        m.mem_release(50)

    def test_block_address_round_robin(self):
        m = machine()
        f = StripedFile(m, 10 * m.B, start_slot=3)
        assert f.block_address(0) == BlockAddress(0, 3)
        assert f.block_address(5) == BlockAddress(1, 4)

    def test_stripe_out_of_range(self):
        m = machine()
        f = StripedFile(m, 4, start_slot=0)
        f.load_initial(make_records(np.arange(4, dtype=np.uint64)))
        with pytest.raises(AddressError):
            f.read_stripe(1)

    def test_length_mismatch_rejected(self):
        m = machine()
        f = StripedFile(m, 8, start_slot=0)
        with pytest.raises(ParameterError):
            f.load_initial(make_records(np.arange(4, dtype=np.uint64)))

    def test_empty_file(self):
        m = machine()
        f = StripedFile(m, 0, start_slot=0)
        assert f.read_all().size == 0
        assert f.n_stripes == 0


class TestVirtualDisks:
    def test_default_virtual_disk_count(self):
        assert default_virtual_disk_count(1) == 1
        assert default_virtual_disk_count(8) == 2
        assert default_virtual_disk_count(27) == 3
        assert default_virtual_disk_count(64) == 4

    def test_requires_divisibility(self):
        m = machine(M=64, B=2, D=6)
        with pytest.raises(ParameterError):
            VirtualDisks(m, 4)

    def test_virtual_block_size(self):
        m = machine(M=64, B=4, D=4)
        v = VirtualDisks(m, 2)
        assert v.virtual_block_size == 8  # B * D/D' = 4*2

    def test_write_read_roundtrip_one_io_each(self):
        m = machine(M=64, B=4, D=4)
        v = VirtualDisks(m, 2)
        d0 = make_records(np.arange(8, dtype=np.uint64))
        d1 = make_records(np.arange(8, dtype=np.uint64) + 100)
        m.mem_acquire(16)
        addrs = v.write_round([0, 1], [d0, d1])
        assert m.stats.write_ios == 1
        out = v.gather_rounds_arr([addrs])
        v.charge_read_round(addrs)
        assert m.stats.read_ios == 1
        assert np.array_equal(out[0]["key"], d0["key"])
        assert np.array_equal(out[1]["key"], d1["key"])
        m.mem_release(16)

    def test_two_blocks_one_vdisk_rejected(self):
        m = machine(M=64, B=4, D=4)
        v = VirtualDisks(m, 2)
        d = make_records(np.arange(8, dtype=np.uint64))
        with pytest.raises(DiskContentionError):
            v.write_round([0, 0], [d, d])

    def test_wrong_virtual_block_size_rejected(self):
        m = machine(M=64, B=4, D=4)
        v = VirtualDisks(m, 2)
        with pytest.raises(ParameterError):
            v.write_round([0], [make_records(np.arange(4, dtype=np.uint64))])

    @pytest.mark.parametrize("dtype", [np.float32, np.int64])
    @pytest.mark.parametrize("as_matrix", [False, True], ids=["rows", "matrix"])
    def test_non_record_blocks_rejected(self, dtype, as_matrix):
        m = machine(M=64, B=4, D=4)
        v = VirtualDisks(m, 2)
        rows = [np.ones(8, dtype=dtype), np.ones(8, dtype=dtype)]
        with pytest.raises(TypeError, match="record dtype"):
            v.write_round([0, 1], np.stack(rows) if as_matrix else rows)
        assert m.stats.write_ios == 0

    def test_fully_striped_view(self):
        m = machine(M=64, B=4, D=4)
        v = fully_striped_view(m)
        assert v.n_virtual == 1
        assert v.virtual_block_size == 16

    def test_free_releases_blocks(self):
        m = machine(M=64, B=4, D=4)
        v = VirtualDisks(m, 2)
        d = make_records(np.arange(8, dtype=np.uint64))
        m.mem_acquire(8)
        addrs = v.write_round([0], [d])
        v.free_arr(addrs)
        with pytest.raises(AddressError):
            v.gather_rounds_arr([addrs])


class TestStorageAPI:
    """One implementation per block operation and layer: the per-address
    shims beside the array entry points are gone."""

    REMOVED = {
        ParallelDiskMachine: ("read_blocks", "write_blocks", "peek_block",
                              "free_block", "_validate_addr"),
        VirtualDisks: ("parallel_write", "parallel_read", "peek", "free",
                       "parallel_write_arr", "parallel_read_arr",
                       "_check_vdisks", "_expand_disks"),
        VirtualHierarchies: ("parallel_write", "parallel_read", "peek", "free",
                             "parallel_write_arr", "parallel_read_arr"),
        ArenaBlockStore: ("peek", "free"),
        DictBlockStore: ("peek", "free"),
    }

    def test_per_address_shims_are_gone(self):
        left = [f"{cls.__name__}.{name}" for cls, names in self.REMOVED.items()
                for name in names if hasattr(cls, name)]
        assert left == []
        # The padding helpers live in repro.records; layout keeps no alias.
        padding = (pad_records, strip_pad_records)
        bound = [name for name, value in vars(layout).items()
                 if any(value is f for f in padding)]
        assert bound == ["pad_records"]

    def test_one_address_type_and_no_unchecked_machine_io(self):
        from repro.hierarchies import parallel
        from repro.pdm import striping

        assert parallel.VirtualBlockAddress is striping.VirtualBlockAddress
        assert not hasattr(parallel, "default_virtual_hierarchy_count")
        for name in ("read_blocks_arr", "write_blocks_arr"):
            params = inspect.signature(getattr(ParallelDiskMachine, name)).parameters
            assert "checked" not in params
