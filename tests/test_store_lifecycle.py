"""Memory-ledger and block-lifecycle discipline, on both store backends.

The arena backend recycles slab rows through a free stack; the dict
backend deletes entries.  Either way the *visible* lifecycle contract is
the same and is pinned here for both: writes make blocks resident,
frees make them unwritten (idempotently), freed slots are reusable, the
fused ``read(free=True)`` path is exactly read-then-free, and the
machine's memory ledger refuses to over-commit or under-return.
"""

import numpy as np
import pytest

from repro.exceptions import AddressError, CapacityError, ParameterError
from repro.pdm import BlockAddress, ParallelDiskMachine
from repro.pdm.store import make_store
from repro.records import RECORD_DTYPE, make_records

BACKENDS = ["arena", "dict"]


def machine(store, M=64, B=4, D=4):
    return ParallelDiskMachine(memory=M, block=B, disks=D, store=store)


def block(start, B=4):
    return make_records(np.arange(start, start + B, dtype=np.uint64))


# -------------------------------------------------------- memory ledger


@pytest.mark.parametrize("store", BACKENDS)
class TestMemoryLedger:
    def test_overflow_rejected_and_state_unchanged(self, store):
        m = machine(store, M=64)
        m.mem_acquire(60)
        with pytest.raises(CapacityError):
            m.mem_acquire(5)
        assert m.memory_in_use == 60
        assert m.memory_free == 4
        m.mem_acquire(4)  # exactly full is legal
        assert m.memory_free == 0
        m.mem_release(64)

    def test_underflow_rejected(self, store):
        m = machine(store)
        m.mem_acquire(10)
        with pytest.raises(CapacityError):
            m.mem_release(11)
        assert m.memory_in_use == 10
        m.mem_release(10)
        with pytest.raises(CapacityError):
            m.mem_release(1)

    def test_negative_amounts_rejected(self, store):
        m = machine(store)
        with pytest.raises(ParameterError):
            m.mem_acquire(-1)
        with pytest.raises(ParameterError):
            m.mem_release(-1)
        assert m.memory_in_use == 0


# ------------------------------------------------------ block lifecycle


@pytest.mark.parametrize("store", BACKENDS)
class TestBlockLifecycle:
    def test_write_read_roundtrip(self, store):
        s = make_store(store, 4, 4)
        disks = np.array([0, 1, 2], dtype=np.int64)
        slots = np.array([5, 5, 7], dtype=np.int64)
        data = np.stack([block(0), block(10), block(20)])
        s.write_batch(disks, slots, data)
        assert s.n_blocks() == 3
        assert s.has(0, 5) and s.has(1, 5) and s.has(2, 7)
        assert not s.has(3, 5) and not s.has(0, 6)
        out = s.read_batch(disks, slots)
        assert np.array_equal(out, data)
        assert s.max_slot(2) == 7 and s.max_slot(3) == -1

    def test_read_of_unwritten_raises(self, store):
        s = make_store(store, 4, 4)
        s.write_batch(np.array([0]), np.array([0]), block(0)[None])
        with pytest.raises(AddressError, match="unwritten"):
            s.read_batch(np.array([0]), np.array([1]))
        with pytest.raises(AddressError, match="unwritten"):
            # Beyond anything ever written (past the slot map's capacity).
            s.read_batch(np.array([0]), np.array([10_000]))

    def test_free_then_peek_and_read_raise(self, store):
        s = make_store(store, 4, 4)
        s.write_batch(np.array([1]), np.array([3]), block(0)[None])
        s.free(1, 3)
        assert not s.has(1, 3)
        assert s.n_blocks() == 0
        with pytest.raises(AddressError, match="peek of unwritten"):
            s.peek(1, 3)
        with pytest.raises(AddressError, match="read of unwritten"):
            s.read_batch(np.array([1]), np.array([3]))

    def test_double_free_is_noop(self, store):
        s = make_store(store, 4, 4)
        s.write_batch(np.array([0]), np.array([0]), block(0)[None])
        s.free(0, 0)
        s.free(0, 0)  # scalar double free
        s.free_batch(np.array([0, 0]), np.array([0, 0]))  # batched, duplicated
        s.free_batch(np.array([2]), np.array([9999]))  # never written
        assert s.n_blocks() == 0

    def test_freed_slot_is_reusable(self, store):
        s = make_store(store, 4, 4)
        s.write_batch(np.array([0]), np.array([2]), block(0)[None])
        s.free(0, 2)
        s.write_batch(np.array([0]), np.array([2]), block(40)[None])
        out = s.read_batch(np.array([0]), np.array([2]))
        assert np.array_equal(out[0], block(40))
        assert s.n_blocks() == 1

    def test_overwrite_in_place_keeps_count(self, store):
        s = make_store(store, 4, 4)
        s.write_batch(np.array([0]), np.array([0]), block(0)[None])
        s.write_batch(np.array([0]), np.array([0]), block(99)[None])
        assert s.n_blocks() == 1
        assert np.array_equal(s.read_batch(np.array([0]), np.array([0]))[0], block(99))

    def test_fused_read_free_equals_read_then_free(self, store):
        disks = np.array([0, 1, 2, 3], dtype=np.int64)
        slots = np.array([0, 0, 0, 0], dtype=np.int64)
        data = np.stack([block(10 * i) for i in range(4)])

        fused = make_store(store, 4, 4)
        fused.write_batch(disks, slots, data)
        out_fused = fused.read_batch(disks, slots, free=True)

        split = make_store(store, 4, 4)
        split.write_batch(disks, slots, data)
        out_split = split.read_batch(disks, slots)
        split.free_batch(disks, slots)

        assert np.array_equal(out_fused, out_split)
        assert fused.n_blocks() == split.n_blocks() == 0
        for d in range(4):
            assert not fused.has(d, 0) and not split.has(d, 0)
        if store == "arena":
            # Same rows must be recycled in the same order, so later
            # allocations land identically (address-level determinism).
            assert fused._free_rows == split._free_rows

    def test_read_buffer_survives_free_and_rewrite(self, store):
        """read_batch returns fresh storage — never views into the store."""
        s = make_store(store, 4, 4)
        s.write_batch(np.array([0]), np.array([0]), block(7)[None])
        out = s.read_batch(np.array([0]), np.array([0]), free=True)
        kept = out.copy()
        # Recycle the slot (and, on the arena, the very same slab row).
        s.write_batch(np.array([0]), np.array([0]), block(50)[None])
        assert np.array_equal(out, kept)

    def test_peek_safety_modes(self, store):
        s = make_store(store, 4, 4)
        s.write_batch(np.array([0]), np.array([0]), block(3)[None])
        view = s.peek(0, 0)
        assert np.array_equal(view, block(3))
        if store == "arena":
            # Zero-copy read-only view: mutation attempts fail loudly.
            assert not view.flags.writeable
            with pytest.raises((ValueError, RuntimeError)):
                view["key"][0] = 1
        else:
            assert view.flags.writeable  # defensive copy; mutation harmless
            view["key"][0] = 1
            assert s.peek(0, 0)["key"][0] == 3

    def test_arena_recycles_rows_before_growing(self, store):
        if store != "arena":
            pytest.skip("slab bookkeeping is arena-specific")
        s = make_store("arena", 2, 4)
        disks = np.array([0, 1], dtype=np.int64)
        for i in range(40):  # steady-state churn: write a stripe, drop it
            s.write_batch(disks, np.array([i, i]), np.stack([block(i), block(i)]))
            s.free_batch(disks, np.array([i, i]))
        # The working set never exceeded one stripe, so the slab must not
        # have grown past the minimum growth quantum.
        assert s._arena.shape[0] <= 64
        assert s.n_blocks() == 0


# ----------------------------------------------- machine-level lifecycle


@pytest.mark.parametrize("store", BACKENDS)
class TestMachineLifecycle:
    def test_arr_api_fused_free(self, store):
        m = machine(store)
        disks = np.arange(4, dtype=np.int64)
        slots = np.zeros(4, dtype=np.int64)
        data = np.stack([block(10 * i) for i in range(4)])
        m.mem_acquire(16)
        m.write_blocks_arr(disks, slots, data)
        out = m.read_blocks_arr(disks, slots, free=True)
        assert np.array_equal(out, data)
        assert m.store.n_blocks() == 0
        with pytest.raises(AddressError):
            m.read_blocks_arr(disks, slots)
        assert m.stats.read_ios == 1 and m.stats.write_ios == 1

    def test_legacy_list_api_roundtrip(self, store):
        m = machine(store)
        blocks = [(BlockAddress(d, 0), block(d)) for d in range(4)]
        m.mem_acquire(16)
        m.write_blocks(blocks)
        back = m.read_blocks([a for a, _ in blocks])
        for (_, sent), got in zip(blocks, back):
            assert np.array_equal(sent, got)
        m.free_block(BlockAddress(0, 0))
        with pytest.raises(AddressError):
            m.read_blocks([BlockAddress(0, 0)])
