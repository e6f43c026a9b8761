"""Store-layer fault modes, pinned identical on both backends.

The paper's robustness claims are about adversarial block *placement*;
this suite extends the discipline to adversarial block *fate*: injected
transient I/O errors mid-``read_blocks_arr``, failed fused read+free
followed by a double free, and checksum-detected bit rot raising a typed
:class:`~repro.exceptions.BlockCorruptionError`.  Every scenario runs
under ``REPRO_PDM_STORE=dict`` and ``arena`` semantics via the ``store``
parameter, and the differential cases assert the two backends fail
**identically** — same exception type, same message, same residual
store state.
"""

import numpy as np
import pytest

from repro.exceptions import BlockCorruptionError, InjectedIOError, ParameterError
from repro.pdm import ParallelDiskMachine, VirtualDisks
from repro.pdm.store import make_store
from repro.records import make_records
from repro.resilience import FaultInjector, FaultPlan, FaultRule, activate

BACKENDS = ["arena", "dict"]

B, D = 4, 4


def machine(store, checksums=None, M=64):
    return ParallelDiskMachine(memory=M, block=B, disks=D, store=store,
                               checksums=checksums)


def blocks(k, start=0):
    data = np.arange(start, start + k * B, dtype=np.uint64)
    return make_records(data).reshape(k, B)


def addresses(k, slot=0):
    return np.arange(k, dtype=np.int64), np.full(k, slot, dtype=np.int64)


def load(m, k=D, slot=0, start=0):
    disks, slots = addresses(k, slot)
    m.load_blocks_arr(disks, slots, blocks(k, start))
    return disks, slots


def plan_for(site, **kw):
    return FaultPlan(seed=0, rules=(FaultRule(site=site, **kw),)).validate()


# ------------------------------------------------- transient read faults


@pytest.mark.parametrize("store", BACKENDS)
class TestTransientReadFaults:
    def test_injected_read_error_leaves_state_unchanged(self, store):
        m = machine(store)
        disks, slots = load(m)
        m.attach_faults(FaultInjector(plan_for("store.read", at=(0,))))
        before = m.store.n_blocks()
        ios_before = m.stats.read_ios
        with pytest.raises(InjectedIOError, match="read fault"):
            m.read_blocks_arr(disks, slots, free=True)
        # no partial effects: nothing gathered, nothing freed, no I/O counted
        assert m.store.n_blocks() == before
        assert m.stats.read_ios == ios_before
        assert m.memory_in_use == 0

    def test_retry_after_transient_fault_succeeds(self, store):
        m = machine(store)
        disks, slots = load(m)
        m.attach_faults(FaultInjector(plan_for("store.read", at=(0,))))
        with pytest.raises(InjectedIOError):
            m.read_blocks_arr(disks, slots)
        # opportunity 1 is past the at=(0,) address: the retry runs clean
        out = m.read_blocks_arr(disks, slots)
        assert np.array_equal(out, blocks(D))

    def test_fresh_attempt_refires_at_same_index(self, store):
        # A rebuilt machine (new attempt) sees index 0 again — the fault
        # schedule is a function of the cell/attempt, not of history.
        for _ in range(2):
            m = machine(store)
            disks, slots = load(m)
            m.attach_faults(FaultInjector(plan_for("store.read", at=(0,))))
            with pytest.raises(InjectedIOError):
                m.read_blocks_arr(disks, slots)

    def test_failed_fused_read_free_then_double_free(self, store):
        m = machine(store)
        disks, slots = load(m)
        m.attach_faults(FaultInjector(plan_for("store.read", at=(0,))))
        with pytest.raises(InjectedIOError):
            m.read_blocks_arr(disks, slots, free=True)
        # the failed fused read freed nothing...
        assert m.store.n_blocks() == D
        m.detach_faults()
        out = m.read_blocks_arr(disks, slots, free=True)
        assert np.array_equal(out, blocks(D))
        assert m.store.n_blocks() == 0
        # ...and a double free after the successful one stays a no-op
        m.free_blocks_arr(disks, slots)
        assert m.store.n_blocks() == 0

    def test_free_fault_leaves_blocks_resident(self, store):
        m = machine(store)
        disks, slots = load(m)
        m.attach_faults(FaultInjector(plan_for("store.free", at=(0,))))
        with pytest.raises(InjectedIOError, match="free fault"):
            m.free_blocks_arr(disks, slots)
        assert m.store.n_blocks() == D

    def test_free_fault_fires_through_virtual_disks(self, store):
        """``VirtualDisks.free_arr`` frees through ``free_blocks_arr``, so
        the ``store.free`` hook sees it like any other free."""
        m = machine(store)
        v = VirtualDisks(m, 2)
        addrs = v.load_initial([(0, blocks(2).reshape(-1)),
                                (1, blocks(2, start=8).reshape(-1))])
        m.attach_faults(FaultInjector(plan_for("store.free", at=(0,))))
        with pytest.raises(InjectedIOError, match=r"free fault \(op 0"):
            v.free_arr(addrs)
        assert m.store.n_blocks() == D
        v.free_arr(addrs)  # op 1 is past the rule
        assert m.store.n_blocks() == 0

    def test_write_fault_fires_before_the_write(self, store):
        m = machine(store)
        m.attach_faults(FaultInjector(plan_for("store.write", at=(0,))))
        disks, slots = addresses(D)
        m.mem_acquire(D * B)
        with pytest.raises(InjectedIOError, match="write fault"):
            m.write_blocks_arr(disks, slots, blocks(D))
        assert m.store.n_blocks() == 0  # no partial effects
        assert m.stats.write_ios == 0


# ------------------------------------------------------------- checksums


@pytest.mark.parametrize("store", BACKENDS)
class TestChecksums:
    def test_corruption_detected_on_read(self, store):
        m = machine(store, checksums=True)
        disks, slots = load(m)
        m.store.corrupt_block(2, 0, bit_seed=12345)
        with pytest.raises(BlockCorruptionError, match="disk=2, slot=0"):
            m.read_blocks_arr(disks, slots)

    def test_corruption_detected_on_peek(self, store):
        m = machine(store, checksums=True)
        load(m)
        m.store.corrupt_block(1, 0, bit_seed=7)
        match = r"checksum mismatch on read of BlockAddress\(disk=1, slot=0\)"
        with pytest.raises(BlockCorruptionError, match=match):
            m.peek_blocks_arr(np.array([0, 1]), np.array([0, 0]))

    def test_corruption_detected_through_peek_many(self, store):
        m = machine(store, checksums=True)
        v = VirtualDisks(m, 2)
        addrs = v.load_initial([(0, blocks(2).reshape(-1)),
                                (1, blocks(2, start=8).reshape(-1))])
        m.store.corrupt_block(3, addrs[1].slot, bit_seed=5)  # virtual disk 1
        match = rf"checksum mismatch on read of BlockAddress\(disk=3, slot={addrs[1].slot}\)"
        with pytest.raises(BlockCorruptionError, match=match):
            v.peek_many(addrs)

    def test_failed_fused_read_free_frees_nothing(self, store):
        m = machine(store, checksums=True)
        disks, slots = load(m)
        m.store.corrupt_block(3, 0, bit_seed=99)
        with pytest.raises(BlockCorruptionError):
            m.read_blocks_arr(disks, slots, free=True)
        # the detection aborted the whole batch: all D blocks still resident
        assert m.store.n_blocks() == D

    def test_gather_defers_mismatch_to_its_round(self, store):
        """A windowed gather records a mismatch instead of raising; the
        charge of the round that reads the block raises it, with the
        message a single read would give."""
        m = machine(store, checksums=True)
        disks, slots = load(m)
        m.store.corrupt_block(2, 0, bit_seed=12345)
        with pytest.raises(BlockCorruptionError) as single:
            m.read_blocks_arr(disks, slots)
        matrix = m.gather_blocks_arr(disks, slots, free=True)
        assert matrix.shape == (D, B) and m.store.n_blocks() == 0
        m.charge_read_io(2, [(0, 0), (1, 0)])
        with pytest.raises(BlockCorruptionError) as deferred:
            m.charge_read_io(2, [(2, 0), (3, 0)])
        assert str(deferred.value) == str(single.value)
        assert m.stats.read_ios == 1

    def test_rewrite_clears_a_deferred_mismatch(self, store):
        """A later gather re-verifies: a rewritten block's old verdict
        does not outlive the rewrite."""
        m = machine(store, checksums=True)
        disks, slots = load(m)
        m.store.corrupt_block(0, 0, bit_seed=5)
        m.gather_blocks_arr(disks, slots)
        assert (0, 0) in m.corrupt_reads
        m.mem_acquire(D * B)
        m.write_blocks_arr(disks, slots, blocks(D, start=100))
        out = m.gather_blocks_arr(disks, slots)
        m.charge_read_io(D, list(zip(disks.tolist(), slots.tolist())))
        assert np.array_equal(out, blocks(D, start=100)) and not m.corrupt_reads

    def test_rewrite_clears_corruption(self, store):
        m = machine(store, checksums=True)
        disks, slots = load(m)
        m.store.corrupt_block(0, 0, bit_seed=5)
        m.mem_acquire(D * B)
        m.write_blocks_arr(disks, slots, blocks(D, start=100))
        out = m.read_blocks_arr(disks, slots)
        assert np.array_equal(out, blocks(D, start=100))

    def test_checksums_off_is_silent(self, store):
        m = machine(store, checksums=False)
        disks, slots = load(m)
        m.store.corrupt_block(2, 0, bit_seed=12345)
        m.read_blocks_arr(disks, slots)  # no checksum, no detection

    def test_env_var_enables_checksums(self, store, monkeypatch):
        monkeypatch.setenv("REPRO_PDM_CHECKSUMS", "1")
        m = machine(store)
        assert m.store.checksums
        monkeypatch.setenv("REPRO_PDM_CHECKSUMS", "0")
        assert not machine(store).store.checksums

    @pytest.mark.parametrize("value, on", [
        ("false", False), ("off", False), ("OFF", False), ("", False),
        ("true", True), ("on", True),
    ])
    def test_env_var_vocabulary(self, store, value, on, monkeypatch):
        monkeypatch.setenv("REPRO_PDM_CHECKSUMS", value)
        assert machine(store).store.checksums is on

    @pytest.mark.parametrize("value", ["yes", "2", "of"])
    def test_env_var_other_values_refused(self, store, value, monkeypatch):
        monkeypatch.setenv("REPRO_PDM_CHECKSUMS", value)
        with pytest.raises(ParameterError, match=f"REPRO_PDM_CHECKSUMS={value!r}"):
            machine(store)

    def test_corrupt_plan_auto_enables_checksums(self, store):
        plan = plan_for("store.write", mode="corrupt", at=(0,))
        with activate(FaultInjector(plan)):
            m = machine(store)
        assert m.store.checksums
        with activate(FaultInjector(plan_for("store.read", at=(0,)))):
            m2 = machine(store)
        assert not m2.store.checksums

    def test_injected_write_corruption_roundtrip(self, store):
        plan = plan_for("store.write", mode="corrupt", at=(0,))
        m = machine(store, checksums=True)
        m.attach_faults(FaultInjector(plan))
        disks, slots = addresses(D)
        m.mem_acquire(D * B)
        m.write_blocks_arr(disks, slots, blocks(D))
        m.detach_faults()
        with pytest.raises(BlockCorruptionError):
            m.read_blocks_arr(disks, slots)

    def test_freed_slot_forgets_its_checksum(self, store):
        m = machine(store, checksums=True)
        disks, slots = load(m)
        m.store.corrupt_block(0, 0, bit_seed=3)
        m.free_blocks_arr(disks, slots)
        # rewriting the freed slots starts fresh — no stale sum to trip on
        m.mem_acquire(D * B)
        m.write_blocks_arr(disks, slots, blocks(D, start=50))
        out = m.read_blocks_arr(disks, slots)
        assert np.array_equal(out, blocks(D, start=50))


# ------------------------------------------------- what the checksum sees


def stored(m, disk, slot):
    """A writable view of the block the store holds at ``(disk, slot)``,
    for damage ``corrupt_block`` cannot make."""
    if m.store.name == "arena":
        return m.store._arena[int(m.store._rows[disk, slot])]
    return m.store._disks[disk][slot]


def _read(m, disks, slots):
    m.read_blocks_arr(disks, slots)


def _peek(m, disks, slots):
    m.peek_blocks_arr(disks, slots)


def _gather(m, disks, slots):
    m.gather_blocks_arr(disks, slots)
    m.charge_read_io(len(disks), list(zip(disks.tolist(), slots.tolist())))


READS = {"read": _read, "peek": _peek, "gather": _gather}


@pytest.mark.parametrize("store", BACKENDS)
class TestChecksumDetection:
    """Every single-bit flip and every record swap of a stored block is
    caught, on each read path, and a recycled arena row's checksum is the
    one of the block last written into it."""

    @pytest.mark.parametrize("path", sorted(READS))
    def test_every_bit_flip_is_caught(self, store, path):
        m = machine(store, checksums=True)
        disks, slots = load(m)
        read = READS[path]
        n_bits = B * 16 * 8  # a record is 16 bytes
        for bit in range(n_bits):
            m.store.corrupt_block(1, 0, bit_seed=bit)
            with pytest.raises(BlockCorruptionError, match=r"disk=1, slot=0\)"):
                read(m, disks, slots)
            m.store.corrupt_block(1, 0, bit_seed=bit)  # flip it back
        read(m, disks, slots)
        assert m.stats.read_ios == (1 if path != "peek" else 0)

    @pytest.mark.parametrize("i, j", [(0, 1), (0, 3), (1, 2), (2, 3)])
    def test_swapped_records_are_caught(self, store, i, j):
        m = machine(store, checksums=True)
        disks, slots = load(m)
        block = stored(m, 2, 0)
        assert block[i] != block[j]
        block[[i, j]] = block[[j, i]]
        with pytest.raises(BlockCorruptionError, match=r"disk=2, slot=0\)"):
            m.read_blocks_arr(disks, slots)

    def test_recycled_row_carries_the_new_checksum(self, store):
        m = machine(store, checksums=True)
        disks, slots = load(m)
        m.read_blocks_arr(disks, slots, free=True)
        m.mem_release(D * B)
        rows = m.store.mem_snapshot()["slab_rows"]
        m.mem_acquire(D * B)
        m.write_blocks_arr(disks, slots + 1, blocks(D, start=500))
        out = m.read_blocks_arr(disks, slots + 1)
        assert np.array_equal(out, blocks(D, start=500))
        if store == "arena":  # the rewrite took the freed rows
            assert m.store.mem_snapshot()["slab_rows"] == rows
            assert m.store.mem_snapshot()["free_rows"] == 0
        m.store.corrupt_block(3, 1, bit_seed=200)
        with pytest.raises(BlockCorruptionError, match=r"disk=3, slot=1\)"):
            m.read_blocks_arr(disks, slots + 1)


# ----------------------------------------------------------- differential


class TestBackendsFailIdentically:
    """The two backends must agree on every failure, bit for bit."""

    def _pair(self, checksums=None):
        ms = [machine(s, checksums=checksums) for s in BACKENDS]
        for m in ms:
            load(m)
        return ms

    def test_injected_read_fault_identical(self):
        outcomes = []
        for m in self._pair():
            m.attach_faults(FaultInjector(plan_for("store.read", at=(0,)),
                                          cell="cell", attempt=0))
            disks, slots = addresses(D)
            with pytest.raises(InjectedIOError) as exc:
                m.read_blocks_arr(disks, slots, free=True)
            outcomes.append((str(exc.value), m.store.n_blocks(),
                             m.stats.read_ios, m.memory_in_use))
        assert outcomes[0] == outcomes[1]

    def test_corruption_error_identical(self):
        outcomes = []
        for m in self._pair(checksums=True):
            m.store.corrupt_block(2, 0, bit_seed=777)
            disks, slots = addresses(D)
            with pytest.raises(BlockCorruptionError) as exc:
                m.read_blocks_arr(disks, slots, free=True)
            outcomes.append((str(exc.value), m.store.n_blocks()))
        assert outcomes[0] == outcomes[1]

    def test_two_corrupt_blocks_identical(self):
        """The first corrupt block in batch order raises, the same on both
        backends; a gather records every corrupt block."""
        outcomes = []
        for m in self._pair(checksums=True):
            m.store.corrupt_block(3, 0, bit_seed=40)
            m.store.corrupt_block(1, 0, bit_seed=300)
            disks, slots = addresses(D)
            with pytest.raises(BlockCorruptionError) as exc:
                m.read_blocks_arr(disks, slots)
            m.gather_blocks_arr(disks, slots)
            outcomes.append((str(exc.value), {
                addr: str(err) for addr, err in m.corrupt_reads.items()}))
        assert outcomes[0] == outcomes[1]
        first, recorded = outcomes[0]
        assert first == "checksum mismatch on read of BlockAddress(disk=1, slot=0)"
        assert recorded == {
            (1, 0): first,
            (3, 0): "checksum mismatch on read of BlockAddress(disk=3, slot=0)",
        }

    def test_same_bit_flipped_on_both_backends(self):
        # corrupt_block(bit_seed) must damage the same bit of the same
        # block on both substrates: after the flip, the raw bytes agree.
        reads = []
        for m in self._pair(checksums=False):
            m.store.corrupt_block(1, 0, bit_seed=424242)
            disks, slots = addresses(D)
            reads.append(m.read_blocks_arr(disks, slots))
        assert np.array_equal(reads[0], reads[1])

    def test_fault_decision_stream_identical(self):
        # Same plan, same cell, same attempt → byte-identical fault
        # schedule regardless of backend (the injector never sees the
        # store, only opportunity indices).
        plan = plan_for("store.read", rate=0.5, seed=3)
        fired = []
        for name in BACKENDS:
            m = machine(name)
            disks, slots = load(m)
            inj = FaultInjector(plan, cell="deadbeef", attempt=0)
            m.attach_faults(inj)
            seen = []
            for _ in range(16):
                try:
                    m.read_blocks_arr(disks, slots)
                    m.mem_release(D * B)
                    seen.append(0)
                except InjectedIOError:
                    seen.append(1)
            fired.append(seen)
        assert fired[0] == fired[1]
        assert sum(fired[0]) > 0  # the plan actually fired


# ------------------------------------------------------------- inertness


@pytest.mark.parametrize("store", BACKENDS)
class TestInertWithoutPlan:
    def test_no_plan_no_hooks(self, store):
        m = machine(store)
        assert m._fault is None
        assert not m.store.checksums

    def test_non_store_plan_stays_inert(self, store):
        plan = plan_for("exec.task", at=(0,))
        with activate(FaultInjector(plan)):
            m = machine(store)
        assert m._fault is None  # exec-only plans never touch the I/O path

    def test_store_plan_attaches(self, store):
        plan = plan_for("store.read", at=(0,))
        with activate(FaultInjector(plan)):
            m = machine(store)
        assert m._fault is not None
