"""Reference oracle for the fused I/O executor.

Round-at-a-time execution: every logical parallel read is read and
charged in one call — one ``ParallelDiskMachine.read_blocks_arr`` on
disks, one store read plus its step charge on hierarchies — and every
parallel write scatters into the store, taking any injected corruption,
at its own I/O.  This is the schedule the shipped executor must match
bit for bit: the windowed gathers of
:func:`repro.core.streams.read_run_batches`, the single-round gathers of
Greed Sort and the deferred write scatters of
:class:`~repro.pdm.machine.ParallelDiskMachine`.  The oracle expands
virtual addresses itself, so it never runs the executor it checks.
Differential tests run whole sorts with it patched in at the executor's
call sites (:func:`use_io`), the way ``kernel_reference.use_kernels``
patches the kernels.
"""

from contextlib import ExitStack
from unittest import mock

import numpy as np

from repro.hierarchies.parallel import VirtualHierarchies
from repro.pdm.machine import ParallelDiskMachine
from repro.pdm.striping import VirtualDisks
from repro.records import concat_records


def read_round(storage, addresses, free):
    """Read and charge one round of virtual-block ``addresses``."""
    if isinstance(storage, VirtualDisks):
        g = storage.group
        disks = [a.vdisk * g + i for a in addresses for i in range(g)]
        slots = [a.slot for a in addresses for _ in range(g)]
        matrix = storage.machine.read_blocks_arr(disks, slots, free=free)
        return matrix.reshape(len(addresses), storage.virtual_block_size)
    vdisks = np.array([a.vdisk for a in addresses], dtype=np.int64)
    slots = np.array([a.slot for a in addresses], dtype=np.int64)
    matrix = storage._store.read_batch(vdisks, slots)
    storage.machine.parallel_step(storage._step_costs(slots), kind="read")
    if free:
        storage.free_arr(addresses)
    return matrix


def execute_rounds(storage, rounds, free):
    """One window per round, read and charged by :func:`read_round`."""
    for refs in rounds:
        addresses = [r.address for r in refs]
        yield [refs], [addresses], read_round(storage, addresses, free)


def gather_rounds_arr(self, round_addresses, free=False):
    """Each round read and charged at once, in order."""
    return np.concatenate([read_round(self, a, free) for a in round_addresses])


def charged_by_read(self, addresses, free=False):
    """No charge left to make: :func:`read_round` charged the round."""


def _land_write(machine, disks, slots, data, corrupt):
    """Scatter, damage, then charge one parallel write of ``len(disks)``."""
    k = len(disks)
    machine.store.write_batch(disks, slots, data)
    if corrupt is not None:
        row, bit_seed = corrupt
        machine.store.corrupt_block(int(disks[row]), int(slots[row]), bit_seed)
    machine.mem_release(k * machine.B)
    machine.stats.write_ios += 1
    machine.stats.blocks_written += k
    if k == machine.D:
        machine.stats.full_width_writes += 1
    ev = machine._ev_write
    if ev is not None:
        mark, add_width, add_full = ev
        mark()
        add_width(k)
        add_full(k == machine.D)


def write_blocks_arr(self, disks, slots, data):
    """``ParallelDiskMachine.write_blocks_arr``, stored at its own I/O."""
    disks = np.asarray(disks, dtype=np.int64)
    slots = np.asarray(slots, dtype=np.int64)
    if disks.size == 0:
        return
    self._check_io_batch(disks, slots)
    corrupt = self._fault.on_write(disks.size) if self._fault is not None else None
    _land_write(self, disks, slots, data, corrupt)


def write_round_blocks(self, disks, slot, blocks):
    """``ParallelDiskMachine.write_round_blocks``, stored at its own I/O."""
    k = len(disks)
    if k == 0:
        return
    corrupt = self._fault.on_write(k) if self._fault is not None else None
    if not isinstance(blocks, np.ndarray):
        blocks = blocks[0] if len(blocks) == 1 else concat_records(blocks)
    _land_write(
        self, np.array(disks, dtype=np.int64), np.full(k, slot, dtype=np.int64),
        blocks.reshape(-1, self.B), corrupt,
    )


def use_io(name: str) -> ExitStack:
    """Context manager selecting the I/O executor every call site runs.

    ``"rounds"`` patches in round-at-a-time execution; ``"fused"`` leaves
    the shipped windowed executor.
    """
    stack = ExitStack()
    if name == "rounds":
        stack.enter_context(
            mock.patch("repro.core.streams._execute_windows", execute_rounds)
        )
        for cls in (VirtualDisks, VirtualHierarchies):
            stack.enter_context(
                mock.patch.object(cls, "gather_rounds_arr", gather_rounds_arr)
            )
            stack.enter_context(
                mock.patch.object(cls, "charge_read_round", charged_by_read)
            )
        stack.enter_context(
            mock.patch.object(ParallelDiskMachine, "write_blocks_arr", write_blocks_arr)
        )
        stack.enter_context(
            mock.patch.object(ParallelDiskMachine, "write_round_blocks", write_round_blocks)
        )
    return stack


def use_window(rounds: int):
    """Patch the executor's window, ``PLAN_WINDOW``, to ``rounds``."""
    return mock.patch("repro.pdm.machine.PLAN_WINDOW", rounds)
