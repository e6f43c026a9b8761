"""Reference oracle for the fused I/O executor.

Round-at-a-time execution: every logical parallel read is one charged
``parallel_read_arr`` call, and every parallel write scatters into the
store — taking any injected corruption — at its own I/O.  This is the
schedule the shipped executor must match bit for bit: the windowed
gathers of :func:`repro.core.streams.read_run_batches` and the deferred
write scatters of :class:`~repro.pdm.machine.ParallelDiskMachine`.
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


def execute_rounds(storage, rounds, free):
    """One window per round, read and charged by ``parallel_read_arr``."""
    for refs in rounds:
        addresses = [r.address for r in refs]
        yield [refs], [addresses], storage.parallel_read_arr(addresses, free=free)


def charged_by_read(self, addresses, free=False):
    """No charge left to make: :func:`execute_rounds` read the round."""


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
    if machine._ev_write is not None:
        machine._ev_write(k, k == machine.D)


def write_blocks_arr(self, disks, slots, data, checked=True):
    """``ParallelDiskMachine.write_blocks_arr``, stored at its own I/O."""
    disks = np.asarray(disks, dtype=np.int64)
    slots = np.asarray(slots, dtype=np.int64)
    if disks.size == 0:
        return
    if checked:
        self._check_io_batch(disks, slots)
    corrupt = self._fault.on_write(disks.size) if self._fault is not None else None
    _land_write(self, disks, slots, data, corrupt)


def write_round_blocks(self, disks, slot, blocks):
    """``ParallelDiskMachine.write_round_blocks``, stored at its own I/O."""
    k = len(disks)
    if k == 0:
        return
    corrupt = self._fault.on_write(k) if self._fault is not None else None
    data = (blocks[0] if len(blocks) == 1 else concat_records(blocks)).reshape(-1, self.B)
    _land_write(
        self, np.array(disks, dtype=np.int64), np.full(k, slot, dtype=np.int64),
        data, corrupt,
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
