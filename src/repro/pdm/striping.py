"""Disk striping and partial striping.

*Full striping* (Section 1) synchronizes all D disks so they behave as one
disk with block size ``B' = DB`` — the deterministic-but-suboptimal
technique the striped-merge-sort baseline uses.

*Partial striping* (Section 4.1 / Section 5) groups the ``D`` physical
disks into ``D'`` *virtual disks* of ``D/D'`` disks each, giving virtual
blocks of ``B·D/D'`` records.  Balance Sort needs the number of independent
units small enough for its matching machinery (the paper uses
``H' = H^{1/3}``) while keeping full hardware parallelism within each unit.

:class:`VirtualDisks` exposes exactly the two operations Balance Sort
needs, each costing one parallel I/O on the underlying machine:

* write at most one virtual block to each of a set of distinct virtual
  disks — :meth:`VirtualDisks.write_round`;
* read at most one virtual block from each of a set of distinct virtual
  disks — :meth:`VirtualDisks.gather_rounds_arr` moves the blocks of one
  or more planned rounds in one store pass, and
  :meth:`VirtualDisks.charge_read_round` charges each round at the point
  it is consumed.

Both refuse a round through :func:`check_round` (one block per virtual
disk, every virtual disk in range), and the write and the initial load
check their blocks through :func:`check_blocks`.
:class:`~repro.hierarchies.parallel.VirtualHierarchies` implements the
same contract with the same address type and the same checks, so the
Balance engine and the run streams drive both machine models alike.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from ..exceptions import DiskContentionError, ParameterError
from ..records import RECORD_DTYPE
from .machine import ParallelDiskMachine

__all__ = [
    "VirtualBlockAddress",
    "VirtualDisks",
    "check_blocks",
    "check_round",
    "default_virtual_disk_count",
    "fully_striped_view",
]


def default_virtual_disk_count(d: int) -> int:
    """The paper's partial-striping choice: ``D' = ⌊D^{1/3}⌋``-style.

    We take the largest divisor of ``D`` not exceeding ``ceil(D^{1/3})``
    when ``D`` has one; the cube-root scale is what makes the derandomized
    matching affordable (``H = (H')³`` processors run the ``(H')²`` copies).
    The hierarchies take ``H'`` by the same rule.
    """
    if d < 1:
        raise ParameterError("D must be positive")
    target = max(1, round(d ** (1.0 / 3.0)))
    for candidate in range(min(target, d), 0, -1):
        if d % candidate == 0:
            return candidate
    return 1


class VirtualBlockAddress(NamedTuple):
    """Address of one virtual block: virtual disk (or hierarchy) and slot.

    A ``NamedTuple`` rather than a frozen dataclass: one is built per
    written virtual block (tens of thousands per grid cell), and tuple
    construction skips the frozen ``object.__setattr__`` per field while
    keeping immutability, equality, and hashing.
    """

    vdisk: int
    slot: int


def check_round(
    channels: Sequence[int], n_virtual: int, unit: str, verb: str
) -> None:
    """Refuse one parallel I/O's channels unless distinct and in range.

    ``channels`` are plain ints, one per virtual block of the round;
    ``unit`` names a channel in the message (``"virtual disk"``) and
    ``verb`` the direction (``"addressed to"``, ``"read from"``).
    Rounds are tiny (``k ≤ H'``): a Python set and ``min``/``max`` beat
    numpy reductions.
    """
    k = len(channels)
    if k > 1 and len(set(channels)) != k:
        raise DiskContentionError(f"two virtual blocks {verb} one {unit}")
    if k and (min(channels) < 0 or max(channels) >= n_virtual):
        bad = next(v for v in channels if not 0 <= v < n_virtual)
        raise ParameterError(f"{unit} {bad} out of range [0, {n_virtual})")


def check_blocks(blocks, k: int, vb: int) -> None:
    """Refuse a write round's blocks unless they are ``k`` record blocks of
    ``vb`` records: a list of 1-D blocks or one ``(k, vb)`` matrix."""
    if len(blocks) != k:
        raise ParameterError(f"{k} channels but {len(blocks)} virtual blocks")
    matrix = isinstance(blocks, np.ndarray)
    for block in (blocks,) if matrix else blocks:
        if block.dtype != RECORD_DTYPE:
            raise TypeError(f"blocks must have record dtype, got {block.dtype}")
        if block.ndim != (2 if matrix else 1) or block.shape[-1] != vb:
            raise ParameterError(
                f"virtual block must hold {vb} records, got shape {block.shape}"
            )


class VirtualDisks:
    """Partial-striping view: D physical disks as D' virtual disks."""

    def __init__(self, machine: ParallelDiskMachine, n_virtual: int):
        if n_virtual < 1:
            raise ParameterError(f"need at least 1 virtual disk, got D'={n_virtual}")
        if machine.D % n_virtual != 0:
            raise ParameterError(
                f"D={machine.D} must be divisible by D'={n_virtual}"
            )
        self.machine = machine
        self.n_virtual = int(n_virtual)
        self.group = machine.D // self.n_virtual
        # Per-group disk offsets for the vectorized expansion.
        self._offsets = np.arange(self.group, dtype=np.int64)
        # Plain-list twin for the round-structured write path: physical
        # disks owned by each virtual disk, ready to splice per round.
        self._pdisk_rows = [
            list(range(c * self.group, (c + 1) * self.group))
            for c in range(self.n_virtual)
        ]

    @property
    def virtual_block_size(self) -> int:
        """Records per virtual block: B · (D / D')."""
        return self.machine.B * self.group

    # --------------------------------------------------- address expansion

    def _expand(self, vdisks: np.ndarray, slots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Virtual ``(vdisk, slot)`` arrays → physical ``(disk, slot)`` arrays.

        Virtual disk ``v`` owns physical disks ``[v·g, (v+1)·g)``; every
        physical block of a virtual block shares the virtual slot.
        """
        g = self.group
        if g == 1:
            return vdisks, slots
        return (vdisks[:, None] * g + self._offsets).ravel(), np.repeat(slots, g)

    @staticmethod
    def _addr_arrays(addresses: Sequence[VirtualBlockAddress]) -> tuple[np.ndarray, np.ndarray]:
        k = len(addresses)
        vdisks = np.fromiter((a.vdisk for a in addresses), np.int64, k)
        slots = np.fromiter((a.slot for a in addresses), np.int64, k)
        return vdisks, slots

    # ---------------------------------------------------------------- write

    def write_round(
        self, channels: Sequence[int], blocks, park: bool = False,
        checked: bool = True,
    ) -> list[VirtualBlockAddress]:
        """Write one block per listed virtual disk — one parallel I/O.

        ``channels`` is an int sequence; ``blocks`` holds the full
        virtual block bound for each channel, as a list of rows or one
        ``(k, virtual_block_size)`` record matrix.  All blocks share one
        freshly allocated slot, so blocks never collide.  Blocks are
        handed over — the caller must not mutate them after this call
        (the machine defers the scatter).  ``park`` is accepted for
        interface parity with the hierarchies and ignored: disk cost is
        address-independent.  ``checked=False`` skips
        :func:`check_round` and :func:`check_blocks` for a caller that
        enforces both structurally (the Balance engine assigns at most
        one full block per channel per batch).
        """
        k = len(channels)
        if k == 0:
            return []
        if checked:
            check_round(channels, self.n_virtual, "virtual disk", "addressed to")
            check_blocks(blocks, k, self.virtual_block_size)
        slot = self.machine.allocate_slots(1)
        if self.group == 1:
            pdisks = channels
        else:
            rows = self._pdisk_rows
            pdisks = []
            for c in channels:
                pdisks += rows[c]
        self.machine.write_round_blocks(pdisks, slot, blocks)
        new = tuple.__new__  # skips the NamedTuple __new__ frame per address
        return [new(VirtualBlockAddress, (c, slot)) for c in channels]

    # ----------------------------------------------------------------- read

    def gather_rounds_arr(
        self, round_addresses: Sequence[Sequence[VirtualBlockAddress]],
        free: bool = False,
    ) -> np.ndarray:
        """Physically gather one or more read rounds in one store pass.

        ``round_addresses`` lists each round's virtual-block addresses;
        every round is checked on its own by :func:`check_round`
        (contention is a per-round rule).  Returns a fresh
        ``(total_blocks, virtual_block_size)`` record matrix, rounds
        concatenated in order; ``free=True`` drops the blocks in the same
        store pass.  **No logical charges happen here** — the caller
        charges each round via :meth:`charge_read_round` at the point
        round-at-a-time execution would have issued it.
        """
        # Addresses accumulate as flat Python lists: per-round numpy
        # construction costs more than the fused store pass for the tiny
        # ≤ H' stripe widths.
        n_virtual = self.n_virtual
        all_vdisks: list[int] = []
        all_slots: list[int] = []
        for addresses in round_addresses:
            vdisks = [a.vdisk for a in addresses]
            check_round(vdisks, n_virtual, "virtual disk", "read from")
            all_vdisks.extend(vdisks)
            all_slots.extend(a.slot for a in addresses)
        total = len(all_vdisks)
        if total == 0:
            return np.empty((0, self.virtual_block_size), dtype=RECORD_DTYPE)
        pdisks, pslots = self._expand(
            np.array(all_vdisks, dtype=np.int64), np.array(all_slots, dtype=np.int64)
        )
        matrix = self.machine.gather_blocks_arr(pdisks, pslots, free=free)
        return matrix.reshape(total, self.virtual_block_size)

    def charge_read_round(
        self, addresses: Sequence[VirtualBlockAddress], free: bool = False
    ) -> None:
        """Charge one gathered read round: the virtual blocks at ``addresses``.

        The gather already moved (and with ``free`` dropped) the blocks.
        The round's physical addresses go along only when the machine
        holds a checksum mismatch, which then raises here if it is this
        round's.
        """
        machine = self.machine
        blocks = self._physical(addresses) if machine.corrupt_reads else None
        machine.charge_read_io(len(addresses) * self.group, blocks)

    def clean_rounds(
        self, round_addresses: Sequence[Sequence[VirtualBlockAddress]]
    ) -> int:
        """How many leading gathered rounds hold no block whose checksum
        failed (the first such round's charge raises)."""
        corrupt = self.machine.corrupt_reads
        if corrupt:
            for i, addresses in enumerate(round_addresses):
                if any(addr in corrupt for addr in self._physical(addresses)):
                    return i
        return len(round_addresses)

    def _physical(self, addresses) -> list[tuple[int, int]]:
        """The ``(disk, slot)`` pairs behind virtual addresses, in order."""
        g = self.group
        return [(a.vdisk * g + i, a.slot) for a in addresses for i in range(g)]

    # ------------------------------------------------- inspection, placement

    def free_arr(self, addresses: Sequence[VirtualBlockAddress]) -> None:
        """Drop virtual blocks from the disks (no I/O cost) — one batch."""
        if not addresses:
            return
        pdisks, pslots = self._expand(*self._addr_arrays(addresses))
        self.machine.free_blocks_arr(pdisks, pslots)

    def peek_many(self, addresses: Sequence[VirtualBlockAddress]) -> np.ndarray:
        """Inspect many virtual blocks without an I/O, in one store gather.

        Returns a fresh ``(k, virtual_block_size)`` matrix, row ``i`` the
        block at ``addresses[i]`` (tests/validators only).
        """
        if not addresses:
            return np.empty((0, self.virtual_block_size), dtype=RECORD_DTYPE)
        pdisks, pslots = self._expand(*self._addr_arrays(addresses))
        matrix = self.machine.peek_blocks_arr(pdisks, pslots)
        return matrix.reshape(len(addresses), self.virtual_block_size)

    def load_initial(self, blocks: Sequence[tuple[int, np.ndarray]]) -> list[VirtualBlockAddress]:
        """Place input blocks on the disks without charging I/Os.

        External sorting starts with the data resident on disk (Section 1);
        the initial layout is part of the problem statement, not the
        algorithm's cost.  Each block is refused through
        :func:`check_blocks` unless it holds ``virtual_block_size``
        records of the record dtype.
        """
        if not blocks:
            return []
        vb = self.virtual_block_size
        k = len(blocks)
        check_blocks([data for _, data in blocks], k, vb)
        matrix = np.empty((k, vb), dtype=RECORD_DTYPE)
        vdisks = np.empty(k, dtype=np.int64)
        slots = np.empty(k, dtype=np.int64)
        addresses = []
        for i, (v, data) in enumerate(blocks):
            matrix[i] = data
            vdisks[i] = v
            slots[i] = self.machine.allocate_slots(1)
            addresses.append(VirtualBlockAddress(vdisk=int(v), slot=int(slots[i])))
        pdisks, pslots = self._expand(vdisks, slots)
        self.machine.load_blocks_arr(pdisks, pslots, matrix.reshape(-1, self.machine.B))
        return addresses

    # Memory-ledger hooks used by the backend-agnostic Balance engine: it
    # materializes padding records and holds placed blocks in memory
    # until their stripe fills (hierarchies have no ledger).

    #: Placed blocks can wait in internal memory before they are written:
    #: the machine's ledger carries them until then.
    has_ledger = True

    def set_memory_spill(self, spill) -> None:
        """Install ``spill`` as the machine's memory-pressure hook (None
        clears it): see :meth:`ParallelDiskMachine.mem_acquire`."""
        self.machine.mem_spill = spill

    def acquire_memory(self, n_records: int) -> None:
        """Claim internal memory on the underlying machine's ledger."""
        self.machine.mem_acquire(n_records)

    def release_memory(self, n_records: int) -> None:
        """Return internal memory to the underlying machine's ledger."""
        self.machine.mem_release(n_records)


def fully_striped_view(machine: ParallelDiskMachine) -> VirtualDisks:
    """All D disks as a single logical disk with block size B' = DB."""
    return VirtualDisks(machine, n_virtual=1)
