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
needs, each costing one parallel I/O on the underlying machine (contention
rules still enforced there):

* write at most one virtual block to each of a set of distinct virtual
  disks;
* read at most one virtual block from each of a set of distinct virtual
  disks.

Each has one entry point (``parallel_write_arr`` or the list-native
``write_round``, and ``parallel_read_arr``) that expands virtual
addresses to physical ``(disk, slot)`` index arrays and moves one
``(k, virtual_block_size)`` record matrix per parallel I/O (see
``docs/performance.md``).
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from ..exceptions import DiskContentionError, ParameterError
from ..records import RECORD_DTYPE
from .machine import ParallelDiskMachine

__all__ = ["VirtualBlockAddress", "VirtualDisks", "fully_striped_view", "default_virtual_disk_count"]


def default_virtual_disk_count(d: int) -> int:
    """The paper's partial-striping choice: ``D' = ⌊D^{1/3}⌋``-style.

    We take the largest divisor of ``D`` not exceeding ``ceil(D^{1/3})``
    when ``D`` has one; the cube-root scale is what makes the derandomized
    matching affordable (``H = (H')³`` processors run the ``(H')²`` copies).
    """
    if d < 1:
        raise ParameterError("D must be positive")
    target = max(1, round(d ** (1.0 / 3.0)))
    for candidate in range(min(target, d), 0, -1):
        if d % candidate == 0:
            return candidate
    return 1


class VirtualBlockAddress(NamedTuple):
    """Address of one virtual block: virtual disk and physical slot.

    A ``NamedTuple`` rather than a frozen dataclass: one is built per
    written virtual block (tens of thousands per grid cell), and tuple
    construction skips the frozen ``object.__setattr__`` per field while
    keeping immutability, equality, and hashing.
    """

    vdisk: int
    slot: int


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
        # Cached per-group disk offsets for the vectorized expansion.
        self._offsets = np.arange(self.group, dtype=np.int64)
        # Physical-disk expansions keyed by the virtual-disk tuple.  The key
        # space is tiny (H'! orderings at most, H' = D^(1/3)-ish), while the
        # expansion itself runs once per parallel I/O — caching it removes
        # two array constructions from every I/O.  Consumers only *read*
        # the cached arrays (fancy-index sources), never mutate them.
        self._pdisk_cache: dict[tuple, np.ndarray] = {}
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
        return self._expand_disks(vdisks), np.repeat(slots, g)

    def _expand_disks(self, vdisks: np.ndarray) -> np.ndarray:
        """Memoized virtual→physical disk expansion (``group > 1`` only)."""
        key = tuple(vdisks.tolist())
        pdisks = self._pdisk_cache.get(key)
        if pdisks is None:
            pdisks = (vdisks[:, None] * self.group + self._offsets).ravel()
            self._pdisk_cache[key] = pdisks
        return pdisks

    def _check_vdisks(self, vdisks: np.ndarray, verb: str) -> None:
        # Tiny batches (k ≤ H'): a Python set/min/max beats numpy reductions.
        listed = vdisks.tolist()
        k = len(listed)
        if k > 1 and len(set(listed)) != k:
            raise DiskContentionError(
                f"two virtual blocks {verb} one virtual disk"
            )
        if k and (min(listed) < 0 or max(listed) >= self.n_virtual):
            bad = next(v for v in listed if not 0 <= v < self.n_virtual)
            raise ParameterError(
                f"virtual disk {bad} out of range [0, {self.n_virtual})"
            )

    @staticmethod
    def _addr_arrays(addresses: Sequence[VirtualBlockAddress]) -> tuple[np.ndarray, np.ndarray]:
        k = len(addresses)
        vdisks = np.fromiter((a.vdisk for a in addresses), np.int64, k)
        slots = np.fromiter((a.slot for a in addresses), np.int64, k)
        return vdisks, slots

    # ------------------------------------------------------ batched fast path

    def parallel_write_arr(
        self, vdisks: np.ndarray, data: np.ndarray, park: bool = False
    ) -> list[VirtualBlockAddress]:
        """Write ≤1 virtual block per virtual disk — one parallel I/O.

        ``data`` is one ``(k, virtual_block_size)`` record matrix; row
        ``i`` lands on virtual disk ``vdisks[i]``.  Rows may be views of
        caller buffers (the store scatters a copy).  Returns the address
        of each written block (slots are bump-allocated per write so
        blocks never collide).  ``park`` is accepted for interface
        parity with the hierarchy backend and ignored: disk I/O cost is
        address-independent.
        """
        vdisks = np.asarray(vdisks, dtype=np.int64)
        k = vdisks.size
        if k == 0:
            return []
        self._check_vdisks(vdisks, "addressed to")
        vb = self.virtual_block_size
        if data.shape != (k, vb):
            raise ParameterError(
                f"virtual block must hold {vb} records, got {data.shape[1] if data.ndim == 2 else data.shape[0]}"
            )
        slot = self.machine.allocate_slots(1)
        g = self.group
        # All k blocks share the freshly allocated slot, so the physical
        # slot array is a single np.full — no per-write expansion needed.
        pdisks = vdisks if g == 1 else self._expand_disks(vdisks)
        pslots = np.full(k * g, slot, dtype=np.int64)
        # checked=False: _check_vdisks guaranteed distinct in-range virtual
        # disks (hence distinct in-range physical disks) and the slot came
        # from the machine's own bump allocator.
        self.machine.write_blocks_arr(
            pdisks, pslots, data.reshape(-1, self.machine.B), checked=False
        )
        return [VirtualBlockAddress(vdisk=int(v), slot=slot) for v in vdisks.tolist()]

    def write_round(
        self, channels: Sequence[int], blocks: Sequence[np.ndarray],
        park: bool = False, checked: bool = True,
    ) -> list[VirtualBlockAddress]:
        """Write one block per listed virtual disk — one parallel I/O.

        The list-native twin of :meth:`parallel_write_arr` for
        round-structured writers (the Balance engine's per-round
        batches): ``channels`` is an int sequence, ``blocks[i]`` the
        full virtual block bound for ``channels[i]``.  Charges, ledger
        and obs effects are identical; the per-call numpy address
        assembly is replaced by Python smalls (stripe widths are ≤ H').
        Blocks are handed over — the caller must not mutate them after
        this call.  ``park`` is accepted for interface parity and
        ignored (disk cost is address-independent).  ``checked=False``
        skips the contention/range/shape validation for callers that
        enforce all three structurally (the Balance engine assigns at
        most one full block per channel per batch) — same convention as
        :meth:`parallel_write_arr`.
        """
        k = len(channels)
        if k == 0:
            return []
        if checked:
            if k > 1 and len(set(channels)) != k:
                raise DiskContentionError(
                    "two virtual blocks addressed to one virtual disk"
                )
            n_virtual = self.n_virtual
            if min(channels) < 0 or max(channels) >= n_virtual:
                bad = next(v for v in channels if not 0 <= v < n_virtual)
                raise ParameterError(
                    f"virtual disk {bad} out of range [0, {n_virtual})"
                )
            vb = self.virtual_block_size
            for block in blocks:
                if block.shape[0] != vb:
                    raise ParameterError(
                        f"virtual block must hold {vb} records, got {block.shape[0]}"
                    )
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

    def parallel_read_arr(
        self, addresses: Sequence[VirtualBlockAddress], free: bool = False
    ) -> np.ndarray:
        """Read ≤1 virtual block per virtual disk — one parallel I/O.

        Returns a freshly gathered ``(k, virtual_block_size)`` record
        matrix (row ``i`` is the block at ``addresses[i]``); never views
        into the store, so the caller may hold it indefinitely.
        ``free=True`` drops the blocks right after the gather (one fused
        store pass — the streaming consume pattern; no extra I/O charge,
        exactly like a follow-up :meth:`free_arr`).
        """
        if not addresses:
            return np.empty((0, self.virtual_block_size), dtype=RECORD_DTYPE)
        vdisks, slots = self._addr_arrays(addresses)
        self._check_vdisks(vdisks, "read from")
        pdisks, pslots = self._expand(vdisks, slots)
        # checked=False: distinct in-range vdisks imply distinct in-range
        # physical disks; the machine still guards negative slots.
        matrix = self.machine.read_blocks_arr(pdisks, pslots, free=free, checked=False)
        return matrix.reshape(len(addresses), self.virtual_block_size)

    def free_arr(self, addresses: Sequence[VirtualBlockAddress]) -> None:
        """Drop virtual blocks from the disks (no I/O cost) — one batch."""
        if not addresses:
            return
        pdisks, pslots = self._expand(*self._addr_arrays(addresses))
        self.machine.free_blocks_arr(pdisks, pslots)

    # ------------------------------------------------------------ I/O plans

    def gather_rounds_arr(
        self, round_addresses: Sequence[Sequence[VirtualBlockAddress]],
        free: bool = False,
    ) -> np.ndarray:
        """Physically gather several future read rounds in one store pass.

        ``round_addresses`` lists each planned round's virtual-block
        addresses; every round is validated against the one-block-per-
        virtual-disk rule *individually* (contention is a per-logical-
        round rule).  Returns the fused ``(total_blocks,
        virtual_block_size)`` record matrix, rounds concatenated in plan
        order.  **No logical charges happen here** — the caller charges
        each round via :meth:`charge_read_round` at the point
        round-at-a-time execution would have issued it.
        """
        # Addresses accumulate as flat Python lists (per-round numpy
        # construction costs more than the fused store pass for the tiny
        # ≤ H' stripe widths); the per-round contention check stays —
        # it is a per-logical-round rule.
        n_virtual = self.n_virtual
        all_vdisks: list[int] = []
        all_slots: list[int] = []
        for addresses in round_addresses:
            vdisks = [a.vdisk for a in addresses]
            k = len(vdisks)
            if k > 1 and len(set(vdisks)) != k:
                raise DiskContentionError(
                    "two virtual blocks read from one virtual disk"
                )
            if k and (min(vdisks) < 0 or max(vdisks) >= n_virtual):
                bad = next(v for v in vdisks if not 0 <= v < n_virtual)
                raise ParameterError(
                    f"virtual disk {bad} out of range [0, {n_virtual})"
                )
            all_vdisks.extend(vdisks)
            all_slots.extend(a.slot for a in addresses)
        total = len(all_vdisks)
        if total == 0:
            return np.empty((0, self.virtual_block_size), dtype=RECORD_DTYPE)
        vdisks = np.array(all_vdisks, dtype=np.int64)
        slots = np.array(all_slots, dtype=np.int64)
        g = self.group
        if g == 1:
            pdisks, pslots = vdisks, slots
        else:
            # Direct expansion (the per-round memo cache is keyed by tiny
            # per-I/O tuples; fused multi-round keys would only bloat it).
            pdisks = (vdisks[:, None] * g + self._offsets).ravel()
            pslots = np.repeat(slots, g)
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
        g = self.group
        blocks = None
        if machine.corrupt_reads:
            blocks = [(a.vdisk * g + i, a.slot) for a in addresses for i in range(g)]
        machine.charge_read_io(len(addresses) * g, blocks)

    # ------------------------------------------------- inspection, placement

    def peek_many(self, addresses: Sequence[VirtualBlockAddress]) -> np.ndarray:
        """Inspect many virtual blocks without an I/O, in one store gather.

        Returns a fresh ``(k, virtual_block_size)`` matrix, row ``i`` the
        block at ``addresses[i]`` (tests/validators only).
        """
        if not addresses:
            return np.empty((0, self.virtual_block_size), dtype=RECORD_DTYPE)
        vdisks, slots = self._addr_arrays(addresses)
        # Direct expansion: the memo cache is for per-round stripe keys.
        pdisks = (vdisks[:, None] * self.group + self._offsets).ravel()
        matrix = self.machine.peek_blocks_arr(pdisks, np.repeat(slots, self.group))
        return matrix.reshape(len(addresses), self.virtual_block_size)

    def load_initial(self, blocks: Sequence[tuple[int, np.ndarray]]) -> list[VirtualBlockAddress]:
        """Place input blocks on the disks without charging I/Os.

        External sorting starts with the data resident on disk (Section 1);
        the initial layout is part of the problem statement, not the
        algorithm's cost.
        """
        if not blocks:
            return []
        vb = self.virtual_block_size
        k = len(blocks)
        matrix = np.empty((k, vb), dtype=RECORD_DTYPE)
        vdisks = np.empty(k, dtype=np.int64)
        slots = np.empty(k, dtype=np.int64)
        addresses = []
        for i, (v, data) in enumerate(blocks):
            if data.shape[0] != vb:
                raise ParameterError(
                    f"virtual block must hold {vb} records, got {data.shape[0]}"
                )
            matrix[i] = data
            vdisks[i] = v
            slots[i] = self.machine.allocate_slots(1)
            addresses.append(VirtualBlockAddress(vdisk=int(v), slot=int(slots[i])))
        pdisks, pslots = self._expand(vdisks, slots)
        self.machine.load_blocks_arr(pdisks, pslots, matrix.reshape(-1, self.machine.B))
        return addresses

    # Memory-ledger hooks used by the backend-agnostic Balance engine when
    # it materializes padding records (hierarchies have no ledger).
    def acquire_memory(self, n_records: int) -> None:
        """Claim internal memory on the underlying machine's ledger."""
        self.machine.mem_acquire(n_records)

    def release_memory(self, n_records: int) -> None:
        """Return internal memory to the underlying machine's ledger."""
        self.machine.mem_release(n_records)


def fully_striped_view(machine: ParallelDiskMachine) -> VirtualDisks:
    """All D disks as a single logical disk with block size B' = DB."""
    return VirtualDisks(machine, n_virtual=1)
