"""Disk layout helpers: striped files and extents.

A :class:`StripedFile` is a logical record array laid out round-robin over
the D disks — logical block ``i`` on disk ``i mod D`` — the conventional
layout for inputs and sorted outputs.  Reading or writing one *stripe*
(D consecutive logical blocks at the same slot on every disk) is a single
parallel I/O, which is how every algorithm in this package streams
contiguous data at full bandwidth.

Partial final blocks are padded with sentinel records (key and rid both
``2**64 - 1``); the file knows its logical length and trims the padding on
read, keeping the machine's memory ledger balanced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..exceptions import AddressError, ParameterError
from ..records import PAD_KEY, RECORD_DTYPE, concat_records, pad_records
from .machine import BlockAddress, ParallelDiskMachine

__all__ = ["PAD_KEY", "Extent", "StripedFile"]


@dataclass(frozen=True)
class Extent:
    """A contiguous range of slots present on every disk: [start, start+slots)."""

    start: int
    slots: int

    @property
    def end(self) -> int:
        return self.start + self.slots


class StripedFile:
    """A logical record array striped block-by-block across all D disks.

    Logical block ``i`` lives at ``BlockAddress(disk=i % D, slot=start + i // D)``.
    """

    def __init__(self, machine: ParallelDiskMachine, length: int, start_slot: int):
        if length < 0:
            raise ParameterError("file length must be non-negative")
        self.machine = machine
        self.length = int(length)
        self.start_slot = int(start_slot)

    # ------------------------------------------------------------- shape

    @property
    def n_blocks(self) -> int:
        """Number of logical blocks (ceil(length / B))."""
        return math.ceil(self.length / self.machine.B) if self.length else 0

    @property
    def n_stripes(self) -> int:
        """Number of stripes = parallel I/Os to stream the whole file."""
        return math.ceil(self.n_blocks / self.machine.D) if self.n_blocks else 0

    @property
    def slots_used(self) -> int:
        return math.ceil(self.n_blocks / self.machine.D) if self.n_blocks else 0

    def block_address(self, logical_block: int) -> BlockAddress:
        """Physical address of logical block ``i``."""
        if not 0 <= logical_block < self.n_blocks:
            raise AddressError(
                f"logical block {logical_block} out of range [0, {self.n_blocks})"
            )
        d = self.machine.D
        return BlockAddress(disk=logical_block % d, slot=self.start_slot + logical_block // d)

    def _stripe_blocks(self, stripe: int) -> list[int]:
        lo = stripe * self.machine.D
        hi = min(lo + self.machine.D, self.n_blocks)
        if lo >= hi:
            raise AddressError(f"stripe {stripe} out of range [0, {self.n_stripes})")
        return list(range(lo, hi))

    def _block_record_count(self, logical_block: int) -> int:
        b = self.machine.B
        lo = logical_block * b
        return min(b, self.length - lo)

    # --------------------------------------------------------------- I/O

    def load_initial(self, records: np.ndarray) -> None:
        """Place the input on disk without charging I/Os.

        External sorting starts with the data already resident on the disks
        (Section 1); initial placement is part of the problem statement, not
        of the algorithm's cost.
        """
        if records.shape[0] != self.length:
            raise ParameterError(
                f"file was sized for {self.length} records, got {records.shape[0]}"
            )
        if not self.length:
            return
        b, d = self.machine.B, self.machine.D
        padded = pad_records(records, b)
        logical = np.arange(self.n_blocks, dtype=np.int64)
        self.machine.load_blocks_arr(
            logical % d,
            self.start_slot + logical // d,
            padded.reshape(self.n_blocks, b),
        )

    def _stripe_addr_arrays(self, stripe: int) -> tuple[np.ndarray, np.ndarray]:
        blocks = np.array(self._stripe_blocks(stripe), dtype=np.int64)
        d = self.machine.D
        return blocks % d, self.start_slot + blocks // d

    def read_stripe(self, stripe: int) -> np.ndarray:
        """One parallel I/O: read the (≤ D) blocks of one stripe, trimmed.

        The file knows its logical length, so the final stripe's padding
        is trimmed by count (a view of the freshly gathered batch — no
        pad scan, no extra copy) and returned to the memory ledger.
        """
        blocks = self._stripe_blocks(stripe)
        disks, slots = self._stripe_addr_arrays(stripe)
        flat = self.machine.read_blocks_arr(disks, slots).reshape(-1)
        n_real = sum(self._block_record_count(i) for i in blocks)
        self.machine.mem_release(flat.shape[0] - n_real)
        return flat[:n_real]

    def write_stripe(self, stripe: int, records: np.ndarray) -> None:
        """One parallel I/O: write one stripe's blocks (padded if final)."""
        blocks = self._stripe_blocks(stripe)
        b = self.machine.B
        expected = sum(self._block_record_count(i) for i in blocks)
        if records.shape[0] != expected:
            raise ParameterError(
                f"stripe {stripe} holds {expected} records, got {records.shape[0]}"
            )
        padded = pad_records(records, b)
        self.machine.mem_acquire(padded.shape[0] - records.shape[0])
        disks, slots = self._stripe_addr_arrays(stripe)
        self.machine.write_blocks_arr(disks, slots, padded.reshape(len(blocks), b))

    def read_all(self) -> np.ndarray:
        """Stream the whole file (n_stripes parallel I/Os)."""
        if self.length == 0:
            return np.empty(0, dtype=RECORD_DTYPE)
        parts = [self.read_stripe(t) for t in range(self.n_stripes)]
        return concat_records(parts)

    def write_all(self, records: np.ndarray) -> None:
        """Stream records into the file (n_stripes parallel I/Os)."""
        if records.shape[0] != self.length:
            raise ParameterError(
                f"file was sized for {self.length} records, got {records.shape[0]}"
            )
        b, d = self.machine.B, self.machine.D
        per_stripe = b * d
        for t in range(self.n_stripes):
            self.write_stripe(t, records[t * per_stripe : min((t + 1) * per_stripe, self.length)])

    def free(self) -> None:
        """Drop all the file's blocks from the disks (one batched call)."""
        if not self.n_blocks:
            return
        logical = np.arange(self.n_blocks, dtype=np.int64)
        d = self.machine.D
        self.machine.free_blocks_arr(logical % d, self.start_slot + logical // d)
