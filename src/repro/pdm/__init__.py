"""Parallel Disk Model substrate (Vitter–Shriver D-disk model, Figure 2).

``N`` records live on ``D`` physically distinct disks; in one I/O operation
each disk can transfer one block of ``B`` contiguous records, so up to ``D``
blocks move per I/O *only if no two of them touch the same disk* — the rule
that makes deterministic distribution sort hard and that
:class:`~repro.pdm.machine.ParallelDiskMachine` enforces on every
operation.  Internal memory holds ``M`` records (``1 ≤ DB ≤ M/2``),
enforced through the machine's memory ledger.  Internal computation is
metered by an attached :class:`~repro.pram.machine.PRAM` with ``P`` CPUs
(Figure 2b).
"""

from .machine import ParallelDiskMachine, IOStats, BlockAddress
from .striping import VirtualDisks, fully_striped_view
from .timing import DISK_1993, DISK_MODERN_HDD, DISK_NVME, DiskTimingModel

__all__ = [
    "ParallelDiskMachine",
    "IOStats",
    "BlockAddress",
    "VirtualDisks",
    "fully_striped_view",
    "DiskTimingModel",
    "DISK_1993",
    "DISK_MODERN_HDD",
    "DISK_NVME",
]
