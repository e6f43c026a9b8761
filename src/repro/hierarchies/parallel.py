"""Parallel memory hierarchies (Figure 4): H hierarchies + an interconnect.

``H`` same-kind hierarchies (HMM, BT, or UMH-style cost accounting) have
their base levels attached to ``H`` processors connected as an EREW PRAM or
a hypercube.  Elapsed memory time is charged per *parallel step*: when the
hierarchies perform accesses simultaneously, the step costs the maximum of
the per-hierarchy access costs.  Interconnect time accumulates separately
(sorting H base-level items costs ``T(H)``: ``log H`` on a PRAM,
``log H (log log H)²`` on a hypercube — see
:func:`repro.hypercube.sharesort.T_H`).

:class:`VirtualHierarchies` implements the paper's **partial hierarchy
striping** (Section 4.1): the ``H`` hierarchies are grouped into
``H' = H^{1/3}`` *virtual hierarchies*, and a *virtual block* of
``H/H'`` records is striped one record per member hierarchy at a common
local address.  It exposes the same ``parallel_write`` / ``parallel_read``
interface as :class:`repro.pdm.striping.VirtualDisks`, so the Balance
engine (:mod:`repro.core.balance`) drives disks and hierarchies
identically — the paper's central portability claim.

Addresses are recycled lowest-first (a free-list per virtual hierarchy), so
a subproblem of n records occupies the first O(n/H') addresses — the
working-set assumption under which the paper's recurrences (Lemmas 2–4)
hold.
"""

from __future__ import annotations

import heapq
import math
from contextlib import contextmanager
from typing import NamedTuple, Sequence

import numpy as np

from ..exceptions import AddressError, DiskContentionError, ParameterError
from ..hypercube.sharesort import T_H
from ..pdm.store import make_store
from ..records import RECORD_DTYPE, argsort_records
from .bt import BT, touch_cost, transpose_cost
from .cost import CostFunction, LogCost
from .hmm import HMM

__all__ = [
    "ParallelHierarchies",
    "VirtualHierarchies",
    "VirtualBlockAddress",
    "EffectiveBTCost",
    "default_virtual_hierarchy_count",
]


def default_virtual_hierarchy_count(h: int) -> int:
    """The paper's ``H' = H^{1/3}`` (largest divisor of H not exceeding it)."""
    target = max(1, round(h ** (1.0 / 3.0)))
    for candidate in range(min(target, h), 0, -1):
        if h % candidate == 0:
            return candidate
    return 1


class VirtualBlockAddress(NamedTuple):
    """Address of one virtual block: virtual hierarchy and local address.

    A ``NamedTuple`` for the same reason as the PDM twin: per-block
    construction cost on the write path (see ``repro.pdm.striping``).
    """

    vdisk: int  # named vdisk for interface-compatibility with VirtualDisks
    slot: int


class ParallelHierarchies:
    """H hierarchies of one kind with an interconnect at the base level."""

    def __init__(
        self,
        h: int,
        model: str = "hmm",
        cost_fn: CostFunction | None = None,
        interconnect: str = "pram",
    ):
        if h < 1:
            raise ParameterError("H must be >= 1")
        if model not in ("hmm", "bt", "umh"):
            raise ParameterError(f"model must be 'hmm', 'bt' or 'umh', got {model!r}")
        if interconnect not in ("pram", "hypercube"):
            raise ParameterError(f"interconnect must be 'pram' or 'hypercube'")
        self.h = int(h)
        self.model = model
        if model == "umh" and cost_fn is None:
            from .cost import UMHCost

            cost_fn = UMHCost()
        self.cost_fn = cost_fn or LogCost()
        self.interconnect = interconnect
        cls = BT if model == "bt" else HMM
        self.hierarchies = [cls(self.cost_fn) for _ in range(self.h)]
        #: Elapsed memory time: sum over parallel steps of the max hierarchy cost.
        self.memory_time = 0.0
        #: Accumulated interconnect (sorting/routing/compute) time.
        self.interconnect_time = 0.0
        self.parallel_steps = 0
        # Observability (optional; None keeps the stepping paths untouched).
        self._obs = None
        self._obs_scope = None

    # ---------------------------------------------------------- observability

    def attach_obs(self, obs, scope: str = "hierarchy") -> None:
        """Attach an :class:`~repro.obs.Observation` to this machine.

        Under ``obs.scope(scope)``: counters ``parallel_steps`` /
        ``interconnect_charges``, gauges ``memory_time`` /
        ``interconnect_time`` (running totals with watermarks), and a
        ``step.cost`` histogram of per-parallel-step max access costs.  The
        member hierarchies share per-model access counters under a child
        scope (``hmm`` / ``bt``), so the access-path traffic aggregates
        across all H hierarchies.  Model-time totals stay bit-identical
        whether or not anything is attached.
        """
        self._obs = obs
        self._obs_scope = obs.scope(scope)
        sub = self._obs_scope.scope(self.model)
        for hier in self.hierarchies:
            hier.attach_obs(sub)

    def detach_obs(self) -> None:
        """Remove the attached observation (hooks become no-ops again)."""
        self._obs = self._obs_scope = None
        for hier in self.hierarchies:
            hier.detach_obs()

    # ----------------------------------------------------------- stepping

    def parallel_step(
        self, per_hierarchy_costs: Sequence[float], kind: str | None = None
    ) -> None:
        """Charge one simultaneous memory step: elapsed += max(costs).

        ``kind`` (``"read"`` / ``"write"``, optional) tags the emitted
        ``mem.step`` trace event with the access direction so offline
        profilers can build per-direction stripe-width histograms — it
        never affects the charged cost.
        """
        if per_hierarchy_costs:
            step = max(per_hierarchy_costs)
            self.memory_time += step
            self.parallel_steps += 1
            if self._obs_scope is not None:
                self._obs_scope.counter("parallel_steps").inc()
                self._obs_scope.gauge("memory_time").set(self.memory_time)
                self._obs_scope.histogram("step.width").observe(len(per_hierarchy_costs))
                self._obs_scope.histogram(
                    "step.cost", buckets=(1, 2, 4, 8, 16, 32, 64, 128)
                ).observe(step)
                if kind is None:
                    self._obs.event(
                        "mem.step", width=len(per_hierarchy_costs),
                        cost=round(step, 6),
                    )
                else:
                    self._obs.event(
                        "mem.step", width=len(per_hierarchy_costs),
                        cost=round(step, 6), kind=kind,
                    )

    def charge_interconnect(self, time: float) -> None:
        """Accumulate interconnect (sorting/routing/compute) time."""
        self.interconnect_time += float(time)
        if self._obs_scope is not None:
            self._obs_scope.counter("interconnect_charges").inc()
            self._obs_scope.gauge("interconnect_time").set(self.interconnect_time)

    def sort_time(self) -> float:
        """``T(H)`` for this interconnect."""
        return T_H(self.h, interconnect=self.interconnect)

    def charge_base_sort(self, rounds: int = 1) -> None:
        """Charge ``rounds`` interconnect sorts of H base-level items."""
        self.charge_interconnect(rounds * self.sort_time())

    @property
    def total_time(self) -> float:
        """The model's elapsed time: memory steps + interconnect activity."""
        return self.memory_time + self.interconnect_time

    def reset_costs(self) -> None:
        """Zero every cost counter and any attached metrics scope."""
        self.memory_time = 0.0
        self.interconnect_time = 0.0
        self.parallel_steps = 0
        for hier in self.hierarchies:
            hier.reset_cost()
        if self._obs_scope is not None:
            self._obs_scope.reset()

    def snapshot(self) -> dict:
        """Current counters as a plain dict (for reporting)."""
        return {
            "H": self.h,
            "model": self.model,
            "cost": self.cost_fn.name,
            "interconnect": self.interconnect,
            "memory_time": self.memory_time,
            "interconnect_time": self.interconnect_time,
            "total_time": self.total_time,
            "parallel_steps": self.parallel_steps,
        }


class EffectiveBTCost(CostFunction):
    """Per-record streaming cost on a BT hierarchy (Section 4.4).

    The [ACSa] "touch" pipeline streams ``n`` in-order records through the
    base at ``touch_cost(n)``, i.e. an *effective* per-record cost of
    ``log log x`` for ``f = x^α, α < 1`` (the case the paper concentrates
    on — "we get the same recurrence as for the P-HMM model, using an
    effective cost function f(x) = log log x"), ``log x`` for ``α = 1``,
    and ``x^{α−1}`` for ``α > 1``.  ``f = log x`` hierarchies stream at
    ``log log`` too (an upper-bound charge; see DESIGN.md §2).
    """

    def __init__(self, base: CostFunction):
        object.__setattr__(self, "name", f"bt-effective({base.name})")
        object.__setattr__(self, "base", base)

    def __call__(self, addresses) -> np.ndarray:
        x = np.maximum(np.asarray(addresses, dtype=np.float64), 2.0)
        alpha = getattr(self.base, "alpha", None)
        if alpha is None or alpha < 1:
            return np.maximum(1.0, np.log2(np.maximum(np.log2(x), 2.0)))
        if alpha == 1:
            return np.maximum(1.0, np.log2(x))
        return x ** (alpha - 1)


class VirtualHierarchies:
    """Partial striping of a :class:`ParallelHierarchies` into H' groups.

    Interface-compatible with :class:`repro.pdm.striping.VirtualDisks`:
    ``n_virtual``, ``virtual_block_size``, ``write_round``,
    ``parallel_write``, ``parallel_read``, ``free``, ``load_initial`` —
    the contract the Balance engine and the run streams consume.

    A virtual block of ``H/H'`` records is striped one record per member
    hierarchy at a common local address, so a parallel step touching one
    block per channel costs ``max_blocks f(slot + 1)`` (the group's
    hierarchies work simultaneously, each accessing one location).  On a BT
    machine pass ``effective_cost=EffectiveBTCost(machine.cost_fn)`` to
    charge the touch-pipeline streaming rate instead of raw ``f``.
    """

    def __init__(
        self,
        machine: ParallelHierarchies,
        n_virtual: int | None = None,
        effective_cost: CostFunction | None = None,
    ):
        h = machine.h
        n_virtual = n_virtual or default_virtual_hierarchy_count(h)
        if n_virtual < 1 or h % n_virtual != 0:
            raise ParameterError(f"H={h} must be divisible by H'={n_virtual}")
        self.machine = machine
        self.n_virtual = int(n_virtual)
        self.group = h // self.n_virtual
        self.cost_fn = effective_cost or machine.cost_fn
        # Virtual-block payloads live in the same pluggable slab/dict
        # substrate as the disk machine ("channels" here are virtual
        # hierarchies, the block size is one record per member hierarchy);
        # $REPRO_PDM_STORE selects the backend for both simulators.
        self._store = make_store(None, self.n_virtual, self.group)
        # Dual-ended free pool per virtual hierarchy: low allocations
        # compact subproblems to the front (the working-set discipline the
        # paper's recurrences assume), "parked" allocations take the highest
        # recycled slot (or extend the frontier) so in-flight distribution
        # output and sorted results stay out of the compaction zone.
        self._free_min: list[list[int]] = [[] for _ in range(self.n_virtual)]
        self._free_max: list[list[int]] = [[] for _ in range(self.n_virtual)]
        self._free_set: list[set] = [set() for _ in range(self.n_virtual)]
        self._frontier = [0] * self.n_virtual

    @property
    def virtual_block_size(self) -> int:
        """Records per virtual block: one per member hierarchy = H/H'."""
        return self.group

    # ------------------------------------------------------------ I/O plans

    #: Fused I/O plans (``ParallelDiskMachine.io_plan``) never apply to
    #: hierarchy backends: the cost model charges every parallel step
    #: with *address-dependent* costs (``cost_fn(slots + 1)``), so rounds
    #: must execute one at a time.  Planned readers consult this and take
    #: the classic round-at-a-time path.
    io_plan_window = 0

    @contextmanager
    def io_plan(self, window: int | None = None):
        """Interface parity with :class:`~repro.pdm.striping.VirtualDisks`.

        A no-op scope: hierarchy execution is always round-at-a-time
        (see ``io_plan_window``), but sorts can open the scope uniformly
        on either backend.
        """
        yield None

    def _alloc(self, v: int, park: bool = False) -> int:
        """Take a free slot: lowest free (default) or highest free / frontier.

        The free *set* is authoritative; the two heaps are advisory indexes
        into it (entries going stale when the twin heap served the slot).
        """
        free = self._free_set[v]
        heap = self._free_max[v] if park else self._free_min[v]
        while heap:
            slot = -heap[0] if park else heap[0]
            if slot in free:
                heapq.heappop(heap)
                free.discard(slot)
                return slot
            heapq.heappop(heap)  # stale entry
        addr = self._frontier[v]
        self._frontier[v] += 1
        return addr

    def _check_block(self, v: int, data: np.ndarray) -> None:
        if not 0 <= v < self.n_virtual:
            raise ParameterError(f"virtual hierarchy {v} out of range")
        if data.shape[0] != self.group:
            raise ParameterError(
                f"virtual block must hold {self.group} records, got {data.shape[0]}"
            )

    def _step_costs(self, slots: np.ndarray) -> list[float]:
        """Per-channel access costs for one parallel step (one vector call)."""
        return [float(c) for c in self.cost_fn(slots + 1)]

    # ------------------------------------------------------ batched fast path

    def parallel_write_arr(
        self, vdisks: np.ndarray, data: np.ndarray, park: bool = False
    ) -> list[VirtualBlockAddress]:
        """Write ≤1 virtual block per virtual hierarchy — one parallel step.

        Batched flavour of :meth:`parallel_write`: ``data`` is one
        ``(k, virtual_block_size)`` record matrix whose rows may be views
        of caller buffers (the store scatters a copy).  ``park=True``
        places the blocks at the highest recycled addresses (or the
        frontier) — see :meth:`parallel_write`.
        """
        vdisks = np.asarray(vdisks, dtype=np.int64)
        k = vdisks.size
        if k == 0:
            return []
        if k > 1 and np.unique(vdisks).size != k:
            raise DiskContentionError("two virtual blocks addressed to one virtual hierarchy")
        if int(vdisks.min()) < 0 or int(vdisks.max()) >= self.n_virtual:
            bad = int(vdisks[(vdisks < 0) | (vdisks >= self.n_virtual)][0])
            raise ParameterError(f"virtual hierarchy {bad} out of range")
        if data.shape != (k, self.group):
            raise ParameterError(
                f"virtual block must hold {self.group} records, got "
                f"{data.shape[1] if data.ndim == 2 else data.shape[0]}"
            )
        slots = np.empty(k, dtype=np.int64)
        for i, v in enumerate(vdisks.tolist()):
            slots[i] = self._alloc(v, park=park)
        self._store.write_batch(vdisks, slots, data)
        addresses = [
            VirtualBlockAddress(vdisk=int(v), slot=int(s))
            for v, s in zip(vdisks.tolist(), slots.tolist())
        ]
        self.machine.parallel_step(self._step_costs(slots), kind="write")
        return addresses

    def write_round(
        self, channels: Sequence[int], blocks: Sequence[np.ndarray],
        park: bool = False, checked: bool = True,
    ) -> list[VirtualBlockAddress]:
        """Write ``blocks[i]`` to virtual hierarchy ``channels[i]`` — one step.

        :meth:`repro.pdm.striping.VirtualDisks.write_round`'s signature
        over :meth:`parallel_write_arr` (which does the write, so slots,
        addresses and step cost are its own).  ``checked=False`` skips
        the per-block range/shape checks; contention is always checked.
        """
        k = len(channels)
        if k == 0:
            return []
        matrix = np.empty((k, self.group), dtype=RECORD_DTYPE)
        for i, (v, block) in enumerate(zip(channels, blocks)):
            if checked:
                self._check_block(v, block)
            matrix[i] = block
        return self.parallel_write_arr(
            np.array(channels, dtype=np.int64), matrix, park=park
        )

    def parallel_read_arr(
        self, addresses: Sequence[VirtualBlockAddress], free: bool = False
    ) -> np.ndarray:
        """Read ≤1 virtual block per virtual hierarchy — one parallel step.

        Returns a freshly gathered ``(k, virtual_block_size)`` record
        matrix; never views into the store.  ``free=True`` recycles the
        addresses right after the gather (equivalent to a follow-up
        :meth:`free_arr`; the address pools still see every slot).
        """
        if not addresses:
            return np.empty((0, self.group), dtype=RECORD_DTYPE)
        k = len(addresses)
        vdisks = np.fromiter((a.vdisk for a in addresses), np.int64, k)
        slots = np.fromiter((a.slot for a in addresses), np.int64, k)
        if k > 1 and np.unique(vdisks).size != k:
            raise DiskContentionError("two virtual blocks read from one virtual hierarchy")
        try:
            matrix = self._store.read_batch(vdisks, slots)
        except AddressError:
            for a in addresses:
                if not self._store.has(a.vdisk, a.slot):
                    raise AddressError(f"read of unwritten virtual block {a}") from None
            raise  # pragma: no cover - read_batch raised for another reason
        self.machine.parallel_step(self._step_costs(slots), kind="read")
        if free:
            self.free(addresses)
        return matrix

    def free_arr(self, addresses: Sequence[VirtualBlockAddress]) -> None:
        """Batched alias of :meth:`free` (address pools need per-slot pushes)."""
        self.free(addresses)

    # --------------------------------------------------------- classic API

    def parallel_write(
        self, items: Sequence[tuple[int, np.ndarray]], park: bool = False
    ) -> list[VirtualBlockAddress]:
        """Write ≤1 virtual block per virtual hierarchy — one parallel step.

        ``park=True`` places the blocks at the highest recycled addresses
        (or the frontier): used for distribution output and sorted results
        so they stay clear of the front, where repositioned subproblems
        compact (DESIGN.md §4; the working-set discipline of the paper's
        recurrences).  Thin shim over :meth:`write_round`.
        """
        return self.write_round(
            [v for v, _ in items], [data for _, data in items], park=park
        )

    def parallel_read(self, addresses: Sequence[VirtualBlockAddress]) -> list[np.ndarray]:
        """Read ≤1 virtual block per virtual hierarchy — one parallel step.

        Thin shim over :meth:`parallel_read_arr`; the returned blocks are
        rows of the fresh batch matrix (safe to hold and mutate).
        """
        if not addresses:
            return []
        return list(self.parallel_read_arr(addresses))

    def free(self, addresses: Sequence[VirtualBlockAddress]) -> None:
        """Recycle virtual-block addresses (served from either pool end)."""
        for a in addresses:
            if self._store.has(a.vdisk, a.slot):
                self._store.free(a.vdisk, a.slot)
                if a.slot not in self._free_set[a.vdisk]:
                    self._free_set[a.vdisk].add(a.slot)
                    heapq.heappush(self._free_min[a.vdisk], a.slot)
                    heapq.heappush(self._free_max[a.vdisk], -a.slot)

    def load_initial(self, blocks: Sequence[tuple[int, np.ndarray]]) -> list[VirtualBlockAddress]:
        """Place input blocks without charging cost (the problem's given state)."""
        if not blocks:
            return []
        k = len(blocks)
        vdisks = np.empty(k, dtype=np.int64)
        slots = np.empty(k, dtype=np.int64)
        matrix = np.empty((k, self.group), dtype=RECORD_DTYPE)
        addresses = []
        for i, (v, data) in enumerate(blocks):
            self._check_block(v, data)
            slot = self._alloc(v)
            vdisks[i], slots[i] = v, slot
            matrix[i] = data
            addresses.append(VirtualBlockAddress(vdisk=v, slot=slot))
        self._store.write_batch(vdisks, slots, matrix)
        return addresses

    def peek(self, address: VirtualBlockAddress) -> np.ndarray:
        """Inspect a virtual block without charging (tests/validators only).

        Zero-copy read-only view under the arena backend; a defensive
        copy under ``REPRO_PDM_STORE=dict``.
        """
        if not self._store.has(address.vdisk, address.slot):
            raise AddressError(f"peek of unwritten virtual block {address}") from None
        return self._store.peek(address.vdisk, address.slot)

    def peek_many(self, addresses: Sequence[VirtualBlockAddress]) -> np.ndarray:
        """Inspect many virtual blocks without charging, in one store gather.

        Returns a fresh ``(k, virtual_block_size)`` matrix, row ``i`` the
        block at ``addresses[i]`` (validators only, like :meth:`peek`).
        """
        if not addresses:
            return np.empty((0, self.group), dtype=RECORD_DTYPE)
        k = len(addresses)
        vdisks = np.fromiter((a.vdisk for a in addresses), np.int64, k)
        slots = np.fromiter((a.slot for a in addresses), np.int64, k)
        bad = (vdisks < 0) | (vdisks >= self.n_virtual) | (slots < 0)
        if bad.any():
            a = addresses[int(np.argmax(bad))]
            raise AddressError(f"peek of unwritten virtual block {a}")
        try:
            return self._store.read_batch(vdisks, slots)
        except AddressError:
            for a in addresses:
                if not self._store.has(a.vdisk, a.slot):
                    raise AddressError(f"peek of unwritten virtual block {a}") from None
            raise  # pragma: no cover - read_batch raised for another reason

    def footprint(self, v: int) -> int:
        """Current high-water address on channel v (working-set diagnostics)."""
        return self._frontier[v]

    # Ledger hooks (no-ops: HMM/BT have no hard memory capacity — the cost
    # function plays that role), present for engine/backend interchangeability.
    def acquire_memory(self, n_records: int) -> None:
        """No-op: the cost function, not a capacity, limits hierarchies."""
        pass

    def release_memory(self, n_records: int) -> None:
        """No-op counterpart of :meth:`acquire_memory`."""
        pass
