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
local address.  It implements the same contract as
:class:`repro.pdm.striping.VirtualDisks` — one write (``write_round``),
one read (``gather_rounds_arr`` + ``charge_read_round``), the same
:class:`~repro.pdm.striping.VirtualBlockAddress` and the same round and
block checks — so the Balance engine (:mod:`repro.core.balance`) drives
disks and hierarchies identically: the paper's central portability
claim.

Addresses are recycled lowest-first (a free-list per virtual hierarchy), so
a subproblem of n records occupies the first O(n/H') addresses — the
working-set assumption under which the paper's recurrences (Lemmas 2–4)
hold.
"""

from __future__ import annotations

import heapq
from typing import Sequence

import numpy as np

from ..exceptions import AddressError, ParameterError
from ..hypercube.sharesort import T_H
from ..pdm.store import make_store
from ..pdm.striping import (
    VirtualBlockAddress,
    check_blocks,
    check_round,
    default_virtual_disk_count,
)
from ..records import RECORD_DTYPE, concat_records
from .bt import BT
from .cost import CostFunction, LogCost
from .hmm import HMM

__all__ = [
    "INTERCONNECTS",
    "MODELS",
    "ParallelHierarchies",
    "VirtualHierarchies",
    "EffectiveBTCost",
]


#: The hierarchy kinds (Figure 3) and base-level interconnects.
MODELS = ("hmm", "bt", "umh")
INTERCONNECTS = ("pram", "hypercube")


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
        if model not in MODELS:
            raise ParameterError(f"model must be one of {MODELS}, got {model!r}")
        if interconnect not in INTERCONNECTS:
            raise ParameterError(f"interconnect must be one of {INTERCONNECTS}")
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
    ``gather_rounds_arr`` + ``charge_read_round``, ``free_arr``,
    ``peek_many``, ``load_initial`` — the contract the Balance engine
    and the run streams consume.

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
        n_virtual = n_virtual or default_virtual_disk_count(h)
        if n_virtual < 1 or h % n_virtual != 0:
            raise ParameterError(f"H={h} must be divisible by H'={n_virtual}")
        self.machine = machine
        self.n_virtual = int(n_virtual)
        self.group = h // self.n_virtual
        self.cost_fn = effective_cost or machine.cost_fn
        # Virtual-block payloads live in the same block store as the disk
        # machine ("channels" here are virtual hierarchies, the block size
        # is one record per member hierarchy); both simulators build
        # repro.pdm.store.DEFAULT_STORE.
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

    def _step_costs(self, slots: np.ndarray) -> list[float]:
        """Per-channel access costs for one parallel step (one vector call)."""
        return [float(c) for c in self.cost_fn(slots + 1)]

    # ---------------------------------------------------------------- write

    def write_round(
        self, channels: Sequence[int], blocks, park: bool = False,
        checked: bool = True,
    ) -> list[VirtualBlockAddress]:
        """Write ``blocks[i]`` to virtual hierarchy ``channels[i]`` — one step.

        :meth:`repro.pdm.striping.VirtualDisks.write_round`'s contract:
        ``blocks`` is a list of rows or one ``(k, virtual_block_size)``
        record matrix (the store scatters a copy), and ``checked=False``
        skips :func:`~repro.pdm.striping.check_round` and
        :func:`~repro.pdm.striping.check_blocks`.  ``park=True`` places
        the blocks at the highest recycled addresses (or the frontier):
        used for distribution output and sorted results so they stay
        clear of the front, where repositioned subproblems compact
        (DESIGN.md §4; the working-set discipline of the paper's
        recurrences).  The step costs ``max f(slot + 1)`` over the
        written slots.
        """
        k = len(channels)
        if k == 0:
            return []
        if checked:
            check_round(channels, self.n_virtual, "virtual hierarchy", "addressed to")
            check_blocks(blocks, k, self.group)
        vdisks = np.array(channels, dtype=np.int64)
        slots = [self._alloc(v, park=park) for v in channels]
        slot_arr = np.array(slots, dtype=np.int64)
        if not isinstance(blocks, np.ndarray):
            blocks = concat_records(blocks).reshape(k, self.group)
        self._store.write_batch(vdisks, slot_arr, blocks)
        self.machine.parallel_step(self._step_costs(slot_arr), kind="write")
        return list(map(VirtualBlockAddress, vdisks.tolist(), slots))

    # ----------------------------------------------------------------- read

    def gather_rounds_arr(
        self, round_addresses: Sequence[Sequence[VirtualBlockAddress]],
        free: bool = False,
    ) -> np.ndarray:
        """Gather one or more read rounds in one store pass.

        The hierarchy twin of
        :meth:`repro.pdm.striping.VirtualDisks.gather_rounds_arr`: each
        round is checked on its own by
        :func:`~repro.pdm.striping.check_round`, and the fused
        ``(total_blocks, virtual_block_size)`` matrix comes back with
        rounds in order.  Nothing is charged **or freed** here — each
        round's step cost and address recycling happen at its
        :meth:`charge_read_round`, so the free pools (and hence every
        later slot and step cost) evolve exactly as round-at-a-time.
        """
        n_virtual = self.n_virtual
        flat: list[VirtualBlockAddress] = []
        for addresses in round_addresses:
            check_round([a.vdisk for a in addresses], n_virtual,
                        "virtual hierarchy", "read from")
            flat.extend(addresses)
        k = len(flat)
        if k == 0:
            return np.empty((0, self.group), dtype=RECORD_DTYPE)
        vdisks = np.fromiter((a.vdisk for a in flat), np.int64, k)
        slots = np.fromiter((a.slot for a in flat), np.int64, k)
        try:
            return self._store.read_batch(vdisks, slots)
        except AddressError:
            for a in flat:
                if not self._store.has(a.vdisk, a.slot):
                    raise AddressError(f"read of unwritten virtual block {a}") from None
            raise  # pragma: no cover - read_batch raised for another reason

    def charge_read_round(
        self, addresses: Sequence[VirtualBlockAddress], free: bool = False
    ) -> None:
        """Charge one gathered read round: one parallel step over ``addresses``.

        The step costs ``max f(slot + 1)`` over the round's channels;
        ``free=True`` then recycles the round's addresses exactly as
        :meth:`free_arr` would.  The round's address columns are built
        once and serve both: every block of a round just gathered is
        resident and on its own hierarchy, so the free needs no
        residency test.
        """
        if not addresses:
            return
        vdisks, slots = zip(*addresses)
        slot_arr = np.array(slots, dtype=np.int64)
        self.machine.parallel_step(self._step_costs(slot_arr), kind="read")
        if free:
            self._recycle(vdisks, slots)
            self._store.free_batch(np.array(vdisks, dtype=np.int64), slot_arr)

    def clean_rounds(
        self, round_addresses: Sequence[Sequence[VirtualBlockAddress]]
    ) -> int:
        """Every gathered round is clean: hierarchy stores keep no checksums."""
        return len(round_addresses)

    def free_arr(self, addresses: Sequence[VirtualBlockAddress]) -> None:
        """Recycle virtual-block addresses (no cost) in one store batch.

        Each freed slot joins its hierarchy's free pools, served from
        either end; absent or repeated addresses are no-ops.
        """
        store = self._store
        # Plain lists: a round frees at most H' blocks (H^{1/3} by default),
        # so building the arrays from generators would dominate the call.
        live = [(v, slot) for v, slot in addresses if store.has(v, slot)]
        if live:
            vdisks, slots = zip(*live)
            self._recycle(vdisks, slots)
            store.free_batch(
                np.array(vdisks, dtype=np.int64), np.array(slots, dtype=np.int64)
            )

    def _recycle(self, vdisks: Sequence[int], slots: Sequence[int]) -> None:
        """Push freed slots into their hierarchies' free pools, in order."""
        for v, slot in zip(vdisks, slots):
            if slot not in self._free_set[v]:
                self._free_set[v].add(slot)
                heapq.heappush(self._free_min[v], slot)
                heapq.heappush(self._free_max[v], -slot)

    def load_initial(self, blocks: Sequence[tuple[int, np.ndarray]]) -> list[VirtualBlockAddress]:
        """Place input blocks without charging cost (the problem's given state).

        Each block is refused through :func:`~repro.pdm.striping.check_blocks`
        unless it holds ``virtual_block_size`` records of the record dtype.
        """
        if not blocks:
            return []
        k = len(blocks)
        check_blocks([data for _, data in blocks], k, self.group)
        vdisks = np.empty(k, dtype=np.int64)
        slots = np.empty(k, dtype=np.int64)
        matrix = np.empty((k, self.group), dtype=RECORD_DTYPE)
        addresses = []
        for i, (v, data) in enumerate(blocks):
            if not 0 <= v < self.n_virtual:
                raise ParameterError(f"virtual hierarchy {v} out of range")
            slot = self._alloc(v)
            vdisks[i], slots[i] = v, slot
            matrix[i] = data
            addresses.append(VirtualBlockAddress(vdisk=v, slot=slot))
        self._store.write_batch(vdisks, slots, matrix)
        return addresses

    def peek_many(self, addresses: Sequence[VirtualBlockAddress]) -> np.ndarray:
        """Inspect many virtual blocks without charging, in one store gather.

        Returns a fresh ``(k, virtual_block_size)`` matrix, row ``i`` the
        block at ``addresses[i]`` (tests/validators only).
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

    #: No internal memory outside the hierarchy holds a placed block, so
    #: the Balance engine writes every batch at once.
    has_ledger = False

    def acquire_memory(self, n_records: int) -> None:
        """No-op: the cost function, not a capacity, limits hierarchies."""
        pass

    def release_memory(self, n_records: int) -> None:
        """No-op counterpart of :meth:`acquire_memory`."""
        pass
