"""Block storage backends for the parallel disk machine.

The paper's cost model counts parallel I/Os and internal operations —
*how* the simulator keeps blocks on its pretend disks is free.  This
module therefore provides two interchangeable storage substrates behind
one small interface:

:class:`ArenaBlockStore` (the default)
    A slab allocator: all blocks of all disks live in **one contiguous
    ``(capacity, B)`` record array** that grows geometrically, with a
    per-disk ``(D, slot_capacity)`` row map (``-1`` = unwritten) and a
    free-row stack so freed arena rows are recycled.  A parallel I/O
    over ``k`` blocks is a single fancy-indexed gather/scatter on the
    slab instead of ``k`` Python dict lookups and ``k`` per-block
    copies.  The slab is shared across disks precisely because one
    parallel I/O touches at most one block per *distinct* disk — a
    per-disk slab would force ``k`` separate gathers and surrender the
    batching win.

:class:`DictBlockStore`
    The original dict-of-dicts layout, kept as the bit-for-bit reference
    backend for the differential suite (``tests/store_reference.py``
    selects it through :data:`DEFAULT_STORE`) and for debugging.

Copy discipline (see ``docs/performance.md``):

* ``read_batch`` always returns a **freshly gathered** ``(k, B)``
  matrix — never views into the arena — so callers may hold read
  buffers across later writes and frees without aliasing hazards.
* ``write_batch`` always copies *into* the store (a scatter for the
  arena, per-row ``.copy()`` for the dict backend), so callers may
  pass views of their own buffers.

Each operation has one batched entry point — ``read_batch``,
``write_batch``, ``free_batch`` — plus ``has`` for diagnostics; a
validator's peek is a ``read_batch`` too.

Checksums (opt-in, ``checksums=True``) are computed a whole batch at a
time by :func:`block_checksums`: one vectorized pass gives every block
of a ``(k, B)`` matrix a 64-bit sum.  The arena keeps them in a
``uint64`` array beside its rows; a read batch is verified with one
vectorized comparison before anything is freed.  Any change confined to
one 64-bit word of a block — every single-bit flip ``corrupt_block``
makes — is always detected; random damage to several words goes unseen
with probability about 2^-64 (CRC-32's is 2^-32).
"""

from __future__ import annotations

import numpy as np

from ..exceptions import AddressError, BlockCorruptionError, ParameterError
from ..records import RECORD_DTYPE

__all__ = [
    "ArenaBlockStore",
    "DictBlockStore",
    "DEFAULT_STORE",
    "STORE_BACKENDS",
    "make_store",
]

_SLOT_GROWTH_MIN = 64
_ROW_GROWTH_MIN = 64


def _unwritten(kind: str, disk: int, slot: int) -> AddressError:
    # Mirrors the legacy message built from BlockAddress.__repr__.
    return AddressError(
        f"{kind} of unwritten block BlockAddress(disk={int(disk)}, slot={int(slot)})"
    )


_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_S27, _S30, _S31 = np.uint64(27), np.uint64(30), np.uint64(31)


def _mix(x: np.ndarray) -> np.ndarray:
    """splitmix64's finalizer, in place: a bijection of 64-bit words."""
    t = x >> _S30
    x ^= t
    x *= _MIX1
    np.right_shift(x, _S27, out=t)
    x ^= t
    x *= _MIX2
    np.right_shift(x, _S31, out=t)
    x ^= t
    return x


def checksum_salt(block: int) -> np.ndarray:
    """One distinct 64-bit salt per word of a ``block``-record block."""
    return _mix(np.arange(1, 2 * block + 1, dtype=np.uint64) * _GOLDEN)


def block_checksums(blocks: np.ndarray, salt: np.ndarray) -> np.ndarray:
    """The 64-bit checksum of every block of a ``(k, B)`` record matrix.

    Each record is two 64-bit words (``key``, ``rid``); word ``j`` of a
    block contributes ``mix(word + salt[j])`` and a block's checksum is
    the sum of its ``2B`` terms modulo 2^64 (``salt`` comes from
    :func:`checksum_salt`).  ``mix`` is a bijection and each word has its
    own term, so **any change confined to one word changes the sum** —
    every single-bit flip is detected.  The per-position salt makes the
    sum depend on where each word sits, so swapped records are caught
    too.  Random damage to several words goes unseen with probability
    about 2^-64 (CRC-32's is 2^-32).
    """
    words = np.ascontiguousarray(blocks, dtype=RECORD_DTYPE).view(np.uint64)
    x = words.reshape(-1, salt.size) + salt
    return np.add.reduce(_mix(x), axis=1)


def _check_sums(
    got: np.ndarray, expected: np.ndarray, disks: np.ndarray,
    slots: np.ndarray, mismatches: dict | None,
) -> None:
    """Raise :class:`BlockCorruptionError` for the first block whose
    checksum differs — or, given a ``mismatches`` dict, record every one
    there under ``(disk, slot)``."""
    for i in np.flatnonzero(got != expected).tolist():
        d, s = int(disks[i]), int(slots[i])
        error = BlockCorruptionError(
            f"checksum mismatch on read of BlockAddress(disk={d}, slot={s})"
        )
        if mismatches is None:
            raise error
        mismatches[(d, s)] = error


class ArenaBlockStore:
    """Slab-allocated block store: one shared ``(capacity, B)`` arena.

    ``_rows[d, s]`` holds the arena row of block ``(disk=d, slot=s)`` or
    ``-1`` when unwritten.  Freed rows go on ``_free_rows`` and are
    recycled before the arena grows, so long runs with block churn keep
    a compact working set.  With checksums on, ``_sums[r]`` is the
    checksum of the block last written into row ``r``.
    """

    name = "arena"

    def __init__(self, n_disks: int, block: int, checksums: bool = False):
        self.D = int(n_disks)
        self.B = int(block)
        #: Opt-in checksums, one per arena row.  ``None`` when disabled so
        #: the hot paths pay a single attribute test.
        self._salt = checksum_salt(self.B) if checksums else None
        self._sums = np.empty(0, dtype=np.uint64) if checksums else None
        self._arena = np.empty((0, self.B), dtype=RECORD_DTYPE)
        self._rows = np.full((self.D, 0), -1, dtype=np.int64)
        self._free_rows: list[int] = []
        self._next_row = 0
        # Occupancy gauges (telemetry only — never read by sort logic, so
        # they can stay always-on without touching payload purity).
        self._resident = 0
        self.high_water_blocks = 0
        self.grow_events = 0

    @property
    def checksums(self) -> bool:
        """True when per-block integrity checksums are being kept."""
        return self._sums is not None

    def corrupt_block(self, disk: int, slot: int, bit_seed: int) -> None:
        """Flip one bit of a stored block **without** updating its checksum.

        The fault injector's ``store.write``/``corrupt`` effect: the damage
        is invisible until a checksum-verified read or peek touches the
        block, at which point :class:`BlockCorruptionError` fires.
        """
        if not self.has(disk, slot):
            raise _unwritten("corrupt", disk, slot)
        row = int(self._rows[disk, slot])
        flat = self._arena[row : row + 1].view(np.uint8).reshape(-1)
        bit = int(bit_seed) % (flat.size * 8)
        flat[bit // 8] ^= np.uint8(1 << (bit % 8))

    # ------------------------------------------------------------- growth

    def _ensure_slots(self, max_slot: int) -> None:
        cap = self._rows.shape[1]
        if max_slot < cap:
            return
        new_cap = max(max_slot + 1, cap * 2, _SLOT_GROWTH_MIN)
        grown = np.full((self.D, new_cap), -1, dtype=np.int64)
        grown[:, :cap] = self._rows
        self._rows = grown

    def _ensure_rows(self, n_new: int) -> None:
        need = self._next_row + n_new
        cap = self._arena.shape[0]
        if need <= cap:
            return
        new_cap = max(need, cap * 2, _ROW_GROWTH_MIN)
        grown = np.empty((new_cap, self.B), dtype=RECORD_DTYPE)
        grown[:cap] = self._arena
        self._arena = grown
        if self._sums is not None:
            sums = np.empty(new_cap, dtype=np.uint64)
            sums[:cap] = self._sums
            self._sums = sums
        self.grow_events += 1

    def _alloc_rows(self, k: int) -> np.ndarray:
        """Hand out ``k`` arena rows, recycling freed rows first."""
        free = self._free_rows
        take = min(k, len(free))
        if take:
            recycled = np.array(free[len(free) - take :], dtype=np.int64)
            del free[len(free) - take :]
            if take == k:
                return recycled
        fresh_n = k - take
        self._ensure_rows(fresh_n)
        fresh = np.arange(self._next_row, self._next_row + fresh_n, dtype=np.int64)
        self._next_row += fresh_n
        if take:
            return np.concatenate([recycled, fresh])
        return fresh

    # ---------------------------------------------------------------- I/O

    def read_batch(
        self, disks: np.ndarray, slots: np.ndarray, free: bool = False,
        mismatches: dict | None = None,
    ) -> np.ndarray:
        """Gather ``k`` blocks into a fresh ``(k, B)`` matrix (one fancy index).

        ``free=True`` additionally releases the blocks — identical to a
        follow-up :meth:`free_batch` on the same addresses, but the row
        lookup is shared (the streaming consume pattern reads each block
        exactly once and drops it).

        With checksums enabled, every gathered block is verified *before*
        any release happens, so a fused read-and-free that detects
        corruption raises :class:`BlockCorruptionError` with **no partial
        effects** — the corrupt batch stays fully resident on both
        backends.  Given a ``mismatches`` dict, mismatches are recorded
        there instead and the read completes (the machine's windowed
        gather raises each at the round that reads the block).
        """
        try:
            rows = self._rows[disks, slots]
        except IndexError:
            # A slot beyond everything ever written: unwritten by definition.
            cap = self._rows.shape[1]
            i = int(np.argmax(slots >= cap))
            raise _unwritten("read", disks[i], slots[i]) from None
        if rows.min() < 0:
            i = int(np.argmax(rows < 0))
            raise _unwritten("read", disks[i], slots[i])
        out = self._arena[rows]  # fancy index => fresh copy, never a view
        if self._sums is not None:
            _check_sums(block_checksums(out, self._salt), self._sums[rows],
                        disks, slots, mismatches)
        if free:
            self._free_rows.extend(rows.tolist())
            self._rows[disks, slots] = -1
            self._resident -= rows.size
        return out

    def write_batch(self, disks: np.ndarray, slots: np.ndarray, data: np.ndarray) -> None:
        """Scatter a ``(k, B)`` matrix into the arena (one fancy index).

        Fused I/O-plan flushes arrive here with whole windows of rounds in
        one batch; when no freed rows are waiting to be recycled the
        allocation is a contiguous run, and the scatter collapses to a
        straight slice copy.
        """
        self._ensure_slots(max(slots.tolist()))
        rows = self._rows[disks, slots]
        if rows.max() < 0:
            # Dominant pattern: slots are bump-allocated per write, so whole
            # batches of fresh addresses arrive together — skip the mask.
            k = rows.size
            if not self._free_rows:
                self._ensure_rows(k)
                start = self._next_row
                self._next_row = start + k
                self._rows[disks, slots] = np.arange(
                    start, start + k, dtype=np.int64
                )
                self._arena[start : start + k] = data
                self._resident += k
                if self._resident > self.high_water_blocks:
                    self.high_water_blocks = self._resident
                if self._sums is not None:
                    self._sums[start : start + k] = block_checksums(
                        self._arena[start : start + k], self._salt
                    )
                return
            rows = self._alloc_rows(k)
            self._rows[disks, slots] = rows
            self._resident += k
        else:
            missing = rows < 0
            n_missing = int(np.count_nonzero(missing))
            if n_missing:
                rows[missing] = self._alloc_rows(n_missing)
                self._rows[disks, slots] = rows
                self._resident += n_missing
        if self._resident > self.high_water_blocks:
            self.high_water_blocks = self._resident
        self._arena[rows] = data
        if self._sums is not None:
            self._sums[rows] = block_checksums(data, self._salt)

    # --------------------------------------------------------- lifecycle

    def has(self, disk: int, slot: int) -> bool:
        """True when a block is resident at ``(disk, slot)``."""
        return (
            0 <= disk < self.D
            and 0 <= slot < self._rows.shape[1]
            and self._rows[disk, slot] >= 0
        )

    def free_batch(self, disks: np.ndarray, slots: np.ndarray) -> None:
        """Release many blocks at once (vectorized; absent addresses are no-ops).

        A freed row keeps its checksum until a write into it replaces it.
        """
        cap = self._rows.shape[1]
        k = disks.size
        if k <= 8:
            # Small batches (k ≤ H' in practice): a scalar loop with the
            # same no-op-on-absent / duplicate-safe semantics beats the
            # masking machinery below.  Processing in order makes double
            # frees naturally idempotent (first hit clears the row map).
            rows_map = self._rows
            free = self._free_rows
            for d, s in zip(disks.tolist(), slots.tolist()):
                if 0 <= s < cap:
                    r = int(rows_map[d, s])
                    if r >= 0:
                        free.append(r)
                        rows_map[d, s] = -1
                        self._resident -= 1
            return
        inside = slots < cap
        if not inside.all():
            disks, slots = disks[inside], slots[inside]
        k = disks.size
        if k == 0:
            return
        # Deduplicate (double-freeing one slot in a batch must stay a no-op,
        # exactly like the legacy ``dict.pop(slot, None)`` semantics).  The
        # cheap set-cardinality probe skips the dedup machinery on the
        # overwhelmingly common all-distinct batch.
        pairs = list(zip(disks.tolist(), slots.tolist()))
        if len(set(pairs)) != k:
            seen: set[tuple[int, int]] = set()
            keep = []
            for i, p in enumerate(pairs):
                if p not in seen:
                    seen.add(p)
                    keep.append(i)
            disks, slots = disks[keep], slots[keep]
        rows = self._rows[disks, slots]
        live = rows >= 0
        if live.all():
            self._free_rows.extend(rows.tolist())
            self._rows[disks, slots] = -1
            self._resident -= rows.size
        elif live.any():
            self._free_rows.extend(rows[live].tolist())
            self._rows[disks[live], slots[live]] = -1
            self._resident -= int(np.count_nonzero(live))

    # -------------------------------------------------------------- misc

    def max_slot(self, disk: int) -> int:
        """Largest written slot index on ``disk`` (or -1 when empty)."""
        written = np.flatnonzero(self._rows[disk] >= 0)
        return int(written[-1]) if written.size else -1

    def n_blocks(self) -> int:
        """Blocks currently resident (across all disks)."""
        return int(np.count_nonzero(self._rows >= 0))

    def mem_snapshot(self) -> dict:
        """Occupancy / high-water gauges (telemetry only, never payloads).

        ``resident_blocks`` is an O(1) counter kept in lockstep with the
        row map (the differential suite pins it against :meth:`n_blocks`);
        ``high_water_blocks`` is its lifetime maximum; ``grow_events``
        counts actual slab reallocations (geometric growth means O(log)
        of the peak footprint).
        """
        return {
            "backend": self.name,
            "slab_rows": int(self._arena.shape[0]),
            "slab_bytes": int(self._arena.nbytes),
            "resident_blocks": int(self._resident),
            "high_water_blocks": int(self.high_water_blocks),
            "free_rows": len(self._free_rows),
            "grow_events": int(self.grow_events),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ArenaBlockStore(D={self.D}, B={self.B}, blocks={self.n_blocks()}, "
            f"arena_rows={self._arena.shape[0]}, free_rows={len(self._free_rows)})"
        )


class DictBlockStore:
    """The legacy dict-of-dicts layout — the reference backend.

    Selected with ``store="dict"`` on the machine, or for every machine
    and hierarchy by patching :data:`DEFAULT_STORE`.  Every behaviour is
    bit-identical to the arena backend — the differential suite pins
    this — it is simply slower.
    """

    name = "dict"

    def __init__(self, n_disks: int, block: int, checksums: bool = False):
        self.D = int(n_disks)
        self.B = int(block)
        #: Opt-in checksums (the arena's function), keyed ``(disk, slot)``.
        self._salt = checksum_salt(self.B) if checksums else None
        self._sums: dict[tuple[int, int], int] | None = (
            {} if checksums else None
        )
        self._disks: list[dict[int, np.ndarray]] = [dict() for _ in range(self.D)]
        # Occupancy gauges mirroring the arena backend (grow_events stays
        # 0 here: dicts have no slab to reallocate).
        self._resident = 0
        self.high_water_blocks = 0
        self.grow_events = 0

    @property
    def checksums(self) -> bool:
        """True when per-block integrity checksums are being kept."""
        return self._sums is not None

    def corrupt_block(self, disk: int, slot: int, bit_seed: int) -> None:
        """Flip one bit of a stored block **without** updating its checksum."""
        store = self._disks[disk]
        if slot not in store:
            raise _unwritten("corrupt", disk, slot)
        flat = store[slot].view(np.uint8).reshape(-1)
        bit = int(bit_seed) % (flat.size * 8)
        flat[bit // 8] ^= np.uint8(1 << (bit % 8))

    # ---------------------------------------------------------------- I/O

    def read_batch(
        self, disks: np.ndarray, slots: np.ndarray, free: bool = False,
        mismatches: dict | None = None,
    ) -> np.ndarray:
        """Assemble ``k`` blocks into a fresh ``(k, B)`` matrix (per-block loop).

        ``free=True`` pops each block after copying it out (the fused
        read-and-drop the arena backend mirrors).  With checksums on, the
        whole batch is gathered and verified **before** anything is
        dropped, so corruption detection has no partial effects — exactly
        like the arena backend, ``mismatches`` included.
        """
        out = np.empty((disks.size, self.B), dtype=RECORD_DTYPE)
        if self._sums is None:
            for i, (d, s) in enumerate(zip(disks.tolist(), slots.tolist())):
                store = self._disks[d]
                if s not in store:
                    raise _unwritten("read", d, s)
                out[i] = store[s]
                if free:
                    del store[s]
                    self._resident -= 1
            return out
        pairs = list(zip(disks.tolist(), slots.tolist()))
        for i, (d, s) in enumerate(pairs):
            store = self._disks[d]
            if s not in store:
                raise _unwritten("read", d, s)
            out[i] = store[s]
        expected = np.fromiter((self._sums[p] for p in pairs), np.uint64, len(pairs))
        _check_sums(block_checksums(out, self._salt), expected,
                    disks, slots, mismatches)
        if free:
            for d, s in pairs:
                if self._disks[d].pop(s, None) is not None:
                    self._resident -= 1
                self._sums.pop((d, s), None)
        return out

    def write_batch(self, disks: np.ndarray, slots: np.ndarray, data: np.ndarray) -> None:
        """Store each row of a ``(k, B)`` matrix as its own defensive copy."""
        if self._sums is not None:
            sums = block_checksums(data, self._salt).tolist()
        for i, (d, s) in enumerate(zip(disks.tolist(), slots.tolist())):
            store = self._disks[d]
            if s not in store:
                self._resident += 1
            store[s] = np.array(data[i], dtype=RECORD_DTYPE)
            if self._sums is not None:
                self._sums[(d, s)] = sums[i]
        if self._resident > self.high_water_blocks:
            self.high_water_blocks = self._resident

    # --------------------------------------------------------- lifecycle

    def has(self, disk: int, slot: int) -> bool:
        """True when a block is resident at ``(disk, slot)``."""
        return 0 <= disk < self.D and slot in self._disks[disk]

    def free_batch(self, disks: np.ndarray, slots: np.ndarray) -> None:
        """Drop many blocks (no-ops for absent addresses)."""
        for d, s in zip(disks.tolist(), slots.tolist()):
            if self._disks[d].pop(s, None) is not None:
                self._resident -= 1
            if self._sums is not None:
                self._sums.pop((d, s), None)

    # -------------------------------------------------------------- misc

    def max_slot(self, disk: int) -> int:
        """Largest written slot index on ``disk`` (or -1 when empty)."""
        return max(self._disks[disk].keys(), default=-1)

    def n_blocks(self) -> int:
        """Blocks currently resident (across all disks)."""
        return sum(len(store) for store in self._disks)

    def mem_snapshot(self) -> dict:
        """Occupancy / high-water gauges (same shape as the arena backend).

        There is no slab here, so ``slab_rows``/``slab_bytes`` report the
        resident footprint itself (dicts allocate exactly what they hold).
        """
        itemsize = RECORD_DTYPE.itemsize
        return {
            "backend": self.name,
            "slab_rows": int(self._resident),
            "slab_bytes": int(self._resident) * self.B * itemsize,
            "resident_blocks": int(self._resident),
            "high_water_blocks": int(self.high_water_blocks),
            "free_rows": 0,
            "grow_events": 0,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DictBlockStore(D={self.D}, B={self.B}, blocks={self.n_blocks()})"


STORE_BACKENDS = {
    "arena": ArenaBlockStore,
    "dict": DictBlockStore,
}


#: The backend :func:`make_store` builds when given no name.  Only the
#: tests (``tests/store_reference.py``) and ``benchmarks/bench_pdm_store.py``
#: patch it, to run every simulator on the dict reference.
DEFAULT_STORE = "arena"


def make_store(
    name: str | None, n_disks: int, block: int, checksums: bool = False
):
    """Build the storage backend ``name`` (or :data:`DEFAULT_STORE`)."""
    if name is None:
        name = DEFAULT_STORE
    try:
        cls = STORE_BACKENDS[name]
    except KeyError:
        raise ParameterError(
            f"unknown block store backend {name!r} "
            f"(expected one of {sorted(STORE_BACKENDS)})"
        ) from None
    return cls(n_disks, block, checksums=checksums)
