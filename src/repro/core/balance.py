"""The Balance / Rebalance / Rearrange engine (Algorithms 3, 5, 6).

One engine drives every machine in the paper: it is written against the
storage contract shared by :class:`repro.pdm.striping.VirtualDisks`
(parallel disks, Section 5) and
:class:`repro.hierarchies.parallel.VirtualHierarchies` (parallel memory
hierarchies, Section 4) — ``n_virtual`` channels, ``virtual_block_size``
records per block, ``write_round`` moving at most one block per channel per
step, plus memory-ledger hooks.

Per processing round (one "track" of Algorithm 3):

1. up to ``H'`` queued full virtual blocks are *tentatively* assigned to
   distinct channels in arrival order (at most one new block per channel —
   the property that keeps auxiliary-matrix entries in {0, 1, 2});
2. the histogram ``X`` is updated and ``A`` recomputed (Algorithm 4);
3. channels whose new block drove an entry of ``A`` to 2 go through
   **Rebalance** (Algorithm 5): while at least ⌊H'/2⌋ such channels remain,
   **Rearrange** (Algorithm 6) matches them against channels whose row
   entry is 0 (``Fast-Partial-Match``) and swaps the blocks over;
4. blocks still overloading after Rebalance are *unprocessed*: their
   histogram counts are withdrawn and they conceptually rejoin the input
   (the front of the queue) — after which ``A`` is binary (Invariant 2);
5. the placed blocks are handed to the write path: the untouched ones as
   one batch, then each Rearrange batch (the paper writes each batch in
   its own parallel step).

Write-behind: on a backend whose storage has a memory ledger (disks), a
placed block waits in internal memory, in a FIFO per channel, until
every channel has a block waiting; then one parallel write takes every
FIFO's head — a full stripe.  Where a block goes never changes, only
when it is written: X, A, L's chains (the FIFOs keep each channel's
order), the invariants and Theorem 4 are those of the per-batch
schedule.  Held blocks stay on the ledger; an acquisition that would
overflow ``M`` first has the engine write held heads out (the storage's
memory-spill hook, installed for the span of the pass), and
:meth:`BalanceEngine.flush` writes what is still held, widest write
first.  Hierarchies have no internal memory outside the hierarchy, so
there every batch is written at once.

The engine checks Invariants 1 and 2 every round (disable with
``check_invariants=False`` for big benchmark runs).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from ..exceptions import InvariantViolation, ParameterError
from ..records import composite_keys, concat_records, pad_records
from . import kernels
from .kernels import tail_blocks
from .matching import (
    MatchingInstance,
    MatchResult,
    derandomized_partial_match,
    greedy_match,
    greedy_mincost_match,
    randomized_partial_match,
)
from .matrices import BalanceMatrices

__all__ = ["BalanceEngine", "BlockRef", "BucketRun", "EngineStats", "MATCHERS", "read_bucket_run"]

#: The named rebalancing matchers (see :class:`BalanceEngine`).
MATCHERS = ("derandomized", "randomized", "greedy", "mincost")


class BlockRef(NamedTuple):
    """A stored virtual block plus how many true records it holds.

    ``fill < block size`` only for a pass's final (padded) blocks; carrying
    the fill lets runs be sliced into groups (Algorithm 2) without reading
    anything back.  A ``NamedTuple`` (not a frozen dataclass): one is
    built per placed block, and tuple construction skips the frozen
    per-field ``object.__setattr__`` cost on the round write path.
    """

    address: object
    fill: int


@dataclass
class BucketRun:
    """One bucket's blocks after a distribution pass.

    ``chains[h]`` lists the bucket's :class:`BlockRef`\\ s on channel ``h``
    (the location-matrix chain); ``n_records`` counts true records
    (padding excluded).
    """

    bucket: int
    chains: list
    n_records: int

    @property
    def n_blocks(self) -> int:
        return sum(len(chain) for chain in self.chains)

    @property
    def max_blocks_on_channel(self) -> int:
        return max((len(c) for c in self.chains), default=0)

    def block_refs(self) -> list:
        """All the bucket's blocks as a flat list (chain order)."""
        return [ref for chain in self.chains for ref in chain]


@dataclass
class EngineStats:
    """Balance-engine activity counters (inputs to the CPU-cost accounting)."""

    rounds: int = 0
    blocks_placed: int = 0
    blocks_swapped: int = 0
    blocks_unprocessed: int = 0
    match_calls: int = 0
    match_fallbacks: int = 0
    write_steps: int = 0
    records_fed: int = 0
    pad_records: int = 0
    spill_writes: int = 0  # partial writes forced by memory pressure


class BalanceEngine:
    """Distribute a record stream into S buckets, balanced across channels.

    Parameters
    ----------
    storage:
        A ``VirtualDisks`` / ``VirtualHierarchies``-style backend.
    pivots:
        ``S−1`` sorted composite keys (see
        :func:`repro.records.composite_keys`); bucket ``i`` receives
        composite keys in ``(pivots[i−1], pivots[i]]`` half-open style via
        ``searchsorted(..., side="right")``.
    matcher:
        ``"derandomized"`` (Theorem 5, the paper's deterministic default),
        ``"randomized"`` (Algorithm 7), ``"greedy"``, or ``"mincost"``
        (Section 6 conjecture); or a callable ``(MatchingInstance,
        BalanceMatrices, rng) -> MatchResult``.
    candidates:
        Optional composite keys to count records against (a histogram):
        each record fed falls in one interval of the sorted union of
        pivots and candidates, and :meth:`histogram` gives a bucket's
        inner candidate keys with its exact per-interval counts.

    The round bookkeeping runs in C (:data:`repro.core.kernels.ROUND_OPS`)
    whenever the optional extension is built; both paths are
    bit-identical in every observable output.
    """

    def __init__(
        self,
        storage,
        pivots: np.ndarray,
        matcher: str | Callable = "derandomized",
        rng: np.random.Generator | None = None,
        check_invariants: bool = True,
        candidates: np.ndarray | None = None,
    ):
        pivots = np.asarray(pivots, dtype=np.uint64)
        if pivots.size and np.any(pivots[1:] < pivots[:-1]):
            raise ParameterError("pivots must be sorted ascending")
        self.storage = storage
        self.pivots = pivots
        self.n_buckets = int(pivots.size) + 1
        # Histogram: interval j of the sorted key union holds the keys in
        # [edges[j-1], edges[j]); its bucket is a table lookup.  (Sorted,
        # not np.union1d: np.unique imports numpy.ma, about 1 MB resident.)
        self._edges = None
        self.interval_counts = None
        if candidates is not None:
            self._edges = np.sort(
                np.concatenate((pivots, np.asarray(candidates, dtype=np.uint64)))
            )
            self._interval_bucket = np.concatenate(
                ([0], np.searchsorted(pivots, self._edges, side="right"))
            )
            self.interval_counts = np.zeros(self._edges.size + 1, dtype=np.int64)
        self.n_channels = storage.n_virtual
        self.block_size = storage.virtual_block_size
        self.matrices = BalanceMatrices(self.n_buckets, self.n_channels)
        # Section 5's incremental matrix upkeep: every engine update goes
        # through add_block/remove_block, so A and its derived views are
        # maintained in O(H') per change instead of O(S·H') per refresh.
        # (Ablations that swap in a different matrices class after
        # construction get that class's default batch behaviour.)
        self.matrices.enable_incremental()
        if not callable(matcher) and matcher not in MATCHERS:
            raise ParameterError(f"unknown matcher {matcher!r}")
        self.matcher = matcher
        self.rng = rng or np.random.default_rng(0)
        self.check_invariants = check_invariants
        self.stats = EngineStats()
        # Per-bucket carry: the < VB records fed but not yet cut into a
        # block (None when empty).  Carries and emitted blocks are views of
        # a feed call's grouped copy, which is never written after it is
        # built, so a view stays valid for as long as anyone — the round
        # queue, a deferred I/O plan — holds it.
        self._carry: list[np.ndarray | None] = [None] * self.n_buckets
        self._queue: deque = deque()  # (bucket, block, fill) awaiting placement
        self._bucket_records = np.zeros(self.n_buckets, dtype=np.int64)
        self._finished = False
        # Round observers: callbacks fired after every completed placement
        # round (the first-class replacement for BalanceTracer's old
        # `_round` monkey-patch).  Empty list = zero per-round overhead
        # beyond one truthiness check.
        self._round_observers: list[Callable] = []
        # The balance.round channel's appenders and the auditor, once an
        # observation is attached (attach_obs).
        self._ev_round = None
        self._auditor = None
        self._audit_above = 0.0
        # Write-behind: placed-but-unwritten queue entries, one FIFO per
        # channel (None when the storage has no ledger to hold them on).
        self._held: list[deque] | None = None
        if storage.has_ledger:
            self._held = [deque() for _ in range(self.n_channels)]
            storage.set_memory_spill(self._spill)

    def __enter__(self) -> "BalanceEngine":
        return self

    def __exit__(self, *exc) -> None:
        """Clear the storage's memory-spill hook: a pass that raised must
        not leave the machine calling into a dead engine."""
        if self._held is not None:
            self.storage.set_memory_spill(None)

    # ----------------------------------------------------------- observers

    def add_round_observer(self, callback: Callable) -> Callable:
        """Register ``callback(engine, info)`` to run after every round.

        ``info`` is a dict with the round's activity totals::

            {"round": int, "placed": int, "swapped": int,
             "unprocessed": int, "match_calls": int,
             "max_balance_factor": float}

        (all cumulative except ``round``).  Observers run in registration
        order after the round's writes complete, so ``engine.matrices``
        reflects the post-round state.  Returns the callback (usable as a
        decorator).  With no observers registered the engine does no
        per-round snapshotting at all.
        """
        self._round_observers.append(callback)
        return callback

    def remove_round_observer(self, callback: Callable) -> None:
        """Unregister a round observer (no-op if absent)."""
        try:
            self._round_observers.remove(callback)
        except ValueError:
            pass

    def attach_obs(self, obs, scope: str = "balance") -> None:
        """Record every round on an :class:`~repro.obs.Observation`.

        Per completed round the engine itself records a ``balance.round``
        trace event (cumulative totals + current Theorem-4 balance
        factor) as a row of a trace channel: C-level list appends, no
        info dict, no observer call.  With ``obs.auditor`` installed, a
        round that Invariant 1, Invariant 2 or the auditor's Theorem-4
        limit flags is handed to
        :meth:`~repro.obs.audit.TheoryAuditor.check_round`; a clean round
        costs one truth test.  Under ``obs.scope(scope)``, counters
        ``rounds`` / ``swaps`` /
        ``unprocessed`` / ``match_calls``, a per-round swap-count
        histogram, and a ``max_balance_factor`` gauge (its ``max``
        watermark is the worst factor seen anywhere in the pass) are
        replayed from the channel's columns in bulk when the scope is
        next read (see :meth:`~repro.obs.MetricsRegistry.add_pending_flush`).
        This engine's private channel keeps the replay cursor independent
        of any other engine sharing the scope, and registration order
        keeps the shared instruments' update order chronological.
        """
        reg = obs.scope(scope)
        rounds = reg.counter("rounds")
        swaps = reg.counter("swaps")
        unprocessed = reg.counter("unprocessed")
        match_calls = reg.counter("match_calls")
        swap_hist = reg.histogram("swaps.per_round")
        bf = reg.gauge("max_balance_factor")

        channel = obs.tracer.scalar_channel(
            "balance.round",
            ("round", "placed", "swapped", "unprocessed", "match_calls",
             "max_balance_factor"),
        )
        self._ev_round = channel.appenders
        auditor = obs.auditor
        if auditor is not None:
            self._auditor = auditor
            self._audit_above = auditor.watch(channel.cols[5])

        cols = channel.cols
        swapped_col, unproc_col = cols[2], cols[3]
        match_col, factor_col = cols[4], cols[5]
        state = [0, 0, 0, 0]  # cursor, prev swapped/unprocessed/match

        def _flush():
            n = len(swapped_col)
            i = state[0]
            if i >= n:
                return
            state[0] = n
            rounds.inc(n - i)
            prev_swapped = state[1]
            diffs = []
            add_diff = diffs.append
            for s in swapped_col[i:n]:
                add_diff(s - prev_swapped)
                prev_swapped = s
            swaps.inc(prev_swapped - state[1])
            state[1] = prev_swapped
            swap_hist.observe_bulk(diffs)
            unprocessed.inc(unproc_col[n - 1] - state[2])
            state[2] = unproc_col[n - 1]
            match_calls.inc(match_col[n - 1] - state[3])
            state[3] = match_col[n - 1]
            bf.set_bulk(factor_col[i:n])

        reg.add_pending_flush(_flush)

    def _round_info(self, factor: float) -> dict:
        """The round observers' ``info`` dict for the round just done."""
        stats = self.stats
        return {
            "round": stats.rounds,
            "placed": stats.blocks_placed,
            "swapped": stats.blocks_swapped,
            "unprocessed": stats.blocks_unprocessed,
            "match_calls": stats.match_calls,
            "max_balance_factor": factor,
        }

    def _notify_round(self) -> None:
        info = self._round_info(self.matrices.max_balance_factor())
        for callback in self._round_observers:
            callback(self, info)

    # ---------------------------------------------------------------- feed

    def bucket_ids(self, records: np.ndarray) -> np.ndarray:
        """Bucket index per record (pure: no engine state touched).

        Exactly the partition rule :meth:`feed` applies.
        """
        return np.searchsorted(self.pivots, composite_keys(records), side="right")

    def feed(
        self,
        records: np.ndarray,
        buckets: np.ndarray | None = None,
        tracks: Sequence[int] | None = None,
    ) -> list[list] | None:
        """Partition records into buckets and cut them into virtual blocks.

        (Algorithm 3, steps 1–2: partition the track's records and collect
        them into virtual blocks, all elements of a block from one bucket.)

        Without ``tracks`` the records are one track and its full blocks
        are enqueued.  With ``tracks`` — the record counts of consecutive
        tracks, summing to ``len(records)`` — a whole gather window is
        grouped in one pass and nothing is enqueued: the return value
        holds one list of queue entries per track, each block going to
        the track whose record completed it.  Enqueueing those lists in
        order (:meth:`enqueue`) reproduces per-track calls exactly:
        within a track, blocks come in ascending bucket order, then carve
        order.

        ``buckets`` optionally supplies the records' bucket ids
        (:meth:`bucket_ids`); the result is identical with or without.
        """
        if self._finished:
            raise ParameterError("engine already finished")
        out: list[list] = [[]] if tracks is None else [[] for _ in tracks]
        if records.shape[0]:
            self._group(records, buckets, tracks, out)
        if tracks is not None:
            return out
        self._queue.extend(out[0])
        return None

    def _group(self, records, buckets, tracks, out) -> None:
        """Append ``records`` to the bucket carries and cut full blocks.

        One stable argsort by bucket (carries first, so each bucket's
        records stay in arrival order), one gather and one ``bincount``;
        every full block is a zero-copy view of the gathered copy, and
        what is left over (< VB records per bucket) becomes the carry.
        Under a histogram the buckets come from one ``searchsorted`` over
        the key union and one more ``bincount`` counts the intervals.
        """
        if self._edges is not None:
            intervals = np.searchsorted(self._edges, composite_keys(records), side="right")
            self.interval_counts += np.bincount(intervals, minlength=self._edges.size + 1)
            buckets = self._interval_bucket[intervals]
        elif buckets is None:
            buckets = self.bucket_ids(records)
        self.stats.records_fed += records.shape[0]
        counts = np.bincount(buckets, minlength=self.n_buckets)
        self._bucket_records += counts
        carry = self._carry
        held = [c for c in carry if c is not None]
        n_held = 0
        if held:
            ids = [
                b for b, c in enumerate(carry) if c is not None
                for _ in range(c.shape[0])
            ]
            n_held = len(ids)
            records = concat_records(held + [records])
            buckets = np.concatenate((ids, buckets))
        order = np.argsort(buckets, kind="stable")
        grouped = records[order]
        vb = self.block_size
        blocks = []
        starts = []
        pos = 0
        for b, size in enumerate(counts.tolist()):
            if carry[b] is not None:
                size += carry[b].shape[0]
            end = pos + size
            cut = end - size % vb
            for s in range(pos, cut, vb):
                blocks.append((b, grouped[s : s + vb], vb))
                starts.append(s)
            carry[b] = grouped[cut:end] if cut < end else None
            pos = end
        if len(out) == 1:
            out[0].extend(blocks)
            return
        if blocks:
            # The record that completes a block is a window record (a carry
            # holds < VB), so its window position names the track.
            completer = order[np.array(starts) + (vb - 1)] - n_held
            track = np.searchsorted(np.cumsum(tracks), completer, side="right")
            for t, entry in zip(track.tolist(), blocks):
                out[t].append(entry)

    def enqueue(self, entries: list) -> None:
        """Queue one track's blocks (a list returned by :meth:`feed`)."""
        self._queue.extend(entries)

    @property
    def queued_blocks(self) -> int:
        return len(self._queue)

    # -------------------------------------------------------------- rounds

    def run_rounds(self, drain_below: int = 0, drain: bool = False) -> None:
        """Place queued blocks round by round until ≤ ``drain_below`` remain.

        ``drain=False`` keeps the paper's Rebalance batching (2s are left
        unprocessed below the ⌊H'/2⌋ threshold — an amortization of the
        matching cost that needs a steady block supply); ``drain=True``
        lowers the threshold to 1 so every 2 is matched away, which the
        endgame needs for guaranteed progress once fewer than ⌊H'/2⌋ blocks
        remain in flight.  A no-progress guard switches a stuck round to
        drain mode automatically (a handful of tail blocks can otherwise
        bounce as "unprocessed" forever when the queue is nearly empty).
        """
        queue = self._queue
        if not queue:
            return
        # Compiled round bookkeeping, when built.  Attaching is idempotent
        # and repeated every call: a resync after direct X tampering
        # detaches the compiled object.
        ops = kernels.ROUND_OPS
        if ops is not None:
            self.matrices.enable_compiled(ops)
        stats = self.stats
        while len(queue) > drain_below:
            n, placed = len(queue), stats.blocks_placed
            self._round(drain)
            if len(queue) == n and stats.blocks_placed == placed:
                self._round(True)

    def _round(self, drain: bool = False) -> None:
        """One track of Algorithm 3 (steps 2–9).

        Tentative block ``i`` is the ``i``-th popped queue entry and sits
        on channel ``i`` (arrival order, at most one new block per channel
        — the {0,1,2} aux-matrix property), so one flag per block says
        whether it left its channel: swapped away by a Rearrange batch,
        or unprocessed and back on the queue.
        """
        queue = self._queue
        k = min(self.n_channels, len(queue))
        if k == 0:
            return
        stats = self.stats
        mat = self.matrices
        stats.rounds += 1
        popped = []
        popleft = queue.popleft
        add_block = mat.add_block
        for channel in range(k):
            entry = popleft()
            popped.append(entry)
            add_block(entry[0], channel)
        mat.refresh_aux()
        if self.check_invariants:
            mat.check_invariant_1()
        twos = mat.channels_with_two()
        if twos:
            self._rebalance(twos, popped, drain)
        else:
            # Nothing to swap or drop, and nothing touches the matrices
            # before the write: the closing refresh and the Invariant-2
            # check would be no-ops.
            self._write_batch(range(k), popped)
        ev = self._ev_round
        if ev is not None:
            # The balance.round row, then the audit of a flagged round.
            # Under the pure-Python incremental upkeep the max factor and
            # both invariants are O(1) reads; compiled ops and batch
            # matrices answer by walking the buckets.
            factor = mat.max_factor
            fast = factor is not None
            if not fast:
                factor = mat.max_balance_factor()
            mark, add_round, add_placed, add_swapped, add_unproc, add_match, add_factor = ev
            mark()
            add_round(stats.rounds)
            add_placed(stats.blocks_placed)
            add_swapped(stats.blocks_swapped)
            add_unproc(stats.blocks_unprocessed)
            add_match(stats.match_calls)
            add_factor(factor)
            if self._auditor is not None and (
                factor > self._audit_above
                or (mat.short_rows or mat._twos_cells or mat._over_two if fast
                    else not (mat.invariant_1_ok() and mat.invariant_2_ok()))
            ):
                self._auditor.check_round(self, self._round_info(factor))
        if self._round_observers:
            self._notify_round()

    def _rebalance(self, twos: list, popped: list, drain: bool) -> None:
        """Algorithm 5 on this round's 2s, then the round's writes.

        Resolves 2s while at least ⌊H'/2⌋ remain (every 2 when draining).
        A channel can legally end up holding two of this round's blocks
        (its own tentative block plus a swapped-in block of another
        bucket); they sit in different batches, and the channel's FIFO
        writes them in separate steps.
        """
        mat = self.matrices
        k = len(popped)
        moved = [False] * k
        swap_batches = []
        threshold = 1 if drain else max(1, self.n_channels // 2)
        take = max(1, self.n_channels // 2)
        while len(twos) >= threshold:
            swap_batches.append(self._rearrange(twos[:take], popped, moved))
            twos = mat.channels_with_two()

        # Remaining 2s: unprocessed — conceptually written back to the
        # input (the front of the queue).
        for h in twos:
            b = mat.bucket_with_two(h)
            if h >= k or moved[h] or popped[h][0] != b:
                raise InvariantViolation(
                    f"2 at channel {h} (bucket {b}) not caused by this round's block"
                )
            mat.remove_block(b, h)
            moved[h] = True
            self._queue.appendleft(popped[h])
            self.stats.blocks_unprocessed += 1
        mat.refresh_aux()
        if self.check_invariants:
            mat.check_invariant_2()

        # Place: kept blocks as one batch, then each Rearrange batch (the
        # paper's separate memory references, Algorithm 6 line 5).
        kept = [h for h in range(k) if not moved[h]]
        if kept:
            self._write_batch(kept, [popped[h] for h in kept])
        for batch in swap_batches:
            self._write_batch([v for _, v in batch], [popped[u] for u, _ in batch])

    def _rearrange(self, u_set: Sequence[int], popped: list, moved: list) -> list:
        """Algorithm 6: match overloaded channels to zero channels and swap.

        Returns the batch's ``(u, v)`` swaps: the tentative block of
        channel ``u`` moves to channel ``v``.
        """
        mat = self.matrices
        stats = self.stats
        if len(u_set) == 1 and self.n_channels == 2 and self.matcher == "derandomized":
            # H' = 2 closed form: |U| = 1 and the only legal target is the
            # other channel (the 2 sits on u, so a_b,u ≠ 0).  The pairwise-
            # space search is forced to this pair — first sample point,
            # retry ≤ 1 — so the outcome (pairs, stats, matrix updates) is
            # bit-identical to the general machinery.  Guarded on a_b,v == 0
            # (Invariant 1): a violated instance falls through and fails
            # with the general path's diagnostics.
            u = u_set[0]
            v = 1 - u
            b = mat.bucket_with_two(u)
            # Incremental matrices mirror A in plain lists — read the
            # mirror instead of a numpy scalar (same value by invariant).
            a_bv = (
                mat._alist[b][v]
                if getattr(mat, "_incremental", False)
                else int(mat.A[b, v])
            )
            if a_bv == 0:
                stats.match_calls += 1
                self._swap(u, b, v, popped, moved)
                mat.refresh_aux()
                return [(u, v)]
        instance = MatchingInstance.from_matrices(mat, list(u_set))
        if self.check_invariants:
            instance.check_degree_invariant()
        result = self._run_matcher(instance)
        stats.match_calls += 1
        if result.used_fallback:
            stats.match_fallbacks += 1
        if not result.pairs:
            # Nothing swapped means nothing changes: the Rebalance loop
            # would retry the same instance forever.
            raise InvariantViolation(
                f"Rearrange swapped nothing: the matcher returned no pairs "
                f"for overloaded channels {list(u_set)}"
            )
        bucket_of = dict(zip(instance.u_channels, instance.buckets))
        for u, v in result.pairs:
            self._swap(u, bucket_of[u], v, popped, moved)
        mat.refresh_aux()
        return list(result.pairs)

    def _swap(self, u: int, b: int, v: int, popped: list, moved: list) -> None:
        """Move channel ``u``'s tentative block (bucket ``b``) to channel ``v``."""
        # Only tentative blocks can carry a 2 (swaps remove 2s and never
        # create them), so a swap source must be one still in place.
        if u >= len(popped) or moved[u] or popped[u][0] != b:
            raise InvariantViolation(
                f"swap source (channel {u}, bucket {b}) has no block this round"
            )
        self.matrices.remove_block(b, u)
        self.matrices.add_block(b, v)
        moved[u] = True
        self.stats.blocks_swapped += 1

    def _run_matcher(self, instance: MatchingInstance) -> MatchResult:
        if callable(self.matcher):
            return self.matcher(instance, self.matrices, self.rng)
        if self.matcher == "derandomized":
            return derandomized_partial_match(instance)
        if self.matcher == "randomized":
            return randomized_partial_match(instance, self.rng)
        if self.matcher == "greedy":
            return greedy_match(instance)
        if self.matcher == "mincost":
            return greedy_mincost_match(instance, self.matrices.X)
        raise ParameterError(f"unknown matcher {self.matcher!r}")

    def _write_batch(self, channels: Sequence[int], entries: list) -> None:
        """Place one batch: queue entry ``entries[i]`` lands on ``channels[i]``.

        Each batch holds at most one block per channel by construction
        (tentative placement assigns distinct channels; swap targets are
        distinct matched v's).  Without a ledger the batch is written at
        once, as is a batch that covers every channel while nothing is
        held.  Otherwise its blocks join their channels' FIFOs, and once
        every FIFO has a block one parallel write takes every head (one
        is enough: a batch adds at most one block per channel, and some
        FIFO was empty before it).
        """
        self.stats.blocks_placed += len(entries)
        held = self._held
        if held is None or (len(channels) == self.n_channels and not any(held)):
            self._write_round(channels, entries)
            return
        for channel, entry in zip(channels, entries):
            held[channel].append(entry)
        if all(held):
            self._write_held()

    def _spill(self) -> bool:
        """The storage's memory-spill hook: an acquisition that would
        overflow ``M`` calls it until the acquisition fits.  Each call
        writing something is one spill write."""
        if self._write_held():
            self.stats.spill_writes += 1
            return True
        return False

    def _write_held(self) -> bool:
        """Write the head of every non-empty FIFO as one parallel write.

        Returns False, writing nothing, when nothing is held.
        """
        held = self._held
        channels = [c for c, fifo in enumerate(held) if fifo]
        if not channels:
            return False
        self._write_round(channels, [held[c].popleft() for c in channels])
        return True

    def _write_round(self, channels: Sequence[int], entries: list) -> None:
        """One parallel write of placed blocks, recorded in ``L``.

        Blocks are handed over as-is (every queued block is a fresh carve
        or an immutable view of a gather window, never mutated), with
        ``checked=False``: the callers write at most one block per
        channel.  Distribution output parks out of the compaction zone
        on hierarchy backends (a no-op on disks): buckets are
        repositioned to the front before their recursion (see
        streams.reposition_run).
        """
        addresses = self.storage.write_round(
            channels, [e[1] for e in entries], park=True, checked=False
        )
        record_location = self.matrices.record_location
        new = tuple.__new__  # BlockRef without the NamedTuple __new__ frame
        for (bucket, _, fill), channel, addr in zip(entries, channels, addresses):
            record_location(bucket, channel, new(BlockRef, (addr, fill)))
        self.stats.write_steps += 1

    # --------------------------------------------------------------- flush

    def flush(self) -> list[BucketRun]:
        """Pad partial blocks, place everything, and return the bucket runs.

        What is still held is written before this returns, widest write
        first, and the storage's memory-spill hook is cleared: the pass
        ends here.
        """
        if self._finished:
            raise ParameterError("engine already finished")
        vb = self.block_size
        for b, tail in enumerate(self._carry):
            if tail is not None:
                true_n = tail.shape[0]
                padded = pad_records(tail, vb)
                n_pad = padded.shape[0] - true_n
                self.storage.acquire_memory(n_pad)
                self.stats.pad_records += n_pad
                self._carry[b] = None
                for block, fill in tail_blocks(padded, true_n, vb):
                    self._queue.append((b, block, fill))
        self.run_rounds(drain_below=0, drain=True)
        if self._held is not None:
            while self._write_held():
                pass
            self.storage.set_memory_spill(None)
        self._finished = True
        return [
            BucketRun(
                bucket=b,
                chains=[list(chain) for chain in self.matrices.L[b]],
                n_records=int(self._bucket_records[b]),
            )
            for b in range(self.n_buckets)
        ]

    @property
    def bucket_record_counts(self) -> np.ndarray:
        return self._bucket_records.copy()

    def histogram(self, bucket: int) -> tuple[np.ndarray, np.ndarray]:
        """Bucket ``bucket``'s inner candidate keys (``k−1``, ascending)
        and the records fed into each of its ``k`` intervals.

        Key ``i`` divides interval ``i`` from ``i+1``: exactly
        ``counts[:i+1].sum()`` of the bucket's records lie below it.
        """
        lo, hi = np.searchsorted(self._interval_bucket, [bucket, bucket + 1])
        return self._edges[lo : hi - 1], self.interval_counts[lo:hi]


def read_bucket_run(storage, run: BucketRun, free: bool = True):
    """Stream a bucket back: ≤1 block per channel per parallel read.

    Yields record arrays (padding stripped, ledger adjusted); the number
    of *charged* parallel reads is ``run.max_blocks_on_channel`` — the
    quantity Theorem 4 bounds at ~2× optimal.  When ``free`` is set the
    blocks are recycled after reading.  Thin wrapper over the unified
    plan/execute reader in :mod:`repro.core.streams` (one round per
    chain depth; physical gathers may be fused under an active I/O
    plan, with identical charges and yields).
    """
    from .streams import read_run_batches  # local import: streams imports us

    yield from read_run_batches(storage, run, free=free)
