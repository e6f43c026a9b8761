"""The Balance Sort bookkeeping matrices (Section 4.1).

Three ``S × H'`` matrices steer the load balancer:

* the **histogram matrix** ``X = {x_bh}`` — how many virtual blocks of
  bucket ``b`` sit on virtual hierarchy/disk ``h``;
* the **auxiliary matrix** ``A = {a_bh}`` — ``a_bh = max(0, x_bh − m_b)``,
  where ``m_b`` is the paper-median (⌈H'/2⌉-th smallest) of row ``b`` of
  ``X`` (Algorithm 4, ``ComputeAux``);
* the **location matrix** ``L = {l_bh}`` — where bucket ``b``'s blocks live
  on channel ``h`` (the paper chains blocks by "last location written"; we
  store the chain explicitly).

The invariants the balancer maintains:

* **Invariant 1** — at least ⌈H'/2⌉ entries of every row of ``A`` are 0
  (a consequence of the median), which gives every overloaded block enough
  matching candidates;
* **Invariant 2** — after each track is (conceptually) processed, ``A`` is
  binary, so ``x_bh ≤ m_b + 1`` for all ``h``; by the definition of the
  median this caps any channel at roughly twice the bucket's fair share —
  **Theorem 4**: reading bucket ``b`` takes at most a factor of about 2
  more parallel reads than optimal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..exceptions import InvariantViolation, ParameterError
from ..util.order_stats import paper_median_rows

__all__ = ["BalanceMatrices", "compute_aux"]


def compute_aux(histogram: np.ndarray) -> np.ndarray:
    """Algorithm 4 (``ComputeAux``): ``a_bh = max(0, x_bh − m_b)``.

    ``m_b`` is the ⌈H'/2⌉-th smallest entry of row ``b`` (paper footnote 3).
    """
    medians = paper_median_rows(histogram)
    return np.maximum(0, histogram - medians[:, None])


@dataclass
class BalanceMatrices:
    """State of one distribution pass: X, A, and L for S buckets × H' channels."""

    n_buckets: int
    n_channels: int

    def __post_init__(self) -> None:
        if self.n_buckets < 1 or self.n_channels < 1:
            raise ParameterError("need at least one bucket and one channel")
        self.X = np.zeros((self.n_buckets, self.n_channels), dtype=np.int64)
        self.A = np.zeros_like(self.X)
        # L: per (bucket, channel) chain of block addresses, newest last.
        self.L: list[list[list]] = [
            [[] for _ in range(self.n_channels)] for _ in range(self.n_buckets)
        ]
        self._incremental = False
        self._cops = None
        #: The Theorem-4 max factor, kept current in O(1) amortized time
        #: by the pure-Python incremental upkeep; None on every other path
        #: (batch mode, compiled ops), where :meth:`max_balance_factor`
        #: walks the buckets instead.
        self.max_factor: float | None = None
        #: Rows of ``A`` with fewer than ⌈H'/2⌉ zeros (Invariant 1 broken),
        #: kept by the pure-Python incremental upkeep beside the 2-cell
        #: index.  The median rule leaves at least ⌈H'/2⌉ zeros in every
        #: row it computes, so this stays empty unless the upkeep itself
        #: goes wrong; it lets a clean round's audit be one truth test.
        self.short_rows: set = set()

    # --------------------------------------------- incremental maintenance

    def enable_compiled(self, factory) -> bool:
        """Attach compiled (C) incremental bookkeeping, if applicable.

        ``factory`` is a :class:`repro._speedups.RoundOps`-style
        constructor.  The compiled object operates **in place** on this
        instance's own ``X``/``A`` arrays, list mirrors, 2-cell index
        sets and factor list, so every Python-side reader sees exactly
        the state the pure path would maintain; only the per-update
        arithmetic moves to C.  Requires :meth:`enable_incremental` (and
        therefore the base class — subclasses with a different auxiliary
        rule never pass that gate).  Idempotent; returns whether
        compiled ops are active.  Any :meth:`_rebuild_incremental`
        (resync after direct ``X`` tampering) detaches the compiled
        object — the caller re-attaches at its next round boundary.
        """
        if not self._incremental:
            return False
        if self._cops is None:
            self._cops = factory(
                self.X, self.A, self._xrows, self._alist,
                self._twos_cells, self._over_two, self._factors, self._rank,
            )
        self.max_factor = None  # the C updates do not keep it
        return True

    def enable_incremental(self) -> None:
        """Switch to O(H') per-update maintenance of ``A`` (Section 5).

        The paper's CPU-cost accounting assumes the matrix upkeep is
        *incremental*: each histogram update touches one entry of ``X``,
        so only that row's auxiliary values (and derived views — the 2
        positions and the Theorem-4 balance factors) need recomputing.
        After this call :meth:`add_block` / :meth:`remove_block` maintain
        ``A``, the 2-cell index, and per-bucket balance factors in place;
        :meth:`refresh_aux`, :meth:`channels_with_two`,
        :meth:`bucket_with_two` and :meth:`max_balance_factor` become
        O(changed) instead of O(S·H').  All outputs stay bit-identical to
        the batch :func:`compute_aux` formulation (integer arithmetic,
        same rule per row).

        Mutating ``X`` directly after enabling goes stale until the next
        :meth:`refresh_aux`, which detects the divergence and resyncs from
        ``X`` (so even tampering behaves exactly like the batch mode);
        :class:`~repro.core.balance.BalanceEngine` — the only caller —
        funnels every update through ``add_block``/``remove_block`` and
        never pays the resync.  Subclasses that redefine the
        auxiliary rule (e.g. ``ArgeBalanceMatrices``) must not enable it.
        """
        if type(self) is not BalanceMatrices:
            raise ParameterError(
                "incremental maintenance implements the paper-median rule; "
                f"{type(self).__name__} overrides the auxiliary definition"
            )
        self._rank = (self.n_channels + 1) // 2  # 1-indexed paper-median rank
        self._rebuild_incremental()
        self._incremental = True

    def _rebuild_incremental(self) -> None:
        """(Re)derive all incremental state from ``X`` (batch formulation)."""
        # Fresh arrays/containers invalidate any compiled ops bound to the
        # old ones; the engine re-attaches at its next round boundary.
        self._cops = None
        self.A = compute_aux(self.X)
        self._xrows = [row.tolist() for row in self.X]
        self._alist = [row.tolist() for row in self.A]
        self._twos_cells = {
            (int(b), int(h)) for b, h in zip(*np.nonzero(self.A == 2))
        }
        self._over_two = {
            (int(b), int(h)) for b, h in zip(*np.nonzero(self.A > 2))
        }
        self.short_rows = set(
            np.nonzero((self.A == 0).sum(axis=1) < self._rank)[0].tolist()
        )
        totals = self.X.sum(axis=1)
        maxima = self.X.max(axis=1)
        factors = np.ones(self.n_buckets, dtype=np.float64)
        nz = totals > 0
        factors[nz] = maxima[nz] / (-(-totals[nz] // self.n_channels))
        # Kept as a plain list, updated one scalar at a time — numpy
        # element access would dominate.
        self._factors = factors.tolist()
        self.max_factor = max(self._factors)
        self._at_max = self._factors.count(self.max_factor)

    def _update_row(self, bucket: int) -> None:
        """Recompute row ``bucket``'s aux/factor after a ±1 entry change.

        Also keeps :attr:`max_factor` current: ``_at_max`` counts the
        buckets at the max, so only the last of them dropping below it
        costs a walk.
        """
        row = self._xrows[bucket]
        alist = self._alist[bucket]  # plain-list mirror: numpy scalar reads
        arow = None  # would dominate these loops; A's row is fetched on change
        if len(row) == 2:
            # H' = 2 (rank 1): the median is the row min, so exactly the
            # larger entry can carry a nonzero aux — unrolled.  The
            # smaller entry's aux is 0: the row keeps its ⌈2/2⌉ zero.
            x0, x1 = row
            if x0 <= x1:
                m, mx, total = x0, x1, x0 + x1
            else:
                m, mx, total = x1, x0, x0 + x1
            for h in (0, 1):
                x = row[h]
                a = x - m if x > m else 0
                old = alist[h]
                if old != a:
                    if arow is None:
                        arow = self.A[bucket]
                    alist[h] = a
                    arow[h] = a
                    cell = (bucket, h)
                    if old == 2:
                        self._twos_cells.discard(cell)
                    elif old > 2:
                        self._over_two.discard(cell)
                    if a == 2:
                        self._twos_cells.add(cell)
                    elif a > 2:
                        self._over_two.add(cell)
        else:
            m = sorted(row)[self._rank - 1]
            total = 0
            mx = 0
            zeros = 0
            for h, x in enumerate(row):
                a = x - m if x > m else 0
                if not a:
                    zeros += 1
                old = alist[h]
                if old != a:
                    if arow is None:
                        arow = self.A[bucket]
                    alist[h] = a
                    arow[h] = a
                    cell = (bucket, h)
                    if old == 2:
                        self._twos_cells.discard(cell)
                    elif old > 2:
                        self._over_two.discard(cell)
                    if a == 2:
                        self._twos_cells.add(cell)
                    elif a > 2:
                        self._over_two.add(cell)
                total += x
                if x > mx:
                    mx = x
            if zeros < self._rank:
                self.short_rows.add(bucket)
            elif self.short_rows:
                self.short_rows.discard(bucket)
        factor = mx / (-(-total // self.n_channels)) if total else 1.0
        factors = self._factors
        old = factors[bucket]
        if factor == old:
            return
        factors[bucket] = factor
        top = self.max_factor
        if factor > top:
            self.max_factor = factor
            self._at_max = 1
        elif factor == top:
            self._at_max += 1
        elif old == top:
            self._at_max -= 1
            if not self._at_max:
                self.max_factor = top = max(factors)
                self._at_max = factors.count(top)

    # ------------------------------------------------------------ updates

    def add_block(self, bucket: int, channel: int) -> None:
        """Count a (tentative) placement of one block of ``bucket`` on ``channel``."""
        ops = self._cops
        if ops is not None:
            ops.add_block(bucket, channel)
            return
        self.X[bucket, channel] += 1
        if self._incremental:
            self._xrows[bucket][channel] += 1
            self._update_row(bucket)

    def remove_block(self, bucket: int, channel: int) -> None:
        """Withdraw a tentative placement (unprocessed block, or a swap source)."""
        ops = self._cops
        if ops is not None:
            if not ops.remove_block(bucket, channel):
                raise InvariantViolation(
                    f"histogram underflow at bucket {bucket}, channel {channel}"
                )
            return
        if self.X[bucket, channel] <= 0:
            raise InvariantViolation(
                f"histogram underflow at bucket {bucket}, channel {channel}"
            )
        self.X[bucket, channel] -= 1
        if self._incremental:
            self._xrows[bucket][channel] -= 1
            self._update_row(bucket)

    def record_location(self, bucket: int, channel: int, address) -> None:
        """Append a written block's address to the L chain."""
        self.L[bucket][channel].append(address)

    def refresh_aux(self) -> np.ndarray:
        """Recompute ``A`` from ``X`` (Algorithm 4) and validate its range.

        Under :meth:`enable_incremental`, ``A`` is already current, so this
        only validates (the same check, maintained per update).
        """
        if self._incremental:
            ops = self._cops
            if (not ops.synced()) if ops is not None else (
                self.X.tolist() != self._xrows
            ):
                # X was mutated behind the incremental bookkeeping's back
                # (tests/ablations tamper directly).  Resync from X so the
                # outcome — including invariant detection below — is exactly
                # the batch formulation's.  (ops.synced() is the same
                # comparison without materializing X as a list.)
                self._rebuild_incremental()
            if self._over_two:
                raise InvariantViolation(
                    "auxiliary matrix entry exceeds 2 — more than one new block "
                    "per channel per round?"
                )
            return self.A
        self.A = compute_aux(self.X)
        if int(self.A.max(initial=0)) > 2:
            raise InvariantViolation(
                "auxiliary matrix entry exceeds 2 — more than one new block "
                "per channel per round?"
            )
        return self.A

    # --------------------------------------------------------- inspection

    def channels_with_two(self) -> list[int]:
        """Channels whose column of ``A`` contains a 2 (each has exactly one).

        Raises if a channel has 2s in more than one bucket row, which would
        break the paper's uniqueness assumption (Algorithm 6's ``b[h]``).
        """
        if self._incremental:
            ops = self._cops
            if ops is not None:
                cols = ops.channels_with_two()  # None signals a duplicate
                if cols is None:
                    raise InvariantViolation(
                        "a channel holds 2s for two buckets at once"
                    )
                return cols
            cells = sorted(self._twos_cells)
            cols = [h for _, h in cells]
            if len(set(cols)) != len(cols):
                raise InvariantViolation(
                    "a channel holds 2s for two buckets at once"
                )
            return cols
        rows, cols = np.nonzero(self.A == 2)
        if len(set(cols.tolist())) != cols.size:
            raise InvariantViolation("a channel holds 2s for two buckets at once")
        return cols.tolist()

    def bucket_with_two(self, channel: int) -> int:
        """The unique bucket ``b`` with ``a_b,channel == 2``."""
        if self._incremental:
            rows = [b for b, h in self._twos_cells if h == channel]
            if len(rows) != 1:
                raise InvariantViolation(
                    f"expected exactly one 2 on channel {channel}, found {len(rows)}"
                )
            return rows[0]
        rows = np.nonzero(self.A[:, channel] == 2)[0]
        if rows.size != 1:
            raise InvariantViolation(
                f"expected exactly one 2 on channel {channel}, found {rows.size}"
            )
        return int(rows[0])

    def zero_channels_for_bucket(self, bucket: int) -> np.ndarray:
        """Channels ``h'`` with ``a_b,h' == 0`` — legal swap targets."""
        return np.nonzero(self.A[bucket] == 0)[0]

    def bucket_sizes_blocks(self) -> np.ndarray:
        """Blocks per bucket (row sums of X)."""
        return self.X.sum(axis=1)

    # ---------------------------------------------------------- invariants

    def invariant_1_ok(self) -> bool:
        """Quick boolean form of Invariant 1 (≥ ⌈H'/2⌉ zeros per A row).

        O(1) under the pure-Python incremental upkeep (the short-row
        index is kept per update); under compiled ops it walks the
        maintained rows in plain Python (the matrices are S × H' with
        both factors small — scalar loops beat numpy reductions by an
        order of magnitude); otherwise it defers to the vectorized
        check.  Callers wanting the offending rows use
        :meth:`check_invariant_1`.
        """
        need = (self.n_channels + 1) // 2
        if self._incremental:
            if self._cops is None:
                return not self.short_rows
            for alist in self._alist:
                zeros = 0
                for a in alist:
                    if a == 0:
                        zeros += 1
                if zeros < need:
                    return False
            return True
        return bool(((self.A == 0).sum(axis=1) >= need).all())

    def invariant_2_ok(self) -> bool:
        """Quick boolean form of Invariant 2 (A is binary).

        O(1) under :meth:`enable_incremental` — the 2-cell index is
        maintained per update, so binariness is just its emptiness.
        """
        if self._incremental:
            return not self._twos_cells and not self._over_two
        return int(self.A.max(initial=0)) <= 1

    def check_invariant_1(self) -> None:
        """≥ ⌈H'/2⌉ zeros in every row of A."""
        if self._incremental and self.invariant_1_ok():
            return  # same condition without numpy, which only runs
            # below to name the offending rows in the error.
        need = (self.n_channels + 1) // 2
        zeros = (self.A == 0).sum(axis=1)
        bad = np.nonzero(zeros < need)[0]
        if bad.size:
            raise InvariantViolation(
                f"Invariant 1 violated on bucket rows {bad.tolist()}: "
                f"fewer than {need} zeros"
            )

    def check_invariant_2(self) -> None:
        """A is binary after the track is conceptually processed."""
        if self._incremental and not self._twos_cells and not self._over_two:
            return  # the maintained 2-cell index is empty iff A is binary
        if int(self.A.max(initial=0)) > 1:
            rows, cols = np.nonzero(self.A > 1)
            raise InvariantViolation(
                f"Invariant 2 violated: 2s remain at {list(zip(rows.tolist(), cols.tolist()))}"
            )

    def balance_factor(self, bucket: int) -> float:
        """Theorem 4 metric: (parallel reads needed) / (optimal parallel reads).

        Reads needed = max blocks of the bucket on any channel; optimal =
        ⌈total/H'⌉.
        """
        row = self.X[bucket]
        total = int(row.sum())
        if total == 0:
            return 1.0
        optimal = -(-total // self.n_channels)
        return float(row.max()) / optimal

    def max_balance_factor(self) -> float:
        """Worst Theorem-4 factor over non-empty buckets.

        Vectorized over all bucket rows at once (bit-identical to the
        per-bucket :meth:`balance_factor` loop: both are one IEEE double
        division per non-empty bucket followed by a max).  Under
        :meth:`enable_incremental` the per-bucket factors are maintained
        on update (empty buckets carry 1.0, which never wins the max —
        every non-empty factor is ≥ 1 because ``max(row) ≥ ⌈total/H'⌉``),
        and so is their max (:attr:`max_factor`) except under compiled ops.
        """
        if self._incremental:
            return self.max_factor if self.max_factor is not None else max(self._factors)
        totals = self.X.sum(axis=1)
        nonempty = totals > 0
        if not nonempty.any():
            return 1.0
        maxima = self.X.max(axis=1)[nonempty]
        optimal = -(-totals[nonempty] // self.n_channels)
        return float((maxima / optimal).max())
