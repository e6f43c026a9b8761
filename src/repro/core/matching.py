"""Fast deterministic partial matching (Section 4.2).

Rearrange (Algorithm 6) reduces rebalancing to bipartite matching: ``U`` is
the set of channels holding a 2 in the auxiliary matrix (at most ⌊H'/2⌋ per
call), ``V`` is all ``H'`` channels, and ``(u, v) ∈ E`` when bucket
``b[u]``'s row has a 0 at ``v`` — swapping ``u``'s block to ``v`` removes
the 2.  Invariant 1 guarantees every ``u`` has degree ≥ ⌈H'/2⌉.

Three matchers:

* :func:`greedy_match` — sequential greedy.  Because ``deg(u) ≥ ⌈H'/2⌉ >
  |U| − 1``, greedy always matches *every* vertex of ``U``; it is the
  correctness reference and the practical choice when parallel time is not
  being modelled (the paper's objection to simple matchers is their
  parallel *time*, not their quality).
* :func:`randomized_partial_match` — Algorithm 7 verbatim: every ``u``
  repeatedly picks a uniform vertex of ``V`` until it hits a neighbor, then
  conflicts are resolved in favour of the smallest-numbered ``u``
  (Lemma 1: ≥ H'/4 matched in expectation, O(1) picking rounds).
* :func:`derandomized_partial_match` — Theorem 5: the picks are drawn from
  the pairwise-independent space ``h_{a,b}(u) = (a·u + b) mod p``
  (:class:`repro.util.pairwise.PairwiseSpace`); all ``p² = O(H'²)`` sample
  points are evaluated — the paper runs these as ``(H')²`` parallel copies
  on its ``H = (H')³`` processors — and the first point matching at least
  ``⌈H'/4⌉`` vertices is used.  Luby's argument guarantees such a point
  exists; if a degenerate tiny instance ever lacked one we fall back to
  greedy (still deterministic) and count it in ``stats``.

All matchers also report the simulated parallel time of the matching step
(``O(T(H))``, Section 4.2: sort messages by destination, segmented prefix,
monotone route).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..exceptions import InvariantViolation
from ..util.pairwise import PairwiseSpace
from .kernels import resolve_conflicts

__all__ = [
    "MatchingInstance",
    "MatchResult",
    "greedy_match",
    "greedy_mincost_match",
    "randomized_partial_match",
    "derandomized_partial_match",
]

#: Retry budget per vertex per sample point in the derandomized search.
DERAND_RETRIES = 8


@dataclass(frozen=True)
class MatchingInstance:
    """One Rearrange matching problem.

    ``u_channels[i]`` is the i-th overloaded channel; ``buckets[i]`` its
    unique 2-bucket; ``adjacency`` a boolean matrix of shape
    ``(|U|, H')`` with ``adjacency[i, v] = (a_{buckets[i], v} == 0)``.
    """

    u_channels: tuple
    buckets: tuple
    adjacency: np.ndarray
    n_channels: int

    @classmethod
    def from_matrices(cls, matrices, u_channels: list[int]) -> "MatchingInstance":
        """Build the instance Algorithm 6 constructs from the auxiliary matrix."""
        buckets = [matrices.bucket_with_two(h) for h in u_channels]
        adjacency = np.stack(
            [matrices.A[b] == 0 for b in buckets]
        ) if u_channels else np.zeros((0, matrices.n_channels), dtype=bool)
        return cls(
            u_channels=tuple(u_channels),
            buckets=tuple(buckets),
            adjacency=adjacency,
            n_channels=matrices.n_channels,
        )

    @property
    def size(self) -> int:
        return len(self.u_channels)

    def min_degree(self) -> int:
        """Smallest number of candidate targets over the U vertices."""
        if self.size == 0:
            return self.n_channels
        return int(self.adjacency.sum(axis=1).min())

    def check_degree_invariant(self) -> None:
        """Invariant 1 consequence: every u has ≥ ⌈H'/2⌉ candidate targets."""
        need = (self.n_channels + 1) // 2
        if self.size and self.min_degree() < need:
            raise InvariantViolation(
                f"matching degree {self.min_degree()} below ⌈H'/2⌉ = {need}"
            )


@dataclass
class MatchResult:
    """Outcome of one matching call: ``pairs[i] = (u_channel, v_channel)``."""

    pairs: list
    picking_rounds: int = 1
    sample_points_tried: int = 0
    used_fallback: bool = False

    @property
    def size(self) -> int:
        return len(self.pairs)


def _validate(instance: MatchingInstance, pairs: list) -> None:
    vs = [v for _, v in pairs]
    if len(set(vs)) != len(vs):
        raise InvariantViolation("matching assigned two blocks to one channel")
    u_index = {u: i for i, u in enumerate(instance.u_channels)}
    for u, v in pairs:
        if not instance.adjacency[u_index[u], v]:
            raise InvariantViolation(f"matched non-edge ({u}, {v})")


def greedy_match(instance: MatchingInstance) -> MatchResult:
    """Sequential greedy matching — perfect on these instances.

    Processes ``U`` in order; each vertex takes its lowest-numbered free
    neighbor.  Degree ≥ ⌈H'/2⌉ > |U| − 1 guarantees one exists.
    """
    taken = np.zeros(instance.n_channels, dtype=bool)
    pairs = []
    for i, u in enumerate(instance.u_channels):
        candidates = np.nonzero(instance.adjacency[i] & ~taken)[0]
        if candidates.size == 0:
            raise InvariantViolation(
                f"greedy matching stuck at u={u}: no free neighbor "
                f"(degree invariant broken upstream)"
            )
        v = int(candidates[0])
        taken[v] = True
        pairs.append((u, v))
    result = MatchResult(pairs=pairs)
    _validate(instance, pairs)
    return result


def greedy_mincost_match(instance: MatchingInstance, histogram: np.ndarray) -> MatchResult:
    """Min-cost flavour of greedy (Section 6 conjecture ablation).

    Each ``u`` takes the free neighbor whose histogram entry for ``u``'s
    bucket is smallest — steering blocks toward the channels where the
    bucket is rarest, the "greedy balance via min-cost matching on the
    placement matrix" the authors conjecture balances globally.
    """
    taken = np.zeros(instance.n_channels, dtype=bool)
    pairs = []
    for i, u in enumerate(instance.u_channels):
        mask = instance.adjacency[i] & ~taken
        candidates = np.nonzero(mask)[0]
        if candidates.size == 0:
            raise InvariantViolation(f"min-cost greedy stuck at u={u}")
        costs = histogram[instance.buckets[i], candidates]
        v = int(candidates[int(np.argmin(costs))])
        taken[v] = True
        pairs.append((u, v))
    result = MatchResult(pairs=pairs)
    _validate(instance, pairs)
    return result


def randomized_partial_match(
    instance: MatchingInstance,
    rng: np.random.Generator,
    max_rounds: int = 1000,
) -> MatchResult:
    """Algorithm 7 verbatim (randomized).

    Step (1): each ``u`` keeps picking a uniform vertex of ``V`` until the
    pick is edge-adjacent.  Step (2): when several ``u`` pick the same
    vertex, the smallest-numbered wins.  Expected ≥ H'/4 matched (Lemma 1);
    the picking loop runs an expected ≤ 2 rounds since degree ≥ H'/2.
    """
    k = instance.size
    if k == 0:
        return MatchResult(pairs=[])
    picks = np.full(k, -1, dtype=np.int64)
    unresolved = np.arange(k)
    rounds = 0
    while unresolved.size and rounds < max_rounds:
        rounds += 1
        trial = rng.integers(0, instance.n_channels, size=unresolved.size)
        hit = instance.adjacency[unresolved, trial]
        picks[unresolved[hit]] = trial[hit]
        unresolved = unresolved[~hit]
    if unresolved.size:
        raise InvariantViolation("randomized matching failed to find neighbors")
    pairs = resolve_conflicts(instance.u_channels, picks)
    result = MatchResult(pairs=pairs, picking_rounds=rounds)
    _validate(instance, pairs)
    return result


def derandomized_partial_match(instance: MatchingInstance) -> MatchResult:
    """Theorem 5: deterministic ≥ ⌈H'/4⌉ matching via the pairwise space.

    Every sample point ``(a, b) ∈ Z_p²`` deterministically drives the
    Algorithm 7 simulation (pick sequence ``(a·u + b + r) mod p`` for retry
    ``r``, rejecting values ≥ H' and non-neighbors, ``r <`` a constant
    budget); the first point matching the target is selected.  The paper
    evaluates all points simultaneously on its ``H = (H')³`` processors, so
    wall-clock there is still ``O(T(H))``.
    """
    k = instance.size
    if k == 0:
        return MatchResult(pairs=[])
    target = min(k, -(-instance.n_channels // 4))  # ⌈H'/4⌉ capped by |U|
    space = PairwiseSpace(instance.n_channels)
    if k <= 4 and instance.n_channels <= 8:
        return _derandomized_small(instance, space, target)
    u_ids = np.arange(k, dtype=np.int64)

    tried = 0
    for a, b in space.points():
        tried += 1
        picks = np.full(k, -1, dtype=np.int64)
        undecided = np.arange(k)
        for r in range(DERAND_RETRIES):
            cand = (a * u_ids[undecided] + b + r) % space.p
            ok = (cand < instance.n_channels) & instance.adjacency[
                undecided, np.minimum(cand, instance.n_channels - 1)
            ]
            picks[undecided[ok]] = cand[ok]
            undecided = undecided[~ok]
            if undecided.size == 0:
                break
        pairs = resolve_conflicts(instance.u_channels, picks)
        if len(pairs) >= target:
            result = MatchResult(pairs=pairs, picking_rounds=DERAND_RETRIES, sample_points_tried=tried)
            _validate(instance, pairs)
            return result

    # Degenerate tiny instance: stay deterministic via greedy (perfect).
    result = greedy_match(instance)
    result.sample_points_tried = tried
    result.used_fallback = True
    return result


def _derandomized_small(
    instance: MatchingInstance, space: PairwiseSpace, target: int
) -> MatchResult:
    """Scalar evaluation of the pairwise-space search for tiny instances.

    Bit-identical to the vectorized loop in
    :func:`derandomized_partial_match` (same sample-point order, same
    per-vertex retry sequence, same smallest-``u``-wins conflict rule as
    :func:`~repro.core.kernels.resolve_conflicts`), just without the ~15
    NumPy array constructions per sample point, which dominate when
    ``|U| ≤ 4`` — the common case, since ``|U| ≤ ⌊H'/2⌋`` per Rearrange
    call.
    """
    k = instance.size
    adj = instance.adjacency.tolist()
    p = space.p
    n_ch = instance.n_channels
    u_channels = instance.u_channels
    tried = 0
    for a, b in space.points():
        tried += 1
        pairs = []
        seen = set()
        for i in range(k):
            row = adj[i]
            for r in range(DERAND_RETRIES):
                cand = (a * i + b + r) % p
                if cand < n_ch and row[cand]:
                    # Conflict rule folded in: i ascends, so the first
                    # claimant of a v is the smallest-numbered u.
                    if cand not in seen:
                        seen.add(cand)
                        pairs.append((u_channels[i], cand))
                    break
        if len(pairs) >= target:
            result = MatchResult(
                pairs=pairs, picking_rounds=DERAND_RETRIES, sample_points_tried=tried
            )
            _validate(instance, pairs)
            return result
    result = greedy_match(instance)
    result.sample_points_tried = tried
    result.used_fallback = True
    return result
