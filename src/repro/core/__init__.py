"""Balance Sort — the paper's contribution.

* :mod:`~repro.core.matrices` — histogram ``X``, auxiliary ``A`` (Algorithm
  4), location ``L``; Invariants 1 & 2; the Theorem 4 balance bound.
* :mod:`~repro.core.matching` — ``Fast-Partial-Match`` (Algorithm 7),
  randomized and derandomized (Theorem 5), plus the sequential greedy
  reference matcher.
* :mod:`~repro.core.balance` — ``Balance`` / ``Rebalance`` / ``Rearrange``
  (Algorithms 3, 5, 6) as one engine generic over the storage backend.
* :mod:`~repro.core.partition` — partition-element selection (Algorithm 2
  for hierarchies; the [ViSa] memoryload sampling of Section 5 for disks).
* :mod:`~repro.core.sort_pdm` — Balance Sort on the parallel disk model
  (Section 5, Theorem 1).
* :mod:`~repro.core.sort_hierarchy` — Algorithm 1 on parallel memory
  hierarchies (Section 4, Theorems 2–3).
* :mod:`~repro.core.aux_variants` — the [Arg] alternative auxiliary-matrix
  rule (Section 4.1 ablation).
* :mod:`~repro.core.kernels` — the NumPy compute kernels for the
  engine's hot loops, plus the optional C round bookkeeping.
"""

from .incremental import IncrementalAux
from .matrices import BalanceMatrices
from .matching import (
    MatchingInstance,
    derandomized_partial_match,
    greedy_match,
    randomized_partial_match,
)
from .balance import BalanceEngine, BucketRun
from .partition import (
    hierarchy_partition_elements,
    pdm_partition_elements,
    validate_bucket_sizes,
)
from .sort_pdm import balance_sort_pdm
from .sort_hierarchy import balance_sort_hierarchy

__all__ = [
    "BalanceMatrices",
    "IncrementalAux",
    "MatchingInstance",
    "greedy_match",
    "randomized_partial_match",
    "derandomized_partial_match",
    "BalanceEngine",
    "BucketRun",
    "hierarchy_partition_elements",
    "pdm_partition_elements",
    "validate_bucket_sizes",
    "balance_sort_pdm",
    "balance_sort_hierarchy",
]
