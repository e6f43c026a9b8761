"""E9 — the Algorithm 2 / [ViSa] partition-element guarantee.

Paper claim: choosing every ⌊log N⌋-th element with ``G·log N ≤ N/S``
(hierarchies), or every ``⌊memoryload/4S⌋``-th element per sorted
memoryload (disks), yields ``0 < N_b < 2N/S`` for every bucket b — on any
input, including heavy duplication and adversarial skew.
"""

import numpy as np
import pytest

from repro import ParallelHierarchies, workloads
from repro.analysis.reporting import Table
from repro.core.partition import pdm_partition_elements, validate_bucket_sizes
from repro.core.sort_hierarchy import choose_s_and_g
from repro.core.streams import load_ordered_run
from repro.hierarchies import VirtualHierarchies
from repro.pdm import ParallelDiskMachine, VirtualDisks
from repro.records import composite_keys

from _harness import report, run_once

WORKLOADS = ["uniform", "zipf", "few_distinct", "sorted", "adversarial_bucket_skew", "gaussian"]
S_SWEEP = [4, 8, 16]
N = 20_000


def sweep():
    rows = []
    for wl in WORKLOADS:
        data = workloads.by_name(wl, N, seed=15)
        for s in S_SWEEP:
            machine = ParallelDiskMachine(memory=1024, block=4, disks=8)
            storage = VirtualDisks(machine, 2)
            run = load_ordered_run(storage, data)
            pivots = pdm_partition_elements(machine, storage, run, s, memoryload=512)
            counts = np.bincount(
                np.searchsorted(pivots, composite_keys(data), side="right"), minlength=s
            )
            rows.append(
                {
                    "workload": wl,
                    "S": s,
                    "max bucket": int(counts.max()),
                    "2N/S bound": int(2 * N / s),
                    "ratio": round(validate_bucket_sizes(counts, N, s), 3),
                    "empty buckets": int((counts == 0).sum()),
                }
            )
    return rows


@pytest.mark.benchmark(group="e9")
def test_e9_bucket_bound(benchmark):
    rows = run_once(benchmark, sweep)
    t = Table(["workload", "S", "max bucket", "2N/S bound", "ratio", "empty buckets"],
              title=f"E9  bucket sizes vs the 2N/S guarantee, N={N} ([ViSa] sampling)")
    for r in rows:
        t.add_dict(r)
    report("e9_partition", t,
           notes="Claim: max bucket < 2N/S (ratio < 1) on every workload — "
                 "duplicates handled by the composite-key distinctness trick.")
    assert all(r["ratio"] <= 1.0 for r in rows)


@pytest.mark.benchmark(group="e9")
def test_e9_choose_s_and_g_constraint(benchmark):
    """The hierarchy parameter choice satisfies Algorithm 2's precondition."""

    def run():
        rows = []
        for n in [1_000, 10_000, 100_000, 1_000_000]:
            for h in [8, 64, 512]:
                s, g = choose_s_and_g(n, h)
                lg = max(1, n.bit_length() - 1)
                rows.append((n, h, s, g, g * lg, n // s))
        return rows

    rows = run_once(benchmark, run)
    t = Table(["N", "H", "S", "G", "G·logN", "N/S"],
              title="E9b  Algorithm 2 parameters: G·log N ≤ N/S")
    for r in rows:
        t.add(*r)
    report("e9b_parameters", t)
    for n, h, s, g, glog, ns in rows:
        assert glog <= ns + 1
        assert s >= 3 and g >= 2
