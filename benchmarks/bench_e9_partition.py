"""E9 — the Algorithm 2 / [ViSa] partition-element guarantee.

Paper claim: choosing every ⌊log N⌋-th element with ``G·log N ≤ N/S``
(hierarchies), or every ``⌊memoryload/4S⌋``-th element per sorted
memoryload (disks), yields ``0 < N_b < 2N/S`` for every bucket b — on any
input, including heavy duplication and adversarial skew.  E9c checks the
same bound, and the base case, on the buckets of children whose
splitters come from their parent's exact counts (histogram splitters).
"""

from unittest import mock

import numpy as np
import pytest

from repro import ParallelHierarchies, workloads
from repro.analysis.reporting import Table
from repro.core import sort_pdm
from repro.core.balance import BalanceEngine
from repro.core.partition import pdm_partition_elements, validate_bucket_sizes
from repro.core.sort_hierarchy import choose_s_and_g
from repro.core.streams import load_ordered_run
from repro.hierarchies import VirtualHierarchies
from repro.obs import Observation
from repro.pdm import ParallelDiskMachine, VirtualDisks
from repro.records import composite_keys

from _harness import report, run_once

WORKLOADS = ["uniform", "zipf", "few_distinct", "sorted", "adversarial_bucket_skew", "gaussian"]
S_SWEEP = [4, 8, 16]
N = 20_000
#: E9c's sort size: the root's children need 7–8 buckets each.
N_HISTOGRAM = 64_000


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


def histogram_children_sweep():
    """Per workload, one disk sort whose root collects a histogram: its
    children, those split on the root's counts, and their worst bucket
    against ``2N_b/S_c`` and against the base case."""
    rows = []
    for wl in WORKLOADS:
        machine = ParallelDiskMachine(memory=512, block=4, disks=4)
        storage = VirtualDisks(machine, 2)
        base = machine.M - 3 * storage.virtual_block_size
        passes = []

        class Engine(BalanceEngine):
            def flush(self):
                runs = super().flush()
                passes.append((int(self.stats.records_fed), self.n_buckets,
                               int(self.bucket_record_counts.max())))
                return runs

        obs = Observation()
        with mock.patch.object(sort_pdm, "BalanceEngine", Engine):
            sort_pdm.balance_sort_pdm(
                machine, workloads.by_name(wl, N_HISTOGRAM, seed=15),
                storage=storage, obs=obs,
            )
        sources = [ev["attrs"].get("source") for ev in obs.tracer.events
                   if ev.get("ev") == "end" and ev.get("name") == "partition"]
        split = [p for p, source in zip(passes, sources) if source == "histogram"]
        rows.append({
            "workload": wl,
            "children": len(passes) - 1,
            "split": len(split),
            "S_c": f"{min(s for _, s, _ in split)}-{max(s for _, s, _ in split)}",
            "worst / (2N_b/S_c)": round(max(w * s / (2 * n) for n, s, w in split), 3),
            "worst / base": round(max(w for *_, w in split) / base, 3),
        })
    return rows


@pytest.mark.benchmark(group="e9")
def test_e9_histogram_children_bucket_bound(benchmark):
    rows = run_once(benchmark, histogram_children_sweep)
    t = Table(list(rows[0]), title=f"E9c  children split on exact counts, N={N_HISTOGRAM} "
                                   f"(M=512, B=4, D=4, D'=2, base case 488)")
    for r in rows:
        t.add_dict(r)
    report("e9c_histogram_children", t,
           notes="Claim: a child that takes its splitters from its parent's "
                 "exact counts has every bucket under 2N_b/S_c and a base case, "
                 "by construction, on every workload.")
    for r in rows:
        assert r["worst / (2N_b/S_c)"] < 1.0 and r["worst / base"] <= 1.0


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
