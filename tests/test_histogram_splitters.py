"""Histogram splitters: a child takes its splitters from exact counts.

A disk-sort pass whose children are expected to need exactly one more
pass (``base < n/S ≤ S_max·base``) holds ``q ≤ memoryload(S) − D·B``
candidate keys from its [ViSa] sample on the memory ledger and counts
every record it distributes against the union of pivots and candidates.
Each child above the base case then takes the smallest ``S_c`` from
``S₀`` up that the memoryload admits whose boundaries (the candidate keys
nearest the ranks ``j·n_b/S_c``) give every bucket at most the base case
and fewer than ``2n_b/S_c`` records, and skips its [ViSa] read; a child
no such ``S_c`` fits reads as before (DESIGN.md §2, "Histogram
splitters").

* (a) drawn shapes, each under checked invariants and the theory
  auditor: a sorted permutation, Invariants 1–2, the Theorem-4 factor,
  every bucket under ``2N/S``, the ledger at or below ``M``; every
  collecting pass by the rule, its counts summing to its buckets, its
  keys held and released; every split pass exactly the rule's choice,
  with only base-case children and a partition span without I/O;
* (b) the split rule on synthetic counts;
* (c) ``buckets=S`` keeps a [ViSa] read at every level;
* (d) the E1 cell and the tight-memory probe under the plan.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro import workloads
from repro.core import sort_pdm
from repro.core.balance import BalanceEngine
from repro.core.sort_pdm import (
    _memoryload,
    balance_sort_pdm,
    default_bucket_count,
    histogram_split,
)
from repro.core.streams import peek_run
from repro.exceptions import ParameterError
from repro.exec import run_task
from repro.obs import Observation, TheoryAuditor
from repro.obs.columnar import expand_trace
from repro.pdm import ParallelDiskMachine, VirtualDisks
from repro.util import assert_is_permutation, assert_sorted

from .split_reference import assert_split_pass, base_case, the_rule, widest
from .test_fanout_plan import assert_sorted_within_the_bounds
from .test_write_behind import TIGHT


# ------------------------------------------------------------- harness


def collects(machine, storage, n, s):
    """The collect rule: children expected to need exactly one more
    pass, and room for a key beside the reserve and one read round."""
    base = base_case(machine, storage)
    room = _memoryload(machine, storage, s) - machine.D * machine.B
    return room > 0 and base < n / s <= widest(machine, storage) * base


def recorded_sort(machine, data, **kwargs):
    """Sort under an observation and the theory auditor.

    Returns the result, the audit and every pass in order: its records,
    S, pivots and bucket counts, its histogram (keys and interval counts
    per bucket) if it collected one, the ledger when its buckets were
    flushed and when the pass closed, and its partition and distribute
    spans' closing attributes.
    """
    passes = []

    class Engine(BalanceEngine):
        def flush(self):
            runs = super().flush()
            passes.append({
                "n": int(self.stats.records_fed),
                "s": self.n_buckets,
                "pivots": self.pivots.copy(),
                "counts": self.bucket_record_counts.tolist(),
                "histogram": None if self.interval_counts is None else [
                    self.histogram(b) for b in range(self.n_buckets)
                ],
                "ledger_at_flush": machine.memory_in_use,
            })
            return runs

        def __exit__(self, *exc):
            super().__exit__(*exc)
            passes[-1]["ledger_at_exit"] = machine.memory_in_use

    obs = Observation()
    auditor = TheoryAuditor().install(obs)
    with mock.patch.object(sort_pdm, "BalanceEngine", Engine):
        res = balance_sort_pdm(machine, data, check_invariants=True, obs=obs, **kwargs)
    audit = auditor.finish_pdm(machine, res)
    ends = [ev for ev in obs.tracer.events if ev.get("ev") == "end"]
    partitions = [ev["attrs"] for ev in ends if ev["name"] == "partition"]
    distributes = [ev["attrs"] for ev in ends if ev["name"] == "distribute"]
    assert len(partitions) == len(distributes) == len(passes)
    for p, part, dist in zip(passes, partitions, distributes):
        p["partition"], p["distribute"] = part, dist
    return res, audit, passes


def parent_of(passes, i):
    """The pass whose bucket pass ``i`` sorts (passes run depth first)."""
    level = passes[i]["partition"]["level"]
    return next(p for p in reversed(passes[:i]) if p["partition"]["level"] == level - 1)


def assert_histogram_passes(machine, storage, passes):
    """Every pass of a planned sort collects by the rule, and every
    collecting and every split pass follows the rules exactly."""
    for i, p in enumerate(passes):
        n, s, dist = p["n"], p["s"], p["distribute"]
        if p["histogram"] is not None:
            q = dist["histogram"]
            assert 0 < q <= _memoryload(machine, storage, s) - machine.D * machine.B
            assert collects(machine, storage, n, s)
            assert p["partition"]["read_ios"] > 0  # its own [ViSa] read
            for (keys, counts), total in zip(p["histogram"], p["counts"]):
                assert counts.sum() == total
                assert np.all(keys[1:] > keys[:-1])
            # Its keys sit on the ledger until the children's splitters
            # are computed, then leave.
            assert p["ledger_at_flush"] - p["ledger_at_exit"] == q
        else:
            assert "histogram" not in dist
            assert not collects(machine, storage, n, s)
        if p["partition"].get("source") == "histogram":
            # A split pass: exactly the rule's choice on its parent's
            # counts, without I/O, and its children are base cases.
            assert_split_pass(machine, storage, parent_of(passes, i), p)
            assert p["partition"]["ios"] == 0 and p["partition"]["sample"] == 0
            assert "histogram" not in dist


# ------------------------------------------------------ (a) drawn shapes


@st.composite
def shapes(draw):
    d = draw(st.sampled_from([1, 2, 4, 8, 16]))
    dp = draw(st.sampled_from([x for x in (1, 2, 4, 8) if d % x == 0]))
    b = draw(st.sampled_from([1, 2, 4, 8]))
    m = draw(st.sampled_from([96, 128, 256, 512]))
    n = draw(st.integers(0, 40)) * m + draw(st.integers(0, m))
    workload = draw(st.sampled_from(
        ["uniform", "adversarial_bucket_skew", "adversarial_striping",
         "few_distinct", "zipf", "sorted", "reverse"]))
    matcher = draw(st.sampled_from(["derandomized", "randomized", "greedy", "mincost"]))
    internal = draw(st.sampled_from(sort_pdm.INTERNAL_SORTS))
    seed = draw(st.integers(0, 99))
    return d, dp, b, m, n, workload, matcher, internal, seed


#: A root whose uniform children fall one short of splitting: one reads
#: for its splitters and, itself expected to leave one more pass, collects.
FALLBACK = (8, 4, 8, 512, 40 * 512, "uniform", "derandomized", "cole", 3)


@settings(max_examples=30, deadline=None)
@given(shapes())
@example(FALLBACK)
@example((4, 2, 4, 512, 24 * 512, "zipf", "greedy", "radix", 1))
@example((4, 4, 1, 128, 40 * 128, "sorted", "mincost", "radix-operational", 0))
@example((4, 4, 8, 128, 384, "uniform", "derandomized", "cole", 0))  # no room
def test_drawn_shapes_split_on_exact_counts(shape):
    d, dp, b, m, n, workload, matcher, internal, seed = shape
    variant = "EREW" if internal == "cole" else "CRCW"
    assume(d * b <= m // 2)  # the model's D·B ≤ M/2
    machine = ParallelDiskMachine(memory=m, block=b, disks=d, pram_variant=variant)
    storage = VirtualDisks(machine, dp)
    try:
        _memoryload(machine, storage, default_bucket_count(m, b))
    except ParameterError:
        assume(False)
    data = workloads.by_name(workload, n, seed=seed)
    res, audit, passes = recorded_sort(
        machine, data, storage=storage, matcher=matcher, internal=internal
    )
    assert_sorted_within_the_bounds(machine, res, audit, data)
    assert_histogram_passes(machine, storage, passes)


def test_a_child_the_counts_cannot_split_reads_for_its_splitters():
    d, dp, b, m, n, workload, _, _, seed = FALLBACK
    machine = ParallelDiskMachine(memory=m, block=b, disks=d)
    storage = VirtualDisks(machine, dp)
    data = workloads.by_name(workload, n, seed=seed)
    res, audit, passes = recorded_sort(machine, data, storage=storage)
    assert_sorted_within_the_bounds(machine, res, audit, data)
    assert_histogram_passes(machine, storage, passes)
    root, children = passes[0], passes[1:]
    assert root["histogram"] is not None
    read = [p for p in children if p["partition"].get("source") != "histogram"
            and p["partition"]["level"] == 1]
    assert len(read) == 1 and read[0]["partition"]["read_ios"] > 0
    keys, counts = root["histogram"][
        int(np.searchsorted(root["pivots"], read[0]["pivots"][0], side="right"))
    ]
    assert the_rule(machine, storage, keys, counts) is None


# ------------------------------------------------ (b) the split rule


def rule_machine():
    machine = ParallelDiskMachine(memory=512, block=4, disks=4)
    storage = VirtualDisks(machine, 2)
    assert base_case(machine, storage) == 488 and widest(machine, storage) == 39
    return machine, storage


def test_even_counts_split_at_the_smallest_s_that_fits():
    machine, storage = rule_machine()
    keys = np.arange(1, 30, dtype=np.uint64) * 10
    counts = np.full(30, 100)
    work = machine.cpu.work
    pivots = histogram_split(machine, storage, keys, counts)
    # S = 7 leaves a 500-record bucket; S = 8 cuts every 300 or 400.
    assert pivots.tolist() == [40, 70, 110, 150, 190, 220, 260]
    assert the_rule(machine, storage, keys, counts)[0] == 8
    assert machine.cpu.work - work == 2 * 30  # one prefix sum


@pytest.mark.parametrize("counts", [
    [100, 600, 100],   # an interval over the base case
    [400] * 60,        # 24,000 records: more base cases than S_max = 39
    [700],             # no inner key to cut at
])
def test_counts_that_cannot_prove_base_cases_fall_back(counts):
    machine, storage = rule_machine()
    keys = np.arange(1, len(counts), dtype=np.uint64)
    assert histogram_split(machine, storage, keys, np.array(counts)) is None
    assert the_rule(machine, storage, keys, counts) is None


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 300), min_size=1, max_size=80))
def test_the_split_is_the_rule_on_drawn_counts(counts):
    machine, storage = rule_machine()
    keys = np.arange(1, len(counts), dtype=np.uint64) * 7
    pivots = histogram_split(machine, storage, keys, np.array(counts))
    expected = the_rule(machine, storage, keys, counts)
    if expected is None:
        assert pivots is None
    else:
        assert np.array_equal(pivots, expected[1])


# ------------------------------------------------- (c) a fixed S reads


@pytest.mark.parametrize("s", [5, 9])
def test_a_fixed_s_keeps_its_sampling_read_at_every_level(s):
    machine = ParallelDiskMachine(memory=512, block=4, disks=4)
    storage = VirtualDisks(machine, 2)
    data = workloads.by_name("uniform", 16_000, seed=1)
    assert collects(machine, storage, 16_000, s)  # it would, if planned
    res, audit, passes = recorded_sort(machine, data, storage=storage, buckets=s)
    assert_sorted_within_the_bounds(machine, res, audit, data)
    assert len(passes) > 1
    for p in passes:
        assert p["s"] == s and p["histogram"] is None
        assert "source" not in p["partition"] and p["partition"]["read_ios"] > 0


# ---------------------------------------------- (d) E1 cell, tight probe


def test_64k_cell_children_take_their_splitters_from_the_root():
    payload = run_task("sort_pdm", {"n": 64_000, "memory": 512, "block": 4,
                                    "disks": 4, "seed": 1})
    ends = [ev for ev in expand_trace(payload["trace"]) if ev["ev"] == "end"]
    parts = [ev["attrs"] for ev in ends if ev["name"] == "partition"]
    dists = [ev["attrs"] for ev in ends if ev["name"] == "distribute"]
    assert payload["result"]["recursion_depth"] == 2
    assert parts[0]["s"] == 19 and dists[0]["histogram"] == 320 - 16
    split = [p for p in parts if p.get("source") == "histogram"]
    assert len(split) == 18 and len(parts) == 20
    assert all(p["ios"] == 0 and p["level"] == 1 for p in split)
    assert payload["result"]["parallel_ios"] == 28_449  # 32,236 reading


@pytest.mark.slow
@pytest.mark.parametrize("d, dp", sorted({(d, dp) for d, _, _, dp, _, _ in TIGHT}))
def test_tight_probe_sorts_on_the_plan(d, dp):
    """Every tight-memory probe shape (M at the smallest accepted value
    and just above it) sorts under the planned S, histograms held on the
    ledger, with checked invariants and the ledger at or below M."""
    for b, m, workload in sorted({(b, m, w) for d_, b, _, dp_, m, w in TIGHT
                                  if (d_, dp_) == (d, dp)}):
        machine = ParallelDiskMachine(memory=m, block=b, disks=d)
        data = workloads.by_name(workload, 6 * m, seed=3)
        res = balance_sort_pdm(machine, data, virtual_disks=dp, check_invariants=True)
        assert machine.mem_snapshot()["ledger_high_water_records"] <= m
        assert machine.memory_in_use == 0
        out = peek_run(res.storage, res.output)
        assert_sorted(out)
        assert_is_permutation(out, data)
