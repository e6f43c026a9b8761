"""Sampling while distributing: children take their splitters from the
regular samples their parent's pass kept of each memoryload.

Below level 0 a bucket of ``n_b`` records spread over ``k_b`` sorted
fragments, sampled every ``t``-th element, takes its ``S−1`` splitters
from the sample when ``t·(k_b + 1) ≤ n_b/(2S)``; then every one of its
own buckets is smaller than ``n_b/S + t·(k_b + 1)`` (DESIGN.md §2), and
so below ``1.5·n_b/S``.  Otherwise it reads itself for [ViSa] splitters
as before.  Level 0 always reads.

* (a) drawn shapes: sorted permutation, Invariants 1–2 every round, the
  Theorem-4 factor, the proven bound wherever a sample was used, every
  bucket below ``2N/S``, and the ledger within ``M``;
* (b) the regular-sampling worst case: every memoryload holds the same
  interleaved key range, so every fragment's error lands on one splitter;
* (c) a small bucket whose sample cannot promise the bound reads itself;
* (d) level 0 places every block as a pass running its rounds after
  every read does (rounds now run once per memoryload);
* (e) the 64k / D=4 uniform cell reads for splitters at level 0 only.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import workloads
from repro.core import sort_pdm
from repro.core.balance import BalanceEngine
from repro.core.partition import (
    FragmentSampler,
    pdm_partition_elements,
    regular_sample_bound,
)
from repro.core.sort_pdm import _memoryload, balance_sort_pdm
from repro.core.streams import load_ordered_run, peek_run, read_run_batches
from repro.exceptions import ParameterError
from repro.exec import run_task
from repro.obs import Observation
from repro.obs.columnar import expand_trace
from repro.pdm import ParallelDiskMachine, VirtualDisks
from repro.records import composite_keys, make_records
from repro.util import assert_is_permutation, assert_sorted


# ------------------------------------------------------------- harness


def recorded_sort(data, m, b, d, dp=None, s=None, matcher="derandomized",
                  obs=None, level0_pivots=None):
    """Sort ``data`` and record every pass: its size, bucket counts, and
    the proven bound when its splitters came from a sample.

    ``level0_pivots`` replaces the level-0 [ViSa] splitters.
    """
    passes = []
    pending = {}

    class Sampler(FragmentSampler):
        def splitters(self, bucket, n_b, s_):
            k_b = self.fragments[bucket]
            pivots = super().splitters(bucket, n_b, s_)
            pending["bound"] = (
                None if pivots is None
                else regular_sample_bound(n_b, s_, self.stride, k_b)
            )
            return pivots

    class Engine(BalanceEngine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.sample_bound = pending.pop("bound", None)

        def flush(self):
            runs = super().flush()
            passes.append({
                "n": int(self.stats.records_fed),
                "counts": self.bucket_record_counts.tolist(),
                "bound": self.sample_bound,
            })
            return runs

    visa = pdm_partition_elements
    if level0_pivots is not None:
        calls = []

        def visa(machine, storage, run, s_, memoryload, internal_sort=None):
            calls.append(run.n_records)
            if len(calls) == 1:
                return level0_pivots
            return pdm_partition_elements(machine, storage, run, s_, memoryload,
                                          internal_sort=internal_sort)

    machine = ParallelDiskMachine(memory=m, block=b, disks=d)
    with mock.patch.object(sort_pdm, "FragmentSampler", Sampler), \
            mock.patch.object(sort_pdm, "BalanceEngine", Engine), \
            mock.patch.object(sort_pdm, "pdm_partition_elements", visa):
        res = balance_sort_pdm(machine, data, virtual_disks=dp, buckets=s,
                               matcher=matcher, check_invariants=True, obs=obs)
    return machine, res, passes


def assert_sort_holds(machine, res, passes, data, s):
    out = peek_run(res.storage, res.output)
    assert_sorted(out)
    assert_is_permutation(out, data)
    assert res.max_balance_factor <= 2.0
    assert res.max_bucket_ratio < 1.0
    assert machine.mem_snapshot()["ledger_high_water_records"] <= machine.M
    for p in passes:
        assert max(p["counts"]) < 2 * p["n"] / s
        if p["bound"] is not None:
            assert max(p["counts"]) < p["bound"] <= 1.5 * p["n"] / s


def partition_spans(obs):
    return [
        (ev["attrs"]["level"], ev["attrs"]["n"])
        for ev in obs.tracer.events
        if ev.get("ev") == "begin" and ev.get("name") == "partition"
    ]


# ------------------------------------------------------ (a) drawn shapes


@st.composite
def shapes(draw):
    d = draw(st.sampled_from([1, 2, 4, 8]))
    dp = draw(st.sampled_from([x for x in (1, 2, 4, 8) if d % x == 0]))
    b = draw(st.sampled_from([1, 2, 4]))
    m = draw(st.sampled_from([96, 128, 256, 512, 1024]))
    # E3's S = √(M/B) beside the paper's (M/B)^{1/4} and small fixed S.
    s = draw(st.sampled_from([2, 3, 4, 5, None, math.isqrt(m // b)]))
    n = draw(st.integers(0, 12)) * m + draw(st.integers(0, m))
    workload = draw(st.sampled_from(
        ["uniform", "adversarial_bucket_skew", "adversarial_striping",
         "few_distinct", "zipf", "sorted", "reverse"]))
    matcher = draw(st.sampled_from(["derandomized", "randomized", "greedy", "mincost"]))
    seed = draw(st.integers(0, 99))
    return d, dp, b, m, s, n, workload, matcher, seed


@settings(max_examples=40, deadline=None)
@given(shapes())
def test_drawn_shapes_sort_within_the_bounds(shape):
    d, dp, b, m, s, n, workload, matcher, seed = shape
    machine = ParallelDiskMachine(memory=m, block=b, disks=d)
    s = sort_pdm.default_bucket_count(m, b) if s is None else s
    try:
        _memoryload(machine, VirtualDisks(machine, dp), s)
    except ParameterError:
        assume(False)
    data = workloads.by_name(workload, n, seed=seed)
    machine, res, passes = recorded_sort(data, m, b, d, dp, s, matcher)
    assert_sort_holds(machine, res, passes, data, s)


# ------------------------------------------- (b) regular-sampling worst case


def interleaved(n_loads, load):
    """Memoryload ``j`` holds keys ``r·n_loads + j``, ``r < load``: the
    same interleaved key range in every memoryload."""
    i = np.arange(n_loads * load)
    return make_records((i % load) * n_loads + i // load)


def test_interleaved_memoryloads_stay_inside_the_bound():
    # M=512, B=4, D=4, D'=2: a level-0 memoryload is 26 read rounds of
    # 16 records = 416 records, so each one is one interleaved copy.
    data = interleaved(40, 416)
    machine, res, passes = recorded_sort(data, 512, 4, 4)
    assert_sort_holds(machine, res, passes, data, 3)
    sampled = [p for p in passes if p["bound"] is not None]
    assert sampled
    # The fragments' errors add up: the worst sampled bucket sits well
    # above n_b/S, yet under the bound.
    worst = max(max(p["counts"]) / (p["n"] / 3) for p in sampled)
    assert worst > 1.02


# ------------------------------------------------------ (c) the fallback


def test_a_small_skewed_bucket_reads_for_its_splitters():
    n = 16_000
    data = workloads.by_name("uniform", n, seed=5)
    keys = np.sort(composite_keys(data))
    # Bucket 0 gets 1,000 records: above the base case (488), far below
    # the n/(2S) its sample was sized for.
    pivots = keys[[1_000, 8_500]]
    obs = Observation()
    machine, res, passes = recorded_sort(data, 512, 4, 4, obs=obs,
                                         level0_pivots=pivots)
    assert_sort_holds(machine, res, passes, data, 3)
    assert partition_spans(obs) == [(0, n), (1, 1_000)]


# ------------------------------- (d) level 0 against per-read rounds


def level0_per_read(data, m, b, d, dp, s):
    """Level 0's pass with its rounds run after every read (the earlier
    cadence): the reference the memoryload cadence must place as."""
    machine = ParallelDiskMachine(memory=m, block=b, disks=d)
    storage = VirtualDisks(machine, dp)
    run = load_ordered_run(storage, data)
    pivots = pdm_partition_elements(machine, storage, run, s,
                                    _memoryload(machine, storage, s))
    engine = BalanceEngine(storage, pivots, rng=np.random.default_rng(2718),
                           check_invariants=True)
    with engine:
        for chunk in read_run_batches(storage, run, free=True):
            engine.feed(chunk)
            engine.run_rounds(drain_below=2 * dp)
        runs = engine.flush()
    return placement(engine, runs)


def placement(engine, runs):
    """X, A, L's chains (channel, fill, contents), rounds and swaps."""
    mat = engine.matrices
    peek = engine.storage.peek_many
    return {
        "X": mat.X.tolist(),
        "A": mat.A.tolist(),
        "rounds": engine.stats.rounds,
        "swapped": engine.stats.blocks_swapped,
        "unprocessed": engine.stats.blocks_unprocessed,
        "chains": [
            [([(ref.address.vdisk, ref.fill) for ref in chain],
              peek([ref.address for ref in chain]).tobytes() if chain else b"")
             for chain in run.chains]
            for run in runs
        ],
    }


@pytest.mark.parametrize("n, m, b, d, dp, s, workload", [
    (16_000, 512, 4, 4, 2, 3, "uniform"),
    (8_000, 512, 4, 16, 2, 3, "uniform"),
    (6_000, 256, 2, 8, 4, 3, "adversarial_bucket_skew"),
    (6_000, 512, 4, 8, 4, 5, "adversarial_striping"),
])
def test_level0_places_as_rounds_after_every_read(n, m, b, d, dp, s, workload):
    data = workloads.by_name(workload, n, seed=1)
    first = []

    class Level0(BalanceEngine):
        def flush(self):
            runs = super().flush()
            if not first:
                first.append(placement(self, runs))
            return runs

    machine = ParallelDiskMachine(memory=m, block=b, disks=d)
    with mock.patch.object(sort_pdm, "BalanceEngine", Level0):
        balance_sort_pdm(machine, data, virtual_disks=dp, buckets=s,
                         check_invariants=True)
    assert first[0] == level0_per_read(data, m, b, d, dp, s)


# ------------------------------------------------- (e) the E1 cell


def test_64k_cell_reads_for_splitters_at_level_0_only():
    payload = run_task("sort_pdm", {"n": 64_000, "memory": 512, "block": 4,
                                    "disks": 4})
    levels = [
        ev["attrs"]["level"] for ev in expand_trace(payload["trace"])
        if ev["ev"] == "begin" and ev["name"] == "partition"
    ]
    assert levels == [0]


# ------------------------------------------------ the fragment sort charge


@pytest.mark.parametrize("internal, label", [
    ("cole", "cole-sort"), ("radix", "rr-radix"), ("radix-operational", "radix-sort"),
])
def test_fragment_sorts_charge_the_internal_flavour(internal, label):
    machine = ParallelDiskMachine(memory=512, block=4, disks=4,
                                  pram_variant="CRCW")
    machine.cpu.trace = True
    after_add = []

    class Sampler(FragmentSampler):
        def add(self, records):
            sizes = super().add(records)
            after_add.append((len(machine.cpu.steps), sizes))
            return sizes

    data = workloads.by_name("uniform", 8_000, seed=3)
    with mock.patch.object(sort_pdm, "FragmentSampler", Sampler):
        balance_sort_pdm(machine, data, internal=internal)
    assert after_add
    cost, _ = sort_pdm._SORT_COSTS[internal]
    for index, sizes in after_add:
        step = machine.cpu.steps[index]  # the memoryload's one step
        costs = [cost(f) for f in sizes if f]
        assert step.label == label
        assert step.work == sum(w for w, _ in costs)
        assert step.depth == max(dep for _, dep in costs)


def test_sampler_fragments_are_the_engine_buckets():
    data = workloads.by_name("zipf", 3_000, seed=4)
    keys = np.sort(composite_keys(data))
    pivots = keys[[700, 1_900]]
    sampler = FragmentSampler(pivots, stride=7)
    engine = BalanceEngine(VirtualDisks(ParallelDiskMachine(memory=8192, block=2,
                                                            disks=4), 2), pivots)
    fragments = np.zeros(3, dtype=int)
    for i in range(0, 3_000, 400):
        load = data[i:i + 400]
        expected = np.bincount(engine.bucket_ids(load), minlength=3)
        assert sampler.add(load) == expected.tolist()
        fragments += expected > 0
    assert sampler.fragments == fragments.tolist()
    # Elements t, 2t, ... of each sorted fragment.
    ranks = np.searchsorted(keys, pivots)
    sample = sampler.splitters(1, int(ranks[1] - ranks[0]), 2)
    assert sample is None or keys[ranks[0]] <= sample[0] < keys[ranks[1]]
