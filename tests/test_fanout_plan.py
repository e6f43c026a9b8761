"""The planned fan-out: every subproblem of the disk sort picks its own S.

:func:`repro.core.sort_pdm.plan_bucket_count` chooses among the paper's
``S₀ = (M/B)^{1/4}`` and every wider ``S`` whose memoryload the sort
admits with a [ViSa] stride ``t(S) = ⌊memoryload/(4S)⌋ ≥ B``.  At a node
of ``n`` records it takes the narrowest candidate whose proven child
bound ``n/S + t·(⌈n/memoryload⌉ + 1)`` is a base case, else the widest
(DESIGN.md §2, "Planned fan-out").  A child whose splitters came from
its parent's histogram plans nothing: its S is the split rule's
(``tests/split_reference.py``).

* (a) drawn shapes, each under checked invariants and the theory
  auditor: a sorted permutation, Invariants 1–2, the Theorem-4 factor,
  every bucket under ``2N/S``; on every [ViSa] pass, every bucket under
  the proven [ViSa] bound, a candidate S chosen by the rule, only
  base-case children below a node planned to finish, and a sample of at
  most ``⌊n/B⌋`` keys wherever ``S > S₀``; every split pass exactly the
  split rule's choice;
* (b) ``buckets=S`` fixes S on every ``partition`` span;
* (c) the randomized baseline plans as Balance Sort does;
* (d) the E1 cells.
"""

import math
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import workloads
from repro.baselines import randomized_vs
from repro.baselines.randomized_vs import randomized_distribution_sort
from repro.core import sort_pdm
from repro.core.balance import BalanceEngine
from repro.core.sort_pdm import (
    _memoryload,
    balance_sort_pdm,
    default_bucket_count,
    plan_bucket_count,
)
from repro.core.streams import peek_run
from repro.exceptions import ParameterError
from repro.exec import run_task
from repro.obs import Observation, TheoryAuditor
from repro.obs.columnar import expand_trace
from repro.pdm import ParallelDiskMachine, VirtualDisks
from repro.util import assert_is_permutation, assert_sorted

from .split_reference import assert_split_pass, base_case


# ------------------------------------------------------------- harness


def candidates(machine, storage):
    """``S₀`` and every wider ``S`` the memoryload rule admits with a
    stride of at least ``B``, found by scanning every ``S`` up to ``M``."""
    out = [default_bucket_count(machine.M, machine.B)]
    for s in range(out[0] + 1, machine.M + 1):
        try:
            load = _memoryload(machine, storage, s)
        except ParameterError:
            continue
        if load // (4 * s) >= machine.B:
            out.append(s)
    return out


def proven_bound(machine, storage, n, s):
    """Every bucket of an ``n``-record pass at ``S`` is smaller than this
    (``pdm_partition_elements``' guarantee)."""
    load = _memoryload(machine, storage, s)
    return n / s + max(1, load // (4 * s)) * (math.ceil(n / load) + 1)


def recorded_sort(machine, data, **kwargs):
    """Sort under an observation and the theory auditor; returns the
    result, the audit, every pass (records, S, pivots, bucket counts and
    any histogram it collected) in order, and every ``partition`` span's
    closing attributes."""
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
            })
            return runs

    obs = Observation()
    auditor = TheoryAuditor().install(obs)
    with mock.patch.object(sort_pdm, "BalanceEngine", Engine):
        res = balance_sort_pdm(machine, data, check_invariants=True, obs=obs, **kwargs)
    audit = auditor.finish_pdm(machine, res)
    spans = [ev["attrs"] for ev in obs.tracer.events
             if ev.get("ev") == "end" and ev.get("name") == "partition"]
    return res, audit, passes, spans


def assert_sorted_within_the_bounds(machine, res, audit, data):
    out = peek_run(res.storage, res.output)
    assert_sorted(out)
    assert_is_permutation(out, data)
    assert res.max_balance_factor <= 2.0
    assert res.max_bucket_ratio < 1.0
    assert audit.ok, [c for c in audit.checks if not c.ok]
    checks = {c.name: c for c in audit.checks}
    assert checks["invariant1"].measured == checks["invariant2"].measured == 0
    assert machine.mem_snapshot()["ledger_high_water_records"] <= machine.M


# ------------------------------------------------------ (a) drawn shapes


@st.composite
def shapes(draw):
    d = draw(st.sampled_from([1, 2, 4, 8, 16]))
    dp = draw(st.sampled_from([x for x in (1, 2, 4, 8) if d % x == 0]))
    b = draw(st.sampled_from([1, 2, 4, 8]))
    m = draw(st.sampled_from([96, 128, 256, 512, 1024, 2048]))
    n = draw(st.integers(0, 16)) * m + draw(st.integers(0, m))
    workload = draw(st.sampled_from(
        ["uniform", "adversarial_bucket_skew", "adversarial_striping",
         "few_distinct", "zipf", "sorted", "reverse"]))
    matcher = draw(st.sampled_from(["derandomized", "randomized", "greedy", "mincost"]))
    internal = draw(st.sampled_from(sort_pdm.INTERNAL_SORTS))
    seed = draw(st.integers(0, 99))
    return d, dp, b, m, n, workload, matcher, internal, seed


@settings(max_examples=40, deadline=None)
@given(shapes())
def test_drawn_shapes_sort_on_their_plan(shape):
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
    res, audit, passes, spans = recorded_sort(
        machine, data, storage=storage, matcher=matcher, internal=internal
    )
    assert_sorted_within_the_bounds(machine, res, audit, data)

    base = base_case(machine, storage)
    allowed = candidates(machine, storage)
    s0 = allowed[0]
    assert len(spans) == len(passes)
    for i, (p, span) in enumerate(zip(passes, spans)):
        n_p, s, counts = p["n"], p["s"], p["counts"]
        assert (span["n"], span["s"]) == (n_p, s)
        if span.get("source") == "histogram":
            # Splitters from the parent's exact counts: the split rule's
            # S, every bucket a base case under 2N/S, and no read.
            parent = next(q for q, up in zip(passes[i::-1], spans[i::-1])
                          if up["level"] == span["level"] - 1)
            assert_split_pass(machine, storage, parent, p)
            assert span["ios"] == 0
            continue
        # The plan's choice: a candidate, the narrowest that finishes,
        # else the widest.
        assert s in allowed
        finishing = [c for c in allowed if proven_bound(machine, storage, n_p, c) <= base]
        assert s == (finishing[0] if finishing else allowed[-1])
        assert s == plan_bucket_count(machine, storage, n_p)
        # Every bucket under the paper's 2N/S and the proven [ViSa] bound.
        assert max(counts) < 2 * n_p / s
        assert max(counts) < proven_bound(machine, storage, n_p, s)
        if finishing:
            assert max(counts) <= base  # every child is a base case
        if s > s0:
            assert span["sample"] <= n_p // machine.B
    # A node planned to finish has no pass below it.
    if passes and proven_bound(machine, storage, passes[0]["n"], passes[0]["s"]) <= base:
        assert len(passes) == 1 and res.recursion_depth == 1


def test_a_node_planned_to_finish_has_only_base_case_children():
    machine = ParallelDiskMachine(memory=512, block=4, disks=4)
    storage = VirtualDisks(machine, 2)
    data = workloads.by_name("adversarial_bucket_skew", 4_000, seed=2)
    res, audit, passes, spans = recorded_sort(machine, data, storage=storage)
    assert_sorted_within_the_bounds(machine, res, audit, data)
    (only,) = passes
    assert only["s"] == 11 > default_bucket_count(512, 4)
    assert proven_bound(machine, storage, 4_000, 11) <= base_case(machine, storage)
    assert max(only["counts"]) <= base_case(machine, storage)
    assert res.recursion_depth == 1


def test_the_plan_takes_the_narrowest_finishing_candidate_else_the_widest():
    machine = ParallelDiskMachine(memory=512, block=4, disks=4)
    storage = VirtualDisks(machine, 2)
    allowed = candidates(machine, storage)
    assert allowed == list(range(3, 20))  # t(20) = ⌊304/80⌋ = 3 < B
    base = base_case(machine, storage)
    # Just above the base case, the paper's S already finishes.
    assert plan_bucket_count(machine, storage, base + 1) == 3
    assert plan_bucket_count(machine, storage, 4_000) == 11
    assert proven_bound(machine, storage, 4_000, 10) > base
    # Too large to finish at any S: the widest.
    assert plan_bucket_count(machine, storage, 64_000) == 19


def test_a_machine_too_small_for_s0_is_refused_as_before():
    machine = ParallelDiskMachine(memory=32, block=4, disks=4)
    storage = VirtualDisks(machine, 4)
    with pytest.raises(ParameterError, match="machine too small"):
        plan_bucket_count(machine, storage, 1_000)


# --------------------------------------------------- (b) a fixed S


@pytest.mark.parametrize("s", [3, 5, 8])
def test_a_fixed_s_holds_at_every_level(s):
    machine = ParallelDiskMachine(memory=512, block=4, disks=4)
    data = workloads.by_name("uniform", 16_000, seed=1)
    res, audit, passes, spans = recorded_sort(machine, data, buckets=s)
    assert_sorted_within_the_bounds(machine, res, audit, data)
    assert len(spans) > 1
    assert {span["s"] for span in spans} == {p["s"] for p in passes} == {s}


# ---------------------------------------------- (c) the randomized baseline


@pytest.mark.parametrize("n, d, buckets", [
    (4_000, 4, None), (16_000, 8, None), (30_000, 4, None), (16_000, 4, 3),
])
def test_the_randomized_baseline_follows_the_same_plan(n, d, buckets):
    calls = []
    visa = randomized_vs.pdm_partition_elements

    def recording(machine, storage, run, s, memoryload, **kwargs):
        calls.append((run.n_records, s, memoryload,
                      plan_bucket_count(machine, storage, run.n_records),
                      _memoryload(machine, storage, s)))
        return visa(machine, storage, run, s, memoryload, **kwargs)

    machine = ParallelDiskMachine(memory=512, block=4, disks=d)
    data = workloads.by_name("uniform", n, seed=4)
    with mock.patch.object(randomized_vs, "pdm_partition_elements", recording):
        res = randomized_distribution_sort(machine, data, buckets=buckets)
    out = peek_run(res.storage, res.output)
    assert_sorted(out)
    assert_is_permutation(out, data)
    assert calls
    for n_p, s, memoryload, planned, load in calls:
        assert s == (planned if buckets is None else buckets)
        assert memoryload == load


def test_a_randomized_compare_cell_takes_buckets():
    """``compare_pdm``'s ``buckets`` reaches the randomized baseline (E3
    runs both distribution sorts at one fixed S); Greed Sort refuses it."""
    cell = {"algorithm": "randomized", "n": 16_000, "memory": 512, "block": 4,
            "disks": 4, "seed": 4, "buckets": 3}
    payload = run_task("compare_pdm", cell)
    machine = ParallelDiskMachine(memory=512, block=4, disks=4)
    res = randomized_distribution_sort(
        machine, workloads.by_name("uniform", 16_000, seed=4), buckets=3
    )
    assert payload["result"]["parallel_ios"] == res.total_ios
    assert res.total_ios != run_task("compare_pdm", dict(cell, buckets=None))[
        "result"]["parallel_ios"]
    with pytest.raises(ParameterError, match="buckets applies only to"):
        run_task("compare_pdm", dict(cell, algorithm="greed"))


# ---------------------------------------------------------- (d) E1 cells


def test_64k_cell_fans_out_to_19_and_finishes_in_two_levels():
    payload = run_task("sort_pdm", {"n": 64_000, "memory": 512, "block": 4,
                                    "disks": 4})
    spans = [ev["attrs"] for ev in expand_trace(payload["trace"])
             if ev["ev"] == "end" and ev["name"] == "partition"]
    assert payload["result"]["recursion_depth"] == 2
    assert spans[0]["level"] == 0 and spans[0]["s"] == 19
    assert spans[0]["sample"] == 64_000 // 4
    assert all(span["level"] == 1 for span in spans[1:])
    assert max(span["sample"] for span in spans) <= 64_000 // 4
