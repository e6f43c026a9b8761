"""Property tier: Invariants 1 & 2 and Theorem 4, after *every* round.

The unit/integration tier checks the engine's end state; this tier uses
Hypothesis to drive randomly shaped block streams (workload shape, bucket
count, channel count, feed chunking) through
:class:`~repro.core.balance.BalanceEngine` and asserts the paper's safety
properties at every round boundary via a round observer:

* **Invariant 1** — every overloaded bucket (a row with an ``A == 2``
  entry) still has at least ``ceil(H'/2)`` channels it may be placed on;
* **Invariant 2** — after rebalancing, no auxiliary-matrix entry exceeds
  1 (each bucket within one block of perfectly even);
* **Theorem 4** — the balance factor (worst-case reads over the optimal
  ``ceil(count/H')``) stays ≤ ~2 throughout the pass, not just at flush.

The adversarial spot-check also runs under the scalar reference loops
(``tests/kernel_reference.py``); the differential tier separately proves
them bit-identical to the shipped kernels.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import workloads
from repro.core.balance import BalanceEngine, read_bucket_run
from repro.pdm import ParallelDiskMachine, VirtualDisks
from repro.records import composite_keys

from .kernel_reference import use_kernels

WORKLOADS = [
    "uniform",
    "adversarial_striping",
    "adversarial_bucket_skew",
    "few_distinct",
    "sorted",
]

# Strategy: the machine/engine shape space the properties must hold over.
engine_shapes = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**31 - 1),
        "n": st.integers(1, 900),
        "s": st.integers(2, 6),
        "hp": st.sampled_from([2, 4, 8]),
        "workload": st.sampled_from(WORKLOADS),
        "chunk": st.sampled_from([16, 48, 128]),
    }
)


def pivots_for(records: np.ndarray, s: int) -> np.ndarray:
    ck = np.sort(composite_keys(records))
    ranks = np.linspace(0, ck.size - 1, s + 1).astype(int)[1:-1]
    return ck[ranks]


def build(shape):
    machine = ParallelDiskMachine(memory=8192, block=2, disks=8)
    storage = VirtualDisks(machine, shape["hp"])
    data = workloads.by_name(shape["workload"], shape["n"], seed=shape["seed"])
    s = min(shape["s"], max(2, data.shape[0]))
    piv = pivots_for(data, s)
    engine = BalanceEngine(
        storage, piv, rng=np.random.default_rng(shape["seed"]),
        check_invariants=False,  # we assert explicitly, per round
    )
    return machine, storage, data, piv, engine


def install_per_round_assertions(engine) -> dict:
    """Observer asserting Invariants 1 & 2 + Theorem 4 after every round."""
    seen = {"rounds": 0}

    @engine.add_round_observer
    def _check(engine, info):
        seen["rounds"] += 1
        m = engine.matrices
        # Invariant 2: rebalancing brought every aux entry back to <= 1.
        m.check_invariant_2()
        # Invariant 1: vacuous post-round unless a bucket is overloaded,
        # but must never raise.
        m.check_invariant_1()
        # Theorem 4: within a factor of ~2 of the optimal read cost at
        # every round boundary (small additive slack for tiny buckets).
        slack = 2.0 / max(1, int(m.X.max(initial=0)))
        assert info["max_balance_factor"] <= 2.0 + slack, (
            f"round {info['round']}: balance factor "
            f"{info['max_balance_factor']:.3f} breaks Theorem 4"
        )

    return seen


@given(engine_shapes)
@settings(max_examples=40, deadline=None)
def test_invariants_hold_after_every_round(shape):
    machine, storage, data, piv, engine = build(shape)
    seen = install_per_round_assertions(engine)
    for i in range(0, data.shape[0], shape["chunk"]):
        part = data[i : i + shape["chunk"]]
        machine.mem_acquire(part.shape[0])
        engine.feed(part)
        engine.run_rounds(drain_below=2 * engine.n_channels)
    runs = engine.flush()

    # The stream actually exercised the round machinery...
    assert seen["rounds"] == engine.stats.rounds
    # ...and the final state still satisfies everything it did per round.
    engine.matrices.check_invariant_1()
    engine.matrices.check_invariant_2()
    assert sum(r.n_records for r in runs) == data.shape[0]


@given(engine_shapes)
@settings(max_examples=15, deadline=None)
def test_partition_correct_under_random_streams(shape):
    """Every record lands in its bucket."""
    machine, storage, data, piv, engine = build(shape)
    for i in range(0, data.shape[0], shape["chunk"]):
        part = data[i : i + shape["chunk"]]
        machine.mem_acquire(part.shape[0])
        engine.feed(part)
        engine.run_rounds(drain_below=2 * engine.n_channels)
    runs = engine.flush()
    seen = 0
    for b, run in enumerate(runs):
        for chunk in read_bucket_run(storage, run, free=True):
            buckets = np.searchsorted(piv, composite_keys(chunk), side="right")
            assert np.all(buckets == b)
            seen += chunk.shape[0]
            machine.mem_release(chunk.shape[0])
    assert seen == data.shape[0]


# ----------------------------------------------- fused round planner tier

# Strategy: the fused-execution space — random I/O-plan windows over full
# recursive sorts.  The properties must hold after every round at every
# recursion level no matter how rounds are physically batched.
planner_shapes = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**31 - 1),
        "n": st.integers(600, 2500),
        "window": st.sampled_from([0, 1, 2, 3, 7, 64, 256]),
        "workload": st.sampled_from(WORKLOADS),
    }
)


@given(planner_shapes)
@settings(max_examples=25, deadline=None)
def test_invariants_hold_under_fused_plans_at_every_level(shape):
    """Invariants 1 & 2 + Theorem 4 after every fused round, every level.

    Runs the whole recursive PDM sort (not a single engine) under a
    randomly drawn ``REPRO_IO_PLAN`` window, hooking every recursion
    level's engine through ``obs.engine_observers`` — the same seam the
    TheoryAuditor uses — and asserting the paper's safety properties at
    each round boundary.  Window 0 is the unfused reference execution,
    so the strategy itself pins fused == unfused on the property level.
    """
    from repro.core.sort_pdm import balance_sort_pdm
    from repro.obs import Observation
    from repro.records import sort_records

    import os

    saved = os.environ.get("REPRO_IO_PLAN")
    os.environ["REPRO_IO_PLAN"] = str(shape["window"])
    seen = {"rounds": 0}

    def check(engine, info):
        seen["rounds"] += 1
        m = engine.matrices
        m.check_invariant_1()
        m.check_invariant_2()
        slack = 2.0 / max(1, int(m.X.max(initial=0)))
        assert info["max_balance_factor"] <= 2.0 + slack, (
            f"round {info['round']}: balance factor "
            f"{info['max_balance_factor']:.3f} breaks Theorem 4 "
            f"(window={shape['window']})"
        )

    try:
        obs = Observation()
        obs.engine_observers.append(check)
        machine = ParallelDiskMachine(memory=512, block=4, disks=8)
        data = workloads.by_name(shape["workload"], shape["n"], seed=shape["seed"])
        res = balance_sort_pdm(machine, data, obs=obs)
        obs.close()
    finally:
        if saved is None:
            os.environ.pop("REPRO_IO_PLAN", None)
        else:
            os.environ["REPRO_IO_PLAN"] = saved
    assert seen["rounds"] == res.engine_rounds > 0
    assert res.max_balance_factor <= 2.0 + 2.0 / max(1, data.shape[0] // 100)
    # The sorted output is exactly the input, reordered.
    from repro.core.streams import peek_run

    out = peek_run(res.storage, res.output)
    assert np.array_equal(out, sort_records(data))


@pytest.mark.parametrize("kernels", ["scalar", "vectorized"])
def test_theorem4_worst_case_workloads(kernels):
    """Deterministic spot-check: the adversarial workloads stay ≤ ~2."""
    for workload in ["adversarial_striping", "adversarial_bucket_skew"]:
        machine = ParallelDiskMachine(memory=8192, block=2, disks=8)
        storage = VirtualDisks(machine, 4)
        data = workloads.by_name(workload, 1000, seed=13)
        engine = BalanceEngine(storage, pivots_for(data, 4))
        install_per_round_assertions(engine)
        with use_kernels(kernels):
            machine.mem_acquire(data.shape[0])
            engine.feed(data)
            engine.run_rounds(drain_below=0)
            engine.flush()
        assert engine.stats.rounds > 0
