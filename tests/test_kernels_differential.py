"""Differential tier: the kernels are *bit-identical* to their reference loops.

:mod:`repro.core.kernels` holds one NumPy implementation per kernel; the
original per-bucket / per-vertex Python loops live on in
``tests/kernel_reference.py`` as the oracle.  These tests compare each
kernel with its loop on Hypothesis-generated inputs, and run the same
seeded engine passes and sorts with the loops patched in at the kernels'
call sites, requiring exact equality — same records byte-for-byte, same
balance matrices (X, A, L), same I/O statistics, same matching decisions
— so the fast path can never silently drift from the paper's reference
semantics.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import workloads
from repro.core import kernels
from repro.core.balance import BalanceEngine, read_bucket_run
from repro.pdm import ParallelDiskMachine, VirtualDisks
from repro.records import composite_keys

from . import kernel_reference as ref

# Seeded grid: (n, buckets, virtual channels, workload, seed).  H' = 16
# takes the derandomized matcher past its small-instance loop, so the
# conflict kernel runs inside the engine.
GRID = [
    (300, 3, 2, "uniform", 0),
    (500, 4, 4, "adversarial_striping", 1),
    (640, 5, 8, "adversarial_bucket_skew", 2),
    (257, 4, 4, "few_distinct", 3),
    (801, 6, 8, "uniform", 4),
    (1500, 6, 16, "adversarial_bucket_skew", 5),
    (1200, 5, 16, "uniform", 6),
]


def pivots_for(records: np.ndarray, s: int) -> np.ndarray:
    ck = np.sort(composite_keys(records))
    ranks = np.linspace(0, ck.size - 1, s + 1).astype(int)[1:-1]
    return ck[ranks]


def run_engine(kernel_set, n, s, hp, workload, seed, chunk=64,
               matcher="derandomized"):
    """One full engine pass under ``kernel_set``; return comparable state."""
    machine = ParallelDiskMachine(memory=8192, block=2, disks=16)
    storage = VirtualDisks(machine, hp)
    data = workloads.by_name(workload, n, seed=seed)
    piv = pivots_for(data, s)
    with ref.use_kernels(kernel_set):
        engine = BalanceEngine(
            storage, piv, matcher=matcher, rng=np.random.default_rng(seed)
        )
        for i in range(0, data.shape[0], chunk):
            part = data[i : i + chunk]
            machine.mem_acquire(part.shape[0])
            engine.feed(part)
            engine.run_rounds(drain_below=2 * engine.n_channels)
        runs = engine.flush()
    buckets = []
    for run in runs:
        chunks = []
        for c in read_bucket_run(storage, run, free=True):
            chunks.append(c.copy())
            machine.mem_release(c.shape[0])
        buckets.append(
            np.concatenate(chunks) if chunks else np.empty(0, dtype=data.dtype)
        )
    return {
        "X": engine.matrices.X.copy(),
        "A": engine.matrices.A.copy(),
        "L": [[list(cell) for cell in row] for row in engine.matrices.L],
        "io": machine.stats.snapshot(),
        "rounds": engine.stats.rounds,
        "swapped": engine.stats.blocks_swapped,
        "match_calls": engine.stats.match_calls,
        "buckets": buckets,
    }


@pytest.mark.parametrize("n,s,hp,workload,seed", GRID)
def test_engine_state_bit_identical(n, s, hp, workload, seed):
    assert_same_state(
        run_engine("scalar", n, s, hp, workload, seed),
        run_engine("vectorized", n, s, hp, workload, seed),
    )


@pytest.mark.parametrize("hp", [4, 16])
def test_randomized_engine_state_bit_identical(hp):
    """Algorithm 7's randomized picks resolve conflicts every call."""
    args = (1200, 5, hp, "adversarial_bucket_skew", 7)
    assert_same_state(
        run_engine("scalar", *args, matcher="randomized"),
        run_engine("vectorized", *args, matcher="randomized"),
    )


def assert_same_state(a, b):
    assert a["match_calls"] > 0
    assert np.array_equal(a["X"], b["X"])
    assert np.array_equal(a["A"], b["A"])
    assert a["L"] == b["L"]
    assert a["io"] == b["io"]
    assert a["rounds"] == b["rounds"]
    assert a["swapped"] == b["swapped"]
    assert a["match_calls"] == b["match_calls"]
    for run_a, run_b in zip(a["buckets"], b["buckets"]):
        assert run_a.dtype == run_b.dtype
        assert run_a.tobytes() == run_b.tobytes()


@pytest.mark.parametrize("matcher", ["derandomized", "randomized"])
def test_full_sort_bit_identical(matcher):
    """End-to-end: same records out, same I/O trace, either kernel set."""
    from repro.core.sort_pdm import balance_sort_pdm
    from repro.core.streams import peek_run

    outs = {}
    for kernel_set in ("scalar", "vectorized"):
        machine = ParallelDiskMachine(memory=512, block=4, disks=8)
        data = workloads.uniform(6_000, seed=11)
        with ref.use_kernels(kernel_set):
            res = balance_sort_pdm(
                machine, data, matcher=matcher,
                rng=np.random.default_rng(7), check_invariants=False,
            )
        outs[kernel_set] = (
            res.total_ios,
            res.io_stats,
            peek_run(res.storage, res.output).tobytes(),
        )
    assert outs["scalar"] == outs["vectorized"]


@st.composite
def conflict_instances(draw):
    """Sorted distinct ``u`` channels and one pick (or −1) per vertex."""
    k = draw(st.integers(1, 12))
    hp = draw(st.integers(2, 16))
    u_channels = tuple(
        sorted(draw(st.sets(st.integers(0, 63), min_size=k, max_size=k)))
    )
    picks = draw(st.lists(st.integers(-1, hp - 1), min_size=k, max_size=k))
    return u_channels, np.array(picks, dtype=np.int64)


@given(conflict_instances())
@settings(max_examples=100, deadline=None)
def test_resolve_conflicts_bit_identical(instance):
    """Algorithm 7 step 2: smallest-numbered u wins, same pairs, same order."""
    u_channels, picks = instance
    assert kernels.resolve_conflicts(u_channels, picks) == ref.resolve_conflicts(
        u_channels, picks
    )


@given(st.integers(2, 8), st.integers(1, 24), st.integers(0, 98))
@settings(max_examples=100, deadline=None)
def test_tail_blocks_bit_identical(vb, true_n, seed):
    """Tail padding agrees on random padded tails."""
    padded_n = -(-true_n // vb) * vb
    padded = workloads.uniform(padded_n, seed=seed)
    got = kernels.tail_blocks(padded.copy(), true_n, vb)
    want = ref.tail_blocks(padded.copy(), true_n, vb)
    assert len(got) == len(want)
    for (xb, xf), (yb, yf) in zip(got, want):
        assert xf == yf
        assert xb.tobytes() == yb.tobytes()


@st.composite
def channel_sequences(draw):
    """Round-robin runs (the kernel's fast path) and arbitrary layouts."""
    h = draw(st.integers(1, 8))
    if draw(st.booleans()):
        windows = draw(st.lists(st.permutations(range(h)), max_size=6))
        tail = draw(st.permutations(range(h)))[: draw(st.integers(0, h))]
        channels = [c for w in windows for c in w] + list(tail)
    else:
        channels = draw(st.lists(st.integers(0, h - 1), max_size=40))
    return channels, h


@given(channel_sequences())
@settings(max_examples=200, deadline=None)
def test_stream_batches_bit_identical(sequence):
    """The round planner's boundaries equal the greedy loop's."""
    channels, h = sequence
    assert kernels.stream_batches(channels, h) == ref.stream_batches(channels, h)


def test_default_backend_name_reports_the_round_path(monkeypatch):
    """``"compiled"`` exactly when the C extension imports."""
    try:
        from repro import _speedups  # noqa: F401
    except ImportError:
        built = False
    else:
        built = True
    assert (kernels.ROUND_OPS is not None) == built
    assert (kernels.default_backend_name() == "compiled") == built
    monkeypatch.setattr(kernels, "ROUND_OPS", None)
    assert kernels.default_backend_name() == "vectorized"
