"""Differential tier: the vectorized kernels are *bit-identical* to scalar.

:mod:`repro.core.kernels` keeps the original per-bucket Python loops as a
selectable reference backend ("scalar") next to the NumPy kernels
("vectorized").  These tests run the same seeded instances through both
and require exact equality — same records byte-for-byte, same balance
matrices (X, A, L), same I/O statistics, same matching pairs in the same
order — so the fast path can never silently drift from the paper's
reference semantics.
"""

import numpy as np
import pytest

from repro import workloads
from repro.core.balance import BalanceEngine, read_bucket_run
from repro.core.kernels import (
    BACKENDS,
    ScalarBackend,
    VectorizedBackend,
    get_backend,
    use_backend,
)
from repro.pdm import ParallelDiskMachine, VirtualDisks
from repro.records import composite_keys

# Seeded grid: (n, buckets, virtual channels, workload, seed).
GRID = [
    (300, 3, 2, "uniform", 0),
    (500, 4, 4, "adversarial_striping", 1),
    (640, 5, 8, "adversarial_bucket_skew", 2),
    (257, 4, 4, "few_distinct", 3),
    (801, 6, 8, "uniform", 4),
]


def pivots_for(records: np.ndarray, s: int) -> np.ndarray:
    ck = np.sort(composite_keys(records))
    ranks = np.linspace(0, ck.size - 1, s + 1).astype(int)[1:-1]
    return ck[ranks]


def run_engine(backend, n, s, hp, workload, seed, chunk=64):
    """One full engine pass under ``backend``; return comparable state."""
    machine = ParallelDiskMachine(memory=8192, block=2, disks=8)
    storage = VirtualDisks(machine, hp)
    data = workloads.by_name(workload, n, seed=seed)
    piv = pivots_for(data, s)
    engine = BalanceEngine(storage, piv, backend=backend)
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
    a = run_engine("scalar", n, s, hp, workload, seed)
    b = run_engine("vectorized", n, s, hp, workload, seed)
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
    """End-to-end: same records out, same I/O trace, either backend."""
    from repro.core.sort_pdm import balance_sort_pdm
    from repro.core.streams import peek_run

    outs = {}
    for backend in ("scalar", "vectorized"):
        machine = ParallelDiskMachine(memory=512, block=4, disks=8)
        data = workloads.uniform(6_000, seed=11)
        with use_backend(backend):
            res = balance_sort_pdm(
                machine, data, matcher=matcher,
                rng=np.random.default_rng(7), check_invariants=False,
            )
        outs[backend] = (
            res.total_ios,
            res.io_stats,
            peek_run(res.storage, res.output).tobytes(),
        )
    assert outs["scalar"] == outs["vectorized"]


def test_resolve_conflicts_bit_identical():
    """Algorithm 7 step 2: smallest-numbered u wins, same order, both kernels."""
    rng = np.random.default_rng(17)
    for _ in range(200):
        k = int(rng.integers(1, 12))
        hp = int(rng.integers(2, 16))
        u_channels = tuple(int(x) for x in np.sort(rng.choice(64, k, replace=False)))
        picks = rng.integers(0, hp, size=k).astype(np.int64)
        a = ScalarBackend.resolve_conflicts(u_channels, picks)
        b = VectorizedBackend.resolve_conflicts(u_channels, picks)
        assert a == b


def test_tail_blocks_bit_identical():
    """Tail padding agrees on random padded tails."""
    rng = np.random.default_rng(23)
    for _ in range(200):
        vb = int(rng.integers(2, 9))
        true_n = int(rng.integers(1, 3 * vb))
        padded_n = -(-true_n // vb) * vb
        padded = workloads.uniform(padded_n, seed=int(rng.integers(99)))
        st_ = ScalarBackend.tail_blocks(padded.copy(), true_n, vb)
        vt = VectorizedBackend.tail_blocks(padded.copy(), true_n, vb)
        assert len(st_) == len(vt)
        for (xb, xf), (yb, yf) in zip(st_, vt):
            assert xf == yf
            assert xb.tobytes() == yb.tobytes()


def test_backend_selection_plumbing():
    """Registry, env default, and context-manager override all resolve."""
    from repro.exceptions import ParameterError

    # "compiled" joins the registry only when the optional C extension
    # is built — its presence is exactly the build probe.
    assert set(BACKENDS) - {"compiled"} == {"scalar", "vectorized"}
    assert isinstance(get_backend("scalar"), ScalarBackend)
    assert isinstance(get_backend("vectorized"), VectorizedBackend)
    with use_backend("scalar"):
        assert isinstance(get_backend(None), ScalarBackend)
        with use_backend("vectorized"):
            assert isinstance(get_backend(None), VectorizedBackend)
        assert isinstance(get_backend(None), ScalarBackend)
    with pytest.raises(ParameterError):
        get_backend("bogus")
