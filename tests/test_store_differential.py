"""Differential suite: arena block store vs the legacy dict store.

The storage substrate is pure engineering — the paper's cost model
(parallel I/Os, Theorem 1) never sees it.  That is only true if every
*observable* is bit-identical between the arena (the slab-allocated
backend every machine builds) and the dict reference (the legacy
dict-of-dicts, selected by ``tests/store_reference.use_store``):

* sorted output records (exact array equality, keys *and* rids);
* the Balance matrices ``X`` / ``A`` and the location matrix ``L``
  after every engine round;
* the matching pairs every Rearrange call produces;
* the :class:`~repro.pdm.machine.IOStats` counters;
* the full exec payload (result + metrics + zero-clock trace), i.e. the
  unit the cache fingerprints and the golden corpus pins.

A drift in any of these means the arena fast paths changed behaviour,
not just speed — exactly the regression this suite exists to catch.
"""

import numpy as np
import pytest

from repro import workloads
from repro.core.balance import BalanceEngine
from repro.core.matching import derandomized_partial_match
from repro.core.sort_pdm import balance_sort_pdm
from repro.core.streams import peek_run
from repro.exec import run_task
from repro.obs import Observation
from repro.pdm import ParallelDiskMachine, VirtualDisks
from repro.pdm.store import ArenaBlockStore, DictBlockStore, make_store
from repro.records import composite_keys

from .store_reference import use_store

BACKENDS = ["arena", "dict"]

#: Cells small enough for the unit tier but deep enough to recurse,
#: rebalance, and hit partial-stripe writes.
CELLS = [
    {"n": 2000, "memory": 512, "block": 4, "disks": 4,
     "workload": "uniform", "seed": 0},
    {"n": 1500, "memory": 512, "block": 2, "disks": 8,
     "workload": "adversarial_striping", "seed": 2},
]


def _machine(cell, store):
    return ParallelDiskMachine(
        memory=cell["memory"], block=cell["block"], disks=cell["disks"],
        store=store,
    )


def _sort(cell, store, obs=None):
    data = workloads.by_name(cell["workload"], cell["n"], seed=cell["seed"])
    m = _machine(cell, store)
    res = balance_sort_pdm(m, data, obs=obs)
    out = peek_run(res.storage, res.output)
    return m, res, out


# ------------------------------------------------------------- selection


class TestBackendSelection:
    def test_make_store_names(self):
        assert isinstance(make_store("arena", 4, 4), ArenaBlockStore)
        assert isinstance(make_store("dict", 4, 4), DictBlockStore)

    def test_use_store_selects_backend(self, monkeypatch):
        # The environment no longer picks a store; only the module default
        # does, and only the tests' use_store patches it.
        monkeypatch.setenv("REPRO_PDM_STORE", "dict")
        assert isinstance(make_store(None, 4, 4), ArenaBlockStore)
        with use_store("dict"):
            assert isinstance(make_store(None, 4, 4), DictBlockStore)
            assert isinstance(make_store("arena", 4, 4), ArenaBlockStore)
        assert isinstance(make_store(None, 4, 4), ArenaBlockStore)
        with pytest.raises(ValueError, match="no block store backend 'bogus'"):
            use_store("bogus")

    def test_machine_store_kwarg(self):
        assert isinstance(
            ParallelDiskMachine(memory=64, block=4, disks=2, store="dict").store,
            DictBlockStore,
        )


# ------------------------------------------------- end-to-end sort runs


class TestSortDifferential:
    @pytest.mark.parametrize("cell", CELLS, ids=lambda c: c["workload"])
    def test_records_and_iostats_identical(self, cell):
        runs = {s: _sort(cell, s) for s in BACKENDS}
        m_a, res_a, out_a = runs["arena"]
        m_d, res_d, out_d = runs["dict"]
        # Records: exact — keys and rids, in the same order.
        assert np.array_equal(out_a, out_d)
        # IOStats: every counter, including the derived width fraction.
        assert m_a.stats.snapshot() == m_d.stats.snapshot()
        # Sort-level measurements.
        for field in ("recursion_depth", "distribution_passes",
                      "engine_rounds", "blocks_swapped",
                      "blocks_unprocessed", "match_calls",
                      "max_balance_factor", "max_bucket_ratio"):
            assert getattr(res_a, field) == getattr(res_d, field), field
        assert m_a.memory_in_use == m_d.memory_in_use == 0

    @pytest.mark.parametrize("cell", CELLS, ids=lambda c: c["workload"])
    def test_exec_payload_identical(self, cell):
        """The cache/golden unit: result + metrics + trace, bit for bit."""
        arena = run_task("sort_pdm", dict(cell))
        with use_store("dict"):
            legacy = run_task("sort_pdm", dict(cell))
        assert arena == legacy


# ----------------------------------------- engine internals, round by round


def _trace_engine(store: str, n=1400, disks=8, block=4, seed=7):
    """Run one distribution pass, recording per-round engine state.

    Returns ``(rounds, pairs, bucket_runs_digest, io_snapshot)`` where
    ``rounds`` is a list of per-round dicts holding copies of X, A, the
    L-matrix shape/fill digest, and the round info the engine publishes.
    """
    data = workloads.by_name("adversarial_striping", n, seed=seed)
    m = ParallelDiskMachine(memory=4096, block=block, disks=disks, store=store)
    storage = VirtualDisks(m, disks)
    pairs: list[list[tuple[int, int]]] = []

    def recording_matcher(instance, matrices, rng):
        result = derandomized_partial_match(instance)
        pairs.append([(int(u), int(v)) for u, v in result.pairs])
        return result

    ck = np.sort(composite_keys(data))
    ranks = np.linspace(0, ck.size - 1, 5).astype(int)[1:-1]
    engine = BalanceEngine(storage, ck[ranks], matcher=recording_matcher)
    rounds: list[dict] = []

    def observer(eng, info):
        mats = eng.matrices
        rounds.append({
            "info": dict(info),
            "X": mats.X.copy().tolist(),
            "A": mats.A.copy().tolist(),
            # L digest: per (bucket, channel) chain lengths + block fills.
            "L": [[[(ref.address.vdisk, ref.fill) for ref in chain]
                   for chain in row] for row in mats.L],
        })

    engine.add_round_observer(observer)
    for i in range(0, data.shape[0], 64):
        part = data[i : i + 64]
        m.mem_acquire(part.shape[0])
        engine.feed(part)
        engine.run_rounds(drain_below=2 * engine.n_channels)
    buckets = engine.flush()
    digest = [
        (b.n_records, [(ref.address.vdisk, ref.fill) for ref in b.block_refs()])
        for b in buckets
    ]
    return rounds, pairs, digest, m.stats.snapshot()


class TestEngineDifferential:
    def test_matrices_pairs_and_buckets_identical(self):
        ra, pa, da, ia = _trace_engine("arena")
        rd, pd_, dd, id_ = _trace_engine("dict")
        assert len(ra) == len(rd) and len(ra) > 0
        for i, (a, d) in enumerate(zip(ra, rd)):
            assert a["info"] == d["info"], f"round {i} info drifted"
            assert a["X"] == d["X"], f"round {i} X drifted"
            assert a["A"] == d["A"], f"round {i} A drifted"
            assert a["L"] == d["L"], f"round {i} L drifted"
        assert pa == pd_, "matching pairs drifted"
        assert da == dd, "flushed bucket runs drifted"
        assert ia == id_, "IOStats drifted"

    def test_observed_run_matches_unobserved(self):
        """Attaching an Observation must not perturb either backend."""
        cell = CELLS[0]
        for store in BACKENDS:
            _, res_plain, out_plain = _sort(cell, store)
            obs = Observation()
            m_obs, res_obs, out_obs = _sort(cell, store, obs=obs)
            assert np.array_equal(out_plain, out_obs)
            assert res_plain.io_stats == res_obs.io_stats
            # The observed run recorded I/O events matching the counters.
            io_events = [e for e in obs.tracer.events
                         if e.get("name") in ("io.read", "io.write")]
            assert len(io_events) == res_obs.io_stats["total_ios"]
