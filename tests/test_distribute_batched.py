"""Differential tier for the fused distribute phase (I/O plans).

The batching contract (``docs/performance.md``): fusing a window of
logical rounds into one physical gather/scatter against the block store
is a *pure* execution-strategy change — every observable output must be
bit-identical to executing the rounds one at a time:

* sorted records and per-bucket contents,
* the engine's ``X``/``A``/``L`` matrices and matching decisions at
  every round boundary,
* ``IOStats`` (logical parallel-I/O accounting) and CPU counters,
* full ``repro.run_report/1`` payloads — trace events, metrics, result —
  under both store backends, under the shipped kernels and their scalar
  reference loops (``tests/kernel_reference.py``), and with observation
  attached.

The round-at-a-time reference execution is ``tests/io_reference.py``'s
oracle; the window sweep (1 / 2 / 64 / auto, patching ``PLAN_WINDOW``)
pins that *every* fusion width agrees with it.
"""

import json
import os
from contextlib import contextmanager

import numpy as np
import pytest

from repro import workloads
from repro.core.balance import BalanceEngine, read_bucket_run
from repro.core.sort_pdm import balance_sort_pdm
from repro.core.streams import peek_run
from repro.exec.tasks import run_task
from repro.obs import Observation, TheoryAuditor
from repro.pdm import ParallelDiskMachine, VirtualDisks
from repro.records import composite_keys

from .io_reference import use_io, use_window
from .kernel_reference import use_kernels

CELL = dict(n=2000, memory=512, block=4, disks=8, workload="uniform", seed=0)


@contextmanager
def env(**kv):
    saved = {k: os.environ.get(k) for k in kv}
    try:
        for k, v in kv.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = str(v)
        yield
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v


def payload_json(io, cell=CELL, **extra_env):
    with env(**extra_env), use_io(io):
        return json.dumps(run_task("sort_pdm", dict(cell)), sort_keys=True)


# ------------------------------------------------------- payload identity


class TestPayloadIdentity:
    """Full run-report payloads, fused vs unfused, across the mode grid."""

    @pytest.mark.parametrize("store", ["arena", "dict"])
    @pytest.mark.parametrize("kernels", ["scalar", "vectorized"])
    def test_fused_payload_bit_identical(self, store, kernels):
        with use_kernels(kernels):
            fused = payload_json("fused", REPRO_PDM_STORE=store)
            unfused = payload_json("rounds", REPRO_PDM_STORE=store)
        assert fused == unfused

    @pytest.mark.parametrize("window", ["1", "2", "64", "auto"])
    def test_every_window_width_agrees(self, window):
        if window == "auto":
            fused = payload_json("fused")
        else:
            with use_window(int(window)):
                fused = payload_json("fused")
        assert fused == payload_json("rounds")

    def test_workload_spread(self):
        for workload in ["adversarial_striping", "few_distinct", "sorted"]:
            cell = dict(CELL, workload=workload, n=1200)
            fused = payload_json("fused", cell)
            unfused = payload_json("rounds", cell)
            assert fused == unfused, workload


# ------------------------------------------------- engine-level identity


def pivots_for(records, s):
    ck = np.sort(composite_keys(records))
    ranks = np.linspace(0, ck.size - 1, s + 1).astype(int)[1:-1]
    return ck[ranks]


def drive_engine(io, kernels="vectorized", n=900, hp=4, s=4, seed=7,
                 workload="adversarial_bucket_skew"):
    """Feed a block stream through BalanceEngine, recording every round.

    Returns (per-round observer snapshots, final L chains, IOStats,
    per-bucket record bytes).  The round snapshots copy ``X``/``A`` and
    the round info dict at each boundary, so a fused run that made a
    different placement or matching decision *anywhere* diverges.
    """
    data = workloads.by_name(workload, n, seed=seed)
    rounds = []
    with use_io(io), use_kernels(kernels):
        machine = ParallelDiskMachine(memory=8192, block=2, disks=8)
        storage = VirtualDisks(machine, hp)
        engine = BalanceEngine(
            storage, pivots_for(data, s),
            rng=np.random.default_rng(seed), check_invariants=True,
        )

        @engine.add_round_observer
        def _capture(eng, info):
            m = eng.matrices
            rounds.append((dict(info), m.X.copy().tolist(), m.A.copy().tolist()))

        for i in range(0, data.shape[0], 64):
            part = data[i : i + 64]
            machine.mem_acquire(part.shape[0])
            engine.feed(part)
            engine.run_rounds(drain_below=2 * hp)
        runs = engine.flush()
        chains = [
            [list(map(repr, chain)) for chain in bucket_chains]
            for bucket_chains in engine.matrices.L
        ]
        buckets = []
        for run in runs:
            parts = [c.tobytes() for c in read_bucket_run(storage, run, free=True)]
            buckets.append(b"".join(parts))
    return rounds, chains, machine.stats.snapshot(), buckets


class TestEngineRoundIdentity:
    @pytest.mark.parametrize("kernels", ["scalar", "vectorized"])
    def test_rounds_matrices_chains_and_buckets(self, kernels):
        fused = drive_engine("fused", kernels=kernels)
        unfused = drive_engine("rounds", kernels=kernels)
        f_rounds, f_chains, f_io, f_buckets = fused
        u_rounds, u_chains, u_io, u_buckets = unfused
        assert len(f_rounds) > 0
        assert f_rounds == u_rounds  # info + X + A at every boundary
        assert f_chains == u_chains  # the L location chains
        assert f_io == u_io          # logical parallel-I/O accounting
        assert f_buckets == u_buckets  # record payloads, byte for byte

    def test_window_one_equals_off(self):
        with use_window(1):
            fused = drive_engine("fused")
        assert fused == drive_engine("rounds")


# -------------------------------------------------- obs-attached identity


class TestObservedSortIdentity:
    """balance_sort_pdm with Observation + TheoryAuditor attached."""

    def _run(self, io):
        with use_io(io):
            obs = Observation()
            auditor = TheoryAuditor().install(obs)
            machine = ParallelDiskMachine(memory=512, block=4, disks=8)
            data = workloads.by_name("uniform", 2000, seed=3)
            res = balance_sort_pdm(machine, data, obs=obs)
            audit = auditor.finish_pdm(machine, res)
            obs.close()
            events = [
                {k: v for k, v in ev.items() if k not in ("ts", "wall_s")}
                for ev in obs.tracer.events
            ]
            return dict(
                io=res.io_stats,
                cpu=res.cpu,
                rounds=res.engine_rounds,
                swapped=res.blocks_swapped,
                balance_factor=res.max_balance_factor,
                audit=audit.to_dict(),
                metrics=obs.registry.export(),
                events=events,
            )

    def test_observed_run_identical(self):
        fused = self._run("fused")
        unfused = self._run("rounds")
        assert json.dumps(fused, sort_keys=True, default=str) == \
            json.dumps(unfused, sort_keys=True, default=str)
        assert fused["audit"]["ok"] is True


# ------------------------------------------------- plan stats out of band


class TestPlanStatsOutOfBand:
    def test_plans_fire_and_stay_out_of_payload(self):
        machine = ParallelDiskMachine(memory=512, block=4, disks=8)
        data = workloads.by_name("uniform", 2000, seed=0)
        balance_sort_pdm(machine, data)
        snap = machine.plan_stats.snapshot()
        assert snap["deferred_write_rounds"] > 0
        assert snap["write_flushes"] > 0
        assert snap["max_write_flush_blocks"] > 0
        # The payload schema must not mention plan execution anywhere:
        # physical fusion is telemetry, not a result.
        payload = payload_json("fused")
        assert "plan_stats" not in payload
        assert "deferred_write_rounds" not in payload

    def test_plans_run_under_checksums(self):
        """Checksummed stores take the fused path, with the same counts."""
        data = workloads.by_name("uniform", 1000, seed=0)
        runs = {}
        for checksums in (True, False):
            machine = ParallelDiskMachine(
                memory=512, block=4, disks=8, checksums=checksums
            )
            res = balance_sort_pdm(machine, data)
            assert machine.store.checksums is checksums
            output = peek_run(res.storage, res.output).tobytes()
            runs[checksums] = (res.io_stats, output, machine.plan_stats.snapshot())
        assert runs[True] == runs[False]
        snap = runs[True][2]
        assert snap["deferred_write_rounds"] > 0 and snap["write_flushes"] > 0
        assert snap["read_gathers"] > 0

    def test_ambient_collector_and_merge(self):
        """collect_plan_stats gathers every machine; merge sums/maxes."""
        from repro.pdm.machine import collect_plan_stats, merge_plan_snapshots

        with collect_plan_stats() as collected:
            for n in (1000, 2000):
                machine = ParallelDiskMachine(memory=512, block=4, disks=8)
                balance_sort_pdm(machine, workloads.uniform(n, seed=0))
        assert len(collected) == 2
        snaps = [s.snapshot() for s in collected]
        merged = merge_plan_snapshots(snaps)
        assert merged["write_flushes"] == sum(
            s["write_flushes"] for s in snaps)
        assert merged["deferred_write_rounds"] == sum(
            s["deferred_write_rounds"] for s in snaps)
        assert merged["max_write_flush_blocks"] == max(
            s["max_write_flush_blocks"] for s in snaps)
        # Outside the context, machines no longer register.
        before = len(collected)
        ParallelDiskMachine(memory=512, block=4, disks=8)
        assert len(collected) == before

    def test_collectors_are_per_thread(self):
        """A machine another thread builds (``repro serve`` checks specs
        on its event loop while a job runs) never joins this thread's
        collection."""
        import threading

        from repro.pdm.machine import collect_mem_stats, collect_plan_stats

        def build():
            ParallelDiskMachine(memory=512, block=4, disks=8)

        with collect_plan_stats() as plans, collect_mem_stats() as mems:
            other = threading.Thread(target=build)
            other.start()
            other.join(timeout=10)
            assert not other.is_alive()
            assert plans == [] and mems == []
            build()
        assert len(plans) == 1 and len(mems) == 1

    def test_runner_folds_plan_stats_out_of_band(self, tmp_path):
        """The sweep runner aggregates per-cell plan telemetry without
        ever letting the sidecar key reach a payload or the cache."""
        from repro.exec.runner import ParallelRunner, RunSpec

        runner = ParallelRunner(cache_dir=str(tmp_path / "cache"))
        specs = [RunSpec("sort_pdm", {"n": 1000, "disks": 4})]
        results = runner.map(specs)
        assert not results[0].failed
        assert "_plan_stats" not in results[0].payload
        totals = runner.stats["io_plan"]
        assert totals["write_flushes"] > 0
        # A cache-served rerun contributes nothing new (no simulation).
        rerun = ParallelRunner(cache_dir=str(tmp_path / "cache"))
        again = rerun.map(specs)
        assert again[0].cached
        assert "_plan_stats" not in again[0].payload
        assert not any(rerun.stats["io_plan"].values())
