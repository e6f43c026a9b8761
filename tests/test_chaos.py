"""The chaos-determinism gate (``-m chaos``).

The headline guarantee of ``docs/resilience.md``, pinned end-to-end:
under **any** seeded transient fault plan, with a retry budget, a
sweep's payloads are **bit-identical** to the fault-free run — faults
change *when* work happens, never *what* comes out.  Three seeded
transient plans run serially in the fast tier; the pool variant, the
cache-corruption round trip, and the kill-and-resume smoke ride the
slow/nightly tier.
"""

import json
import os
import re
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro import workloads
from repro.baselines import greed_sort
from repro.core.sort_pdm import balance_sort_pdm
from repro.core.streams import peek_run, read_run_batches, write_ordered_run
from repro.exceptions import AddressError, BlockCorruptionError
from repro.exec import JobRunner, RunSpec
from repro.pdm import ParallelDiskMachine, VirtualDisks
from repro.resilience import FaultPlan, FaultRule, SweepJournal
from repro.resilience.injector import FaultInjector, activate

from .io_reference import use_io

pytestmark = pytest.mark.chaos

CELLS = [
    {"n": 600, "memory": 512, "block": 4, "disks": 4,
     "workload": "uniform", "seed": 0},
    {"n": 600, "memory": 512, "block": 4, "disks": 4,
     "workload": "adversarial_striping", "seed": 1},
]
SPECS = [RunSpec("sort_pdm", dict(c)) for c in CELLS]

#: Three seeded transient plans — exec-layer, store-layer, and mixed —
#: plus a corrupt-store plan.  Every one must pass the bit-identity gate.
PLANS = {
    "exec-transient": FaultPlan(seed=11, name="exec-transient", rules=(
        FaultRule(site="exec.task", rate=0.9, seed=1),
    )),
    "store-read": FaultPlan(seed=22, name="store-read", rules=(
        FaultRule(site="store.read", at=(3,), seed=2),
    )),
    "mixed": FaultPlan(seed=33, name="mixed", rules=(
        FaultRule(site="exec.task", rate=0.5, seed=3),
        FaultRule(site="store.read", at=(7,), seed=4),
        FaultRule(site="store.free", at=(1,), seed=5),
    )),
    "corrupt-store": FaultPlan(seed=44, name="corrupt-store", rules=(
        FaultRule(site="store.write", mode="corrupt", at=(0,), seed=6),
    )),
}
for _p in PLANS.values():
    _p.validate()

#: Hand-placed store faults on one cell.  On its Balance Sort (S = 6,
#: one distribution pass), write 56's corrupted block is read back by a
#: base case 10 rounds into a 12-round gather window, as read op 136, and
#: write op 100 fires with 36 write rounds still pending; approximate
#: Greed Sort frees (op 0) with 63 pending.
TIMING_CELL = {"n": 2000, "memory": 512, "block": 4, "disks": 8,
               "workload": "uniform", "seed": 0}
TIMING_PLANS = {
    "corrupt-in-window": FaultPlan(seed=55, name="corrupt-in-window", rules=(
        FaultRule(site="store.write", mode="corrupt", at=(56,), seed=6),
    )),
    "read-on-corrupt-round": FaultPlan(seed=55, name="read-on-corrupt-round", rules=(
        FaultRule(site="store.write", mode="corrupt", at=(56,), seed=6),
        FaultRule(site="store.read", at=(136,), seed=7),
    )),
    "write-while-pending": FaultPlan(seed=56, name="write-while-pending", rules=(
        FaultRule(site="store.write", at=(100,), seed=8),
    )),
    "free": FaultPlan(seed=57, name="free", rules=(
        FaultRule(site="store.free", at=(0,), seed=9),
    )),
}
for _p in TIMING_PLANS.values():
    _p.validate()


def payloads_json(results):
    return json.dumps([r.payload for r in results], sort_keys=True)


@pytest.fixture(scope="module")
def clean_payloads():
    return payloads_json(JobRunner(jobs=0).map(SPECS))


# ------------------------------------------------------------ serial gate


class TestSerialChaosGate:
    @pytest.mark.parametrize("name", sorted(PLANS))
    def test_payloads_bit_identical_to_fault_free(self, name, clean_payloads):
        runner = JobRunner(jobs=0, retries=3, backoff=0.0,
                                fault_plan=PLANS[name])
        chaos = runner.map(SPECS)
        assert runner.stats["failed"] == 0
        assert payloads_json(chaos) == clean_payloads
        # the plan was not a no-op: at least one attempt was retried
        assert runner.stats["retried"] > 0, f"plan {name} never fired"

    def test_chaos_runs_are_repeatable(self):
        def run():
            r = JobRunner(jobs=0, retries=3, backoff=0.0,
                               fault_plan=PLANS["mixed"])
            out = payloads_json(r.map(SPECS))
            return out, r.stats["retried"]

        (a, ra), (b, rb) = run(), run()
        assert a == b and ra == rb  # same plan → same schedule, bit for bit


# ------------------------------------------------------- fused-plan gate


class TestFusedChaosParity:
    """Fault plans run on the fused I/O path, decision for decision.

    Fault decisions are pure functions of (site, cell, attempt, index),
    and the fused executor fires every store hook at its logical round,
    so a plan's decisions — and therefore its retries and the payloads —
    are identical to the round-at-a-time oracle's
    (``tests/io_reference.py``).  The retry counts double as a
    decision-schedule fingerprint: the same plan firing at the same
    decisions retries the same number of times.
    """

    def _run(self, plan, io, specs=SPECS):
        with use_io(io):
            runner = JobRunner(jobs=0, retries=3, backoff=0.0,
                                    fault_plan=plan)
            out = payloads_json(runner.map(specs))
        return out, runner.stats["retried"]

    @pytest.mark.parametrize("name", sorted(PLANS))
    def test_fault_decisions_identical_under_fused_plans(self, name,
                                                         clean_payloads):
        fused, fused_retries = self._run(PLANS[name], "fused")
        unfused, unfused_retries = self._run(PLANS[name], "rounds")
        assert fused_retries == unfused_retries > 0  # same schedule fired
        assert fused == unfused == clean_payloads    # same bytes out

    @pytest.mark.parametrize("name", sorted(set(TIMING_PLANS) - {"free"}))
    def test_hand_placed_faults_identical_under_fused_plans(self, name):
        spec = RunSpec("sort_pdm", dict(TIMING_CELL))
        clean = payloads_json(JobRunner(jobs=0).map([spec]))
        fused, fused_retries = self._run(TIMING_PLANS[name], "fused", [spec])
        unfused, unfused_retries = self._run(TIMING_PLANS[name], "rounds", [spec])
        assert fused_retries == unfused_retries == 1
        assert fused == unfused == clean

    def test_plans_run_under_store_watching_injector(self):
        """An attached injector leaves fusion on and sees every round."""
        # Attempt 1 is past every transient rule: the hooks run, nothing fires.
        injector = FaultInjector(PLANS["mixed"], cell="probe", attempt=1)
        with activate(injector):
            machine = ParallelDiskMachine(memory=512, block=4, disks=8)
            balance_sort_pdm(machine, workloads.uniform(2000, seed=0))
        assert machine._fault is injector and injector.fired_total == 0
        plan = machine.plan_stats
        assert plan.deferred_write_rounds > plan.write_flushes > 0
        assert plan.prefetched_read_rounds > plan.read_gathers > 0
        assert injector._counts["store.read"] == machine.stats.read_ios


# ----------------------------------------------------- fused fault timing

def sort_at(machine):
    return balance_sort_pdm(machine, workloads.uniform(TIMING_CELL["n"], seed=0))


def greed_at(machine):
    data = workloads.uniform(TIMING_CELL["n"], seed=0)
    return greed_sort(machine, data, mode="approximate")


def attempt_history(task, plan, io, limit=4):
    """Run ``task`` attempt by attempt under ``plan`` until one succeeds.

    Returns each failed attempt's exception type and message, then the
    successful attempt's counts and output bytes.
    """
    history = []
    with use_io(io):
        for attempt in range(limit):
            with activate(FaultInjector(plan, cell="timing", attempt=attempt)):
                machine = ParallelDiskMachine(memory=512, block=4, disks=8)
                try:
                    res = task(machine)
                except Exception as exc:
                    history.append((type(exc).__name__, str(exc),
                                    machine.stats.snapshot()))
                    continue
            output = peek_run(res.storage, res.output).tobytes()
            return history, (res.io_stats, output)
    return history, None


class TestFusedFaultTiming:
    """Every store fault surfaces at its logical round on the fused path:
    per attempt, the same exception type and message, at the same I/O
    counts, as the round-at-a-time oracle."""

    @pytest.mark.parametrize("name", sorted(set(PLANS) - {"exec-transient"}))
    def test_store_plans(self, name):
        fused = attempt_history(sort_at, PLANS[name], "fused")
        assert fused == attempt_history(sort_at, PLANS[name], "rounds")
        assert fused[0] and fused[1] is not None

    @pytest.mark.parametrize("name,expected", [
        ("corrupt-in-window", "BlockCorruptionError"),
        ("read-on-corrupt-round", "InjectedIOError"),
        ("write-while-pending", "InjectedIOError"),
    ])
    def test_hand_placed(self, name, expected):
        fused = attempt_history(sort_at, TIMING_PLANS[name], "fused")
        assert fused == attempt_history(sort_at, TIMING_PLANS[name], "rounds")
        (error,), done = fused
        assert error[0] == expected and done is not None

    def test_free_fault_with_writes_pending(self):
        fused = attempt_history(greed_at, TIMING_PLANS["free"], "fused")
        assert fused == attempt_history(greed_at, TIMING_PLANS["free"], "rounds")
        (error,), done = fused
        assert "free fault (op 0" in error[1] and done is not None


class TestOutputChecksums:
    """A corrupt write on an output block, which no later read checks,
    fails the attempt without ``verify``: when the store keeps checksums
    the PDM tasks check the output run's blocks against them, uncharged.
    On the timing cell, write op 70 is a base case's output block."""

    PLAN = FaultPlan(seed=55, name="corrupt-output", rules=(
        FaultRule(site="store.write", mode="corrupt", at=(70,), seed=6),
    )).validate()

    def test_corrupt_output_block_fails_the_attempt_and_a_retry_recovers(self):
        spec = RunSpec("sort_pdm", dict(TIMING_CELL))  # verify off
        clean = JobRunner(jobs=0).map([spec])
        (failed,) = JobRunner(jobs=0, retries=0, fault_plan=self.PLAN).map([spec])
        assert failed.failed and failed.error["type"] == "BlockCorruptionError"
        runner = JobRunner(jobs=0, retries=3, backoff=0.0, fault_plan=self.PLAN)
        chaos = runner.map([spec])
        assert runner.stats["retried"] == 1 and runner.stats["failed"] == 0
        assert payloads_json(chaos) == payloads_json(clean)


def stream_back(plan, io, rounds=100):
    """Write ``rounds`` full write rounds, free round 0's first block (its
    slot predates every pending write), then stream rounds 1+ back.

    Returns the first failure (type, message, I/O counts), every chunk
    read before it, and the store as it then reads — every written block,
    peeked (pending writes flush first; a missing or corrupt block reads
    as its error's name).
    """
    with use_io(io):
        with activate(FaultInjector(plan, cell="stream", attempt=0)):
            machine = ParallelDiskMachine(memory=4096, block=4, disks=4)
        storage = VirtualDisks(machine, 4)
        data = workloads.uniform(rounds * 16, seed=3)
        chunks, failure = [], None
        try:
            machine.mem_acquire(data.shape[0])
            run = write_ordered_run(storage, data)
            storage.free_arr([run.blocks[0].address])
            for chunk in read_run_batches(storage, run.slice_blocks(4, 4 * rounds),
                                          free=True):
                chunks.append(chunk.tobytes())
                machine.mem_release(chunk.shape[0])
        except Exception as exc:
            failure = (type(exc).__name__, str(exc), machine.stats.snapshot())
        store = []
        for slot in range(rounds):
            for disk in range(4):
                try:
                    block = machine.peek_blocks_arr(np.array([disk]), np.array([slot]))
                    store.append(block.tobytes())
                except (AddressError, BlockCorruptionError) as exc:
                    store.append(type(exc).__name__)
    return failure, chunks, store


class TestFusedStreamFaults:
    """The same timing, placed exactly: 100 write rounds, one free, and a
    read-back whose first gather window holds rounds 1–64.

    After a write or free fault the store reads back the same, pending
    writes included.  After a failed read the stream has already dropped
    the rest of that gather window, which round-at-a-time reading would
    not have reached; no retry can see it, since every attempt rebuilds
    its machine.
    """

    @pytest.mark.parametrize("rules,expected", [
        ((FaultRule(site="store.write", mode="corrupt", at=(10,), seed=1),),
         "BlockCorruptionError"),
        ((FaultRule(site="store.write", mode="corrupt", at=(10,), seed=1),
          FaultRule(site="store.read", at=(9,), seed=2)), "InjectedIOError"),
        ((FaultRule(site="store.write", at=(70,), seed=3),), "InjectedIOError"),
        ((FaultRule(site="store.free", at=(0,), seed=4),), "InjectedIOError"),
    ], ids=["corrupt-round-10", "read-on-round-10", "write-70-pending",
            "free-pending"])
    def test_fault_lands_at_its_round(self, rules, expected):
        plan = FaultPlan(seed=9, rules=rules)
        failure, chunks, store = stream_back(plan, "fused")
        ref_failure, ref_chunks, ref_store = stream_back(plan, "rounds")
        assert (failure, chunks) == (ref_failure, ref_chunks)
        assert failure[0] == expected
        if chunks:
            assert len(chunks) == 9  # rounds 1-9 streamed, round 10 failed
        else:
            assert store == ref_store


# -------------------------------------------------------------- pool gate


@pytest.mark.slow
class TestPoolChaosGate:
    @pytest.fixture(autouse=True)
    def _two_cores(self, monkeypatch):
        import repro.exec.runner as runner_mod
        monkeypatch.setattr(runner_mod, "default_jobs", lambda: 4)

    @pytest.mark.parametrize("name", ["exec-transient", "store-read"])
    def test_pool_payloads_bit_identical(self, name, clean_payloads):
        runner = JobRunner(jobs=2, retries=3, backoff=0.0,
                                fault_plan=PLANS[name])
        chaos = runner.map(SPECS)
        assert runner.stats["failed"] == 0
        assert payloads_json(chaos) == clean_payloads


# ---------------------------------------------------------------- via CLI


class TestChaosCLI:
    """The gate as CI runs it: two sweeps, one chaotic, reports compared."""

    ARGS = ["sweep", "--task", "sort", "--n", "600", "--disks", "4",
            "--workload", "uniform,adversarial_striping"]

    def _report(self, tmp_path, capsys, tag, extra):
        path = tmp_path / f"{tag}.json"
        from repro.cli import main
        assert main(self.ARGS + ["--emit-json", str(path)] + extra) == 0
        captured = capsys.readouterr()
        with open(path) as fh:
            return json.load(fh), captured

    def test_cli_chaos_report_identical(self, tmp_path, capsys):
        clean, clean_cap = self._report(tmp_path, capsys, "clean", [])
        plan = json.dumps(PLANS["mixed"].to_dict())
        chaos, chaos_cap = self._report(
            tmp_path, capsys, "chaos",
            ["--fault-plan", plan, "--retries", "3", "--backoff", "0"],
        )
        assert "retried=0" not in chaos_cap.err  # faults actually fired
        assert chaos_cap.out == clean_cap.out  # stdout tables identical
        for report in (clean, chaos):
            report.pop("meta", None)  # host/timestamp, when present
        assert chaos == clean  # diff threshold 0, in spirit and in bytes

    def test_cache_corruption_round_trip(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        clean, _ = self._report(tmp_path, capsys, "warm",
                                ["--cache-dir", cache])
        plan = json.dumps(FaultPlan(seed=5, rules=(
            FaultRule(site="cache.entry", mode="corrupt", rate=1.0),
        )).validate().to_dict())
        again, cap = self._report(
            tmp_path, capsys, "again", ["--cache-dir", cache,
                                        "--fault-plan", plan],
        )
        # every entry was damaged, quarantined, and re-executed...
        assert "fault plan damaged 2 cache entries" in cap.err
        assert "corrupt=2" in cap.err and "executed=2" in cap.err
        # ...to a bit-identical report (cached flags and meta aside)
        for report in (clean, again):
            report.pop("meta", None)
            for row in report["result"]["rows"]:
                row.pop("cached")
        assert again == clean
        quarantined = [n for n in os.listdir(cache)
                       if n.endswith(".quarantine")]
        assert len(quarantined) == 2


# ------------------------------------------------------- journal + resume


class TestJournalResume:
    def test_failed_cells_reexecute_on_resume(self, tmp_path, capsys):
        from repro.cli import main

        jdir = str(tmp_path / "journal")
        # A permanent exec fault fails SOME cells: at these seeds the
        # decision hash lands under rate=0.5 for exactly one of the two.
        plan = json.dumps(FaultPlan(seed=0, rules=(
            FaultRule(site="exec.task", mode="permanent", rate=0.5, seed=0),
        )).validate().to_dict())
        argv = ["sweep", "--task", "sort", "--n", "600", "--disks", "4",
                "--workload", "uniform,adversarial_striping",
                "--journal", jdir]
        rc1 = main(argv + ["--fault-plan", plan, "--backoff", "0"])
        capsys.readouterr()
        journal = SweepJournal(jdir)
        st = journal.stats
        assert rc1 == 3 and 0 < st["total_failed"] < 2
        assert st["total_done"] == 2 - st["total_failed"]
        # Resume without the plan: done cells served, failed re-executed.
        assert main(argv + ["--resume"]) == 0
        cap = capsys.readouterr()
        assert f"resumed={st['total_done']}" in cap.err
        assert f"executed={st['total_failed']}" in cap.err
        assert SweepJournal(jdir).stats["total_done"] == 2

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("damage", ["damaged", "missing"])
    def test_resumed_counts_only_served_checkpoints(
        self, tmp_path, capsys, damage, jobs
    ):
        """A journaled-done cell whose checkpoint is damaged or gone is
        executed again, and counted as executed, not as resumed."""
        from repro.cli import main

        jdir = tmp_path / "journal"
        argv = ["sweep", "--task", "sort", "--n", "600,800", "--disks", "4",
                "--journal", str(jdir), "--jobs", jobs]
        assert main(argv) == 0
        capsys.readouterr()
        checkpoints = sorted((jdir / "cells").glob("*.json"))
        assert len(checkpoints) == 2
        if damage == "damaged":
            checkpoints[0].write_text('{"garbage": 1}')
        else:
            checkpoints[0].unlink()
        assert main(argv + ["--resume"]) == 0
        err = capsys.readouterr().err
        resumed = int(re.search(r"resumed=(\d+)", err).group(1))
        executed = int(re.search(r"executed=(\d+)", err).group(1))
        assert resumed + executed == 2, (resumed, executed)
        assert resumed == 1
        if damage == "damaged":
            assert "corrupt=1" in err

    @pytest.mark.slow
    def test_sigkill_then_resume_reexecutes_only_missing(self, tmp_path):
        jdir = str(tmp_path / "journal")
        argv = ["sweep", "--task", "sort", "--n", "2000", "--disks", "4",
                "--seed", "0,1,2,3,4,5", "--journal", jdir]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "src")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro"] + argv,
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        journal_path = os.path.join(jdir, "journal.jsonl")
        deadline = time.monotonic() + 60
        try:
            while time.monotonic() < deadline:  # pragma: no branch
                if proc.poll() is not None:
                    break  # finished before we could kill it — still valid
                if os.path.exists(journal_path) and any(
                    '"status":"done"' in line for line in open(journal_path)
                ):
                    proc.send_signal(signal.SIGKILL)
                    proc.wait(timeout=30)
                    break
                time.sleep(0.02)
        finally:
            if proc.poll() is None:  # pragma: no cover - watchdog
                proc.kill()
                proc.wait(timeout=30)

        done_before = SweepJournal(jdir).stats["total_done"]
        assert done_before >= 1  # the poll loop guaranteed progress

        from repro.cli import main
        import io, contextlib
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main(argv + ["--resume"]) == 0
        # only the missing cells re-executed; the rest came from checkpoint
        assert f"executed={6 - done_before}" in err.getvalue()
        assert f"resumed={done_before}" in err.getvalue()
        assert SweepJournal(jdir).stats["total_done"] == 6
