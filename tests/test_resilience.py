"""The resilience subsystem: fault-plan DSL, deterministic injection,
retrying runner, journal checkpoints, and cache integrity.

The load-bearing property throughout is *chaos determinism*: every fault
decision is a pure function of ``(plan seed, rule seed, site, cell,
attempt, index)``, so a seeded transient plan plus a retry budget yields
payloads **bit-identical** to the fault-free run (the full end-to-end
gate lives in ``tests/test_chaos.py``; this file pins the unit-level
mechanics that make it hold).
"""

import json
import os

import pytest

from repro.exceptions import InjectedIOError, ParameterError
from repro.exec import (
    SCHEMA_SALT,
    JobRunner,
    ResultCache,
    RunSpec,
    payload_digest,
)
from repro.exec.runner import FAILURES_SCHEMA
from repro.obs import Observation
from repro.resilience import (
    FaultInjector,
    FaultPlan,
    FaultRule,
    SweepJournal,
    decision_unit,
    exec_decision,
    grid_fingerprint,
    inject_cache_faults,
)

CELL = {"n": 256, "h": 16}
SPEC = RunSpec("hierarchy_sort", CELL)
SPEC2 = RunSpec("hierarchy_sort", {"n": 512, "h": 16})


def plan(*rules, seed=0):
    return FaultPlan(seed=seed, rules=tuple(rules)).validate()


def rule(site="exec.task", **kw):
    kw.setdefault("at", (0,))
    return FaultRule(site=site, **kw)


# ------------------------------------------------------------------ DSL


class TestFaultPlanDSL:
    def test_round_trip_dict(self):
        p = plan(rule(rate=0.25, at=(), seed=7), rule("store.read", budget=2),
                 seed=42)
        assert FaultPlan.from_dict(p.to_dict()) == p

    def test_round_trip_file(self, tmp_path):
        p = plan(rule("store.write", mode="corrupt", rate=0.5, at=()), seed=3)
        path = str(tmp_path / "plan.json")
        p.dump(path)
        assert FaultPlan.load(path) == p

    def test_inline_json_load(self):
        p = FaultPlan.load(
            '{"seed": 9, "rules": [{"site": "exec.task", "at": [0]}]}'
        )
        assert p.seed == 9
        assert p.rules[0].site == "exec.task"
        assert p.rules[0].at == (0,)

    def test_load_missing_file_is_parameter_error(self):
        with pytest.raises(ParameterError, match="not found"):
            FaultPlan.load("/nonexistent/plan.json")

    def test_load_bad_json_is_parameter_error(self):
        with pytest.raises(ParameterError, match="not valid JSON"):
            FaultPlan.loads("{nope")

    def test_unknown_schema_rejected(self):
        with pytest.raises(ParameterError, match="schema"):
            FaultPlan.from_dict({"schema": "repro.fault_plan/9", "rules": []})

    def test_unknown_rule_field_rejected(self):
        with pytest.raises(ParameterError, match="wat"):
            FaultPlan.from_dict(
                {"rules": [{"site": "exec.task", "at": [0], "wat": 1}]}
            )

    @pytest.mark.parametrize("bad, match", [
        (dict(site="disk.read", at=(0,)), "unknown fault site"),
        (dict(site="exec.task", mode="flaky", at=(0,)), "unknown fault mode"),
        (dict(site="store.read", mode="corrupt", at=(0,)), "corrupt mode"),
        (dict(site="exec.task", effect="explode", at=(0,)), "unknown fault effect"),
        (dict(site="store.read", effect="crash", at=(0,)), "only applies to exec.task"),
        (dict(site="exec.task", rate=1.5), "rate must be in"),
        (dict(site="exec.task"), "can never fire"),
        (dict(site="exec.task", at=(0,), budget=0), "budget must be >= 1"),
        (dict(site="exec.task", at=(0,), attempts=0), "attempts must be >= 1"),
        (dict(site="exec.task", at=(0,), duration=-1.0), "duration must be >= 0"),
    ])
    def test_validation_errors(self, bad, match):
        with pytest.raises(ParameterError, match=match):
            FaultRule(**bad).validate()

    @pytest.mark.parametrize("doc", [
        {"rules": 5},
        {"seed": "x", "rules": []},
        {"rules": [{"site": "store.read", "rate": "x"}]},
        {"rules": [{"site": "store.read", "at": "x"}]},
        {"rules": [{"site": "store.read", "at": [0], "budget": "2"}]},
    ], ids=["rules-int", "seed-str", "rate-str", "at-str", "budget-str"])
    def test_malformed_fields_are_parameter_errors(self, doc):
        with pytest.raises(ParameterError, match="malformed fault plan"):
            FaultPlan.from_dict(doc)

    def test_plan_properties(self):
        p = plan(rule("store.write", mode="corrupt"))
        assert p.watches_store and p.wants_store_checksums
        q = plan(rule("exec.task"))
        assert not q.watches_store and not q.wants_store_checksums
        r = plan(rule("store.read"))
        assert r.watches_store and not r.wants_store_checksums


# -------------------------------------------------------------- decisions


class TestDecisionDeterminism:
    def test_decision_unit_pure_and_uniformish(self):
        a = decision_unit(1, 2, "store.read", "cell", 0, 5)
        assert a == decision_unit(1, 2, "store.read", "cell", 0, 5)
        assert 0.0 <= a < 1.0
        # each coordinate matters
        assert a != decision_unit(2, 2, "store.read", "cell", 0, 5)
        assert a != decision_unit(1, 2, "store.read", "cell", 1, 5)
        assert a != decision_unit(1, 2, "store.read", "other", 0, 5)

    def _stream(self, p, cell, attempt, n=64):
        inj = FaultInjector(p, cell=cell, attempt=attempt)
        return [inj.decide("store.read") is not None for _ in range(n)]

    def test_stream_is_pure_function_of_cell_and_attempt(self):
        p = plan(rule("store.read", rate=0.3, at=()))
        assert self._stream(p, "a", 0) == self._stream(p, "a", 0)
        assert self._stream(p, "a", 0) != self._stream(p, "b", 0)
        assert self._stream(p, "a", 0) != self._stream(p, "a", 1, n=64) or True

    def test_at_addressing_fires_exactly_there(self):
        p = plan(rule("store.read", at=(2, 5)))
        fired = [i for i, f in enumerate(self._stream(p, "c", 0, 8)) if f]
        assert fired == [2, 5]

    def test_budget_caps_fires(self):
        p = plan(rule("store.read", rate=1.0, at=(), budget=3))
        assert sum(self._stream(p, "c", 0, 10)) == 3

    def test_attempts_gates_transient_rules(self):
        p = plan(rule("store.read", rate=1.0, at=(), attempts=2))
        assert all(self._stream(p, "c", 0, 4))
        assert all(self._stream(p, "c", 1, 4))
        assert not any(self._stream(p, "c", 2, 4))

    def test_permanent_ignores_attempt_gate(self):
        p = plan(rule("store.read", mode="permanent", rate=1.0, at=()))
        assert all(self._stream(p, "c", 99, 4))

    def test_unwatched_site_never_consumes_opportunities(self):
        p = plan(rule("exec.task"))
        inj = FaultInjector(p, cell="c")
        for _ in range(4):
            assert inj.decide("store.read") is None
        assert inj._counts.get("store.read") is None

    def test_exec_decision_is_pure(self):
        p = plan(rule(effect="crash"))
        r0 = exec_decision(p, "cellkey", 0)
        assert r0 is not None and r0.effect == "crash"
        assert exec_decision(p, "cellkey", 0) == r0
        assert exec_decision(p, "cellkey", 1) is None  # attempts=1 gate

    def test_fired_events_and_counters(self):
        obs = Observation()
        inj = FaultInjector(plan(rule("store.read")), cell="abcd", obs=obs)
        with pytest.raises(InjectedIOError):
            inj.on_read()
        events = [e for e in obs.tracer.events if e["name"] == "fault.injected"]
        assert len(events) == 1
        assert events[0]["attrs"]["site"] == "store.read"
        exported = obs.registry.export()
        assert exported["resilience"]["counters"]["fault.injected"] == 1


# --------------------------------------------------------- serial runner


class TestSerialRetries:
    def test_transient_fault_retried_to_identical_payload(self):
        clean = JobRunner(jobs=0).map([SPEC])[0].payload
        p = plan(rule())  # exec.task raise at opportunity 0, attempt 0 only
        runner = JobRunner(jobs=0, retries=1, backoff=0.0, fault_plan=p)
        out = runner.map([SPEC])[0]
        assert not out.failed
        assert json.dumps(out.payload, sort_keys=True) == \
            json.dumps(clean, sort_keys=True)
        assert runner.stats["retried"] == 1
        assert runner.stats["failed"] == 0

    def test_permanent_fault_becomes_failure_record(self):
        p = plan(rule(mode="permanent"))
        runner = JobRunner(jobs=0, retries=2, backoff=0.0, fault_plan=p)
        out = runner.map([SPEC, SPEC2])
        for r in out:
            assert r.failed
            assert r.payload["schema"] == FAILURES_SCHEMA
            assert r.payload["attempts"] == 3
            assert r.error["type"] == "InjectedIOError"
            assert len(r.payload["errors"]) == 3
            with pytest.raises(KeyError):
                r.result  # failure payloads carry no result
        assert runner.stats["failed"] == 2
        assert runner.stats["retried"] == 4

    def test_failure_payloads_never_cached(self, tmp_path):
        p = plan(rule(mode="permanent"))
        cache_dir = str(tmp_path / "cache")
        runner = JobRunner(jobs=0, cache_dir=cache_dir, retries=0,
                                backoff=0.0, fault_plan=p)
        assert runner.map([SPEC])[0].failed
        assert runner.cache.stores == 0
        # a fresh fault-free runner over the same dir re-executes clean
        clean = JobRunner(jobs=0, cache_dir=cache_dir)
        out = clean.map([SPEC])[0]
        assert not out.failed and not out.cached

    def test_failed_duplicates_share_the_failure(self):
        p = plan(rule(mode="permanent"))
        runner = JobRunner(jobs=0, retries=0, backoff=0.0, fault_plan=p)
        a, b = runner.map([SPEC, RunSpec("hierarchy_sort", dict(CELL))])
        assert a.failed and b.failed
        assert a.payload is b.payload  # one execution, one record
        assert runner.stats["failed"] == 1

    def test_poisoned_payload_detected_and_retried(self):
        p = plan(rule(mode="corrupt"))
        runner = JobRunner(jobs=0, retries=1, backoff=0.0, fault_plan=p)
        out = runner.map([SPEC])[0]
        assert not out.failed
        assert runner.stats["retried"] == 1
        # without a retry budget the poison surfaces as the failure
        runner2 = JobRunner(jobs=0, retries=0, backoff=0.0, fault_plan=p)
        out2 = runner2.map([SPEC])[0]
        assert out2.failed
        assert out2.error["type"] == "PoisonedPayloadError"

    def test_hang_effect_self_releases_serially(self):
        p = plan(rule(effect="hang", duration=0.01))
        runner = JobRunner(jobs=0, retries=1, backoff=0.0, fault_plan=p)
        out = runner.map([SPEC])[0]
        assert not out.failed
        assert runner.stats["retried"] == 1

    def test_crash_effect_raises_typed_error_serially(self):
        p = plan(rule(effect="crash"))
        runner = JobRunner(jobs=0, retries=0, backoff=0.0, fault_plan=p)
        out = runner.map([SPEC])[0]
        assert out.failed
        assert out.error["type"] == "InjectedWorkerCrash"

    def test_retry_events_and_backoff_schedule(self):
        obs = Observation()
        p = plan(rule(mode="permanent"))
        runner = JobRunner(jobs=0, retries=2, backoff=0.0,
                                fault_plan=p, obs=obs)
        runner.map([SPEC])
        retries = [e for e in obs.tracer.events if e["name"] == "retry.attempt"]
        assert [e["attrs"]["backoff"] for e in retries] == [0.0, 0.0]
        failed = [e for e in obs.tracer.events if e["name"] == "runner.cell_failed"]
        assert len(failed) == 1
        res = obs.registry.export()["resilience"]["counters"]
        assert res["retry.attempt"] == 2
        assert res["cell_failed"] == 1

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            JobRunner(retries=-1)
        with pytest.raises(ValueError):
            JobRunner(timeout=0)
        with pytest.raises(ValueError):
            JobRunner(backoff=-0.1)

    def test_no_plan_is_fault_free(self):
        runner = JobRunner(jobs=0, retries=3)
        out = runner.map([SPEC])[0]
        assert not out.failed and runner.stats["retried"] == 0


# ------------------------------------------------------------- pool path


@pytest.mark.slow
class TestPoolRecovery:
    """Pool-mode recovery (crash rebuild, timeout preemption, interrupt
    persistence).  The CI box may report one usable core, so these tests
    widen ``default_jobs`` explicitly."""

    @pytest.fixture(autouse=True)
    def _two_cores(self, monkeypatch):
        import repro.exec.runner as runner_mod
        monkeypatch.setattr(runner_mod, "default_jobs", lambda: 4)

    def test_worker_crash_rebuilds_and_retries(self):
        p = plan(rule(effect="crash"))
        runner = JobRunner(jobs=2, retries=1, backoff=0.0, fault_plan=p)
        out = runner.map([SPEC, SPEC2])
        assert all(not r.failed for r in out)
        assert runner.stats["pool_rebuilds"] >= 1
        assert runner.stats["retried"] == 2

    def test_pool_and_serial_retry_accounting_match(self):
        p = plan(rule(effect="crash"))
        serial = JobRunner(jobs=0, retries=1, backoff=0.0, fault_plan=p)
        pooled = JobRunner(jobs=2, retries=1, backoff=0.0, fault_plan=p)
        s = serial.map([SPEC, SPEC2])
        q = pooled.map([SPEC, SPEC2])
        assert json.dumps([r.payload for r in s], sort_keys=True) == \
            json.dumps([r.payload for r in q], sort_keys=True)
        assert serial.stats["retried"] == pooled.stats["retried"]

    def test_planned_crashes_never_charge_the_cell_beside_them(self):
        """A run of planned crashes longer than the rebuild rule's
        ``jobs + retries + 2`` must not charge the innocent cell each of
        them kills: every one is explained by the plan, so the pool ends
        exactly like the serial run.  A long cell goes first and short
        cells fated to crash their first attempt follow; the backoff holds
        their retries back until all of them have crashed, so the long
        cell is killed by every one of those pool rebuilds in a row."""
        p = plan(rule(effect="crash", rate=0.5, at=()))

        def fated(spec):
            return exec_decision(p, spec.fingerprint(), 0) is not None

        long_cell = next(
            s for s in (RunSpec("hierarchy_sort", {"n": 2048, "h": 16, "seed": i})
                        for i in range(40))
            if not fated(s)
        )
        crashers = [
            s for s in (RunSpec("hierarchy_sort", {"n": 256, "h": 16, "seed": i})
                        for i in range(100))
            if fated(s)
        ][:24]
        assert len(crashers) == 24
        specs = [long_cell, *crashers]

        serial = JobRunner(jobs=0, retries=1, backoff=3.0, fault_plan=p)
        pooled = JobRunner(jobs=2, retries=1, backoff=3.0, fault_plan=p)
        s = serial.map(specs)
        q = pooled.map(specs)
        assert not any(r.failed for r in s)
        assert json.dumps([r.payload for r in s], sort_keys=True) == \
            json.dumps([r.payload for r in q], sort_keys=True)
        assert serial.stats["retried"] == pooled.stats["retried"] == 24
        # the scenario really outran the rule's bound
        assert pooled.stats["pool_rebuilds"] > pooled.jobs + pooled.retries + 2

    def test_permanent_crash_isolates_to_failure_record(self):
        p = plan(rule(effect="crash", mode="permanent"))
        runner = JobRunner(jobs=2, retries=1, backoff=0.0, fault_plan=p)
        out = runner.map([SPEC])[0]
        assert out.failed
        assert out.error["type"] == "InjectedWorkerCrash"
        assert out.payload["attempts"] == 2

    def test_timeout_preempts_hung_worker(self):
        p = plan(rule(effect="hang", duration=20.0))
        runner = JobRunner(jobs=2, retries=1, backoff=0.0,
                                timeout=0.6, fault_plan=p)
        out = runner.map([SPEC])[0]
        assert not out.failed
        assert runner.stats["timeouts"] == 1
        assert runner.stats["pool_rebuilds"] >= 1

    def test_queued_cell_timeout_starts_on_a_worker(self):
        """A batch queues one cell behind each worker, and a queued
        cell's timeout starts only once a worker takes it.  Two hung cells
        hold both workers past the timeout: they alone are charged, and
        the two cells queued behind them resubmit at their same attempt."""
        p = plan(rule(effect="hang", duration=20.0, rate=0.5, at=()))

        def hangs(spec):
            return exec_decision(p, spec.fingerprint(), 0) is not None

        cells = [RunSpec("hierarchy_sort", {"n": 256, "h": 16, "seed": i})
                 for i in range(40)]
        hung = [s for s in cells if hangs(s)][:2]
        queued = [s for s in cells if not hangs(s)][:2]
        runner = JobRunner(jobs=2, retries=1, backoff=0.0, timeout=1.0,
                                fault_plan=p)
        out = runner.map([*hung, *queued])
        assert not any(r.failed for r in out)
        assert runner.stats["timeouts"] == 2
        assert runner.stats["retried"] == 2

    def test_exhausted_timeout_charges_taskTimeout(self):
        p = plan(rule(effect="hang", mode="permanent", duration=20.0))
        runner = JobRunner(jobs=2, retries=0, timeout=0.6, fault_plan=p)
        out = runner.map([SPEC])[0]
        assert out.failed
        assert out.error["type"] == "TaskTimeout"

    def test_submit_to_broken_pool_counts_as_a_crash(self, monkeypatch):
        """A worker can die between two submits; the next ``submit`` then
        raises ``BrokenProcessPool`` itself, which must go through crash
        recovery instead of escaping the driver."""
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        import repro.exec.runner as runner_mod

        broken = [True]

        class DiesBeforeFirstSubmit(ProcessPoolExecutor):
            def submit(self, *args, **kwargs):
                if broken:
                    broken.pop()
                    raise BrokenProcessPool("a worker died")
                return super().submit(*args, **kwargs)

        monkeypatch.setattr(runner_mod, "ProcessPoolExecutor",
                            DiesBeforeFirstSubmit)
        runner = JobRunner(jobs=2)
        out = runner.map([SPEC])[0]
        assert not out.failed
        assert runner.stats["pool_rebuilds"] == 1
        assert runner.stats["retried"] == 0  # innocent: same attempt

    def test_interrupt_persists_completed_payloads(self, monkeypatch, tmp_path):
        import repro.exec.runner as runner_mod
        real_wait = runner_mod.wait

        def wait_then_interrupt(fs, timeout=None, return_when=None):
            real_wait(fs)  # let every in-flight future finish...
            raise KeyboardInterrupt  # ...then interrupt before processing

        monkeypatch.setattr(runner_mod, "wait", wait_then_interrupt)
        journal = SweepJournal(str(tmp_path / "j"))
        runner = JobRunner(jobs=2, cache_dir=journal.cells_dir,
                                journal=journal)
        with pytest.raises(KeyboardInterrupt):
            runner.map([SPEC, SPEC2])
        # the interrupt handler drained both finished futures to the cache
        assert runner.executed == 2
        assert runner.cache.stores == 2
        assert journal.stats["total_done"] == 2
        # restart is warm: everything served from cache, nothing re-run
        warm = JobRunner(jobs=0, cache_dir=journal.cells_dir)
        out = warm.map([SPEC, SPEC2])
        assert all(r.cached for r in out)
        assert warm.executed == 0


# --------------------------------------------------- one driver, two uses


class TestRetryReleasesFailedAttempt:
    """A failed attempt's simulation is garbage before its retry starts.

    The exception of a failed attempt carries a traceback that pins every
    frame of that attempt, and with them the machine it built.  Holding it
    while the retry runs keeps two simulations alive at once (and raises
    peak RSS) on every retried cell.  Both the batch and the service path
    count the machines still alive when attempt 1 starts.
    """

    CELL = RunSpec("sort_pdm", {"n": 2000, "memory": 512, "block": 4,
                                "disks": 4, "workload": "uniform", "seed": 0})
    PLAN = plan(rule("store.read", at=(3,)))  # attempt 0 dies mid-sort

    @pytest.fixture
    def live_at_retry(self, monkeypatch):
        import gc
        import weakref

        import repro.exec.runner as runner_mod
        from repro.pdm.machine import ParallelDiskMachine

        machines = weakref.WeakSet()
        counts: list[int] = []
        init = ParallelDiskMachine.__init__
        execute = runner_mod._execute

        def tracked_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            machines.add(self)

        def counting_execute(task, params, plan=None, cell="", attempt=0, *rest):
            if attempt > 0:
                gc.collect()
                counts.append(len(machines))
            return execute(task, params, plan, cell, attempt, *rest)

        monkeypatch.setattr(ParallelDiskMachine, "__init__", tracked_init)
        monkeypatch.setattr(runner_mod, "_execute", counting_execute)
        return counts

    def test_batch_map(self, live_at_retry):
        runner = JobRunner(jobs=0, retries=1, backoff=0.0,
                                fault_plan=self.PLAN)
        assert not runner.map([self.CELL])[0].failed
        assert live_at_retry == [0]

    def test_started_service_runner(self, live_at_retry):
        runner = JobRunner(jobs=0, retries=1, backoff=0.0,
                           fault_plan=self.PLAN).start()
        try:
            job, _ = runner.submit(self.CELL)
            assert runner.wait(job.key, timeout=120).status == "done"
        finally:
            runner.close()
        assert live_at_retry == [0]


@pytest.mark.slow
class TestRebuildRule:
    """The one rebuild rule: once a pool has been rebuilt more than
    ``jobs + retries + 2`` times with no attempt completing, crashes no
    fault plan attributes are charged as failed attempts.

    With every worker dying on every attempt, nothing attributable, and
    all cells in flight together (cells <= jobs), the first
    ``jobs + retries + 2`` rebuilds resubmit every cell at its same
    attempt; each later rebuild charges every cell one attempt, and a
    cell fails on its ``retries + 1``-th charge, so

        pool_rebuilds == (jobs + retries + 2) + (retries + 1)
    """

    JOBS, RETRIES = 2, 1
    REBUILDS = (JOBS + RETRIES + 2) + (RETRIES + 1)
    PLAN = plan(rule(effect="crash", mode="permanent"))
    CRASHED = {"attempt": RETRIES, "type": "RuntimeError",
               "message": "worker process crashed"}

    @pytest.fixture(autouse=True)
    def _hidden_crashes(self, monkeypatch):
        # Widen the usable cores, and hide every crash from attribution
        # as if workers died for causes no fault plan names.
        import repro.exec.runner as runner_mod

        monkeypatch.setattr(runner_mod, "default_jobs", lambda: 4)
        monkeypatch.setattr(runner_mod, "exec_decision", lambda *_args: None)

    def test_batch_map(self):
        runner = JobRunner(jobs=self.JOBS, retries=self.RETRIES,
                                backoff=0.0, fault_plan=self.PLAN)
        out = runner.map([SPEC, SPEC2])
        for r in out:
            assert r.failed and r.error == self.CRASHED
            assert r.payload["attempts"] == self.RETRIES + 1
        assert runner.stats["pool_rebuilds"] == self.REBUILDS

    def test_started_service_runner(self):
        runner = JobRunner(jobs=self.JOBS, retries=self.RETRIES,
                           backoff=0.0, fault_plan=self.PLAN)
        # Admit both before the driver starts, so they share every pool.
        jobs = [runner.submit(spec)[0] for spec in (SPEC, SPEC2)]
        runner.start()
        try:
            assert runner.wait_idle(timeout=120)
        finally:
            runner.close()
        for job in jobs:
            assert job.status == "failed"
            assert job.payload["error"] == self.CRASHED
        assert runner.stats["pool_rebuilds"] == self.REBUILDS


# -------------------------------------------------------- cache integrity


class TestCacheIntegrity:
    PAYLOAD = {"schema": SCHEMA_SALT, "task": "t", "params": {},
               "result": {"v": 1}, "metrics": {}, "trace": []}

    def test_wrapped_entry_round_trips(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put("k1", self.PAYLOAD)
        doc = json.load(open(tmp_path / "k1.json"))
        assert doc["schema"] == "repro.cache_entry/1"
        assert doc["sha256"] == payload_digest(self.PAYLOAD)
        fresh = ResultCache(str(tmp_path))
        assert fresh.get("k1") == self.PAYLOAD
        assert fresh.corrupt == 0

    def test_bit_rot_quarantined_and_counted(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put("k1", self.PAYLOAD)
        path = tmp_path / "k1.json"
        text = path.read_text().replace('"v":1', '"v":2')
        path.write_text(text)
        fresh = ResultCache(str(tmp_path))
        assert fresh.get("k1") is None
        assert fresh.corrupt == 1 and fresh.misses == 1
        assert not path.exists()
        assert (tmp_path / "k1.json.quarantine").exists()
        assert fresh.stats["corrupt"] == 1

    def test_unparseable_json_quarantined(self, tmp_path):
        (tmp_path / "k2.json").write_text("{truncated")
        cache = ResultCache(str(tmp_path))
        assert cache.get("k2") is None
        assert cache.corrupt == 1
        assert (tmp_path / "k2.json.quarantine").exists()

    def test_bare_payload_quarantined(self, tmp_path):
        """Every entry is written wrapped: an unwrapped payload is damage."""
        (tmp_path / "k3.json").write_text(json.dumps(self.PAYLOAD))
        cache = ResultCache(str(tmp_path))
        assert cache.get("k3") is None
        assert cache.corrupt == 1 and cache.misses == 1
        assert (tmp_path / "k3.json.quarantine").exists()

    @pytest.mark.parametrize("field, value", [
        ("result", 5), ("params", []), ("metrics", None), ("trace", {}),
        ("task", 7), ("schema", "repro.exec_payload/1"),
    ])
    def test_misshapen_payload_quarantined(self, field, value, tmp_path):
        """A wrapped entry whose digest matches but whose payload has the
        wrong shape is a miss, never a hit that crashes its reader."""
        payload = {**self.PAYLOAD, field: value}
        (tmp_path / "k5.json").write_text(json.dumps({
            "schema": "repro.cache_entry/1",
            "sha256": payload_digest(payload),
            "payload": payload,
        }))
        cache = ResultCache(str(tmp_path))
        assert cache.get("k5") is None
        assert cache.corrupt == 1 and cache.misses == 1
        assert (tmp_path / "k5.json.quarantine").exists()

    def test_quarantine_emits_obs(self, tmp_path):
        (tmp_path / "k4.json").write_text("[]")
        obs = Observation()
        cache = ResultCache(str(tmp_path))
        assert cache.get("k4", obs=obs) is None
        names = [e["name"] for e in obs.tracer.events]
        assert "cache.quarantined" in names
        res = obs.registry.export()["resilience"]["counters"]
        assert res["cache.quarantined"] == 1

    def test_inject_cache_faults_corrupt_then_reexecute(self, tmp_path):
        cache_dir = str(tmp_path)
        runner = JobRunner(jobs=0, cache_dir=cache_dir)
        runner.map([SPEC])
        p = plan(rule("cache.entry", mode="corrupt", at=(0,)))
        assert inject_cache_faults(cache_dir, p) == 1
        again = JobRunner(jobs=0, cache_dir=cache_dir)
        out = again.map([SPEC])[0]
        assert not out.cached  # integrity check forced a re-execution
        assert again.cache.corrupt == 1

    def test_inject_cache_faults_delete(self, tmp_path):
        cache_dir = str(tmp_path)
        JobRunner(jobs=0, cache_dir=cache_dir).map([SPEC])
        p = plan(rule("cache.entry", mode="transient", at=(0,)))
        assert inject_cache_faults(cache_dir, p) == 1
        assert not any(n.endswith(".json") for n in os.listdir(cache_dir))

    def test_inject_cache_faults_inert_without_rules(self, tmp_path):
        assert inject_cache_faults(str(tmp_path), plan(rule())) == 0
        assert inject_cache_faults("/nonexistent", plan(rule("cache.entry"))) == 0


# ---------------------------------------------------------------- journal


class TestSweepJournal:
    def test_begin_and_record_round_trip(self, tmp_path):
        j = SweepJournal(str(tmp_path / "j"))
        j.begin("sort_pdm", ["k1", "k2", "k3"])
        j.job("k1", "done")
        j.job("k2", "failed")
        fresh = SweepJournal(str(tmp_path / "j"))
        assert fresh.completed() == {"k1": "done", "k2": "failed"}
        start = fresh.last_start()
        assert start["task"] == "sort_pdm" and start["cells"] == 3
        assert start["grid"] == grid_fingerprint(["k3", "k1", "k2"])

    def test_last_record_wins(self, tmp_path):
        j = SweepJournal(str(tmp_path / "j"))
        j.job("k1", "failed")
        j.job("k1", "done")
        assert j.completed() == {"k1": "done"}

    def test_torn_tail_is_forgiven(self, tmp_path):
        j = SweepJournal(str(tmp_path / "j"))
        j.begin("t", ["k1"])
        j.job("k1", "done")
        with open(j.path, "a") as fh:
            fh.write('{"ev": "job", "key": "k2"')  # SIGKILL mid-line
        fresh = SweepJournal(str(tmp_path / "j"))
        assert fresh.completed() == {"k1": "done"}

    def test_bad_interior_line_raises(self, tmp_path):
        j = SweepJournal(str(tmp_path / "j"))
        with open(j.path, "a") as fh:
            fh.write("not json\n")
        j.job("k1", "done")
        with pytest.raises(ValueError, match="bad journal line"):
            j.read()

    def test_stats_tally_all_sessions(self, tmp_path):
        j = SweepJournal(str(tmp_path / "j"))
        j.job("k1", "done")
        j2 = SweepJournal(str(tmp_path / "j"))
        j2.job("k2", "done")
        j2.job("k3", "failed")
        st = j2.stats
        assert st["recorded_done"] == 1 and st["recorded_failed"] == 1
        assert st["total_done"] == 2 and st["total_failed"] == 1

    def test_grid_fingerprint_order_independent(self):
        assert grid_fingerprint(["a", "b"]) == grid_fingerprint(["b", "a"])
        assert grid_fingerprint(["a"]) != grid_fingerprint(["a", "b"])

    def test_runner_checkpoints_each_cell(self, tmp_path):
        j = SweepJournal(str(tmp_path / "j"))
        runner = JobRunner(jobs=0, cache_dir=j.cells_dir, journal=j)
        runner.map([SPEC, SPEC2])
        assert j.recorded_done == 2
        assert j.completed() and all(
            s == "done" for s in j.completed().values()
        )

    def test_map_journals_job_records(self, tmp_path):
        """A sweep journals what a service does: one ``admitted`` and one
        ``done`` job record per executed cell, none for a cache hit."""
        j = SweepJournal(str(tmp_path / "j"))
        JobRunner(jobs=0, cache_dir=j.cells_dir).map([SPEC])  # warm SPEC
        JobRunner(jobs=0, cache_dir=j.cells_dir, journal=j).map([SPEC, SPEC2])
        records = j.read()
        key = SPEC2.fingerprint()
        assert [(r["ev"], r["key"], r["status"]) for r in records] == [
            ("job", key, "admitted"), ("job", key, "done"),
        ]
        assert records[0]["task"] == SPEC2.task
        assert records[0]["params"] == SPEC2.params
        assert records[0]["meta"] == {"index": 1}
        assert j.pending_jobs() == []
        assert j.recorded_done == 1 and j.completed() == {key: "done"}

    def test_runner_journals_failures(self, tmp_path):
        j = SweepJournal(str(tmp_path / "j"))
        p = plan(rule(mode="permanent"))
        runner = JobRunner(jobs=0, retries=0, backoff=0.0,
                                fault_plan=p, journal=j)
        runner.map([SPEC])
        assert j.recorded_failed == 1
        assert list(j.completed().values()) == ["failed"]


class TestJournalJobRecords:
    """Job-granular checkpoints (``{"ev": "job"}``) used by the service."""

    def test_pending_jobs_admission_order(self, tmp_path):
        j = SweepJournal(str(tmp_path / "j"))
        j.job("k1", "admitted", task="t", params={"n": 1})
        j.job("k2", "admitted", task="t", params={"n": 2})
        j.job("k1", "done")
        fresh = SweepJournal(str(tmp_path / "j"))
        pending = fresh.pending_jobs()
        assert [p["key"] for p in pending] == ["k2"]
        assert pending[0]["params"] == {"n": 2}
        assert fresh.stats["jobs_seen"] == 2
        assert fresh.stats["jobs_pending"] == 1

    def test_readmission_after_terminal_re_pends(self, tmp_path):
        j = SweepJournal(str(tmp_path / "j"))
        j.job("k1", "admitted", task="t", params={})
        j.job("k1", "cancelled")
        j.job("k1", "admitted", task="t", params={})
        assert [p["key"] for p in j.pending_jobs()] == ["k1"]

    def test_verify_grid_names_both_fingerprints(self, tmp_path):
        j = SweepJournal(str(tmp_path / "j"))
        j.begin("t", ["a", "b"])
        recorded, requested = j.verify_grid(["a", "c"])
        assert recorded == grid_fingerprint(["a", "b"])
        assert requested == grid_fingerprint(["a", "c"])
        assert recorded != requested
        same_rec, same_req = j.verify_grid(["b", "a"])
        assert same_rec == same_req


class TestJournalGridMismatchCLI:
    """Satellite regression: a journal recorded for grid A refuses grid B
    with exit 2 and a diagnostic naming *both* fingerprints — on resume
    AND on plain (non-resume) attach, which used to silently append a
    second grid start."""

    GRID_A = ["sweep", "--task", "hierarchy", "--n", "256", "--h", "16"]
    GRID_B = ["sweep", "--task", "hierarchy", "--n", "512", "--h", "16"]

    @staticmethod
    def _main(argv):
        from repro.cli import main
        return main(argv)

    def _mismatch_err(self, capsys, jdir):
        import re

        err = capsys.readouterr().err
        assert "different grid" in err
        m = re.search(r"fingerprint (\w+) != (\w+)", err)
        assert m, f"diagnostic must name both fingerprints: {err!r}"
        recorded = SweepJournal(jdir).last_start()["grid"]
        assert m.group(1) == recorded
        assert m.group(2) != recorded
        return err

    def test_resume_mismatch_exit_two_names_fingerprints(self, tmp_path, capsys):
        jdir = str(tmp_path / "j")
        assert self._main(self.GRID_A + ["--journal", jdir]) == 0
        capsys.readouterr()
        rc = self._main(self.GRID_B + ["--journal", jdir, "--resume"])
        assert rc == 2
        err = self._mismatch_err(capsys, jdir)
        assert "refusing to resume" in err

    def test_plain_attach_mismatch_also_refused(self, tmp_path, capsys):
        jdir = str(tmp_path / "j")
        assert self._main(self.GRID_A + ["--journal", jdir]) == 0
        capsys.readouterr()
        rc = self._main(self.GRID_B + ["--journal", jdir])
        assert rc == 2
        err = self._mismatch_err(capsys, jdir)
        assert "refusing to attach" in err
        # and the journal still records exactly the original grid
        starts = [r for r in SweepJournal(jdir).read()
                  if r.get("ev") == "start"]
        assert len(starts) == 1

    def test_matching_grid_still_attaches(self, tmp_path, capsys):
        jdir = str(tmp_path / "j")
        assert self._main(self.GRID_A + ["--journal", jdir]) == 0
        assert self._main(self.GRID_A + ["--journal", jdir]) == 0
        capsys.readouterr()


class TestBackoffCap:
    """Satellite: ``--backoff-max`` bounds cumulative per-cell backoff."""

    def test_cap_bounds_cumulative_sleep(self):
        import time as _time

        p = plan(rule(mode="permanent"))
        runner = JobRunner(jobs=0, retries=6, backoff=0.2,
                                backoff_max=0.3, fault_plan=p)
        t0 = _time.monotonic()
        out = runner.map([SPEC])[0]
        elapsed = _time.monotonic() - t0
        assert out.payload["schema"] == FAILURES_SCHEMA
        stats = runner.stats
        # uncapped schedule would sleep 0.2 * (1+2+4+8+16+32) = 12.6 s
        assert elapsed < 3.0
        assert stats["backoff_max"] == 0.3
        assert stats["backoff_capped"] >= 1
        assert stats["backoff_slept"] <= 0.3 + 1e-6

    def test_cap_disabled_with_none(self):
        runner = JobRunner(jobs=0, backoff_max=None)
        assert runner.stats["backoff_max"] is None
        runner.map([SPEC])
        assert runner.stats["backoff_slept"] == 0.0

    def test_negative_cap_rejected(self):
        with pytest.raises(ValueError, match="backoff_max"):
            JobRunner(jobs=0, backoff_max=-1.0)

    def test_cap_surfaced_in_sweep_stderr(self, capsys):
        from repro.cli import main

        rc = main(["sweep", "--task", "hierarchy", "--n", "256", "--h", "16",
                   "--backoff-max", "2.5"])
        assert rc == 0
        err = capsys.readouterr().err
        assert "backoff" in err


class TestQuarantineRace:
    """Satellite: two readers racing one corrupt entry must both miss,
    produce exactly one ``*.quarantine`` file, and count the corruption
    exactly once between them (only the reader whose ``os.replace`` wins
    increments)."""

    def test_two_racing_readers_count_once(self, tmp_path):
        import threading

        cache_dir = str(tmp_path)
        seed = ResultCache(cache_dir)
        seed.put("k1", {"schema": "x", "result": {"v": 1}})
        path = tmp_path / "k1.json"
        path.write_text(path.read_text().replace('"v":1', '"v":2'))

        readers = [ResultCache(cache_dir) for _ in range(2)]
        barrier = threading.Barrier(2)
        results = [None, None]
        errors = []

        def read(i):
            try:
                barrier.wait(timeout=10)
                results[i] = readers[i].get("k1")
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [threading.Thread(target=read, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not errors
        assert results == [None, None]  # both miss
        quarantined = [n for n in os.listdir(cache_dir)
                       if n.endswith(".quarantine")]
        assert quarantined == ["k1.json.quarantine"]
        assert not path.exists()
        assert readers[0].corrupt + readers[1].corrupt == 1
        assert readers[0].misses + readers[1].misses == 2

    def test_loser_still_misses_after_quarantine(self, tmp_path):
        # Sequential shape of the same race: second reader finds the
        # entry already quarantined → plain miss, no second count.
        cache_dir = str(tmp_path)
        seed = ResultCache(cache_dir)
        seed.put("k1", {"schema": "x", "result": {"v": 1}})
        path = tmp_path / "k1.json"
        path.write_text(path.read_text().replace('"v":1', '"v":2'))
        first, second = ResultCache(cache_dir), ResultCache(cache_dir)
        assert first.get("k1") is None and first.corrupt == 1
        assert second.get("k1") is None and second.corrupt == 0
        assert first.corrupt + second.corrupt == 1
