"""Sort-as-a-service: admission control, backpressure, quotas, drain.

The robustness contract under test, end to end:

* **deterministic load shedding** — with a queue bound of Q, submitting
  Q + k distinct jobs sheds *exactly* k (reason ``queue_full``), and no
  admitted job is ever lost: each one completes, fails structurally,
  is cancelled on request, or survives a drain in the journal;
* **coalescing** — identical in-flight submissions share one execution
  (job id = spec fingerprint) and warm specs are served from the cache;
* **quotas** — ``burst`` new executions per tenant with ``rate=0`` is
  exact: the (burst+1)-th distinct submission is rejected with reason
  ``quota`` while coalesced/cached submissions stay free;
* **graceful drain + resume** — SIGTERM-shaped drain leaves queued jobs
  ``admitted`` in the journal; a fresh incarnation with ``--resume``
  completes them;
* **chaos drills** — a seeded transient fault plan plus retries yields
  payloads bit-identical to the fault-free serial run.
"""

import json
import time

import pytest

from repro.cli import main
from repro.exceptions import ParameterError
from repro.exec import JobRunner, RunSpec, payload_digest
from repro.obs import Observation
from repro.resilience import FaultPlan, SweepJournal
from repro.serve import (
    JOB_SCHEMA,
    REJECT_SCHEMA,
    SERVE_SCHEMA,
    SERVE_STATS_SCHEMA,
    FairShareScheduler,
    ServeClient,
    SortService,
    TokenBucket,
    serve_in_thread,
)


def cell(n, h=16):
    return {"n": n, "h": h}


SPEC = RunSpec("hierarchy_sort", cell(256))

# Deterministic transient: attempt 0 of every cell fails, retry succeeds.
TRANSIENT = '{"seed": 0, "rules": [{"site": "exec.task", "at": [0]}]}' 


# ------------------------------------------------------------------ units


class TestTokenBucket:
    def test_burst_exact_with_zero_rate(self):
        b = TokenBucket(burst=3, rate=0.0)
        takes = [b.take(now=0.0) for _ in range(5)]
        assert [ok for ok, _ in takes] == [True, True, True, False, False]
        # rate=0 never refills: no retry hint, still rejected much later
        assert takes[3][1] is None
        assert b.take(now=1e9) == (False, None)

    def test_rate_refills_and_hints_retry(self):
        b = TokenBucket(burst=1, rate=2.0)
        assert b.take(now=0.0) == (True, None)
        ok, retry = b.take(now=0.0)
        assert not ok and retry == pytest.approx(0.5)
        ok, _ = b.take(now=0.6)  # 1.2 tokens accrued
        assert ok

    def test_refill_clamps_to_burst(self):
        b = TokenBucket(burst=2, rate=100.0)
        b.take(now=0.0)
        assert b.take(now=10.0) == (True, None)
        assert b.tokens <= b.burst

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="burst"):
            TokenBucket(burst=0)
        with pytest.raises(ValueError, match="rate"):
            TokenBucket(burst=1, rate=-1.0)


class TestFairShareScheduler:
    class _J:
        def __init__(self, seq, tenant):
            self.seq = seq
            self.meta = {"tenant": tenant}

    def test_round_robin_across_tenants(self):
        sched = FairShareScheduler()
        ready = [self._J(0, "a"), self._J(1, "a"), self._J(2, "b")]
        picks = []
        for _ in range(3):
            job = sched(ready)
            picks.append((job.meta["tenant"], job.seq))
            ready.remove(job)
        # b's single job does not wait behind a's backlog
        assert picks == [("a", 0), ("b", 2), ("a", 1)]

    def test_fifo_within_tenant(self):
        sched = FairShareScheduler()
        j0, j1 = self._J(0, "t"), self._J(1, "t")
        assert sched([j0, j1]).seq == 0

    def test_unannotated_jobs_share_anon_lane(self):
        sched = FairShareScheduler()
        j = self._J(0, "x")
        j.meta = None
        assert sched([j]) is j


# -------------------------------------------------------------- JobRunner


class TestJobRunner:
    def test_submit_wait_done_then_cached(self):
        runner = JobRunner(jobs=0)
        runner.start()
        try:
            job, disposition = runner.submit(SPEC)
            assert disposition == "new" and job.key == SPEC.fingerprint()
            done = runner.wait(job.key, timeout=60)
            assert done.status == "done"
            assert done.payload["result"]["parallel_steps"] > 0
            again, disposition2 = runner.submit(SPEC)
            assert disposition2 == "cached" and again.status == "done"
            assert runner.stats["cache_hits"] == 1
        finally:
            runner.close()

    def test_coalescing_shares_one_execution(self):
        runner = JobRunner(jobs=0)  # driver not started: job stays queued
        j1, d1 = runner.submit(SPEC)
        j2, d2 = runner.submit(SPEC)
        assert (d1, d2) == ("new", "coalesced")
        assert j1 is j2
        assert runner.stats["coalesced"] == 1
        runner.close()

    def test_deterministic_shedding_exact_excess(self):
        runner = JobRunner(jobs=0)
        outcomes = [
            runner.submit(RunSpec("hierarchy_sort", cell(256 + 64 * i)),
                          limit=3)[1]
            for i in range(5)
        ]
        assert outcomes == ["new", "new", "new", "shed", "shed"]
        assert runner.stats["shed"] == 2
        # ...and the admitted three all complete once the driver starts
        runner.start()
        runner.wait_idle(timeout=120)
        stats = runner.stats
        assert stats["completed"] == 3 and stats["failed"] == 0
        runner.close()

    def test_served_stats_carry_io_plan_and_memory(self):
        """A served job's out-of-band sidecar reaches the runner's
        ``stats`` exactly as a sweep's cell does: one ``stats`` for both."""
        runner = JobRunner(jobs=0)
        runner.start()
        try:
            job, _ = runner.submit(RunSpec("sort_pdm", {"n": 2000, "disks": 4}))
            assert runner.wait(job.key, timeout=60).status == "done"
            stats = runner.stats
        finally:
            runner.close()
        assert "io_plan" in stats
        assert stats["memory"]["machines"] >= 1

    def test_cancel_queued_job(self):
        runner = JobRunner(jobs=0)
        job, _ = runner.submit(SPEC)
        cancelled = runner.cancel(job.key)
        assert cancelled.status == "cancelled"
        assert runner.stats["cancelled"] == 1
        runner.close()

    def test_failed_job_carries_failure_record(self):
        plan = FaultPlan.load(
            '{"seed": 0, "rules": [{"site": "exec.task", '
            '"mode": "permanent", "at": [0]}]}'
        )
        runner = JobRunner(jobs=0, retries=1, backoff=0.0, fault_plan=plan)
        runner.start()
        try:
            job, _ = runner.submit(SPEC)
            done = runner.wait(job.key, timeout=60)
            assert done.status == "failed"
            assert done.payload["schema"] == "repro.failures/1"
            assert done.errors[-1]["type"] == "InjectedIOError"
        finally:
            runner.close()

    def test_close_leaves_queued_jobs_admitted_in_journal(self, tmp_path):
        j = SweepJournal(str(tmp_path / "j"))
        runner = JobRunner(jobs=0, journal=j, cache_dir=j.cells_dir)
        runner.submit(SPEC, meta={"tenant": "t"})
        runner.close()
        pending = SweepJournal(str(tmp_path / "j")).pending_jobs()
        assert [p["key"] for p in pending] == [SPEC.fingerprint()]
        assert pending[0]["meta"] == {"tenant": "t"}

    def test_chaos_payload_bit_identical(self):
        clean = JobRunner(jobs=0)
        clean.start()
        chaotic = JobRunner(
            jobs=0, retries=3, backoff=0.0, fault_plan=FaultPlan.load(TRANSIENT)
        )
        chaotic.start()
        try:
            k1 = clean.submit(SPEC)[0].key
            k2 = chaotic.submit(SPEC)[0].key
            p1 = clean.wait(k1, timeout=60).payload
            p2 = chaotic.wait(k2, timeout=60).payload
            assert chaotic.stats["retried"] >= 1
            assert payload_digest(p1) == payload_digest(p2)
        finally:
            clean.close()
            chaotic.close()


@pytest.mark.slow
class TestJobRunnerPool:
    """The service's pool mode on a started runner: crash retry, timeout
    preemption, and cancelling a running job (the ``cancel`` rebuild
    path).  The CI box may report one usable core, so these tests widen
    ``default_jobs`` explicitly."""

    @pytest.fixture(autouse=True)
    def _cores(self, monkeypatch):
        import repro.exec.runner as runner_mod

        monkeypatch.setattr(runner_mod, "default_jobs", lambda: 4)

    @staticmethod
    def _plan(**rule):
        rule = {"site": "exec.task", "at": [0], **rule}
        return FaultPlan.from_dict({"seed": 0, "rules": [rule]})

    @staticmethod
    def _rebuilds(obs):
        return [e["attrs"]["reason"] for e in obs.tracer.events
                if e["name"] == "runner.pool_rebuilt"]

    def test_worker_crash_rebuilds_and_retries(self):
        baseline = JobRunner(jobs=0).map([SPEC])[0].payload
        obs = Observation()
        runner = JobRunner(jobs=2, retries=1, backoff=0.0, obs=obs,
                           fault_plan=self._plan(effect="crash")).start()
        try:
            job, _ = runner.submit(SPEC)
            done = runner.wait(job.key, timeout=120)
            assert done.status == "done"
            assert done.errors[0]["type"] == "InjectedWorkerCrash"
            assert payload_digest(done.payload) == payload_digest(baseline)
            assert runner.stats["retried"] == 1
            assert self._rebuilds(obs) == ["crash"]
        finally:
            runner.close()

    def test_timeout_preempts_hung_worker(self):
        obs = Observation()
        runner = JobRunner(jobs=2, retries=1, backoff=0.0, timeout=0.6,
                           obs=obs, fault_plan=self._plan(effect="hang",
                                                          duration=5.0)).start()
        try:
            job, _ = runner.submit(SPEC)
            done = runner.wait(job.key, timeout=120)
            assert done.status == "done"
            assert done.errors[0]["type"] == "TaskTimeout"
            stats = runner.stats
            assert stats["timeouts"] == 1 and stats["retried"] == 1
            assert self._rebuilds(obs) == ["timeout"]
        finally:
            runner.close()

    def test_cancel_running_job_rebuilds_pool(self):
        obs = Observation()
        runner = JobRunner(jobs=2, obs=obs, fault_plan=self._plan(
            effect="hang", mode="permanent", duration=5.0)).start()
        try:
            job, _ = runner.submit(SPEC)
            deadline = time.monotonic() + 60
            while runner.poll(job.key).status != "running":
                assert time.monotonic() < deadline
                time.sleep(0.01)
            runner.cancel(job.key)
            done = runner.wait(job.key, timeout=60)
            assert done.status == "cancelled"
            assert runner.stats["cancelled"] == 1
            assert runner.stats["running"] == 0
            assert self._rebuilds(obs) == ["cancel"]
        finally:
            runner.close()


# ---------------------------------------------------------------- service


def service(runner=None, **kw):
    if runner is None:
        runner = JobRunner(jobs=0)
    return SortService(runner, **kw)


class TestServiceSettings:
    @pytest.mark.parametrize("kw, rule", [
        (dict(queue_limit=0), "queue must be >= 1"),
        (dict(quota_burst=0), "burst must be >= 1"),
        (dict(quota_burst=2, quota_rate=-1.0), "rate must be >= 0"),
    ], ids=["queue", "burst", "rate"])
    def test_settings_that_refuse_every_job_are_refused(self, kw, rule):
        """The check ``repro serve`` runs on its flags is the service's own."""
        with pytest.raises(ParameterError, match=rule):
            service(**kw)


class TestServiceEndToEnd:
    def test_submit_wait_then_cache_hit(self):
        svc = service()
        thread = serve_in_thread(svc)
        try:
            with ServeClient(port=thread.port) as c:
                resp = c.submit("hierarchy_sort", cell(256), wait=True, timeout=60)
                assert resp["schema"] == SERVE_SCHEMA and resp["ok"]
                job = resp["job"]
                assert job["schema"] == JOB_SCHEMA
                assert job["status"] == "done" and job["disposition"] == "new"
                assert job["result"]["parallel_steps"] > 0
                again = c.submit("hierarchy_sort", cell(256), wait=True)
                assert again["job"]["disposition"] == "cached"
                health = c.healthz()["health"]
                assert health["ok"] and health["counters"]["completed"] >= 1
                ready = c.readyz()
                assert ready["ready"] and ready["reason"] == "ok"
                stats = c.stats()["stats"]
                assert stats["schema"] == SERVE_STATS_SCHEMA
                assert stats["serve"]["admitted"] == 1
                assert stats["serve"]["cache_hits"] == 1
                assert stats["tenants"]["anon"]["submitted"] == 2
        finally:
            thread.stop()

    def test_bad_requests_are_rejected_not_fatal(self):
        svc = service()
        thread = serve_in_thread(svc)
        try:
            with ServeClient(port=thread.port) as c:
                r = c.submit("no_such_task", {})
                assert r["schema"] == REJECT_SCHEMA and r["reason"] == "bad_request"
                r = c.request({"op": "poll", "id": "deadbeef"})
                assert r["reason"] == "unknown_job"
                r = c.request({"op": "frobnicate"})
                assert r["reason"] == "bad_request"
                # a non-JSON line gets a reject, and the conn survives
                c._fh.write("not json\n")
                c._fh.flush()
                assert json.loads(c._fh.readline())["reason"] == "bad_request"
                assert c.healthz()["health"]["ok"]
        finally:
            thread.stop()

    def test_deterministic_shedding_exactly_the_excess(self):
        # hold=True: driver never starts, so the queue cannot drain
        # between submissions — shedding is exact, not racy.
        svc = service(queue_limit=3, hold=True)
        thread = serve_in_thread(svc)
        try:
            with ServeClient(port=thread.port) as c:
                outcomes = []
                for i in range(5):
                    r = c.submit("hierarchy_sort", cell(256 + 64 * i))
                    outcomes.append(
                        "shed" if r.get("reason") == "queue_full"
                        else r["job"]["disposition"]
                    )
                assert outcomes == ["new", "new", "new", "shed", "shed"]
                shed = [r for r in (c.submit("hierarchy_sort", cell(999)),)
                        if r.get("schema") == REJECT_SCHEMA]
                assert shed and shed[0]["retry_after"] > 0
                stats = c.stats()["stats"]["serve"]
                assert stats["admitted"] == 3 and stats["shed"] == 3
                # no admitted job is lost: start the driver, all complete
                svc.runner.start()
                svc.runner.wait_idle(timeout=120)
                assert svc.runner.stats["completed"] == 3
        finally:
            thread.stop()

    def test_quota_burst_exact_and_coalesced_free(self):
        svc = service(quota_burst=2, quota_rate=0.0, hold=True)
        thread = serve_in_thread(svc)
        try:
            with ServeClient(port=thread.port, tenant="hog") as hog:
                assert hog.submit("hierarchy_sort", cell(256))["ok"]
                # duplicate of an in-flight job is free (coalesced)
                dup = hog.submit("hierarchy_sort", cell(256))
                assert dup["job"]["disposition"] == "coalesced"
                assert hog.submit("hierarchy_sort", cell(320))["ok"]
                third = hog.submit("hierarchy_sort", cell(384))
                assert third["schema"] == REJECT_SCHEMA
                assert third["reason"] == "quota"
            with ServeClient(port=thread.port, tenant="polite") as polite:
                # quotas are per tenant: another tenant still has burst
                assert polite.submit("hierarchy_sort", cell(448))["ok"]
            stats = svc.stats()
            assert stats["serve"]["quota_rejected"] == 1
            assert stats["tenants"]["hog"]["quota_rejected"] == 1
            assert stats["tenants"]["polite"]["new"] == 1
        finally:
            thread.stop()

    def test_cancel_and_journal_record(self, tmp_path):
        j = SweepJournal(str(tmp_path / "j"))
        runner = JobRunner(jobs=0, journal=j, cache_dir=j.cells_dir)
        svc = service(runner, hold=True, journal=j)
        thread = serve_in_thread(svc)
        try:
            with ServeClient(port=thread.port) as c:
                job_id = c.submit("hierarchy_sort", cell(256))["job"]["id"]
                r = c.cancel(job_id)
                assert r["ok"] and r["job"]["status"] == "cancelled"
                assert c.stats()["stats"]["serve"]["cancelled"] == 1
        finally:
            thread.stop()
        statuses = [
            rec.get("status") for rec in SweepJournal(str(tmp_path / "j")).read()
            if rec.get("ev") == "job"
        ]
        assert statuses == ["admitted", "cancelled"]

    def test_bad_shape_is_a_bad_request_not_a_failed_job(self, tmp_path):
        j = SweepJournal(str(tmp_path / "j"))
        runner = JobRunner(jobs=0, journal=j, cache_dir=j.cells_dir)
        svc = service(runner, journal=j)
        thread = serve_in_thread(svc)
        try:
            with ServeClient(port=thread.port) as c:
                for task, params in (
                    ("sort_pdm", {"n": 2000, "disks": 64}),
                    ("compare_pdm", {"algorithm": "greed", "n": 100, "disks": 0}),
                    ("hierarchy_sort", {"n": 200, "h": 0}),
                    ("sort_pdm", {"disks": 4}),
                ):
                    r = c.submit(task, params)
                    assert r["schema"] == REJECT_SCHEMA, params
                    assert r["reason"] == "bad_request"
                    assert r["message"].startswith("bad spec: ")
                serve = c.stats()["stats"]["serve"]
                assert serve["bad_requests"] == 4
                assert serve["submitted"] == 0 and serve["admitted"] == 0
        finally:
            thread.stop()
        assert [rec for rec in SweepJournal(str(tmp_path / "j")).read()
                if rec.get("ev") == "job"] == []

    def test_unknown_names_are_bad_requests(self, tmp_path):
        """A workload, matcher or algorithm the task does not know, an
        explicit ``buckets`` < 2, a key the task does not declare, a value
        of the wrong type, a negative seed, or an algorithm-specific param
        on another algorithm is refused at admission, naming the key,
        never run."""
        j = SweepJournal(str(tmp_path / "j"))
        runner = JobRunner(jobs=0, journal=j, cache_dir=j.cells_dir)
        svc = service(runner, journal=j)
        thread = serve_in_thread(svc)
        probes = (
            ("sort_pdm", {"n": 100, "workload": "nope"}, "workload"),
            ("sort_pdm", {"n": 100, "matcher": "nope"}, "matcher"),
            ("sort_pdm", {"n": 100, "buckets": 1}, "buckets"),
            ("compare_pdm", {"n": 100}, "algorithm"),
            ("compare_pdm", {"n": 100, "algorithm": "zzz"}, "algorithm"),
            ("hierarchy_sort", {"n": 100, "h": 16, "workload": "nope"}, "workload"),
            ("sort_pdm", {"n": 2000, "dsks": 4}, "dsks"),
            ("sort_pdm", {"n": 2000.7}, "n"),
            ("sort_pdm", {"n": 100, "memory": "512"}, "memory"),
            ("sort_pdm", {"n": 100, "verify": "false"}, "verify"),
            ("sort_pdm", {"n": 100, "check_invariants": "no"}, "check_invariants"),
            ("sort_pdm", {"n": 100, "seed": -1}, "seed"),
            ("compare_pdm", {"n": 100, "algorithm": "greed", "virtual_disks": 3},
             "virtual_disks"),
            ("compare_pdm", {"n": 100, "algorithm": "balance", "rng_seed": 3},
             "rng_seed"),
            ("hierarchy_sort", {"n": 100, "h": 16, "memory": 512}, "memory"),
            ("hierarchy_sort", {"n": 100, "h": 16, "cost": True}, "cost"),
        )
        try:
            with ServeClient(port=thread.port) as c:
                for task, params, key in probes:
                    r = c.submit(task, params)
                    assert r["schema"] == REJECT_SCHEMA, params
                    assert r["reason"] == "bad_request"
                    assert r["message"].startswith("bad spec: ")
                    assert key in r["message"], (params, r["message"])
                serve = c.stats()["stats"]["serve"]
                assert serve["bad_requests"] == len(probes)
                assert serve["submitted"] == 0 and serve["admitted"] == 0
        finally:
            thread.stop()
        assert [rec for rec in SweepJournal(str(tmp_path / "j")).read()
                if rec.get("ev") == "job"] == []

    def test_readyz_reflects_hold_and_drain(self):
        svc = service(hold=True, drain_grace=1.5)
        thread = serve_in_thread(svc)
        try:
            with ServeClient(port=thread.port) as c:
                ready = c.readyz()
                assert not ready["ready"] and ready["reason"] == "held"
                # a held job keeps the grace window open so the
                # draining-reject path is observable on this connection
                assert c.submit("hierarchy_sort", cell(256))["ok"]
                r = c.drain()
                assert r["ok"] and r["draining"]
                rej = c.submit("hierarchy_sort", cell(320))
                assert rej["schema"] == REJECT_SCHEMA
                assert rej["reason"] == "draining"
                ready = c.readyz()
                assert not ready["ready"] and ready["reason"] == "draining"
            thread.join(timeout=10)
        finally:
            thread.stop()

    def test_drain_restart_resume_completes_admitted_jobs(self, tmp_path):
        jdir = str(tmp_path / "j")
        j1 = SweepJournal(jdir)
        runner1 = JobRunner(jobs=0, journal=j1, cache_dir=j1.cells_dir)
        svc1 = service(runner1, hold=True, journal=j1, drain_grace=0.1)
        thread1 = serve_in_thread(svc1)
        keys = []
        try:
            with ServeClient(port=thread1.port, tenant="t") as c:
                for n in (256, 320):
                    keys.append(c.submit("hierarchy_sort", cell(n))["job"]["id"])
            thread1.drain()
            thread1.join(timeout=10)
        finally:
            runner1.close()
        pending = SweepJournal(jdir).pending_jobs()
        assert sorted(p["key"] for p in pending) == sorted(keys)

        # next incarnation: same journal + cache, driver live, --resume
        j2 = SweepJournal(jdir)
        runner2 = JobRunner(jobs=0, journal=j2, cache_dir=j2.cells_dir)
        svc2 = service(runner2, journal=j2, resume=True)
        thread2 = serve_in_thread(svc2)
        try:
            assert svc2.resumed == 2
            with ServeClient(port=thread2.port) as c:
                for key in keys:
                    r = c.wait(key, timeout=120)
                    assert r["ok"] and r["job"]["status"] == "done"
                stats = c.stats()["stats"]
                assert stats["serve"]["resumed"] == 2
                assert stats["runner"]["completed"] == 2
        finally:
            thread2.stop()
        assert not SweepJournal(jdir).pending_jobs()

    def test_serve_spans_and_log_shape(self, tmp_path):
        log_path = str(tmp_path / "serve.log.jsonl")
        obs = Observation()
        svc = service(obs=obs, log_path=log_path)
        thread = serve_in_thread(svc)
        try:
            with ServeClient(port=thread.port) as c:
                c.submit("hierarchy_sort", cell(256), wait=True, timeout=60)
        finally:
            thread.stop()
        names = [e["name"] for e in obs.tracer.events]
        assert "serve.job" in names
        events = [json.loads(line) for line in open(log_path)]
        assert all(e["src"] == "serve" for e in events)
        evs = [e["ev"] for e in events]
        assert evs[0] == "serve_start" and evs[-1] == "serve_stop"
        assert "admit" in evs and "job_finish" in evs
        counters = obs.registry.export()["serve"]["counters"]
        assert counters["admitted"] == 1 and counters["completed"] == 1


class TestServeChaosDrill:
    """The service-grade chaos-determinism gate (fast single-cell here;
    the full grid drill runs in CI, nightly under ``-m chaos``)."""

    def test_transient_faults_bit_identical_payload(self):
        baseline = JobRunner(jobs=0).map([SPEC])[0].payload
        runner = JobRunner(
            jobs=0, retries=3, backoff=0.0,
            fault_plan=FaultPlan.load(TRANSIENT),
        )
        svc = service(runner)
        thread = serve_in_thread(svc)
        try:
            with ServeClient(port=thread.port) as c:
                resp = c.submit(
                    "hierarchy_sort", cell(256), wait=True, include="payload",
                    timeout=120,
                )
                assert resp["job"]["status"] == "done"
                assert runner.stats["retried"] >= 1
                assert payload_digest(resp["job"]["payload"]) == \
                    payload_digest(baseline)
        finally:
            thread.stop()

    @pytest.mark.chaos
    def test_live_drill_grid_under_faults_and_quota(self, tmp_path):
        """Nightly drill: a quota'd, fault-injected service serving a
        grid of jobs still produces payloads bit-identical to the
        fault-free serial baseline, while shedding and quota pressure
        reject deterministically and lose nothing."""
        specs = [RunSpec("hierarchy_sort", cell(n)) for n in
                 (256, 320, 384, 448)]
        baseline = {
            s.fingerprint(): out.payload
            for s, out in zip(specs, JobRunner(jobs=0).map(specs))
        }
        plan = FaultPlan.load(
            '{"seed": 33, "rules": ['
            '{"site": "exec.task", "rate": 0.5, "seed": 3}, '
            '{"site": "store.read", "at": [3], "seed": 4}]}'
        )
        j = SweepJournal(str(tmp_path / "j"))
        runner = JobRunner(
            jobs=0, retries=4, backoff=0.0, fault_plan=plan,
            journal=j, cache_dir=j.cells_dir,
            scheduler=FairShareScheduler(),
        )
        svc = service(runner, quota_burst=3, quota_rate=50.0, queue_limit=2)
        thread = serve_in_thread(svc)
        try:
            with ServeClient(port=thread.port, tenant="drill") as c:
                ids = []
                for s in specs:
                    resp = c.submit_admitted(
                        s.task, dict(s.params), retries=200, max_sleep=0.2
                    )
                    ids.append(resp["job"]["id"])
                for s, job_id in zip(specs, ids):
                    r = c.wait(job_id, timeout=120, include="payload")
                    assert r["job"]["status"] == "done"
                    assert payload_digest(r["job"]["payload"]) == \
                        payload_digest(baseline[job_id])
                stats = c.stats()["stats"]
            assert stats["runner"]["retried"] >= 1
            assert stats["runner"]["failed"] == 0
            # every admission is accounted for: nothing lost
            serve = stats["serve"]
            assert serve["admitted"] == len(specs)
            assert serve["completed"] == len(specs)
        finally:
            thread.stop()


# -------------------------------------------------------------------- CLI


class TestServeCLI:
    def test_fault_plan_parse_error_exits_two(self, capsys):
        rc = main(["serve", "--fault-plan", '{"seed": "nope"'])
        assert rc == 2
        assert "fault" in capsys.readouterr().err.lower()

    def test_resume_requires_journal(self, capsys):
        rc = main(["serve", "--resume"])
        assert rc == 2
        assert "--resume requires --journal" in capsys.readouterr().err

    def test_submit_has_no_jobs_flag(self, capsys):
        """``submit`` runs nothing itself: ``--jobs`` is an unknown flag."""
        with pytest.raises(SystemExit) as exit_:
            main(["submit", "--port", "1", "--jobs", "2", "--task",
                  "hierarchy", "--n", "256", "--h", "16"])
        assert exit_.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_sweep_and_serve_runner_blocks_share_keys(self, tmp_path, capsys):
        """One runner, one ``stats``: the runner block of a sweep's
        ``--stats-json`` and of a service's stats have the same keys."""
        stats_json = tmp_path / "sweep_stats.json"
        grid = ["--task", "sort", "--n", "2000", "--disks", "4"]
        assert main(["sweep", *grid, "--stats-json", str(stats_json)]) == 0
        svc = service()
        thread = serve_in_thread(svc)
        try:
            assert main(["submit", "--port", str(thread.port), *grid]) == 0
        finally:
            thread.stop()
        capsys.readouterr()
        swept = json.loads(stats_json.read_text())["runner"]
        served = svc.stats()["runner"]
        assert served.keys() == swept.keys()
        assert served["memory"]["machines"] == swept["memory"]["machines"] == 1
        assert served["io_plan"] == swept["io_plan"]

    def test_submit_unreachable_service_exits_two(self, capsys):
        rc = main(["submit", "--port", "1", "--task", "hierarchy",
                   "--n", "256", "--h", "16"])
        assert rc == 2
        assert "cannot connect" in capsys.readouterr().err

    def test_submit_against_live_service_matches_sweep(
        self, tmp_path, capsys
    ):
        """The canary gate in miniature: ``repro submit`` output diffs
        clean at threshold 0 against ``repro sweep`` of the same grid."""
        sweep_json = str(tmp_path / "sweep.json")
        submit_json = str(tmp_path / "submit.json")
        grid = ["--task", "hierarchy", "--n", "256,320", "--h", "16"]
        assert main(["sweep", *grid, "--emit-json", sweep_json]) == 0

        svc = service()
        thread = serve_in_thread(svc)
        try:
            rc = main([
                "submit", "--port", str(thread.port), *grid,
                "--emit-json", submit_json,
                "--stats-json", str(tmp_path / "stats.json"),
            ])
            cap = capsys.readouterr()
            assert rc == 0
            assert "jobs=2 new=2" in cap.err
            rc = main([
                "diff", submit_json, sweep_json, "--threshold", "0",
                "--strict", "--ignore", "command", "--ignore", "*.cached",
            ])
            assert rc == 0, capsys.readouterr().out
            stats = json.load(open(tmp_path / "stats.json"))
            assert stats["schema"] == "repro.submit_stats/1"
            assert stats["client"]["dispositions"]["new"] == 2
            assert stats["serve"]["serve"]["completed"] == 2
        finally:
            thread.stop()

    def test_submit_no_wait_enqueues_only(self, tmp_path, capsys):
        svc = service(hold=True)
        thread = serve_in_thread(svc)
        try:
            rc = main([
                "submit", "--port", str(thread.port), "--task", "hierarchy",
                "--n", "256", "--h", "16", "--no-wait",
            ])
            cap = capsys.readouterr()
            assert rc == 0
            assert "not waiting" in cap.err
            assert svc.runner.active_count() == 1
        finally:
            thread.stop()
