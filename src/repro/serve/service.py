"""The sort service: an asyncio JSONL front-end over the exec layer.

``SortService`` binds a TCP port (``asyncio.start_server``; port 0 =
ephemeral) and speaks the one-JSON-object-per-line protocol of
:mod:`repro.serve.protocol`.  Many concurrent clients submit sort /
compare / hierarchy jobs; the service runs them through a
:class:`~repro.exec.JobRunner` with the full admission pipeline::

    draining? → quota (token bucket, new executions only) → coalesce /
    cache / bounded queue (deterministic load shedding) → execute →
    journal checkpoint → respond

Robustness properties, all testable deterministically:

* **Load shedding** — with a queue bound of Q, exactly the submissions
  beyond the Q active jobs receive ``repro.reject/1`` (reason
  ``queue_full``); an admitted job is never dropped: it completes,
  fails with a structured record, is cancelled on request, or — after a
  SIGTERM drain — is resumed from the journal by the next incarnation.
* **Coalescing** — the job id is the spec fingerprint, so identical
  in-flight submissions share one execution and warm specs are served
  straight from the content-hashed ResultCache.
* **Chaos drills** — attach a seeded ``FaultPlan`` to the runner and
  every response payload stays bit-identical to the fault-free serial
  sweep (``repro diff --threshold 0 --strict``), because payloads are
  pure functions of ``(task, params)`` and faults are pure functions of
  ``(plan, cell, attempt)``.
* **Graceful drain** — SIGTERM (wired by the CLI) stops accepting,
  waits up to ``drain_grace`` seconds for in-flight work, and exits;
  queued jobs stay ``admitted`` in the journal and are resubmitted on
  restart (``repro serve --journal DIR --resume``).

Observability: ``serve.*`` counters and a ``queue_depth`` gauge under
the obs registry, one ``serve.job`` span per executed job (request
timelines in ``repro export-trace``), a ``repro.serve/1`` structured
log (:class:`~repro.obs.telemetry.TelemetryWriter` JSONL), and the
``repro.serve_stats/1`` counter document for ``--stats-json``, the
run-history index, and the dashboard's service-health section.

Blocking-call note: admission touches the cache (one small JSON read)
and the journal (one fsynced append) on the event-loop thread.  Both
are tiny compared to a simulation and keep the service stdlib-only and
single-threaded on the control path — the documented trade.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time

from ..exceptions import ParameterError
from ..exec import JobRunner, RunSpec, check_spec, task_names
from ..obs.telemetry import TelemetryWriter
from .protocol import (
    SERVE_SCHEMA,
    SERVE_STATS_SCHEMA,
    job_record,
    reject,
    response,
)
from .quota import TokenBucket, check_quota

__all__ = [
    "SortService", "ServiceThread", "check_service_options", "serve_in_thread",
]

#: Longest accepted request line (bytes); longer lines are rejected.
LINE_LIMIT = 1 << 20


def check_service_options(
    queue_limit: int, quota_burst: int | None, quota_rate: float
) -> None:
    """Refuse settings that would refuse every job (:class:`ParameterError`):
    a queue bound below 1 sheds every submission, and a quota no
    submission can pass rejects each one.  ``SortService`` applies it at
    construction; ``repro serve`` before it listens."""
    if queue_limit < 1:
        raise ParameterError(f"queue must be >= 1, got {queue_limit}")
    check_quota(quota_burst, quota_rate)


class SortService:
    """One service instance wrapping a :class:`~repro.exec.JobRunner`.

    Parameters mirror the ``repro serve`` CLI surface; see the module
    docstring for semantics.  ``hold=True`` is the admission-only mode
    used by drain/resume drills and the deterministic shedding tests:
    jobs queue and journal but the execution driver never starts.
    """

    def __init__(
        self,
        runner: JobRunner,
        host: str = "127.0.0.1",
        port: int = 0,
        queue_limit: int = 64,
        quota_burst: int | None = None,
        quota_rate: float = 0.0,
        obs=None,
        log_path: str | None = None,
        journal=None,
        resume: bool = False,
        drain_grace: float = 30.0,
        retry_after: float = 1.0,
        hold: bool = False,
        port_file: str | None = None,
    ):
        check_service_options(queue_limit, quota_burst, quota_rate)
        self.runner = runner
        self.host = host
        self.port = port
        self.queue_limit = queue_limit
        self.quota_burst = quota_burst
        self.quota_rate = quota_rate
        self.journal = journal
        self.resume = resume
        self.drain_grace = drain_grace
        self.retry_after = retry_after
        self.hold = hold
        self.port_file = port_file
        self._obs = obs
        self._scope = obs.scope("serve") if obs is not None else None
        self._log = TelemetryWriter(log_path, source="serve") if log_path else None
        self._buckets: dict[str, TokenBucket] = {}
        self._tenants: dict[str, dict] = {}
        self._waiters: dict[str, list] = {}
        self._spans: dict[str, object] = {}
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.AbstractServer | None = None
        self._stopped: asyncio.Event | None = None
        self._drain_task = None
        self.draining = False
        self.drain_seconds: float | None = None
        self.resumed = 0
        self.started_at: float | None = None
        self._ready = threading.Event()
        #: Optional zero-arg callback invoked once the socket is bound
        #: (the CLI prints its "listening" line here).
        self.on_ready = None
        # Service-level counters (event-loop thread only).
        self.counters = {
            "requests": 0,
            "submitted": 0,
            "admitted": 0,
            "coalesced": 0,
            "cache_hits": 0,
            "shed": 0,
            "quota_rejected": 0,
            "bad_requests": 0,
            "completed": 0,
            "failed": 0,
            "cancelled": 0,
        }
        runner.add_listener(self._on_job_transition)

    # ------------------------------------------------------------ plumbing

    def _count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n
        if self._scope is not None:
            self._scope.counter(name).inc(n)

    def _gauge_depth(self) -> None:
        if self._scope is not None:
            self._scope.gauge("queue_depth").set(self.runner.active_count())

    def _event(self, name: str, **fields) -> None:
        if self._obs is not None:
            self._obs.event(name, **fields)
        if self._log is not None:
            self._log.emit(name, **fields)

    def _tenant(self, doc: dict) -> str:
        tenant = doc.get("tenant")
        return tenant if isinstance(tenant, str) and tenant else "anon"

    def _tenant_count(self, tenant: str, name: str) -> None:
        bucket = self._tenants.setdefault(tenant, {})
        bucket[name] = bucket.get(name, 0) + 1

    # -------------------------------------------------- runner transitions

    def _on_job_transition(self, job, status: str) -> None:
        """Runner listener (driver thread, runner lock held): hop to the loop."""
        if not job.terminal:
            return
        loop = self._loop
        if loop is None or loop.is_closed():
            return
        try:
            loop.call_soon_threadsafe(self._job_terminal, job.key, status)
        except RuntimeError:  # pragma: no cover - loop tearing down
            pass

    def _job_terminal(self, key: str, status: str) -> None:
        """Loop-thread bookkeeping for one finished job."""
        if status == "done":
            self._count("completed")
        elif status == "failed":
            self._count("failed")
        else:
            self._count("cancelled")
        span = self._spans.pop(key, None)
        if span is not None:
            span.__exit__(None, None, None)
        self._event("job_finish", key=key[:16], status=status)
        self._gauge_depth()
        for fut in self._waiters.pop(key, []):
            if not fut.done():
                fut.set_result(True)

    async def _wait_job(self, key: str, timeout: float | None):
        job = self.runner.poll(key)
        if job is None or job.terminal:
            return job
        fut = self._loop.create_future()
        self._waiters.setdefault(key, []).append(fut)
        try:
            await asyncio.wait_for(fut, timeout)
        except asyncio.TimeoutError:
            waiters = self._waiters.get(key, [])
            if fut in waiters:
                waiters.remove(fut)
        return self.runner.poll(key)

    # ----------------------------------------------------------- admission

    def _admit(self, doc: dict) -> dict:
        """The submit pipeline: drain → validate → quota → runner.submit."""
        if self.draining:
            return reject(
                "submit", "draining",
                "service is draining; resubmit to the next incarnation",
                retry_after=self.drain_grace,
            )
        task = doc.get("task")
        params = doc.get("params", {})
        if task not in task_names():
            self._count("bad_requests")
            return reject(
                "submit", "bad_request",
                f"unknown task {task!r} (expected one of {sorted(task_names())})",
            )
        if not isinstance(params, dict):
            self._count("bad_requests")
            return reject("submit", "bad_request", "params must be an object")
        try:
            check_spec(task, params)
        except (KeyError, TypeError, ValueError) as exc:
            self._count("bad_requests")
            return reject(
                "submit", "bad_request", f"bad spec: {type(exc).__name__}: {exc}"
            )
        spec = RunSpec(task, params)
        key = spec.fingerprint()
        tenant = self._tenant(doc)
        self._count("submitted")
        self._tenant_count(tenant, "submitted")
        # Quotas charge only work that will consume execution capacity:
        # coalesced joins and warm cache hits are free.  All submissions
        # run on the loop thread, so probe → submit cannot interleave
        # with another admission.
        if self.quota_burst is not None and self.runner.probe(key) is None:
            bucket = self._buckets.get(tenant)
            if bucket is None:
                bucket = self._buckets[tenant] = TokenBucket(
                    self.quota_burst, self.quota_rate
                )
            ok, retry = bucket.take(time.monotonic())
            if not ok:
                self._count("quota_rejected")
                self._tenant_count(tenant, "quota_rejected")
                self._event("quota_reject", tenant=tenant, key=key[:16])
                return reject(
                    "submit", "quota",
                    f"tenant {tenant!r} is out of quota "
                    f"(burst {self.quota_burst}, rate {self.quota_rate}/s)",
                    retry_after=retry,
                )
        job, disposition = self.runner.submit(
            spec, meta={"tenant": tenant}, limit=self.queue_limit
        )
        if disposition == "shed":
            self._count("shed")
            self._tenant_count(tenant, "shed")
            self._event("shed", tenant=tenant, key=key[:16])
            self._gauge_depth()
            return reject(
                "submit", "queue_full",
                f"admission queue is full ({self.queue_limit} active jobs)",
                retry_after=self.retry_after,
            )
        self._count(
            {"new": "admitted", "coalesced": "coalesced", "cached": "cache_hits"}[
                disposition
            ]
        )
        self._tenant_count(tenant, disposition)
        self._event(
            "admit", tenant=tenant, key=key[:16], disposition=disposition
        )
        self._gauge_depth()
        if disposition == "new" and self._obs is not None:
            span = self._obs.span("serve.job", key=key[:16], tenant=tenant)
            span.__enter__()
            self._spans[key] = span
        return response(
            "submit",
            job=job_record(job, disposition, include=doc.get("include", "result")),
        )

    # ------------------------------------------------------------ requests

    async def _handle_request(self, doc: dict) -> dict:
        self._count("requests")
        op = doc.get("op")
        if op == "submit":
            resp = self._admit(doc)
            if resp.get("ok") and doc.get("wait"):
                key = resp["job"]["id"]
                timeout = doc.get("timeout", 60.0)
                job = await self._wait_job(key, timeout)
                if job is not None:
                    resp["job"] = job_record(
                        job,
                        resp["job"].get("disposition"),
                        include=doc.get("include", "result"),
                    )
            return resp
        if op in ("poll", "wait", "cancel"):
            key = doc.get("id")
            if not isinstance(key, str):
                return reject(op, "bad_request", "missing job id")
            if op == "wait":
                job = await self._wait_job(key, doc.get("timeout", 60.0))
            elif op == "cancel":
                job = self.runner.cancel(key)
            else:
                job = self.runner.poll(key)
            if job is None:
                return reject(op, "unknown_job", f"no job {key[:16]}… on this service")
            return response(
                op, job=job_record(job, include=doc.get("include", "result"))
            )
        if op == "healthz":
            return response("healthz", health=self.healthz())
        if op == "readyz":
            ready, reason = self.readyz()
            return response("readyz", ready=ready, reason=reason)
        if op == "stats":
            return response("stats", stats=self.stats())
        if op == "drain":
            self.request_drain()
            return response("drain", draining=True, grace=self.drain_grace)
        self._count("bad_requests")
        return reject(str(op), "bad_request", f"unknown op {op!r}")

    async def _send(self, writer: asyncio.StreamWriter, doc: dict) -> None:
        writer.write(json.dumps(doc, separators=(",", ":")).encode() + b"\n")
        await writer.drain()

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    self._count("bad_requests")
                    await self._send(
                        writer,
                        reject("?", "bad_request", "request line too long"),
                    )
                    break
                if not line:
                    break
                line = line.strip()
                if not line:
                    continue
                try:
                    doc = json.loads(line)
                    if not isinstance(doc, dict):
                        raise ValueError("request must be a JSON object")
                except ValueError as exc:
                    self._count("bad_requests")
                    await self._send(
                        writer, reject("?", "bad_request", f"bad request: {exc}")
                    )
                    continue
                try:
                    resp = await self._handle_request(doc)
                except Exception as exc:  # noqa: BLE001 - never kill the conn loop
                    resp = reject(
                        str(doc.get("op")), "bad_request",
                        f"{type(exc).__name__}: {exc}",
                    )
                await self._send(writer, resp)
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except Exception:  # pragma: no cover - peer already gone
                pass

    # -------------------------------------------------------------- probes

    def healthz(self) -> dict:
        """Liveness: the process is up; counters ride along."""
        return {
            "ok": True,
            "draining": self.draining,
            "uptime": (
                round(time.monotonic() - self.started_at, 3)
                if self.started_at is not None
                else None
            ),
            "counters": dict(self.counters),
            "cache": self.runner.cache.stats,
        }

    def readyz(self) -> tuple[bool, str]:
        """Readiness: accepting *and* able to make progress."""
        if self.draining:
            return False, "draining"
        if not self.runner.driver_alive:
            if self.runner.driver_error:
                return False, f"driver died: {self.runner.driver_error}"
            return False, "held" if self.hold else "driver not started"
        return True, "ok"

    def stats(self) -> dict:
        """The ``repro.serve_stats/1`` counter document."""
        doc = {
            "schema": SERVE_STATS_SCHEMA,
            "serve": {
                **self.counters,
                "queue_depth": self.runner.active_count(),
                "queue_limit": self.queue_limit,
                "quota_burst": self.quota_burst,
                "quota_rate": self.quota_rate,
                "draining": self.draining,
                "drain_seconds": self.drain_seconds,
                "resumed": self.resumed,
                "port": self.port,
            },
            "tenants": {t: dict(c) for t, c in sorted(self._tenants.items())},
            "runner": self.runner.stats,
        }
        if self.journal is not None:
            doc["journal"] = self.journal.stats
        return doc

    # ---------------------------------------------------------- lifecycle

    def resume_pending(self) -> int:
        """Resubmit every admitted-but-unfinished journalled job."""
        if self.journal is None:
            return 0
        resumed = 0
        for record in self.journal.pending_jobs():
            task = record.get("task")
            if task not in task_names():
                continue
            spec = RunSpec(task, dict(record.get("params") or {}))
            meta = dict(record.get("meta") or {})
            job, disposition = self.runner.submit(spec, meta=meta)
            resumed += 1
            self._event(
                "resume", key=job.key[:16], disposition=disposition,
                tenant=meta.get("tenant", "anon"),
            )
        self.resumed = resumed
        return resumed

    def request_drain(self) -> None:
        """Begin a graceful drain (idempotent; loop thread only)."""
        if self._drain_task is None and self._loop is not None:
            self._drain_task = self._loop.create_task(self._drain())

    async def _drain(self) -> None:
        t0 = time.monotonic()
        self.draining = True
        self._event("drain_begin", active=self.runner.active_count())
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        deadline = t0 + self.drain_grace
        while time.monotonic() < deadline and self.runner.active_count() > 0:
            await asyncio.sleep(0.02)
        self.drain_seconds = round(time.monotonic() - t0, 3)
        self._event(
            "drain_end",
            seconds=self.drain_seconds,
            remaining=self.runner.active_count(),
        )
        if self._stopped is not None:
            self._stopped.set()

    def stop(self) -> None:
        """Stop serving without a drain (tests; loop thread only)."""
        if self._stopped is not None:
            self._stopped.set()

    async def run(self) -> None:
        """Bind, serve, and block until stopped or drained."""
        self._loop = asyncio.get_running_loop()
        self._stopped = asyncio.Event()
        self.started_at = time.monotonic()
        if not self.hold:
            self.runner.start()
        if self.resume:
            self.resume_pending()
        self._server = await asyncio.start_server(
            self._handle_conn, host=self.host, port=self.port, limit=LINE_LIMIT
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.port_file:
            with open(self.port_file, "w") as fh:
                fh.write(f"{self.port}\n")
        self._event(
            "serve_start",
            schema=SERVE_SCHEMA,
            host=self.host,
            port=self.port,
            queue_limit=self.queue_limit,
            quota_burst=self.quota_burst,
            quota_rate=self.quota_rate,
            hold=self.hold,
            resumed=self.resumed,
        )
        self._ready.set()
        if self.on_ready is not None:
            self.on_ready()
        try:
            await self._stopped.wait()
        finally:
            if self._server is not None:
                self._server.close()
                await self._server.wait_closed()
            # End any job spans still open so the trace is well-formed.
            for key in list(self._spans):
                span = self._spans.pop(key)
                span.__exit__(None, None, None)
            self._event("serve_stop", counters=dict(self.counters))
            if self._log is not None:
                self._log.close()
            self._ready.clear()

    # ------------------------------------------------- cross-thread helpers

    def call_threadsafe(self, fn, *args) -> None:
        """Schedule ``fn(*args)`` on the service loop from any thread."""
        loop = self._loop
        if loop is not None and not loop.is_closed():
            loop.call_soon_threadsafe(fn, *args)


class ServiceThread:
    """Run a :class:`SortService` on a background thread (test harness)."""

    def __init__(self, service: SortService):
        self.service = service
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )
        self._error: BaseException | None = None

    def _run(self) -> None:
        try:
            asyncio.run(self.service.run())
        except BaseException as exc:  # pragma: no cover - surfaced on join
            self._error = exc

    def start(self, timeout: float = 10.0) -> "ServiceThread":
        """Start the thread and wait until the service is listening."""
        self._thread.start()
        if not self.service._ready.wait(timeout):
            raise RuntimeError(f"service did not become ready: {self._error!r}")
        return self

    @property
    def port(self) -> int:
        return self.service.port

    def drain(self) -> None:
        """Request a graceful drain from any thread."""
        self.service.call_threadsafe(self.service.request_drain)

    def stop(self, timeout: float = 10.0) -> None:
        """Stop without draining and join the thread."""
        self.service.call_threadsafe(self.service.stop)
        self.join(timeout)

    def join(self, timeout: float = 10.0) -> None:
        """Join the thread, re-raising any error the service hit."""
        self._thread.join(timeout)
        if self._error is not None:
            raise self._error


def serve_in_thread(service: SortService, timeout: float = 10.0) -> ServiceThread:
    """Start ``service`` on a daemon thread and wait until it is listening."""
    return ServiceThread(service).start(timeout)
