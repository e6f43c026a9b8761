"""The exec layer's one job runner: shard independent simulation runs.

Every benchmark grid (E1–E13), ``repro compare`` sweep, and workload
matrix is a list of *independent* deterministic simulations — exactly the
shape Rahn–Sanders–Singler exploit when they turn an external-sort
algorithm into a system: the engineering is in the execution layer, not
the algorithm.  :class:`JobRunner` is that layer for this repo; a batch
calls its :meth:`~JobRunner.map` (a spec list to results in spec order)
and a service its ``submit``/``poll``/``cancel``:

* **sharding** — jobs run in a ``ProcessPoolExecutor`` (``jobs``
  workers); each worker re-creates the simulation from its
  :class:`RunSpec` (task name + params), so nothing unpicklable crosses
  the process boundary;
* **content-hashed cache** — every cell is fingerprinted
  (:mod:`repro.exec.fingerprint`); hits skip execution entirely
  (:mod:`repro.exec.cache`), and identical specs in flight coalesce
  into one job;
* **deterministic ordering** — ``map`` returns results in spec order no
  matter which worker finished first, so tables and reports are
  bit-identical to a serial run;
* **observability merging** — per-run metrics/trace payloads fold into a
  single registry / trace via :mod:`repro.exec.merge`;
* **failure isolation** — with ``retries``/``timeout`` configured, a
  fault (injected or real) in one cell never takes down the sweep: the
  attempt is retried with deterministic exponential backoff, a crashed
  worker triggers a pool rebuild that resubmits innocent cells *at the
  same attempt number* (crash attribution via
  :func:`~repro.resilience.exec_decision`), and a cell that exhausts its
  budget becomes a structured ``repro.failures/1`` payload instead of a
  traceback.  Failure payloads are **never cached** — a re-run retries
  them.

There is one serial driver and one pool driver.  ``jobs=None`` or
``jobs<=1`` runs serially in-process (no pool, no pickling) but through
the same cache, retry, and payload path, which is what makes
serial-vs-parallel bit-identity testable — including under a seeded
:class:`~repro.resilience.FaultPlan` (the chaos-determinism gate of
``docs/resilience.md``).  A service starts the driver on a background
thread (:meth:`JobRunner.start`); ``map`` runs it on the calling thread
(:meth:`JobRunner.run_until_idle`), so a serial sweep executes every
attempt on the thread that called it.

Completed payloads are written to the cache **as each job lands**, so
a ``KeyboardInterrupt`` (or SIGKILL) mid-sweep leaves every finished
cell cached: the interrupted sweep is warm on restart.  The interrupt
handler additionally drains any already-completed-but-unprocessed
futures into the cache before shutting the pool down with
``cancel_futures=True`` and re-raising.
"""

from __future__ import annotations

import bisect
import os
import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Callable, Iterable

from ..exceptions import (
    InjectedWorkerCrash,
    ParameterError,
    PoisonedPayloadError,
    TaskTimeout,
)
from ..obs import ROUND_EVENTS
from ..obs.memory import peak_rss_kb
from ..obs.telemetry import PROGRESS_SCHEMA, TelemetryWriter, activate_telemetry
from ..pdm.machine import collect_machines, merge_sidecars
from ..resilience import FaultInjector, activate, exec_decision, grid_fingerprint
from .cache import ResultCache
from .fingerprint import fingerprint
from .tasks import payload_ok, run_task

__all__ = [
    "RunSpec",
    "RunResult",
    "ParallelRunner",
    "Job",
    "JobRunner",
    "grid",
    "FAILURES_SCHEMA",
    "DEFAULT_BACKOFF_MAX",
    "check_runner_options",
    "error_record",
    "failure_payload",
]

#: Schema tag of the structured payload a cell gets when it exhausts its
#: retry budget.  Failure payloads are never cached and never carry a
#: ``result`` — downstream consumers must branch on :attr:`RunResult.failed`.
FAILURES_SCHEMA = "repro.failures/1"

#: Schema tag a ``corrupt``-mode ``exec.task`` fault stamps on its poisoned
#: payload — guaranteed to fail the runner's schema validation.
_POISON_SCHEMA = "repro.poisoned/0"

#: The reserved payload key a task's out-of-band telemetry rides back
#: under (see :func:`_execute`); popped by :meth:`JobRunner._unpack`.
_SIDECAR = "_sidecar"

#: Default cap on the *total* deterministic-backoff delay one cell may
#: accumulate across its retries.  Without a cap, a permanent-fault plan
#: with a generous retry budget waits ``backoff · (2^k - 1)`` per cell —
#: minutes of dead air for payloads that were never going to arrive.
DEFAULT_BACKOFF_MAX = 5.0

#: How often the pool driver wakes to notice deadlines, cancels, backoffs
#: that expired and (on a service) newly admitted jobs.
_POLL_S = 0.05


def check_runner_options(
    retries: int = 0, timeout: float | None = None, backoff: float = 0.0,
    backoff_max: float | None = None, jobs: int | None = None,
) -> None:
    """Refuse worker and retry settings no run can use (:class:`ParameterError`).

    :class:`JobRunner` applies it at construction; ``repro sweep``,
    ``repro serve`` and ``repro bench record`` apply it to their flags
    before anything runs.  ``jobs`` 0 or ``None`` means serial.
    """
    if jobs is not None and jobs < 0:
        raise ParameterError(f"jobs must be >= 0, got {jobs}")
    if retries < 0:
        raise ParameterError(f"retries must be >= 0, got {retries}")
    if timeout is not None and timeout <= 0:
        raise ParameterError(f"timeout must be > 0, got {timeout}")
    if backoff < 0:
        raise ParameterError(f"backoff must be >= 0, got {backoff}")
    if backoff_max is not None and backoff_max < 0:
        raise ParameterError(f"backoff_max must be >= 0, got {backoff_max}")


def error_record(attempt: int, exc: BaseException) -> dict:
    """One structured entry in a cell's error history."""
    return {
        "attempt": attempt,
        "type": type(exc).__name__,
        "message": str(exc),
    }


def failure_payload(
    task: str, params: dict, key: str, errors: list[dict], retries: int
) -> dict:
    """The structured ``repro.failures/1`` record for an exhausted cell."""
    return {
        "schema": FAILURES_SCHEMA,
        "task": task,
        "params": dict(params),
        "key": key,
        "attempts": len(errors),
        "retries": retries,
        "error": errors[-1],
        "errors": errors,
    }


@dataclass(frozen=True)
class RunSpec:
    """One grid cell: a registered task name plus its parameter dict."""

    task: str
    params: dict = field(default_factory=dict)

    def fingerprint(self) -> str:
        """The cell's content hash (cache key)."""
        return fingerprint(self.task, self.params)


@dataclass
class RunResult:
    """One executed (or cache-served) grid cell, in spec order.

    ``failed=True`` marks a cell that exhausted its retry budget; its
    ``payload`` is then a ``repro.failures/1`` record (no ``result``).
    """

    spec: RunSpec
    payload: dict
    cached: bool = False
    key: str = ""
    failed: bool = False

    @property
    def result(self) -> dict:
        """The task's result summary (``payload["result"]``)."""
        return self.payload["result"]

    @property
    def error(self) -> dict | None:
        """The final-attempt error of a failed cell (or None)."""
        return self.payload.get("error") if self.failed else None


def grid(**axes) -> list[dict]:
    """The cartesian product of parameter axes, in deterministic order.

    ``grid(n=[4000, 16000], disks=[4, 8])`` yields four dicts; the last
    axis varies fastest (row-major over the axes in keyword order).
    Scalar values are broadcast as single-value axes.
    """
    cells: list[dict] = [{}]
    for name, values in axes.items():
        if not isinstance(values, (list, tuple)):
            values = [values]
        cells = [{**cell, name: v} for cell in cells for v in values]
    return cells


def _execute(
    task: str,
    params: dict,
    plan=None,
    cell: str = "",
    attempt: int = 0,
    in_worker: bool = False,
    telemetry: str | None = None,
) -> dict:
    """Worker entry point (top-level, hence picklable).

    With a fault plan attached, one :class:`FaultInjector` scoped to this
    ``(cell, attempt)`` is installed as the ambient injector for the
    duration of the task: the exec gate fires first (raise / crash /
    hang), then every :class:`~repro.pdm.machine.ParallelDiskMachine` the
    task builds picks the injector up for ``store.*`` faults.  The
    injector deliberately carries **no observation** — task payloads must
    stay pure functions of ``(task, params)``, so chaos instrumentation
    never leaks into them (the chaos-determinism guarantee).

    With a ``telemetry`` path attached, a per-attempt
    :class:`~repro.obs.telemetry.TelemetryWriter` (its own append handle
    on the shared progress file) is installed as the ambient channel, so
    :func:`run_task` tees throttled phase progress into it.  Telemetry is
    an *observer* of the tracer stream, never an input — the payload is
    byte-identical with it on or off.

    Every machine the task builds is collected ambiently, and its
    out-of-band telemetry rides back under the reserved ``_sidecar`` key:
    the physical I/O-plan counters (``io_plan``) and the memory gauges
    (``memory``: arena occupancy high waters, the internal-memory ledger
    peak, worker peak RSS).  The runner pops that key before the payload
    is validated, cached, or returned, so payload purity is untouched
    (cache bytes and results never see it).
    """
    gate = None
    with collect_machines() as machines:
        if plan is None and telemetry is None:
            payload = run_task(task, params)
        else:
            with ExitStack() as stack:
                if telemetry is not None:
                    writer = stack.enter_context(
                        TelemetryWriter(telemetry, source=f"cell:{cell[:16]}")
                    )
                    stack.enter_context(activate_telemetry(writer))
                if plan is not None:
                    injector = FaultInjector(plan, cell=cell, attempt=attempt)
                    stack.enter_context(activate(injector))
                    gate = injector.exec_gate(in_worker=in_worker)
                payload = run_task(task, params)
    if gate == "poison":
        return {"schema": _POISON_SCHEMA, "task": task}
    side = merge_sidecars(m.sidecar() for m in machines)
    side["memory"]["peak_rss_kb"] = peak_rss_kb()
    payload[_SIDECAR] = side
    return payload


def _payload_rounds(payload: dict) -> int:
    """I/O round trips recorded in a payload's trace (for telemetry): the
    rows of its round channels plus its literal round events (``mem.step``),
    counted without expanding the trace."""
    rounds = 0
    for record in payload.get("trace", ()):
        if record.get("name") in ROUND_EVENTS:
            ev = record.get("ev")
            if ev == "rows":
                rounds += len(record["seq"])
            elif ev == "event":
                rounds += 1
    return rounds


def default_jobs() -> int:
    """A sensible ``--jobs`` default: the usable core count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# Jobs and the runner.
# ---------------------------------------------------------------------------

#: Terminal job statuses; everything else is still in flight.
_TERMINAL = ("done", "failed", "cancelled")


@dataclass
class Job:
    """One admitted unit of work in a :class:`JobRunner`.

    The job id **is** the spec's content fingerprint, which is what makes
    request coalescing natural: two clients submitting the same spec get
    the same job.  ``meta`` carries admission-side annotations (tenant,
    source connection, a sweep's cell index) that never enter the
    payload — payloads stay pure functions of ``(task, params)``.
    """

    spec: RunSpec
    key: str
    seq: int
    meta: dict = field(default_factory=dict)
    status: str = "queued"
    attempt: int = 0
    errors: list = field(default_factory=list)
    payload: dict | None = None
    cached: bool = False
    cancel_requested: bool = False
    #: Earliest monotonic time the next attempt may start (retry backoff).
    not_before: float = 0.0
    #: Cumulative backoff delay charged to this job (capped by the runner).
    slept: float = 0.0
    #: Monotonic time the first attempt was dispatched (telemetry).
    started: float | None = None

    @property
    def terminal(self) -> bool:
        return self.status in _TERMINAL

    @property
    def failed(self) -> bool:
        return self.status == "failed"


class JobRunner:
    """Submit/poll/cancel execution over the exec layer.

    Jobs are **admitted** one at a time (with an optional capacity limit
    for deterministic load shedding), coalesced by content fingerprint,
    served from the shared :class:`ResultCache` when warm, and executed
    by one driver: serial in-process, or on a process pool with retry /
    backoff / crash-attribution / pool-rebuild recovery — chaos payloads
    therefore stay bit-identical to a fault-free serial run (the
    chaos-determinism gate).  A service runs the driver on a background
    thread (:meth:`start`); a batch drives it on its own thread until the
    queue is empty (:meth:`run_until_idle`, which is what :meth:`map`
    does).

    Parameters
    ----------
    jobs:
        Worker processes.  ``None``, 0, or 1 → serial in-process
        execution (identical results; no pool overhead).
    cache_dir:
        Directory for the content-hashed result cache; ``None`` keeps an
        in-memory cache (still deduplicates repeated specs in one
        process).
    cache:
        Pass an existing :class:`ResultCache` to share across runners.
    obs:
        Optional :class:`~repro.obs.Observation`; retries, pool
        rebuilds, timeouts, and job outcomes then emit ``retry.*`` /
        ``runner.*`` / ``job.*`` trace events and counters under the
        ``resilience`` metrics scope (run-level only — never inside task
        payloads).
    retries:
        Extra attempts per cell after the first (default 0: one attempt,
        the legacy fail-fast behaviour surfaced as a failure record).
    timeout:
        Per-attempt wall-clock budget in seconds (pool mode only; a hung
        worker cannot be cancelled, so an expiry rebuilds the pool and
        resubmits the innocent in-flight cells at their same attempt).
    backoff:
        Base of the deterministic exponential backoff: after failed
        attempt ``k`` (0-based) the retry waits ``backoff · 2^k``.  The
        wait holds back that job only; other ready jobs run meanwhile.
    backoff_max:
        Cap on the *cumulative* backoff delay per cell (seconds,
        default :data:`DEFAULT_BACKOFF_MAX`); once a cell has been
        charged its budget, further retries fire immediately.  ``None``
        disables the cap (the pre-cap behaviour, unbounded under
        permanent fault plans with high retry budgets).
    fault_plan:
        Optional :class:`~repro.resilience.FaultPlan`; every attempt of
        every cell then runs under its own deterministic
        :class:`~repro.resilience.FaultInjector`.
    journal:
        Optional :class:`~repro.resilience.SweepJournal`; every admitted
        job and its terminal status are checkpointed as ``job`` records
        (a sweep's caller writes the ``start`` record).
    telemetry:
        Optional live-progress channel: a
        :class:`~repro.obs.telemetry.TelemetryWriter` or a path to the
        JSONL file one should append to.  The runner then streams
        ``repro.progress/1`` lifecycle events (cell start+finish,
        retries, pool rebuilds; ``map`` adds sweep start+finish) and
        workers tee throttled phase progress into the same file —
        run-level observability only; payload bytes are identical with
        telemetry on or off.
    scheduler:
        Optional pick-next hook: a callable given the list of runnable
        jobs (admission order) that returns the one to run next — the
        seam the serve layer uses for fair-share scheduling.

    ``jobs`` is clamped to the *usable* core count
    (:func:`default_jobs`): worker processes beyond the cores the
    scheduler will actually grant only add pickling and contention —
    on a 1-core host, ``--jobs 4`` measured ~0.63× the serial
    wall-clock before the clamp.  The requested and effective values
    are both reported in :attr:`stats`.

    Concurrency contract: every public method is safe to call from any
    thread.  Listeners registered with :meth:`add_listener` are invoked
    from the driver (or the submitting thread, for cache hits and
    queued-job cancels) **while the runner lock is held** — they must be
    non-blocking and must not call back into the runner (bridge to an
    event loop with ``call_soon_threadsafe``).
    """

    def __init__(
        self,
        jobs: int | None = None,
        cache_dir: str | None = None,
        cache: ResultCache | None = None,
        obs=None,
        retries: int = 0,
        timeout: float | None = None,
        backoff: float = 0.05,
        backoff_max: float | None = DEFAULT_BACKOFF_MAX,
        fault_plan=None,
        journal=None,
        telemetry=None,
        scheduler: Callable[[list[Job]], Job] | None = None,
    ):
        check_runner_options(retries, timeout, backoff, backoff_max, jobs)
        requested = int(jobs) if jobs else 0
        usable = default_jobs()
        self.jobs_requested = requested
        self.jobs = min(requested, usable) if requested > 1 else requested
        if requested > usable and obs is not None:
            obs.event(
                "runner.jobs_clamped", requested=requested, usable=usable
            )
        if cache is not None and cache_dir is not None:
            raise ValueError("pass cache or cache_dir, not both")
        self.cache = cache if cache is not None else ResultCache(cache_dir)
        self.retries = int(retries)
        self.timeout = timeout
        self.backoff = float(backoff)
        self.backoff_max = None if backoff_max is None else float(backoff_max)
        self.fault_plan = fault_plan
        self.journal = journal
        if isinstance(telemetry, str):
            telemetry = TelemetryWriter(telemetry)
        self.telemetry = telemetry
        self._telemetry_path = telemetry.path if telemetry is not None else None
        self.scheduler = scheduler
        self._obs = obs
        self._scope = obs.scope("resilience") if obs is not None else None
        self._cond = threading.Condition()
        self._jobs: dict[str, Job] = {}
        self._queue: list[Job] = []  # kept in admission (seq) order
        self._running: set[str] = set()
        self._listeners: list[Callable[[Job, str], None]] = []
        self._seq = 0
        self._stop = False
        self._thread: threading.Thread | None = None
        self.driver_error: str | None = None
        # Counters (all mutated under the lock).
        self.admitted = 0
        self.coalesced = 0
        self.cache_hits = 0
        self.shed = 0
        self.executed = 0
        self.completed = 0
        self.failed = 0
        self.cancelled = 0
        self.retried = 0
        self.timeouts = 0
        self.pool_rebuilds = 0
        self.backoff_capped = 0
        self.backoff_slept = 0.0
        self.served_from_cache = 0  # ``map`` specs answered without a run
        self._unexplained_crashes = 0  # since the last completed attempt
        # Out-of-band sidecars of the executed jobs, folded as each lands:
        # physical-fusion counters and memory gauges (counters add, high
        # waters max).
        self._sidecar = merge_sidecars(())

    # ----------------------------------------------------------- plumbing

    def _event(self, name: str, **fields) -> None:
        if self._obs is not None:
            self._obs.event(name, **fields)

    def _count(self, name: str, n: int = 1) -> None:
        if self._scope is not None:
            self._scope.counter(name).inc(n)

    def _tel(self, ev: str, **fields) -> None:
        """Emit one live-telemetry line (no-op without a channel)."""
        if self.telemetry is not None:
            self.telemetry.emit(ev, **fields)

    def _tel_finish(
        self, index, key: str, payload, cached: bool = False,
        failed: bool = False, started: float | None = None, records=None,
    ) -> None:
        """The ``cell_finish`` telemetry line for one terminal cell state."""
        if self.telemetry is None:
            return
        fields = {"key": key, "index": index, "cached": cached, "failed": failed}
        if started is not None:
            seconds = time.monotonic() - started
            fields["seconds"] = round(seconds, 4)
            if not failed and records:
                fields["records"] = records
                if seconds > 0:
                    fields["records_per_sec"] = round(records / seconds, 1)
        if not failed:
            fields["rounds"] = _payload_rounds(payload)
        self.telemetry.emit("cell_finish", **fields)

    def add_listener(self, fn: Callable[[Job, str], None]) -> None:
        """Register a transition callback ``fn(job, status)``.

        Fired on ``running`` and on every terminal transition, under the
        runner lock — see the class docstring for the contract.
        """
        with self._cond:
            self._listeners.append(fn)

    def _notify_locked(self, job: Job, status: str) -> None:
        for fn in list(self._listeners):
            try:
                fn(job, status)
            except Exception:  # noqa: BLE001 - listeners must not kill the driver
                pass

    def _journal_job(self, job: Job, status: str) -> None:
        if self.journal is None:
            return
        if status == "admitted":
            self.journal.job(
                job.key, "admitted", task=job.spec.task,
                params=dict(job.spec.params), meta=job.meta or None,
            )
        else:
            self.journal.job(job.key, status)

    # ---------------------------------------------------------- admission

    def _next_seq_locked(self) -> int:
        self._seq += 1
        return self._seq

    def active_count(self) -> int:
        """Jobs admitted but not yet terminal (queued + running)."""
        with self._cond:
            return len(self._queue) + len(self._running)

    def probe(self, key: str) -> str | None:
        """``"active"`` / ``"cached"`` / None — what a submit would find.

        Admission layers use this to decide whether a request will cost
        execution capacity *before* charging quotas: coalesced joins and
        warm cache hits are free.
        """
        with self._cond:
            job = self._jobs.get(key)
            if job is not None and not job.terminal:
                return "active"
        if key in self.cache:
            return "cached"
        return None

    def submit(
        self,
        spec: RunSpec,
        meta: dict | None = None,
        limit: int | None = None,
    ) -> tuple[Job | None, str]:
        """Admit one spec; returns ``(job, disposition)``.

        Dispositions:

        * ``"coalesced"`` — an identical spec is already in flight; the
          caller shares its job (no new capacity consumed);
        * ``"cached"`` — the content-hashed cache is warm; a terminal
          ``done`` job is returned immediately (no capacity consumed);
        * ``"new"`` — admitted to the queue (journalled when attached);
        * ``"shed"`` — ``limit`` active jobs already exist; ``job`` is
          None and nothing was admitted.  Shedding is deterministic:
          with a bound of Q, exactly the submissions beyond the Q
          currently-active jobs are shed, never an admitted one.
        """
        key = spec.fingerprint()
        with self._cond:
            job = self._jobs.get(key)
            if job is not None and not job.terminal:
                self.coalesced += 1
                self._count("job.coalesced")
                return job, "coalesced"
            payload = self.cache.get(key, obs=self._obs)
            if payload is not None:
                job = Job(
                    spec=spec, key=key, seq=self._next_seq_locked(),
                    meta=dict(meta or {}), status="done",
                    payload=payload, cached=True,
                )
                self._jobs[key] = job
                self.cache_hits += 1
                self.completed += 1
                self._count("job.cache_hit")
                self._notify_locked(job, "done")
                return job, "cached"
            if limit is not None and len(self._queue) + len(self._running) >= limit:
                self.shed += 1
                self._count("job.shed")
                return None, "shed"
            job = Job(
                spec=spec, key=key, seq=self._next_seq_locked(),
                meta=dict(meta or {}),
            )
            self._jobs[key] = job
            self._queue.append(job)
            self.admitted += 1
            self._count("job.admitted")
            self._journal_job(job, "admitted")
            self._cond.notify_all()
            return job, "new"

    def poll(self, key: str) -> Job | None:
        """The job for ``key`` (terminal jobs stay addressable), or None."""
        with self._cond:
            return self._jobs.get(key)

    def wait(self, key: str, timeout: float | None = None) -> Job | None:
        """Block until ``key``'s job is terminal (or ``timeout`` elapses)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while True:
                job = self._jobs.get(key)
                if job is None or job.terminal:
                    return job
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return job
                self._cond.wait(timeout=remaining)

    def wait_idle(self, timeout: float | None = None) -> bool:
        """Block until no job is queued or running; False on timeout."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while self._queue or self._running:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._cond.wait(timeout=remaining)
            return True

    def cancel(self, key: str) -> Job | None:
        """Cancel a job: queued → cancelled now; running → best effort.

        A running job in pool mode is torn down through the same
        pool-rebuild machinery as a hung worker (the worker cannot be
        interrupted in place); in serial mode the current attempt runs
        to completion and the cancellation lands before the next one.
        """
        with self._cond:
            job = self._jobs.get(key)
            if job is None or job.terminal:
                return job
            job.cancel_requested = True
            if job.status == "queued":
                self._queue.remove(job)
                self._finish_locked(job, "cancelled")
            else:
                self._cond.notify_all()
            return job

    # ------------------------------------------------------------- driver

    def start(self) -> "JobRunner":
        """Launch the background driver thread (idempotent)."""
        with self._cond:
            if self._thread is not None:
                return self
            self._stop = False
            self._thread = threading.Thread(
                target=self._drive, name="repro-job-driver", daemon=True
            )
            self._thread.start()
        return self

    def run_until_idle(self) -> None:
        """Drive the queue on the calling thread until it is empty.

        The batch counterpart of :meth:`start`: the same driver runs, but
        on this thread (a serial runner executes every attempt here; a
        pool runner waits on its workers here) and it returns once no job
        is queued or running.  If it is interrupted, the jobs in flight
        go back to the queue.
        """
        if self.driver_alive:
            raise RuntimeError("the driver thread is running; use wait_idle()")
        try:
            (self._drive_pool if self.jobs > 1 else self._drive_serial)(until_idle=True)
        except BaseException:
            with self._cond:
                for key in list(self._running):
                    self._requeue_locked(self._jobs[key])
            raise

    @property
    def driver_alive(self) -> bool:
        thread = self._thread
        return thread is not None and thread.is_alive()

    def close(self, timeout: float | None = 10.0) -> bool:
        """Stop the driver; queued jobs stay admitted (journalled) for resume.

        In-flight work is allowed to finish; returns False if the driver
        did not exit within ``timeout`` (it is a daemon thread, so a
        genuinely wedged worker cannot block process exit).
        """
        with self._cond:
            self._stop = True
            self._cond.notify_all()
            thread = self._thread
        if thread is None:
            return True
        thread.join(timeout=timeout)
        return not thread.is_alive()

    def _finish_locked(self, job: Job, status: str, payload: dict | None = None) -> None:
        self._running.discard(job.key)
        job.status = status
        if payload is not None:
            job.payload = payload
        if status == "done":
            self.completed += 1
        elif status == "failed":
            self.failed += 1
            self._event(
                "runner.cell_failed",
                key=job.key[:16],
                attempts=payload.get("attempts"),
                error=payload.get("error", {}).get("type"),
            )
            self._count("cell_failed")
        elif status == "cancelled":
            self.cancelled += 1
        self._count(f"job.{status}")
        self._event("job.finished", key=job.key[:16], status=status)
        self._journal_job(job, status)
        if status != "cancelled":
            self._tel_finish(
                job.meta.get("index"), job.key, job.payload,
                failed=status == "failed", started=job.started,
                records=job.spec.params.get("n"),
            )
        self._notify_locked(job, status)
        self._cond.notify_all()

    def _complete_locked(self, job: Job, payload: dict) -> None:
        """A successful attempt: cache the payload, then finish the job."""
        self.cache.put(job.key, payload)  # incremental: interrupts stay warm
        self.executed += 1
        self._unexplained_crashes = 0
        self._finish_locked(job, "done", payload=payload)

    def _charge_locked(self, job: Job, exc: BaseException) -> None:
        """Account one failed attempt: retry with capped backoff, or fail."""
        job.errors.append(error_record(job.attempt, exc))
        if job.cancel_requested:
            self._finish_locked(job, "cancelled")
            return
        if job.attempt >= self.retries:
            payload = failure_payload(
                job.spec.task, job.spec.params, job.key, job.errors, self.retries
            )
            self._finish_locked(job, "failed", payload=payload)
            return
        # The capped deterministic backoff: the exponential schedule is
        # clipped so a cell's *cumulative* delay never exceeds
        # ``backoff_max`` — a permanent-fault plan with a deep retry
        # budget then degrades to immediate retries instead of stalling.
        delay = self.backoff * (2 ** job.attempt)
        if self.backoff_max is not None:
            budget = max(0.0, self.backoff_max - job.slept)
            if delay > budget:
                delay = budget
                self.backoff_capped += 1
        job.slept += delay
        self.backoff_slept += delay
        self.retried += 1
        self._count("retry.attempt")
        self._event(
            "retry.attempt", key=job.key[:16], attempt=job.attempt + 1,
            error=type(exc).__name__, backoff=delay,
        )
        self._tel(
            "cell_retry", key=job.key, attempt=job.attempt + 1,
            error=type(exc).__name__,
        )
        job.attempt += 1
        self._requeue_locked(job, delay)

    def _requeue_locked(self, job: Job, delay: float = 0.0) -> None:
        """Put a non-terminal job back in the queue, ready after ``delay``."""
        self._running.discard(job.key)
        job.status = "queued"
        job.not_before = time.monotonic() + delay
        bisect.insort(self._queue, job, key=lambda j: j.seq)
        self._cond.notify_all()

    def _unpack(self, payload, task: str) -> dict:
        """Pop a payload's out-of-band sidecar, then schema-check it.

        Must run before the payload is validated, cached, or exposed in
        a result: plan shape and memory gauges are telemetry, and a
        cached serve must be byte-identical to a fresh execution.  The
        sidecar is folded into the runner's totals as it lands.
        """
        if isinstance(payload, dict):
            side = payload.pop(_SIDECAR, None)
            if side:
                mem = side["memory"]
                with self._cond:
                    self._sidecar = merge_sidecars((self._sidecar, side))
                    if any(mem.values()):
                        self._tel("cell_mem", **{k: mem[k] for k in (
                            "high_water_blocks", "slab_bytes",
                            "ledger_high_water_records", "peak_rss_kb",
                        )})
        if not payload_ok(payload):  # poison detection
            raise PoisonedPayloadError(
                f"worker returned an invalid payload for task {task!r}"
            )
        return payload

    def _pick_locked(self, now: float) -> Job | None:
        """Dequeue the next ready job (the scheduler's pick, else the oldest)."""
        if self.scheduler is None:
            job = next((j for j in self._queue if j.not_before <= now), None)
        else:
            ready = [j for j in self._queue if j.not_before <= now]
            job = self.scheduler(ready) if ready else None
        if job is not None:
            self._queue.remove(job)
        return job

    def _dispatch_locked(self, job: Job, now: float) -> None:
        job.status = "running"
        self._running.add(job.key)
        if job.started is None:
            job.started = now
        self._tel(
            "cell_start", key=job.key, index=job.meta.get("index"),
            attempt=job.attempt,
        )
        self._notify_locked(job, "running")

    def _next_delay_locked(self, now: float) -> float | None:
        pending = [j.not_before - now for j in self._queue if j.not_before > now]
        return min(pending) if pending else None

    def _drive(self) -> None:
        """Driver-thread entry point: run until :meth:`close`."""
        try:
            (self._drive_pool if self.jobs > 1 else self._drive_serial)(until_idle=False)
        except BaseException as exc:  # noqa: BLE001 - surfaced via readiness
            with self._cond:
                self.driver_error = f"{type(exc).__name__}: {exc}"
                self._cond.notify_all()
            raise

    def _drive_serial(self, until_idle: bool) -> None:
        """Run jobs one at a time on this thread.

        Serial mode cannot preempt a wedged task, so ``timeout`` is a
        pool-mode feature; ``hang``-effect faults self-release after
        their configured duration, which keeps serial and pool retry
        accounting identical.
        """
        while True:
            with self._cond:
                job = None
                while not self._stop:
                    now = time.monotonic()
                    job = self._pick_locked(now)
                    if job is not None or (until_idle and not self._queue):
                        break
                    self._cond.wait(timeout=self._next_delay_locked(now))
                if job is None:
                    return
                self._dispatch_locked(job, now)
            try:
                payload = self._unpack(_execute(
                    job.spec.task, job.spec.params, self.fault_plan,
                    job.key, job.attempt, False, self._telemetry_path,
                ), job.spec.task)
            except Exception as exc:  # noqa: BLE001 - isolation is the point
                # Settle inside the handler: ``exc`` (whose traceback pins
                # every frame of the failed attempt, machines included)
                # is released when the clause ends, not after the retry.
                with self._cond:
                    self._charge_locked(job, exc)
                continue
            with self._cond:
                self._complete_locked(job, payload)

    def _drive_pool(self, until_idle: bool) -> None:
        """Dispatch jobs on a process pool with recovery.

        Three failure surfaces are handled:

        * a future resolving to an exception (injected fault, poison, or
          a real bug) → per-job retry with backoff;
        * ``BrokenProcessPool`` (a worker died — in chaos runs, a
          ``crash``-effect fault calling ``os._exit``) → rebuild the
          pool, charge the crash to the job whose plan *says* it
          crashed (:func:`~repro.resilience.exec_decision`, a pure
          function of ``(plan, cell, attempt)``), and resubmit every
          innocent in-flight job at its **same** attempt number, so
          pool and serial runs converge on identical retry accounting;
        * a per-attempt ``timeout`` expiring, or a running job being
          cancelled → a worker cannot be interrupted in place, so this
          also rebuilds the pool; expired jobs are charged a
          :class:`~repro.exceptions.TaskTimeout`, cancelled ones end
          ``cancelled``, innocents resubmit unchanged.

        One rebuild rule stops a genuinely broken environment (workers
        dying for causes no plan attributes) from rebuilding forever:
        after more than ``jobs + retries + 2`` crashes that no plan rule
        explains, with no attempt completing in between, such crashes are
        charged to every job they took down as failed attempts
        (``RuntimeError("worker process crashed")``).  A planned crash, a
        timeout or a cancel charges or ends the job that caused it, so
        none of them counts: the budget of those is the retry budget.
        Counting since the last completion, not in total, is what a
        long-lived service needs: its budget must not run out over days
        of healthy work.
        """
        pool = ProcessPoolExecutor(max_workers=self.jobs)
        # A batch owns its whole queue, so it keeps one job queued behind
        # each worker: a worker that finishes starts its next job without
        # waiting for this thread to collect and cache the last one.  A
        # service keeps its waiting jobs in the runner's queue, where a
        # cancel or the scheduler can still reach them.
        depth = 2 * self.jobs if until_idle else self.jobs
        inflight: dict = {}   # future -> job, in submission order
        deadlines: dict = {}  # future -> monotonic deadline, once on a worker

        def rebuild_locked(reason: str):
            nonlocal pool
            pool.shutdown(wait=False, cancel_futures=True)
            pool = ProcessPoolExecutor(max_workers=self.jobs)
            self.pool_rebuilds += 1
            self._event("runner.pool_rebuilt", reason=reason)
            self._count("pool_rebuilds")
            self._tel("pool_rebuilt", reason=reason)

        def settle_locked(f, job: Job) -> bool:
            """Process one completed future; False iff the pool broke."""
            try:
                payload = self._unpack(f.result(), job.spec.task)
            except BrokenProcessPool:
                return False
            except Exception as exc:  # noqa: BLE001 - isolation is the point
                self._charge_locked(job, exc)
                return True
            self._complete_locked(job, payload)
            return True

        def arm_locked(now: float) -> None:
            """Start the timeout of every job that has reached a worker.

            The pool runs jobs in submission order, so the oldest ``jobs``
            futures in flight are the running ones; a job queued behind
            them gets its deadline once a worker frees up for it.
            """
            if self.timeout is not None:
                for f in list(inflight)[: self.jobs]:
                    deadlines.setdefault(f, now + self.timeout)

        def crash_rule(job: Job):
            """The plan's ``crash`` rule for this attempt, if it names one."""
            if self.fault_plan is None:
                return None
            rule = exec_decision(self.fault_plan, job.key, job.attempt)
            return rule if rule is not None and rule.effect == "crash" else None

        def attribute_crashes_locked(crashed: list[Job]) -> None:
            rules = [crash_rule(job) for job in crashed]
            # A crash the plan predicts is explained: its job is charged
            # and the others killed with it are innocent.  Only a crash no
            # rule explains counts toward the rebuild rule, so a run of
            # planned crashes never charges the cell running beside them.
            unexplained = not any(rules)
            if unexplained:
                self._unexplained_crashes += 1
            give_up = (
                unexplained
                and self._unexplained_crashes > self.jobs + self.retries + 2
            )
            for job, rule in zip(crashed, rules):
                if job.cancel_requested:
                    self._finish_locked(job, "cancelled")
                elif rule is not None:
                    self._charge_locked(
                        job,
                        InjectedWorkerCrash(
                            f"injected {rule.mode} worker crash "
                            f"(attempt {job.attempt})"
                        ),
                    )
                elif give_up:
                    self._charge_locked(job, RuntimeError("worker process crashed"))
                else:
                    self._requeue_locked(job)  # innocent: same attempt

        try:
            while True:
                with self._cond:
                    now = time.monotonic()
                    while not self._stop and len(inflight) < depth:
                        job = self._pick_locked(now)
                        if job is None:
                            break
                        self._dispatch_locked(job, now)
                        try:
                            f = pool.submit(
                                _execute, job.spec.task, job.spec.params,
                                self.fault_plan, job.key, job.attempt, True,
                                self._telemetry_path,
                            )
                        except BrokenProcessPool as exc:
                            # A worker died since the last rebuild: settle
                            # this job as one more crash of the same pool.
                            f = Future()
                            f.set_exception(exc)
                        inflight[f] = job
                    arm_locked(now)
                    if not inflight:
                        if self._stop or (until_idle and not self._queue):
                            break
                        self._cond.wait(timeout=self._next_delay_locked(now))
                        continue
                done, _ = wait(set(inflight), timeout=_POLL_S, return_when=FIRST_COMPLETED)
                with self._cond:
                    crashed: list[Job] = []
                    for f in done:
                        job = inflight.pop(f)
                        deadlines.pop(f, None)
                        if not settle_locked(f, job):
                            crashed.append(job)
                    now = time.monotonic()
                    if crashed:
                        reason = "crash"
                    elif any(j.cancel_requested for j in inflight.values()):
                        reason = "cancel"
                    elif any(now > d for d in deadlines.values()):
                        reason = "timeout"
                    else:
                        continue
                    # The pool must go: a dead worker broke it, or a wedged
                    # (or cancelled) one can't be interrupted.  Settle what
                    # finished, charge the victims, resubmit the innocents.
                    victims: list[tuple[Job, str]] = []
                    for f, job in inflight.items():
                        d = deadlines.get(f)
                        if f.done():
                            if not settle_locked(f, job):
                                crashed.append(job)
                        elif reason == "crash":
                            crashed.append(job)
                        elif job.cancel_requested:
                            victims.append((job, "cancel"))
                        elif d is not None and now > d:
                            victims.append((job, "timeout"))
                        else:
                            victims.append((job, "innocent"))
                    inflight.clear()
                    deadlines.clear()
                    rebuild_locked(reason)
                    if crashed:
                        attribute_crashes_locked(crashed)
                    for job, why in victims:
                        if why == "cancel":
                            self._finish_locked(job, "cancelled")
                        elif why == "timeout":
                            self.timeouts += 1
                            self._count("timeouts")
                            self._charge_locked(
                                job,
                                TaskTimeout(
                                    f"cell exceeded the {self.timeout}s "
                                    f"per-attempt timeout (attempt {job.attempt})"
                                ),
                            )
                        else:
                            self._requeue_locked(job)
        except KeyboardInterrupt:
            # Persist every already-finished payload so restart is warm,
            # then cancel what never started and re-raise.
            with self._cond:
                for f, job in inflight.items():
                    if not f.done():
                        continue
                    try:
                        payload = self._unpack(f.result(), job.spec.task)
                    except Exception:  # noqa: BLE001 - only payloads persist
                        continue
                    self._complete_locked(job, payload)
            raise
        finally:
            pool.shutdown(wait=False, cancel_futures=True)

    # ---------------------------------------------------------------- map

    def map(self, specs: Iterable[RunSpec]) -> list[RunResult]:
        """Execute every spec; results return in spec order.

        Cache hits are served without execution; duplicate specs within
        one call coalesce into one job (the later occurrences come back
        ``cached=True``, even with an in-memory cache).  Misses run
        serially or on the pool depending on ``jobs``; either way the
        returned list is ordered by input position, so downstream tables
        are bit-identical to a serial sweep.  Cells that exhaust their
        retry budget come back with ``failed=True`` and a
        ``repro.failures/1`` payload.
        """
        specs = list(specs)
        t_sweep = time.monotonic()
        admitted = [
            self.submit(spec, meta={"index": i}) for i, spec in enumerate(specs)
        ]
        self._tel(
            "sweep_start",
            schema=PROGRESS_SCHEMA,
            task=specs[0].task if specs else "",
            cells=len(specs),
            jobs=self.jobs or 1,
            grid=grid_fingerprint(job.key for job, _ in admitted),
        )
        for i, (job, disposition) in enumerate(admitted):
            if disposition == "cached":
                self.served_from_cache += 1
                self._tel_finish(i, job.key, job.payload, cached=True)
        self.run_until_idle()

        results = []
        for i, (spec, (job, disposition)) in enumerate(zip(specs, admitted)):
            cached = disposition != "new" and not job.failed
            if disposition == "coalesced":
                if cached:
                    self.served_from_cache += 1
                self._tel_finish(
                    i, job.key, job.payload, cached=cached, failed=job.failed
                )
            results.append(RunResult(
                spec=spec, payload=job.payload, cached=cached, key=job.key,
                failed=job.failed,
            ))
        self._tel(
            "sweep_end",
            cells=len(specs),
            executed=self.executed,
            cached=self.served_from_cache,
            failed=self.failed,
            retried=self.retried,
            seconds=round(time.monotonic() - t_sweep, 3),
        )
        return results

    # -------------------------------------------------------------- stats

    @property
    def stats(self) -> dict:
        """Admission, execution, cache, and resilience counters: the
        ``runner`` block of ``repro.sweep_stats/1`` and
        ``repro.serve_stats/1`` alike.

        ``jobs`` is the *effective* worker count after the usable-core
        clamp; ``jobs_requested`` preserves what the caller asked for.
        ``backoff_slept`` is the total backoff delay charged to retries.
        """
        with self._cond:
            return {
                "jobs": self.jobs or 1,
                "jobs_requested": self.jobs_requested or 1,
                "admitted": self.admitted,
                "coalesced": self.coalesced,
                "cache_hits": self.cache_hits,
                "shed": self.shed,
                "executed": self.executed,
                "served_from_cache": self.served_from_cache,
                "completed": self.completed,
                "failed": self.failed,
                "cancelled": self.cancelled,
                "retried": self.retried,
                "timeouts": self.timeouts,
                "pool_rebuilds": self.pool_rebuilds,
                "backoff_max": self.backoff_max,
                "backoff_slept": round(self.backoff_slept, 4),
                "backoff_capped": self.backoff_capped,
                "queued": len(self._queue),
                "running": len(self._running),
                "driver_alive": self.driver_alive,
                "driver_error": self.driver_error,
                "cache": self.cache.stats,
                # Physical-fusion telemetry summed over the freshly executed
                # jobs (cache hits ran no simulation, so contribute nothing).
                "io_plan": dict(self._sidecar["io_plan"]),
                # Memory gauges folded the same way (counters add, high
                # waters max).
                "memory": dict(self._sidecar["memory"]),
            }


#: The batch runner's former name.  It stays because the perfbench
#: harness imports it and patches ``ParallelRunner.map`` by name.
ParallelRunner = JobRunner
