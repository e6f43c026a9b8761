"""Parallel execution backend: shard simulation grids across CPU cores.

The repo's benchmarks and CLI sweeps are embarrassingly parallel — every
grid cell is an independent, seeded, deterministic simulation.  This
package turns that shape into throughput without giving up determinism:

* :class:`RunSpec` / :class:`JobRunner` — process-pool sharding of
  registered tasks behind one serial and one pool driver; its ``map``
  returns a batch's results in spec order (tables are bit-identical to
  serial runs), and a service submits, polls and cancels single jobs;
* :mod:`~repro.exec.fingerprint` / :class:`ResultCache` — content-hashed
  run cache (config fingerprint → payload JSON) so repeated grid cells
  are served without re-simulating;
* :mod:`~repro.exec.tasks` — the registered task functions
  (``sort_pdm``, ``compare_pdm``, ``hierarchy_sort``) and their
  parameter tables, each executed under a zero-clock observation so
  payloads are pure functions of their params;
* :mod:`~repro.exec.merge` — fold per-run metrics/traces back into one
  :class:`~repro.obs.MetricsRegistry` / one JSONL trace, keeping the
  ``repro.run_report/1`` schema stable.

With ``retries``/``timeout``/``fault_plan``/``journal`` configured the
runner additionally survives worker crashes, hangs, poisoned payloads,
and injected I/O faults — failed cells become structured
``repro.failures/1`` records instead of tracebacks (see
``docs/resilience.md`` and :mod:`repro.resilience`).

Entry points: ``repro sweep --jobs N --cache-dir ...`` on the CLI and
``parallel_sweep`` in ``benchmarks/_harness.py``.  See
``docs/testing.md`` for the testing tiers that pin the determinism
guarantees.
"""

from .cache import CACHE_ENTRY_SCHEMA, ResultCache, payload_digest
from .fingerprint import SCHEMA_SALT, canonical_params, fingerprint
from .merge import merge_metrics, merge_trace_events, write_merged_trace
from .runner import (
    DEFAULT_BACKOFF_MAX,
    FAILURES_SCHEMA,
    Job,
    JobRunner,
    ParallelRunner,
    RunResult,
    RunSpec,
    check_runner_options,
    default_jobs,
    grid,
)
from .tasks import check_spec, get_task, read_params, run_task, task, task_names

__all__ = [
    "CACHE_ENTRY_SCHEMA",
    "DEFAULT_BACKOFF_MAX",
    "FAILURES_SCHEMA",
    "Job",
    "JobRunner",
    "ResultCache",
    "SCHEMA_SALT",
    "payload_digest",
    "canonical_params",
    "fingerprint",
    "merge_metrics",
    "merge_trace_events",
    "write_merged_trace",
    "ParallelRunner",
    "RunResult",
    "RunSpec",
    "default_jobs",
    "grid",
    "get_task",
    "run_task",
    "task",
    "task_names",
    "check_spec",
    "read_params",
    "check_runner_options",
]
