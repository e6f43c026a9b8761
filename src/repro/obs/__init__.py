"""Structured observability: metrics, tracing, and machine-readable reports.

The paper's *evaluation* is its cost accounting — parallel I/Os (Theorem
1), hierarchy memory/interconnect time (Theorems 2–3), and the Invariant
1/2 balance quantities (Theorem 4).  This package gives every machine
model and sort one shared instrumentation substrate:

* :class:`MetricsRegistry` — counters, gauges, and bucketed histograms
  with labeled child scopes (one scope per machine, per recursion level,
  per phase);
* :class:`Tracer` — nested spans (``span("distribute", level=1)``) and
  point events (``event("audit.violation", ...)``, or one columnar
  channel row per ``io.read`` / ``io.write`` / ``balance.round``)
  carrying wall-clock *and* model-cost attribution, recorded in one
  columnar journal and optionally fed to a JSONL sink so any run can be
  replayed or diffed offline;
* :class:`Observation` — the bundle (registry + tracer) that machines and
  sorts accept; machines hold ``None`` by default, so their hooks cost
  one attribute check and un-instrumented runs are bit-identical to the
  uninstrumented code path;
* :class:`RunReport` — metrics + spans merged into one schema-stable dict,
  rendered as an aligned table for humans or emitted as JSON
  (``repro sort --emit-json``), with :func:`summarize_trace` re-deriving
  the per-phase breakdown from a saved JSONL trace (``repro report``).

On top of the substrate sit three analysis engines (PR 4):

* :class:`TheoryAuditor` (:mod:`~repro.obs.audit`) — scores measured costs
  against the paper's bound expressions (Theorems 1–4, Invariants 1 & 2)
  as measured/bound constant-factor ratios, with live non-raising
  per-round invariant checks via the Balance engine's observer hook
  (``repro audit``);
* :func:`profile_trace` (:mod:`~repro.obs.profile`) — span self-time and
  critical-path aggregation, per-level and utilization timelines, and the
  I/O-round-trip hotspot table (``repro profile``);
* :func:`diff_runs` (:mod:`~repro.obs.diff`) — structural diffing of any
  two run reports / bench sidecars / summaries with relative thresholds,
  the CI regression gate (``repro diff``).

And the *live* leg (PR 6) — observability while and across runs:

* :mod:`~repro.obs.telemetry` — the ``repro.progress/1`` streaming
  progress channel (``repro sweep --live`` / ``repro top``), a
  line-buffered JSONL heartbeat the runner and worker phase spans append
  to mid-sweep, with payloads provably bit-identical telemetry on or off;
* :func:`export_chrome_trace` (:mod:`~repro.obs.export`) — convert any
  saved JSONL/gz trace to Chrome trace-event / Perfetto JSON
  (``repro export-trace``), so runs open in ui.perfetto.dev;
* :class:`BenchLedger` (:mod:`~repro.obs.ledger`) — the append-only,
  host-keyed ``repro.bench_series/1`` perf-trajectory ledger behind
  ``repro bench record`` / ``repro bench compare``.

And the *cross-run* analytics leg (PR 9) — observability across the
whole history of runs:

* :class:`RunHistory` (:mod:`~repro.obs.history`) — the append-friendly,
  host-keyed ``repro.run_index/1`` index over every run artifact
  (reports, audits, profiles, ledger points, bench sidecars, sweep
  stats, raw traces), behind ``repro history ingest|list|show|query``;
* :func:`attribute_runs` (:mod:`~repro.obs.attrib`) — the
  regression-attribution engine: per-span self-time deltas cross-checked
  against I/O-round counts and config deltas, ranked into a
  ``repro.attrib/1`` diagnosis (``repro attribute``, ``repro bench
  compare --attribute``);
* :class:`MemoryTelemetry` (:mod:`~repro.obs.memory`) — per-phase peak
  RSS sampling plus the store/machine arena gauges (high-water blocks,
  slab growth, ledger records), out of band in the same payload sidecar
  as the I/O-plan counters, so payloads never carry them;
* :func:`render_dashboard` (:mod:`~repro.obs.dashboard`) — the
  self-contained static-HTML perf dashboard over the history index
  (``repro dashboard``).

See ``docs/observability.md`` for the event schema and metric names.
"""

from .attrib import ATTRIB_SCHEMA, attribute_runs, render_attrib
from .audit import AUDIT_SCHEMA, AuditCheck, AuditReport, TheoryAuditor, record_cell_audit
from .dashboard import render_dashboard
from .diff import DIFF_SCHEMA, DiffEntry, DiffResult, diff_runs, flatten, load_doc
from .history import INDEX_SCHEMA, RunHistory
from .export import EXPORT_SCHEMA, export_chrome_trace, write_chrome_trace
from .ledger import (
    SERIES_SCHEMA,
    BenchLedger,
    compare_entries,
    make_entry,
)
from .memory import MemoryTelemetry, peak_rss_kb
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .profile import PROFILE_SCHEMA, profile_trace, render_profile
from .report import RunReport, render_report, summarize_trace
from .telemetry import (
    PROGRESS_SCHEMA,
    LiveProgressView,
    ProgressSink,
    TelemetryWriter,
    activate_telemetry,
    active_telemetry,
    aggregate_progress,
    read_telemetry,
    render_progress_line,
)
from .tracer import (
    NULL_TRACER,
    ROUND_EVENTS,
    JsonlSink,
    ListSink,
    NullTracer,
    Observation,
    Tracer,
    read_trace,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "Observation",
    "JsonlSink",
    "ListSink",
    "read_trace",
    "ROUND_EVENTS",
    "RunReport",
    "render_report",
    "summarize_trace",
    "AuditCheck",
    "AuditReport",
    "TheoryAuditor",
    "record_cell_audit",
    "AUDIT_SCHEMA",
    "profile_trace",
    "render_profile",
    "PROFILE_SCHEMA",
    "DiffEntry",
    "DiffResult",
    "diff_runs",
    "flatten",
    "load_doc",
    "DIFF_SCHEMA",
    "PROGRESS_SCHEMA",
    "TelemetryWriter",
    "activate_telemetry",
    "active_telemetry",
    "ProgressSink",
    "read_telemetry",
    "aggregate_progress",
    "render_progress_line",
    "LiveProgressView",
    "EXPORT_SCHEMA",
    "export_chrome_trace",
    "write_chrome_trace",
    "SERIES_SCHEMA",
    "BenchLedger",
    "make_entry",
    "compare_entries",
    "INDEX_SCHEMA",
    "RunHistory",
    "ATTRIB_SCHEMA",
    "attribute_runs",
    "render_attrib",
    "MemoryTelemetry",
    "peak_rss_kb",
    "render_dashboard",
]
