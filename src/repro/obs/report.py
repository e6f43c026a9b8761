"""Run reports: metrics + spans merged into one machine-readable dict.

:class:`RunReport` is the JSON surface of a run (``repro sort
--emit-json``): schema-stable (``schema`` key, additive evolution only),
covering per-phase parallel I/Os and CPU/model time, the balance-factor
timeline, and the I/O stripe-width histograms.  :func:`summarize_trace`
derives the same phase/timeline aggregates from a saved JSONL trace, which
is what ``repro report <trace.jsonl>`` prints.
"""

from __future__ import annotations

import json
from typing import Iterable, Sequence

from ..analysis.reporting import Table
from .metrics import Histogram, MetricsRegistry
from .tracer import Observation, read_trace

__all__ = ["RunReport", "render_report", "summarize_trace", "write_json", "SCHEMA"]

SCHEMA = "repro.run_report/1"

#: Span attributes summed into the per-phase breakdown (everything a
#: machine model attributes to a span).  Additive: new keys may appear.
_COST_KEYS = (
    "ios",
    "read_ios",
    "write_ios",
    "blocks_read",
    "blocks_written",
    "cpu_work",
    "cpu_time",
    "memory_time",
    "interconnect_time",
    "parallel_steps",
    "records",
    "rounds",
    "swapped",
    "unprocessed",
    "match_calls",
)


def summarize_trace(events_or_path: str | Iterable[dict]) -> dict:
    """Aggregate a trace into phases, balance timeline, and I/O histograms.

    Accepts a path to a JSONL trace or an iterable of event dicts (the
    in-memory ``tracer.events``).  Returns::

        {"phases": [{"name", "count", "wall_s", <cost keys...>}, ...],
         "balance_timeline": [{"round", "max_balance_factor", ...}, ...],
         "stripe_width": {"read": {width: count}, "write": {width: count}},
         "n_events": int, "truncated_spans": int}

    Partial traces are first-class: a path is read with
    ``tolerate_truncated_tail=True`` (a run killed mid-write leaves a torn
    final line), and spans that were *begun* but never *ended* — the
    signature of a crash or interrupt inside the span — are counted in
    ``truncated_spans`` rather than raising.  Their costs are simply
    absent from the phase table, which is the honest answer for a run
    that never attributed them.
    """
    if isinstance(events_or_path, str):
        events = read_trace(events_or_path, tolerate_truncated_tail=True)
    else:
        events = list(events_or_path)

    phases: dict[str, dict] = {}
    order: list[str] = []
    timeline: list[dict] = []
    widths = {"read": Histogram("io.read.width"), "write": Histogram("io.write.width")}
    open_spans: set = set()

    for ev in events:
        kind = ev.get("ev")
        name = ev.get("name", "")
        attrs = ev.get("attrs", {}) or {}
        if kind == "begin":
            open_spans.add(ev.get("span"))
        elif kind == "end":
            open_spans.discard(ev.get("span"))
            agg = phases.get(name)
            if agg is None:
                agg = phases[name] = {"name": name, "count": 0, "wall_s": 0.0}
                order.append(name)
            agg["count"] += 1
            agg["wall_s"] = round(agg["wall_s"] + float(ev.get("wall_s", 0.0)), 6)
            for key in _COST_KEYS:
                val = attrs.get(key)
                if isinstance(val, (int, float)) and not isinstance(val, bool):
                    agg[key] = agg.get(key, 0) + val
        elif kind == "event":
            if name == "balance.round":
                timeline.append(dict(attrs))
            elif name in ("io.read", "io.write"):
                width = attrs.get("width", attrs.get("disks"))
                if width is not None:
                    widths[name.split(".", 1)[1]].observe(int(width))
            elif name == "mem.step":
                # hierarchy machines: parallel memory steps tagged with the
                # access kind carry the stripe width of that step.
                step_kind = attrs.get("kind")
                width = attrs.get("width")
                if step_kind in ("read", "write") and width is not None:
                    widths[step_kind].observe(int(width))

    return {
        "phases": [phases[n] for n in order],
        "balance_timeline": timeline,
        "stripe_width": {
            kind: {str(k): v for k, v in sorted(h.counts.items())}
            for kind, h in widths.items()
        },
        "n_events": len(events),
        "truncated_spans": len(open_spans),
    }


class RunReport:
    """One run's observability surface as a schema-stable dict.

    Merge order: registry export under ``metrics``, span/phase aggregates
    under ``phases`` / ``balance_timeline`` / ``stripe_width``, the sort's
    own result summary under ``result``, and the invoking parameters under
    ``params``.
    """

    def __init__(
        self,
        command: str = "",
        params: dict | None = None,
        result: dict | None = None,
        metrics: dict | None = None,
        trace_summary: dict | None = None,
        audit: dict | None = None,
    ):
        self.command = command
        self.params = params or {}
        self.result = result or {}
        self.metrics = metrics or {}
        self.trace_summary = trace_summary or {
            "phases": [], "balance_timeline": [], "stripe_width": {}, "n_events": 0,
        }
        self.audit = audit

    @classmethod
    def from_observation(
        cls,
        obs: Observation,
        command: str = "",
        params: dict | None = None,
        result: dict | None = None,
        audit: dict | None = None,
    ) -> "RunReport":
        """Build a report from a live observation (registry + tracer)."""
        return cls(
            command=command,
            params=params,
            result=result,
            metrics=obs.registry.export(),
            trace_summary=summarize_trace(obs.tracer.events),
            audit=audit,
        )

    # ------------------------------------------------------------- export

    def to_dict(self) -> dict:
        """The schema-stable report dict (see module docstring)."""
        report = {
            "schema": SCHEMA,
            "command": self.command,
            "params": self.params,
            "result": self.result,
            "phases": self.trace_summary.get("phases", []),
            "balance_timeline": self.trace_summary.get("balance_timeline", []),
            "stripe_width": self.trace_summary.get("stripe_width", {}),
            "metrics": self.metrics,
            "n_trace_events": self.trace_summary.get("n_events", 0),
        }
        truncated = self.trace_summary.get("truncated_spans", 0)
        if truncated:
            report["truncated_spans"] = truncated
        if self.audit is not None:
            report["audit"] = self.audit
        return report

    def to_json(self, indent: int | None = 2) -> str:
        """The report as a JSON string (numpy values coerced)."""
        return json.dumps(self.to_dict(), indent=indent, default=_default)

    def write(self, path_or_dash: str) -> bool:
        """Write the JSON report to ``path`` (``"-"`` for stdout)."""
        return write_json(self.to_dict(), path_or_dash)

    # ------------------------------------------------------------- tables

    def tables(self) -> list[Table]:
        """Human rendering: one aligned table per report section."""
        return render_report(self.to_dict())


def write_json(doc, dest: str) -> bool:
    """Write ``doc`` as indented JSON to ``dest`` (``"-"`` for stdout).

    The one JSON writer behind every ``--emit-json`` / ``--stats-json``
    flag and :meth:`RunReport.write` (numpy values coerced).  Returns
    True when the document went to stdout, where it replaces the human
    tables.
    """
    text = json.dumps(doc, indent=2, default=_default)
    if dest == "-":
        print(text)
        return True
    with open(dest, "w") as fh:
        fh.write(text + "\n")
    return False


def _default(value):
    for attr in ("item", "tolist"):
        fn = getattr(value, attr, None)
        if fn is not None:
            return fn()
    return str(value)


def _phase_tables(report: dict) -> list[Table]:
    tables = []
    phases = report.get("phases", [])
    if phases:
        cost_cols = [k for k in _COST_KEYS if any(k in p for p in phases)]
        t = Table(["phase", "count", "wall s"] + cost_cols, title="per-phase breakdown")
        for p in phases:
            t.add(p["name"], p["count"], p["wall_s"], *[p.get(k, 0) for k in cost_cols])
        tables.append(t)
    timeline = report.get("balance_timeline", [])
    if timeline:
        t = Table(
            ["round", "placed", "swapped", "unprocessed", "balance factor"],
            title=f"balance-factor timeline ({len(timeline)} rounds)",
        )
        step = max(1, len(timeline) // 20)  # keep human output bounded
        shown = list(timeline[::step])
        if timeline[-1] not in shown:
            shown.append(timeline[-1])
        for row in shown:
            t.add(
                row.get("round", "?"), row.get("placed", ""), row.get("swapped", ""),
                row.get("unprocessed", ""), row.get("max_balance_factor", ""),
            )
        tables.append(t)
    stripe = report.get("stripe_width", {})
    if any(stripe.get(kind) for kind in ("read", "write")):
        t = Table(["io", "width", "count"], title="stripe-width histogram")
        for kind in ("read", "write"):
            for width, count in (stripe.get(kind) or {}).items():
                t.add(kind, width, count)
        tables.append(t)
    return tables


def render_report(report: dict) -> list[Table]:
    """Render a run-report dict (or ``repro report`` summary) as tables."""
    tables = []
    result = report.get("result", {})
    if result:
        t = Table(["metric", "value"], title=f"run report · {report.get('command', '')}")
        for key, val in result.items():
            t.add(key, val)
        tables.append(t)
    tables.extend(_phase_tables(report))
    return tables
