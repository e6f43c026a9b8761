"""Export repro JSONL traces to Chrome trace-event / Perfetto JSON.

Our traces (``repro sort --trace-out``, merged sweep traces, the golden
corpus) are readable only by our own tooling (``repro report`` /
``repro profile``).  This bridge converts them to the `Chrome trace-event
format`__ so any run opens in standard tools — ``ui.perfetto.dev``,
``chrome://tracing``, Speedscope:

* span ``begin``/``end`` pairs become complete duration events
  (``ph: "X"``, microsecond ``ts``/``dur``), carrying the span's final
  merged attrs (model I/Os, CPU time, level) as ``args``;
* resilience / audit point events (``fault.*``, ``retry.*``,
  ``audit.violation``, ``runner.*``, ``cache.*``) become instants
  (``ph: "i"``), so injected faults line up visually with the spans they
  hit;
* I/O round-trip events (``io.read`` / ``io.write`` / ``mem.step``)
  become sampled cumulative counter tracks (``ph: "C"``), and every
  ``balance.round`` samples its ``max_balance_factor`` — the Invariant 2
  trajectory as a counter lane;
* merged sweep traces keep their per-run structure: each synthetic
  ``run:<task>[i]`` root (see :mod:`repro.exec.merge`) gets its own
  thread track, named via metadata events.

__ https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

**Zero-clock traces.**  Payload traces are recorded under the pinned
deterministic clock (every ``ts`` is 0.0), which would collapse the
timeline to a single point.  When a trace carries no usable timestamps
the exporter falls back to *virtual time*: each trace record advances one
microsecond, so nesting, ordering, and round counts stay visible (the
``otherData.clock`` field says which mode produced the file).  Traces
recorded with the real clock (``--trace-out`` on a live run) keep their
wall-clock timeline.
"""

from __future__ import annotations

import json

from .diff import flatten
from .tracer import ROUND_EVENTS, read_trace, reading

__all__ = ["EXPORT_SCHEMA", "export_chrome_trace", "write_chrome_trace"]

EXPORT_SCHEMA = "repro.chrome_trace/1"

#: The process id every exported event carries (one logical process).
_PID = 1


def _uses_virtual_clock(events: list[dict]) -> bool:
    """True when no record carries a positive timestamp (zero-clock trace)."""
    for event in events:
        ts = event.get("ts")
        if isinstance(ts, (int, float)) and ts > 0:
            return False
    return True


def export_chrome_trace(
    events: list[dict],
    metrics: dict | None = None,
    counter_every: int = 64,
    source: str = "",
) -> dict:
    """Convert a list of repro trace records to a Chrome trace-event doc.

    Parameters
    ----------
    events:
        Trace records as loaded by :func:`~repro.obs.read_trace` (plain
        traces, merged sweep traces, and torn-tail partials all work —
        spans left open at EOF are closed at the last timestamp and
        tagged ``args.truncated``).
    metrics:
        Optional ``MetricsRegistry.export()`` dict (e.g. a payload's
        ``metrics``); its flattened numeric leaves are attached as one
        final counter sample per top-level scope.
    counter_every:
        Sampling stride for the cumulative I/O-rounds counter track (a
        sample per individual round event would dwarf the span data).
    source:
        Free-form provenance string recorded in ``otherData``.

    Returns the trace-event *object form*: ``{"traceEvents": [...],
    "displayTimeUnit": "ms", "otherData": {...}}`` — load it directly in
    ui.perfetto.dev.
    """
    virtual = _uses_virtual_clock(events)

    def stamp(event: dict, index: int) -> float:
        """Microsecond timestamp for one record (virtual: 1 record = 1µs)."""
        if virtual:
            return float(index)
        ts = event.get("ts")
        return round(float(ts) * 1e6, 3) if isinstance(ts, (int, float)) else 0.0

    max_ts = 0.0
    for i, event in enumerate(events):
        max_ts = max(max_ts, stamp(event, i))

    out: list[dict] = []
    #: span id -> tid; children inherit, ``run:*`` merge roots get fresh tids.
    tids: dict[int, int] = {}
    thread_names: dict[int, str] = {1: "main"}
    next_tid = 2
    #: span id -> (begin µs, name, tid) for spans still open.
    open_spans: dict[int, tuple[float, str, int]] = {}
    rounds = {name: 0 for name in ROUND_EVENTS}
    since_sample = 0

    def tid_for(event: dict) -> int:
        nonlocal next_tid
        span_id = event.get("span")
        parent = event.get("parent")
        if span_id in tids:
            return tids[span_id]
        if parent is not None and parent in tids:
            tid = tids[parent]
        elif str(event.get("name", "")).startswith("run:"):
            tid = next_tid
            next_tid += 1
            thread_names[tid] = str(event.get("name"))
        else:
            tid = 1
        if span_id is not None:
            tids[span_id] = tid
        return tid

    def sample_rounds(ts: float) -> None:
        out.append({
            "name": "I/O rounds", "ph": "C", "ts": ts,
            "pid": _PID, "tid": 0, "args": dict(rounds),
        })

    for i, event in enumerate(events):
        kind = event.get("ev")
        ts = stamp(event, i)
        if kind == "begin":
            tid = tid_for(event)
            open_spans[event.get("span")] = (ts, str(event.get("name", "")), tid)
        elif kind == "end":
            tid = tid_for(event)
            span_id = event.get("span")
            begin_ts, _, begin_tid = open_spans.pop(
                span_id, (ts, "", tid)
            )
            args = dict(event.get("attrs") or {})
            if "error" in event:
                args["error"] = event["error"]
            out.append({
                "name": str(event.get("name", "")), "ph": "X",
                "ts": begin_ts, "dur": max(0.0, ts - begin_ts),
                "pid": _PID, "tid": begin_tid, "cat": "span", "args": args,
            })
        elif kind == "event":
            name = str(event.get("name", ""))
            attrs = event.get("attrs") or {}
            if name in rounds:
                rounds[name] += 1
                since_sample += 1
                if since_sample >= counter_every:
                    since_sample = 0
                    sample_rounds(ts)
            elif name == "balance.round":
                factor = attrs.get("max_balance_factor")
                if factor is not None:
                    out.append({
                        "name": "balance factor", "ph": "C", "ts": ts,
                        "pid": _PID, "tid": 0,
                        "args": {"max_balance_factor": factor},
                    })
            else:
                # fault.* / retry.* / audit.violation / runner.* / cache.*
                # and anything future: a thread-scoped instant.
                parent = event.get("span")
                out.append({
                    "name": name, "ph": "i", "ts": ts,
                    "pid": _PID, "tid": tids.get(parent, 1), "s": "t",
                    "cat": "instant", "args": dict(attrs),
                })
    # Close spans the trace never ended (torn tail / killed run).
    for span_id, (begin_ts, name, tid) in sorted(open_spans.items()):
        out.append({
            "name": name, "ph": "X", "ts": begin_ts,
            "dur": max(0.0, max_ts - begin_ts),
            "pid": _PID, "tid": tid, "cat": "span",
            "args": {"truncated": True},
        })
    if any(rounds.values()):
        sample_rounds(max_ts)
    if metrics:
        for scope, subtree in sorted(metrics.items()):
            if not isinstance(subtree, dict):
                continue
            leaves = {
                path: value for path, value in flatten(subtree).items()
                if isinstance(value, (int, float))
            }
            if leaves:
                out.append({
                    "name": f"metrics:{scope}", "ph": "C", "ts": max_ts,
                    "pid": _PID, "tid": 0, "args": leaves,
                })
    # Track-naming metadata (Perfetto reads these to label threads).
    meta: list[dict] = [{
        "name": "process_name", "ph": "M", "pid": _PID, "tid": 0,
        "args": {"name": "repro"},
    }]
    for tid, name in sorted(thread_names.items()):
        meta.append({
            "name": "thread_name", "ph": "M", "pid": _PID, "tid": tid,
            "args": {"name": name},
        })
    return {
        "traceEvents": meta + out,
        "displayTimeUnit": "ms",
        "otherData": {
            "schema": EXPORT_SCHEMA,
            "clock": "virtual" if virtual else "wall",
            "events": len(events),
            "source": source,
        },
    }


def write_chrome_trace(
    trace_path: str,
    out_path: str,
    metrics: dict | None = None,
    counter_every: int = 64,
) -> dict:
    """Read a JSONL/gz trace file and write its Chrome trace-event JSON.

    Torn final lines are forgiven (a killed run's trace still exports).
    Returns the exported document (also written to ``out_path``).
    """
    with reading(trace_path):
        doc = export_chrome_trace(
            read_trace(trace_path, tolerate_truncated_tail=True),
            metrics=metrics, counter_every=counter_every, source=trace_path,
        )
    try:  # C canonical encoder when built — byte-identical output
        from .._speedups import dumps as _c_dumps

        text = _c_dumps(doc, False)
    except (ImportError, TypeError, ValueError, RecursionError):
        # One string, not a streaming json.dump: same bytes, a fraction
        # of the time.
        text = json.dumps(doc, separators=(",", ":"))
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")
    return doc
