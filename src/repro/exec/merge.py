"""Merging per-run observability payloads into one registry / one trace.

The parallel runner executes every grid cell under its own deterministic
:class:`~repro.obs.Observation` (metrics registry + zero-clock tracer).
To keep downstream consumers schema-stable — ``repro report``, the
``repro.run_report/1`` JSON, the trace tooling — the per-run payloads are
folded back into *one* registry and *one* event stream:

* **metrics** merge additively via
  :meth:`~repro.obs.MetricsRegistry.merge_export` (counters sum,
  histograms re-accumulate, gauge watermarks widen), so the merged export
  has exactly the shape of a single run's export;
* **traces** are expanded from the payload form into event dicts
  (:func:`~repro.obs.columnar.expand_trace`), then concatenate with
  span-ids re-based and each run wrapped in a synthetic
  ``run:<task>[<index>]`` span, so the merged stream is a valid trace
  (unique span ids, well-formed begin/end nesting) that
  :func:`~repro.obs.summarize_trace` and ``repro report`` consume
  unchanged.

Because every run's clock is pinned to zero, the merged trace is a pure
function of the specs — byte-identical between serial and process-pool
execution and across repeat runs.
"""

from __future__ import annotations

from typing import Sequence

from ..obs import MetricsRegistry
from ..obs.columnar import expand_trace
from ..obs.tracer import JsonlSink

__all__ = ["merge_metrics", "merge_trace_events", "write_merged_trace"]


def merge_metrics(
    payloads: Sequence[dict], registry: MetricsRegistry | None = None
) -> MetricsRegistry:
    """Fold every payload's ``metrics`` export into one registry."""
    registry = registry if registry is not None else MetricsRegistry()
    for payload in payloads:
        exported = payload.get("metrics") or {}
        if exported:
            registry.merge_export(exported)
    return registry


def merge_trace_events(payloads: Sequence[dict]) -> list[dict]:
    """Concatenate per-run traces into one well-formed event stream.

    Each run's events keep their relative order and attributes; span ids
    are re-based to stay unique across runs, and a wrapping
    ``run:<task>[<index>]`` span (carrying the run index and cached flag)
    brackets each run so per-run boundaries survive in the merged stream.
    """
    merged: list[dict] = []
    next_id = 1
    for index, payload in enumerate(payloads):
        events = expand_trace(payload.get("trace") or [])
        label = f"run:{payload.get('task', 'task')}[{index}]"
        root = next_id
        next_id += 1
        attrs = {"index": index}
        if "cached" in payload:
            attrs["cached"] = payload["cached"]
        merged.append(
            {"ev": "begin", "span": root, "parent": None, "name": label,
             "ts": 0.0, "attrs": dict(attrs)}
        )
        base = next_id - 1  # old span ids start at 1 → new = base + old
        max_old = 0
        for ev in events:  # expand_trace's dicts are ours to re-base
            old_span = ev.get("span")
            if old_span is not None:
                ev["span"] = base + int(old_span)
                max_old = max(max_old, int(old_span))
            if "parent" in ev:
                old_parent = ev["parent"]
                ev["parent"] = (
                    root if old_parent is None else base + int(old_parent)
                )
            merged.append(ev)
        next_id = base + max_old + 1
        merged.append(
            {"ev": "end", "span": root, "parent": None, "name": label,
             "ts": 0.0, "wall_s": 0.0, "attrs": dict(attrs)}
        )
    return merged


def write_merged_trace(events: Sequence[dict], path: str) -> int:
    """Write a merged trace (:func:`merge_trace_events`) as JSONL; returns
    the number of events."""
    sink = JsonlSink(path)
    try:
        for ev in events:
            sink.emit(ev)
    finally:
        sink.close()
    return len(events)
