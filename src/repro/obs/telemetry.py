"""Live telemetry: a streaming progress channel for long-running sweeps.

The obs stack up to PR 5 was entirely post-hoc: traces, reports, and the
journal all become readable *after* a run exits.  This module adds the
third leg — a **line-buffered JSONL progress stream** (schema
``repro.progress/1``) that the :class:`~repro.exec.JobRunner` and
the sorts' phase spans append to *while the sweep runs*, so a grid that
takes minutes is observable from the first second:

* ``repro sweep --live`` renders an in-place stderr progress view fed by
  the stream (:class:`LiveProgressView`);
* ``repro top <telemetry.jsonl>`` tails the same file from another
  terminal (or reads what is left of it after a SIGKILL — torn tails are
  forgiven exactly like the resilience journal's);
* any other consumer can follow the file with ``tail -f`` — one compact
  JSON object per line, flushed per line.

**The determinism contract is untouched.**  Telemetry is *run-level*
observability, like the PR 5 journal: the runner writes cell lifecycle
events from the coordinating process, and worker-side phase progress is
teed off the tracer's *sink* while payloads are built from the tracer's
in-memory event list — the payload bytes are provably identical with
telemetry on or off (tested, extending PR 1's measurements-bit-identical
guarantee).  Telemetry lines carry real wall-clock timestamps precisely
*because* they never enter a payload.

Event vocabulary (one JSON object per line; additive evolution)::

    {"ev": "sweep_start", "schema": "repro.progress/1", "ts": ...,
     "src": "runner", "task": "sort_pdm", "cells": 12, "jobs": 4,
     "grid": "<fingerprint>"}
    {"ev": "cell_start",  "key": "3f2a...", "index": 4, "attempt": 0}
    {"ev": "progress",    "src": "cell:3f2a...", "phase": "distribute",
     "rounds": 2048, "spans": 31, "max_balance_factor": 1.5}
    {"ev": "cell_retry",  "key": "3f2a...", "attempt": 1, "error": "..."}
    {"ev": "cell_finish", "key": "3f2a...", "index": 4, "cached": false,
     "failed": false, "seconds": 1.23, "records": 16000,
     "records_per_sec": 13008}
    {"ev": "pool_rebuilt", "reason": "crash"}
    {"ev": "sweep_end",   "cells": 12, "executed": 9, "cached": 3,
     "failed": 0, "seconds": 41.2}

Multi-process safety: every record is serialized to one line and written
with a single flushed ``write`` on an append-mode handle — on POSIX,
O_APPEND writes below the pipe-buffer size land atomically, so worker
processes and the runner can share one file without interleaving
corruption.  Readers still tolerate a torn *final* line (the SIGKILL
signature), the same forgiveness the journal and trace readers give.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from contextlib import contextmanager

from .memory import peak_rss_kb
from .tracer import ROUND_EVENTS, read_trace

__all__ = [
    "PROGRESS_SCHEMA",
    "TelemetryWriter",
    "activate_telemetry",
    "active_telemetry",
    "ProgressSink",
    "read_telemetry",
    "aggregate_progress",
    "render_progress_line",
    "progress_tables",
    "LiveProgressView",
]

PROGRESS_SCHEMA = "repro.progress/1"


def _jsonable(value):
    for attr in ("item", "tolist"):
        fn = getattr(value, attr, None)
        if fn is not None:
            return fn()
    return str(value)


class TelemetryWriter:
    """Append-only, line-buffered JSONL writer for the progress channel.

    One :meth:`emit` = one complete line = one flushed write, so the file
    is tailable mid-sweep and safe to share between the runner process
    and its workers (each opens its own append handle).
    """

    def __init__(self, path: str, source: str = "runner", clock=time.time):
        self.path = path
        self.source = source
        self._clock = clock
        self._fh = open(path, "a", encoding="utf-8")

    def emit(self, ev: str, **fields) -> None:
        """Append one progress record (stamped with real wall-clock)."""
        record = {"ev": ev, "ts": round(self._clock(), 3), "src": self.source}
        record.update(fields)
        self._fh.write(
            json.dumps(record, separators=(",", ":"), default=_jsonable) + "\n"
        )
        self._fh.flush()

    def close(self) -> None:
        """Flush and close the underlying handle."""
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "TelemetryWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


# ------------------------------------------------------------------ ambient

#: The ambient telemetry writer for the currently executing attempt (or
#: None).  Mirrors the resilience injector's ambient pattern: the runner
#: installs a per-cell writer around task execution, and
#: :func:`~repro.exec.tasks.run_task` tees phase progress into it without
#: the task signature (or payload) changing at all.
_ACTIVE: "TelemetryWriter | None" = None


def active_telemetry() -> "TelemetryWriter | None":
    """The writer installed by :func:`activate_telemetry`, if any."""
    return _ACTIVE


@contextmanager
def activate_telemetry(writer: "TelemetryWriter | None"):
    """Install ``writer`` as the ambient telemetry channel for the block."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = writer
    try:
        yield writer
    finally:
        _ACTIVE = previous


# ------------------------------------------------------------- tracer tee


class ProgressSink:
    """A tracer *sink* that forwards throttled phase progress to telemetry.

    Installed by :func:`~repro.exec.tasks.run_task` when an ambient
    :class:`TelemetryWriter` is active: the task's zero-clock tracer
    keeps building the payload from its in-memory event list exactly as
    before (payload bytes unchanged), while this sink — a pure observer
    of the same stream — counts spans and I/O rounds and emits a compact
    ``progress`` line every ``every`` events or ``interval`` real
    seconds, whichever comes first.  Top-level phase transitions
    (``partition`` / ``distribute`` / ``recurse`` / ``base-case`` at
    recursion level 0) are forwarded immediately as ``phase`` lines.
    Like every sink it receives the tracer's delivery order: each span
    boundary at once, after the I/O rows recorded since the previous
    one, so round counts advance in bursts between boundaries.
    """

    #: Phase span names worth announcing at recursion level 0.
    PHASES = ("partition", "distribute", "recurse", "base-case", "merge")

    def __init__(
        self,
        writer: TelemetryWriter,
        every: int = 2048,
        interval: float = 0.25,
        clock=time.monotonic,
    ):
        self.writer = writer
        self.every = max(1, int(every))
        self.interval = float(interval)
        self._clock = clock
        self._last_flush = clock()
        self._since_flush = 0
        self.rounds = 0
        self.spans = 0
        self.events = 0
        self.balance_rounds = 0
        self.max_balance_factor = None
        self.phase = ""

    def emit(self, event: dict) -> None:
        """Observe one trace event; maybe forward a progress line."""
        self.events += 1
        kind = event.get("ev")
        name = event.get("name", "")
        if kind == "event":
            if name in ROUND_EVENTS:
                self.rounds += 1
            elif name == "balance.round":
                self.balance_rounds += 1
                factor = (event.get("attrs") or {}).get("max_balance_factor")
                if factor is not None:
                    self.max_balance_factor = factor
        elif kind == "begin":
            if name in self.PHASES and (
                (event.get("attrs") or {}).get("level", 0) == 0
            ):
                self.phase = name
                # Memory telemetry rides the same lines (an RSS field on
                # phase/progress records); like the timestamps, it never
                # enters a payload.
                self.writer.emit("phase", phase=name, rss_kb=peak_rss_kb())
        elif kind == "end":
            self.spans += 1
        self._since_flush += 1
        if self._since_flush >= self.every or (
            self._clock() - self._last_flush >= self.interval
        ):
            self.flush()

    def flush(self) -> None:
        """Emit the cumulative progress counters as one line."""
        self._since_flush = 0
        self._last_flush = self._clock()
        fields = {
            "phase": self.phase,
            "rounds": self.rounds,
            "spans": self.spans,
            "balance_rounds": self.balance_rounds,
        }
        if self.max_balance_factor is not None:
            fields["max_balance_factor"] = self.max_balance_factor
        fields["rss_kb"] = peak_rss_kb()
        self.writer.emit("progress", **fields)

    def close(self) -> None:
        """Final progress flush (called by ``Tracer.close``)."""
        if self.events:
            self.flush()


# ------------------------------------------------------------- aggregation


def read_telemetry(path: str) -> list[dict]:
    """Load a telemetry stream; a torn final line (SIGKILL) is forgiven."""
    return read_trace(path, tolerate_truncated_tail=True)


def aggregate_progress(events: list[dict]) -> dict:
    """Fold a ``repro.progress/1`` stream into one live-state snapshot.

    Returns (additive schema)::

        {"schema": "repro.progress/1", "task": str, "cells": int,
         "done": int, "cached": int, "failed": int, "retried": int,
         "running": [{"key", "phase", "rounds", "elapsed_s"}, ...],
         "rounds": int, "records": int, "records_per_sec": float|None,
         "elapsed_s": float, "eta_s": float|None, "finished": bool}

    The ETA extrapolates from the content-hashed grid: cells remaining ×
    the mean wall-clock of the cells *executed* so far (cache hits are
    ~free and excluded from the mean); it is None until the first
    executed cell lands.
    """
    state = {
        "schema": PROGRESS_SCHEMA,
        "task": "",
        "grid": "",
        "cells": 0,
        "jobs": 1,
        "done": 0,
        "cached": 0,
        "failed": 0,
        "retried": 0,
        "rounds": 0,
        "records": 0,
        "records_per_sec": None,
        "elapsed_s": 0.0,
        "eta_s": None,
        "finished": False,
        "running": [],
    }
    peak_rss = 0
    mem_high_water = 0
    t_start = None
    t_last = None
    started: dict[str, dict] = {}  # key -> {"ts", "phase", "rounds"}
    cell_progress: dict[str, dict] = {}  # src -> latest progress fields
    exec_seconds: list[float] = []
    exec_records = 0
    exec_total_s = 0.0
    for ev in events:
        ts = ev.get("ts")
        if isinstance(ts, (int, float)):
            t_start = ts if t_start is None else t_start
            t_last = ts
        kind = ev.get("ev")
        if kind == "sweep_start":
            state["task"] = ev.get("task", state["task"])
            state["grid"] = ev.get("grid", state["grid"])
            state["cells"] = ev.get("cells", state["cells"])
            state["jobs"] = ev.get("jobs", state["jobs"])
        elif kind == "cell_start":
            started[ev.get("key", "")] = {"ts": ts, "phase": "", "rounds": 0}
        elif kind in ("progress", "phase"):
            src = ev.get("src", "")
            cur = cell_progress.setdefault(src, {})
            cur.update({k: ev[k] for k in ("phase", "rounds") if k in ev})
            peak_rss = max(peak_rss, int(ev.get("rss_kb") or 0))
        elif kind == "cell_mem":
            peak_rss = max(peak_rss, int(ev.get("peak_rss_kb") or 0))
            mem_high_water = max(
                mem_high_water, int(ev.get("high_water_blocks") or 0)
            )
        elif kind == "cell_retry":
            state["retried"] += 1
        elif kind == "cell_finish":
            state["done"] += 1
            started.pop(ev.get("key", ""), None)
            if ev.get("cached"):
                state["cached"] += 1
            elif ev.get("failed"):
                state["failed"] += 1
            else:
                seconds = float(ev.get("seconds", 0.0))
                exec_seconds.append(seconds)
                exec_total_s += seconds
                exec_records += int(ev.get("records") or 0)
            state["rounds"] += int(ev.get("rounds") or 0)
        elif kind == "sweep_end":
            state["finished"] = True
    if t_start is not None and t_last is not None:
        state["elapsed_s"] = round(t_last - t_start, 3)
    if exec_total_s > 0 and exec_records:
        state["records_per_sec"] = round(exec_records / exec_total_s, 1)
    state["records"] = exec_records
    # Live rounds: completed cells' totals plus the running cells' latest.
    running = []
    for key, info in started.items():
        src = f"cell:{key[:16]}"
        progress = cell_progress.get(src, {})
        running.append({
            "key": key,
            "phase": progress.get("phase", ""),
            "rounds": progress.get("rounds", 0),
            "elapsed_s": (
                round(t_last - info["ts"], 3)
                if t_last is not None and info["ts"] is not None else None
            ),
        })
        state["rounds"] += int(progress.get("rounds") or 0)
    state["running"] = running
    if (
        not state["finished"]
        and exec_seconds
        and state["cells"]
    ):
        remaining = max(0, state["cells"] - state["done"])
        mean_s = sum(exec_seconds) / len(exec_seconds)
        state["eta_s"] = round(
            remaining * mean_s / max(1, state["jobs"]), 1
        )
    if peak_rss:
        state["peak_rss_kb"] = peak_rss
    if mem_high_water:
        state["mem_high_water_blocks"] = mem_high_water
    return state


def render_progress_line(state: dict) -> str:
    """One-line human rendering of an aggregated progress state."""
    cells = state.get("cells") or "?"
    parts = [
        f"{state.get('done', 0)}/{cells} cells",
        f"{state.get('cached', 0)} cached",
        f"{state.get('failed', 0)} failed",
    ]
    if state.get("retried"):
        parts.append(f"{state['retried']} retried")
    running = state.get("running") or []
    if running:
        head = running[0]
        phase = f" in {head['phase']}" if head.get("phase") else ""
        parts.append(f"{len(running)} running{phase}")
    if state.get("rounds"):
        parts.append(f"{state['rounds']} rounds")
    if state.get("records_per_sec"):
        parts.append(f"{state['records_per_sec']:g} rec/s")
    if state.get("peak_rss_kb"):
        parts.append(f"rss {state['peak_rss_kb'] / 1024:.0f} MiB")
    parts.append(f"elapsed {state.get('elapsed_s', 0.0):.1f}s")
    if state.get("eta_s") is not None:
        parts.append(f"eta {state['eta_s']:.1f}s")
    if state.get("finished"):
        parts.append("done")
    return "[sweep] " + " · ".join(parts)


def progress_tables(state: dict):
    """Aligned tables for ``repro top``: sweep summary + running cells."""
    from ..analysis.reporting import Table

    title = f"sweep progress · {state.get('task') or '?'}"
    if state.get("grid"):
        title += f" · grid {state['grid']}"
    t = Table(["metric", "value"], title=title)
    t.add("cells", state.get("cells", 0))
    t.add("done", state.get("done", 0))
    t.add("cached", state.get("cached", 0))
    t.add("failed", state.get("failed", 0))
    t.add("retried", state.get("retried", 0))
    t.add("I/O rounds", state.get("rounds", 0))
    t.add("records sorted", state.get("records", 0))
    if state.get("records_per_sec") is not None:
        t.add("records/sec", state["records_per_sec"])
    if state.get("peak_rss_kb"):
        t.add("peak RSS kB", state["peak_rss_kb"])
    if state.get("mem_high_water_blocks"):
        t.add("mem high-water blocks", state["mem_high_water_blocks"])
    t.add("elapsed s", state.get("elapsed_s", 0.0))
    if state.get("eta_s") is not None:
        t.add("eta s", state["eta_s"])
    t.add("finished", state.get("finished", False))
    tables = [t]
    running = state.get("running") or []
    if running:
        rt = Table(["cell key", "phase", "rounds", "elapsed s"],
                   title=f"running cells · {len(running)}")
        for cell in running:
            rt.add(
                cell["key"][:16], cell.get("phase") or "-",
                cell.get("rounds", 0),
                "-" if cell.get("elapsed_s") is None else cell["elapsed_s"],
            )
        tables.append(rt)
    return tables


# --------------------------------------------------------------- live view


class LiveProgressView:
    """In-place stderr progress renderer fed by tailing a telemetry file.

    A daemon thread re-reads the stream every ``interval`` seconds
    (telemetry files are small — cell lifecycle plus throttled progress
    lines), aggregates it, and redraws one status line: carriage-return
    in-place updates on a TTY, change-only appended lines otherwise (so
    piped/captured stderr stays readable).  Rendering never touches
    stdout — the sweep table stays byte-deterministic.
    """

    def __init__(self, path: str, stream=None, interval: float = 0.5):
        self.path = path
        self.stream = stream if stream is not None else sys.stderr
        self.interval = float(interval)
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._last_line = ""
        self._tty = bool(getattr(self.stream, "isatty", lambda: False)())

    # ------------------------------------------------------------- control

    def start(self) -> "LiveProgressView":
        """Begin tailing in a daemon thread."""
        self._thread = threading.Thread(
            target=self._run, name="repro-live-progress", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the thread and finish the line with a newline (TTY only)."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self._refresh()  # final state
        if self._tty and self._last_line:
            self.stream.write("\n")
            self.stream.flush()

    def __enter__(self) -> "LiveProgressView":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # ------------------------------------------------------------ internals

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                if self._refresh():
                    break  # sweep_end observed
            except Exception:  # pragma: no cover - rendering must not kill
                pass

    def _refresh(self) -> bool:
        """Re-read, re-render; returns True once the sweep has ended."""
        try:
            events = read_telemetry(self.path)
        except (OSError, ValueError):
            return False
        if not events:
            return False
        state = aggregate_progress(events)
        line = render_progress_line(state)
        if line != self._last_line:
            if self._tty:
                self.stream.write("\r\x1b[K" + line)
            else:
                self.stream.write(line + "\n")
            self.stream.flush()
            self._last_line = line
        return bool(state.get("finished"))
