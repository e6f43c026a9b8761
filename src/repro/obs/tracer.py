"""Span/event tracer over one columnar journal, with JSONL persistence.

Event schema (one JSON object per line in a trace file)::

    {"ev": "begin", "span": 3, "parent": 1, "name": "distribute",
     "ts": 0.0123, "attrs": {"level": 0}}
    {"ev": "end",   "span": 3, "name": "distribute", "ts": 0.0456,
     "wall_s": 0.0333, "attrs": {"level": 0, "ios": 182, "cpu_time": 4110}}
    {"ev": "event", "span": 3, "name": "balance.round", "ts": 0.02,
     "attrs": {"round": 7, "swapped": 2, "max_balance_factor": 1.5}}

``ts`` is seconds since the tracer was created (monotonic clock).  ``end``
events repeat the final attribute set — cost attribution recorded with
:meth:`Span.annotate` during the span (model I/Os, PRAM time, hierarchy
memory time) lands there, so offline consumers only need ``end`` lines to
reconstruct the per-phase breakdown.

Every event lands in the tracer's :class:`~repro.obs.columnar.ColumnarJournal`:
the hot point events (one per parallel I/O, one per Balance round) as
channel rows, everything else as literal dicts.  A sink sees the same
records, materialized in sequence order: each literal is delivered when
it is emitted, right after the channel rows recorded before it, and
:meth:`Tracer.close` delivers the rest.  An exec payload carries the
journal's own form instead (:meth:`Tracer.payload_events`: the channel
rows as typed columns), which :func:`~repro.obs.columnar.expand_trace`
turns back into the same records.

The disabled path: :data:`NULL_TRACER` (a :class:`NullTracer`) exposes
``span()`` / ``event()`` as constant no-ops — ``span()`` returns a shared
reusable context manager.  Machines keep their observation hooks as
``None`` by default and guard them with a single ``is not None`` check,
so un-instrumented runs execute the same arithmetic as before the
instrumentation existed (counted I/O and model costs are bit-identical).
"""

from __future__ import annotations

import gzip
import io as _io
import json
import time
from contextlib import contextmanager
from typing import Callable, Iterable, TextIO

from ..exceptions import InputError
from .columnar import ColumnarJournal
from .metrics import MetricsRegistry

try:  # optional C canonical-JSON encoder — byte-identical fast path
    from .._speedups import dumps as _c_dumps
except ImportError:
    _c_dumps = None

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "Observation",
    "JsonlSink",
    "ListSink",
    "read_trace",
    "reading",
    "ROUND_EVENTS",
    "zero_clock",
]

#: Point events that each count as one I/O round trip: a PDM parallel I/O
#: (``io.read`` / ``io.write``) or a hierarchy parallel memory step.
ROUND_EVENTS = ("io.read", "io.write", "mem.step")


def zero_clock() -> float:
    """The pinned clock: every ``ts`` / ``wall_s`` is exactly 0.0.

    Exec payloads trace on it so they stay a pure function of their
    spec.  A :class:`Tracer` on this clock records no per-event time.
    """
    return 0.0


class ListSink:
    """Collect emitted events in memory."""

    def __init__(self):
        self.events: list[dict] = []

    def emit(self, event: dict) -> None:
        """Append the event to the in-memory list."""
        self.events.append(event)

    def close(self) -> None:
        """Nothing to flush."""


class JsonlSink:
    """Stream events to a JSONL file (one compact JSON object per line).

    Paths ending in ``.gz`` are written gzip-compressed (with ``mtime=0``
    so repeated runs of a deterministic trace produce byte-identical
    files — the same convention the golden corpus uses).  Every trace
    reader in the repo (:func:`read_trace`, ``summarize_trace``,
    ``repro report`` / ``repro profile``) transparently reopens them.
    """

    def __init__(self, path_or_file: str | TextIO):
        self._extra: list = []
        if hasattr(path_or_file, "write"):
            self._fh: TextIO = path_or_file  # type: ignore[assignment]
            self._owned = False
        elif str(path_or_file).endswith(".gz"):
            raw = open(path_or_file, "wb")
            gz = gzip.GzipFile(filename="", mode="wb", fileobj=raw, mtime=0)
            self._fh = _io.TextIOWrapper(gz, encoding="utf-8")
            self._extra = [gz, raw]  # GzipFile.close() leaves `raw` open
            self._owned = True
        else:
            self._fh = open(path_or_file, "w")
            self._owned = True

    def emit(self, event: dict) -> None:
        """Write the event as one compact JSON line."""
        if _c_dumps is not None:
            try:
                self._fh.write(_c_dumps(event, False))
                self._fh.write("\n")
                return
            except (TypeError, ValueError, RecursionError):
                pass  # numpy scalar or similar: stdlib path coerces it
        self._fh.write(json.dumps(event, separators=(",", ":"), default=_jsonable))
        self._fh.write("\n")

    def close(self) -> None:
        """Flush, and close the file if this sink opened it."""
        self._fh.flush()
        if self._owned:
            self._fh.close()
            for layer in self._extra:
                layer.close()


def _jsonable(value):
    """Fallback encoder: numpy scalars and anything with ``item()``/``tolist()``."""
    for attr in ("item", "tolist"):
        fn = getattr(value, attr, None)
        if fn is not None:
            return fn()
    return str(value)


class Span:
    """One live span; use as returned by :meth:`Tracer.span`.

    ``annotate(**attrs)`` merges attribution (model costs, counts) into the
    span; the merged attrs are emitted on the ``end`` event.
    """

    __slots__ = ("tracer", "span_id", "parent_id", "name", "attrs", "t0", "_done")

    def __init__(self, tracer: "Tracer", span_id: int, parent_id: int | None,
                 name: str, attrs: dict):
        self.tracer = tracer
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.attrs = attrs
        self.t0 = 0.0
        self._done = False

    def annotate(self, **attrs) -> "Span":
        """Attach/overwrite attributes (emitted with the ``end`` event)."""
        self.attrs.update(attrs)
        return self

    def event(self, name: str, **attrs) -> None:
        """Emit a point event parented to this span."""
        self.tracer._emit_event(name, self.span_id, attrs)

    def __enter__(self) -> "Span":
        self.tracer._begin(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.tracer._end(self, error=exc_type.__name__ if exc_type else None)


class Tracer:
    """Nested span/event recorder.

    Spans nest via an explicit stack (``with tracer.span("distribute"):``);
    point events attach to the innermost open span.  Events are stored in
    a :class:`~repro.obs.columnar.ColumnarJournal`; an optional ``sink``
    (JSONL for offline analysis, :class:`ListSink`, telemetry) receives
    them as dicts in the same order — see the module docstring for when.
    """

    def __init__(self, sink=None, clock: Callable[[], float] = time.perf_counter):
        self.sink = sink
        self._clock = clock
        self._epoch = clock()
        self._stack: list[Span] = []
        self._next_id = 1
        #: Optional span-end observer (``observe_span_end(name, attrs)``)
        #: — the memory-telemetry sampler attaches here.  Span begin/end
        #: is the cold path (one pair per phase, not per I/O), so the
        #: detached cost is a single ``is not None`` test.
        self.memory = None
        self._journal = ColumnarJournal(
            None if clock is zero_clock else clock, self._epoch
        )
        self._mat_cache: tuple[int, list] | None = None
        #: Events handed to the sink so far (a sequence-number cursor).
        self._fed = 0

    def _emit(self, record: dict) -> None:
        seq = self._journal.literal(record)
        if self.sink is not None:
            if seq == self._fed:
                self.sink.emit(record)  # no channel rows since the last one
                self._fed = seq + 1
            else:
                self._feed_sink()

    def _feed_sink(self) -> None:
        """Hand the sink every recorded event it has not seen, in order."""
        journal = self._journal
        emit = self.sink.emit
        for record in journal.materialize(self._fed):
            emit(record)
        self._fed = journal.n

    # ----------------------------------------------------------- recording

    def _now(self) -> float:
        return self._clock() - self._epoch

    def span(self, name: str, **attrs) -> Span:
        """Open a nested span (context manager)."""
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(self, self._next_id, parent, name, attrs)
        self._next_id += 1
        return span

    def event(self, name: str, **attrs) -> None:
        """Emit a point event under the innermost open span."""
        stack = self._stack
        self._emit_event(name, stack[-1].span_id if stack else None, attrs)

    def _emit_event(self, name: str, span_id: int | None, attrs: dict) -> None:
        self._emit(
            {"ev": "event", "span": span_id, "name": name,
             "ts": round(self._clock() - self._epoch, 6), "attrs": attrs}
        )

    def _begin(self, span: Span) -> None:
        span.t0 = self._now()
        self._stack.append(span)
        self._journal.span_changed(span.span_id)
        self._emit(
            {"ev": "begin", "span": span.span_id, "parent": span.parent_id,
             "name": span.name, "ts": round(span.t0, 6), "attrs": dict(span.attrs)}
        )

    def _end(self, span: Span, error: str | None = None) -> None:
        if span._done:  # pragma: no cover - defensive
            return
        span._done = True
        while self._stack and self._stack[-1] is not span:
            self._stack.pop()  # tolerate mis-nested exits
        if self._stack:
            self._stack.pop()
        self._journal.span_changed(self._stack[-1].span_id if self._stack else None)
        now = self._now()
        record = {
            "ev": "end", "span": span.span_id, "parent": span.parent_id,
            "name": span.name, "ts": round(now, 6),
            "wall_s": round(now - span.t0, 6), "attrs": dict(span.attrs),
        }
        if error:
            record["error"] = error
        self._emit(record)
        if self.memory is not None:
            self.memory.observe_span_end(span.name, span.attrs)

    def close(self) -> None:
        """Close any dangling spans, feed the sink the rest, and close it."""
        while self._stack:
            self._end(self._stack[-1])
        if self.sink is not None:
            self._feed_sink()
            self.sink.close()

    # ------------------------------------------------------- columnar path

    def scalar_channel(self, name: str, keys: tuple):
        """Open a columnar channel for one fixed event shape.

        Returns an :class:`~repro.obs.columnar.EventChannel` whose
        ``appenders`` (hot paths) and ``append(*values)`` record the
        event ``{"ev": "event", ..., "name": name, "attrs":
        dict(zip(keys, values))}`` without building the dict
        (materialized lazily, in global order).  Values must be plain
        scalars — see the appender contract in :mod:`repro.obs.columnar`.
        """
        return self._journal.channel(name, keys)

    def payload_events(self) -> tuple[list, bool]:
        """``(trace, roundtrip_safe)`` for payload building.

        ``trace`` is the journal's payload form
        (:meth:`~repro.obs.columnar.ColumnarJournal.export`: the literal
        dicts, then the channel rows as typed columns), with no per-row
        dict built.  ``roundtrip_safe=True`` guarantees
        ``json.loads(json.dumps(trace))`` is value-identical to ``trace``
        (plain scalar trees only), which lets the exec layer skip the
        canonicalizing JSON round-trip for the trace portion of a payload.
        Channel values are scalars by contract, and the few literal
        records are scanned incrementally.
        """
        journal = self._journal
        return journal.export(), journal.literals_json_safe()

    # ---------------------------------------------------------- inspection

    @property
    def events(self) -> list[dict]:
        """Every recorded event as a dict, in emission order.

        Materialized from the journal and cached; the result is a
        snapshot — recording more events after reading it returns a
        fresh, longer list on the next access.
        """
        journal = self._journal
        cache = self._mat_cache
        if cache is not None and cache[0] == journal.n:
            return cache[1]
        events = journal.materialize()
        self._mat_cache = (journal.n, events)
        return events


class _NullSpan:
    """Reusable no-op span: every method returns instantly."""

    __slots__ = ()

    def annotate(self, **attrs) -> "_NullSpan":
        return self

    def event(self, name: str, **attrs) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracer that records nothing (the near-zero-overhead default)."""

    events: list = []
    memory = None

    def span(self, name: str, **attrs) -> _NullSpan:
        """The shared reusable no-op span."""
        return _NULL_SPAN

    def event(self, name: str, **attrs) -> None:
        """Discard the event."""

    def close(self) -> None:
        """Nothing to flush."""


NULL_TRACER = NullTracer()


class Observation:
    """The bundle the simulators accept: a metrics registry + a tracer.

    ``Observation()`` records in memory; ``Observation(trace_path=...)``
    also streams the trace to JSONL (see the tracer's delivery rule).
    Machines treat an absent observation (``None``) as "don't even
    look", which is the default.
    """

    def __init__(self, registry: MetricsRegistry | None = None, tracer: Tracer | None = None,
                 trace_path: str | None = None, memory=None):
        if tracer is None:
            tracer = Tracer(JsonlSink(trace_path)) if trace_path else Tracer()
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer
        #: Optional :class:`~repro.obs.memory.MemoryTelemetry` sampler —
        #: wired onto the tracer's span-end path so top-level phase
        #: boundaries get peak-RSS samples (out of band, never traced).
        self.memory = memory
        if memory is not None:
            tracer.memory = memory
        #: Callbacks the sorts register on every BalanceEngine they build
        #: (signature ``cb(engine, info)`` — see
        #: :meth:`repro.core.balance.BalanceEngine.add_round_observer`).
        self.engine_observers: list = []
        #: The installed :class:`~repro.obs.audit.TheoryAuditor`, if any.
        #: Every engine attached to this observation audits each of its
        #: rounds for it (:meth:`repro.core.balance.BalanceEngine.attach_obs`).
        self.auditor = None

    def scope(self, name: str) -> MetricsRegistry:
        """Shorthand for ``registry.scope(name)``."""
        return self.registry.scope(name)

    def span(self, name: str, **attrs):
        """Shorthand for ``tracer.span(...)``."""
        return self.tracer.span(name, **attrs)

    def event(self, name: str, **attrs) -> None:
        """Shorthand for ``tracer.event(...)``."""
        self.tracer.event(name, **attrs)

    def close(self) -> None:
        """Close the tracer (ends dangling spans, flushes the sink)."""
        self.tracer.close()


def _open_trace(path: str) -> TextIO:
    """Open a trace file, transparently decompressing gzip.

    Detection is by magic bytes (``\\x1f\\x8b``), not extension, so a
    ``.jsonl`` that is secretly gzipped (or a ``.gz`` that is not) still
    opens correctly.
    """
    with open(path, "rb") as probe:
        magic = probe.read(2)
    if magic == b"\x1f\x8b":
        return gzip.open(path, "rt", encoding="utf-8")
    return open(path)


def read_trace(
    path_or_lines: str | Iterable[str], tolerate_truncated_tail: bool = False
) -> list[dict]:
    """Load a JSONL trace back into a list of event dicts.

    Accepts a path (plain or gzipped JSONL) or an iterable of lines; blank
    lines are skipped, an unreadable file or a line that is not a JSON
    object raises :class:`~repro.exceptions.InputError` naming the file
    and line.  ``tolerate_truncated_tail=True`` forgives a malformed
    **final** line — the signature of a run that crashed or was
    interrupted mid-write — while still rejecting corruption anywhere
    else; offline summarizers pass it so partial traces stay readable.
    """
    where = ""
    if isinstance(path_or_lines, str):
        where = f"{path_or_lines}: "
        try:
            with _open_trace(path_or_lines) as fh:
                lines = fh.readlines()
        except (OSError, EOFError, UnicodeDecodeError) as exc:
            raise InputError(f"cannot read trace {path_or_lines}: {exc}") from None
    else:
        lines = list(path_or_lines)
    events = []
    last_index = len(lines)
    for i, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            if tolerate_truncated_tail and i == last_index:
                break  # torn tail of an interrupted run
            raise InputError(f"{where}bad trace line {i}: {exc}") from None
        if not isinstance(record, dict):
            raise InputError(f"{where}trace line {i} is not a JSON object")
        events.append(record)
    return events


@contextmanager
def reading(path: str):
    """Turn a record of ``path`` its reader cannot use into an InputError
    (say ``"wall_s": "abc"``), so the error names the file."""
    try:
        yield
    except InputError:
        raise
    except (AttributeError, TypeError, ValueError) as exc:
        raise InputError(f"{path}: unreadable record ({type(exc).__name__}: {exc})") from None
