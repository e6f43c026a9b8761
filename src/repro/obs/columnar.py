"""Columnar (structure-of-arrays) event journal for the hot trace path.

The simulators emit ~100 k point events per E1 cell (one per parallel
I/O, one per Balance round), and the payload contract freezes every one
of them: the exec payload's ``trace`` is a list of plain dicts with a
fixed schema.  Building those dicts *at emit time* is the single largest
per-round constant left after the fused I/O plans — ~100 k dict + kwargs
allocations per cell that exist only to be JSON-serialized once at the
end of the run.

A :class:`ColumnarJournal` stores the hot events as typed scalar columns
instead: each registered *channel* (one fixed ``(name, attr-keys)``
shape) appends ``(seq, span, ts, *values)`` onto parallel Python lists
(which grow geometrically, like any list), and the event dicts are
materialized **only at the serialization boundary** — bit-identical to
the dicts ``Tracer.event`` would have built, in the same global order
(the shared ``seq`` counter interleaves channels and cold literal
events chronologically).  A tracer with a sink materializes from its
delivery cursor on (``materialize(start)``) at each literal it emits.

Cold events — span begin/end records, rare diagnostics, anything emitted
through the generic ``Tracer.event`` API — are stored as ready-made
*literal* dicts carrying their own sequence number, so the journal never
changes what an event looks like, only when the dict is allocated.

Appender contract
-----------------
Values appended through a channel MUST be plain ``str`` / ``int`` /
``float`` / ``bool`` / ``None`` scalars (not numpy scalars, not tuples).
This is not checked per append — it is what lets the exec layer skip the
canonicalizing JSON round-trip for the trace portion of a payload
(:func:`json_roundtrip_safe` covers the few literal records instead).
"""

from __future__ import annotations

from bisect import bisect_left

__all__ = ["ColumnarJournal", "EventChannel", "json_roundtrip_safe"]


def json_roundtrip_safe(obj) -> bool:
    """True when ``json.loads(json.dumps(obj))`` is value-identical to ``obj``.

    Exact-type check on purpose: a numpy ``float64`` *is* a ``float``
    subclass and would serialize fine, but the round-trip changes its
    type to plain ``float`` — callers that skip the round-trip based on
    this predicate must end up with exactly the shapes the round-trip
    would have produced.  Tuples fail (JSON turns them into lists);
    non-``str`` dict keys fail (JSON stringifies them).
    """
    t = type(obj)
    if t in _SCALARS:
        return True
    # Scalar members are tested inline: one call per container, not per
    # value (a trace has thousands of small literal records to scan).
    if t is dict:
        for k, v in obj.items():
            if type(k) is not str or (
                type(v) not in _SCALARS and not json_roundtrip_safe(v)
            ):
                return False
        return True
    if t is list:
        for v in obj:
            if type(v) not in _SCALARS and not json_roundtrip_safe(v):
                return False
        return True
    return False


_SCALARS = frozenset((int, float, str, bool, type(None)))


class EventChannel:
    """One fixed event shape: parallel columns plus a fast appender.

    Channels are deliberately *not* deduplicated by ``(name, keys)``:
    every requester (one Balance engine, one disk machine) gets private
    columns, so deferred metric replay can keep an independent cursor
    per requester while materialization still interleaves everything
    chronologically through the shared sequence counter.
    """

    __slots__ = ("name", "keys", "seqs", "spans", "ts", "cols", "append")

    def __init__(self, journal: "ColumnarJournal", tracer, name: str,
                 keys: tuple):
        self.name = name
        self.keys = tuple(keys)
        self.seqs: list = []
        self.spans: list = []
        self.ts: list = []
        self.cols: list = [[] for _ in self.keys]
        # Build the appender closure with every per-event attribute
        # lookup hoisted: the only per-call work is the seq bump, the
        # span peek, the (usually pinned-to-zero) clock read, and one
        # list append per column.
        count = journal._count
        seqs_append = self.seqs.append
        spans_append = self.spans.append
        ts_append = self.ts.append
        stack = tracer._stack
        clock = tracer._clock
        epoch = tracer._epoch
        cols = self.cols
        if len(cols) == 1:
            col0_append = cols[0].append

            def append(v0):
                seqs_append(count[0])
                count[0] += 1
                spans_append(stack[-1].span_id if stack else None)
                t = clock() - epoch
                ts_append(round(t, 6) if t else 0.0)
                col0_append(v0)

        elif len(cols) == 2:
            col0_append = cols[0].append
            col1_append = cols[1].append

            def append(v0, v1):
                seqs_append(count[0])
                count[0] += 1
                spans_append(stack[-1].span_id if stack else None)
                t = clock() - epoch
                ts_append(round(t, 6) if t else 0.0)
                col0_append(v0)
                col1_append(v1)

        else:

            def append(*values):
                seqs_append(count[0])
                count[0] += 1
                spans_append(stack[-1].span_id if stack else None)
                t = clock() - epoch
                ts_append(round(t, 6) if t else 0.0)
                for col, v in zip(cols, values):
                    col.append(v)

        self.append = append

    def __len__(self) -> int:
        return len(self.seqs)


class ColumnarJournal:
    """Shared store for one tracer's events: channels + literal records."""

    __slots__ = ("_count", "channels", "_literal_seqs", "_literals",
                 "_literals_checked", "_literals_safe")

    def __init__(self):
        # Global sequence counter, shared (as a one-slot list) with every
        # channel appender so materialization can restore total order.
        self._count = [0]
        self.channels: list[EventChannel] = []
        self._literal_seqs: list[int] = []
        self._literals: list[dict] = []
        self._literals_checked = 0
        self._literals_safe = True

    @property
    def n(self) -> int:
        """Total events recorded (channels + literals)."""
        return self._count[0]

    def literal(self, record: dict) -> int:
        """Append a ready-made event dict; return its sequence number."""
        count = self._count
        seq = count[0]
        self._literal_seqs.append(seq)
        count[0] = seq + 1
        self._literals.append(record)
        return seq

    def channel(self, tracer, name: str, keys: tuple) -> EventChannel:
        """Open a new private channel for one fixed event shape."""
        ch = EventChannel(self, tracer, name, keys)
        self.channels.append(ch)
        return ch

    def materialize(self, start: int = 0) -> list[dict]:
        """Events from sequence number ``start`` on, as dicts, in emission order.

        Each channel row becomes the dict ``Tracer.event`` would build:
        ``{"ev": "event", "span": ..., "name": ..., "ts": ...,
        "attrs": {keys in declaration order}}``.
        """
        out: list = [None] * (self._count[0] - start)
        seqs = self._literal_seqs
        i = bisect_left(seqs, start) if start else 0
        for seq, rec in zip(seqs[i:], self._literals[i:]):
            out[seq - start] = rec
        for ch in self.channels:
            seqs = ch.seqs
            if not seqs or seqs[-1] < start:
                continue
            name = ch.name
            keys = ch.keys
            spans, ts, cols = ch.spans, ch.ts, ch.cols
            if start:
                i = bisect_left(seqs, start)
                seqs, spans, ts = seqs[i:], spans[i:], ts[i:]
                cols = [col[i:] for col in cols]
            if len(keys) == 1:
                k0 = keys[0]
                for seq, span, t, v0 in zip(seqs, spans, ts, cols[0]):
                    out[seq - start] = {"ev": "event", "span": span, "name": name,
                                        "ts": t, "attrs": {k0: v0}}
            else:
                for seq, span, t, *values in zip(seqs, spans, ts, *cols):
                    out[seq - start] = {"ev": "event", "span": span, "name": name,
                                        "ts": t, "attrs": dict(zip(keys, values))}
        return out

    def literals_json_safe(self) -> bool:
        """Whether every literal record survives a JSON round-trip as-is.

        Channel values are plain scalars by the appender contract, so the
        literals are the only part that needs checking; the check is
        incremental (each literal is scanned once).
        """
        if not self._literals_safe:
            return False
        literals = self._literals
        for rec in literals[self._literals_checked:]:
            if not json_roundtrip_safe(rec):
                self._literals_safe = False
                break
        self._literals_checked = len(literals)
        return self._literals_safe
