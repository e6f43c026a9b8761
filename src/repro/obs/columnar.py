"""Columnar (structure-of-arrays) event journal for the hot trace path.

The simulators emit ~100 k point events per E1 cell (one per parallel
I/O, one per Balance round).  Building one dict per event *at emit time*
was the largest per-round constant left after the fused I/O plans, so
the events are not built as dicts at all unless a reader asks for them.

A :class:`ColumnarJournal` stores the hot events as typed scalar columns:
each registered *channel* (one fixed ``(name, attr-keys)`` shape) appends
``(seq, span, ts, *values)`` onto parallel Python lists (which grow
geometrically, like any list).  The shared ``seq`` counter interleaves
channels and cold literal events chronologically.

Cold events — span begin/end records, rare diagnostics, anything emitted
through the generic ``Tracer.event`` API — are stored as ready-made
*literal* dicts carrying their own sequence number, so the journal never
changes what an event looks like, only when the dict is allocated.

Two outputs
-----------
* :meth:`ColumnarJournal.materialize` — event dicts in emission order,
  each channel row the dict ``Tracer.event`` would have built.  A tracer
  with a sink materializes from its delivery cursor on
  (``materialize(start)``) at each literal it emits.
* :meth:`ColumnarJournal.export` — the payload form of the trace
  (``repro.exec_payload/2``): the literal dicts in emission order, then
  one ``{"ev": "rows", "name", "keys", "seq", "span", "ts", "cols"}``
  record per non-empty channel whose columns are plain JSON lists of
  scalars.  ``seq`` is each row's global position, ``span`` and ``ts``
  its span id and timestamp (``ts`` is the number ``0.0`` when every
  row's timestamp is zero, as on the zero clock of an exec payload), and
  ``cols`` one list per attr key.  No per-row dict is built.

:func:`expand_trace` turns the payload form back into the exact event
list (``repro.exec_payload/1``): rows go to their ``seq`` positions and
the literals fill the others in order.  It and ``materialize`` share one
row-to-dict builder, :func:`_place_rows`.

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
from itertools import repeat

__all__ = ["ColumnarJournal", "EventChannel", "expand_trace", "json_roundtrip_safe"]


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
            spans, ts, cols = ch.spans, ch.ts, ch.cols
            if start:
                i = bisect_left(seqs, start)
                seqs, spans, ts = seqs[i:], spans[i:], ts[i:]
                cols = [col[i:] for col in cols]
            _place_rows(out, start, ch.name, ch.keys, seqs, spans, ts, cols)
        return out

    def export(self) -> list[dict]:
        """Every recorded event in the payload form (``repro.exec_payload/2``).

        The literal dicts in emission order, then one ``rows`` record per
        non-empty channel, its columns copied into fresh lists; ``ts`` is
        ``0.0`` when every row of the channel reads zero.
        :func:`expand_trace` inverts this exactly.
        """
        rows = [
            {"ev": "rows", "name": ch.name, "keys": list(ch.keys),
             "seq": ch.seqs[:], "span": ch.spans[:],
             "ts": ch.ts[:] if any(ch.ts) else 0.0,
             "cols": [col[:] for col in ch.cols]}
            for ch in self.channels if ch.seqs
        ]
        return [*self._literals, *rows]

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


def _place_rows(out: list, start: int, name: str, keys, seqs, spans, ts,
                cols) -> None:
    """Put each row's event dict at ``out[seq - start]``.

    The one builder of channel-row dicts, shared by
    :meth:`ColumnarJournal.materialize` and :func:`expand_trace`.  ``ts``
    is a list, or one number every row gets.
    """
    if not isinstance(ts, list):
        ts = repeat(ts, len(seqs))
    if len(keys) == 1:
        k0 = keys[0]
        for seq, span, t, v0 in zip(seqs, spans, ts, cols[0]):
            out[seq - start] = {"ev": "event", "span": span, "name": name,
                                "ts": t, "attrs": {k0: v0}}
    else:
        for seq, span, t, *values in zip(seqs, spans, ts, *cols):
            out[seq - start] = {"ev": "event", "span": span, "name": name,
                                "ts": t, "attrs": dict(zip(keys, values))}


def expand_trace(trace: list) -> list[dict]:
    """The event list (``repro.exec_payload/1`` form) of a payload trace.

    The inverse of :meth:`ColumnarJournal.export` and the only code that
    turns a payload into event dicts: each ``rows`` record's rows become
    dicts at their ``seq`` positions and shallow copies of the literal
    records fill the remaining positions in order, so the caller owns
    every top-level dict it gets.  A trace without ``rows`` records (the
    ``/1`` form) comes back as copies of its records.  Raises
    ``ValueError`` when the row positions do not fit the trace.
    """
    literals: list = []
    blocks: list = []
    for rec in trace:
        (blocks if rec.get("ev") == "rows" else literals).append(rec)
    out: list = [None] * (len(literals) + sum(len(b["seq"]) for b in blocks))
    try:
        for b in blocks:
            _place_rows(out, 0, b["name"], b["keys"], b["seq"], b["span"],
                        b["ts"], b["cols"])
    except IndexError:
        raise ValueError("payload trace: a row position is out of range") from None
    free = [i for i, ev in enumerate(out) if ev is None]
    if len(free) != len(literals):
        raise ValueError("payload trace: two rows share a position")
    for i, rec in zip(free, literals):
        out[i] = dict(rec)
    return out
