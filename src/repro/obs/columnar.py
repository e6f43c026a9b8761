"""Columnar (structure-of-arrays) event journal for the hot trace path.

The simulators emit ~40 k point events per 64 k-record E1 cell (one per
parallel I/O, one per Balance round).  Recording one costs about what a
counter costs: a few appends to plain lists through bound C methods, and
no Python call.  No event is built as a dict unless a reader asks.

A :class:`ColumnarJournal` keeps

* one journal-wide ``order`` list with one entry per event, in emission
  order: the index of the channel that recorded it, or ``-1`` for a
  literal;
* per *channel* (one fixed ``(name, attr-keys)`` shape) one column per
  attr key;
* the *literal* records — span begin/end records, rare diagnostics,
  anything emitted through the generic ``Tracer.event`` API — as
  ready-made dicts, so the journal never changes what an event looks
  like, only when the dict is allocated;
* a span log: the ``order`` position of every change of the innermost
  open span and the span id it changed to, from which each row's span
  id is read back;
* on a ticking clock, one raw clock reading per row.  A journal on the
  pinned clock (:func:`repro.obs.tracer.zero_clock`) keeps none: every
  row's timestamp is ``0.0``.

Recording a row
---------------
:attr:`EventChannel.appenders` is ``(mark, add_0, add_1, ...)``: call
``mark()``, then each ``add_i`` with the row's value for key ``i``.  On
the pinned clock ``mark`` is a :func:`functools.partial` of
``order.append``, so the whole row is C calls; on a ticking clock it is
a closure that also appends a clock reading.  :meth:`EventChannel.append`
does the same for callers off the hot path.

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
  row's timestamp is zero, as on the pinned clock of an exec payload),
  and ``cols`` one list per attr key.  No per-row dict is built.

:func:`expand_trace` turns the payload form back into the exact event
list (``repro.exec_payload/1``): rows go to their ``seq`` positions and
the literals fill the others in order.  It and ``materialize`` share one
row-to-dict builder, :func:`_place_rows`.

Appender contract
-----------------
Values appended through a channel MUST be plain ``str`` / ``int`` /
``float`` / ``bool`` / ``None`` scalars (not numpy scalars, not tuples),
and a ``mark()`` must be followed by exactly one value per column.
Neither is checked per row — it is what lets the exec layer skip the
canonicalizing JSON round-trip for the trace portion of a payload
(:func:`json_roundtrip_safe` covers the few literal records instead).
"""

from __future__ import annotations

from functools import partial
from itertools import repeat

import numpy as np

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
    """One fixed event shape: its columns and the appends that record a row.

    Channels are deliberately *not* deduplicated by ``(name, keys)``:
    every requester (one Balance engine, one disk machine) gets private
    columns, so deferred metric replay can keep an independent cursor
    per requester while materialization still interleaves everything
    chronologically through the journal's ``order`` list.
    """

    __slots__ = ("name", "keys", "cols", "ts", "appenders")

    def __init__(self, journal: "ColumnarJournal", index: int, name: str,
                 keys: tuple):
        if not keys:
            raise ValueError(f"channel {name!r} needs at least one attr key")
        self.name = name
        self.keys = tuple(keys)
        self.cols: list = [[] for _ in self.keys]
        #: Raw clock readings, one per row (None on the pinned clock).
        self.ts: list | None = None
        order_append = journal.order.append
        clock = journal.clock
        if clock is None:
            mark = partial(order_append, index)
        else:
            self.ts = []
            ts_append = self.ts.append

            def mark():
                order_append(index)
                ts_append(clock())

        self.appenders = (mark, *(col.append for col in self.cols))

    def append(self, *values) -> None:
        """Record one row (the off-hot-path form of :attr:`appenders`)."""
        if len(values) != len(self.keys):
            raise TypeError(
                f"channel {self.name!r} takes {len(self.keys)} values, got {len(values)}"
            )
        mark, *adds = self.appenders
        mark()
        for add, value in zip(adds, values):
            add(value)

    def __len__(self) -> int:
        return len(self.cols[0])


class ColumnarJournal:
    """Shared store for one tracer's events: channels + literal records.

    ``clock`` is the tracer's clock (``None`` for the pinned clock) and
    ``epoch`` its reading at creation: a row's timestamp is
    ``round(reading - epoch, 6)``, as ``Tracer`` stamps a literal.
    """

    __slots__ = ("order", "channels", "clock", "epoch", "_literals",
                 "_span_pos", "_span_top", "_cursor", "_literals_checked",
                 "_literals_safe")

    def __init__(self, clock=None, epoch: float = 0.0):
        self.order: list[int] = []
        self.channels: list[EventChannel] = []
        self.clock = clock
        self.epoch = epoch
        self._literals: list[dict] = []
        self._span_pos: list[int] = []
        self._span_top: list = []
        # (position, rows per code + 1 before it): where the last
        # materialize stopped, so a sink's next window starts there.
        self._cursor: tuple[int, list] = (0, [0])
        self._literals_checked = 0
        self._literals_safe = True

    @property
    def n(self) -> int:
        """Total events recorded (channels + literals)."""
        return len(self.order)

    def literal(self, record: dict) -> int:
        """Append a ready-made event dict; return its sequence number."""
        seq = len(self.order)
        self.order.append(-1)
        self._literals.append(record)
        return seq

    def span_changed(self, span_id: int | None) -> None:
        """Log that rows recorded from now on belong to span ``span_id``."""
        self._span_pos.append(len(self.order))
        self._span_top.append(span_id)

    def channel(self, name: str, keys: tuple) -> EventChannel:
        """Open a new private channel for one fixed event shape."""
        ch = EventChannel(self, len(self.channels), name, keys)
        self.channels.append(ch)
        return ch

    def _window(self, start: int) -> tuple[list, list]:
        """The events from position ``start`` on, gathered per code.

        Returns ``(literals, blocks)``: the literal records in order, and
        one ``(channel, seqs, spans, ts, cols)`` per channel with rows in
        the window, in channel order — ``seqs`` their global positions,
        ``spans`` their span ids, ``ts`` their timestamps (a list, or the
        number ``0.0`` on the pinned clock) and ``cols`` their values.
        """
        order = self.order
        n = len(order)
        codes = np.fromiter(order[start:n], dtype=np.int64, count=n - start)
        base = self._rows_before(start)
        counts = np.bincount(codes + 1, minlength=len(self.channels) + 1).tolist()
        base += [0] * (len(counts) - len(base))
        self._cursor = (n, [b + c for b, c in zip(base, counts)])
        literals = self._literals[base[0] : base[0] + counts[0]]
        if not any(counts[1:]):
            return literals, []
        tops = np.array([None, *self._span_top], dtype=object)
        span_pos = np.array(self._span_pos, dtype=np.int64)
        epoch = self.epoch
        blocks = []
        for index in np.flatnonzero(counts[1:]).tolist():
            ch = self.channels[index]
            seqs = np.flatnonzero(codes == index) + start
            lo = base[index + 1]
            hi = lo + counts[index + 1]
            spans = tops[np.searchsorted(span_pos, seqs, side="right")].tolist()
            if ch.ts is None:
                ts = 0.0
            else:
                ts = []
                for reading in ch.ts[lo:hi]:
                    t = reading - epoch
                    ts.append(round(t, 6) if t else 0.0)
            blocks.append((ch, seqs.tolist(), spans, ts,
                           [col[lo:hi] for col in ch.cols]))
        return literals, blocks

    def _rows_before(self, start: int) -> list:
        """Events per code + 1 (literals first) at positions ``< start``."""
        pos, counts = self._cursor
        if start == pos:
            return list(counts)
        if start == 0:
            return [0]
        codes = np.fromiter(self.order[:start], dtype=np.int64, count=start)
        return np.bincount(codes + 1, minlength=len(self.channels) + 1).tolist()

    def materialize(self, start: int = 0) -> list[dict]:
        """Events from sequence number ``start`` on, as dicts, in emission order.

        Each channel row becomes the dict ``Tracer.event`` would build:
        ``{"ev": "event", "span": ..., "name": ..., "ts": ...,
        "attrs": {keys in declaration order}}``.
        """
        literals, blocks = self._window(start)
        out: list = [None] * (len(self.order) - start)
        for ch, seqs, spans, ts, cols in blocks:
            _place_rows(out, start, ch.name, ch.keys, seqs, spans, ts, cols)
        if literals:
            free = [i for i, ev in enumerate(out) if ev is None]
            for i, rec in zip(free, literals):
                out[i] = rec
        return out

    def export(self) -> list[dict]:
        """Every recorded event in the payload form (``repro.exec_payload/2``).

        The literal dicts in emission order, then one ``rows`` record per
        non-empty channel, its columns copied into fresh lists; ``ts`` is
        ``0.0`` when every row of the channel reads zero.
        :func:`expand_trace` inverts this exactly.
        """
        literals, blocks = self._window(0)
        rows = [
            {"ev": "rows", "name": ch.name, "keys": list(ch.keys),
             "seq": seqs, "span": spans,
             "ts": ts if isinstance(ts, list) and any(ts) else 0.0,
             "cols": cols}
            for ch, seqs, spans, ts, cols in blocks
        ]
        return [*literals, *rows]

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
