"""The payload form of a trace, its expander, and the payload path's memory.

An exec payload (``repro.exec_payload/2``) carries the tracer journal's
own form (:meth:`~repro.obs.columnar.ColumnarJournal.export`): literal
records as dicts, channel rows as typed columns.
:func:`~repro.obs.columnar.expand_trace` must rebuild exactly the event
list the journal materializes, a sink receives and dict-per-event
recording yields, for any interleaving of channel rows, literal events
and nested or mis-nested spans, on the pinned and a ticking clock, with
partial ``materialize(start)`` calls in between; and the payload form
must survive a JSON round trip unchanged.  The corpus-level oracle (the
``/1`` payloads under ``tests/golden/v1/``) is in
``tests/test_golden_reports.py``.
"""

import gc
import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec import merge_trace_events, run_task
from repro.exec.runner import _payload_rounds
from repro.obs import ROUND_EVENTS, ListSink, Tracer, zero_clock
from repro.obs.columnar import expand_trace

ROUND_KEYS = ("round", "placed", "swapped", "unprocessed", "match_calls",
              "max_balance_factor")

#: Channel shapes, as the simulators open them: 1-, 2- and 6-key rows;
#: two machines' ``io.read`` and two engines' ``balance.round`` channels
#: share a name and keys; one ``io.write`` shape differs only in keys.
CHANNELS = (
    ("io.read", ("width",)),
    ("io.read", ("width",)),
    ("io.write", ("width", "full_stripe")),
    ("io.write", ("width",)),
    ("balance.round", ROUND_KEYS),
    ("balance.round", ROUND_KEYS),
)

scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-2**53, 2**53),
    st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=4),
)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
attrs = st.dictionaries(st.sampled_from(["level", "k", "info", "ios"]),
                        json_values, max_size=3)
names = st.sampled_from(["distribute", "recurse", "note", "io.read"])


def _row(index: int):
    keys = CHANNELS[index][1]
    return st.tuples(st.just("row"), st.just(index),
                     st.lists(scalars, min_size=len(keys), max_size=len(keys)))


ops = st.lists(
    st.one_of(
        st.tuples(st.just("begin"), names, attrs),
        # End the innermost open span (0) or one further out (mis-nested).
        st.tuples(st.just("end"), st.integers(0, 3), st.booleans(), attrs),
        st.tuples(st.just("event"), names, attrs),
        st.tuples(st.just("peek"), st.floats(0, 1)),
        *(_row(i) for i in range(len(CHANNELS))),
    ),
    max_size=40,
)


def _record(script, clock, sink, dicts=False) -> tuple[Tracer, list]:
    """Drive a tracer through ``script``; one channel stays empty.

    ``dicts`` records each row through ``Tracer.event`` instead (one
    literal dict per event: the reference).  Returns the tracer and the
    ``(start, end, materialize(start))`` of every peek.
    """
    tr = Tracer(sink=sink, clock=clock)
    channels = [tr.scalar_channel(name, keys) for name, keys in CHANNELS]
    tr.scalar_channel("io.read", ("width",))  # never appended to
    open_spans = []
    peeks = []
    for op in script:
        if op[0] == "begin":
            span = tr.span(op[1], **op[2])
            span.__enter__()
            open_spans.append(span)
        elif op[0] == "end" and open_spans:
            span = open_spans.pop(-1 - op[1] % len(open_spans))
            span.annotate(**op[3])
            span.__exit__(RuntimeError if op[2] else None, None, None)
        elif op[0] == "event":
            tr.event(op[1], **op[2])
        elif op[0] == "peek" and not dicts:
            journal = tr._journal
            start = int(op[1] * journal.n)
            peeks.append((start, journal.n, journal.materialize(start)))
        elif op[0] == "row":
            name, keys = CHANNELS[op[1]]
            if dicts:
                tr.event(name, **dict(zip(keys, op[2])))
            else:
                channels[op[1]].append(*op[2])
    tr.close()
    return tr, peeks


def _ticking():
    ticks = itertools.count()
    return lambda: next(ticks) * 0.001


def _clock(kind: str):
    """The pinned clock, a constant one the tracer cannot tell is
    constant, or one that ticks at every read."""
    if kind == "pinned":
        return zero_clock
    if kind == "constant":
        return lambda: 0.0
    return _ticking()


class TestExpandRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(script=ops, clock=st.sampled_from(["pinned", "constant", "ticking"]),
           with_sink=st.booleans())
    def test_expanded_payload_equals_journal_and_sink(self, script, clock,
                                                      with_sink):
        sink = ListSink() if with_sink else None
        tr, peeks = _record(script, _clock(clock), sink)
        reference, _ = _record(script, _clock(clock), None, dicts=True)
        trace, safe = tr.payload_events()
        events = tr.events
        assert safe
        assert expand_trace(trace) == events
        assert events == reference.events
        if sink is not None:
            assert sink.events == events
        for start, end, got in peeks:
            assert got == events[start:end]
        ticking = clock == "ticking"
        wire = json.loads(json.dumps(trace))
        assert wire == trace
        assert expand_trace(wire) == events
        # The form itself: literals first, then one rows record per
        # non-empty channel; on the zero clock each has one ts.
        rows = [r for r in trace if r["ev"] == "rows"]
        assert trace[len(trace) - len(rows):] == rows
        assert len(rows) == sum(1 for ch in tr._journal.channels if len(ch))
        if not ticking:
            assert all(r["ts"] == 0.0 and not isinstance(r["ts"], list)
                       for r in rows)

    def test_trace_without_rows_is_its_own_expansion(self):
        trace = [{"ev": "begin", "span": 1, "name": "a"},
                 {"ev": "end", "span": 1, "name": "a"}]
        assert expand_trace(trace) == trace

    @pytest.mark.parametrize("seq", [[0, 0], [0, 5]], ids=["collide", "range"])
    def test_misplaced_rows_are_refused(self, seq):
        trace = [{"ev": "begin", "span": 1, "name": "a"},
                 {"ev": "rows", "name": "io.read", "keys": ["width"],
                  "seq": seq, "span": [1, 1], "ts": 0.0, "cols": [[4, 4]]}]
        with pytest.raises(ValueError, match="payload trace"):
            expand_trace(trace)


class TestPayloadPath:
    CELLS = [
        ("sort_pdm", {"n": 4000, "disks": 4}),
        ("hierarchy_sort", {"n": 1024, "h": 16}),
    ]

    @pytest.mark.parametrize("task, params", CELLS, ids=["sort_pdm", "hierarchy"])
    def test_round_count_reads_columns(self, task, params):
        """The runner counts round events without expanding the trace."""
        payload = run_task(task, params)
        events = expand_trace(payload["trace"])
        assert _payload_rounds(payload) == sum(
            e["ev"] == "event" and e["name"] in ROUND_EVENTS for e in events
        ) > 0

    def test_merge_leaves_payloads_untouched(self):
        """Merging re-bases the expander's own dicts, never the payload's."""
        payload = run_task(*self.CELLS[0])
        before = json.dumps(payload, sort_keys=True)
        first = merge_trace_events([payload, payload])
        assert json.dumps(payload, sort_keys=True) == before
        assert merge_trace_events([payload, payload]) == first

    @pytest.mark.parametrize("task, params", CELLS, ids=["sort_pdm", "hierarchy"])
    def test_run_task_leaves_no_cyclic_garbage(self, task, params):
        """A finished run's observation is freed by reference counting:
        the cyclic collector finds no ``repro`` object to collect."""
        run_task(task, params)  # first-call imports and caches
        gc.collect()
        gc.garbage.clear()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            run_task(task, params)
            gc.collect()
            left = sorted(
                type(o).__qualname__ for o in gc.garbage
                if str(getattr(o, "__module__", None) or "").startswith("repro")
            )
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert left == []
