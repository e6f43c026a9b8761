"""Tests for the observability layer: metrics, tracer, reports, hooks.

Covers the :mod:`repro.obs` subsystem itself (registry semantics, span
nesting, JSONL round-trips, run reports) and its integration contract with
the simulators — most importantly that attaching an observation changes
*no* measured quantity (I/O counts, model times are bit-identical to the
uninstrumented run).
"""

import io
import json

import numpy as np
import pytest

from repro import workloads
from repro.core.balance import BalanceEngine
from repro.core.sort_hierarchy import balance_sort_hierarchy
from repro.core.sort_pdm import balance_sort_pdm
from repro.hierarchies import ParallelHierarchies
from repro.obs import (
    NULL_TRACER,
    Counter,
    Gauge,
    Histogram,
    JsonlSink,
    ListSink,
    MetricsRegistry,
    Observation,
    RunReport,
    Tracer,
    read_trace,
    render_report,
    summarize_trace,
)
from repro.obs.report import SCHEMA
from repro.pdm import ParallelDiskMachine, VirtualDisks
from repro.records import composite_keys

from .obs_reference import use_obs


# --------------------------------------------------------------------------
# metrics registry
# --------------------------------------------------------------------------


class TestMetrics:
    def test_counter_monotonic(self):
        c = Counter("x")
        c.inc()
        c.inc(4)
        assert c.export() == 5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_watermarks(self):
        g = Gauge("load")
        g.set(3.0)
        g.set(1.0)
        g.set(2.0)
        assert g.export() == {"value": 2.0, "min": 1.0, "max": 3.0}

    def test_histogram_exact_mode(self):
        h = Histogram("width")
        for v in [8, 8, 4, 8]:
            h.observe(v)
        ex = h.export()
        assert ex["count"] == 4
        assert ex["dist"] == {"4": 1, "8": 3}
        assert ex["min"] == 4 and ex["max"] == 8
        assert ex["mean"] == pytest.approx(7.0)

    def test_histogram_preaggregated(self):
        h = Histogram("swaps")
        h.observe(2, n=5)
        assert h.count == 5 and h.sum == 10

    def test_histogram_bucketed(self):
        h = Histogram("cost", buckets=[1, 4, 16])
        for v in [0.5, 3, 10, 100]:
            h.observe(v)
        dist = h.export()["dist"]
        assert dist == {"le=1": 1, "le=4": 1, "le=16": 1, "le=+Inf": 1}

    def test_get_or_create_and_type_clash(self):
        r = MetricsRegistry()
        assert r.counter("a") is r.counter("a")
        with pytest.raises(TypeError):
            r.gauge("a")

    def test_dotted_scope_nests(self):
        r = MetricsRegistry()
        r.scope("pdm.cpu").counter("work").inc(7)
        # dotted path nests: resetting the parent scope reaches the child
        assert r.scope("pdm").scope("cpu").counter("work").value == 7
        r.scope("pdm").reset()
        assert r.scope("pdm.cpu").counter("work").value == 0

    def test_export_skips_empty_scopes(self):
        r = MetricsRegistry()
        r.scope("empty")
        r.scope("full").counter("n").inc()
        ex = r.export()
        assert "empty" not in ex
        assert ex["full"]["counters"]["n"] == 1

    def test_walk_paths(self):
        r = MetricsRegistry()
        r.counter("top").inc()
        r.scope("sub").gauge("g").set(1)
        paths = [p for p, _ in r.walk()]
        assert paths == ["top", "sub.g"]

    def test_reset_recursive(self):
        r = MetricsRegistry()
        r.counter("c").inc(3)
        r.scope("s").histogram("h").observe(1)
        r.reset()
        assert r.counter("c").value == 0
        assert r.scope("s").histogram("h").count == 0


# --------------------------------------------------------------------------
# tracer
# --------------------------------------------------------------------------


class TestTracerSpans:
    def test_nesting_and_parent_ids(self):
        tr = Tracer(clock=iter(range(100)).__next__)
        with tr.span("outer") as outer:
            with tr.span("inner"):
                tr.event("tick", k=1)
        evs = tr.events
        kinds = [(e["ev"], e["name"]) for e in evs]
        assert kinds == [
            ("begin", "outer"), ("begin", "inner"), ("event", "tick"),
            ("end", "inner"), ("end", "outer"),
        ]
        inner_begin = evs[1]
        assert inner_begin["parent"] == outer.span_id
        assert evs[2]["span"] == inner_begin["span"]

    def test_annotate_lands_on_end_event(self):
        tr = Tracer()
        with tr.span("phase", level=2) as sp:
            sp.annotate(ios=42)
        end = tr.events[-1]
        assert end["attrs"] == {"level": 2, "ios": 42}
        assert end["wall_s"] >= 0

    def test_error_recorded_on_exception(self):
        tr = Tracer()
        with pytest.raises(RuntimeError):
            with tr.span("boom"):
                raise RuntimeError("x")
        assert tr.events[-1]["error"] == "RuntimeError"

    def test_close_ends_dangling_spans(self):
        tr = Tracer()
        sp = tr.span("left-open")
        sp.__enter__()
        tr.close()
        assert tr.events[-1]["ev"] == "end"
        assert tr.events[-1]["name"] == "left-open"

    def test_null_tracer_is_inert(self):
        with NULL_TRACER.span("anything", x=1) as sp:
            sp.annotate(y=2).event("e")
        NULL_TRACER.event("e2")
        NULL_TRACER.close()
        assert NULL_TRACER.events == []

    def test_list_sink_receives_events(self):
        sink = ListSink()
        tr = Tracer(sink=sink)
        with tr.span("s"):
            pass
        assert [e["ev"] for e in sink.events] == ["begin", "end"]


class TestJsonlRoundTrip:
    def test_write_and_read_back(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        tr = Tracer(sink=JsonlSink(path))
        with tr.span("distribute", level=0) as sp:
            sp.event("balance.round", round=1, swapped=2)
            sp.annotate(ios=10)
        tr.close()
        events = read_trace(path)
        assert events == tr.events
        assert events[-1]["attrs"]["ios"] == 10

    def test_numpy_values_serialized(self):
        buf = io.StringIO()
        sink = JsonlSink(buf)
        tr = Tracer(sink=sink)
        tr.event("e", width=np.int64(8), factor=np.float64(1.5))
        tr.close()
        ev = json.loads(buf.getvalue())
        assert ev["attrs"] == {"width": 8, "factor": 1.5}

    def test_read_trace_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"ev": "begin"}\nnot json\n')
        with pytest.raises(ValueError, match="line 2"):
            read_trace(str(path))

    def test_read_trace_skips_blank_lines(self):
        events = read_trace(['{"ev":"event"}', "", '{"ev":"end"}'])
        assert len(events) == 2


class TestGzipTraces:
    def _emit(self, path):
        tr = Tracer(sink=JsonlSink(path))
        with tr.span("distribute", level=0) as sp:
            sp.event("io.read", width=8)
            sp.annotate(ios=1)
        tr.close()
        return tr.events

    def test_gz_suffix_writes_gzip_and_reads_back(self, tmp_path):
        path = str(tmp_path / "trace.jsonl.gz")
        events = self._emit(path)
        with open(path, "rb") as fh:
            assert fh.read(2) == b"\x1f\x8b"  # gzip magic
        assert read_trace(path) == events

    def test_gzip_output_is_byte_deterministic(self, tmp_path):
        # mtime is pinned to zero in the gzip header, so identical event
        # streams (zero-clock, as the exec layer emits) produce identical
        # files — the diff/cache contract.
        def emit(path):
            tr = Tracer(sink=JsonlSink(path), clock=lambda: 0.0)
            with tr.span("distribute", level=0) as sp:
                sp.event("io.read", width=8)
                sp.annotate(ios=1)
            tr.close()

        a, b = str(tmp_path / "a.jsonl.gz"), str(tmp_path / "b.jsonl.gz")
        emit(a)
        emit(b)
        with open(a, "rb") as fa, open(b, "rb") as fb:
            assert fa.read() == fb.read()

    def test_magic_byte_detection_beats_extension(self, tmp_path):
        # A .jsonl that is secretly gzipped still reads (and vice versa).
        import gzip as gz

        path = tmp_path / "trace.jsonl"
        with gz.open(path, "wt", encoding="utf-8") as fh:
            fh.write('{"ev":"event","name":"e"}\n')
        assert read_trace(str(path))[0]["name"] == "e"
        plain = tmp_path / "trace2.jsonl.gz"
        plain.write_text('{"ev":"event","name":"p"}\n')
        assert read_trace(str(plain))[0]["name"] == "p"

    def test_truncated_tail_tolerated_only_when_asked(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        path.write_text('{"ev":"event","name":"ok"}\n{"ev":"eve')
        with pytest.raises(ValueError):
            read_trace(str(path))
        events = read_trace(str(path), tolerate_truncated_tail=True)
        assert [e["name"] for e in events] == ["ok"]

    def test_torn_middle_line_still_raises(self):
        lines = ['{"ev":"eve', '{"ev":"event","name":"ok"}']
        with pytest.raises(ValueError, match="line 1"):
            read_trace(lines, tolerate_truncated_tail=True)

    def test_observation_trace_path_gz(self, tmp_path):
        path = str(tmp_path / "t.jsonl.gz")
        obs = Observation(trace_path=path)
        with obs.span("s"):
            obs.event("e")
        obs.close()
        assert [e["ev"] for e in read_trace(path)] == ["begin", "event", "end"]


class TestSummarizeTrace:
    def _trace(self):
        tr = Tracer()
        with tr.span("distribute") as sp:
            sp.event("io.read", width=8)
            sp.event("io.read", width=4)
            sp.event("io.write", width=8)
            sp.event("balance.round", round=1, max_balance_factor=1.5)
            sp.annotate(ios=3, rounds=1)
        with tr.span("distribute") as sp:
            sp.annotate(ios=2, rounds=1)
        return tr.events

    def test_phase_aggregation(self):
        s = summarize_trace(self._trace())
        (phase,) = s["phases"]
        assert phase["name"] == "distribute"
        assert phase["count"] == 2
        assert phase["ios"] == 5
        assert phase["rounds"] == 2

    def test_timeline_and_stripes(self):
        s = summarize_trace(self._trace())
        assert s["balance_timeline"] == [{"round": 1, "max_balance_factor": 1.5}]
        assert s["stripe_width"]["read"] == {"4": 1, "8": 1}
        assert s["stripe_width"]["write"] == {"8": 1}
        assert s["n_events"] == len(self._trace())

    def test_unclosed_spans_counted_not_fatal(self):
        # Regression test: a crashed / interrupted run leaves begins
        # without ends.  Summarize must not raise and must report the
        # truncation instead of silently pretending the trace is whole.
        events = self._trace()
        truncated = [e for e in events if e["ev"] != "end"]
        s = summarize_trace(truncated)
        assert s["truncated_spans"] == 2
        assert s["n_events"] == len(truncated)
        # A complete trace reports zero.
        assert summarize_trace(events)["truncated_spans"] == 0

    def test_partial_span_costs_not_double_counted(self):
        tr = Tracer()
        with tr.span("distribute") as sp:
            sp.event("io.read", width=8)
            sp.annotate(ios=1)
        events = list(tr.events)
        events.append({"ev": "begin", "span": 99, "parent": None,
                       "name": "distribute", "ts": 0.0, "attrs": {}})
        s = summarize_trace(events)
        (phase,) = s["phases"]
        # The unclosed span contributes no end-annotations; the closed
        # span's totals survive unchanged.
        assert phase["ios"] == 1
        assert s["truncated_spans"] == 1

    def test_truncated_tail_file_summarizes(self, tmp_path):
        # End-to-end: a torn final line on disk (killed mid-write) is
        # forgiven when summarizing from a path.
        path = tmp_path / "torn.jsonl"
        path.write_text(
            '{"ev":"begin","span":1,"parent":null,"name":"s","ts":0,"attrs":{}}\n'
            '{"ev":"event","span":1,"name":"io.read","ts":0,"attrs":{"width":4}}\n'
            '{"ev":"end","span":1,"pare'
        )
        s = summarize_trace(str(path))
        assert s["truncated_spans"] == 1
        assert s["stripe_width"]["read"] == {"4": 1}


class TestMergeTraceEvents:
    """Span-rebasing edge cases for the exec-layer trace merge."""

    def _payload(self, task="sort_pdm", trace=None, **extra):
        return {"task": task, "trace": trace or [], **extra}

    def _run_trace(self):
        tr = Tracer()
        with tr.span("distribute") as sp:
            sp.event("io.read", width=4)
        return list(tr.events)

    def test_empty_child_trace_still_wrapped(self):
        from repro.exec import merge_trace_events

        merged = merge_trace_events([self._payload(trace=[])])
        assert [e["ev"] for e in merged] == ["begin", "end"]
        assert merged[0]["name"] == "run:sort_pdm[0]"
        assert merged[0]["span"] == merged[1]["span"]

    def test_colliding_span_ids_rebased_unique(self):
        from repro.exec import merge_trace_events

        # Two runs whose traces both use span id 1 (every zero-clock run
        # does) must not collide after the merge.
        a, b = self._run_trace(), self._run_trace()
        assert a[0]["span"] == b[0]["span"] == 1
        merged = merge_trace_events([self._payload(trace=a),
                                     self._payload(trace=b)])
        begins = [e for e in merged if e["ev"] == "begin"]
        ids = [e["span"] for e in begins]
        assert len(ids) == len(set(ids)) == 4  # 2 wrappers + 2 rebased
        # Each run's root span now parents to its wrapper.
        wrappers = [e["span"] for e in begins if e["name"].startswith("run:")]
        children = [e for e in begins if not e["name"].startswith("run:")]
        assert [c["parent"] for c in children] == wrappers

    def test_merged_stream_is_valid_for_summarize(self):
        from repro.exec import merge_trace_events

        merged = merge_trace_events(
            [self._payload(trace=self._run_trace()) for _ in range(3)]
        )
        s = summarize_trace(merged)
        assert s["truncated_spans"] == 0
        assert s["stripe_width"]["read"] == {"4": 3}

    def test_out_of_order_timestamps_preserved(self):
        from repro.exec import merge_trace_events

        # Zero-clock runs all carry ts=0; a child trace with descending
        # timestamps must survive verbatim (merge never sorts — relative
        # order is the contract).
        trace = [
            {"ev": "begin", "span": 1, "parent": None, "name": "s",
             "ts": 5.0, "attrs": {}},
            {"ev": "event", "span": 1, "name": "io.read", "ts": 2.0,
             "attrs": {"width": 2}},
            {"ev": "end", "span": 1, "parent": None, "name": "s",
             "ts": 1.0, "wall_s": 1.0, "attrs": {}},
        ]
        merged = merge_trace_events([self._payload(trace=trace)])
        inner = [e for e in merged if e["name"] == "s"]
        assert [e["ts"] for e in inner] == [5.0, 1.0]
        event = next(e for e in merged if e["ev"] == "event")
        assert event["ts"] == 2.0
        # And the stream still summarizes / profiles without raising.
        assert summarize_trace(merged)["truncated_spans"] == 0

    def test_cached_flag_lands_on_wrapper(self):
        from repro.exec import merge_trace_events

        merged = merge_trace_events([self._payload(trace=[], cached=True)])
        assert merged[0]["attrs"] == {"index": 0, "cached": True}


class TestRunReport:
    def test_schema_and_keys(self):
        obs = Observation()
        obs.scope("pdm").counter("read_ios").inc(3)
        with obs.span("partition") as sp:
            sp.annotate(ios=5)
        obs.close()
        rep = RunReport.from_observation(
            obs, command="sort", params={"n": 100}, result={"parallel_ios": 5}
        )
        d = rep.to_dict()
        assert d["schema"] == SCHEMA
        assert set(d) == {
            "schema", "command", "params", "result", "phases",
            "balance_timeline", "stripe_width", "metrics", "n_trace_events",
        }
        assert d["metrics"]["pdm"]["counters"]["read_ios"] == 3
        assert d["phases"][0]["ios"] == 5
        # JSON-clean
        json.loads(rep.to_json())

    def test_write_dash_prints(self, capsys):
        RunReport(command="sort").write("-")
        assert '"schema"' in capsys.readouterr().out

    def test_render_report_tables(self):
        rep = {
            "command": "sort",
            "result": {"parallel_ios": 7},
            "phases": [{"name": "distribute", "count": 1, "wall_s": 0.1, "ios": 7}],
            "balance_timeline": [{"round": 1, "max_balance_factor": 1.0}],
            "stripe_width": {"read": {"8": 3}, "write": {}},
        }
        tables = render_report(rep)
        titles = [t.title for t in tables]
        assert any("run report" in t for t in titles)
        assert any("per-phase" in t for t in titles)
        assert any("stripe-width" in t for t in titles)


# --------------------------------------------------------------------------
# simulator integration: identical measurements, populated instruments
# --------------------------------------------------------------------------


class TestPdmIntegration:
    def _sort(self, obs):
        machine = ParallelDiskMachine(memory=512, block=4, disks=8)
        data = workloads.by_name("zipf", 3000, seed=7)
        res = balance_sort_pdm(machine, data, obs=obs, check_invariants=False)
        return machine, res

    def test_measurements_bit_identical_with_obs(self):
        _, plain = self._sort(obs=None)
        _, instrumented = self._sort(obs=Observation())
        assert instrumented.io_stats == plain.io_stats
        assert instrumented.cpu == plain.cpu

    def test_metrics_match_machine_stats(self):
        obs = Observation()
        machine, res = self._sort(obs)
        ex = obs.registry.export()
        pdm = ex["pdm"]["counters"]
        assert pdm["read_ios"] == machine.stats.read_ios
        assert pdm["write_ios"] == machine.stats.write_ios
        assert pdm["blocks_read"] == machine.stats.blocks_read
        assert ex["pdm"]["cpu"]["counters"]["work"] == machine.cpu.work
        bal = ex["balance"]["counters"]
        assert bal["rounds"] == res.engine_rounds
        assert bal["swaps"] == res.blocks_swapped

    def test_stripe_histogram_totals(self):
        obs = Observation()
        machine, _ = self._sort(obs)
        hist = obs.scope("pdm").histogram("io.write.width")
        assert hist.count == machine.stats.write_ios
        assert hist.sum == machine.stats.blocks_written
        assert hist.counts.get(machine.D, 0) == machine.stats.full_width_writes

    def test_phase_spans_cover_all_ios(self):
        obs = Observation()
        machine, _ = self._sort(obs)
        top = [
            e for e in obs.tracer.events
            if e["ev"] == "end" and e.get("parent") is None
        ]
        # the top-level spans partition the whole run's I/O budget
        assert sum(e["attrs"].get("ios", 0) for e in top) == machine.stats.total_ios

    def test_write_width_fraction_in_snapshot(self):
        machine, _ = self._sort(obs=None)
        snap = machine.stats.snapshot()
        assert snap["write_width_fraction"] == pytest.approx(
            machine.stats.write_width_fraction
        )

    def test_reset_stats_resets_metrics_scope(self):
        obs = Observation()
        machine, _ = self._sort(obs)
        assert obs.scope("pdm").counter("read_ios").value > 0
        machine.reset_stats()
        assert obs.scope("pdm").counter("read_ios").value == 0
        assert obs.scope("pdm").scope("cpu").counter("work").value == 0


class TestHierarchyIntegration:
    def _sort(self, model, obs):
        machine = ParallelHierarchies(27, model=model)
        data = workloads.uniform(1200, seed=9)
        res = balance_sort_hierarchy(machine, data, obs=obs)
        return machine, res

    @pytest.mark.parametrize("model", ["hmm", "bt"])
    def test_model_times_identical_with_obs(self, model):
        _, plain = self._sort(model, obs=None)
        _, instrumented = self._sort(model, obs=Observation())
        assert instrumented.total_time == plain.total_time
        assert instrumented.parallel_steps == plain.parallel_steps
        assert instrumented.memory_time == plain.memory_time

    def test_metrics_match_machine(self):
        obs = Observation()
        machine, _ = self._sort("hmm", obs)
        h = obs.registry.export()["hierarchy"]
        assert h["counters"]["parallel_steps"] == machine.parallel_steps
        assert h["gauges"]["memory_time"]["value"] == pytest.approx(
            machine.memory_time
        )

    def test_phase_spans_cover_model_time(self):
        obs = Observation()
        machine, _ = self._sort("bt", obs)
        top = [
            e for e in obs.tracer.events
            if e["ev"] == "end" and e.get("parent") is None
        ]
        total = sum(
            e["attrs"].get("memory_time", 0) + e["attrs"].get("interconnect_time", 0)
            for e in top
        )
        assert total == pytest.approx(machine.total_time, rel=1e-6)


class TestBalanceObserver:
    def _engine(self, n=600):
        machine = ParallelDiskMachine(memory=65536, block=4, disks=8)
        storage = VirtualDisks(machine, 4)
        data = workloads.adversarial_striping(n, seed=11, period=4)
        ck = np.sort(composite_keys(data))
        pivots = ck[np.linspace(0, ck.size - 1, 5).astype(int)[1:-1]]
        engine = BalanceEngine(storage, pivots)
        machine.mem_acquire(n)
        return engine, data

    def test_observer_called_per_round(self):
        engine, data = self._engine()
        seen = []
        engine.add_round_observer(lambda eng, info: seen.append(info["round"]))
        engine.feed(data)
        engine.run_rounds(drain_below=0)
        engine.flush()
        assert seen == list(range(1, engine.stats.rounds + 1))

    def test_remove_round_observer(self):
        engine, data = self._engine()
        seen = []
        cb = engine.add_round_observer(lambda eng, info: seen.append(info))
        engine.remove_round_observer(cb)
        engine.feed(data)
        engine.run_rounds(drain_below=0)
        engine.flush()
        assert seen == []

    def test_attach_obs_counts_rounds(self):
        engine, data = self._engine()
        obs = Observation()
        engine.attach_obs(obs)
        engine.feed(data)
        engine.run_rounds(drain_below=0)
        engine.flush()
        bal = obs.registry.export()["balance"]["counters"]
        assert bal["rounds"] == engine.stats.rounds
        assert bal["swaps"] == engine.stats.blocks_swapped
        rounds = [
            e for e in obs.tracer.events
            if e["ev"] == "event" and e["name"] == "balance.round"
        ]
        assert len(rounds) == engine.stats.rounds


class TestObservation:
    def test_trace_path_streams_jsonl(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        obs = Observation(trace_path=path)
        with obs.span("s"):
            obs.event("e")
        obs.close()
        assert [e["ev"] for e in read_trace(path)] == ["begin", "event", "end"]

    def test_sort_metrics_match_the_dict_events_oracle(self):
        """Bulk-replayed metrics export exactly what eager updates give."""
        exports = []
        for mode in ("dicts", "columnar"):
            machine = ParallelDiskMachine(memory=512, block=4, disks=4)
            data = workloads.by_name("adversarial_bucket_skew", 2000, seed=1)
            obs = Observation()
            with use_obs(mode):
                balance_sort_pdm(machine, data, obs=obs)
            obs.close()
            exports.append(obs.registry.export())
        assert exports[0]["balance"]["counters"]["rounds"] > 0
        assert exports[0] == exports[1]


class TestSinkDelivery:
    """A sink sees exactly the journal's events, literals as they happen."""

    def test_list_sink_holds_exactly_the_events_in_order(self):
        sink = ListSink()
        tr = Tracer(sink=sink, clock=lambda: 0.0)
        reads = tr.scalar_channel("io.read", ("width",))
        writes = tr.scalar_channel("io.write", ("width", "full_stripe"))
        with pytest.raises(RuntimeError):
            with tr.span("distribute", level=0):
                reads.append(4)
                writes.append(3, False)
                reads.append(2)
                # Channel rows wait for the next literal.
                assert [e["ev"] for e in sink.events] == ["begin"]
                tr.event("note", k=1)
                assert sink.events == tr.events
                writes.append(4, True)
                raise RuntimeError("boom")
        reads.append(1)  # after the last literal: delivered by close()
        assert sink.events == tr.events[:-1]
        tr.close()
        assert sink.events == tr.events
        assert [(e["ev"], e["name"]) for e in sink.events] == [
            ("begin", "distribute"), ("event", "io.read"), ("event", "io.write"),
            ("event", "io.read"), ("event", "note"), ("event", "io.write"),
            ("end", "distribute"), ("event", "io.read"),
        ]
        assert sink.events[2]["attrs"] == {"width": 3, "full_stripe": False}
        assert sink.events[6]["error"] == "RuntimeError"

    def test_trace_out_file_holds_exactly_the_events(self, tmp_path):
        path = str(tmp_path / "sort.jsonl")
        obs = Observation(trace_path=path)
        machine = ParallelDiskMachine(memory=512, block=4, disks=4)
        balance_sort_pdm(machine, workloads.uniform(2000, seed=3), obs=obs)
        obs.close()
        events = obs.tracer.events
        assert {e["name"] for e in events} >= {"io.read", "io.write", "balance.round"}
        assert read_trace(path) == events

    def test_jsonl_sink_with_numpy_literals(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        tr = Tracer(sink=JsonlSink(path))
        reads = tr.scalar_channel("io.read", ("width",))
        with tr.span("distribute", level=np.int64(0)) as sp:
            reads.append(4)
            sp.event("balance.round", round=np.int64(1),
                     max_balance_factor=np.float64(1.5))
            reads.append(3)
            sp.annotate(ios=np.int64(2))
        tr.close()
        on_disk = read_trace(path)
        assert on_disk == json.loads(json.dumps(tr.events, default=lambda v: v.item()))
        assert [e["name"] for e in on_disk] == [
            "distribute", "io.read", "balance.round", "io.read", "distribute",
        ]
        assert type(on_disk[2]["attrs"]["max_balance_factor"]) is float
        assert on_disk[-1]["attrs"] == {"level": 0, "ios": 2}
