"""Tests for the live-telemetry channel (:mod:`repro.obs.telemetry`).

The contract under test, in order of importance:

1. **Determinism** — sweep payloads are bit-identical with telemetry on
   or off, serial and ``--jobs 2`` (telemetry observes the tracer
   stream; it never feeds back into a payload).  The CLI-level version
   gates full run reports through ``repro diff --threshold 0 --strict``.
2. **Stream contents** — the runner emits the ``repro.progress/1``
   lifecycle (sweep/cell start + finish, retries), workers tee throttled
   phase progress, and the aggregator folds it into a sane snapshot
   (counts, rounds, records/sec, ETA).
3. **Crash forgiveness** — ``repro top`` tolerates a torn telemetry
   tail exactly like the journal (the SIGKILL signature).
"""

import json
import io
from unittest import mock

import pytest

from repro.exec import ParallelRunner, RunSpec, run_task, tasks
from repro.obs import (
    PROGRESS_SCHEMA,
    ROUND_EVENTS,
    LiveProgressView,
    ProgressSink,
    TelemetryWriter,
    activate_telemetry,
    active_telemetry,
    aggregate_progress,
    read_telemetry,
    render_progress_line,
)
from repro.obs.columnar import expand_trace
from repro.obs.telemetry import progress_tables

from .obs_reference import use_obs


def _sweep_specs():
    return [
        RunSpec("sort_pdm", {"n": 1000, "disks": 4}),
        RunSpec("sort_pdm", {"n": 2000, "disks": 4}),
    ]


class TestTelemetryWriter:
    def test_one_line_per_emit_immediately_readable(self, tmp_path):
        path = str(tmp_path / "tel.jsonl")
        with TelemetryWriter(path, source="test", clock=lambda: 42.0) as w:
            w.emit("sweep_start", cells=3)
            # Line-buffered: readable before close.
            events = read_telemetry(path)
            assert events == [
                {"ev": "sweep_start", "ts": 42.0, "src": "test", "cells": 3}
            ]
            w.emit("sweep_end")
        assert len(read_telemetry(path)) == 2

    def test_append_mode_shares_a_file(self, tmp_path):
        path = str(tmp_path / "tel.jsonl")
        with TelemetryWriter(path, source="a") as wa:
            wa.emit("cell_start", key="k1")
            with TelemetryWriter(path, source="b") as wb:
                wb.emit("progress", rounds=7)
            wa.emit("cell_finish", key="k1")
        sources = [e["src"] for e in read_telemetry(path)]
        assert sources == ["a", "b", "a"]

    def test_ambient_activation_nests_and_restores(self, tmp_path):
        outer = TelemetryWriter(str(tmp_path / "o.jsonl"))
        inner = TelemetryWriter(str(tmp_path / "i.jsonl"))
        assert active_telemetry() is None
        with activate_telemetry(outer):
            assert active_telemetry() is outer
            with activate_telemetry(inner):
                assert active_telemetry() is inner
            assert active_telemetry() is outer
        assert active_telemetry() is None
        outer.close()
        inner.close()


class TestProgressSink:
    def _writer(self, tmp_path):
        return TelemetryWriter(str(tmp_path / "tel.jsonl"), source="cell:x")

    def test_counts_rounds_and_flushes_every_n(self, tmp_path):
        w = self._writer(tmp_path)
        sink = ProgressSink(w, every=3, interval=1e9)
        for _ in range(7):
            sink.emit({"ev": "event", "name": "io.read", "attrs": {}})
        w.close()
        events = read_telemetry(w.path)
        progress = [e for e in events if e["ev"] == "progress"]
        assert [p["rounds"] for p in progress] == [3, 6]
        assert sink.rounds == 7

    def test_close_flushes_the_tail(self, tmp_path):
        w = self._writer(tmp_path)
        sink = ProgressSink(w, every=100, interval=1e9)
        sink.emit({"ev": "event", "name": "io.write", "attrs": {}})
        sink.close()
        w.close()
        progress = [e for e in read_telemetry(w.path) if e["ev"] == "progress"]
        assert progress and progress[-1]["rounds"] == 1

    def test_level0_phases_forwarded_immediately(self, tmp_path):
        w = self._writer(tmp_path)
        sink = ProgressSink(w, every=100, interval=1e9)
        sink.emit({"ev": "begin", "name": "partition", "attrs": {"level": 0}})
        sink.emit({"ev": "begin", "name": "partition", "attrs": {"level": 2}})
        w.close()
        phases = [e for e in read_telemetry(w.path) if e["ev"] == "phase"]
        assert [p["phase"] for p in phases] == ["partition"]
        assert sink.phase == "partition"

    def test_balance_factor_tracked(self, tmp_path):
        w = self._writer(tmp_path)
        sink = ProgressSink(w, every=1, interval=1e9)
        sink.emit({"ev": "event", "name": "balance.round",
                   "attrs": {"max_balance_factor": 1.5}})
        w.close()
        progress = [e for e in read_telemetry(w.path) if e["ev"] == "progress"]
        assert progress[-1]["max_balance_factor"] == 1.5
        assert progress[-1]["balance_rounds"] == 1

    def test_real_cell_ends_with_the_oracle_counters(self, tmp_path):
        """Rows delivered at literal boundaries count exactly like dicts
        delivered one by one (the dict-per-event oracle)."""
        finals = {}
        for mode in ("dicts", "columnar"):
            sinks = []

            class Capture(ProgressSink):
                def __init__(self, writer):
                    super().__init__(writer)
                    sinks.append(self)

            path = str(tmp_path / f"tel-{mode}.jsonl")
            with TelemetryWriter(path) as writer, activate_telemetry(writer):
                with use_obs(mode), mock.patch.object(tasks, "ProgressSink", Capture):
                    payload = run_task("sort_pdm", {"n": 2000, "disks": 4})
            (sink,) = sinks
            finals[mode] = (sink.rounds, sink.spans, sink.balance_rounds,
                            sink.max_balance_factor, sink.events)
        trace = expand_trace(payload["trace"])
        rounds = [e for e in trace if e.get("name") == "balance.round"]
        assert finals["columnar"] == finals["dicts"] == (
            sum(e.get("name") in ROUND_EVENTS for e in trace),
            sum(e["ev"] == "end" for e in trace),
            len(rounds),
            rounds[-1]["attrs"]["max_balance_factor"],
            len(trace),
        )


class TestRunnerTelemetry:
    def test_lifecycle_events_serial(self, tmp_path):
        path = str(tmp_path / "tel.jsonl")
        runner = ParallelRunner(telemetry=path)
        runner.map(_sweep_specs())
        runner.telemetry.close()
        events = read_telemetry(path)
        kinds = [e["ev"] for e in events]
        assert kinds[0] == "sweep_start"
        assert kinds[-1] == "sweep_end"
        start = events[0]
        assert start["schema"] == PROGRESS_SCHEMA
        assert start["task"] == "sort_pdm" and start["cells"] == 2
        assert kinds.count("cell_start") == 2
        assert kinds.count("cell_finish") == 2
        # Workers teed phase progress into the same stream.
        assert "phase" in kinds
        finishes = [e for e in events if e["ev"] == "cell_finish"]
        assert all(not f["cached"] and not f["failed"] for f in finishes)
        assert all(f["seconds"] > 0 and f["rounds"] > 0 for f in finishes)
        assert {f["records"] for f in finishes} == {1000, 2000}

    def test_cache_hits_emit_cached_finishes(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        ParallelRunner(cache_dir=cache_dir).map(_sweep_specs())
        path = str(tmp_path / "tel.jsonl")
        runner = ParallelRunner(cache_dir=cache_dir, telemetry=path)
        runner.map(_sweep_specs())
        runner.telemetry.close()
        finishes = [e for e in read_telemetry(path) if e["ev"] == "cell_finish"]
        assert len(finishes) == 2 and all(f["cached"] for f in finishes)
        state = aggregate_progress(read_telemetry(path))
        assert state["cached"] == 2 and state["done"] == 2

    def test_retries_and_failures_stream(self, tmp_path):
        from repro.resilience import FaultPlan

        plan = FaultPlan.from_dict({
            "seed": 1,
            "rules": [{"site": "exec.task", "mode": "permanent", "at": [0]}],
        })
        path = str(tmp_path / "tel.jsonl")
        runner = ParallelRunner(
            telemetry=path, fault_plan=plan, retries=1, backoff=0.0
        )
        results = runner.map(_sweep_specs()[:1])
        runner.telemetry.close()
        assert results[0].failed
        events = read_telemetry(path)
        kinds = [e["ev"] for e in events]
        assert kinds.count("cell_retry") == 1
        finish = [e for e in events if e["ev"] == "cell_finish"][0]
        assert finish["failed"] and "rounds" not in finish
        state = aggregate_progress(events)
        assert state["failed"] == 1 and state["retried"] == 1

    def test_payloads_bit_identical_telemetry_on_off_serial_and_pool(
        self, tmp_path
    ):
        specs = _sweep_specs()
        baseline = [r.payload for r in ParallelRunner().map(specs)]
        for jobs, name in ((None, "serial"), (2, "jobs2")):
            path = str(tmp_path / f"tel-{name}.jsonl")
            runner = ParallelRunner(jobs=jobs, telemetry=path)
            payloads = [r.payload for r in runner.map(specs)]
            runner.telemetry.close()
            assert json.dumps(payloads, sort_keys=True) == json.dumps(
                baseline, sort_keys=True
            ), f"telemetry changed payload bytes in {name} mode"
            assert len(read_telemetry(path)) > 0


class TestAggregation:
    def _events(self):
        return [
            {"ev": "sweep_start", "ts": 100.0, "src": "runner",
             "schema": PROGRESS_SCHEMA, "task": "sort_pdm", "cells": 4,
             "jobs": 1, "grid": "abcd"},
            {"ev": "cell_start", "ts": 100.0, "src": "runner",
             "key": "k1" * 32, "index": 0, "attempt": 0},
            {"ev": "cell_finish", "ts": 102.0, "src": "runner",
             "key": "k1" * 32, "index": 0, "cached": False, "failed": False,
             "seconds": 2.0, "records": 4000, "records_per_sec": 2000.0,
             "rounds": 100},
            {"ev": "cell_start", "ts": 102.0, "src": "runner",
             "key": "k2" * 32, "index": 1, "attempt": 0},
            {"ev": "progress", "ts": 103.0, "src": f"cell:{'k2' * 8}",
             "phase": "distribute", "rounds": 40, "spans": 3,
             "balance_rounds": 0},
        ]

    def test_snapshot_counts_running_and_eta(self):
        state = aggregate_progress(self._events())
        assert state["cells"] == 4 and state["done"] == 1
        assert state["grid"] == "abcd"
        assert not state["finished"]
        assert state["rounds"] == 140  # 100 finished + 40 in flight
        assert state["records_per_sec"] == 2000.0
        assert len(state["running"]) == 1
        running = state["running"][0]
        assert running["phase"] == "distribute" and running["rounds"] == 40
        assert running["elapsed_s"] == pytest.approx(1.0)
        # 3 remaining cells x 2.0s mean executed-cell wall.
        assert state["eta_s"] == pytest.approx(6.0)
        assert state["elapsed_s"] == pytest.approx(3.0)

    def test_finished_stream_has_no_eta(self):
        events = self._events() + [
            {"ev": "cell_finish", "ts": 104.0, "src": "runner",
             "key": "k2" * 32, "index": 1, "cached": False, "failed": False,
             "seconds": 2.0, "records": 4000, "rounds": 80},
            {"ev": "sweep_end", "ts": 104.0, "src": "runner", "cells": 4},
        ]
        state = aggregate_progress(events)
        assert state["finished"] and state["eta_s"] is None
        assert state["running"] == []

    def test_render_line_and_tables(self):
        state = aggregate_progress(self._events())
        line = render_progress_line(state)
        assert line.startswith("[sweep] 1/4 cells")
        assert "1 running in distribute" in line
        assert "eta" in line
        titles = [t.to_dict()["title"] for t in progress_tables(state)]
        assert any("sweep progress" in t for t in titles)
        assert any("running cells" in t for t in titles)

    def test_empty_stream(self):
        state = aggregate_progress([])
        assert state["done"] == 0 and not state["finished"]
        assert render_progress_line(state).startswith("[sweep]")


class TestTornTail:
    def _write_with_torn_tail(self, tmp_path):
        path = str(tmp_path / "tel.jsonl")
        runner = ParallelRunner(telemetry=path)
        runner.map(_sweep_specs()[:1])
        runner.telemetry.close()
        with open(path, "a") as fh:
            fh.write('{"ev": "cell_fin')  # SIGKILL mid-write
        return path

    def test_read_telemetry_forgives_torn_tail(self, tmp_path):
        path = self._write_with_torn_tail(tmp_path)
        events = read_telemetry(path)
        assert events[0]["ev"] == "sweep_start"
        state = aggregate_progress(events)
        assert state["done"] == 1

    def test_mid_file_corruption_still_raises(self, tmp_path):
        path = str(tmp_path / "tel.jsonl")
        with open(path, "w") as fh:
            fh.write('{"ev": "sweep_start"}\n')
            fh.write("not json\n")
            fh.write('{"ev": "sweep_end"}\n')
        with pytest.raises(ValueError):
            read_telemetry(path)


class TestLiveProgressView:
    def test_non_tty_prints_changed_lines(self, tmp_path):
        path = str(tmp_path / "tel.jsonl")
        runner = ParallelRunner(telemetry=path)
        runner.map(_sweep_specs()[:1])
        runner.telemetry.close()
        stream = io.StringIO()
        view = LiveProgressView(path, stream=stream, interval=0.01)
        view.start()
        view.stop()
        out = stream.getvalue()
        assert "[sweep] 1/1 cells" in out
        assert "done" in out
        assert "\r" not in out  # non-tty mode appends lines

    def test_view_survives_missing_file(self, tmp_path):
        stream = io.StringIO()
        view = LiveProgressView(
            str(tmp_path / "never-written.jsonl"), stream=stream
        )
        view.start()
        view.stop()
        assert stream.getvalue() == ""


class TestCliTelemetry:
    def test_sweep_telemetry_and_top_snapshot(self, capsys, tmp_path):
        from repro.cli import main

        tel = str(tmp_path / "tel.jsonl")
        rc = main(["sweep", "--n", "1000,2000", "--disks", "4",
                   "--telemetry", tel])
        captured = capsys.readouterr()
        assert rc == 0
        assert f"telemetry={tel}" in captured.err
        rc = main(["top", tel])
        out = capsys.readouterr().out
        assert rc == 0
        assert "sweep progress" in out
        assert "[sweep] 2/2 cells" in out

    def test_top_after_sigkill_torn_tail(self, capsys, tmp_path):
        from repro.cli import main

        tel = str(tmp_path / "tel.jsonl")
        rc = main(["sweep", "--n", "1000", "--disks", "4",
                   "--telemetry", tel])
        capsys.readouterr()
        assert rc == 0
        # Simulate a SIGKILL mid-append: torn final line, no sweep_end.
        lines = open(tel).read().splitlines()
        with open(tel, "w") as fh:
            fh.write("\n".join(lines[:-1]) + "\n")
            fh.write('{"ev": "sweep_e')
        rc = main(["top", tel])
        out = capsys.readouterr().out
        assert rc == 0
        assert "sweep progress" in out

    def test_top_follow_exits_on_sweep_end(self, capsys, tmp_path):
        from repro.cli import main

        tel = str(tmp_path / "tel.jsonl")
        rc = main(["sweep", "--n", "1000", "--disks", "4",
                   "--telemetry", tel])
        capsys.readouterr()
        assert rc == 0
        rc = main(["top", tel, "--follow", "--interval", "0.01"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "done" in out

    def test_top_missing_file_is_usage_error(self, capsys, tmp_path):
        from repro.cli import main

        rc = main(["top", str(tmp_path / "nope.jsonl")])
        assert rc == 2
        assert "no telemetry" in capsys.readouterr().err

    def test_live_uses_temp_stream_and_cleans_up(self, capsys, tmp_path,
                                                 monkeypatch):
        import tempfile

        from repro.cli import main

        monkeypatch.setenv("TMPDIR", str(tmp_path))
        tempfile.tempdir = None  # re-read TMPDIR
        try:
            rc = main(["sweep", "--n", "1000", "--disks", "4", "--live"])
        finally:
            tempfile.tempdir = None
        captured = capsys.readouterr()
        assert rc == 0
        assert "[sweep] 1/1 cells" in captured.err  # the live view rendered
        leftovers = list(tmp_path.glob("repro-telemetry-*"))
        assert leftovers == []

    def test_stats_json_and_stats_table(self, capsys, tmp_path):
        from repro.cli import main

        stats_path = tmp_path / "stats.json"
        rc = main(["sweep", "--n", "1000", "--disks", "4",
                   "--stats-json", str(stats_path)])
        captured = capsys.readouterr()
        assert rc == 0
        # The aligned stats table rides stderr; stdout keeps only the grid.
        assert "sweep stats" in captured.err
        assert "cells executed" in captured.err
        assert "sweep stats" not in captured.out
        doc = json.loads(stats_path.read_text())
        assert doc["schema"] == "repro.sweep_stats/1"
        assert doc["runner"]["executed"] == 1
        assert doc["journal"] is None
        # Physical-fusion counters fold into the stats doc out of band
        # (they are telemetry: never part of any payload).
        io_plan = doc["runner"]["io_plan"]
        assert io_plan["write_flushes"] >= 1
        assert io_plan["deferred_write_rounds"] >= io_plan["write_flushes"]
        assert "plan write flushes" in captured.err

    def test_reports_bit_identical_via_diff_strict(self, capsys, tmp_path):
        """The acceptance gate: telemetry-on vs telemetry-off run reports
        survive ``repro diff --threshold 0 --strict`` untouched, for both
        serial and --jobs 2 telemetry runs."""
        from repro.cli import main

        grid = ["--n", "1000,2000", "--disks", "4"]
        plain = str(tmp_path / "plain.json")
        rc = main(["sweep", *grid, "--emit-json", plain])
        capsys.readouterr()
        assert rc == 0
        for name, extra in (
            ("tel", ["--telemetry", str(tmp_path / "t1.jsonl")]),
            ("tel-jobs2", ["--jobs", "2",
                           "--telemetry", str(tmp_path / "t2.jsonl")]),
        ):
            out_json = str(tmp_path / f"{name}.json")
            rc = main(["sweep", *grid, *extra, "--emit-json", out_json])
            capsys.readouterr()
            assert rc == 0
            rc = main(["diff", plain, out_json,
                       "--threshold", "0", "--strict"])
            captured = capsys.readouterr()
            assert rc == 0, f"{name}: {captured.out}"
            assert "OK" in captured.out
