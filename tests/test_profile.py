"""Tests for the trace-driven profiler (:mod:`repro.obs.profile`).

The acceptance bar from the issue: on a real run's trace the hotspot
table's self-times must sum to the total wall-clock within 1% — i.e. the
profile accounts for (essentially) all of the measured time, which is
what made "where did the 12.2 s go?" answerable.  Plus structural tests
on synthetic traces: self-time complements, critical-path descent,
virtual closing of truncated spans, level tables, and the I/O timeline.
"""

import gzip
import json
import time

import pytest

from repro import workloads
from repro.core.sort_pdm import balance_sort_pdm
from repro.obs import (
    PROFILE_SCHEMA,
    Observation,
    profile_trace,
    render_profile,
)
from repro.pdm import ParallelDiskMachine

from .io_reference import use_io


def _begin(span, parent, name, ts, **attrs):
    return {"ev": "begin", "span": span, "parent": parent, "name": name,
            "ts": ts, "attrs": attrs}


def _end(span, parent, name, ts, wall, **attrs):
    return {"ev": "end", "span": span, "parent": parent, "name": name,
            "ts": ts, "wall_s": wall, "attrs": attrs}


def _event(span, name, ts, **attrs):
    return {"ev": "event", "span": span, "name": name, "ts": ts,
            "attrs": attrs}


def _synthetic_trace():
    """root(10s) -> child_a(6s, level 0) + child_b(2s, level 1) with I/Os."""
    return [
        _begin(1, None, "root", 0.0),
        _begin(2, 1, "child_a", 1.0, level=0),
        _event(2, "io.read", 1.5, width=4),
        _event(2, "io.read", 2.0, width=2),
        _end(2, 1, "child_a", 7.0, 6.0),
        _begin(3, 1, "child_b", 7.0, level=1),
        _event(3, "io.write", 8.0, width=4),
        _end(3, 1, "child_b", 9.0, 2.0),
        _end(1, None, "root", 10.0, 10.0),
    ]


class TestProfileSynthetic:
    def test_schema_and_totals(self):
        prof = profile_trace(_synthetic_trace())
        assert prof["schema"] == PROFILE_SCHEMA
        assert prof["total_wall_s"] == 10.0
        assert prof["n_spans"] == 3
        assert prof["truncated_spans"] == 0
        assert prof["io"]["rounds"] == {
            "io.read": 2, "io.write": 1, "mem.step": 0, "total": 3}

    def test_self_times_are_exact_complements(self):
        prof = profile_trace(_synthetic_trace())
        by_name = {h["name"]: h for h in prof["hotspots"]}
        assert by_name["root"]["self_s"] == pytest.approx(2.0)   # 10 - 6 - 2
        assert by_name["child_a"]["self_s"] == pytest.approx(6.0)
        assert by_name["child_b"]["self_s"] == pytest.approx(2.0)
        assert prof["hotspots_total_self_s"] == pytest.approx(
            prof["total_wall_s"])

    def test_hotspots_sorted_by_self_time_and_top(self):
        prof = profile_trace(_synthetic_trace())
        selfs = [h["self_s"] for h in prof["hotspots"]]
        assert selfs == sorted(selfs, reverse=True)
        top1 = profile_trace(_synthetic_trace(), top=1)
        assert len(top1["hotspots"]) == 1
        # hotspots_total_self_s still covers ALL names, not just the shown.
        assert top1["hotspots_total_self_s"] == pytest.approx(10.0)

    def test_rounds_attributed_to_owning_span(self):
        prof = profile_trace(_synthetic_trace())
        by_name = {h["name"]: h for h in prof["hotspots"]}
        assert by_name["child_a"]["rounds"] == 2
        assert by_name["child_b"]["rounds"] == 1
        assert by_name["root"]["rounds"] == 0

    def test_critical_path_descends_heaviest_child(self):
        prof = profile_trace(_synthetic_trace())
        names = [row["name"] for row in prof["critical_path"]]
        assert names == ["root", "child_a"]  # 6s beats 2s
        assert [row["depth"] for row in prof["critical_path"]] == [0, 1]

    def test_level_table(self):
        prof = profile_trace(_synthetic_trace())
        levels = {row["level"]: row for row in prof["levels"]}
        assert levels[0]["rounds"] == 2 and levels[0]["wall_s"] == 6.0
        assert levels[1]["rounds"] == 1 and levels[1]["wall_s"] == 2.0

    def test_timeline_bins_and_mean_width(self):
        prof = profile_trace(_synthetic_trace(), bins=2)
        timeline = prof["io"]["timeline"]
        assert len(timeline) == 2
        # reads at ts 1.5, 2.0 land in [0, 5); the write at 8.0 in [5, 10).
        assert timeline[0]["rounds"] == 2
        assert timeline[0]["mean_width"] == pytest.approx(3.0)
        assert timeline[1]["rounds"] == 1
        assert timeline[1]["mean_width"] == pytest.approx(4.0)

    def test_stripe_width_histograms(self):
        prof = profile_trace(_synthetic_trace())
        widths = prof["io"]["stripe_width"]
        assert widths["read"] == {"2": 1, "4": 1}
        assert widths["write"] == {"4": 1}

    def test_mem_step_kind_feeds_width_histograms(self):
        events = [
            _begin(1, None, "root", 0.0),
            _event(1, "mem.step", 1.0, width=8, kind="read"),
            _event(1, "mem.step", 2.0, width=8, kind="write"),
            _end(1, None, "root", 3.0, 3.0),
        ]
        prof = profile_trace(events)
        assert prof["io"]["rounds"]["mem.step"] == 2
        assert prof["io"]["stripe_width"]["read"] == {"8": 1}
        assert prof["io"]["stripe_width"]["write"] == {"8": 1}


class TestProfileTruncated:
    def test_unclosed_span_closed_virtually_at_max_ts(self):
        events = [
            _begin(1, None, "root", 0.0),
            _begin(2, 1, "work", 1.0),
            _event(2, "io.read", 4.0, width=2),
            # crash: no ends at all
        ]
        prof = profile_trace(events)
        assert prof["truncated_spans"] == 2
        by_name = {h["name"]: h for h in prof["hotspots"]}
        assert by_name["root"]["wall_s"] == pytest.approx(4.0)
        assert by_name["work"]["wall_s"] == pytest.approx(3.0)
        # The identity survives truncation: self sums to the root wall.
        assert prof["hotspots_total_self_s"] == pytest.approx(
            prof["total_wall_s"])

    def test_end_without_begin_from_merged_trace(self):
        events = [_end(7, None, "orphan", 5.0, 5.0)]
        prof = profile_trace(events)
        assert prof["n_spans"] == 1
        assert prof["total_wall_s"] == pytest.approx(5.0)

    def test_empty_trace(self):
        prof = profile_trace([])
        assert prof["total_wall_s"] == 0.0
        assert prof["hotspots"] == []
        assert prof["critical_path"] == []
        assert prof["io"]["us_per_round"] is None


class TestProfileRealRun:
    def _trace(self):
        obs = Observation()
        machine = ParallelDiskMachine(memory=512, block=4, disks=8)
        data = workloads.by_name("uniform", 2000, seed=0)
        balance_sort_pdm(machine, data, obs=obs)
        obs.close()
        return list(obs.tracer.events)

    def test_attribution_within_one_percent(self):
        # The acceptance bar: hotspot self-times account for >= 99% of the
        # trace's total wall.
        prof = profile_trace(self._trace())
        total = prof["total_wall_s"]
        attributed = prof["hotspots_total_self_s"]
        assert total > 0
        assert abs(attributed - total) <= 0.01 * total

    def test_round_trips_match_machine_stats(self):
        obs = Observation()
        machine = ParallelDiskMachine(memory=512, block=4, disks=8)
        data = workloads.by_name("uniform", 2000, seed=0)
        res = balance_sort_pdm(machine, data, obs=obs)
        obs.close()
        prof = profile_trace(list(obs.tracer.events))
        rounds = prof["io"]["rounds"]
        assert rounds["io.read"] == res.io_stats["read_ios"]
        assert rounds["io.write"] == res.io_stats["write_ios"]
        assert rounds["total"] == res.total_ios

    def test_profile_from_gzip_trace_file(self, tmp_path):
        path = str(tmp_path / "trace.jsonl.gz")
        obs = Observation(trace_path=path)
        machine = ParallelDiskMachine(memory=512, block=4, disks=8)
        data = workloads.by_name("uniform", 1000, seed=0)
        balance_sort_pdm(machine, data, obs=obs)
        obs.close()
        with open(path, "rb") as fh:
            assert fh.read(2) == b"\x1f\x8b"  # actually gzipped
        prof = profile_trace(path)
        assert prof["io"]["rounds"]["total"] > 0
        assert prof["truncated_spans"] == 0

    def test_render_profile_tables(self):
        prof = profile_trace(self._trace())
        text = "\n".join(t.render() for t in render_profile(prof))
        assert "profile summary" in text
        assert "hotspots (by self time)" in text
        assert "critical path" in text
        assert "I/O round trips" in text


class TestFusedRoundAccounting:
    """The profiler reports **logical** parallel-I/O rounds under fusion.

    Physically, an I/O plan collapses a window of write rounds into one
    store scatter — but the cost model (and therefore IOStats, the trace
    events, and every profile column derived from them) counts logical
    rounds.  A fused run's profile must be indistinguishable from the
    round-at-a-time oracle's (``tests/io_reference.py``): same round
    counts, same stripe-width histograms, same per-span attribution.
    """

    def _profile(self, io):
        with use_io(io):
            obs = Observation()
            machine = ParallelDiskMachine(memory=512, block=4, disks=8)
            data = workloads.by_name("uniform", 2000, seed=0)
            res = balance_sort_pdm(machine, data, obs=obs)
            obs.close()
        return profile_trace(list(obs.tracer.events)), res, machine

    def test_logical_round_columns_identical_fused_vs_unfused(self):
        fused, fres, fmachine = self._profile("fused")
        unfused, ures, _ = self._profile("rounds")
        # The plan actually fired in the fused run...
        assert fmachine.plan_stats.write_flushes > 0
        assert (fmachine.plan_stats.deferred_write_rounds
                > fmachine.plan_stats.write_flushes)
        # ...yet every logical-round column is the unfused reference's.
        assert fused["io"]["rounds"] == unfused["io"]["rounds"]
        assert fused["io"]["stripe_width"] == unfused["io"]["stripe_width"]
        assert fused["io"]["rounds"]["io.read"] == fres.io_stats["read_ios"]
        assert fused["io"]["rounds"]["io.write"] == fres.io_stats["write_ios"]
        assert fres.io_stats == ures.io_stats

    def test_per_span_round_attribution_identical(self):
        fused, _, _ = self._profile("fused")
        unfused, _, _ = self._profile("rounds")
        by_name = lambda prof: {
            h["name"]: (h["count"], h["rounds"]) for h in prof["hotspots"]
        }
        assert by_name(fused) == by_name(unfused)
        levels = lambda prof: {
            row["level"]: row["rounds"] for row in prof["levels"]
        }
        assert levels(fused) == levels(unfused)

    def test_timeline_round_totals_identical(self):
        fused, _, _ = self._profile("fused")
        unfused, _, _ = self._profile("rounds")
        total = lambda prof: sum(b["rounds"] for b in prof["io"]["timeline"])
        assert total(fused) == total(unfused) == fused["io"]["rounds"]["total"]


class TestRenderedHeaderUnits:
    """Golden-output regression: rendered headers carry explicit units.

    The profile docs always said µs/round means *self* µs per I/O round
    trip and the timeline's mean width is in blocks, but the rendered
    headers didn't — a reader of just the terminal output had to guess.
    These are exact golden column lists: a header change must be a
    deliberate edit here, not an accident.
    """

    def _tables(self):
        prof = profile_trace(_synthetic_trace(), bins=2)
        return {t.to_dict()["title"]: t.to_dict() for t in render_profile(prof)}

    def test_hotspot_headers_golden(self):
        tables = self._tables()
        assert tables["hotspots (by self time)"]["columns"] == [
            "span", "count", "wall s", "self s", "self %", "I/O rounds",
            "self µs/round",
        ]

    def test_critical_path_and_level_headers_golden(self):
        tables = self._tables()
        assert tables["critical path (longest chain)"]["columns"] == [
            "depth", "span", "wall s", "self s", "I/O rounds",
        ]
        assert tables["recursion levels"]["columns"] == [
            "level", "spans", "wall s", "self s", "I/O rounds",
        ]

    def test_timeline_headers_golden(self):
        tables = self._tables()
        assert tables["I/O utilization timeline (2 bins)"]["columns"] == [
            "t0 s", "I/O rounds", "mean width (blocks)",
        ]

    def test_summary_units_in_rendered_text(self):
        prof = profile_trace(_synthetic_trace())
        text = "\n".join(t.render() for t in render_profile(prof))
        assert "µs per round trip" in text
        assert "self µs/round" in text
        assert "mean width (blocks)" in text


class TestProfileCli:
    def test_profile_command(self, capsys, tmp_path):
        from repro.cli import main

        trace = tmp_path / "t.jsonl.gz"
        rc = main(["sort", "--n", "1000", "--disks", "4",
                   "--trace-out", str(trace)])
        capsys.readouterr()
        assert rc == 0
        rc = main(["profile", str(trace), "--top", "5"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "hotspots" in out

    def test_profile_emit_json(self, capsys, tmp_path):
        from repro.cli import main

        trace = tmp_path / "t.jsonl"
        rc = main(["sort", "--n", "1000", "--disks", "4",
                   "--trace-out", str(trace)])
        capsys.readouterr()
        assert rc == 0
        rc = main(["profile", str(trace), "--emit-json", "-"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert doc["schema"] == PROFILE_SCHEMA
        total, attributed = doc["total_wall_s"], doc["hotspots_total_self_s"]
        assert abs(attributed - total) <= 0.01 * total
