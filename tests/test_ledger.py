"""Tests for the perf-trajectory ledger and the normalized host capture.

The ledger is the append-only ``repro.bench_series/1`` series CI records
into and gates against: host-keyed points, torn-tail-forgiving reads,
and a :func:`~repro.obs.ledger.compare_entries` gate that reuses the
``diff_runs`` relative-threshold semantics (only increases regress;
cross-series/host/grid comparisons are refused).
"""

import json

import pytest

from repro.obs import SERIES_SCHEMA, BenchLedger, compare_entries, make_entry
from repro.util import capture_host, host_key, usable_cores


def _entry(series="e1", seconds=2.0, records=4000, host_key_="h" * 12,
           grid="abcd", **kw):
    host = {"key": host_key_, "system": "Linux", "machine": "x86_64",
            "python": "3.12.1", "usable_cores": 4, "platform": "Linux-x"}
    return make_entry(series, seconds, records, grid=grid, cells=2,
                      host=host, when=1000.0, **kw)


class TestCaptureHost:
    def test_shape_and_key(self):
        host = capture_host()
        assert set(host) == {"key", "system", "machine", "python",
                             "usable_cores", "platform"}
        assert host["key"] == host_key(host)
        assert host["usable_cores"] == usable_cores() >= 1

    def test_key_ignores_platform_string_and_python_patch(self):
        base = {"system": "Linux", "machine": "x86_64",
                "python": "3.12.1", "usable_cores": 4}
        patched = dict(base, python="3.12.9",
                       platform="Linux-6.18.5-v21-x86_64")
        assert host_key(base) == host_key(patched)

    def test_key_tracks_what_moves_perf(self):
        base = {"system": "Linux", "machine": "x86_64",
                "python": "3.12.1", "usable_cores": 4}
        assert host_key(base) != host_key(dict(base, usable_cores=8))
        assert host_key(base) != host_key(dict(base, python="3.13.0"))
        assert host_key(base) != host_key(dict(base, machine="aarch64"))

    def test_default_key_matches_capture(self):
        assert host_key() == capture_host()["key"]


class TestMakeEntry:
    def test_fields_and_derived_rates(self):
        entry = _entry(seconds=2.0, records=4000)
        assert entry["schema"] == SERIES_SCHEMA
        assert entry["series"] == "e1"
        assert entry["ts"] == 1000.0
        assert entry["host_key"] == "h" * 12
        assert entry["seconds"] == 2.0
        assert entry["records_per_sec"] == 2000.0
        assert entry["us_per_record"] == 500.0
        assert "cache" not in entry and "notes" not in entry

    def test_cache_subset_and_notes(self):
        entry = _entry(cache={"hits": 3, "misses": 1, "stores": 1,
                              "corrupt": 0, "directory": "/tmp/x"},
                       notes="smoke")
        assert entry["cache"] == {"hits": 3, "misses": 1, "stores": 1,
                                  "corrupt": 0}
        assert entry["notes"] == "smoke"

    def test_zero_guards(self):
        entry = _entry(seconds=0.0, records=0)
        assert entry["records_per_sec"] is None
        assert entry["us_per_record"] is None

    def test_default_host_is_captured(self):
        entry = make_entry("s", 1.0, 100, when=0.0)
        assert entry["host_key"] == capture_host()["key"]

    def test_methodology_stamp(self):
        assert _entry()["min_of"] == 1
        assert _entry(min_of=3)["min_of"] == 3
        assert _entry(min_of=0)["min_of"] == 1  # clamped to a real pass


class TestBenchLedger:
    def test_append_read_round_trip(self, tmp_path):
        ledger = BenchLedger(str(tmp_path / "ledger.jsonl"))
        assert ledger.read() == []
        a = ledger.append(_entry(seconds=2.0))
        b = ledger.append(_entry(seconds=2.5))
        assert ledger.read() == [a, b]
        assert ledger.stats["points"] == 2
        assert ledger.stats["series"] == {"e1": 2}

    def test_append_rejects_foreign_docs(self, tmp_path):
        ledger = BenchLedger(str(tmp_path / "ledger.jsonl"))
        with pytest.raises(ValueError, match="schema"):
            ledger.append({"schema": "repro.bench_point/1", "series": "x"})
        entry = dict(_entry(), series="")
        with pytest.raises(ValueError, match="series"):
            ledger.append(entry)

    def test_torn_tail_forgiven_mid_file_raises(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = BenchLedger(str(path))
        ledger.append(_entry())
        with open(path, "a") as fh:
            fh.write('{"schema": "repro.bench_ser')  # killed mid-append
        assert len(ledger.read()) == 1
        # But corruption that is NOT the final line is a real error.
        with open(path, "a") as fh:
            fh.write("\n" + json.dumps(_entry()) + "\n")
        with pytest.raises(ValueError, match="bad ledger line"):
            ledger.read()

    def test_series_and_host_filters(self, tmp_path):
        ledger = BenchLedger(str(tmp_path / "ledger.jsonl"))
        ledger.append(_entry(series="e1", host_key_="a" * 12, seconds=1.0))
        ledger.append(_entry(series="e1", host_key_="b" * 12, seconds=9.0))
        ledger.append(_entry(series="e3", host_key_="a" * 12, seconds=3.0))
        ledger.append(_entry(series="e1", host_key_="a" * 12, seconds=1.1))
        assert len(ledger.entries("e1")) == 3
        assert len(ledger.entries("e1", "a" * 12)) == 2
        assert ledger.latest("e1", "a" * 12)["seconds"] == 1.1
        # Baseline = predecessor within the same host class: the other
        # host's 9.0 s point must never become the baseline.
        assert ledger.baseline("e1", "a" * 12)["seconds"] == 1.0
        assert ledger.baseline("e3", "a" * 12) is None
        assert ledger.latest("nope") is None

    def test_baseline_is_methodology_aware(self, tmp_path):
        """min_of filtering: a min-of-3 point gates against the previous
        min-of-3 point, skipping interleaved single-pass points."""
        ledger = BenchLedger(str(tmp_path / "ledger.jsonl"))
        key = "a" * 12
        ledger.append(_entry(host_key_=key, seconds=5.0, min_of=3))
        ledger.append(_entry(host_key_=key, seconds=1.0))
        ledger.append(_entry(host_key_=key, seconds=4.0, min_of=3))
        assert ledger.baseline("e1", key)["seconds"] == 1.0
        assert ledger.baseline("e1", key, min_of=3)["seconds"] == 5.0
        assert ledger.baseline("e1", key, min_of=1) is None


class TestCompareEntries:
    def test_within_window_is_ok(self):
        verdict = compare_entries(_entry(seconds=2.0), _entry(seconds=2.5))
        assert verdict.ok

    def test_faster_never_regresses(self):
        verdict = compare_entries(_entry(seconds=2.0), _entry(seconds=0.1))
        assert verdict.ok

    def test_past_3x_window_regresses(self):
        verdict = compare_entries(_entry(seconds=2.0), _entry(seconds=9.0))
        assert not verdict.ok
        paths = {e.path for e in verdict.regressions}
        assert "seconds" in paths and "us_per_record" in paths

    def test_custom_threshold(self):
        baseline, candidate = _entry(seconds=2.0), _entry(seconds=2.5)
        assert compare_entries(baseline, candidate, threshold=0.5).ok
        assert not compare_entries(baseline, candidate, threshold=0.1).ok

    def test_refuses_cross_series_host_grid(self):
        base = _entry()
        for other in (
            _entry(series="e3"),
            _entry(host_key_="x" * 12),
            _entry(grid="ffff"),
        ):
            with pytest.raises(ValueError, match="cannot gate across"):
                compare_entries(base, other)

    def test_refuses_cross_methodology(self):
        """A min-of-3 point never gates against a single-pass baseline."""
        with pytest.raises(ValueError, match="cannot gate across min_of"):
            compare_entries(_entry(), _entry(min_of=3))
        # Points written before the field existed count as single-pass.
        legacy = _entry()
        del legacy["min_of"]
        assert compare_entries(legacy, _entry(seconds=2.1)).ok
        with pytest.raises(ValueError, match="cannot gate across min_of"):
            compare_entries(legacy, _entry(min_of=2))


class TestCliBench:
    GRID = ["--n", "1000,2000", "--disks", "4"]

    def test_record_then_compare_ok(self, capsys, tmp_path):
        from repro.cli import main

        ledger_path = str(tmp_path / "ledger.jsonl")
        for _ in range(2):
            rc = main(["bench", "record", "--series", "smoke",
                       "--ledger", ledger_path, "--commit", "abc123",
                       *self.GRID])
            captured = capsys.readouterr()
            assert rc == 0
            assert "smoke" in captured.out
        points = BenchLedger(ledger_path).read()
        assert len(points) == 2
        assert points[0]["commit"] == "abc123"
        assert points[0]["records"] == 3000
        assert points[0]["cells"] == 2
        assert points[0]["grid"] == points[1]["grid"]
        rc = main(["bench", "compare", "--series", "smoke",
                   "--ledger", ledger_path])
        captured = capsys.readouterr()
        assert rc == 0
        assert "bench compare: OK" in captured.out

    def test_record_min_of_stamps_methodology(self, capsys, tmp_path):
        from repro.cli import main

        ledger_path = str(tmp_path / "ledger.jsonl")
        rc = main(["bench", "record", "--series", "smoke", "--min-of", "2",
                   "--ledger", ledger_path, "--commit", "abc123",
                   *self.GRID])
        capsys.readouterr()
        assert rc == 0
        (point,) = BenchLedger(ledger_path).read()
        assert point["min_of"] == 2

    def test_compare_flags_regression(self, capsys, tmp_path):
        from repro.cli import main

        ledger_path = str(tmp_path / "ledger.jsonl")
        ledger = BenchLedger(ledger_path)
        key = capture_host()["key"]
        ledger.append(_entry(seconds=1.0, host_key_=key))
        ledger.append(_entry(seconds=9.0, host_key_=key))
        # _entry hard-codes its own host dict; rewrite host_key via host=.
        rc = main(["bench", "compare", "--series", "e1",
                   "--ledger", ledger_path, "--host-key", key])
        captured = capsys.readouterr()
        assert rc == 1
        assert "REGRESSION" in captured.out

    def test_compare_with_too_few_points_is_a_no_op(self, capsys, tmp_path):
        from repro.cli import main

        ledger_path = str(tmp_path / "ledger.jsonl")
        rc = main(["bench", "compare", "--series", "smoke",
                   "--ledger", ledger_path])
        captured = capsys.readouterr()
        assert rc == 0
        assert "no points" in captured.err
        BenchLedger(ledger_path).append(
            _entry(series="smoke", host_key_=capture_host()["key"]))
        rc = main(["bench", "compare", "--series", "smoke",
                   "--ledger", ledger_path,
                   "--host-key", capture_host()["key"]])
        captured = capsys.readouterr()
        assert rc == 0
        assert "baseline" in captured.err

    def test_record_failed_cell_records_nothing(self, capsys, tmp_path,
                                                monkeypatch):
        from repro.cli import main
        from repro.exec import tasks

        ledger_path = str(tmp_path / "ledger.jsonl")
        record = ["bench", "record", "--series", "smoke",
                  "--ledger", ledger_path, "--n", "1000", "--disks", "4"]

        def fails_at_run_time(params, obs):
            raise RuntimeError("cell failed")

        # A failed grid must never become a trajectory point.
        with monkeypatch.context() as m:
            m.setitem(tasks._TASKS, "sort_pdm", fails_at_run_time)
            rc = main(record)
        capsys.readouterr()
        assert rc == 3
        assert BenchLedger(ledger_path).read() == []
        # memory=8 cannot hold a block per disk: refused before it runs.
        rc = main([*record, "--memory", "8", "--block", "4"])
        assert "repro: error: cell 0" in capsys.readouterr().err
        assert rc == 2
        assert BenchLedger(ledger_path).read() == []
