"""Memory telemetry: honest gauges, and provably out-of-band.

Two contracts under test.  First, the gauges themselves: both store
backends track resident/high-water block counts and slab growth, the
machine adds its internal-memory ledger peak, and the runner folds
worker snapshots (counters add, high waters max).  Second — the one CI
stakes its determinism story on — ``REPRO_MEM_TELEMETRY`` gates only
the *surfacing*: sweep payloads, stdout tables, and reports are
bit-identical with telemetry on or off (``repro diff --threshold 0
--strict`` is the proof, same as the live-telemetry and io-plan gates).
"""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.exceptions import ParameterError
from repro.obs.memory import (
    PHASES,
    MemoryTelemetry,
    memory_telemetry_enabled,
)
from repro.pdm import ParallelDiskMachine
from repro.pdm.machine import collect_mem_stats, merge_mem_snapshots
from repro.pdm.store import make_store
from repro.records import make_records

BACKENDS = ["arena", "dict"]


def block(start, B=4):
    return make_records(np.arange(start, start + B, dtype=np.uint64))


# ------------------------------------------------------------- store gauges


@pytest.mark.parametrize("backend", BACKENDS)
class TestStoreGauges:
    def test_high_water_tracks_peak_not_current(self, backend):
        s = make_store(backend, 4, 4)
        disks = np.array([0, 1, 2], dtype=np.int64)
        slots = np.array([0, 0, 0], dtype=np.int64)
        s.write_batch(disks, slots, np.stack([block(0), block(4), block(8)]))
        snap = s.mem_snapshot()
        assert snap["resident_blocks"] == 3 == s.n_blocks()
        assert snap["high_water_blocks"] == 3
        s.free_batch(disks, slots)
        snap = s.mem_snapshot()
        assert snap["resident_blocks"] == 0
        assert snap["high_water_blocks"] == 3  # peak is sticky

    def test_overwrite_in_place_does_not_double_count(self, backend):
        s = make_store(backend, 4, 4)
        s.write_batch(np.array([0]), np.array([0]), block(0)[None])
        s.write_batch(np.array([0]), np.array([0]), block(9)[None])
        snap = s.mem_snapshot()
        assert snap["resident_blocks"] == 1 == s.n_blocks()
        assert snap["high_water_blocks"] == 1

    def test_double_free_does_not_go_negative(self, backend):
        s = make_store(backend, 4, 4)
        s.write_batch(np.array([0]), np.array([0]), block(0)[None])
        s.free_batch(np.array([0]), np.array([0]))
        s.free_batch(np.array([0]), np.array([0]))
        s.free_batch(np.array([0, 2]), np.array([0, 99]))
        assert s.mem_snapshot()["resident_blocks"] == 0

    def test_fused_read_free_decrements(self, backend):
        s = make_store(backend, 4, 4)
        disks = np.array([0, 1], dtype=np.int64)
        slots = np.array([0, 0], dtype=np.int64)
        s.write_batch(disks, slots, np.stack([block(0), block(4)]))
        s.read_batch(disks, slots, free=True)
        snap = s.mem_snapshot()
        assert snap["resident_blocks"] == 0
        assert snap["high_water_blocks"] == 2

    def test_snapshot_shape(self, backend):
        snap = make_store(backend, 4, 4).mem_snapshot()
        assert set(snap) == {
            "backend", "slab_rows", "slab_bytes", "resident_blocks",
            "high_water_blocks", "free_rows", "grow_events",
        }
        assert snap["backend"] == backend

    def test_gauges_always_on_even_when_disabled(self, backend, monkeypatch):
        # The counters are too cheap to branch on; only *surfacing* is
        # gated by REPRO_MEM_TELEMETRY.
        monkeypatch.setenv("REPRO_MEM_TELEMETRY", "0")
        s = make_store(backend, 4, 4)
        s.write_batch(np.array([0]), np.array([0]), block(0)[None])
        assert s.mem_snapshot()["high_water_blocks"] == 1


def test_arena_grow_events_count_slab_growth():
    s = make_store("arena", 1, 4)
    grows0 = s.mem_snapshot()["grow_events"]
    n = 64
    for i in range(n):  # one block at a time forces geometric regrowth
        s.write_batch(np.array([0]), np.array([i]), block(4 * i)[None])
    snap = s.mem_snapshot()
    assert snap["grow_events"] > grows0
    assert snap["slab_rows"] >= n
    assert snap["slab_bytes"] > 0


# ----------------------------------------------------------- machine gauges


def test_machine_snapshot_adds_ledger_peak():
    m = ParallelDiskMachine(memory=64, block=4, disks=4)
    m.mem_acquire(40)
    m.mem_release(20)
    m.mem_acquire(10)  # current 30, peak 40
    snap = m.mem_snapshot()
    assert snap["machines"] == 1
    assert snap["ledger_high_water_records"] == 40
    assert snap["M"] == 64
    m.mem_release(30)
    assert m.mem_snapshot()["ledger_high_water_records"] == 40


def test_collect_and_merge_mem_snapshots():
    with collect_mem_stats() as fns:
        m1 = ParallelDiskMachine(memory=64, block=4, disks=4)
        m2 = ParallelDiskMachine(memory=64, block=4, disks=4)
        m1.mem_acquire(10)
        m2.mem_acquire(30)
        m1.store.write_batch(np.array([0]), np.array([0]), block(0)[None])
    assert len(fns) == 2
    merged = merge_mem_snapshots(fn() for fn in fns)
    assert merged["machines"] == 2  # counters add
    assert merged["ledger_high_water_records"] == 30  # high waters max
    assert merged["high_water_blocks"] == 1
    # Machines built outside the context are not collected.
    ParallelDiskMachine(memory=64, block=4, disks=4)
    assert len(fns) == 2
    # An empty fold is the all-zero gauge set (what a disabled run reports).
    assert not any(merge_mem_snapshots([]).values())


# ------------------------------------------------------ enable gate + RSS


def test_memory_telemetry_enabled_env(monkeypatch):
    monkeypatch.delenv("REPRO_MEM_TELEMETRY", raising=False)
    assert memory_telemetry_enabled() is True  # default on
    for off in ("0", "", "off", "false", "False"):
        monkeypatch.setenv("REPRO_MEM_TELEMETRY", off)
        assert memory_telemetry_enabled() is False
    for on in ("1", "on", "true"):
        monkeypatch.setenv("REPRO_MEM_TELEMETRY", on)
        assert memory_telemetry_enabled() is True
    monkeypatch.setenv("REPRO_MEM_TELEMETRY", "yes")
    with pytest.raises(ParameterError, match="REPRO_MEM_TELEMETRY='yes'"):
        memory_telemetry_enabled()


def test_memory_telemetry_samples_top_level_phases():
    mt = MemoryTelemetry()
    mt.observe_span_end("distribute", {"level": 0})
    mt.observe_span_end("distribute", {"level": 2})  # recursion: skipped
    mt.observe_span_end("io.batch", {})  # not a phase: skipped
    mt.observe_span_end("merge", {})  # missing level counts as top
    snap = mt.snapshot()
    assert [s["phase"] for s in snap["phase_rss"]] == ["distribute", "merge"]
    assert all(s["rss_kb"] >= 0 for s in snap["phase_rss"])
    assert snap["peak_rss_kb"] >= max(
        (s["rss_kb"] for s in snap["phase_rss"]), default=0
    )
    assert set(PHASES) >= {"partition", "distribute", "merge"}


# ------------------------------------------- payload purity (the CI gate)


class TestPayloadPurity:
    GRID = ["sweep", "--task", "sort", "--n", "2000,4000", "--disks", "4"]

    def _run(self, tmp_path, monkeypatch, capsys, enabled):
        monkeypatch.setenv("REPRO_MEM_TELEMETRY", "1" if enabled else "0")
        out = tmp_path / f"mem_{enabled}.json"
        stats = tmp_path / f"stats_{enabled}.json"
        rc = main([*self.GRID, "--emit-json", str(out),
                   "--stats-json", str(stats)])
        assert rc == 0
        return capsys.readouterr().out, out, stats

    def test_payloads_bit_identical_on_or_off(self, tmp_path, monkeypatch,
                                              capsys):
        stdout_off, json_off, _ = self._run(tmp_path, monkeypatch, capsys,
                                            enabled=False)
        stdout_on, json_on, stats_on = self._run(tmp_path, monkeypatch,
                                                 capsys, enabled=True)
        assert stdout_on == stdout_off
        rc = main(["diff", str(json_off), str(json_on),
                   "--threshold", "0", "--strict"])
        assert rc == 0, "memory telemetry leaked into the report"
        # And the telemetry actually measured something when on.
        memory = json.loads(stats_on.read_text())["runner"]["memory"]
        assert memory["high_water_blocks"] > 0
        assert memory["machines"] == 2  # one per grid cell
        assert memory["ledger_high_water_records"] > 0
        assert memory["peak_rss_kb"] > 0

    def test_disabled_run_reports_no_gauges(self, tmp_path, monkeypatch,
                                            capsys):
        _, _, stats_off = self._run(tmp_path, monkeypatch, capsys,
                                    enabled=False)
        memory = json.loads(stats_off.read_text())["runner"]["memory"]
        assert memory == {} or not any(memory.values())

    def test_pool_merges_worker_snapshots(self, tmp_path, monkeypatch,
                                          capsys):
        monkeypatch.setenv("REPRO_MEM_TELEMETRY", "1")
        stats = tmp_path / "pool_stats.json"
        rc = main([*self.GRID, "--jobs", "2", "--stats-json", str(stats)])
        assert rc == 0
        capsys.readouterr()
        memory = json.loads(stats.read_text())["runner"]["memory"]
        assert memory["machines"] == 2
        assert memory["high_water_blocks"] > 0
        assert memory["peak_rss_kb"] > 0


def test_mem_chatter_is_interactive_only(capsys, monkeypatch):
    import sys as _sys

    args = ["sort", "--n", "2000", "--memory", "512", "--disks", "4"]
    monkeypatch.setenv("REPRO_MEM_TELEMETRY", "1")
    assert main(args) == 0
    assert "[mem]" not in capsys.readouterr().err  # stderr is not a tty
    monkeypatch.setattr(_sys.stderr, "isatty", lambda: True, raising=False)
    assert main(args) == 0
    err = capsys.readouterr().err
    assert "[mem]" in err and "arena high-water" in err
    monkeypatch.setenv("REPRO_MEM_TELEMETRY", "0")
    assert main(args) == 0
    assert "[mem]" not in capsys.readouterr().err
    monkeypatch.setenv("REPRO_MEM_TELEMETRY", "1")
    assert main([*args, "--quiet"]) == 0
    assert "[mem]" not in capsys.readouterr().err
