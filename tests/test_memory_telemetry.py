"""Memory telemetry: honest gauges, and provably out-of-band.

Two contracts under test.  First, the gauges themselves: both store
backends track resident/high-water block counts and slab growth, the
machine adds its internal-memory ledger peak, and the runner folds
worker snapshots (counters add, high waters max).  Second — the one CI
stakes its determinism story on — the gauges and the I/O-plan counters
ride one out-of-band sidecar that never reaches a payload: what the
runner keeps of an executed cell serializes byte-identically to a plain
:func:`~repro.exec.run_task`, fault-free and under the CI chaos plan.
"""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.exceptions import InjectedFault
from repro.exec import run_task
from repro.exec.fingerprint import fingerprint
from repro.exec.runner import JobRunner, _execute
from repro.exec.tasks import ALGORITHMS
from repro.obs.memory import PHASES, MemoryTelemetry
from repro.pdm import ParallelDiskMachine
from repro.pdm.machine import collect_machines, merge_sidecars
from repro.pdm.store import make_store
from repro.records import make_records
from repro.resilience import FaultPlan

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

    def test_gauges_always_on_even_when_disabled(self, backend, monkeypatch):
        # The counters are too cheap to branch on, and nothing turns them
        # off: a leftover REPRO_MEM_TELEMETRY=0 is no longer read.
        monkeypatch.setenv("REPRO_MEM_TELEMETRY", "0")
        s = make_store(backend, 4, 4)
        s.write_batch(np.array([0]), np.array([0]), block(0)[None])
        assert s.mem_snapshot()["high_water_blocks"] == 1

    def test_snapshot_shape(self, backend):
        snap = make_store(backend, 4, 4).mem_snapshot()
        assert set(snap) == {
            "backend", "slab_rows", "slab_bytes", "resident_blocks",
            "high_water_blocks", "free_rows", "grow_events",
        }
        assert snap["backend"] == backend


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
    with collect_machines() as machines:
        m1 = ParallelDiskMachine(memory=64, block=4, disks=4)
        m2 = ParallelDiskMachine(memory=64, block=4, disks=4)
        m1.mem_acquire(10)
        m2.mem_acquire(30)
        m1.store.write_batch(np.array([0]), np.array([0]), block(0)[None])
    assert machines == [m1, m2]
    merged = merge_sidecars(m.sidecar() for m in machines)["memory"]
    assert merged["machines"] == 2  # counters add
    assert merged["ledger_high_water_records"] == 30  # high waters max
    assert merged["high_water_blocks"] == 1
    # Machines built outside the context are not collected.
    ParallelDiskMachine(memory=64, block=4, disks=4)
    assert len(machines) == 2
    # An empty fold is the all-zero gauge set of both blocks.
    empty = merge_sidecars([])
    assert set(empty) == {"io_plan", "memory"}
    assert not any(v for blk in empty.values() for v in blk.values())


# ------------------------------------------------------------------ RSS


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

#: The CI chaos gate's plan: transient task faults and one store-read fault.
CHAOS = FaultPlan.from_dict({"seed": 33, "rules": [
    {"site": "exec.task", "rate": 0.5, "seed": 3},
    {"site": "store.read", "at": [7], "seed": 4}]})

#: ``sort_pdm``, each ``compare_pdm`` algorithm and ``hierarchy_sort``.
CELLS = [
    ("sort_pdm", {"n": 2000, "disks": 4}),
    *(("compare_pdm", {"n": 1000, "disks": 4, "algorithm": a})
      for a in ALGORITHMS),
    ("hierarchy_sort", {"n": 1000, "h": 8}),
]


def canon(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


class TestPayloadPurity:
    GRID = ["sweep", "--task", "sort", "--n", "2000,4000", "--disks", "4"]

    @pytest.mark.parametrize("plan", [None, CHAOS], ids=["clean", "chaos"])
    @pytest.mark.parametrize(
        "task, params", CELLS,
        ids=[params.get("algorithm", task) for task, params in CELLS])
    def test_sidecar_never_reaches_a_payload(self, task, params, plan):
        """What the runner keeps of an executed cell is the plain task's
        payload, byte for byte; the sidecar only reaches its stats."""
        cell = fingerprint(task, params)
        for attempt in range(16):  # the runner's retries, by hand
            try:
                raw = _execute(task, dict(params), plan, cell, attempt)
                break
            except InjectedFault:
                assert plan is not None
        else:
            pytest.fail("every attempt faulted")
        assert "_sidecar" in raw
        runner = JobRunner()
        kept = runner._unpack(raw, task)
        assert canon(kept) == canon(run_task(task, dict(params)))
        assert runner.stats["memory"]["peak_rss_kb"] > 0

    def test_pool_merges_worker_snapshots(self, tmp_path, capsys):
        """Serial and ``--jobs 2`` sweeps fold the same sidecars."""
        runner = {}
        for jobs in ("0", "2"):
            stats = tmp_path / f"stats_{jobs}.json"
            rc = main([*self.GRID, "--jobs", jobs, "--stats-json", str(stats)])
            assert rc == 0
            runner[jobs] = json.loads(stats.read_text())["runner"]
        capsys.readouterr()
        serial, pool = runner["0"], runner["2"]
        assert serial["io_plan"]["write_flushes"] > 0
        assert pool["io_plan"] == serial["io_plan"]
        for key in ("machines", "high_water_blocks", "ledger_high_water_records"):
            assert pool["memory"][key] == serial["memory"][key], key
        memory = serial["memory"]
        assert memory["machines"] == 2  # one per grid cell
        assert memory["high_water_blocks"] > 0
        assert memory["ledger_high_water_records"] > 0
        assert memory["peak_rss_kb"] > 0 and pool["memory"]["peak_rss_kb"] > 0


class TestProfileMemory:
    """``repro profile --memory`` attaches the ``runner.memory`` gauges of
    a sweep's and of a service's ``--stats-json`` document alike."""

    @pytest.fixture
    def trace(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        assert main(["sort", "--n", "2000", "--memory", "512", "--disks", "4",
                     "--trace-out", str(path)]) == 0
        capsys.readouterr()
        return str(path)

    def _sweep_stats(self, tmp_path, capsys):
        path = tmp_path / "sweep_stats.json"
        assert main(["sweep", "--task", "sort", "--n", "2000", "--disks", "4",
                     "--stats-json", str(path)]) == 0
        capsys.readouterr()
        return path

    def _serve_stats(self, tmp_path, capsys):
        from repro.exec import RunSpec
        from repro.serve import SortService

        runner = JobRunner(jobs=0)
        svc = SortService(runner)
        runner.submit(RunSpec("sort_pdm", {"n": 2000, "disks": 4}))
        runner.run_until_idle()
        path = tmp_path / "serve_stats.json"
        path.write_text(json.dumps(svc.stats()))
        return path

    @pytest.mark.parametrize("source", ["sweep", "serve"])
    def test_stats_document_attaches_runner_memory(
        self, source, trace, tmp_path, capsys
    ):
        stats = getattr(self, f"_{source}_stats")(tmp_path, capsys)
        memory = json.loads(stats.read_text())["runner"]["memory"]
        assert main(["profile", trace, "--memory", str(stats),
                     "--emit-json", "-"]) == 0
        profile = json.loads(capsys.readouterr().out)
        assert profile["memory"] == {k: v for k, v in memory.items() if v}
        assert profile["memory"]["high_water_blocks"] > 0
        assert main(["profile", trace, "--memory", str(stats)]) == 0
        out = capsys.readouterr().out
        assert "memory telemetry" in out and "arena high-water blocks" in out

    @pytest.mark.parametrize("doc", [
        {"schema": "repro.serve_stats/1", "serve": {}, "runner": {}},
        {"schema": "repro.sweep_stats/1", "runner": {"memory": {}}},
        {"resident_blocks": 0},
    ], ids=["serve", "sweep", "gauges"])
    def test_document_without_gauges_says_so(self, doc, trace, tmp_path, capsys):
        stats = tmp_path / "stats.json"
        stats.write_text(json.dumps(doc))
        assert main(["profile", trace, "--memory", str(stats)]) == 0
        cap = capsys.readouterr()
        assert f"{stats} holds no memory gauges" in cap.err
        assert "memory telemetry" not in cap.out


def test_mem_chatter_is_interactive_only(capsys, monkeypatch):
    import sys as _sys

    args = ["sort", "--n", "2000", "--memory", "512", "--disks", "4"]
    assert main(args) == 0
    assert "[mem]" not in capsys.readouterr().err  # stderr is not a tty
    monkeypatch.setattr(_sys.stderr, "isatty", lambda: True, raising=False)
    assert main(args) == 0
    err = capsys.readouterr().err
    assert "[mem]" in err and "arena high-water" in err
    assert main([*args, "--quiet"]) == 0
    assert "[mem]" not in capsys.readouterr().err
