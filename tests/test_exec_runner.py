"""The exec layer: fingerprints, cache, runner, merging, and the core
determinism-under-parallelism contract.

The contract under test: a grid's payloads — results, metrics, traces —
are a pure function of the specs, so serial execution, a process pool,
and a warm cache must all produce **bit-identical** output, and repeat
runs must reproduce the merged trace exactly.
"""

import json
import os

import numpy as np
import pytest

from repro.exec import (
    SCHEMA_SALT,
    ParallelRunner,
    ResultCache,
    RunSpec,
    canonical_params,
    fingerprint,
    grid,
    merge_metrics,
    merge_trace_events,
    run_task,
    task_names,
)
from repro.obs import MetricsRegistry
from repro.obs.columnar import expand_trace

# Small-but-real grid cells used throughout: fast enough for the unit
# tier, real enough to carry metrics and traces.
CELLS = [
    {"n": 600, "memory": 512, "block": 4, "disks": 4,
     "workload": "uniform", "seed": 0},
    {"n": 600, "memory": 512, "block": 4, "disks": 4,
     "workload": "adversarial_striping", "seed": 1},
]
SPECS = [RunSpec("sort_pdm", dict(c)) for c in CELLS]


# ------------------------------------------------------------ fingerprint


class TestFingerprint:
    def test_key_order_invariant(self):
        a = fingerprint("t", {"n": 1, "d": 2})
        b = fingerprint("t", {"d": 2, "n": 1})
        assert a == b

    def test_sensitive_to_task_params_salt(self):
        base = fingerprint("t", {"n": 1})
        assert fingerprint("u", {"n": 1}) != base
        assert fingerprint("t", {"n": 2}) != base
        assert fingerprint("t", {"n": 1}, salt="other/2") != base

    def test_numpy_scalars_canonicalize_like_python(self):
        assert canonical_params({"n": np.int64(5)}) == canonical_params({"n": 5})
        assert fingerprint("t", {"n": np.int64(5)}) == fingerprint("t", {"n": 5})

    def test_runspec_fingerprint_matches_module_fn(self):
        spec = RunSpec("sort_pdm", {"n": 10})
        assert spec.fingerprint() == fingerprint("sort_pdm", {"n": 10})

    def test_registered_tasks_present(self):
        assert {"sort_pdm", "compare_pdm", "hierarchy_sort"} <= set(task_names())


# ------------------------------------------------------------------- grid


class TestGrid:
    def test_last_axis_fastest(self):
        cells = grid(n=[1, 2], d=[10, 20])
        assert cells == [
            {"n": 1, "d": 10}, {"n": 1, "d": 20},
            {"n": 2, "d": 10}, {"n": 2, "d": 20},
        ]

    def test_scalars_broadcast(self):
        assert grid(n=[1, 2], seed=7) == [
            {"n": 1, "seed": 7}, {"n": 2, "seed": 7},
        ]


# ------------------------------------------------------------------ cache


class TestResultCache:
    def test_memory_roundtrip_and_stats(self):
        c = ResultCache()
        assert c.get("k") is None
        c.put("k", {"x": 1})
        assert c.get("k") == {"x": 1}
        assert "k" in c and len(c) == 1
        assert c.stats["hits"] == 1 and c.stats["misses"] == 1

    def test_directory_persists_across_instances(self, tmp_path):
        # An on-disk entry must hold a well-formed payload to be served.
        payload = {"schema": SCHEMA_SALT, "task": "t", "params": {},
                   "result": {"x": [1, 2]}, "metrics": {}, "trace": []}
        c1 = ResultCache(str(tmp_path))
        c1.put("deadbeef", payload)
        c2 = ResultCache(str(tmp_path))
        assert c2.get("deadbeef") == payload

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        c = ResultCache(str(tmp_path))
        c.put("aa", {"x": 1})
        # clobber the on-disk entry; a fresh instance must treat it as a miss
        (path,) = list(tmp_path.glob("*.json"))
        path.write_text("{not json")
        c2 = ResultCache(str(tmp_path))
        assert c2.get("aa") is None


# ----------------------------------------------------------------- runner


class TestRunner:
    def test_duplicate_specs_execute_once(self):
        runner = ParallelRunner(jobs=0)
        spec = RunSpec("hierarchy_sort", {"n": 256, "h": 16})
        results = runner.map([spec, spec, spec])
        assert runner.executed == 1
        assert runner.served_from_cache == 2
        assert [r.cached for r in results] == [False, True, True]
        assert results[0].payload == results[1].payload == results[2].payload

    def test_results_in_spec_order(self):
        runner = ParallelRunner(jobs=0)
        specs = [RunSpec("hierarchy_sort", {"n": n, "h": 16}) for n in (256, 128, 512)]
        results = runner.map(specs)
        assert [r.spec.params["n"] for r in results] == [256, 128, 512]
        assert [r.result["records"] for r in results] == [256, 128, 512]

    def test_warm_cache_serves_without_execution(self, tmp_path):
        r1 = ParallelRunner(jobs=0, cache_dir=str(tmp_path))
        first = r1.map(SPECS[:1])
        r2 = ParallelRunner(jobs=0, cache_dir=str(tmp_path))
        second = r2.map(SPECS[:1])
        assert r2.executed == 0 and r2.served_from_cache == 1
        assert second[0].cached and not first[0].cached
        assert second[0].payload == first[0].payload

    @pytest.mark.slow
    def test_serial_vs_pool_bit_identical(self):
        """The headline contract: jobs=2 payloads equal serial's exactly."""
        serial = ParallelRunner(jobs=0).map(SPECS)
        pooled = ParallelRunner(jobs=2).map(SPECS)
        for s, p in zip(serial, pooled):
            assert s.payload == p.payload
        # Down to the serialized bytes, not just dict equality:
        assert json.dumps([r.payload for r in serial], sort_keys=True) == \
            json.dumps([r.payload for r in pooled], sort_keys=True)

    def test_repeat_run_identical_merged_trace(self):
        a = [r.payload for r in ParallelRunner(jobs=0).map(SPECS)]
        b = [r.payload for r in ParallelRunner(jobs=0).map(SPECS)]
        assert merge_trace_events(a) == merge_trace_events(b)
        assert merge_metrics(a).export() == merge_metrics(b).export()

    def test_payload_schema_and_zero_clock(self):
        payload = run_task("hierarchy_sort", {"n": 256, "h": 16})
        assert payload["schema"] == "repro.exec_payload/2"
        assert set(payload) == {"schema", "task", "params", "result",
                                "metrics", "trace"}
        # zero-clock tracer: every timestamp is exactly 0.0
        events = expand_trace(payload["trace"])
        assert all(ev.get("ts", 0.0) == 0.0 for ev in events)
        assert all(ev.get("wall_s", 0.0) == 0.0 for ev in events)


# ------------------------------------------------------------ jobs clamp


class TestJobsClamp:
    """``jobs`` is clamped to the usable core count (oversubscription only
    adds pickling and contention; see the ParallelRunner docstring)."""

    def test_oversubscription_clamps_and_traces(self, monkeypatch):
        import repro.exec.runner as runner_mod
        from repro.obs import Observation

        monkeypatch.setattr(runner_mod, "default_jobs", lambda: 2)
        obs = Observation()
        runner = ParallelRunner(jobs=8, obs=obs)
        assert runner.jobs == 2
        assert runner.jobs_requested == 8
        assert runner.stats["jobs"] == 2
        assert runner.stats["jobs_requested"] == 8
        clamped = [e for e in obs.tracer.events
                   if e.get("name") == "runner.jobs_clamped"]
        assert len(clamped) == 1
        assert clamped[0]["attrs"] == {"requested": 8, "usable": 2}

    def test_within_budget_not_clamped(self, monkeypatch):
        import repro.exec.runner as runner_mod
        from repro.obs import Observation

        monkeypatch.setattr(runner_mod, "default_jobs", lambda: 4)
        obs = Observation()
        runner = ParallelRunner(jobs=3, obs=obs)
        assert runner.jobs == 3 and runner.jobs_requested == 3
        assert not [e for e in obs.tracer.events
                    if e.get("name") == "runner.jobs_clamped"]

    def test_serial_requests_stay_serial(self, monkeypatch):
        import repro.exec.runner as runner_mod

        monkeypatch.setattr(runner_mod, "default_jobs", lambda: 1)
        for jobs in (None, 0, 1):
            runner = ParallelRunner(jobs=jobs)
            assert runner.jobs <= 1  # no pool; stats still report >= 1
            assert runner.stats["jobs"] == 1
            assert runner.stats["jobs_requested"] == 1

    def test_negative_jobs_refused(self):
        from repro.exceptions import ParameterError
        from repro.exec import JobRunner

        for cls in (JobRunner, ParallelRunner):
            with pytest.raises(ParameterError, match="jobs must be >= 0, got -3"):
                cls(jobs=-3)

    def test_clamped_runner_results_correct(self, monkeypatch):
        import repro.exec.runner as runner_mod

        monkeypatch.setattr(runner_mod, "default_jobs", lambda: 1)
        runner = ParallelRunner(jobs=16)  # clamps to 1 → inline path
        assert runner.jobs == 1
        results = runner.map(SPECS[:1])
        assert results[0].result["records"] == CELLS[0]["n"]


# ---------------------------------------------------------------- merging


class TestMerging:
    def test_metrics_fold_like_one_registry(self):
        r1, r2, expected = MetricsRegistry(), MetricsRegistry(), MetricsRegistry()
        r1.counter("c").inc(3)
        r2.counter("c").inc(4)
        expected.counter("c").inc(7)
        for v in (1.0, 5.0):
            r1.gauge("g").set(v)
        for v in (2.0, 3.0):
            r2.gauge("g").set(v)
        for v in (1.0, 5.0, 2.0, 3.0):
            expected.gauge("g").set(v)
        for v in (1, 2):
            r1.histogram("h").observe(v)
        r2.histogram("h").observe(100)
        for v in (1, 2, 100):
            expected.histogram("h").observe(v)
        merged = merge_metrics(
            [{"metrics": r1.export()}, {"metrics": r2.export()}]
        )
        assert merged.export() == expected.export()

    def test_trace_merge_wraps_and_rebases(self):
        payloads = [
            run_task("hierarchy_sort", {"n": 256, "h": 16, "seed": s})
            for s in (0, 1)
        ]
        merged = merge_trace_events(payloads)
        begins = [e for e in merged if e["ev"] == "begin"]
        ends = [e for e in merged if e["ev"] == "end"]
        # wrapper spans bracket each run
        names = [e["name"] for e in begins]
        assert "run:hierarchy_sort[0]" in names
        assert "run:hierarchy_sort[1]" in names
        # begin ids are unique and begin/end pair up exactly
        begin_ids = [e["span"] for e in begins]
        assert len(begin_ids) == len(set(begin_ids))
        assert sorted(begin_ids) == sorted(e["span"] for e in ends)
        # merged stream is consumable by the trace summarizer
        from repro.obs import summarize_trace

        summary = summarize_trace(merged)
        assert summary


# -------------------------------------------------------------------- CLI


class TestSweepCLI:
    def run_cli(self, argv, capsys):
        from repro.cli import main

        assert main(argv) == 0
        return capsys.readouterr()

    @pytest.mark.slow
    def test_stdout_identical_serial_vs_jobs(self, capsys, tmp_path):
        argv = ["sweep", "--task", "hierarchy", "--n", "256,512", "--h", "16"]
        out_serial = self.run_cli(
            argv + ["--cache-dir", str(tmp_path / "a")], capsys
        )
        out_pool = self.run_cli(
            argv + ["--jobs", "2", "--cache-dir", str(tmp_path / "b")], capsys
        )
        assert out_serial.out == out_pool.out
        # runner statistics stay on stderr, keeping stdout deterministic
        assert "[sweep]" in out_serial.err
        assert "[sweep]" not in out_serial.out

    def test_warm_cache_sweep_identical_report(self, capsys, tmp_path):
        def run(tag):
            path = tmp_path / f"{tag}.json"
            argv = ["sweep", "--task", "hierarchy", "--n", "256", "--h", "16",
                    "--cache-dir", str(tmp_path / "cache"),
                    "--emit-json", str(path)]
            err = self.run_cli(argv, capsys).err
            with open(path) as fh:
                return json.load(fh), err

        cold, cold_err = run("cold")
        warm, warm_err = run("warm")
        # the cache-served run executed nothing...
        assert "executed=0" in warm_err and "executed=1" in cold_err
        # ...and apart from the cached flag the reports are identical
        for report in (cold, warm):
            for row in report["result"]["rows"]:
                row.pop("cached")
        assert cold == warm

    def test_emit_json_report(self, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        argv = ["sweep", "--task", "hierarchy", "--n", "256", "--h", "16",
                "--emit-json", str(report_path)]
        self.run_cli(argv, capsys)
        with open(report_path) as fh:
            report = json.load(fh)
        assert report["schema"] == "repro.run_report/1"
        assert report["result"]["task"] == "hierarchy_sort"
        assert report["result"]["n_cells"] == 1
        assert report["metrics"]
