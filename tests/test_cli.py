"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_sort_defaults(self):
        args = build_parser().parse_args(["sort"])
        assert args.n == 20_000
        assert args.matcher == "derandomized"

    def test_bad_matcher_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sort", "--matcher", "psychic"])

    def test_bad_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sort", "--workload", "nope"])


class TestCommands:
    def test_sort_small(self, capsys):
        rc = main(["sort", "--n", "2000", "--memory", "512", "--block", "4",
                   "--disks", "8", "--seed", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "parallel I/Os" in out
        assert "output verified" in out and "yes" in out

    def test_io_plan_line_is_interactive_chatter_only(self, capsys, monkeypatch):
        """``[io-plan]`` respects --quiet and non-TTY stderr.

        Under capsys stderr is not a terminal, so the default run must
        stay silent; forcing ``isatty`` shows the line; --quiet silences
        it again even on a terminal.
        """
        import sys as _sys

        args = ["sort", "--n", "2000", "--memory", "512", "--disks", "8"]
        assert main(args) == 0
        assert "[io-plan]" not in capsys.readouterr().err
        monkeypatch.setattr(_sys.stderr, "isatty", lambda: True,
                            raising=False)
        assert main(args) == 0
        assert "[io-plan]" in capsys.readouterr().err
        monkeypatch.setattr(_sys.stderr, "isatty", lambda: True,
                            raising=False)
        assert main([*args, "--quiet"]) == 0
        assert "[io-plan]" not in capsys.readouterr().err

    def test_sort_with_overrides(self, capsys):
        rc = main(["sort", "--n", "1500", "--memory", "512", "--matcher", "greedy",
                   "--buckets", "4", "--virtual-disks", "4", "--workload", "zipf"])
        assert rc == 0
        assert "Theorem 1 bound" in capsys.readouterr().out

    def test_compare(self, capsys):
        rc = main(["compare", "--n", "2500", "--memory", "512"])
        out = capsys.readouterr().out
        assert rc == 0
        for name in ["balance", "greed", "randomized", "striped"]:
            assert name in out

    def test_hierarchy_models(self, capsys):
        for model, cost in [("hmm", "log"), ("bt", "0.5"), ("umh", "umh")]:
            rc = main(["hierarchy", "--n", "1200", "--h", "27", "--model", model,
                       "--cost", cost])
            out = capsys.readouterr().out
            assert rc == 0
            assert f"P-{model.upper()}" in out

    def test_hierarchy_hypercube(self, capsys):
        rc = main(["hierarchy", "--n", "900", "--h", "16", "--interconnect", "hypercube"])
        assert rc == 0
        assert "hypercube" in capsys.readouterr().out

    def test_sort_emit_json_stdout_suppresses_table(self, capsys):
        import json

        rc = main(["sort", "--n", "1500", "--memory", "512", "--emit-json", "-"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "parallel I/Os" not in out  # human table suppressed
        report = json.loads(out)
        assert report["schema"] == "repro.run_report/1"
        assert report["command"] == "sort"
        assert report["result"]["verified"] is True
        assert report["result"]["parallel_ios"] > 0
        assert report["phases"]  # per-phase breakdown present
        assert report["metrics"]["pdm"]["counters"]["read_ios"] > 0

    def test_sort_emit_json_file_keeps_table(self, capsys, tmp_path):
        import json

        path = tmp_path / "rep.json"
        rc = main(["sort", "--n", "1500", "--memory", "512",
                   "--emit-json", str(path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "parallel I/Os" in out  # table still printed
        assert json.loads(path.read_text())["command"] == "sort"

    def test_trace_out_then_report(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        rc = main(["sort", "--n", "1500", "--memory", "512",
                   "--trace-out", str(trace)])
        assert rc == 0
        capsys.readouterr()
        rc = main(["report", str(trace)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "per-phase breakdown" in out
        assert "distribute" in out
        assert "stripe-width histogram" in out

    def test_report_emit_json(self, capsys, tmp_path):
        import json

        trace = tmp_path / "trace.jsonl"
        main(["sort", "--n", "1500", "--memory", "512", "--trace-out", str(trace)])
        capsys.readouterr()
        rc = main(["report", str(trace), "--emit-json", "-"])
        out = capsys.readouterr().out
        assert rc == 0
        summary = json.loads(out)
        assert summary["schema"] == "repro.trace_summary/1"
        assert {p["name"] for p in summary["phases"]} >= {"partition", "distribute"}

    def test_compare_emit_json(self, capsys):
        import json

        rc = main(["compare", "--n", "2500", "--memory", "512",
                   "--emit-json", "-"])
        out = capsys.readouterr().out
        assert rc == 0
        report = json.loads(out)
        algos = [r["algorithm"] for r in report["result"]["algorithms"]]
        assert algos == ["balance", "greed", "randomized", "striped-merge"]
        assert set(report["metrics"]["algo"]) >= {"balance", "greed"}

    def test_hierarchy_emit_json(self, capsys):
        import json

        rc = main(["hierarchy", "--n", "1200", "--h", "27", "--emit-json", "-"])
        out = capsys.readouterr().out
        assert rc == 0
        report = json.loads(out)
        assert report["command"] == "hierarchy"
        assert report["result"]["verified"] is True
        assert report["result"]["total_time"] > 0
        assert report["metrics"]["hierarchy"]["counters"]["parallel_steps"] > 0

    def test_workloads_listing(self, capsys):
        rc = main(["workloads"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "uniform" in out and "adversarial_striping" in out


def test_module_entry_point():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "repro", "workloads"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert "uniform" in proc.stdout


# ------------------------------------------------------- sweep resilience


class TestSweepExitCodes:
    """The documented sweep contract: 0 all-success, 2 usage errors,
    3 when any cell exhausted its retries (mirroring ``repro diff``)."""

    ARGS = ["sweep", "--task", "hierarchy", "--n", "256", "--h", "16"]
    PERMANENT = ('{"seed": 0, "rules": [{"site": "exec.task", '
                 '"mode": "permanent", "at": [0]}]}')

    def test_clean_sweep_exits_zero(self, capsys):
        assert main(self.ARGS) == 0
        assert "failed=0" in capsys.readouterr().err

    def test_exhausted_retries_exit_three(self, capsys):
        rc = main(self.ARGS + ["--fault-plan", self.PERMANENT,
                               "--retries", "1", "--backoff", "0"])
        cap = capsys.readouterr()
        assert rc == 3
        assert "retried=1 failed=1" in cap.err
        # the failed cell is surfaced as a table, not a traceback
        assert "failed cells · 1" in cap.out
        assert "InjectedIOError" in cap.out

    def test_survivable_transient_exits_zero(self, capsys):
        transient = ('{"seed": 0, "rules": [{"site": "exec.task", '
                     '"at": [0]}]}')
        rc = main(self.ARGS + ["--fault-plan", transient,
                               "--retries", "1", "--backoff", "0"])
        cap = capsys.readouterr()
        assert rc == 0
        assert "retried=1 failed=0" in cap.err

    def test_bad_fault_plan_exits_two(self, capsys):
        rc = main(self.ARGS + ["--fault-plan", '{"seed": "nope"'])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_fault_site_exits_two(self, capsys):
        rc = main(self.ARGS + ["--fault-plan",
                               '{"rules": [{"site": "disk.io", "at": [0]}]}'])
        assert rc == 2
        assert "unknown fault site" in capsys.readouterr().err

    def test_resume_without_journal_exits_two(self, capsys):
        rc = main(self.ARGS + ["--resume"])
        assert rc == 2
        assert "--resume requires --journal" in capsys.readouterr().err

    def test_resume_grid_mismatch_exits_two(self, tmp_path, capsys):
        jdir = str(tmp_path / "j")
        assert main(self.ARGS + ["--journal", jdir]) == 0
        capsys.readouterr()
        other = ["sweep", "--task", "hierarchy", "--n", "512", "--h", "16"]
        rc = main(other + ["--journal", jdir, "--resume"])
        assert rc == 2
        assert "different grid" in capsys.readouterr().err

    def test_failures_recorded_in_emit_json(self, tmp_path, capsys):
        import json

        path = tmp_path / "report.json"
        rc = main(self.ARGS + ["--fault-plan", self.PERMANENT,
                               "--backoff", "0",
                               "--emit-json", str(path)])
        capsys.readouterr()
        assert rc == 3
        report = json.load(open(path))
        result = report["result"]
        assert result["n_failed"] == 1 and result["rows"] == []
        failure = result["failures"][0]
        assert failure["error"]["type"] == "InjectedIOError"
        assert failure["attempts"] == 1
        # resilience knobs never leak into the report's params
        for knob in ("fault_plan", "retries", "journal", "resume"):
            assert knob not in report["params"]

    def test_journal_resume_warm_sweep(self, tmp_path, capsys):
        jdir = str(tmp_path / "j")
        assert main(self.ARGS + ["--journal", jdir]) == 0
        assert "recorded_done=1" in capsys.readouterr().err
        assert main(self.ARGS + ["--journal", jdir, "--resume"]) == 0
        err = capsys.readouterr().err
        assert "executed=0" in err and "resumed=1" in err


# ------------------------------------------------ REPRO_* switch validation


class TestEnvSwitches:
    """A bad ``REPRO_IO_PLAN`` is a usage error: exit 2 with one line
    naming the valid values, before anything runs."""

    SORT = ["sort", "--n", "2000", "--memory", "512", "--disks", "4"]
    SWEEP = ["sweep", "--task", "sort", "--n", "2000", "--memory", "512",
             "--disks", "4"]

    @pytest.mark.parametrize("argv", [SORT, SWEEP], ids=["sort", "sweep"])
    def test_bad_io_plan_exits_two(self, argv, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_IO_PLAN", "abc")
        assert main(argv) == 2
        cap = capsys.readouterr()
        assert cap.out == ""
        (line,) = cap.err.strip().splitlines()
        assert "REPRO_IO_PLAN" in line and "off/auto" in line

    def test_commands_that_run_nothing_are_unaffected(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_IO_PLAN", "abc")
        assert main(["workloads"]) == 0


# ------------------------------------------------------- --cost validation


class TestBadCost:
    """A bad ``--cost`` is a usage error: exit 2 with one stderr line,
    checked before anything runs or connects."""

    HIER = ["--n", "900", "--h", "16"]

    @pytest.mark.parametrize("argv", [
        ["hierarchy", *HIER, "--cost", "abc"],
        ["hierarchy", *HIER, "--cost", "-1"],
        ["audit", "--target", "hierarchy", *HIER, "--cost", "abc"],
        ["sweep", "--task", "hierarchy", *HIER, "--cost", "abc"],
        ["sweep", "--task", "hierarchy", *HIER, "--cost", "log,0"],
        ["submit", "--port", "1", "--task", "hierarchy", *HIER, "--cost", "abc"],
    ], ids=["hierarchy", "hierarchy-negative", "audit", "sweep", "sweep-list",
            "submit"])
    def test_bad_cost_exits_two(self, argv, capsys):
        assert main(argv) == 2
        cap = capsys.readouterr()
        assert cap.out == ""
        (line,) = cap.err.strip().splitlines()
        assert line.startswith("repro: error: bad cost spec")

    def test_numeric_string_cost_runs(self, capsys):
        assert main(["hierarchy", *self.HIER, "--model", "bt", "--cost", "0.5"]) == 0
