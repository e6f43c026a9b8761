"""Tests for the command-line interface."""

import json
import re

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
        assert algos == ["balance", "greed", "randomized", "striped"]
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

    def test_misshapen_cache_entry_reexecutes(self, tmp_path, capsys):
        """A cache entry whose digest matches but whose payload has the
        wrong shape is quarantined and the cell re-executed, not served."""
        import json

        from repro.exec import payload_digest

        argv = self.ARGS + ["--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        table = capsys.readouterr().out
        (entry,) = tmp_path.glob("*.json")
        doc = json.loads(entry.read_text())
        doc["payload"]["result"] = 5
        doc["sha256"] = payload_digest(doc["payload"])
        entry.write_text(json.dumps(doc))
        assert main(argv) == 0
        cap = capsys.readouterr()
        assert cap.out == table
        assert "executed=1" in cap.err and "corrupt=1" in cap.err

    def test_journal_resume_warm_sweep(self, tmp_path, capsys):
        jdir = str(tmp_path / "j")
        assert main(self.ARGS + ["--journal", jdir]) == 0
        assert "recorded_done=1" in capsys.readouterr().err
        assert main(self.ARGS + ["--journal", jdir, "--resume"]) == 0
        err = capsys.readouterr().err
        assert "executed=0" in err and "resumed=1" in err


# ------------------------------------------------ REPRO_* switch validation


class TestEnvSwitches:
    """``REPRO_IO_PLAN`` is no longer read: a leftover value changes
    nothing, and commands that run nothing never look at it.  Neither
    are ``REPRO_PDM_STORE`` and ``REPRO_MEM_TELEMETRY``: one switch is
    left."""

    def test_commands_that_run_nothing_are_unaffected(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_IO_PLAN", "abc")
        assert main(["workloads"]) == 0

    def test_one_switch_read_in_one_place(self):
        """``src/`` reads one ``REPRO_*`` variable, in ``util/env.py``;
        the only other environment read is the CLI's ``GITHUB_SHA``
        commit stamp."""
        import ast
        import pathlib

        import repro
        from repro.util.env import SWITCHES

        assert SWITCHES == {"REPRO_PDM_CHECKSUMS": False}
        root = pathlib.Path(repro.__file__).parent
        reads = []
        for path in sorted(root.rglob("*.py")):
            source = path.read_text()
            lines = source.splitlines()
            for node in ast.walk(ast.parse(source)):
                if (isinstance(node, ast.Attribute)
                        and node.attr in ("environ", "getenv")
                        and isinstance(node.value, ast.Name)
                        and node.value.id == "os") or (
                        isinstance(node, ast.ImportFrom) and node.module == "os"):
                    reads.append((path.relative_to(root).as_posix(),
                                  lines[node.lineno - 1].strip()))
        assert {p for p, _ in reads} == {"util/env.py", "cli.py"}
        assert [line for p, line in reads if p == "cli.py"] == [
            'env = os.environ.get("GITHUB_SHA", "")']


# ------------------------------------------------------ shape validation


class TestBadShapes:
    """A shape the sort cannot run is a usage error: exit 2 with one
    stderr line and nothing on stdout, checked before anything runs.
    The rules are the machine constructors' and the sort's own."""

    @pytest.mark.parametrize("argv", [
        ["sort", "--memory", "16", "--block", "4", "--disks", "4"],
        ["sort", "--block", "512"],
        ["sort", "--buckets", "100"],
        ["sort", "--disks", "64"],
        ["sort", "--disks", "8", "--virtual-disks", "3"],
        ["sort", "--disks", "0"],
        ["sort", "--n", "-5"],
        ["sort", "--processors", "0"],
        ["compare", "--block", "512"],
        ["compare", "--n", "-5"],
        ["audit", "--buckets", "100"],
        ["audit", "--target", "hierarchy", "--h", "0"],
        ["hierarchy", "--h", "0"],
        ["hierarchy", "--n", "-5"],
        ["sort", "--n", "500", "--disks", "4", "--seed", "-1"],
        ["compare", "--seed", "-1"],
        ["hierarchy", "--seed", "-1"],
        ["audit", "--target", "hierarchy", "--seed", "-1"],
    ], ids=lambda argv: "_".join(argv).replace("--", ""))
    def test_bad_shape_exits_two(self, argv, capsys):
        assert main(argv) == 2
        cap = capsys.readouterr()
        assert cap.out == ""
        (line,) = cap.err.strip().splitlines()
        assert line.startswith("repro: error: ")

    def test_n_zero_is_accepted(self, capsys):
        assert main(["sort", "--n", "0", "--memory", "512"]) == 0
        assert "output verified" in capsys.readouterr().out


class TestBadGridShapes:
    """A grid cell the task cannot run is a bad spec, not a failed cell:
    every cell of a ``sweep`` / ``submit`` / ``bench record`` grid is
    checked before anything runs or connects (exit 2, one stderr line
    naming the cell, nothing on stdout)."""

    PROBES = [
        ["--memory", "16", "--block", "4", "--disks", "4"],
        ["--block", "512"],
        ["--buckets", "100"],
        ["--disks", "64"],
        ["--disks", "8", "--virtual-disks", "3"],
        ["--disks", "0"],
        ["--n", "-5"],
    ]

    @pytest.mark.parametrize("probe", PROBES,
                             ids=lambda argv: "_".join(argv).replace("--", ""))
    @pytest.mark.parametrize("command", ["sweep", "submit", "bench"])
    def test_bad_cell_exits_two(self, command, probe, tmp_path, capsys):
        ledger = tmp_path / "ledger.jsonl"
        head = {
            "sweep": ["sweep"],
            # Port 1 refuses connections: a connect would fail differently.
            "submit": ["submit", "--port", "1"],
            "bench": ["bench", "record", "--series", "s", "--ledger", str(ledger)],
        }[command]
        assert main([*head, "--n", "2000", *probe]) == 2
        cap = capsys.readouterr()
        assert cap.out == ""
        (line,) = cap.err.strip().splitlines()
        assert line.startswith("repro: error: cell 0 (sort_pdm ")
        assert not ledger.exists()

    def test_the_bad_cell_is_named(self, capsys):
        argv = ["sweep", "--n", "2000", "--disks", "4,64"]
        assert main(argv) == 2
        cap = capsys.readouterr()
        assert cap.out == ""
        (line,) = cap.err.strip().splitlines()
        assert line.startswith("repro: error: cell 1 (sort_pdm ")
        assert "disks=64" in line

    @pytest.mark.parametrize("argv", [
        ["sweep", "--task", "hierarchy", "--n", "200", "--h", "16,0"],
        ["sweep", "--task", "compare", "--algorithms", "balance",
         "--n", "2000", "--buckets", "100"],
        ["sweep", "--task", "compare", "--algorithms", "greed",
         "--n", "2000", "--disks", "0"],
    ], ids=["hierarchy", "compare-balance", "compare-greed"])
    def test_other_tasks(self, argv, capsys):
        assert main(argv) == 2
        cap = capsys.readouterr()
        assert cap.out == ""
        assert cap.err.startswith("repro: error: cell ")

    def test_compare_baselines_skip_the_sort_rules(self, capsys):
        """Only Balance Sort has a memoryload rule; greed runs."""
        argv = ["sweep", "--task", "compare", "--algorithms", "greed",
                "--n", "500", "--buckets", "100"]
        assert main(argv) == 0
        assert "greed" in capsys.readouterr().out


# ------------------------------------------------------- --cost validation


class TestBadCost:
    """A bad ``--cost`` is a usage error: exit 2 with one stderr line
    naming the cell, checked before anything runs or connects (the
    table's cost rule, like every other rule)."""

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
        import re

        assert main(argv) == 2
        cap = capsys.readouterr()
        assert cap.out == ""
        (line,) = cap.err.strip().splitlines()
        assert re.match(r"repro: error: cell \d+ \(hierarchy_sort .*\): "
                        r"bad cost spec ", line), line

    def test_numeric_string_cost_runs(self, capsys):
        assert main(["hierarchy", *self.HIER, "--model", "bt", "--cost", "0.5"]) == 0


# ---------------------------------------------------------- one run path


class TestOneRunPath:
    """``sort``, ``hierarchy``, ``compare`` and ``audit`` run the
    registered tasks: a single run's ``--emit-json`` result is the
    task's result on the same cell."""

    @staticmethod
    def _result(argv, capsys):
        import json

        assert main([*argv, "--emit-json", "-"]) == 0
        return json.loads(capsys.readouterr().out)["result"]

    def test_sort_result_is_the_task_result(self, capsys):
        from repro.exec import run_task

        result = self._result(
            ["sort", "--n", "3000", "--memory", "512", "--disks", "4",
             "--workload", "zipf", "--seed", "2", "--matcher", "greedy",
             "--buckets", "4", "--virtual-disks", "2"], capsys)
        cell = {"n": 3000, "memory": 512, "block": 4, "disks": 4,
                "workload": "zipf", "seed": 2, "matcher": "greedy",
                "buckets": 4, "virtual_disks": 2, "processors": 1,
                "check_invariants": True, "verify": True}
        assert result == run_task("sort_pdm", cell)["result"]

    def test_sort_internal_flag_is_the_task_param(self, capsys):
        from repro.exec import run_task

        result = self._result(
            ["sort", "--n", "8000", "--memory", "512", "--disks", "4",
             "--internal", "radix"], capsys)
        cell = {"n": 8000, "memory": 512, "block": 4, "disks": 4,
                "internal": "radix", "processors": 1,
                "check_invariants": True, "verify": True}
        payload = run_task("sort_pdm", cell)
        assert result == payload["result"]
        # Every internal sort charges [RaR]: base cases and [ViSa] passes.
        labels = payload["metrics"]["pdm"]["cpu"]["labels"]["counters"]
        assert "rr-radix" in labels and "cole-sort" not in labels
        assert result != run_task("sort_pdm", {**cell, "internal": "cole"})["result"]

    def test_hierarchy_result_is_the_task_result(self, capsys):
        from repro.exec import run_task

        result = self._result(
            ["hierarchy", "--n", "2000", "--h", "16", "--model", "bt",
             "--cost", "0.5", "--workload", "zipf", "--seed", "2"], capsys)
        assert result.pop("workload") == "zipf"
        assert result.pop("verified") is True
        cell = {"n": 2000, "h": 16, "model": "bt", "cost": "0.5",
                "workload": "zipf", "seed": 2}
        assert result == run_task("hierarchy_sort", cell)["result"]

    def test_compare_rows_are_the_task_results(self, capsys):
        from repro.exec import run_task
        from repro.exec.tasks import ALGORITHMS

        rows = self._result(
            ["compare", "--n", "2000", "--memory", "512", "--disks", "4"],
            capsys)["algorithms"]
        assert [row["algorithm"] for row in rows] == list(ALGORITHMS)
        keys = ("algorithm", "parallel_ios", "ratio")
        for row in rows:
            cell = {"algorithm": row["algorithm"], "n": 2000, "memory": 512,
                    "block": 4, "disks": 4}
            expected = run_task("compare_pdm", cell)["result"]
            assert {k: row[k] for k in keys} == {k: expected[k] for k in keys}
            assert row["verified"] is True

    @pytest.mark.parametrize("argv", [
        ["audit", "--n", "6000", "--memory", "512", "--disks", "8",
         "--virtual-disks", "4"],
        ["audit", "--target", "hierarchy", "--n", "4000", "--h", "64",
         "--model", "bt", "--cost", "0.5"],
    ], ids=["pdm", "hierarchy"])
    def test_audit_keeps_its_theorem4_limit(self, argv, capsys):
        import json

        assert main([*argv, "--theorem4-limit", "1.0", "--emit-json", "-"]) == 1
        report = json.loads(capsys.readouterr().out)
        (check,) = [c for c in report["audit"]["checks"]
                    if c["name"] == "theorem4.read_parallelism"]
        assert check["limit"] == 1.0 and check["ok"] is False
        assert report["result"]["verified"] is True

    def test_sort_without_sinks_builds_no_observation(self, capsys, monkeypatch):
        from repro.obs import tracer

        built = []
        init = tracer.Observation.__init__

        def spy(self, *args, **kwargs):
            built.append(True)
            init(self, *args, **kwargs)

        monkeypatch.setattr(tracer.Observation, "__init__", spy)
        argv = ["sort", "--n", "2000", "--memory", "512", "--disks", "4"]
        assert main(argv) == 0
        assert built == []
        assert main([*argv, "--emit-json", "-"]) == 0  # the spy does see one
        assert built == [True]


# ------------------------------------------------ grid flags reach the cells


class TestGridFlags:
    """A grid flag the chosen task declares reaches every cell; flags
    left at their defaults add nothing to a cell."""

    @staticmethod
    def _rows(argv, capsys):
        assert main([*argv, "--emit-json", "-"]) == 0
        return json.loads(capsys.readouterr().out)["result"]["rows"]

    def test_hierarchy_cells_run_the_matcher_they_name(self, capsys):
        from repro.exec import run_task

        (row,) = self._rows(["sweep", "--task", "hierarchy", "--n", "2000",
                             "--h", "64", "--matcher", "randomized"], capsys)
        cell = {"model": "hmm", "cost": "log", "interconnect": "pram",
                "h": 64, "n": 2000, "workload": "uniform", "seed": 0,
                "matcher": "randomized"}
        assert row.pop("params") == cell and row.pop("cached") is False
        assert row == run_task("hierarchy_sort", cell)["result"]
        default = {k: v for k, v in cell.items() if k != "matcher"}
        assert row != run_task("hierarchy_sort", default)["result"]

    def test_internal_reaches_every_sort_cell(self, capsys):
        rows = self._rows(["sweep", "--task", "sort", "--n", "3000",
                           "--disks", "4", "--internal", "cole,radix"], capsys)
        assert [row["params"]["internal"] for row in rows] == ["cole", "radix"]
        assert rows[0]["cpu_work"] != rows[1]["cpu_work"]

    @pytest.mark.parametrize("task, shape", [
        ("sort", ["--disks", "4"]),
        ("compare", ["--disks", "4"]),
        ("hierarchy", ["--h", "16"]),
    ])
    def test_verify_reaches_every_cell(self, task, shape, capsys):
        rows = self._rows(["sweep", "--task", task, "--n", "600", *shape,
                           "--verify"], capsys)
        assert rows and all(row["params"]["verify"] is True for row in rows)
        assert all(row["verified"] is True for row in rows)

    def test_default_flags_add_nothing(self, capsys):
        (row,) = self._rows(["sweep", "--task", "hierarchy", "--n", "600",
                             "--h", "16", "--matcher", "derandomized",
                             "--memory", "512"], capsys)
        assert list(row["params"]) == ["model", "cost", "interconnect", "h",
                                       "n", "workload", "seed"]
        assert "verified" not in row


# ------------------------------------------------ cells a task would reject


class TestBadCells:
    """Every cell its task would reject is refused before anything runs:
    an unknown workload, matcher or algorithm, an explicit ``buckets``
    < 2 or ``virtual_disks`` < 1 (never a silent fall back to the
    default), and a grid axis value that is not a number.  Exit 2, one
    stderr line naming the cell or the flag, nothing on stdout."""

    GRID = ["--n", "500", "--disks", "4"]

    @pytest.mark.parametrize("argv", [
        ["sweep", *GRID, "--workload", "nope"],
        ["sweep", *GRID, "--matcher", "nope"],
        ["sweep", *GRID, "--task", "compare", "--algorithms", "nope"],
        ["sweep", "--n", "500", "--task", "hierarchy", "--workload", "nope"],
        ["sweep", *GRID, "--buckets", "1"],
        ["sweep", *GRID, "--virtual-disks", "0"],
        ["bench", "record", "--series", "s", *GRID, "--workload", "nope"],
        ["submit", "--port", "1", *GRID, "--workload", "nope"],
        ["sweep", *GRID, "--seed", "-1"],
        ["sweep", "--n", "500", "--task", "hierarchy", "--seed", "-1"],
        ["submit", "--port", "1", *GRID, "--seed", "-1"],
    ], ids=["workload", "matcher", "algorithm", "hierarchy-workload",
            "buckets", "virtual-disks", "bench-record", "submit", "seed",
            "hierarchy-seed", "submit-seed"])
    def test_bad_grid_cell_exits_two(self, argv, tmp_path, capsys):
        ledger = tmp_path / "ledger.jsonl"
        if argv[0] == "bench":
            argv = [*argv, "--ledger", str(ledger)]
        assert main(argv) == 2
        cap = capsys.readouterr()
        assert cap.out == ""
        (line,) = cap.err.strip().splitlines()
        assert line.startswith("repro: error: cell 0 (")
        assert not ledger.exists()

    @pytest.mark.parametrize("argv, flag, task", [
        (["sweep", *GRID, "--h", "8"], "--h", "sort_pdm"),
        (["sweep", *GRID, "--h", "8", "--model", "bt"], "--h", "sort_pdm"),
        (["sweep", "--n", "500", "--task", "hierarchy", "--h", "8",
          "--memory", "1024"], "--memory", "hierarchy_sort"),
        (["sweep", *GRID, "--task", "compare", "--matcher", "randomized"],
         "--matcher", "compare_pdm"),
        (["sweep", *GRID, "--algorithms", "greed"], "--algorithms", "sort_pdm"),
        (["submit", "--port", "1", *GRID, "--model", "bt"], "--model", "sort_pdm"),
        (["bench", "record", "--series", "s", *GRID, "--cost", "0.5"],
         "--cost", "sort_pdm"),
        (["audit", "--target", "hierarchy", "--memory", "64"],
         "--memory", "hierarchy_sort"),
        (["audit", "--target", "hierarchy", "--memory", "64", "--buckets", "3"],
         "--memory", "hierarchy_sort"),
        (["audit", "--h", "8"], "--h", "sort_pdm"),
    ], ids=["sweep-h", "sweep-h-model", "hierarchy-memory", "compare-matcher",
            "sort-algorithms", "submit-model", "bench-cost", "audit-memory",
            "audit-memory-buckets", "audit-pdm-h"])
    def test_flag_the_task_does_not_take_exits_two(self, argv, flag, task,
                                                    tmp_path, capsys):
        """A task flag the chosen task does not declare is refused, not
        dropped, unless it is left at its default."""
        ledger = tmp_path / "ledger.jsonl"
        if argv[0] == "bench":
            argv = [*argv, "--ledger", str(ledger)]
        assert main(argv) == 2
        cap = capsys.readouterr()
        assert cap.out == ""
        assert cap.err.strip().splitlines() == [
            f"repro: error: {flag} does not apply to {task} cells"]
        assert not ledger.exists()

    @pytest.mark.parametrize("command", ["sort", "audit"])
    @pytest.mark.parametrize("flag, value, rule", [
        ("--buckets", "1", "need at least 2 buckets, got S=1"),
        ("--buckets", "-3", "need at least 2 buckets, got S=-3"),
        ("--buckets", "0", "need at least 2 buckets, got S=0"),
        ("--virtual-disks", "0", "need at least 1 virtual disk, got D'=0"),
    ])
    def test_bad_override_exits_two(self, command, flag, value, rule, capsys):
        assert main([command, "--n", "2000", "--memory", "512",
                     flag, value]) == 2
        cap = capsys.readouterr()
        assert cap.out == ""
        (line,) = cap.err.strip().splitlines()
        assert line.startswith("repro: error: cell 0 (sort_pdm ")
        assert line.endswith(rule)

    @pytest.mark.parametrize("argv, flag", [
        (["sweep", "--n", "abc"], "--n"),
        (["sweep", "--disks", "x"], "--disks"),
        (["sweep", "--task", "hierarchy", "--h", "x"], "--h"),
        (["submit", "--port", "1", "--n", "abc"], "--n"),
    ], ids=["sweep-n", "sweep-disks", "sweep-h", "submit-n"])
    def test_bad_axis_value_names_the_flag(self, argv, flag, capsys):
        assert main(argv) == 2
        cap = capsys.readouterr()
        assert cap.out == ""
        (line,) = cap.err.strip().splitlines()
        assert line.startswith(f"repro: error: argument {flag}: invalid int value")

    @pytest.mark.parametrize("plan", [
        '{"rules": 5}',
        '{"seed": "x", "rules": []}',
        '{"rules": [{"site": "store.read", "rate": "x"}]}',
        '{"rules": [{"site": "store.read", "at": "x"}]}',
    ], ids=["rules-int", "seed-str", "rate-str", "at-str"])
    @pytest.mark.parametrize("command", ["sweep", "serve"])
    def test_malformed_fault_plan_exits_two(self, command, plan, capsys):
        head = ["sweep", *self.GRID] if command == "sweep" else ["serve"]
        assert main([*head, "--fault-plan", plan]) == 2
        cap = capsys.readouterr()
        assert cap.out == ""
        (line,) = cap.err.strip().splitlines()
        assert line.startswith(f"[{command}] error: ")

    @staticmethod
    def _never_listen(monkeypatch):
        """Fail, rather than serve forever, if ``repro serve`` gets as far
        as listening."""
        def listen(self):
            raise AssertionError("serve listened despite a refused setting")

        monkeypatch.setattr("repro.serve.service.SortService.run", listen)

    @pytest.mark.parametrize("flag, value, rule", [
        ("--retries", "-1", "retries must be >= 0, got -1"),
        ("--timeout", "0", "timeout must be > 0, got 0.0"),
        ("--timeout", "-1", "timeout must be > 0, got -1.0"),
        ("--backoff", "-1", "backoff must be >= 0, got -1.0"),
        ("--jobs", "-3", "jobs must be >= 0, got -3"),
    ], ids=["retries", "timeout-0", "timeout-neg", "backoff", "jobs-neg"])
    @pytest.mark.parametrize("command", ["sweep", "serve"])
    def test_bad_runner_flag_exits_two(self, command, flag, value, rule,
                                       capsys, monkeypatch):
        self._never_listen(monkeypatch)
        head = ["sweep", *self.GRID] if command == "sweep" else ["serve"]
        assert main([*head, flag, value]) == 2
        cap = capsys.readouterr()
        assert cap.out == ""
        assert cap.err.strip().splitlines() == [f"repro: error: {rule}"]

    @pytest.mark.parametrize("flag, value, rule", [
        ("--queue", "0", "queue must be >= 1, got 0"),
        ("--queue", "-1", "queue must be >= 1, got -1"),
        ("--quota-burst", "0", "burst must be >= 1, got 0"),
        ("--quota-burst", "-1", "burst must be >= 1, got -1"),
        ("--quota-rate", "-1", "rate must be >= 0, got -1.0"),
    ], ids=["queue-0", "queue-neg", "burst-0", "burst-neg", "rate-neg"])
    def test_serve_refuses_settings_that_refuse_every_job(
        self, flag, value, rule, capsys, monkeypatch
    ):
        self._never_listen(monkeypatch)
        assert main(["serve", flag, value]) == 2
        cap = capsys.readouterr()
        assert cap.out == ""
        assert cap.err.strip().splitlines() == [f"repro: error: {rule}"]

    SWITCH = "is not a switch value (off: 0, off, false or empty; on: 1, on, true)"

    @pytest.mark.parametrize("argv, says, env", [
        (["diff", "a.json", "b.json", "--rule", "a=abc"], "bad --rule 'a=abc'", {}),
        (["profile", "t.jsonl", "--bins", "0"], "--bins must be >= 1, got 0", {}),
        (["profile", "t.jsonl", "--bins", "-1"], "--bins must be >= 1, got -1",
         {}),
        (["bench", "record", "--series", "s", *GRID, "--min-of", "0"],
         "--min-of must be >= 1, got 0", {}),
        (["bench", "record", "--series", "s", *GRID, "--jobs", "-3"],
         "jobs must be >= 0, got -3", {}),
        (["top", "t.jsonl", "--follow", "--interval", "-1"],
         "--interval must be > 0, got -1.0", {}),
        (["top", "t.jsonl", "--follow", "--interval", "0"],
         "--interval must be > 0, got 0.0", {}),
        (["sweep", *GRID], f"REPRO_PDM_CHECKSUMS='yes' {SWITCH}",
         {"REPRO_PDM_CHECKSUMS": "yes"}),
        (["sort", "--n", "2000"], f"REPRO_PDM_CHECKSUMS='2' {SWITCH}",
         {"REPRO_PDM_CHECKSUMS": "2"}),
        (["serve"], f"REPRO_PDM_CHECKSUMS='of' {SWITCH}",
         {"REPRO_PDM_CHECKSUMS": "of"}),
    ], ids=["diff-rule", "profile-bins-0", "profile-bins-neg", "bench-min-of",
            "bench-jobs-neg", "top-interval-neg", "top-interval-0",
            "checksums-sweep", "checksums-sort", "checksums-serve"])
    def test_bad_flag_value_exits_two(self, argv, says, env, tmp_path, capsys,
                                      monkeypatch):
        """A flag value no run can use, or an on/off ``REPRO_*`` variable
        set to a value no switch takes, is refused before anything runs."""
        self._never_listen(monkeypatch)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        monkeypatch.chdir(tmp_path)
        for name in ("a.json", "b.json"):
            (tmp_path / name).write_text('{"a": 1}\n')
        (tmp_path / "t.jsonl").write_text(
            '{"ev": "begin", "name": "a", "span": 1, "ts": 0}\n'
            '{"ev": "end", "name": "a", "span": 1, "ts": 1}\n')
        assert main(argv) == 2
        cap = capsys.readouterr()
        assert cap.out == ""
        (line,) = cap.err.strip().splitlines()
        assert says in line
        assert not (tmp_path / "BENCH_ledger.jsonl").exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "a.json", "b.json", "t.jsonl"]


# --------------------------------------------- offline readers, bad input


class TestUnreadableInputs:
    """An offline reader given a file it cannot read exits 2 with one
    stderr line naming the file and nothing on stdout."""

    BEGIN = '{"ev": "begin", "name": "a", "span": 1, "ts": 0}'
    END = '{"ev": "end", "name": "a", "span": 1, "ts": 1}'

    @pytest.fixture
    def files(self, tmp_path, monkeypatch):
        (tmp_path / "trace.jsonl").write_text(f"{self.BEGIN}\n{self.END}\n")
        (tmp_path / "mid.jsonl").write_text(
            f"{self.BEGIN}\nnot json\n{self.END}\n")
        (tmp_path / "list.json").write_text("[1, 2]\n")
        (tmp_path / "wall.jsonl").write_text(
            '{"ev": "end", "name": "a", "span": 1, "ts": 1, "wall_s": "abc"}\n')
        (tmp_path / "width.jsonl").write_text(
            '{"ev": "event", "name": "io.read", "ts": 1, '
            '"attrs": {"width": "x"}}\n')
        (tmp_path / "doc.json").write_text('{"a": 1}\n')
        (tmp_path / "tel.jsonl").write_text(
            '{"ev": "cell_finish", "ts": 1, "src": "runner", "key": "k", '
            '"cached": false, "failed": false, "seconds": "abc"}\n')
        (tmp_path / "journal").mkdir()
        (tmp_path / "journal" / "journal.jsonl").write_text(
            'not json\n{"ev": "job", "key": "k", "status": "done"}\n')
        monkeypatch.chdir(tmp_path)
        return tmp_path

    @pytest.mark.parametrize("argv, named", [
        (["report", "missing.jsonl"], "missing.jsonl"),
        (["profile", "missing.jsonl"], "missing.jsonl"),
        (["diff", "missing.json", "doc.json"], "missing.json"),
        (["diff", "trace.jsonl", "doc.json"], "trace.jsonl"),
        (["report", "mid.jsonl"], "mid.jsonl"),
        (["profile", "mid.jsonl"], "mid.jsonl"),
        (["export-trace", "mid.jsonl", "-o", "out.json"], "mid.jsonl"),
        (["report", "list.json"], "list.json"),
        (["profile", "list.json"], "list.json"),
        (["export-trace", "list.json", "-o", "out.json"], "list.json"),
        (["top", "list.json"], "list.json"),
        (["top", "tel.jsonl"], "tel.jsonl"),
        (["profile", "trace.jsonl", "--memory", "list.json"], "list.json"),
        (["report", "wall.jsonl"], "wall.jsonl"),
        (["profile", "wall.jsonl"], "wall.jsonl"),
        (["report", "width.jsonl"], "width.jsonl"),
        (["profile", "width.jsonl"], "width.jsonl"),
        (["sweep", "--n", "500", "--disks", "4", "--journal", "doc.json"],
         "doc.json"),
        (["serve", "--journal", "doc.json"], "doc.json"),
        (["sweep", "--n", "500", "--disks", "4", "--journal", "journal",
          "--resume"], "journal/journal.jsonl"),
        (["serve", "--journal", "journal", "--resume"], "journal/journal.jsonl"),
        (["serve", "--journal", "journal"], "journal/journal.jsonl"),
    ], ids=lambda v: "_".join(v) if isinstance(v, list) else None)
    def test_unreadable_input_exits_two(self, argv, named, files, capsys,
                                        monkeypatch):
        TestBadCells._never_listen(monkeypatch)
        assert main(argv) == 2
        cap = capsys.readouterr()
        assert cap.out == ""
        (line,) = cap.err.strip().splitlines()
        assert line.startswith("repro: error: ") and named in line
        assert not (files / "out.json").exists()

    def test_diff_keeps_its_exit_codes(self, files, capsys):
        (files / "more.json").write_text('{"a": 2}\n')
        assert main(["diff", "doc.json", "doc.json"]) == 0
        assert main(["diff", "doc.json", "more.json"]) == 1
