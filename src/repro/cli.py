"""Command-line interface: run sorts and comparisons without writing code.

Examples::

    python -m repro sort --n 20000 --memory 1024 --block 4 --disks 8
    python -m repro sort --n 20000 --emit-json report.json --trace-out trace.jsonl
    python -m repro sort --n 20000 --matcher randomized --workload zipf
    python -m repro compare --n 20000 --memory 512 --block 4 --disks 8
    python -m repro sweep --task sort --n 4000,16000 --disks 4,8 --jobs 4
    python -m repro sweep --task compare --n 24000 --cache-dir .repro-cache
    python -m repro hierarchy --n 8000 --h 64 --model bt --cost 0.5
    python -m repro report trace.jsonl
    python -m repro audit --n 20000 --disks 8
    python -m repro audit --target hierarchy --n 8000 --h 64 --model bt
    python -m repro profile trace.jsonl.gz --top 10
    python -m repro diff results/a.json results/b.json --threshold 2.0
    python -m repro workloads

Every command prints an aligned table (the same formatter the benchmark
harness uses) plus the Theorem 1/2/3 reference bound where applicable, and
verifies the output before reporting.  ``--emit-json`` writes the
machine-readable :class:`~repro.obs.RunReport` (``-`` = stdout, suppressing
the human table), ``--trace-out`` streams the span/event trace as JSONL,
and ``repro report <trace.jsonl>`` summarizes a saved trace offline — see
``docs/observability.md``.
"""

from __future__ import annotations

import argparse
import sys

from . import workloads
from .analysis import bounds
from .analysis.reporting import Table
from .exceptions import InputError, ParameterError
from .exec.tasks import ALGORITHMS, PARAMS
from .obs import (
    MemoryTelemetry,
    Observation,
    RunReport,
    TheoryAuditor,
    diff_runs,
    peak_rss_kb,
    profile_trace,
    render_profile,
    render_report,
    summarize_trace,
)
from .obs.report import write_json
from .util.env import check_switches

__all__ = ["main", "build_parser"]

#: Each command's task params that differ from the task's table: the
#: flag default where the command has the param as a flag, else the
#: value all its cells get (single runs verify their output; ``sort``
#: raises on a broken invariant, ``audit`` only observes).
_OVERRIDES = {
    "sort": {"n": 20_000, "memory": 1024, "verify": True, "check_invariants": True},
    "compare": {"n": 20_000, "memory": 1024, "verify": True},
    "audit": {"n": 20_000, "memory": 1024, "verify": True, "check_invariants": False},
    "hierarchy": {"n": 8_000, "verify": True},
    "grid": {"n": 8_000, "algorithm": ALGORITHMS},
}

#: The task params each command has as flags, in flag order; ``grid``
#: is the ``sweep`` / ``submit`` / ``bench record`` surface, whose flags
#: take comma lists.
_FLAG_PARAMS = {
    "sort": "n memory block disks workload seed matcher processors buckets "
            "virtual_disks internal",
    "compare": "n memory block disks workload seed",
    "hierarchy": "n h model cost interconnect workload seed",
    "audit": "n memory block disks workload seed matcher processors buckets "
             "virtual_disks internal h model cost interconnect",
    "grid": "n memory block disks seed workload matcher buckets virtual_disks "
            "internal verify algorithm h model cost interconnect",
}

#: The task a single-run command or a grid's ``--task`` runs, and the
#: axes all cells of its grid carry, in axis order (any other flag the
#: task declares joins the cells when set).
_TASK_OF = {"sort": "sort_pdm", "compare": "compare_pdm", "hierarchy": "hierarchy_sort"}
_GRID_AXES = {
    "sort_pdm": ("workload", "n", "memory", "block", "disks", "seed", "matcher"),
    "compare_pdm": ("algorithm", "workload", "n", "memory", "block", "disks", "seed"),
    "hierarchy_sort": ("model", "cost", "interconnect", "h", "n", "workload", "seed"),
}


def _flags(command: str):
    """``(dest, param, default)`` per task flag of ``command``: a grid
    axis defaults to its comma-list text."""
    for name in _FLAG_PARAMS[command].split():
        param = next(table[name] for table in PARAMS.values() if name in table)
        default = _OVERRIDES[command].get(name, param.default)
        if command == "grid" and param.type is not bool and default is not None:
            default = ",".join(map(str, default)) if isinstance(default, tuple) else str(default)
        # The grid's ``--algorithms`` takes a list of ``algorithm``s.
        yield ("algorithms" if name == "algorithm" else name), param, default


def _add_task_flags(p, command: str) -> None:
    """Add ``command``'s task flags, generated from the tasks' tables."""
    for dest, param, default in _flags(command):
        flag = "--" + dest.replace("_", "-")
        if param.type is bool:
            p.add_argument(flag, action="store_true", help=param.help)
        elif isinstance(default, str) and command == "grid":
            p.add_argument(flag, default=default, help=f"{param.help} (comma list)")
        else:
            p.add_argument(flag, type=int if param.type is int else None,
                           default=default, choices=param.choices or None,
                           help=param.help)


def _task_flags(args, command: str, task: str):
    """``(dest, param, default, value)`` per flag of ``command`` that
    ``task`` declares; a flag it does not declare must be at its default."""
    for dest, param, default in _flags(command):
        value = getattr(args, dest)
        if param.name in PARAMS[task]:
            yield dest, param, default, value
        elif value != default:
            raise ParameterError(f"--{dest.replace('_', '-')} does not apply "
                                 f"to {task} cells")


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Balance Sort (Nodine & Vitter, SPAA'93) — simulators and sorts",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_obs_args(p):
        p.add_argument(
            "--emit-json", metavar="PATH", default=None,
            help="write the machine-readable run report as JSON ('-' = stdout, "
                 "suppresses the table)",
        )
        p.add_argument(
            "--trace-out", metavar="PATH", default=None,
            help="stream the span/event trace to a JSONL file (see `repro report`)",
        )

    p_sort = sub.add_parser("sort", help="Balance Sort on the parallel disk model")
    _add_task_flags(p_sort, "sort")
    add_obs_args(p_sort)
    p_sort.add_argument(
        "-q", "--quiet", action="store_true",
        help="suppress informational stderr chatter (the [io-plan] "
             "summary line); chatter is also withheld when stderr is "
             "not a terminal",
    )

    p_cmp = sub.add_parser("compare", help="all four PDM algorithms side by side")
    _add_task_flags(p_cmp, "compare")
    add_obs_args(p_cmp)

    p_h = sub.add_parser("hierarchy", help="Balance Sort on P-HMM / P-BT / P-UMH")
    _add_task_flags(p_h, "hierarchy")
    add_obs_args(p_h)

    def add_grid_args(p):
        """The sweep-grid surface, shared by ``sweep``, ``submit`` and
        ``bench record``."""
        p.add_argument(
            "--task", default="sort", choices=list(_TASK_OF),
            help="which registered task each grid cell runs",
        )
        _add_task_flags(p, "grid")

    jobs_help = "worker processes (default: serial; 0/1 = serial in-process)"

    def add_exec_args(p):
        """The execution surface ``sweep`` and ``serve`` share; one
        :func:`_exec_runner` builds their runner from it."""
        p.add_argument("--jobs", type=int, default=None, help=jobs_help)
        p.add_argument(
            "--cache-dir", default=None, metavar="PATH",
            help="content-hashed result cache directory (hits skip "
                 "simulation; defaults to the journal's cells/ store when "
                 "--journal is set)",
        )
        p.add_argument(
            "--retries", type=int, default=0,
            help="extra attempts per job after the first (default 0: fail "
                 "fast into a structured repro.failures/1 record)",
        )
        p.add_argument(
            "--timeout", type=float, default=None, metavar="SECONDS",
            help="per-attempt wall-clock budget (pool mode; a hung worker "
                 "triggers a pool rebuild and the job is charged a retry)",
        )
        p.add_argument(
            "--backoff", type=float, default=0.05, metavar="SECONDS",
            help="deterministic exponential backoff base: attempt k sleeps "
                 "backoff*2^k before retrying (default 0.05)",
        )
        p.add_argument(
            "--backoff-max", type=float, default=5.0, metavar="SECONDS",
            help="cap on the cumulative backoff sleep per job (default 5.0), "
                 "so permanent-fault plans with deep retry budgets cannot "
                 "stall unboundedly; negative disables the cap",
        )
        p.add_argument(
            "--fault-plan", default=None, metavar="PATH|JSON",
            help="seeded chaos plan (repro.fault_plan/1 JSON file, or inline "
                 "JSON starting with '{'); see docs/resilience.md",
        )
        p.add_argument(
            "--journal", default=None, metavar="DIR",
            help="checkpoint every job to DIR (journal.jsonl + payload "
                 "store): a sweep re-run on it executes only the missing "
                 "cells, and serve --resume resubmits the unfinished jobs",
        )
        p.add_argument(
            "--resume", action="store_true",
            help="serve: resubmit the journal's admitted-but-unfinished "
                 "jobs on start; sweep: count the cells served from the "
                 "journal as resumed (attaching --journal DIR already "
                 "serves them; the grid fingerprint must match)",
        )

    p_sw = sub.add_parser(
        "sweep",
        help="run a parameter grid (optionally sharded across cores and cached)",
    )
    add_grid_args(p_sw)
    add_exec_args(p_sw)
    p_sw.add_argument(
        "--telemetry", default=None, metavar="PATH",
        help="stream repro.progress/1 live-progress events to PATH "
             "(line-buffered JSONL; tail it with `repro top PATH`)",
    )
    p_sw.add_argument(
        "--live", action="store_true",
        help="render an in-place live progress view on stderr (uses "
             "--telemetry PATH if given, else a temporary stream)",
    )
    p_sw.add_argument(
        "--stats-json", default=None, metavar="PATH",
        help="write the runner/journal stats (the stderr summary table) "
             "as JSON to PATH ('-' = stdout)",
    )
    add_obs_args(p_sw)

    p_srv = sub.add_parser(
        "serve",
        help="run the sort service: JSONL-over-TCP jobs through the exec "
             "layer with admission control, quotas, and graceful drain",
    )
    p_srv.add_argument("--host", default="127.0.0.1", help="bind address")
    p_srv.add_argument(
        "--port", type=int, default=0,
        help="TCP port (default 0 = ephemeral; see --port-file)",
    )
    p_srv.add_argument(
        "--port-file", default=None, metavar="PATH",
        help="write the bound port to PATH once listening (readiness "
             "signal for scripts and CI)",
    )
    p_srv.add_argument(
        "--queue", type=int, default=64, metavar="Q",
        help="bounded admission queue: submissions beyond Q active jobs "
             "are shed with a repro.reject/1 response (default 64)",
    )
    p_srv.add_argument(
        "--quota-burst", type=int, default=None, metavar="N",
        help="per-tenant token-bucket burst: each tenant may have N new "
             "executions outstanding before quota rejects (default: no "
             "quotas; coalesced and cached submissions are never charged)",
    )
    p_srv.add_argument(
        "--quota-rate", type=float, default=0.0, metavar="PER_SEC",
        help="token refill rate per tenant (default 0 = no refill, "
             "which makes quota tests exact)",
    )
    add_exec_args(p_srv)
    p_srv.add_argument(
        "--drain-grace", type=float, default=30.0, metavar="SECONDS",
        help="SIGTERM drain: stop accepting, wait this long for in-flight "
             "jobs, then exit (queued jobs resume via the journal)",
    )
    p_srv.add_argument(
        "--hold", action="store_true",
        help="admission-only mode: queue and journal jobs without starting "
             "the execution driver (drain/resume and shedding drills)",
    )
    p_srv.add_argument(
        "--log", default=None, metavar="PATH",
        help="append repro.serve/1 structured lifecycle events as JSONL",
    )
    p_srv.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="stream serve.job spans + serve.* events to a JSONL trace "
             "(request timelines via `repro export-trace`)",
    )
    p_srv.add_argument(
        "--stats-json", default=None, metavar="PATH",
        help="write the repro.serve_stats/1 counter document on exit "
             "('-' = stdout)",
    )

    p_sub = sub.add_parser(
        "submit",
        help="submit a parameter grid to a running `repro serve` instance "
             "(the CLI client used by tests and CI)",
    )
    add_grid_args(p_sub)
    p_sub.add_argument("--host", default="127.0.0.1", help="service address")
    p_sub.add_argument("--port", type=int, required=True, help="service port")
    p_sub.add_argument("--tenant", default="anon", help="quota/fair-share lane")
    p_sub.add_argument(
        "--wait-timeout", type=float, default=120.0, metavar="SECONDS",
        help="per-job completion wait budget (default 120)",
    )
    p_sub.add_argument(
        "--submit-retries", type=int, default=50, metavar="N",
        help="how many repro.reject/1 refusals to absorb per job "
             "(honouring retry-after hints) before giving up",
    )
    p_sub.add_argument(
        "--no-wait", action="store_true",
        help="enqueue only: exit after admission without waiting for "
             "completion (drain/resume drills; jobs finish server-side)",
    )
    p_sub.add_argument(
        "--stats-json", default=None, metavar="PATH",
        help="write client + service counters as JSON ('-' = stdout), "
             "parity with `repro sweep --stats-json`",
    )
    add_obs_args(p_sub)

    p_rep = sub.add_parser("report", help="summarize a saved JSONL trace")
    p_rep.add_argument("trace",
                       help="path to a trace.jsonl[.gz] written with --trace-out")
    p_rep.add_argument(
        "--emit-json", metavar="PATH", default=None,
        help="also write the summary as JSON ('-' = stdout, suppresses the tables)",
    )

    p_audit = sub.add_parser(
        "audit",
        help="run a sort and score it against the paper's bounds "
             "(Theorems 1-4, Invariants 1 & 2); exit 1 on any violation",
    )
    p_audit.add_argument("--target", default="pdm", choices=["pdm", "hierarchy"])
    _add_task_flags(p_audit, "audit")
    p_audit.add_argument(
        "--theorem4-limit", type=float, default=2.0,
        help="max allowed read-parallelism balance factor (Theorem 4; default 2.0)",
    )
    add_obs_args(p_audit)

    p_prof = sub.add_parser(
        "profile",
        help="profile a saved trace: hotspot self-times, critical path, "
             "I/O round-trip attribution",
    )
    p_prof.add_argument("trace", help="path to a trace.jsonl[.gz]")
    p_prof.add_argument("--top", type=int, default=None,
                        help="show only the top-K hotspots (default: all)")
    p_prof.add_argument("--bins", type=int, default=20,
                        help="utilization-timeline resolution (default 20)")
    p_prof.add_argument(
        "--emit-json", metavar="PATH", default=None,
        help="write the profile as JSON ('-' = stdout, suppresses the tables)",
    )
    p_prof.add_argument(
        "--memory", metavar="PATH", default=None,
        help="attach a memory-telemetry snapshot (a sweep or serve "
             "--stats-json file, or any JSON dict of gauges) to the profile",
    )

    p_diff = sub.add_parser(
        "diff",
        help="diff two JSON run documents (reports, bench sidecars, "
             "summaries) with relative thresholds; exit 1 past threshold",
    )
    p_diff.add_argument("a", help="baseline JSON document")
    p_diff.add_argument("b", help="candidate JSON document")
    p_diff.add_argument(
        "--threshold", type=float, default=0.0,
        help="default allowed relative increase (0.0 = bit-identical numbers; "
             "2.0 allows up to 3x)",
    )
    p_diff.add_argument(
        "--rule", action="append", default=[], metavar="PATTERN=THRESHOLD",
        help="per-path override (fnmatch pattern on the dotted path; "
             "first match wins; repeatable)",
    )
    p_diff.add_argument(
        "--ignore", action="append", default=[], metavar="PATTERN",
        help="drop matching paths from the comparison (repeatable)",
    )
    p_diff.add_argument(
        "--strict", action="store_true",
        help="also fail on added/removed paths and non-numeric changes",
    )
    p_diff.add_argument(
        "--emit-json", metavar="PATH", default=None,
        help="write the diff result as JSON ('-' = stdout, suppresses the tables)",
    )

    p_top = sub.add_parser(
        "top",
        help="inspect a repro.progress/1 telemetry stream: a snapshot by "
             "default, or tail a running sweep with --follow",
    )
    p_top.add_argument("telemetry",
                       help="telemetry JSONL written by `repro sweep --telemetry`")
    p_top.add_argument(
        "-f", "--follow", action="store_true",
        help="keep tailing until the stream records sweep_end",
    )
    p_top.add_argument(
        "--interval", type=float, default=0.5, metavar="SECONDS",
        help="--follow poll interval (default 0.5)",
    )

    p_exp = sub.add_parser(
        "export-trace",
        help="convert a JSONL/gz trace to Chrome trace-event / Perfetto "
             "JSON (open it in ui.perfetto.dev)",
    )
    p_exp.add_argument("trace", help="path to a trace.jsonl[.gz]")
    p_exp.add_argument(
        "-o", "--out", default=None, metavar="PATH",
        help="output path (default: <trace>.perfetto.json)",
    )
    p_exp.add_argument(
        "--counter-every", type=int, default=64, metavar="N",
        help="sample the cumulative I/O-rounds counter every N round "
             "events (default 64)",
    )

    p_bench = sub.add_parser(
        "bench",
        help="perf-trajectory ledger: record grid wall-clock points and "
             "gate them against their per-host baseline",
    )
    bench_sub = p_bench.add_subparsers(dest="bench_command", required=True)
    p_br = bench_sub.add_parser(
        "record",
        help="run a grid fresh (no cache), append one repro.bench_series/1 "
             "point to the ledger",
    )
    add_grid_args(p_br)
    p_br.add_argument("--jobs", type=int, default=None, help=jobs_help)
    p_br.add_argument("--series", required=True,
                      help="series name the point belongs to (e.g. e1-smoke)")
    p_br.add_argument(
        "--min-of", type=int, default=1, metavar="N",
        help="run the whole grid N times and record the minimum wall "
             "clock (noise floor); the methodology is stamped on the "
             "point and compare refuses to gate across methodologies",
    )
    p_br.add_argument("--ledger", default="BENCH_ledger.jsonl", metavar="PATH",
                      help="ledger file to append to (default BENCH_ledger.jsonl)")
    p_br.add_argument("--commit", default=None,
                      help="commit id to stamp (default: $GITHUB_SHA or git HEAD)")
    p_br.add_argument("--notes", default="", help="free-form provenance note")
    p_bc = bench_sub.add_parser(
        "compare",
        help="gate the newest point of a series against its predecessor "
             "on the same host class; exit 1 past threshold",
    )
    p_bc.add_argument("--series", required=True, help="series name to gate")
    p_bc.add_argument("--ledger", default="BENCH_ledger.jsonl", metavar="PATH")
    p_bc.add_argument(
        "--threshold", type=float, default=2.0,
        help="allowed relative increase in seconds/µs-per-record "
             "(default 2.0 = the CI 3x wall-clock window)",
    )
    p_bc.add_argument(
        "--host-key", default=None,
        help="gate within this host class (default: the current host's key)",
    )
    p_bc.add_argument(
        "--attribute", action="store_true",
        help="on gate failure, look both commits up in the run-history "
             "index and print the ranked regression attribution",
    )
    p_bc.add_argument(
        "--history", default=".repro-history", metavar="DIR",
        help="[--attribute] run-history index directory "
             "(default .repro-history)",
    )
    p_bl = bench_sub.add_parser(
        "list",
        help="enumerate the ledger's series × host × methodology with "
             "point counts and latest values",
    )
    p_bl.add_argument("--ledger", default="BENCH_ledger.jsonl", metavar="PATH")
    p_bl.add_argument(
        "--emit-json", metavar="PATH", default=None,
        help="write the listing as JSON ('-' = stdout, suppresses the table)",
    )

    p_hist = sub.add_parser(
        "history",
        help="cross-run history index: ingest run artifacts (reports, "
             "audits, profiles, ledger points, traces) and query them",
    )
    hist_sub = p_hist.add_subparsers(dest="history_command", required=True)

    def add_history_dir(p):
        p.add_argument(
            "--history", default=".repro-history", metavar="DIR",
            help="index directory (default .repro-history)",
        )

    p_hi = hist_sub.add_parser(
        "ingest",
        help="index one or more artifact files (content-detected; "
             "traces are profiled on ingest)",
    )
    add_history_dir(p_hi)
    p_hi.add_argument("paths", nargs="+", help="artifact files to ingest")
    p_hi.add_argument("--commit", default="",
                      help="commit id to stamp on the records")
    p_hi.add_argument("--series", default="",
                      help="series name to stamp on the records")
    p_hi.add_argument(
        "--config", action="append", default=[], metavar="KEY=VALUE",
        help="extra config knob to stamp (repeatable; REPRO_* env vars "
             "set at ingest time are captured automatically)",
    )
    p_hi.add_argument(
        "--require-version", action="store_true",
        help="refuse bench points lacking a repro_version stamp "
             "(the recorded-file shape gate)",
    )
    p_hl = hist_sub.add_parser("list", help="list indexed runs")
    add_history_dir(p_hl)
    p_hl.add_argument("--kind", default=None,
                      help="filter: report/audit/profile/ledger/bench/stats")
    p_hl.add_argument("--limit", type=int, default=None,
                      help="keep only the newest N records")
    p_hs = hist_sub.add_parser(
        "show", help="print one indexed run's verbatim artifact as JSON"
    )
    add_history_dir(p_hs)
    p_hs.add_argument("id", help="run id (unique prefix accepted)")
    p_hq = hist_sub.add_parser(
        "query", help="query index records as JSON (the scripting surface)"
    )
    add_history_dir(p_hq)
    p_hq.add_argument("--kind", default=None)
    p_hq.add_argument("--series", default=None)
    p_hq.add_argument("--commit", default=None,
                      help="commit filter (prefix match, both directions)")
    p_hq.add_argument("--host-key", default=None)
    p_hq.add_argument("--limit", type=int, default=None)
    p_hq.add_argument(
        "--emit-json", metavar="PATH", default="-",
        help="output path (default '-' = stdout)",
    )

    p_attr = sub.add_parser(
        "attribute",
        help="regression attribution: diff two runs at the profile level "
             "and rank the per-span deltas with round-count verdicts",
    )
    p_attr.add_argument(
        "a", help="baseline run: an index id (prefix ok) or a "
                  "report/profile JSON or trace file path",
    )
    p_attr.add_argument("b", help="candidate run (same forms as A)")
    p_attr.add_argument(
        "--history", default=".repro-history", metavar="DIR",
        help="index directory ids are resolved in (default .repro-history)",
    )
    p_attr.add_argument("--top", type=int, default=None,
                        help="keep only the top-K spans by |Δ|")
    p_attr.add_argument(
        "--emit-json", metavar="PATH", default=None,
        help="write the repro.attrib/1 report as JSON ('-' = stdout, "
             "suppresses the tables)",
    )

    p_dash = sub.add_parser(
        "dashboard",
        help="render the run-history index as one self-contained static "
             "HTML page (no external requests, no JS)",
    )
    p_dash.add_argument(
        "--history", default=".repro-history", metavar="DIR",
        help="index directory (default .repro-history)",
    )
    p_dash.add_argument(
        "-o", "--out", default="dashboard.html", metavar="PATH",
        help="output HTML path ('-' = stdout; default dashboard.html)",
    )
    p_dash.add_argument("--title", default="repro perf dashboard")

    sub.add_parser("workloads", help="list the available workload generators")
    return parser


def _make_obs(args) -> Observation | None:
    """An Observation when any sink was requested on the CLI, else None."""
    if args.emit_json is None and args.trace_out is None:
        return None
    return Observation(trace_path=args.trace_out, memory=MemoryTelemetry())


def _emit(args, obs: Observation | None, command: str, result: dict) -> bool:
    """Finalize observability output (with the theory audit the task
    finished on ``obs``, if any); returns True if the table should print."""
    if obs is None:
        return True
    obs.close()
    params = {
        k: v for k, v in vars(args).items()
        if k not in ("command", "emit_json", "trace_out")
    }
    audit = obs.auditor.report.to_dict() if obs.auditor else None
    report = RunReport.from_observation(
        obs, command=command, params=params, result=result, audit=audit
    )
    if args.emit_json:
        report.write(args.emit_json)
    return args.emit_json != "-"


def _run(args, obs: Observation | None) -> tuple[str, list[dict]]:
    """Run the cells :func:`_run_spec` builds under ``obs``: (task, results)."""
    from .exec import get_task, read_params

    task, cells = _run_spec(args)
    return task, [get_task(task)(read_params(task, params), obs) for params in cells]


def cmd_sort(args) -> int:
    """Run Balance Sort on a PDM machine and print the measurements."""
    from .pdm.machine import collect_machines, merge_sidecars

    obs = _make_obs(args)
    with collect_machines() as machines:
        _, (result,) = _run(args, obs)
    if not args.quiet and sys.stderr.isatty():
        # Interactive chatter only, out of band: the physical I/O-plan
        # and memory gauges never reach stdout or the report.
        side = merge_sidecars(m.sidecar() for m in machines)
        plan = side["io_plan"]
        if plan["write_flushes"] or plan["read_gathers"]:
            print(
                "[io-plan] {deferred_write_rounds} write rounds fused into "
                "{write_flushes} flushes (max {max_write_flush_blocks} "
                "blocks); {prefetched_read_rounds} read rounds gathered in "
                "{read_gathers} batches (max {max_read_gather_blocks} "
                "blocks)".format(**plan),
                file=sys.stderr,
            )
        print(
            "[mem] arena high-water {high_water_blocks} blocks (slab "
            "{slab_bytes} bytes, {grow_events} grows); ledger high-water "
            "{ledger_high_water_records} records; peak RSS {rss} kB".format(
                **side["memory"], rss=peak_rss_kb()
            ),
            file=sys.stderr,
        )
    if _emit(args, obs, "sort", result):
        bound = bounds.sort_io_bound(args.n, args.memory, args.block, args.disks)
        t = Table(["metric", "value"], title="Balance Sort (parallel disk model)")
        t.add("records", result["records"])
        t.add("workload", result["workload"])
        t.add("parallel I/Os", result["parallel_ios"])
        t.add("Theorem 1 bound", result["theorem1_bound"])
        t.add("ratio", round(result["parallel_ios"] / bound, 2))
        t.add("CPU work / time", f"{result['cpu_work']} / {result['cpu_time']}")
        t.add("recursion depth", result["recursion_depth"])
        t.add("blocks swapped", result["blocks_swapped"])
        t.add("balance factor", round(result["balance_factor"], 2))
        t.add("full-stripe write fraction",
              round(result["io"]["write_width_fraction"], 2))
        t.add("output verified", result["verified"])
        t.print()
    return 0


#: ``repro compare``'s table name for each compare algorithm.
_ALGORITHM_NAMES = {
    "balance": "balance (this paper)",
    "greed": "greed sort [NoV]",
    "randomized": "randomized [ViSa]",
    "striped": "striped merge sort",
}


def cmd_compare(args) -> int:
    """Run the four PDM algorithms on one input and print the comparison."""
    from .pdm import DISK_1993, DISK_NVME

    obs = _make_obs(args)
    _, results = _run(args, obs)
    bound = bounds.sort_io_bound(args.n, args.memory, args.block, args.disks)
    t = Table(
        ["algorithm", "parallel I/Os", "ratio to bound",
         "est. 1993 HDD", "est. NVMe", "verified"],
        title=f"N={args.n} M={args.memory} B={args.block} D={args.disks} ({args.workload})",
    )
    rows = []
    for r in results:
        hdd_s, nvme_s = (r["io"]["total_ios"] * disk.io_ms(args.block) / 1e3
                         for disk in (DISK_1993, DISK_NVME))
        rows.append({
            "algorithm": r["algorithm"],
            "parallel_ios": r["parallel_ios"],
            "ratio": r["ratio"],
            "est_1993_hdd_s": round(hdd_s, 3),
            "est_nvme_s": round(nvme_s, 6),
            "verified": r["verified"],
        })
        t.add(
            _ALGORITHM_NAMES[r["algorithm"]], r["parallel_ios"],
            round(r["parallel_ios"] / bound, 2),
            f"{hdd_s:.1f}s", f"{nvme_s * 1e3:.0f}ms", r["verified"],
        )
    result = {
        "records": args.n,
        "workload": args.workload,
        "theorem1_bound": round(bound, 1),
        "algorithms": rows,
    }
    if _emit(args, obs, "compare", result):
        t.print()
    return 0


def cmd_hierarchy(args) -> int:
    """Run Balance Sort on a parallel memory hierarchy machine."""
    obs = _make_obs(args)
    _, (r,) = _run(args, obs)
    result = {"records": r["records"], "workload": args.workload, **r}
    if _emit(args, obs, "hierarchy", result):
        t = Table(["metric", "value"],
                  title=f"Balance Sort (P-{args.model.upper()}, f={args.cost}, {args.interconnect})")
        t.add("records", r["records"])
        t.add("memory time", round(r["memory_time"], 1))
        t.add("interconnect time", round(r["interconnect_time"], 1))
        t.add("total time", round(r["total_time"], 1))
        t.add("parallel steps", r["parallel_steps"])
        t.add("base-case calls", r["base_case_calls"])
        t.add("balance factor", round(r["balance_factor"], 2))
        t.add("output verified", r["verified"])
        t.print()
    return 0


def _axis(args, name: str, cast=str) -> list:
    """Parse the comma-separated grid flag ``--<name>`` into ``cast`` values."""
    value = getattr(args, name)
    try:
        return [cast(v) for v in str(value).split(",") if v != ""]
    except ValueError:
        raise ParameterError(f"argument --{name}: invalid {cast.__name__} "
                             f"value in {value!r}") from None


def _sweep_specs(args) -> tuple[str, list]:
    """Build the (task name, RunSpec list) for a ``repro sweep`` grid."""
    from .exec import RunSpec, grid

    task = _TASK_OF[args.task]
    table = PARAMS[task]
    axes = dict.fromkeys(_GRID_AXES[task])
    for dest, param, default, value in _task_flags(args, "grid", task):
        if param.name in axes or value != default:
            axes[param.name] = (
                _axis(args, dest, int if param.type is int else str)
                if isinstance(default, str) else value
            )
    cells = [{k: v for k, v in cell.items() if table[k].applies(cell)}
             for cell in grid(**axes)]
    return task, [RunSpec(task, c) for c in cells]


#: Each task's grid-table columns: a param, or ``(header, result key,
#: digits to round to)``.
_SWEEP_COLUMNS = {
    "sort_pdm": ("workload", "n", "memory", "block", "disks", "seed", "matcher",
                 ("ios", "parallel_ios", None), ("bound", "theorem1_bound", None),
                 ("ratio", "ratio", 2), ("depth", "recursion_depth", None),
                 ("balance", "balance_factor", 2)),
    "compare_pdm": ("algorithm", "workload", "n", "memory", "block", "disks", "seed",
                    ("ios", "parallel_ios", None), ("ratio", "ratio", 2)),
    "hierarchy_sort": ("model", "cost", "h", "n", "workload", "seed",
                       ("total time", "total_time", 1), ("steps", "parallel_steps", None),
                       ("balance", "balance_factor", 2)),
}


#: Sweep CLI flags that never enter the report params: execution-shape
#: knobs (jobs, cache) and the whole resilience surface.  Excluding the
#: chaos flags is what lets ``repro diff --threshold 0`` compare a chaos
#: run's report against the fault-free run — the chaos-determinism gate.
_SWEEP_PARAM_EXCLUDES = (
    "command", "emit_json", "trace_out", "jobs", "cache_dir",
    "retries", "timeout", "backoff", "backoff_max", "fault_plan",
    "journal", "resume", "telemetry", "live", "stats_json",
)

#: ``repro submit`` keeps the same report-params surface as ``sweep`` —
#: the transport flags are excluded so a submit report diffs clean
#: against the serial sweep of the same grid (the service canary gate).
_SUBMIT_PARAM_EXCLUDES = _SWEEP_PARAM_EXCLUDES + (
    "host", "port", "tenant", "wait_timeout", "submit_retries", "no_wait",
)


def _exec_runner(args, prefix: str, attach=None):
    """The :class:`~repro.exec.JobRunner` of ``sweep`` and ``serve``,
    built from their shared execution flags: a constructor with every
    flag applied, which the command calls with its own arguments
    (telemetry, obs, scheduler); or an exit code after one
    ``[prefix] error:`` line on stderr.

    Loads ``--fault-plan`` (exit 2 if malformed), refuses ``--resume``
    without ``--journal`` (exit 2), opens the journal and hands it to
    ``attach`` (which returns an exit code to stop), defaults the cache
    directory to the journal's cells, and reports the cache entries the
    plan damaged.
    """
    from functools import partial

    from .exec import JobRunner
    from .resilience import FaultPlan, SweepJournal, inject_cache_faults

    plan = None
    if args.fault_plan:
        try:
            plan = FaultPlan.load(args.fault_plan)
        except ParameterError as exc:
            print(f"[{prefix}] error: {exc}", file=sys.stderr)
            return 2
    if args.resume and not args.journal:
        print(f"[{prefix}] error: --resume requires --journal DIR", file=sys.stderr)
        return 2
    journal = None
    cache_dir = args.cache_dir
    if args.journal:
        journal = SweepJournal(args.journal)
        if attach is not None:
            code = attach(journal)
            if code is not None:
                return code
        if cache_dir is None:
            cache_dir = journal.cells_dir
    if plan is not None and cache_dir:
        damaged = inject_cache_faults(cache_dir, plan)
        if damaged:
            print(
                f"[{prefix}] fault plan damaged {damaged} cache entr"
                f"{'y' if damaged == 1 else 'ies'}",
                file=sys.stderr,
            )
    return partial(
        JobRunner,
        jobs=args.jobs,
        cache_dir=cache_dir,
        retries=args.retries,
        timeout=args.timeout,
        backoff=args.backoff,
        backoff_max=None if args.backoff_max < 0 else args.backoff_max,
        fault_plan=plan,
        journal=journal,
    )


def cmd_sweep(args) -> int:
    """Run a parameter grid through the JobRunner and print the table.

    Grid cells are independent seeded simulations: ``--jobs N`` shards
    them across worker processes, ``--cache-dir`` serves repeated cells
    from the content-hashed result cache, and results always come back in
    grid order — the table is bit-identical whether the sweep ran
    serially, on a pool, or from cache.  Runner statistics go to stderr
    so stdout stays deterministic.

    Resilience: ``--retries/--timeout/--backoff`` make faults (injected
    via ``--fault-plan`` or real) survivable; cells that exhaust their
    budget become ``repro.failures/1`` records in the report and a
    failures table on stderr-adjacent output.  ``--journal DIR``
    checkpoints every cell and serves the completed ones back;
    ``--resume`` counts a journaled-done cell as resumed when its
    checkpoint served it (a damaged or missing one re-executes).

    Exit codes: 0 when every cell succeeded, 2 on usage errors (bad
    fault plan, ``--resume`` without ``--journal``, grid mismatch), 3
    when any cell exhausted its retries — mirroring ``repro diff``'s
    documented contract.
    """
    import os
    import tempfile

    from .obs import LiveProgressView, TelemetryWriter

    task, specs = _sweep_specs(args)
    keys = [spec.fingerprint() for spec in specs]
    # Grid cells the journal records done: resumable from the checkpoint.
    journaled_done: set[str] = set()

    def attach(journal) -> int | None:
        # A journal belongs to one grid: attaching a different grid —
        # resuming or not — would orphan the recorded checkpoints and
        # poison later resumes, so both paths refuse with the same
        # both-fingerprints diagnostic.
        recorded, requested = journal.verify_grid(keys)
        if recorded is not None and recorded != requested:
            verb = "resume" if args.resume else "attach"
            print(
                f"[sweep] error: journal {args.journal} records a "
                f"different grid (fingerprint {recorded} != "
                f"{requested}); refusing to {verb} (use a fresh "
                f"--journal DIR for a new grid)",
                file=sys.stderr,
            )
            return 2
        if args.resume:
            key_set = set(keys)
            journaled_done.update(
                k for k, st in journal.completed().items()
                if st == "done" and k in key_set
            )
        journal.begin(task, keys)
        return None

    make_runner = _exec_runner(args, "sweep", attach)
    if isinstance(make_runner, int):
        return make_runner

    telemetry_path = args.telemetry
    temp_telemetry = None
    if args.live and telemetry_path is None:
        fd, telemetry_path = tempfile.mkstemp(
            prefix="repro-telemetry-", suffix=".jsonl"
        )
        os.close(fd)
        temp_telemetry = telemetry_path
    writer = TelemetryWriter(telemetry_path) if telemetry_path else None

    runner = make_runner(telemetry=writer)
    live = LiveProgressView(telemetry_path).start() if args.live else None
    try:
        results = runner.map(specs)
    finally:
        if live is not None:
            live.stop()
        if writer is not None:
            writer.close()
        if temp_telemetry is not None:
            try:
                os.unlink(temp_telemetry)
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
    if args.telemetry:
        print(f"[sweep] telemetry={args.telemetry}", file=sys.stderr)
    ok_payloads = [r.payload for r in results if not r.failed]
    rows = []
    failures = []
    for res in results:
        if res.failed:
            failures.append({
                "params": dict(res.spec.params),
                "error": res.payload["error"],
                "attempts": res.payload["attempts"],
                "key": res.key,
            })
            continue
        rows.append({**res.result, "params": dict(res.spec.params),
                     "cached": res.cached})
    _grid_output(
        args, "sweep", _SWEEP_PARAM_EXCLUDES, "cells",
        task, len(results), rows, failures, ok_payloads,
    )
    stats = runner.stats
    if stats["jobs"] != stats["jobs_requested"]:
        print(
            f"[sweep] --jobs {stats['jobs_requested']} clamped to "
            f"{stats['jobs']} usable cores (oversubscription only adds "
            f"pickling and contention)",
            file=sys.stderr,
        )
    print(
        f"[sweep] jobs={stats['jobs']} executed={stats['executed']} "
        f"cached={stats['served_from_cache']} "
        f"cache_hits={stats['cache']['hits']} "
        f"retried={stats['retried']} failed={stats['failed']} "
        f"corrupt={stats['cache']['corrupt']}",
        file=sys.stderr,
    )
    journal_stats = None
    if runner.journal is not None:
        # Resumed = journaled-done cells the checkpoint actually served; a
        # damaged (quarantined) or missing checkpoint re-executes instead.
        runner.journal.resumed = sum(
            1 for res in results if res.cached and res.key in journaled_done
        )
        journal_stats = runner.journal.stats
        print(
            f"[sweep] journal={journal_stats['directory']} "
            f"resumed={journal_stats['resumed']} "
            f"recorded_done={journal_stats['recorded_done']} "
            f"recorded_failed={journal_stats['recorded_failed']} "
            f"total_done={journal_stats['total_done']}",
            file=sys.stderr,
        )
    print(_sweep_stats_table(stats, journal_stats).render(), file=sys.stderr)
    if args.stats_json:
        write_json({
            "schema": "repro.sweep_stats/1",
            "runner": stats,
            "journal": journal_stats,
        }, args.stats_json)
    return 3 if stats["failed"] else 0


def _grid_output(
    args, command, excludes, unit, task, n_cells, rows, failures, payloads,
) -> None:
    """The output of a grid run, shared by ``sweep`` and ``submit``.

    ``--trace-out`` gets the merged trace of the successful cells and
    ``--emit-json`` one ``repro.run_report/1`` built the same way for
    both commands (``excludes`` names the arguments left out of its
    ``params``), which is what lets a submit report diff at threshold 0
    against the serial sweep of the same grid.  Unless the report went
    to stdout, the grid table and a failures table follow, counting
    ``unit``.
    """
    from .exec import merge_metrics, merge_trace_events, read_params, write_merged_trace

    if args.trace_out or args.emit_json:
        events = merge_trace_events(payloads)
    if args.trace_out:
        write_merged_trace(events, args.trace_out)
    if args.emit_json:
        report = RunReport(
            command=command,
            params={k: v for k, v in vars(args).items() if k not in excludes},
            result={
                "task": task,
                "n_cells": n_cells,
                "rows": rows,
                "n_failed": len(failures),
                "failures": failures,
            },
            metrics=merge_metrics(payloads).export(),
            trace_summary=summarize_trace(events),
        )
        if report.write(args.emit_json):
            return
    columns = _SWEEP_COLUMNS[task]
    t = Table([c if isinstance(c, str) else c[0] for c in columns] + ["cached"],
              title=f"{command} · {task} · {n_cells} {unit}")
    for row in rows:
        params = read_params(task, row["params"])
        t.add(*(params[c] if isinstance(c, str) else
                row[c[1]] if c[2] is None else round(row[c[1]], c[2])
                for c in columns), row["cached"])
    t.print()
    if failures:
        ft = Table(
            ["task", "error", "message", "attempts"],
            title=f"failed {unit} · {len(failures)}",
        )
        for f in failures:
            err = f.get("error") or {}
            ft.add(
                task, err.get("type"),
                str(err.get("message", ""))[:60], f.get("attempts"),
            )
        ft.print()


def _sweep_stats_table(stats: dict, journal_stats: dict | None = None) -> Table:
    """The aligned execution/resilience/cache counter table for stderr.

    Complements (does not replace) the grep-friendly ``[sweep] key=value``
    one-liners: scripts and CI parse those, humans read this.
    """
    t = Table(["counter", "value"], title="sweep stats")
    t.add("jobs (effective)", stats["jobs"])
    t.add("jobs (requested)", stats["jobs_requested"])
    t.add("cells executed", stats["executed"])
    t.add("cells from cache", stats["served_from_cache"])
    t.add("cells failed", stats["failed"])
    t.add("retries", stats["retried"])
    t.add("timeouts", stats["timeouts"])
    t.add("pool rebuilds", stats["pool_rebuilds"])
    backoff_max = stats.get("backoff_max")
    t.add("backoff cap (s)", "off" if backoff_max is None else backoff_max)
    t.add("backoff slept (s)", stats.get("backoff_slept", 0))
    t.add("backoff capped", stats.get("backoff_capped", 0))
    cache = stats["cache"]
    t.add("cache hits", cache["hits"])
    t.add("cache misses", cache["misses"])
    t.add("cache stores", cache["stores"])
    t.add("cache corrupt", cache["corrupt"])
    io_plan = stats.get("io_plan")
    if io_plan and any(io_plan.values()):
        t.add("plan write rounds fused", io_plan["deferred_write_rounds"])
        t.add("plan write flushes", io_plan["write_flushes"])
        t.add("plan max flush blocks", io_plan["max_write_flush_blocks"])
        t.add("plan read rounds gathered", io_plan["prefetched_read_rounds"])
        t.add("plan read gathers", io_plan["read_gathers"])
        t.add("plan max gather blocks", io_plan["max_read_gather_blocks"])
    memory = stats.get("memory")
    if memory and any(memory.values()):
        t.add("mem high-water blocks", memory.get("high_water_blocks", 0))
        t.add("mem slab bytes", memory.get("slab_bytes", 0))
        t.add("mem slab grow events", memory.get("grow_events", 0))
        t.add("mem ledger high-water records",
              memory.get("ledger_high_water_records", 0))
        t.add("mem peak RSS kB", memory.get("peak_rss_kb", 0))
    if journal_stats is not None:
        t.add("journal resumed", journal_stats["resumed"])
        t.add("journal recorded done", journal_stats["recorded_done"])
        t.add("journal recorded failed", journal_stats["recorded_failed"])
        t.add("journal total done", journal_stats["total_done"])
    return t


def cmd_serve(args) -> int:
    """Run the sort service until SIGTERM/SIGINT drains it.

    The exec layer behind ``repro sweep`` — runner, cache, retries,
    fault plans, journal — wrapped in the admission pipeline of
    :class:`~repro.serve.SortService`.  Exit codes: 0 after a clean
    drain, 2 on usage errors (bad fault plan, ``--resume`` without
    ``--journal``).
    """
    import asyncio
    import signal

    from .serve import FairShareScheduler, SortService

    make_runner = _exec_runner(args, "serve")
    if isinstance(make_runner, int):
        return make_runner
    obs = Observation(trace_path=args.trace_out)
    runner = make_runner(obs=obs, scheduler=FairShareScheduler())
    service = SortService(
        runner,
        host=args.host,
        port=args.port,
        queue_limit=args.queue,
        quota_burst=args.quota_burst,
        quota_rate=args.quota_rate,
        obs=obs,
        log_path=args.log,
        journal=runner.journal,
        resume=args.resume,
        drain_grace=args.drain_grace,
        hold=args.hold,
        port_file=args.port_file,
    )
    service.on_ready = lambda: print(
        f"[serve] listening on {service.host}:{service.port} "
        f"queue={args.queue} jobs={runner.jobs or 1} "
        f"quota={args.quota_burst or 'off'} "
        f"{'HOLD ' if args.hold else ''}"
        f"{'chaos ' if runner.fault_plan is not None else ''}"
        f"(SIGTERM drains; grace {args.drain_grace}s)",
        file=sys.stderr,
    )

    async def _serve() -> None:
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, service.request_drain)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        await service.run()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:  # pragma: no cover - signal handler races
        pass
    finally:
        runner.close()
    stats = service.stats()
    if service.resumed:
        print(f"[serve] resumed {service.resumed} journalled jobs", file=sys.stderr)
    c = stats["serve"]
    print(
        f"[serve] drained in {c['drain_seconds']}s: "
        f"admitted={c['admitted']} coalesced={c['coalesced']} "
        f"cache_hits={c['cache_hits']} shed={c['shed']} "
        f"quota_rejected={c['quota_rejected']} completed={c['completed']} "
        f"failed={c['failed']} cancelled={c['cancelled']} "
        f"pending={c['queue_depth']}",
        file=sys.stderr,
    )
    obs.close()
    if args.stats_json:
        write_json(stats, args.stats_json)
    return 0


def cmd_submit(args) -> int:
    """Submit a grid to a running service and print the sweep-shaped table.

    The result/metrics/trace sections of ``--emit-json`` are built
    exactly like ``repro sweep``'s, so a submit report diffs at
    threshold 0 against the serial sweep of the same grid (ignore
    ``command`` and ``*.cached``) — the service canary gate.  Exit
    codes: 0 all jobs done, 2 transport/usage errors (including a job
    shed beyond the retry budget), 3 when any job failed.
    """
    from .serve import Rejected, ServeClient, ServeError

    task, specs = _sweep_specs(args)
    client = ServeClient(
        host=args.host, port=args.port, tenant=args.tenant,
        timeout=max(args.wait_timeout, 10.0),
    )
    admitted: list[tuple] = []  # (spec, job id, disposition)
    rows = []
    failures = []
    ok_payloads = []
    dispositions = {"new": 0, "coalesced": 0, "cached": 0}
    try:
        client.connect()
        for spec in specs:
            resp = client.submit_admitted(
                spec.task, dict(spec.params), retries=args.submit_retries
            )
            job = resp["job"]
            dispositions[job.get("disposition", "new")] += 1
            admitted.append((spec, job["id"]))
        if args.no_wait:
            print(
                f"[submit] enqueued jobs={len(specs)} "
                f"new={dispositions['new']} "
                f"coalesced={dispositions['coalesced']} "
                f"cached={dispositions['cached']} (not waiting)",
                file=sys.stderr,
            )
            if args.stats_json:
                write_json({
                    "schema": "repro.submit_stats/1",
                    "client": {**client.counters,
                               "dispositions": dispositions, "failed": 0},
                    "serve": client.stats()["stats"],
                }, args.stats_json)
            return 0
        for spec, job_id in admitted:
            resp = client.wait(
                job_id, timeout=args.wait_timeout, include="payload"
            )
            job = resp.get("job", {})
            status = job.get("status")
            if status == "done":
                payload = job.get("payload") or {"result": job.get("result")}
                ok_payloads.append(payload)
                rows.append({
                    **payload["result"], "params": dict(spec.params),
                    "cached": bool(job.get("cached")),
                })
            elif status == "failed":
                failure = job.get("failure", {})
                failures.append({
                    "params": dict(spec.params),
                    "error": job.get("error"),
                    "attempts": failure.get("attempts"),
                    "key": job_id,
                })
            else:
                failures.append({
                    "params": dict(spec.params),
                    "error": {
                        "type": "Incomplete",
                        "message": f"job {status} after {args.wait_timeout}s wait",
                    },
                    "attempts": job.get("attempts"),
                    "key": job_id,
                })
        stats_doc = client.stats()["stats"] if args.stats_json else None
    except (ServeError, Rejected) as exc:
        print(f"[submit] error: {exc}", file=sys.stderr)
        return 2
    finally:
        client.close()

    _grid_output(
        args, "submit", _SUBMIT_PARAM_EXCLUDES, "jobs",
        task, len(specs), rows, failures, ok_payloads,
    )
    print(
        f"[submit] jobs={len(specs)} new={dispositions['new']} "
        f"coalesced={dispositions['coalesced']} cached={dispositions['cached']} "
        f"reject_retries={client.counters['reject_retries']} "
        f"failed={len(failures)}",
        file=sys.stderr,
    )
    if args.stats_json:
        write_json({
            "schema": "repro.submit_stats/1",
            "client": {**client.counters, "dispositions": dispositions,
                       "failed": len(failures)},
            "serve": stats_doc,
        }, args.stats_json)
    return 3 if failures else 0


def cmd_report(args) -> int:
    """Summarize a saved JSONL trace: phases, balance timeline, stripes."""
    summary = summarize_trace(args.trace)
    report = {
        "schema": "repro.trace_summary/1",
        "command": "report",
        "trace": args.trace,
        **summary,
    }
    if args.emit_json and write_json(report, args.emit_json):
        return 0
    tables = render_report(report)
    if not tables:
        print(f"{args.trace}: {summary['n_events']} events, no phase spans")
        return 0
    for t in tables:
        t.print()
        print()
    return 0


def cmd_audit(args) -> int:
    """Run a sort under the TheoryAuditor and score it against the bounds.

    The engine's own ``check_invariants`` raising is disabled — the
    auditor *observes* instead, checking Invariants 1 & 2 and the Theorem
    4 balance factor after every matching round without aborting the run.
    Exit code 0 iff every limited check passed with zero violations.
    """
    obs = _make_obs(args) or Observation()
    auditor = TheoryAuditor(theorem4_limit=args.theorem4_limit).install(obs)
    task, (r,) = _run(args, obs)
    report = auditor.report
    measure = "parallel_ios" if task == "sort_pdm" else "total_time"
    result = {
        "records": r["records"], "workload": args.workload,
        measure: r[measure], "verified": r["verified"],
    }
    if _emit(args, obs, "audit", result):
        for t in report.tables():
            t.print()
            print()
        verdict = "PASS" if report.ok else "FAIL"
        print(f"audit: {verdict} ({len(report.violations)} violations, "
              f"{report.rounds_checked} rounds checked)")
    return 0 if report.ok else 1


def cmd_profile(args) -> int:
    """Profile a saved trace: hotspots, critical path, I/O attribution."""
    from .obs import load_doc

    memory = None
    if args.memory:
        doc = load_doc(args.memory)
        if doc.get("schema") in ("repro.sweep_stats/1", "repro.serve_stats/1"):
            # A sweep or serve --stats-json dump: the gauges live under runner.
            memory = (doc.get("runner") or {}).get("memory")
        else:
            memory = doc
        if not memory or not any(memory.values()):
            print(f"[profile] {args.memory} holds no memory gauges",
                  file=sys.stderr)
            memory = None
    profile = profile_trace(args.trace, top=args.top, bins=args.bins,
                            memory=memory)
    if args.emit_json and write_json(profile, args.emit_json):
        return 0
    for t in render_profile(profile):
        t.print()
        print()
    return 0


def cmd_diff(args) -> int:
    """Diff two JSON run documents; exit 1 when a path regresses."""
    rules = []
    for spec in args.rule:
        pattern, _, threshold = spec.rpartition("=")
        try:
            value = float(threshold)
        except ValueError:
            value = None
        if not pattern or value is None:
            print(f"bad --rule {spec!r} (expected PATTERN=THRESHOLD)",
                  file=sys.stderr)
            return 2
        rules.append((pattern, value))
    result = diff_runs(
        args.a, args.b, threshold=args.threshold, rules=rules,
        ignore=args.ignore, strict=args.strict,
    )
    if not (args.emit_json and write_json(result.to_dict(), args.emit_json)):
        tables = result.tables()
        for t in tables:
            t.print()
            print()
        verdict = "OK" if result.ok else "REGRESSION"
        print(f"diff: {verdict} ({result.n_compared} paths compared, "
              f"{len(result.regressions)} regressions, "
              f"{len(result.changes)} changes, "
              f"threshold {args.threshold})")
    return 0 if result.ok else 1


def cmd_top(args) -> int:
    """Inspect (or tail) a ``repro.progress/1`` telemetry stream.

    The default is a snapshot: aggregate whatever the stream holds —
    including the remains of a SIGKILLed sweep; a torn final line is
    forgiven like the journal's — into summary + running-cell tables.
    ``--follow`` keeps polling until the stream records ``sweep_end``.
    """
    import os
    import time as _time

    from .obs.telemetry import (
        aggregate_progress,
        progress_tables,
        read_telemetry,
        render_progress_line,
    )
    from .obs.tracer import reading

    if not os.path.exists(args.telemetry):
        print(f"[top] no telemetry file at {args.telemetry}", file=sys.stderr)
        return 2
    if args.follow:
        last = ""
        while True:
            with reading(args.telemetry):
                state = aggregate_progress(read_telemetry(args.telemetry))
                line = render_progress_line(state)
            if line != last:
                print(line, flush=True)
                last = line
            if state["finished"]:
                return 0
            _time.sleep(args.interval)
    events = read_telemetry(args.telemetry)
    if not events:
        print(f"[top] {args.telemetry} is empty", file=sys.stderr)
        return 0
    with reading(args.telemetry):  # an ill-typed field names the file
        state = aggregate_progress(events)
        tables = progress_tables(state)
        line = render_progress_line(state)
    for t in tables:
        t.print()
        print()
    print(line)
    return 0


def cmd_export_trace(args) -> int:
    """Convert a saved trace to Chrome trace-event / Perfetto JSON."""
    from .obs import write_chrome_trace

    out = args.out
    if out is None:
        stem = args.trace
        for suffix in (".gz", ".jsonl"):
            if stem.endswith(suffix):
                stem = stem[: -len(suffix)]
        out = stem + ".perfetto.json"
    doc = write_chrome_trace(
        args.trace, out, counter_every=args.counter_every
    )
    other = doc["otherData"]
    print(
        f"wrote {out} ({len(doc['traceEvents'])} traceEvents from "
        f"{other['events']} records, clock={other['clock']}) — open in "
        f"ui.perfetto.dev"
    )
    return 0


def _current_commit(explicit: str | None) -> str:
    """Best-effort commit id for a ledger point (never fails the record)."""
    import os
    import subprocess

    if explicit:
        return explicit
    env = os.environ.get("GITHUB_SHA", "")
    if env:
        return env[:12]
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        if head.returncode == 0:
            return head.stdout.strip()[:12]
    except Exception:  # noqa: BLE001 - provenance only, never fatal
        pass
    return "unknown"


def cmd_bench(args) -> int:
    """Dispatch ``repro bench record`` / ``repro bench compare``."""
    import time as _time

    from .obs.ledger import BenchLedger, compare_entries, make_entry
    from .resilience import grid_fingerprint
    from .util import host_key

    if args.bench_command == "record":
        from .exec import JobRunner

        task, specs = _sweep_specs(args)
        keys = [spec.fingerprint() for spec in specs]
        reps = args.min_of
        seconds = None
        runner = None
        for rep in range(reps):
            # No cache on purpose: a trajectory point is an honest, fresh
            # wall-clock measurement of every cell, every repetition.
            runner = JobRunner(jobs=args.jobs)
            t0 = _time.perf_counter()
            results = runner.map(specs)
            elapsed = _time.perf_counter() - t0
            failed = [r for r in results if r.failed]
            if failed:
                print(
                    f"[bench] {len(failed)} cell(s) failed"
                    + (f" (rep {rep + 1}/{reps})" if reps > 1 else "")
                    + "; not recording a ledger point",
                    file=sys.stderr,
                )
                return 3
            seconds = elapsed if seconds is None else min(seconds, elapsed)
        records = sum(spec.params["n"] for spec in specs)
        entry = make_entry(
            args.series,
            seconds,
            records,
            grid=grid_fingerprint(keys),
            cells=len(specs),
            cache=runner.stats["cache"],
            commit=_current_commit(args.commit),
            notes=args.notes,
            min_of=reps,
        )
        BenchLedger(args.ledger).append(entry)
        t = Table(["field", "value"], title=f"bench point · {args.series}")
        t.add("task", task)
        t.add("cells", entry["cells"])
        t.add("grid", entry["grid"])
        t.add("records", entry["records"])
        t.add("seconds", entry["seconds"])
        t.add("min of", entry["min_of"])
        t.add("records/sec", entry["records_per_sec"])
        t.add("commit", entry["commit"])
        t.add("host key", entry["host_key"])
        t.add("ledger", args.ledger)
        t.print()
        return 0

    if args.bench_command == "list":
        ledger = BenchLedger(args.ledger)
        groups: dict[tuple, list[dict]] = {}
        for entry in ledger.read():
            gk = (
                entry.get("series", "?"),
                entry.get("host_key", "?"),
                int(entry.get("min_of", 1) or 1),
            )
            groups.setdefault(gk, []).append(entry)
        rows = []
        for (series, hk, min_of), entries in sorted(groups.items()):
            latest = entries[-1]
            rows.append({
                "series": series,
                "host_key": hk,
                "min_of": min_of,
                "points": len(entries),
                "latest_seconds": latest.get("seconds"),
                "latest_records_per_sec": latest.get("records_per_sec"),
                "latest_us_per_record": latest.get("us_per_record"),
                "latest_commit": latest.get("commit"),
            })
        doc = {"schema": "repro.bench_list/1", "ledger": args.ledger,
               "groups": rows}
        if not (args.emit_json and write_json(doc, args.emit_json)):
            t = Table(
                ["series", "host", "min of", "points", "latest s",
                 "rec/s", "µs/rec", "commit"],
                title=f"bench ledger · {args.ledger}",
            )
            for r in rows:
                t.add(
                    r["series"], r["host_key"], r["min_of"], r["points"],
                    r["latest_seconds"], r["latest_records_per_sec"],
                    r["latest_us_per_record"], r["latest_commit"],
                )
            t.print()
            if not rows:
                print(f"[bench] {args.ledger} holds no points",
                      file=sys.stderr)
        return 0

    # bench compare
    ledger = BenchLedger(args.ledger)
    key = args.host_key or host_key()
    latest = ledger.latest(args.series, key)
    if latest is None:
        print(
            f"[bench] no points for series {args.series!r} on host {key} "
            f"in {args.ledger}; nothing to gate",
            file=sys.stderr,
        )
        return 0
    baseline = ledger.baseline(
        args.series, key, min_of=latest.get("min_of", 1)
    )
    if baseline is None:
        print(
            f"[bench] series {args.series!r} on host {key} has a single "
            f"point of its methodology (commit {latest.get('commit')}, "
            f"min_of {latest.get('min_of', 1)}); no baseline yet",
            file=sys.stderr,
        )
        return 0
    try:
        result = compare_entries(baseline, latest, threshold=args.threshold)
    except ValueError as exc:
        # The methodology-aware baseline above should make this
        # unreachable for min_of; grid/series drift still lands here.
        print(f"[bench] refusing to gate: {exc}", file=sys.stderr)
        return 2
    for t in result.tables():
        t.print()
        print()
    verdict = "OK" if result.ok else "REGRESSION"
    # min_of and host_key are identical across the two points by
    # construction (compare_entries refuses to gate across them).
    print(
        f"bench compare: {verdict} ({args.series} @ {latest.get('commit')} "
        f"vs {baseline.get('commit')}: {baseline.get('seconds')}s -> "
        f"{latest.get('seconds')}s, min_of={latest.get('min_of', 1)}, "
        f"host={latest.get('host_key', '?')}, threshold {args.threshold})"
    )
    if not result.ok and getattr(args, "attribute", False):
        _bench_attribute(args, baseline, latest)
    return 0 if result.ok else 1


def _bench_attribute(args, baseline: dict, latest: dict) -> None:
    """Best-effort attribution of a failed gate from the history index.

    Looks the two ledger commits up in the run-history index (profiles
    preferred, reports accepted) and prints the ranked attribution; a
    missing index or missing runs degrade to a pointer, never an error —
    the gate's exit code is the compare's, not the attribution's.
    """
    from .obs import RunHistory, attribute_runs, render_attrib

    history = RunHistory(args.history)

    def _find_run(commit: str):
        for kind in ("profile", "report"):
            records = history.records(kind=kind, commit=commit or None)
            if records:
                return records[-1]
        return None

    rec_a = _find_run(baseline.get("commit", ""))
    rec_b = _find_run(latest.get("commit", ""))
    if rec_a is None or rec_b is None:
        missing = [
            c for c, r in (
                (baseline.get("commit"), rec_a), (latest.get("commit"), rec_b),
            ) if r is None
        ]
        print(
            f"[bench] no indexed profile/report for commit(s) "
            f"{', '.join(str(c) for c in missing)} in {args.history}; "
            "ingest run artifacts with `repro history ingest --commit ...` "
            "to enable attribution",
            file=sys.stderr,
        )
        return
    attrib = attribute_runs(
        history.load_artifact(rec_a), history.load_artifact(rec_b),
        a_meta=rec_a, b_meta=rec_b, top=10,
    )
    print("attribution (from run-history index):")
    for t in render_attrib(attrib):
        t.print()
        print()
    for finding in attrib["findings"]:
        print(f"  - {finding}")


def cmd_history(args) -> int:
    """Dispatch ``repro history ingest|list|show|query``."""
    import json

    from .obs import RunHistory

    history = RunHistory(args.history)

    if args.history_command == "ingest":
        config = {}
        for spec in args.config:
            key, sep, value = spec.partition("=")
            if not sep or not key:
                print(f"bad --config {spec!r} (expected KEY=VALUE)",
                      file=sys.stderr)
                return 2
            config[key] = value
        new = dup = 0
        for path in args.paths:
            try:
                records = history.ingest_path(
                    path, commit=args.commit, series=args.series,
                    config=config, require_version=args.require_version,
                )
            except (ValueError, OSError) as exc:
                print(f"[history] error ingesting {path}: {exc}",
                      file=sys.stderr)
                return 2
            for record in records:
                if record.get("duplicate"):
                    dup += 1
                else:
                    new += 1
                    print(f"indexed {record['id']} ({record['kind']}) "
                          f"from {path}")
        stats = history.stats
        print(
            f"[history] {new} new, {dup} duplicate; index now holds "
            f"{stats['records']} records in {args.history}",
            file=sys.stderr,
        )
        return 0

    if args.history_command == "list":
        records = history.records(kind=args.kind, limit=args.limit)
        t = Table(
            ["id", "kind", "commit", "series", "host", "summary"],
            title=f"run history · {args.history}",
        )
        for r in records:
            summary = r.get("summary") or {}
            brief = ", ".join(
                f"{k}={summary[k]}" for k in list(summary)[:3]
            )
            t.add(
                r["id"], r["kind"], r.get("commit") or "-",
                r.get("series") or "-", r.get("host_key") or "-",
                brief[:48],
            )
        t.print()
        if not records:
            print(f"[history] no records in {args.history}", file=sys.stderr)
        return 0

    if args.history_command == "show":
        try:
            record = history.get(args.id)
        except KeyError as exc:
            print(f"[history] {exc.args[0]}", file=sys.stderr)
            return 2
        print(json.dumps(
            {"record": record, "artifact": history.load_artifact(record)},
            indent=2,
        ))
        return 0

    # query
    records = history.records(
        kind=args.kind, series=args.series, commit=args.commit,
        host_key=args.host_key, limit=args.limit,
    )
    doc = {
        "schema": "repro.run_index_query/1",
        "root": args.history,
        "n": len(records),
        "records": records,
    }
    write_json(doc, args.emit_json)
    return 0


def _resolve_attrib_input(history, ref: str, label: str):
    """(doc, meta) for one ``repro attribute`` operand.

    A path wins over an id: report/profile JSON loads directly, anything
    line-oriented is treated as a trace and profiled on the fly.  Ids
    (unique prefixes accepted) resolve through the history index.
    """
    import json
    import os

    if os.path.exists(ref):
        with open(ref, "rb") as fh:
            head = fh.read(2)
        if head[:2] == b"\x1f\x8b":  # gzip: a trace for sure
            return profile_trace(ref), {"source": ref}
        with open(ref, encoding="utf-8") as fh:
            first_line = fh.readline()
            try:
                doc = json.loads(first_line + fh.read())
            except json.JSONDecodeError:
                doc = None
        if isinstance(doc, dict) and doc.get("schema"):
            return doc, {"source": ref}
        try:
            first = json.loads(first_line)
        except json.JSONDecodeError:
            first = None
        if isinstance(first, dict) and "ev" in first:
            return profile_trace(ref), {"source": ref}
        raise ValueError(
            f"{label} ({ref}): not a schema-stamped JSON document or trace"
        )
    record = history.get(ref)  # KeyError with a useful message on miss
    return history.load_artifact(record), record


def cmd_attribute(args) -> int:
    """Attribute a perf delta between two runs, ranked by |Δ self time|."""
    from .obs import RunHistory, attribute_runs, render_attrib

    history = RunHistory(args.history)
    try:
        a_doc, a_meta = _resolve_attrib_input(history, args.a, "run A")
        b_doc, b_meta = _resolve_attrib_input(history, args.b, "run B")
        attrib = attribute_runs(
            a_doc, b_doc, a_meta=a_meta, b_meta=b_meta, top=args.top
        )
    except (KeyError, ValueError) as exc:
        print(f"[attribute] error: {exc.args[0]}", file=sys.stderr)
        return 2
    if not (args.emit_json and write_json(attrib, args.emit_json)):
        for t in render_attrib(attrib):
            t.print()
            print()
        for finding in attrib["findings"]:
            print(f"  - {finding}")
        if not attrib["findings"]:
            total = attrib["total"]
            print(f"no finding above the noise floor "
                  f"(total {total['a_s']}s -> {total['b_s']}s)")
    return 0


def cmd_dashboard(args) -> int:
    """Render the history index as one self-contained HTML page."""
    from .obs import RunHistory, render_dashboard

    history = RunHistory(args.history)
    html = render_dashboard(history, title=args.title)
    if args.out == "-":
        print(html, end="")
        return 0
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(html)
    stats = history.stats
    print(
        f"wrote {args.out} ({len(html)} bytes, self-contained) from "
        f"{stats['records']} indexed records in {args.history}"
    )
    return 0


def cmd_workloads(_args) -> int:
    """List the available workload generators with a sample."""
    t = Table(["name", "sample keys (n=6, seed=0)"], title="workload generators")
    for name in sorted(workloads.GENERATORS):
        sample = workloads.by_name(name, 6, seed=0)["key"]
        t.add(name, " ".join(str(int(k) % 10**6) for k in sample))
    t.print()
    return 0


def _run_spec(args) -> tuple[str, list[dict]]:
    """The ``(task, cells)`` a single run checks and then runs: one cell,
    or one per algorithm for ``compare``."""
    command = args.command
    if command == "audit":
        task = "hierarchy_sort" if args.target == "hierarchy" else "sort_pdm"
    else:
        task = _TASK_OF[command]
    cell = {param.name: value for _, param, _, value in _task_flags(args, command, task)}
    cell.update((k, v) for k, v in _OVERRIDES[command].items()
                if k in PARAMS[task] and k not in cell)
    if task == "compare_pdm":
        return task, [{"algorithm": a, **cell} for a in ALGORITHMS]
    return task, [cell]


def _usage_error(args) -> str | None:
    """The first thing a command cannot run with, as one line; else None:
    ``REPRO_PDM_CHECKSUMS`` set to a value no switch takes
    (:mod:`repro.util.env`), a runner, service, ``--bins``, ``--min-of``
    or ``top --interval`` value no run can use, a task flag the chosen
    task does not take, or a cell :func:`repro.exec.check_spec` refuses."""
    try:
        check_switches()
    except ParameterError as exc:
        return str(exc)
    bench_record = getattr(args, "bench_command", None) == "record"
    if args.command == "profile" and args.bins < 1:
        return f"--bins must be >= 1, got {args.bins}"
    if bench_record and args.min_of < 1:
        return f"--min-of must be >= 1, got {args.min_of}"
    if args.command == "top" and not args.interval > 0:
        return f"--interval must be > 0, got {args.interval}"
    try:
        if args.command in ("sweep", "serve"):
            from .exec import check_runner_options

            check_runner_options(args.retries, args.timeout, args.backoff,
                                 jobs=args.jobs)
        elif bench_record:
            from .exec import check_runner_options

            check_runner_options(jobs=args.jobs)
        if args.command == "serve":
            from .serve.service import check_service_options

            check_service_options(args.queue, args.quota_burst, args.quota_rate)
        if args.command in ("sort", "compare", "audit", "hierarchy"):
            task, cells = _run_spec(args)
        elif args.command in ("sweep", "submit") or bench_record:
            task, specs = _sweep_specs(args)
            cells = [spec.params for spec in specs]
        else:
            return None
        from .exec import check_spec

        for index, cell in enumerate(cells):
            try:
                check_spec(task, cell)
            except ParameterError as exc:
                shape = " ".join(f"{k}={v}" for k, v in cell.items())
                return f"cell {index} ({task} {shape}): {exc}"
    except ParameterError as exc:
        return str(exc)
    return None


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    error = _usage_error(args)
    if error is not None:
        print(f"repro: error: {error}", file=sys.stderr)
        return 2
    handler = {
        "sort": cmd_sort,
        "compare": cmd_compare,
        "hierarchy": cmd_hierarchy,
        "sweep": cmd_sweep,
        "serve": cmd_serve,
        "submit": cmd_submit,
        "report": cmd_report,
        "audit": cmd_audit,
        "profile": cmd_profile,
        "diff": cmd_diff,
        "top": cmd_top,
        "export-trace": cmd_export_trace,
        "bench": cmd_bench,
        "history": cmd_history,
        "attribute": cmd_attribute,
        "dashboard": cmd_dashboard,
        "workloads": cmd_workloads,
    }[args.command]
    try:
        return handler(args)
    except InputError as exc:  # a file an offline reader cannot read
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
