"""The repo's benchmark: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload e1-grid --seed 1 --seconds 30 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

* ``e1-grid``     the Theorem-1 grid through ``ParallelRunner`` (batch);
* ``skew-chaos``  adversarial keys, general matching, a seeded fault plan
                  with retries (batch);
* ``serve-mixed`` a 2-connection closed loop against ``repro serve``.

Each repetition runs in its own process (``perfbench/worker.py``), so
set-up and peak memory are measured per repetition.  ``--trace 0``
repeats the workload until ``--seconds`` would be exceeded (at least
twice) and reports the end-to-end metrics; ``--trace 1`` runs it once
untraced and once with the layer wrappers of ``perfbench/layers.py`` and
reports the per-layer metrics.  Every output is checked; the command
prints a metric table, the run's configuration stamp and, as its last
line, ``{"correct", "attempted", "failed", "metrics"}``.  It exits 1 if
any correctness or determinism gate fails and 2 on a usage error or
when the ``repro`` sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

from layers import TIME_BUCKETS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("e1-grid", "skew-chaos", "serve-mixed")
MIN_REPS = 2
MAX_REPS = 20
#: Hard wall-clock budget for the whole command, in seconds.
DEADLINE_S = 170.0
#: Untimed served-vs-``run_task`` check of serve-mixed: every k-th distinct
#: spec in the first repetition of a ``--trace 0`` run (8 of 88), every
#: spec in the traced repetition.
CHECK_EVERY = 11


def declared(section: str) -> dict:
    """``{name: unit}`` of one metric section of ``BENCHMARK.json``."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


END_TO_END = declared("end_to_end")
PER_LAYER = declared("per_layer")


class Gates:
    """Failed jobs and failed run-level checks, with a message for each."""

    def __init__(self):
        self.failed_jobs = 0
        self.errors: list[str] = []

    def job(self, message: str) -> None:
        self.failed_jobs += 1
        self.errors.append(message)

    def run(self, message: str) -> None:
        self.errors.append(message)

    @property
    def failed(self) -> int:
        # A failed run-level check with no failed job still counts once.
        return self.failed_jobs or (1 if self.errors else 0)


# ------------------------------------------------------------- repetitions


def spawn(args, rep: int, traced: bool, check: int, deadline: float) -> dict:
    """Run one repetition in a fresh process; returns its record."""
    scratch = os.path.join(STATE, "tmp", f"{os.getpid()}-{rep}")
    os.makedirs(scratch, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    req = {
        "workload": args.workload, "seed": args.seed, "traced": traced,
        "check": check, "scratch": scratch,
    }
    started = time.monotonic()
    req["spawned"] = started
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(req)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        cwd=ROOT, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"repetition {rep} exceeded the time budget")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"repetition {rep} exited with {proc.returncode}:\n{err}")
    rec = json.loads(out.strip().splitlines()[-1])
    rec["duration_s"] = time.monotonic() - started
    return rec


def run_reps(args) -> list[dict]:
    started = time.monotonic()
    deadline = started + DEADLINE_S
    serve = args.workload == "serve-mixed"
    if args.trace:
        return [
            spawn(args, 0, traced=False, check=0, deadline=deadline),
            spawn(args, 1, traced=True, check=1 if serve else 0, deadline=deadline),
        ]
    reps: list[dict] = []
    while True:
        check = CHECK_EVERY if serve and not reps else 0
        reps.append(spawn(args, len(reps), False, check, deadline))
        elapsed = time.monotonic() - started
        # The untimed check runs once; the next repetition will not repeat it.
        longest = max(rep["duration_s"] - rep.get("check_s", 0.0) for rep in reps)
        if len(reps) >= MAX_REPS or (
            len(reps) >= MIN_REPS and elapsed + longest > args.seconds
        ):
            return reps


# ------------------------------------------------------------------ checks


def distinct(rep: dict) -> dict:
    """Successful jobs by spec fingerprint (the first of each)."""
    out: dict = {}
    for job in rep["jobs"]:
        if not job["failed"]:
            out.setdefault(job["key"], job)
    return out


def counts(rep: dict) -> dict:
    """The exact counts that must repeat across repetitions and runs."""
    jobs = distinct(rep)
    results = [job["result"] for job in jobs.values()]
    out = {
        "parallel_ios": sum(r["parallel_ios"] for r in results),
        "io_ratio_max": max((r["ratio"] for r in results), default=0.0),
        "cpu_ratio_max": max((job["cpu_ratio"] for job in jobs.values()), default=0.0),
        "match_calls": sum(r["match_calls"] for r in results),
        "resilience.retries": rep["retries"],
    }
    facts = rep["facts"]
    if jobs and all(key in facts for key in jobs):
        out["core.balance.rounds"] = sum(facts[key]["rounds"] for key in jobs)
    if "layers" in rep:
        out["core.matching.calls"] = rep["layers"]["counts"].get("core.matching.calls", 0)
    return out


def check_jobs(reps: list[dict], gates: Gates) -> None:
    """Per-job gates plus result identity across repetitions."""
    seen: dict = {}
    for r, rep in enumerate(reps):
        for job in rep["jobs"]:
            label = f"rep {r} job {job.get('key', '?')[:12]}"
            if job["failed"]:
                gates.job(f"{label}: failed: {job.get('error')}")
                continue
            result = job["result"]
            if result.get("verified") is not True:
                gates.job(f"{label}: output not verified")
            elif result["balance_factor"] > 2.0:
                gates.job(f"{label}: balance factor {result['balance_factor']} > 2")
            elif job.get("matches_run_task") is False:
                gates.job(f"{label}: served result differs from run_task")
            elif seen.setdefault(job["key"], result) != result:
                gates.job(f"{label}: result differs from an earlier repetition")
        jobs = distinct(rep)
        for key, facts in rep["facts"].items():
            gauge = facts.get("cpu_gauge")
            job = jobs.get(key)
            if job is not None and gauge is not None and gauge != job["cpu_ratio"]:
                gates.run(f"rep {r}: cpu ratio {job['cpu_ratio']} != audit gauge {gauge}")


def check_overhead(rep: dict, gates: Gates) -> None:
    """The obs-overhead cell ran fault-free and untraced: same result."""
    extra = rep["overhead"]
    job = distinct(rep).get(extra["key"])
    if job is None or extra["result"] != job["result"]:
        gates.run("obs-overhead cell: run_task result differs from the workload's")
    elif extra["plain_ios"] != job["result"]["parallel_ios"]:
        gates.run("obs-overhead cell: balance_sort_pdm(obs=None) I/O count differs")


def check_counts(args, reps: list[dict], stamp: dict, gates: Gates) -> dict:
    """Counts must repeat exactly across repetitions and across runs of the
    same configuration (sources, kernel backend, ``REPRO_*`` variables)."""
    merged: dict = {}
    for r, rep in enumerate(reps):
        for name, value in counts(rep).items():
            if merged.setdefault(name, value) != value:
                gates.run(f"determinism: {name} is {value} in rep {r}, "
                          f"{merged[name]} before")
    config = {k: stamp[k] for k in ("source_sha256", "bench_sha256",
                                    "kernel_backend", "repro_env")}
    digest = hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()
    path = os.path.join(STATE, "counts",
                        f"{args.workload}-seed{args.seed}-{digest[:16]}.json")
    try:
        with open(path) as fh:
            earlier = json.load(fh)
    except FileNotFoundError:
        earlier = {}
    for name, value in merged.items():
        if name in earlier and earlier[name] != value:
            gates.run(f"determinism: {name} is {value}, an earlier run had "
                      f"{earlier[name]}")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w") as fh:
        json.dump({**merged, **earlier}, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return merged


def check_stamps(reps: list[dict], gates: Gates) -> dict:
    first = reps[0]["stamp"]
    for r, rep in enumerate(reps[1:], 1):
        if rep["stamp"] != first:
            gates.run(f"configuration differs between rep 0 and rep {r}")
    return first


def check_paths(args, reps: list[dict], merged: dict) -> list[str]:
    """Is each workload on the path it was chosen for?  (Reported only.)"""
    notes = []
    batch = [rep for rep in reps if "io_plan" in rep]
    fused = sum(rep["io_plan"]["deferred_write_rounds"] for rep in batch)
    calls = merged.get("core.matching.calls")
    if args.workload == "e1-grid":
        notes.append(f"path: fused I/O plans on: {fused > 0}")
        if calls is not None:
            notes.append(f"path: core.matching.calls == 0: {calls == 0}")
    elif args.workload == "skew-chaos":
        notes.append(f"path: I/O plans off (classic store path): {fused == 0}")
        notes.append(f"path: retried cells: {merged['resilience.retries'] > 0}")
        if calls is not None:
            notes.append(f"path: core.matching.calls > 0: {calls > 0}")
    return notes


# ----------------------------------------------------------------- metrics


def pct(values: list[float], q: int) -> float:
    """The ``q``-th percentile (inclusive method; one value is itself)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def job_latencies(reps: list[dict], serve: bool) -> list[float]:
    """Per-job latencies: every served job, or each cell's median over reps."""
    if serve:
        return [job["latency_ms"] for rep in reps for job in rep["jobs"]
                if "latency_ms" in job]
    return [statistics.median(cell) for cell in zip(*(rep["latencies_ms"] for rep in reps))]


def end_to_end(args, reps: list[dict], merged: dict) -> dict:
    latencies = job_latencies(reps, args.workload == "serve-mixed")
    return {
        "setup_s": statistics.median(rep["setup_s"] for rep in reps),
        "wall_s": statistics.median(rep["wall_s"] for rep in reps),
        "latency_p50_ms": pct(latencies, 50),
        "latency_p90_ms": pct(latencies, 90),
        "parallel_ios": merged["parallel_ios"],
        "io_ratio_max": merged["io_ratio_max"],
        "cpu_ratio_max": merged["cpu_ratio_max"],
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
    }


def per_layer(args, plain: dict, traced: dict) -> dict:
    seconds = traced["layers"]["seconds"]
    tally = traced["layers"]["counts"]
    jobs = distinct(traced)
    results = [job["result"] for job in jobs.values()]
    facts = [traced["facts"][key] for key in jobs if key in traced["facts"]]
    io = [r["io"] for r in results]
    write_ios = sum(x["write_ios"] for x in io)
    rounds = tally.get("core.balance.rounds", 0)
    attempts = tally.get("exec.attempts", 0)
    store_calls = tally.get("pdm.store.calls", 0)
    serve = args.workload == "serve-mixed"
    out = {name: seconds.get(name, 0.0) for name in TIME_BUCKETS}
    out.update({
        "core.balance.rounds": rounds,
        "core.balance.us_per_round": (
            1e6 * seconds["core.balance.rounds_s"] / rounds if rounds else 0.0),
        "core.matching.calls": tally.get("core.matching.calls", 0),
        "pdm.machine.read_ios": sum(x["read_ios"] for x in io),
        "pdm.machine.write_ios": write_ios,
        "pdm.machine.write_width_fraction": (
            sum(x["full_width_writes"] for x in io) / write_ios if write_ios else 0.0),
        "pdm.store.calls": store_calls,
        "pdm.store.blocks_per_call": (
            tally.get("pdm.store.blocks", 0) / store_calls if store_calls else 0.0),
        "pram.work": sum(r["cpu_work"] for r in results),
        "obs.trace_events": sum(f["trace_events"] for f in facts),
        "obs.overhead_frac": traced["overhead"]["frac"],
        "exec.attempts": attempts,
        "exec.useful_fraction": len(jobs) / attempts if attempts else 0.0,
        "exec.payload_bytes": sum(f["payload_bytes"] for f in facts),
        "resilience.retries": traced["retries"],
        "resilience.faults_fired": tally.get("resilience.faults_fired", 0),
        "traced_wall_s": traced["traced_wall_s"],
        "untraced_wall_s": plain["wall_s"],
        "trace_overhead_s": traced["wall_s"] - plain["wall_s"],
    })
    served = [job for job in traced["jobs"] if "disposition" in job] if serve else []
    for disposition in ("new", "coalesced", "cached"):
        lat = [job["latency_ms"] for job in served if job["disposition"] == disposition]
        out[f"serve.{disposition}"] = len(lat)
        out[f"serve.{disposition}_ms"] = statistics.median(lat) if lat else 0.0
    out["serve.rejects"] = traced.get("rejects", 0)
    out["serve.response_bytes"] = sum(job.get("bytes", 0) for job in served)
    if serve:
        # The server's threads overlap and idle; the closing identity is
        # defined on the serial batch workloads only.
        out["unattributed_s"] = max(0.0, traced["traced_wall_s"] - sum(
            v for k, v in seconds.items() if k != "unattributed_s"))
    return out


def closing_check(per: dict, gates: Gates) -> str:
    total = sum(per[name] for name in TIME_BUCKETS)
    error = total - per["traced_wall_s"]
    if abs(error) > 1e-6 * max(1.0, per["traced_wall_s"]):
        gates.run(f"closing check: layer self times sum to {total:.6f} s, "
                  f"traced wall is {per['traced_wall_s']:.6f} s")
    return (f"closing: sum(layer self times incl. unattributed_s) = {total:.6f} s, "
            f"traced wall = {per['traced_wall_s']:.6f} s (error {error:+.2e} s)")


# -------------------------------------------------------------------- main


def tree_digest(top: str) -> str:
    """Digest of the ``.py`` and ``.c`` files under ``top``."""
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(top):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith((".py", ".c")):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, top).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()[:16]


def source_stamp() -> dict:
    commit = os.environ.get("GITHUB_SHA", "unknown")
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "commit": commit,
        "source_sha256": tree_digest(os.path.join(SRC, "repro")),
        "bench_sha256": tree_digest(HERE),
        "repro_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2

    try:
        reps = run_reps(args)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    gates = Gates()
    check_jobs(reps, gates)
    stamp = {**source_stamp(), **check_stamps(reps, gates)}
    merged = check_counts(args, reps, stamp, gates)
    notes = check_paths(args, reps, merged)

    if args.trace:
        check_overhead(reps[1], gates)
        metrics, units = per_layer(args, reps[0], reps[1]), PER_LAYER
        if args.workload != "serve-mixed":
            notes.append(closing_check(metrics, gates))
    else:
        metrics, units = end_to_end(args, reps, merged), END_TO_END
    # Report exactly the metrics BENCHMARK.json declares, in its order.
    metrics = {name: metrics[name] for name in units}
    attempted = sum(len(rep["jobs"]) for rep in reps)

    print(f"# {args.workload} seed={args.seed} trace={args.trace} reps={len(reps)} "
          f"jobs={attempted}")
    print(f"# stamp {json.dumps(stamp, sort_keys=True)}")
    print("# times are scaled by host speed (perfbench/worker.py: host_scale, "
          "SpeedTrack); traced_wall_s and layer self times are raw seconds")
    for name, value in metrics.items():
        print(f"{name:<34} {value:>16.6f} {units[name]}")
    print(f"{'failed_fraction':<34} {gates.failed / attempted:>16.6f} fraction")
    for note in notes:
        print(f"# {note}")
    for error in gates.errors:
        print(f"# FAILED: {error}")
    print(json.dumps({
        "correct": not gates.errors,
        "attempted": attempted,
        "failed": gates.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 1 if gates.errors else 0


if __name__ == "__main__":
    sys.exit(main())
