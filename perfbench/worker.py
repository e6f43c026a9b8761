"""One repetition of a benchmark workload, in a process of its own.

``perfbench/run.py`` starts one of these per repetition, so every
repetition pays (and measures) its own set-up and has its own peak RSS.
The single argument is a JSON object::

    {"workload": "e1-grid" | "skew-chaos" | "serve-mixed",
     "seed": int, "spawned": float, "traced": bool, "check": int,
     "scratch": str}

``spawned`` is the parent's ``time.monotonic()`` just before the spawn
(the clock is system-wide), ``traced`` installs the layer wrappers of
:mod:`layers`, a positive ``check`` k cross-checks the served results of
every k-th distinct spec against ``run_task`` of the same spec (0: none),
and ``scratch`` is a directory this repetition may write to.  The last line of standard output is the
repetition's JSON record.
"""

from __future__ import annotations

import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from time import perf_counter

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))

M, B = 512, 4
SERVE_JOBS = 160
#: Distinct specs among the submissions; the other 72 (45%) repeat one.
#: Fewer repeats than new specs keep the median job a fresh sort.
SERVE_NEW = 88
SERVE_SIZES = (2_000, 4_000, 8_000)


# --------------------------------------------------------------- workloads


def e1_grid_cells(seed: int) -> list[dict]:
    """The paper's Theorem-1 grid (the repo's historical e1-grid series)."""
    return [
        {"n": n, "memory": M, "block": B, "disks": d, "workload": "uniform",
         "seed": seed, "verify": True}
        for d in (4, 8, 16)
        for n in (4_000, 16_000, 64_000)
    ]


def skew_chaos_cells(seed: int) -> list[dict]:
    """Adversarial keys with D'=4, so rounds run the general matcher."""
    return [
        {"n": 32_000, "memory": M, "block": B, "disks": d, "workload": wl,
         "seed": seed, "virtual_disks": 4, "verify": True}
        for wl in ("adversarial_striping", "adversarial_bucket_skew")
        for d in (8, 16)
    ]


def skew_chaos_plan(seed: int):
    """Every cell's first attempt fails at its 65th parallel read.

    The corrupt-write rule makes the machines keep block checksums, and a
    store-watching plan turns fused I/O plans off: store traffic is the
    classic round-at-a-time path.  Both rules spare retried attempts.
    """
    from repro.resilience import FaultPlan, FaultRule

    return FaultPlan(
        seed=seed,
        name="skew-chaos",
        rules=(
            FaultRule(site="store.read", mode="transient", at=(64,)),
            FaultRule(site="store.write", mode="corrupt", rate=0.002, budget=1),
        ),
    ).validate()


def serve_jobs(seed: int) -> list[dict]:
    """160 submissions: 88 distinct specs, sizes in fixed proportion, and
    72 repeats of earlier specs.

    The order of sizes and repeats is the same for every seed, so which
    jobs meet in the queue does not change from seed to seed; the seed
    draws each spec's keys.
    """
    shape = random.Random(0)
    keys = random.Random(seed)
    sizes = [SERVE_SIZES[i % len(SERVE_SIZES)] for i in range(SERVE_NEW)]
    shape.shuffle(sizes)
    fresh = iter([
        {"n": n, "memory": M, "block": B, "disks": 4, "workload": "uniform",
         "seed": keys.randrange(1 << 30), "verify": True}
        for n in sizes
    ])
    later = [True] * (SERVE_NEW - 1) + [False] * (SERVE_JOBS - SERVE_NEW)
    shape.shuffle(later)
    jobs: list[dict] = []
    seen: list[dict] = []
    for is_new in [True] + later:
        if is_new:
            seen.append(next(fresh))
            jobs.append(seen[-1])
        else:
            jobs.append(shape.choice(seen))
    return jobs


# -------------------------------------------------------------- host speed

#: Nominal duration of one :func:`_reference_kernel` call, in seconds.
#: Reported times are scaled by ``REFERENCE_S / measured``: seconds on a
#: host where the kernel takes exactly this long.
REFERENCE_S = 0.001


def _reference_kernel() -> None:
    """Fixed interpreter + small-NumPy work, unrelated to ``repro``."""
    counts: dict = {}
    for i in range(5_000):
        counts[i & 1023] = counts.get(i & 1023, 0) + i
    arr = np.arange(4096)
    for _ in range(25):
        arr = arr[::-1].copy()


def _kernel_seconds() -> float:
    t = perf_counter()
    _reference_kernel()
    return perf_counter() - t


def host_scale(samples: int = 25) -> float:
    """``REFERENCE_S`` over the reference kernel's median time right now.

    The shared hosts this runs on change CPU speed by up to 2x within
    tens of seconds, so every reported time is scaled by the speed
    measured next to it.
    """
    return REFERENCE_S / statistics.median(_kernel_seconds() for _ in range(samples))


class SpeedTrack:
    """Samples the reference kernel every ``interval`` seconds (SIGALRM)
    while jobs run, so a job's time can be scaled by the host speed
    *during* the job.  The sampling costs about 4% of every job; under a
    layer tracer it is charged to its own ``perfbench.sampler_s`` bucket.
    """

    def __init__(self, interval: float = 0.025, tracer=None):
        self.interval = interval
        self.samples: list[tuple[float, float]] = []
        self._span = tracer.span if tracer is not None else (lambda _b: nullcontext())

    def _tick(self, _signum, _frame) -> None:
        with self._span("perfbench.sampler_s"):
            t = perf_counter()
            _reference_kernel()
            self.samples.append((t, perf_counter() - t))

    def __enter__(self) -> "SpeedTrack":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scale(self, t0: float, t1: float) -> float:
        """Scale for a job that ran over ``[t0, t1]`` (at least 20 samples,
        widened to the nearest ones for short jobs)."""
        mid = (t0 + t1) / 2
        inside = [s for t, s in self.samples if t0 <= t <= t1]
        if len(inside) < 20:
            nearest = sorted(self.samples, key=lambda ts: abs(ts[0] - mid))[:20]
            inside = [s for _, s in nearest]
        return REFERENCE_S / statistics.median(inside)


# ----------------------------------------------------------------- helpers


def _rss_mb(who: int) -> float:
    """Peak resident set of ``who`` (Linux reports ``ru_maxrss`` in KiB)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def cpu_ratio(result: dict, params: dict) -> float:
    """Theorem-1 CPU work ratio, computed like the audit gauge."""
    from repro.analysis.bounds import cpu_work_bound

    bound = cpu_work_bound(result["records"], int(params.get("processors", 1)))
    return round(result["cpu_work"] / bound, 4)


def payload_facts(payload: dict, with_bytes: bool) -> dict:
    """Counts read off one exec payload (all pure functions of the spec)."""
    trace = payload.get("trace", [])
    gauges = payload.get("metrics", {}).get("audit", {}).get("gauges", {})
    facts = {
        "cpu_gauge": gauges.get("theorem1.cpu_work.ratio", {}).get("value"),
        "rounds": sum(
            ev["attrs"].get("rounds", 0) for ev in trace
            if ev.get("ev") == "end" and ev.get("name") == "distribute"
        ),
        "trace_events": len(trace),
    }
    if with_bytes:
        facts["payload_bytes"] = len(json.dumps(payload, separators=(",", ":")))
    return facts


def obs_overhead(params: dict) -> dict:
    """Time one cell under ``run_task`` and as ``balance_sort_pdm(obs=None)``.

    Both sides build the same machine and keys and verify the output the
    same way; the difference is the observation, the audit and the
    payload.  Run with the layer wrappers removed.
    """
    from repro import workloads
    from repro.core.sort_pdm import balance_sort_pdm
    from repro.core.streams import peek_run
    from repro.exec import run_task
    from repro.pdm import ParallelDiskMachine
    from repro.util import assert_is_permutation, assert_sorted

    def under_run_task() -> dict:
        return run_task("sort_pdm", params)

    def bare():
        machine = ParallelDiskMachine(
            memory=params["memory"], block=params["block"], disks=params["disks"]
        )
        data = workloads.by_name(params["workload"], params["n"], seed=params["seed"])
        res = balance_sort_pdm(
            machine, data, virtual_disks=params.get("virtual_disks"),
            check_invariants=False,
        )
        out = peek_run(res.storage, res.output)
        assert_sorted(out)
        assert_is_permutation(out, data)
        return res

    def timed(fn):
        before = host_scale()
        t = perf_counter()
        value = fn()
        elapsed = perf_counter() - t
        return value, elapsed * (before + host_scale()) / 2

    # Small cells are timed several times; each side reports its median.
    rounds = 1 if params["n"] >= 32_000 else 5
    task_s, plain_s = [], []
    for _ in range(rounds):
        payload, seconds = timed(under_run_task)
        task_s.append(seconds)
        res, seconds = timed(bare)
        plain_s.append(seconds)
    task, plain = statistics.median(task_s), statistics.median(plain_s)
    return {
        "run_task_s": task,
        "plain_s": plain,
        "frac": task / plain - 1.0,
        "result": payload["result"],
        "plain_ios": res.total_ios,
    }


def dominant(cells: list[dict]) -> int:
    """Index of the costliest cell: largest N, then fewest disks."""
    return max(range(len(cells)), key=lambda i: (cells[i]["n"], -cells[i]["disks"]))


# ------------------------------------------------------------------- batch


def batch_rep(req: dict) -> dict:
    """One pass over a batch grid, serially through ``ParallelRunner``."""
    tracer = None
    if req["traced"]:
        from layers import LayerTracer

        tracer = LayerTracer().install()
    from repro.exec import ParallelRunner, RunSpec

    seed = req["seed"]
    if req["workload"] == "e1-grid":
        cells, plan, retries = e1_grid_cells(seed), None, 0
    else:
        cells, plan, retries = skew_chaos_cells(seed), skew_chaos_plan(seed), 2
    specs = [RunSpec("sort_pdm", params) for params in cells]
    runner = ParallelRunner(jobs=1, retries=retries, fault_plan=plan)
    ready = time.monotonic()

    setup_s = (ready - req["spawned"]) * host_scale()
    # Each cell is timed alone and scaled by the host speed sampled while
    # it ran; the traced root span covers the cells only.
    root = tracer.root() if tracer else nullcontext()
    spans, results = [], []
    with SpeedTrack(tracer=tracer) as track:
        for spec in specs:
            with root:
                t = perf_counter()
                results.extend(runner.map([spec]))
                spans.append((t, perf_counter()))
    scaled = [(t1 - t0) * track.scale(t0, t1) for t0, t1 in spans]

    rec = {
        "setup_s": setup_s,
        "wall_s": sum(scaled),
        "latencies_ms": [1e3 * s for s in scaled],
        "peak_rss_mb": _rss_mb(resource.RUSAGE_SELF),
        "retries": runner.retried,
        "io_plan": runner.stats["io_plan"],
        "jobs": [],
        "facts": {},
    }
    for res in results:
        job = {"key": res.key, "params": res.spec.params, "failed": res.failed}
        if res.failed:
            job["error"] = res.error
        else:
            job["result"] = res.result
            job["cpu_ratio"] = cpu_ratio(res.result, res.spec.params)
            rec["facts"][res.key] = payload_facts(res.payload, tracer is not None)
        rec["jobs"].append(job)
    if tracer is not None:
        seconds, counts = tracer.totals()
        tracer.uninstall()
        rec["layers"] = {"seconds": seconds, "counts": counts}
        rec["traced_wall_s"] = root.out["wall_s"]
        i = dominant(cells)
        rec["overhead"] = obs_overhead(cells[i])
        rec["overhead"]["key"] = results[i].key
    return rec


# ------------------------------------------------------------------- serve


def _wait_port(path: str, server: subprocess.Popen, timeout: float = 60.0) -> int:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if server.poll() is not None:
            raise RuntimeError(f"repro serve exited with code {server.returncode}")
        try:
            with open(path) as fh:
                return int(fh.read())
        except (FileNotFoundError, ValueError):
            time.sleep(0.005)
    raise RuntimeError("repro serve did not write its port file")


def _stop(server: subprocess.Popen) -> None:
    """SIGTERM drains the service; kill it only if the drain hangs."""
    if server.poll() is None:
        server.send_signal(signal.SIGTERM)
    try:
        server.wait(timeout=60)
    except subprocess.TimeoutExpired:
        server.kill()
        server.wait()


def _submit(client, params: dict) -> dict:
    from repro.serve import Rejected, ServeError

    t = perf_counter()
    try:
        resp = client.submit_admitted(
            "sort_pdm", params, wait=True, timeout=120.0, retries=20
        )
    except (Rejected, ServeError) as exc:
        return {"params": params, "failed": True, "error": str(exc)}
    done = perf_counter()
    job = resp["job"]
    return {
        "key": job["id"],
        "params": params,
        "failed": job["status"] != "done",
        "error": job.get("error"),
        "disposition": job.get("disposition"),
        "span": (t, done),
        "result": job.get("result"),
        "bytes": len(json.dumps(resp, separators=(",", ":"))) + 1,
    }


def serve_rep(req: dict) -> dict:
    """A 2-connection closed loop against ``repro serve`` in a subprocess."""
    from repro.serve import ServeClient

    scratch = req["scratch"]
    port_file = os.path.join(scratch, "port")
    layers_file = os.path.join(scratch, "layers.json")
    cli = ["serve", "--port", "0", "--port-file", port_file, "--jobs", "1"]
    if req["traced"]:
        cmd = [sys.executable, os.path.join(HERE, "servetrace.py"), layers_file, *cli]
    else:
        cmd = [sys.executable, "-m", "repro", *cli]
    jobs = serve_jobs(req["seed"])
    outcomes: list = [None] * len(jobs)
    rejects = [0, 0]

    def drive(conn: int, port: int) -> None:
        with ServeClient(port=port, tenant=f"conn{conn}", timeout=120.0) as client:
            try:
                for i in range(conn, len(jobs), 2):
                    outcomes[i] = _submit(client, jobs[i])
            finally:
                rejects[conn] = client.counters["rejects"]

    # The service inherits this process's single-CPU affinity (see main),
    # so the speed sampled here is the speed the service sees.
    with open(os.path.join(scratch, "serve.log"), "w") as log:
        server = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT)
        try:
            port = _wait_port(port_file, server)
            ready = time.monotonic()
            setup_s = (ready - req["spawned"]) * host_scale()
            threads = [
                threading.Thread(target=drive, args=(conn, port)) for conn in (0, 1)
            ]
            with SpeedTrack() as track:
                t0 = perf_counter()
                for th in threads:
                    th.start()
                for th in threads:
                    th.join()
                t1 = perf_counter()
            with ServeClient(port=port) as client:
                stats = client.stats()["stats"]
        finally:
            _stop(server)

    for job in outcomes:
        if job is not None and "span" in job:
            start, end = job.pop("span")
            job["latency_ms"] = 1e3 * (end - start) * track.scale(start, end)
    rec = {
        "setup_s": setup_s,
        "wall_s": (t1 - t0) * track.scale(t0, t1),
        "peak_rss_mb": _rss_mb(resource.RUSAGE_CHILDREN),
        "retries": stats["runner"]["retried"],
        "rejects": sum(rejects),
        "jobs": [o or {"failed": True, "error": "no response"} for o in outcomes],
        "facts": {},
    }
    for job in rec["jobs"]:
        if not job["failed"]:
            job["cpu_ratio"] = cpu_ratio(job["result"], job["params"])
    if req["check"]:
        t = perf_counter()
        _check_served(rec, req["check"])
        rec["check_s"] = perf_counter() - t
    if req["traced"]:
        rec["traced_wall_s"] = t1 - t0
        with open(layers_file) as fh:
            rec["layers"] = json.load(fh)
        i = dominant([job["params"] for job in rec["jobs"]])
        rec["overhead"] = obs_overhead(rec["jobs"][i]["params"])
        rec["overhead"]["key"] = rec["jobs"][i].get("key")
    return rec


def _check_served(rec: dict, every: int) -> None:
    """Outside the timed loop: the served results of every ``every``-th
    distinct spec (in submission order) must equal ``run_task``'s."""
    from repro.exec import run_task

    keys = list(dict.fromkeys(job["key"] for job in rec["jobs"] if not job["failed"]))
    chosen = set(keys[::every])
    expected: dict = {}
    for job in rec["jobs"]:
        key = job.get("key")
        if job["failed"] or key not in chosen:
            continue
        if key not in expected:
            payload = run_task("sort_pdm", job["params"])
            expected[key] = payload["result"]
            rec["facts"][key] = payload_facts(payload, True)
        job["matches_run_task"] = job["result"] == expected[key]


def main() -> int:
    req = json.loads(sys.argv[1])
    from repro.util import capture_host

    host = capture_host()
    # One CPU for everything this repetition runs: the speed samples are
    # then taken where the work runs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if req["workload"] == "serve-mixed":
        rec = serve_rep(req)
    else:
        rec = batch_rep(req)
    from repro.core.kernels import default_backend_name

    rec["stamp"] = {"kernel_backend": default_backend_name(), "host": host}
    print(json.dumps(rec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
