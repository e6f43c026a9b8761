"""Registered simulation tasks — the units the parallel runner shards.

A *task* is a named, picklable function ``fn(params, obs) -> result
dict``.  The registry makes grid cells self-describing: a
:class:`~repro.exec.runner.RunSpec` carries only ``(task name, params)``,
which is what the fingerprint hashes and what a worker process needs to
reproduce the run from scratch.

Every execution goes through :func:`run_task`, which wraps the task in a
**deterministic observation**: a metrics registry plus a tracer whose
clock is pinned to zero.  Simulated costs (parallel I/Os, CPU work, model
time) are exact and reproducible; wall-clock is not, so pinning the clock
makes the whole payload — result, metrics, and trace events — a pure
function of ``(task, params)``.  That is what lets payloads be content-
cached, diffed against golden files, and compared bit-for-bit between the
serial and process-pool runners.

Payload schema (``repro.exec_payload/1``)::

    {"schema": "repro.exec_payload/1", "task": str, "params": {...},
     "result": {...},        # task-specific summary (JSON-safe scalars)
     "metrics": {...},       # MetricsRegistry.export()
     "trace": [...]}         # tracer events (begin/end/event dicts)
"""

from __future__ import annotations

import json
from typing import Callable

import numpy as np

from .. import workloads
from ..analysis import bounds
from ..exceptions import ParameterError
from ..obs import Observation, Tracer
from ..obs.telemetry import ProgressSink, active_telemetry
from .fingerprint import SCHEMA_SALT

__all__ = ["task", "get_task", "task_names", "check_spec", "run_task"]

_TASKS: dict[str, Callable] = {}


def task(name: str) -> Callable:
    """Register ``fn(params, obs) -> dict`` under ``name`` (decorator)."""

    def register(fn: Callable) -> Callable:
        if name in _TASKS:
            raise ValueError(f"task {name!r} already registered")
        _TASKS[name] = fn
        return fn

    return register


def get_task(name: str) -> Callable:
    """Look up a registered task; raises ``KeyError`` with the known names."""
    try:
        return _TASKS[name]
    except KeyError:
        raise KeyError(
            f"unknown task {name!r} (known: {sorted(_TASKS)})"
        ) from None


def task_names() -> list[str]:
    """All registered task names, sorted."""
    return sorted(_TASKS)


def check_spec(task: str, params: dict) -> None:
    """Refuse a cell its task cannot run, before anything runs.

    Raises :class:`~repro.exceptions.ParameterError` naming the broken
    rule (``KeyError`` for an unknown task).  The rules, with the task's
    own defaults: ``n ≥ 0``; for hierarchy cells, the cost spec and the
    machine constructor; for ``sort_pdm`` and balance ``compare_pdm``
    cells, the machine, :class:`~repro.pdm.VirtualDisks` and the sort's
    memoryload rule; for the other ``compare_pdm`` algorithms, the
    machine constructor alone.  Single CLI runs, every cell of a
    ``sweep`` / ``submit`` / ``bench record`` grid, and ``repro serve``
    admission all check here.
    """
    from ..core.sort_pdm import _memoryload, default_bucket_count
    from ..hierarchies import ParallelHierarchies, well_behaved
    from ..pdm import ParallelDiskMachine, VirtualDisks
    from ..pdm.striping import default_virtual_disk_count

    get_task(task)
    n = int(params["n"])
    if n < 0:
        raise ParameterError(f"n must be >= 0, got {n}")
    if task == "hierarchy_sort":
        ParallelHierarchies(
            int(params.get("h", 64)),
            model=params.get("model", "hmm"),
            cost_fn=well_behaved(params.get("cost", "log")),
            interconnect=params.get("interconnect", "pram"),
        )
        return
    machine = ParallelDiskMachine(
        memory=int(params.get("memory", 512)),
        block=int(params.get("block", 4)),
        disks=int(params.get("disks", 8)),
        processors=int(params.get("processors", 1)) if task == "sort_pdm" else 1,
    )
    if task == "compare_pdm" and params.get("algorithm") != "balance":
        return
    storage = VirtualDisks(
        machine,
        params.get("virtual_disks") or default_virtual_disk_count(machine.D),
    )
    _memoryload(
        machine, storage,
        params.get("buckets") or default_bucket_count(machine.M, machine.B),
    )


def _zero_clock() -> float:
    """Pinned tracer clock: every ``ts`` / ``wall_s`` is exactly 0.0."""
    return 0.0


def run_task(name: str, params: dict) -> dict:
    """Execute one task under a deterministic observation; return the payload.

    The payload round-trips through JSON before returning so cached and
    freshly executed payloads are the *same* Python shape (plain lists /
    ints / floats — no numpy scalars, no tuples).

    When an ambient telemetry channel is active (``repro sweep --live``
    / ``--telemetry``), a :class:`~repro.obs.telemetry.ProgressSink` is
    attached as the tracer's *sink*: it observes the same event stream
    and streams throttled phase progress, while the payload keeps being
    built from the tracer's in-memory events — so payload bytes are
    bit-identical with telemetry on or off.
    """
    fn = get_task(name)
    channel = active_telemetry()
    sink = ProgressSink(channel) if channel is not None else None
    obs = Observation(tracer=Tracer(sink=sink, clock=_zero_clock))
    result = fn(dict(params), obs)
    obs.close()
    trace, trace_safe = obs.tracer.payload_events()
    payload = {
        "schema": SCHEMA_SALT,
        "task": name,
        "params": dict(params),
        "result": result,
        "metrics": obs.registry.export(),
    }
    if trace_safe:
        # Columnar tracer: every trace value is a plain scalar (appender
        # contract, literals checked), so json.loads(json.dumps(trace))
        # would reproduce the exact same value tree — skip it and
        # round-trip only the small head of the payload.  `trace` is
        # assigned after the round-trip so the payload's key order (and
        # therefore any insertion-ordered serialization) is unchanged.
        payload = json.loads(json.dumps(payload, default=_jsonable))
        payload["trace"] = list(trace)
        return payload
    payload["trace"] = list(trace)
    return json.loads(json.dumps(payload, default=_jsonable))


def _jsonable(value):
    for attr in ("item", "tolist"):
        fn = getattr(value, attr, None)
        if fn is not None:
            return fn()
    return str(value)


# --------------------------------------------------------------------------
# Built-in tasks
# --------------------------------------------------------------------------


@task("sort_pdm")
def sort_pdm(params: dict, obs: Observation) -> dict:
    """Balance Sort on the PDM — one E1-style grid cell.

    Params: ``n`` (required), ``memory`` (512), ``block`` (4), ``disks``
    (8), ``workload`` ("uniform"), ``seed`` (0), ``matcher``
    ("derandomized"), ``buckets`` / ``virtual_disks`` (paper defaults),
    ``processors`` (1), ``internal`` ("cole"), ``check_invariants``
    (False — grid cells favour speed; the invariant tier covers safety),
    ``verify`` (False — full output verification costs extra reads).
    """
    from ..core.sort_pdm import balance_sort_pdm
    from ..pdm import ParallelDiskMachine

    from ..obs import TheoryAuditor

    n = int(params["n"])
    memory = int(params.get("memory", 512))
    block = int(params.get("block", 4))
    disks = int(params.get("disks", 8))
    machine = ParallelDiskMachine(
        memory=memory, block=block, disks=disks,
        processors=int(params.get("processors", 1)),
    )
    data = workloads.by_name(
        params.get("workload", "uniform"), n, seed=int(params.get("seed", 0))
    )
    auditor = TheoryAuditor().install(obs)
    res = balance_sort_pdm(
        machine,
        data,
        matcher=params.get("matcher", "derandomized"),
        buckets=params.get("buckets"),
        virtual_disks=params.get("virtual_disks"),
        internal=params.get("internal", "cole"),
        check_invariants=bool(params.get("check_invariants", False)),
        obs=obs,
    )
    # Per-cell theory audit: deterministic measured/bound ratios land as
    # gauges under the "audit" scope and merge across the sweep like any
    # other metric (grid-wide min/max watermarks per theorem).
    auditor.finish_pdm(machine, res)
    verified = None
    if params.get("verify", False):
        from ..core.streams import peek_run
        from ..util import assert_is_permutation, assert_sorted

        out = peek_run(res.storage, res.output)
        assert_sorted(out)
        assert_is_permutation(out, data)
        verified = True
    bound = bounds.sort_io_bound(n, memory, block, disks)
    return {
        "records": res.n_records,
        "workload": params.get("workload", "uniform"),
        "parallel_ios": res.total_ios,
        "theorem1_bound": round(bound, 1),
        "ratio": round(res.total_ios / bound, 4),
        "cpu_work": res.cpu["work"],
        "cpu_time": res.cpu["time"],
        "recursion_depth": res.recursion_depth,
        "blocks_swapped": res.blocks_swapped,
        "blocks_unprocessed": res.blocks_unprocessed,
        "match_calls": res.match_calls,
        "balance_factor": round(res.max_balance_factor, 4),
        "io": res.io_stats,
        "verified": verified,
    }


@task("compare_pdm")
def compare_pdm(params: dict, obs: Observation) -> dict:
    """One algorithm × one config — an E3-style comparison cell.

    Params: ``algorithm`` ∈ {"balance", "greed", "randomized",
    "striped"} (required) plus the machine/workload params of
    ``sort_pdm`` (``rng_seed`` seeds the randomized baseline).
    """
    from ..baselines import (
        greed_sort,
        randomized_distribution_sort,
        striped_merge_sort,
    )
    from ..core.sort_pdm import balance_sort_pdm
    from ..pdm import ParallelDiskMachine

    algorithm = params["algorithm"]
    n = int(params["n"])
    memory = int(params.get("memory", 512))
    block = int(params.get("block", 4))
    disks = int(params.get("disks", 8))
    machine = ParallelDiskMachine(memory=memory, block=block, disks=disks)
    machine.attach_obs(obs, scope=f"algo.{algorithm}")
    data = workloads.by_name(
        params.get("workload", "uniform"), n, seed=int(params.get("seed", 0))
    )
    with obs.span(f"algo:{algorithm}") as span:
        if algorithm == "balance":
            res = balance_sort_pdm(
                machine, data,
                buckets=params.get("buckets"),
                virtual_disks=params.get("virtual_disks"),
                check_invariants=bool(params.get("check_invariants", False)),
            )
        elif algorithm == "greed":
            res = greed_sort(machine, data)
        elif algorithm == "randomized":
            rng = (
                np.random.default_rng(int(params["rng_seed"]))
                if "rng_seed" in params
                else None  # the baseline's own fixed default seed
            )
            res = randomized_distribution_sort(machine, data, rng=rng)
        elif algorithm == "striped":
            res = striped_merge_sort(machine, data)
        else:
            raise KeyError(f"unknown algorithm {algorithm!r}")
        span.annotate(ios=res.total_ios)
    bound = bounds.sort_io_bound(n, memory, block, disks)
    return {
        "algorithm": algorithm,
        "records": n,
        "parallel_ios": res.total_ios,
        "theorem1_bound": round(bound, 1),
        "ratio": round(res.total_ios / bound, 4),
        "io": machine.stats.snapshot(),
    }


@task("hierarchy_sort")
def hierarchy_sort(params: dict, obs: Observation) -> dict:
    """Balance Sort on P-HMM / P-BT / P-UMH — a hierarchy grid cell.

    Params: ``n`` (required), ``h`` (64), ``model`` ("hmm"), ``cost``
    ("log" | "umh" | "constant" | positive exponent), ``interconnect``
    ("pram"), ``workload`` ("uniform"), ``seed`` (0).
    """
    from ..core.sort_hierarchy import balance_sort_hierarchy
    from ..hierarchies import ParallelHierarchies, well_behaved

    machine = ParallelHierarchies(
        int(params.get("h", 64)),
        model=params.get("model", "hmm"),
        cost_fn=well_behaved(params.get("cost", "log")),
        interconnect=params.get("interconnect", "pram"),
    )
    from ..obs import TheoryAuditor

    data = workloads.by_name(
        params.get("workload", "uniform"),
        int(params["n"]),
        seed=int(params.get("seed", 0)),
    )
    auditor = TheoryAuditor().install(obs)
    res = balance_sort_hierarchy(machine, data, obs=obs)
    # Per-cell theory audit (see sort_pdm): ratios become "audit" gauges.
    auditor.finish_hierarchy(machine, res)
    return {
        "records": res.n_records,
        "model": params.get("model", "hmm"),
        "memory_time": round(res.memory_time, 3),
        "interconnect_time": round(res.interconnect_time, 3),
        "total_time": round(res.total_time, 3),
        "parallel_steps": res.parallel_steps,
        "recursion_depth": res.recursion_depth,
        "base_case_calls": res.base_case_calls,
        "blocks_swapped": res.blocks_swapped,
        "match_calls": res.match_calls,
        "balance_factor": round(res.max_balance_factor, 4),
    }
