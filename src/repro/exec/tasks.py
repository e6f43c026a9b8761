"""Registered simulation tasks — the units the parallel runner shards.

A *task* is a named, picklable function ``fn(params, obs) -> result
dict``.  The registry makes grid cells self-describing: a
:class:`~repro.exec.runner.RunSpec` carries only ``(task name, params)``,
which is what the fingerprint hashes and what a worker process needs to
reproduce the run from scratch.

The tasks are the only code that runs a cell, and :func:`check_spec`
decides which cells they accept.  A single CLI run (``repro sort`` /
``hierarchy`` / ``compare`` / ``audit``) calls its task with the
observation it built, or ``None`` (no tracing, no theory audit).  Grid
cells and served jobs go through :func:`run_task`, which wraps the task
in a **deterministic observation**: a metrics registry plus a tracer
whose clock is pinned to zero.  Simulated costs (parallel I/Os, CPU work, model
time) are exact and reproducible; wall-clock is not, so pinning the clock
makes the whole payload — result, metrics, and trace events — a pure
function of ``(task, params)``.  That is what lets payloads be content-
cached, diffed against golden files, and compared bit-for-bit between the
serial and process-pool runners.

Payload schema (``repro.exec_payload/2``)::

    {"schema": "repro.exec_payload/2", "task": str, "params": {...},
     "result": {...},        # task-specific summary (JSON-safe scalars)
     "metrics": {...},       # MetricsRegistry.export()
     "trace": [...]}         # ColumnarJournal.export(): the literal event
                             # dicts, then each channel's rows as columns

:func:`~repro.obs.columnar.expand_trace` turns ``trace`` back into the
``/1`` event list, one dict per event.
"""

from __future__ import annotations

import json
from typing import Callable

import numpy as np

from .. import workloads
from ..analysis import bounds
from ..exceptions import ParameterError
from ..obs import NULL_TRACER, Observation, TheoryAuditor, Tracer
from ..obs.telemetry import ProgressSink, active_telemetry
from .fingerprint import SCHEMA_SALT

__all__ = ["ALGORITHMS", "task", "get_task", "task_names", "check_spec", "run_task"]

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


#: The algorithms a ``compare_pdm`` cell can run.
ALGORITHMS = ("balance", "greed", "randomized", "striped")


def check_spec(task: str, params: dict) -> None:
    """Refuse a cell its task cannot run, before anything runs.

    Raises :class:`~repro.exceptions.ParameterError` naming the broken
    rule (``KeyError`` for an unknown task).  The rules, with the task's
    own defaults: ``n ≥ 0``; known names (``workload``, ``matcher``,
    ``internal``, ``algorithm``); the machine constructor (with the cost
    spec for hierarchy cells); for ``sort_pdm`` and balance
    ``compare_pdm`` cells, :class:`~repro.pdm.VirtualDisks` and the
    sort's memoryload rule too.  Single CLI runs, every cell of a
    ``sweep`` / ``submit`` / ``bench record`` grid, and ``repro serve``
    admission all check here.
    """
    from ..core.balance import MATCHERS
    from ..core.sort_pdm import INTERNAL_SORTS, _memoryload, default_bucket_count
    from ..pdm import VirtualDisks
    from ..pdm.striping import default_virtual_disk_count

    get_task(task)
    n = int(params["n"])
    if n < 0:
        raise ParameterError(f"n must be >= 0, got {n}")
    int(params.get("seed", 0))
    _choice(params, "workload", "uniform", workloads.GENERATORS)
    if task == "hierarchy_sort":
        _choice(params, "matcher", "derandomized", MATCHERS)
        _hierarchy_machine(params)
        return
    if task == "sort_pdm":
        _choice(params, "matcher", "derandomized", MATCHERS)
        _choice(params, "internal", "cole", INTERNAL_SORTS)
        machine = _pdm_machine(params, int(params.get("processors", 1)))
    elif _choice(params, "algorithm", None, ALGORITHMS) == "balance":
        machine = _pdm_machine(params)
    else:
        _pdm_machine(params)
        return
    buckets, virtual = params.get("buckets"), params.get("virtual_disks")
    storage = VirtualDisks(
        machine,
        default_virtual_disk_count(machine.D) if virtual is None else int(virtual),
    )
    _memoryload(
        machine, storage,
        default_bucket_count(machine.M, machine.B) if buckets is None else int(buckets),
    )


def _choice(params: dict, key: str, default, choices) -> str:
    """``params[key]`` (else ``default``), refused unless one of ``choices``."""
    value = params.get(key, default)
    if not isinstance(value, str) or value not in choices:
        raise ParameterError(
            f"unknown {key} {value!r} (expected one of {sorted(choices)})"
        )
    return value


def _pdm_machine(params: dict, processors: int = 1):
    from ..pdm import ParallelDiskMachine

    return ParallelDiskMachine(
        memory=int(params.get("memory", 512)),
        block=int(params.get("block", 4)),
        disks=int(params.get("disks", 8)),
        processors=processors,
    )


def _hierarchy_machine(params: dict):
    from ..hierarchies import ParallelHierarchies, well_behaved

    return ParallelHierarchies(
        int(params.get("h", 64)),
        model=params.get("model", "hmm"),
        cost_fn=well_behaved(params.get("cost", "log")),
        interconnect=params.get("interconnect", "pram"),
    )


def _input(params: dict) -> np.ndarray:
    workload = params.get("workload", "uniform")
    return workloads.by_name(workload, int(params["n"]), seed=int(params.get("seed", 0)))


def _verified(res, data: np.ndarray) -> bool:
    """Assert the sort's output is ``data`` in sorted order; True if it is."""
    from ..core.streams import peek_run
    from ..util import assert_is_permutation, assert_sorted

    out = peek_run(res.storage, res.output)
    assert_sorted(out)
    assert_is_permutation(out, data)
    return True


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
        payload["trace"] = trace
        return payload
    payload["trace"] = trace
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
def sort_pdm(params: dict, obs: Observation | None) -> dict:
    """Balance Sort on the PDM — one E1-style grid cell, or ``repro sort``.

    Params: ``n`` (required), ``memory`` (512), ``block`` (4), ``disks``
    (8), ``workload`` ("uniform"), ``seed`` (0), ``matcher``
    ("derandomized"), ``buckets`` / ``virtual_disks`` (paper defaults),
    ``processors`` (1), ``internal`` ("cole"), ``check_invariants``
    (False — grid cells favour speed; the invariant tier covers safety),
    ``verify`` (False — full output verification costs extra reads).
    The run is scored by the :class:`~repro.obs.TheoryAuditor` already
    on ``obs``, else by a default one.
    """
    from ..core.sort_pdm import balance_sort_pdm

    machine = _pdm_machine(params, int(params.get("processors", 1)))
    data = _input(params)
    auditor = None if obs is None else obs.auditor or TheoryAuditor().install(obs)
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
    if auditor is not None:
        # Per-cell theory audit: deterministic measured/bound ratios land
        # as gauges under the "audit" scope and merge across the sweep
        # like any other metric (grid-wide min/max watermarks per theorem).
        auditor.finish_pdm(machine, res)
    bound = bounds.sort_io_bound(int(params["n"]), machine.M, machine.B, machine.D)
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
        "verified": _verified(res, data) if params.get("verify", False) else None,
    }


@task("compare_pdm")
def compare_pdm(params: dict, obs: Observation | None) -> dict:
    """One algorithm × one config — an E3-style comparison cell.

    Params: ``algorithm`` ∈ :data:`ALGORITHMS` (required) plus the
    machine/workload params of ``sort_pdm`` (``rng_seed`` seeds the
    randomized baseline); ``verify`` (False) checks the output and adds
    ``verified`` to the result.
    """
    from ..baselines import (
        greed_sort,
        randomized_distribution_sort,
        striped_merge_sort,
    )
    from ..core.sort_pdm import balance_sort_pdm

    algorithm = params["algorithm"]
    machine = _pdm_machine(params)
    tracer = NULL_TRACER if obs is None else obs.tracer
    if obs is not None:  # the baselines take no obs: the machine's hooks do
        machine.attach_obs(obs, scope=f"algo.{algorithm}")
    data = _input(params)
    with tracer.span(f"algo:{algorithm}") as span:
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
    n = int(params["n"])
    bound = bounds.sort_io_bound(n, machine.M, machine.B, machine.D)
    result = {
        "algorithm": algorithm,
        "records": n,
        "parallel_ios": res.total_ios,
        "theorem1_bound": round(bound, 1),
        "ratio": round(res.total_ios / bound, 4),
        "io": machine.stats.snapshot(),
    }
    if params.get("verify", False):
        result["verified"] = _verified(res, data)
    return result


@task("hierarchy_sort")
def hierarchy_sort(params: dict, obs: Observation | None) -> dict:
    """Balance Sort on P-HMM / P-BT / P-UMH — a hierarchy grid cell.

    Params: ``n`` (required), ``h`` (64), ``model`` ("hmm"), ``cost``
    ("log" | "umh" | "constant" | positive exponent), ``interconnect``
    ("pram"), ``workload`` ("uniform"), ``seed`` (0), ``matcher``
    ("derandomized"), ``check_invariants`` (True — raise on a broken
    invariant; ``repro audit`` passes False and only observes),
    ``verify`` (False; True checks the output and adds ``verified``).
    """
    from ..core.sort_hierarchy import balance_sort_hierarchy

    machine = _hierarchy_machine(params)
    data = _input(params)
    auditor = None if obs is None else obs.auditor or TheoryAuditor().install(obs)
    res = balance_sort_hierarchy(
        machine, data,
        matcher=params.get("matcher", "derandomized"),
        check_invariants=bool(params.get("check_invariants", True)),
        obs=obs,
    )
    if auditor is not None:
        # Per-cell theory audit (see sort_pdm): ratios become "audit" gauges.
        auditor.finish_hierarchy(machine, res)
    result = {
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
    if params.get("verify", False):
        result["verified"] = _verified(res, data)
    return result
