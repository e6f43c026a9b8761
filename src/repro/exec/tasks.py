"""Registered simulation tasks — the units the parallel runner shards.

A *task* is a named, picklable function ``fn(params, obs) -> result
dict`` with a **parameter table** (:data:`PARAMS`): each param it reads,
declared once as a :class:`Param`.  The registry makes grid cells
self-describing: a :class:`~repro.exec.runner.RunSpec` carries only
``(task name, params)``, which is what the fingerprint hashes (as
given) and what a worker process needs to reproduce the run from
scratch.

The table is the one reading of a cell's params: :func:`read_params`
turns them into the canonical dict a task gets, :func:`check_spec` adds
the machine-shape rules, and the CLI generates its task flags from it.
The tasks are the only code that runs a cell.  A single CLI run
(``repro sort`` / ``hierarchy`` / ``compare`` / ``audit``) calls its
task with the observation it built, or ``None`` (no tracing, no theory
audit).  Grid cells and served jobs go through :func:`run_task`, which
wraps the task in a **deterministic observation**: a metrics registry
plus a tracer whose clock is pinned to zero.  Simulated costs (parallel
I/Os, CPU work, model time) are exact and reproducible; wall-clock is
not, so pinning the clock makes the whole payload — result, metrics, and
trace events — a pure function of ``(task, params)``.  That is what lets
payloads be content-cached, diffed against golden files, and compared
bit-for-bit between the serial and process-pool runners.

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
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .. import workloads
from ..analysis import bounds
from ..core.balance import MATCHERS
from ..core.sort_pdm import INTERNAL_SORTS
from ..exceptions import ParameterError
from ..hierarchies import well_behaved
from ..hierarchies.parallel import INTERCONNECTS, MODELS
from ..obs import NULL_TRACER, Observation, TheoryAuditor, Tracer, zero_clock
from ..obs.telemetry import ProgressSink, active_telemetry
from .fingerprint import SCHEMA_SALT

__all__ = [
    "ALGORITHMS", "PARAMS", "Param", "REQUIRED", "task", "get_task",
    "task_names", "read_params", "check_spec", "run_task", "payload_ok",
]

_TASKS: dict[str, Callable] = {}

#: Each task's parameter table: ``{task: {param name: Param}}``.
PARAMS: dict[str, dict[str, Param]] = {}

#: The default of a param every cell must give.
REQUIRED = object()

#: Each declared type's name and the values it admits: NumPy scalars
#: count, a bool is never an integer or a number.
_TYPES = {
    int: ("an integer", (int, np.integer)),
    bool: ("true or false", (bool, np.bool_)),
    str: ("a string", (str,)),
    float: ("a number", (int, float, np.integer, np.floating)),
}


@dataclass(frozen=True)
class Param:
    """One task param, declared once: what every reader of it reads.

    ``type`` is ``int``, ``bool``, ``str`` or a tuple of them.  A
    ``None`` default stands for the sort's own default and admits
    ``None``; :data:`REQUIRED` means every cell gives the param.
    ``choices`` lists a str's values, ``minimum`` bounds an int,
    ``rule`` (raising :class:`~repro.exceptions.ParameterError`) checks
    the rest, and ``only=(key, value, …)`` admits the param only in cells
    whose ``key`` is one of the values.  ``help`` doubles as the CLI
    flag's help.
    """

    name: str
    type: type | tuple
    default: object = REQUIRED
    help: str = ""
    choices: tuple = ()
    minimum: int | None = None
    rule: Callable | None = None
    only: tuple | None = None

    def read(self, value):
        """``value`` as the task reads it; ParameterError if not admitted."""
        if value is None and self.default is None:
            return None
        types = self.type if isinstance(self.type, tuple) else (self.type,)
        if isinstance(value, (bool, np.bool_)) != (bool in types) or not any(
            isinstance(value, _TYPES[t][1]) for t in types
        ):
            kind = " or ".join(_TYPES[t][0] for t in types)
            raise ParameterError(f"{self.name} must be {kind}, got {value!r}")
        if isinstance(value, np.generic):
            value = value.item()
        if self.choices and value not in self.choices:
            raise ParameterError(
                f"unknown {self.name} {value!r} (expected one of {sorted(self.choices)})"
            )
        if self.minimum is not None and value < self.minimum:
            raise ParameterError(f"{self.name} must be >= {self.minimum}, got {value}")
        if self.rule is not None:
            self.rule(value)
        return value

    def applies(self, params: dict) -> bool:
        """Whether the param applies to a cell with these (canonical) params."""
        return self.only is None or params[self.only[0]] in self.only[1:]


def task(name: str, params: tuple) -> Callable:
    """Register ``fn(params, obs) -> dict`` under ``name`` with its
    parameter table (decorator)."""

    def register(fn: Callable) -> Callable:
        if name in _TASKS:
            raise ValueError(f"task {name!r} already registered")
        _TASKS[name] = fn
        PARAMS[name] = {param.name: param for param in params}
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


def read_params(task: str, params: dict) -> dict:
    """The canonical params of one cell, which its task reads: each param
    of the table that applies, in table order, defaults filled in.

    Refuses (:class:`~repro.exceptions.ParameterError`, naming the key)
    an undeclared key, a value :meth:`Param.read` does not admit, a
    missing required param, and an ``only`` param where it does not
    apply; ``KeyError`` for an unknown task.
    """
    get_task(task)
    table = PARAMS[task]
    for key in params:
        if key not in table:
            raise ParameterError(
                f"unknown param {key!r} for task {task} "
                f"(expected one of {sorted(table)})"
            )
    out = {}
    for name, param in table.items():
        if not param.applies(out):
            if name in params:
                key = param.only[0]
                where = " or ".join(f"{key}={value}" for value in param.only[1:])
                raise ParameterError(
                    f"{name} applies only to {where}, not {key}={out[key]}"
                )
            continue
        if name in params:
            out[name] = param.read(params[name])
        elif param.default is REQUIRED:
            raise ParameterError(f"missing param {name!r} for task {task}")
        else:
            out[name] = param.default
    return out


def check_spec(task: str, params: dict) -> dict:
    """Refuse a cell its task cannot run, before anything runs; return
    its canonical params.

    First the task's table (:func:`read_params`), then the machine
    shape: the machine constructor and, for ``sort_pdm`` and balance or
    randomized ``compare_pdm`` cells, :class:`~repro.pdm.VirtualDisks`
    and the sort's memoryload rule, each raising
    :class:`~repro.exceptions.ParameterError`.  Single CLI runs, every
    cell of a ``sweep`` / ``submit`` / ``bench record`` grid, and
    ``repro serve`` admission all check here.
    """
    from ..core.sort_pdm import _memoryload, default_bucket_count
    from ..pdm import VirtualDisks
    from ..pdm.striping import default_virtual_disk_count

    params = read_params(task, params)
    if task == "hierarchy_sort":
        _hierarchy_machine(params)
        return params
    if task == "sort_pdm":
        machine = _pdm_machine(params, params["processors"])
        virtual = params["virtual_disks"]
    else:
        machine = _pdm_machine(params)
        if params["algorithm"] == "randomized":
            virtual = machine.D  # the baseline stripes nothing
        elif params["algorithm"] == "balance":
            virtual = params["virtual_disks"]
        else:
            return params
    buckets = params["buckets"]
    storage = VirtualDisks(
        machine,
        default_virtual_disk_count(machine.D) if virtual is None else virtual,
    )
    _memoryload(
        machine, storage,
        default_bucket_count(machine.M, machine.B) if buckets is None else buckets,
    )
    return params


def _pdm_machine(params: dict, processors: int = 1):
    """The cell's disk machine; its PRAM is CRCW under a radix internal
    sort, which needs concurrent writes (Section 5), and EREW otherwise."""
    from ..pdm import ParallelDiskMachine

    return ParallelDiskMachine(
        memory=params["memory"], block=params["block"], disks=params["disks"],
        processors=processors,
        pram_variant="EREW" if params.get("internal", "cole") == "cole" else "CRCW",
    )


def _hierarchy_machine(params: dict):
    from ..hierarchies import ParallelHierarchies

    return ParallelHierarchies(
        params["h"],
        model=params["model"],
        cost_fn=well_behaved(params["cost"]),
        interconnect=params["interconnect"],
    )


def _input(params: dict) -> np.ndarray:
    return workloads.by_name(params["workload"], params["n"], seed=params["seed"])


def _verified(res, data: np.ndarray) -> bool:
    """Assert the sort's output is ``data`` in sorted order; True if it is."""
    from ..core.streams import peek_run
    from ..util import assert_is_permutation, assert_sorted

    out = peek_run(res.storage, res.output)
    assert_sorted(out)
    assert_is_permutation(out, data)
    return True


def _checked_output(machine, res, data: np.ndarray, verify: bool) -> bool | None:
    """``verify``: :func:`_verified`.  Otherwise, when the store keeps
    checksums, check the output run's blocks against them without an I/O
    (the verify peek checks them too), so a corrupt write that landed on
    an output block fails the attempt
    (:class:`~repro.exceptions.BlockCorruptionError`) instead of passing
    as success."""
    from ..core.streams import peek_run

    if verify:
        return _verified(res, data)
    if machine.store.checksums:
        peek_run(res.storage, res.output)
    return None


def run_task(name: str, params: dict) -> dict:
    """Execute one task under a deterministic observation; return the payload.

    The task gets the canonical params (:func:`read_params`); the
    payload keeps ``params`` as given.  The payload round-trips through
    JSON before returning so cached and freshly executed payloads are
    the *same* Python shape (plain lists / ints / floats — no numpy
    scalars, no tuples).

    When an ambient telemetry channel is active (``repro sweep --live``
    / ``--telemetry``), a :class:`~repro.obs.telemetry.ProgressSink` is
    attached as the tracer's *sink*: it observes the same event stream
    and streams throttled phase progress, while the payload keeps being
    built from the tracer's in-memory events — so payload bytes are
    bit-identical with telemetry on or off.
    """
    fn = get_task(name)
    canonical = read_params(name, params)
    channel = active_telemetry()
    sink = ProgressSink(channel) if channel is not None else None
    obs = Observation(tracer=Tracer(sink=sink, clock=zero_clock))
    result = fn(canonical, obs)
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


def payload_ok(payload) -> bool:
    """The one payload shape check (the schema above): the runner refuses
    a worker payload that fails it, the cache quarantines such an entry."""
    return (
        isinstance(payload, dict)
        and payload.get("schema") == SCHEMA_SALT
        and isinstance(payload.get("task"), str)
        and all(isinstance(payload.get(k), dict) for k in ("params", "result", "metrics"))
        and isinstance(payload.get("trace"), list)
    )


def _jsonable(value):
    for attr in ("item", "tolist"):
        fn = getattr(value, attr, None)
        if fn is not None:
            return fn()
    return str(value)


# --------------------------------------------------------------------------
# Built-in tasks and their parameter tables
# --------------------------------------------------------------------------

_N = Param("n", int, help="N: records to sort", minimum=0)
_MEMORY = Param("memory", int, 512, "M: records in internal memory")
_BLOCK = Param("block", int, 4, "B: records per block")
_DISKS = Param("disks", int, 8, "D: number of disks")
_WORKLOAD = Param("workload", str, "uniform", "key generator",
                  choices=tuple(sorted(workloads.GENERATORS)))
_SEED = Param("seed", int, 0, "workload seed", minimum=0)
_MATCHER = Param("matcher", str, "derandomized", "rebalancing matcher", choices=MATCHERS)
_BUCKETS = Param("buckets", int, None,
                 "S: buckets per pass (default: planned per subproblem)")
_VIRTUAL_DISKS = Param("virtual_disks", int, None,
                       "D': virtual disks (default: the paper's)")
_CHECK_INVARIANTS = Param("check_invariants", bool, False,
                          "raise on a broken Invariant 1 or 2")
_VERIFY = Param("verify", bool, False, "verify the output (extra reads)")
_BALANCE = ("algorithm", "balance")


@task("sort_pdm", (
    _N, _MEMORY, _BLOCK, _DISKS, _WORKLOAD, _SEED, _MATCHER,
    Param("processors", int, 1, "P: CPUs"),
    _BUCKETS, _VIRTUAL_DISKS,
    Param("internal", str, "cole", "internal-memory sort", choices=INTERNAL_SORTS),
    _CHECK_INVARIANTS, _VERIFY,
))
def sort_pdm(params: dict, obs: Observation | None) -> dict:
    """Balance Sort on the PDM — one E1-style grid cell, or ``repro sort``.

    The run is scored by the :class:`~repro.obs.TheoryAuditor` already
    on ``obs``, else by a default one.
    """
    from ..core.sort_pdm import balance_sort_pdm

    machine = _pdm_machine(params, params["processors"])
    data = _input(params)
    auditor = None if obs is None else obs.auditor or TheoryAuditor().install(obs)
    res = balance_sort_pdm(
        machine,
        data,
        matcher=params["matcher"],
        buckets=params["buckets"],
        virtual_disks=params["virtual_disks"],
        internal=params["internal"],
        check_invariants=params["check_invariants"],
        obs=obs,
    )
    if auditor is not None:
        # Per-cell theory audit: deterministic measured/bound ratios land
        # as gauges under the "audit" scope and merge across the sweep
        # like any other metric (grid-wide min/max watermarks per theorem).
        auditor.finish_pdm(machine, res)
    bound = bounds.sort_io_bound(params["n"], machine.M, machine.B, machine.D)
    return {
        "records": res.n_records,
        "workload": params["workload"],
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
        "verified": _checked_output(machine, res, data, params["verify"]),
    }


@task("compare_pdm", (
    Param("algorithm", str, help="the sort to run", choices=ALGORITHMS),
    _N, _MEMORY, _BLOCK, _DISKS, _WORKLOAD, _SEED,
    replace(_BUCKETS, only=(*_BALANCE, "randomized")),
    replace(_VIRTUAL_DISKS, only=_BALANCE),
    replace(_CHECK_INVARIANTS, only=_BALANCE),
    Param("rng_seed", int, None, "seed of the randomized baseline (default: "
          "its own fixed seed)", minimum=0, only=("algorithm", "randomized")),
    _VERIFY,
))
def compare_pdm(params: dict, obs: Observation | None) -> dict:
    """One algorithm × one config — an E3-style comparison cell."""
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
                buckets=params["buckets"],
                virtual_disks=params["virtual_disks"],
                check_invariants=params["check_invariants"],
            )
        elif algorithm == "greed":
            res = greed_sort(machine, data)
        elif algorithm == "randomized":
            seed = params["rng_seed"]  # None: the baseline's own fixed seed
            rng = None if seed is None else np.random.default_rng(seed)
            res = randomized_distribution_sort(
                machine, data, buckets=params["buckets"], rng=rng
            )
        else:
            res = striped_merge_sort(machine, data)
        span.annotate(ios=res.total_ios)
    n = params["n"]
    bound = bounds.sort_io_bound(n, machine.M, machine.B, machine.D)
    result = {
        "algorithm": algorithm,
        "records": n,
        "parallel_ios": res.total_ios,
        "theorem1_bound": round(bound, 1),
        "ratio": round(res.total_ios / bound, 4),
        "io": machine.stats.snapshot(),
    }
    verified = _checked_output(machine, res, data, params["verify"])
    if params["verify"]:
        result["verified"] = verified
    return result


@task("hierarchy_sort", (
    _N,
    Param("h", int, 64, "H: number of hierarchies"),
    Param("model", str, "hmm", "hierarchy model", choices=MODELS),
    Param("cost", (str, float), "log", "access cost f(x): 'log', 'umh', "
          "'constant', or a positive exponent alpha of x^alpha",
          rule=well_behaved),
    Param("interconnect", str, "pram", "base-level interconnect",
          choices=INTERCONNECTS),
    _WORKLOAD, _SEED, _MATCHER,
    replace(_CHECK_INVARIANTS, default=True),
    _VERIFY,
))
def hierarchy_sort(params: dict, obs: Observation | None) -> dict:
    """Balance Sort on P-HMM / P-BT / P-UMH — a hierarchy grid cell."""
    from ..core.sort_hierarchy import balance_sort_hierarchy

    machine = _hierarchy_machine(params)
    data = _input(params)
    auditor = None if obs is None else obs.auditor or TheoryAuditor().install(obs)
    res = balance_sort_hierarchy(
        machine, data,
        matcher=params["matcher"],
        check_invariants=params["check_invariants"],
        obs=obs,
    )
    if auditor is not None:
        # Per-cell theory audit (see sort_pdm): ratios become "audit" gauges.
        auditor.finish_hierarchy(machine, res)
    result = {
        "records": res.n_records,
        "model": params["model"],
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
    if params["verify"]:
        result["verified"] = _verified(res, data)
    return result
