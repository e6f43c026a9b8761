"""Differential tier: the fast paths vs their Python references.

Two fast paths must never change a single observable byte:

* the **columnar event journal** vs dict-per-event recording with eager
  metrics, the oracle in ``tests/obs_reference.py`` (``use_obs("dicts")``);
* the **compiled round ops** (:data:`repro.core.kernels.ROUND_OPS`,
  present only when the optional C extension ``repro._speedups`` is
  built) vs the pure-Python bookkeeping, reached by patching
  ``ROUND_OPS`` to ``None``.

The unit of comparison is the whole exec payload — result, metrics
export, and zero-clock trace — canonicalized with ``json.dumps(...,
sort_keys=True)`` so a drift anywhere in the value tree fails loudly.
The dict-per-event oracle records every event as a literal, so its
payload trace has no ``rows`` records; payloads compared with it are
compared with their traces expanded (:func:`expanded`), one dict per
event.
Both block-store backends (the arena and its dict reference,
``tests/store_reference.py``) and both I/O executors (the fused plan and
its round-at-a-time oracle, ``tests/io_reference.py``) are crossed in, plus
the audit and profile report surfaces.

Without the extension the compiled classes are skipped (the build is
optional by design); the columnar half always runs.
"""

import json

import pytest

from repro.core import kernels
from repro.exec import run_task
from repro.obs.columnar import expand_trace

from .io_reference import use_io
from .obs_reference import use_obs
from .store_reference import use_store

HAVE_COMPILED = kernels.default_backend_name() == "compiled"

needs_compiled = pytest.mark.skipif(
    not HAVE_COMPILED,
    reason="optional C extension not built "
           "(python setup.py build_ext --inplace)",
)

#: Deep enough to recurse, rebalance, and hit partial stripes; small
#: enough for the unit tier.
CELL = {"n": 2000, "memory": 512, "block": 4, "disks": 4,
        "workload": "adversarial_bucket_skew", "seed": 1}
HCELL = {"n": 1200, "h": 27, "model": "bt", "cost": "0.5"}

STORES = ["arena", "dict"]
#: I/O executors (``tests/io_reference.py``): the shipped windowed
#: fusion vs the round-at-a-time oracle.
PLANS = [("fused", "fused"), ("unfused", "rounds")]


def canon(payload: dict) -> str:
    """Canonical JSON of a payload — byte equality means bit identity."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def expanded(payload: dict) -> dict:
    """The payload with its trace expanded to one dict per event."""
    return {**payload, "trace": expand_trace(payload["trace"])}


def dict_events_payload(task: str, params: dict) -> dict:
    """The payload built by the dict-per-event oracle."""
    with use_obs("dicts"):
        return run_task(task, dict(params))


def python_payload(monkeypatch, task: str, params: dict) -> dict:
    """The payload with the compiled round ops detached."""
    with monkeypatch.context() as m:
        m.setattr(kernels, "ROUND_OPS", None)
        return run_task(task, dict(params))


# ---------------------------------------------- columnar vs dict events


class TestColumnarVsDictEvents:
    """The columnar journal vs the dict-per-event oracle."""

    @pytest.mark.parametrize("store", STORES)
    @pytest.mark.parametrize("plan", PLANS, ids=lambda p: p[0])
    def test_sort_payload_identity(self, store, plan):
        with use_store(store), use_io(plan[1]):
            classic = dict_events_payload("sort_pdm", CELL)
            columnar = run_task("sort_pdm", dict(CELL))
        assert canon(expanded(classic)) == canon(expanded(columnar))

    def test_compare_and_hierarchy_payload_identity(self):
        for task, params in (
            ("compare_pdm", {**CELL, "algorithm": "balance"}),
            ("hierarchy_sort", HCELL),
        ):
            classic = dict_events_payload(task, params)
            columnar = run_task(task, dict(params))
            assert canon(expanded(classic)) == canon(expanded(columnar)), task

    def test_trace_and_metrics_sections_individually(self):
        """Pinpoint failure mode: which payload section drifted."""
        classic = dict_events_payload("sort_pdm", CELL)
        columnar = run_task("sort_pdm", dict(CELL))
        assert classic["result"] == columnar["result"]
        assert classic["metrics"] == columnar["metrics"]
        classic_trace = expand_trace(classic["trace"])
        columnar_trace = expand_trace(columnar["trace"])
        assert len(classic_trace) == len(columnar_trace)
        for i, (a, b) in enumerate(zip(classic_trace, columnar_trace)):
            assert a == b, f"trace record {i} drifted"


# ------------------------------------------------- compiled vs python


@needs_compiled
class TestCompiledVsPython:
    """``ROUND_OPS`` attached (the default when built) vs patched to ``None``."""

    @pytest.mark.parametrize("store", STORES)
    @pytest.mark.parametrize("plan", PLANS, ids=lambda p: p[0])
    def test_sort_payload_identity(self, monkeypatch, store, plan):
        with use_store(store), use_io(plan[1]):
            python = python_payload(monkeypatch, "sort_pdm", CELL)
            compiled = run_task("sort_pdm", dict(CELL))
        assert canon(python) == canon(compiled)

    @pytest.mark.parametrize("matcher", ["derandomized", "randomized"])
    def test_matchers_identical(self, monkeypatch, matcher):
        params = {**CELL, "matcher": matcher}
        python = python_payload(monkeypatch, "sort_pdm", params)
        compiled = run_task("sort_pdm", dict(params))
        assert canon(python) == canon(compiled)

    def test_full_fast_stack_vs_full_reference_stack(self, monkeypatch):
        """Strongest cross: compiled+columnar vs pure-python+dict-events."""
        with monkeypatch.context() as m:
            m.setattr(kernels, "ROUND_OPS", None)
            reference = dict_events_payload("sort_pdm", CELL)
        fast = run_task("sort_pdm", dict(CELL))
        assert canon(expanded(reference)) == canon(expanded(fast))

    def test_audit_report_identical(self, monkeypatch, tmp_path):
        """The Theorem 1–4 audit surface is round-path-invariant."""
        from repro.cli import main

        reports = {}
        for path_name in ("python", "compiled"):
            path = tmp_path / f"audit-{path_name}.json"
            with monkeypatch.context() as m:
                if path_name == "python":
                    m.setattr(kernels, "ROUND_OPS", None)
                rc = main(["audit", "--n", "2000", "--memory", "512",
                           "--block", "4", "--disks", "8",
                           "--emit-json", str(path)])
            assert rc == 0
            reports[path_name] = json.loads(path.read_text())
        a, b = reports["python"], reports["compiled"]
        # Wall-clock fields move run to run; the deterministic audit
        # verdicts and measurements must not.
        assert a["audit"] == b["audit"]
        assert a["result"] == b["result"]

    def test_profile_report_identical(self, monkeypatch, tmp_path):
        """``repro profile`` over the zero-clock payload trace matches."""
        from repro.cli import main

        profiles = {}
        for path_name in ("python", "compiled"):
            if path_name == "python":
                payload = python_payload(monkeypatch, "sort_pdm", CELL)
            else:
                payload = run_task("sort_pdm", dict(CELL))
            trace_path = tmp_path / f"trace-{path_name}.jsonl"
            with open(trace_path, "w") as fh:
                for event in expand_trace(payload["trace"]):
                    fh.write(json.dumps(event) + "\n")
            out_path = tmp_path / f"profile-{path_name}.json"
            rc = main(["profile", str(trace_path),
                       "--emit-json", str(out_path)])
            assert rc == 0
            doc = json.loads(out_path.read_text())
            doc.pop("trace", None)  # the input path differs by name
            profiles[path_name] = doc
        assert profiles["python"] == profiles["compiled"]

    def test_engine_attaches_round_ops(self, monkeypatch):
        """A built extension is always used; patching ``ROUND_OPS`` to
        ``None`` (the python side of every test above) detaches it."""
        from repro import _speedups, workloads
        from repro.core.balance import BalanceEngine
        from repro.pdm import ParallelDiskMachine, VirtualDisks

        def attached() -> bool:
            machine = ParallelDiskMachine(memory=8192, block=2, disks=8)
            data = workloads.uniform(400, seed=0)
            engine = BalanceEngine(VirtualDisks(machine, 4), [])
            machine.mem_acquire(data.shape[0])
            engine.feed(data)
            engine.run_rounds(drain_below=0)
            return engine.matrices._cops is not None

        assert kernels.ROUND_OPS is _speedups.RoundOps
        assert attached()
        monkeypatch.setattr(kernels, "ROUND_OPS", None)
        assert not attached()
