"""Differential tier: the fast paths vs their Python references.

Two fast paths must never change a single observable byte:

* the **columnar event journal** vs the classic dict-per-event tracer
  path, which a tracer with a live sink (telemetry on) still takes;
* the **compiled round ops** (:data:`repro.core.kernels.ROUND_OPS`,
  present only when the optional C extension ``repro._speedups`` is
  built) vs the pure-Python bookkeeping, reached by patching
  ``ROUND_OPS`` to ``None``.

The unit of comparison is the whole exec payload — result, metrics
export, and zero-clock trace — canonicalized with ``json.dumps(...,
sort_keys=True)`` so a drift anywhere in the value tree fails loudly.
Both block-store backends and both physical I/O-plan modes (fused /
unfused) are crossed in, plus the audit and profile report surfaces.

Without the extension the compiled classes are skipped (the build is
optional by design); the columnar half always runs.
"""

import json

import pytest

from repro.core import kernels
from repro.exec import run_task
from repro.obs.telemetry import TelemetryWriter, activate_telemetry

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
#: REPRO_IO_PLAN values: default windowed fusion vs fully unfused.
PLANS = [("fused", None), ("unfused", "0")]


def canon(payload: dict) -> str:
    """Canonical JSON of a payload — byte equality means bit identity."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _set_env(monkeypatch, **env):
    for key, value in env.items():
        if value is None:
            monkeypatch.delenv(key, raising=False)
        else:
            monkeypatch.setenv(key, value)


def dict_events_payload(tmp_path, task: str, params: dict) -> dict:
    """The payload built with a live tracer sink: the dict-per-event path."""
    with TelemetryWriter(str(tmp_path / "telemetry.jsonl")) as writer:
        with activate_telemetry(writer):
            return run_task(task, dict(params))


def python_payload(monkeypatch, task: str, params: dict) -> dict:
    """The payload with the compiled round ops detached."""
    with monkeypatch.context() as m:
        m.setattr(kernels, "ROUND_OPS", None)
        return run_task(task, dict(params))


# ---------------------------------------------- columnar vs dict events


class TestColumnarVsDictEvents:
    """A tracer with a sink (classic dicts) vs the columnar journal."""

    @pytest.mark.parametrize("store", STORES)
    @pytest.mark.parametrize("plan", PLANS, ids=lambda p: p[0])
    def test_sort_payload_identity(self, monkeypatch, tmp_path, store, plan):
        _set_env(monkeypatch, REPRO_PDM_STORE=store, REPRO_IO_PLAN=plan[1])
        classic = dict_events_payload(tmp_path, "sort_pdm", CELL)
        columnar = run_task("sort_pdm", dict(CELL))
        assert canon(classic) == canon(columnar)

    def test_compare_and_hierarchy_payload_identity(self, tmp_path):
        for task, params in (
            ("compare_pdm", {**CELL, "algorithm": "balance"}),
            ("hierarchy_sort", HCELL),
        ):
            classic = dict_events_payload(tmp_path, task, params)
            columnar = run_task(task, dict(params))
            assert canon(classic) == canon(columnar), task

    def test_trace_and_metrics_sections_individually(self, tmp_path):
        """Pinpoint failure mode: which payload section drifted."""
        classic = dict_events_payload(tmp_path, "sort_pdm", CELL)
        columnar = run_task("sort_pdm", dict(CELL))
        assert classic["result"] == columnar["result"]
        assert classic["metrics"] == columnar["metrics"]
        assert len(classic["trace"]) == len(columnar["trace"])
        for i, (a, b) in enumerate(zip(classic["trace"],
                                       columnar["trace"])):
            assert a == b, f"trace record {i} drifted"


# ------------------------------------------------- compiled vs python


@needs_compiled
class TestCompiledVsPython:
    """``ROUND_OPS`` attached (the default when built) vs patched to ``None``."""

    @pytest.mark.parametrize("store", STORES)
    @pytest.mark.parametrize("plan", PLANS, ids=lambda p: p[0])
    def test_sort_payload_identity(self, monkeypatch, store, plan):
        _set_env(monkeypatch, REPRO_PDM_STORE=store, REPRO_IO_PLAN=plan[1])
        python = python_payload(monkeypatch, "sort_pdm", CELL)
        compiled = run_task("sort_pdm", dict(CELL))
        assert canon(python) == canon(compiled)

    @pytest.mark.parametrize("matcher", ["derandomized", "randomized"])
    def test_matchers_identical(self, monkeypatch, matcher):
        params = {**CELL, "matcher": matcher}
        python = python_payload(monkeypatch, "sort_pdm", params)
        compiled = run_task("sort_pdm", dict(params))
        assert canon(python) == canon(compiled)

    def test_full_fast_stack_vs_full_reference_stack(self, monkeypatch, tmp_path):
        """Strongest cross: compiled+columnar vs pure-python+dict-events."""
        with monkeypatch.context() as m:
            m.setattr(kernels, "ROUND_OPS", None)
            reference = dict_events_payload(tmp_path, "sort_pdm", CELL)
        fast = run_task("sort_pdm", dict(CELL))
        assert canon(reference) == canon(fast)

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
                for event in payload["trace"]:
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
