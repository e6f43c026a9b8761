"""Differential tier: the compiled fast paths vs their Python references.

PR 8 adds two selectable fast paths that must never change a single
observable byte:

* the **columnar event journal** (``REPRO_OBS_COLUMNAR``, default on)
  vs the classic dict-per-event tracer path;
* the **compiled kernel backend** (``REPRO_KERNEL_BACKEND=compiled``,
  present only when the optional C extension ``repro._speedups`` is
  built) vs the pure-Python ``vectorized`` reference.

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

from repro.core.kernels import BACKENDS
from repro.exec import run_task

HAVE_COMPILED = "compiled" in BACKENDS

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


def payload_under(monkeypatch, task: str, params: dict, **env) -> dict:
    _set_env(monkeypatch, **env)
    return run_task(task, dict(params))


# ---------------------------------------------- columnar vs dict events


class TestColumnarVsDictEvents:
    """``REPRO_OBS_COLUMNAR=0`` (classic dicts) vs the columnar journal."""

    @pytest.mark.parametrize("store", STORES)
    @pytest.mark.parametrize("plan", PLANS, ids=lambda p: p[0])
    def test_sort_payload_identity(self, monkeypatch, store, plan):
        _set_env(monkeypatch, REPRO_PDM_STORE=store, REPRO_IO_PLAN=plan[1])
        classic = payload_under(monkeypatch, "sort_pdm", CELL,
                                REPRO_OBS_COLUMNAR="0")
        columnar = payload_under(monkeypatch, "sort_pdm", CELL,
                                 REPRO_OBS_COLUMNAR=None)
        assert canon(classic) == canon(columnar)

    def test_compare_and_hierarchy_payload_identity(self, monkeypatch):
        for task, params in (
            ("compare_pdm", {**CELL, "algorithm": "balance"}),
            ("hierarchy_sort", HCELL),
        ):
            classic = payload_under(monkeypatch, task, params,
                                    REPRO_OBS_COLUMNAR="0")
            columnar = payload_under(monkeypatch, task, params,
                                     REPRO_OBS_COLUMNAR=None)
            assert canon(classic) == canon(columnar), task

    def test_trace_and_metrics_sections_individually(self, monkeypatch):
        """Pinpoint failure mode: which payload section drifted."""
        classic = payload_under(monkeypatch, "sort_pdm", CELL,
                                REPRO_OBS_COLUMNAR="0")
        columnar = payload_under(monkeypatch, "sort_pdm", CELL,
                                 REPRO_OBS_COLUMNAR=None)
        assert classic["result"] == columnar["result"]
        assert classic["metrics"] == columnar["metrics"]
        assert len(classic["trace"]) == len(columnar["trace"])
        for i, (a, b) in enumerate(zip(classic["trace"],
                                       columnar["trace"])):
            assert a == b, f"trace record {i} drifted"


# ------------------------------------------------- compiled vs python


@needs_compiled
class TestCompiledVsPython:
    """``REPRO_KERNEL_BACKEND=compiled`` vs the ``vectorized`` reference."""

    @pytest.mark.parametrize("store", STORES)
    @pytest.mark.parametrize("plan", PLANS, ids=lambda p: p[0])
    def test_sort_payload_identity(self, monkeypatch, store, plan):
        _set_env(monkeypatch, REPRO_PDM_STORE=store, REPRO_IO_PLAN=plan[1])
        python = payload_under(monkeypatch, "sort_pdm", CELL,
                               REPRO_KERNEL_BACKEND="vectorized")
        compiled = payload_under(monkeypatch, "sort_pdm", CELL,
                                 REPRO_KERNEL_BACKEND="compiled")
        assert canon(python) == canon(compiled)

    @pytest.mark.parametrize("matcher", ["derandomized", "randomized"])
    def test_matchers_identical(self, monkeypatch, matcher):
        params = {**CELL, "matcher": matcher}
        python = payload_under(monkeypatch, "sort_pdm", params,
                               REPRO_KERNEL_BACKEND="vectorized")
        compiled = payload_under(monkeypatch, "sort_pdm", params,
                                 REPRO_KERNEL_BACKEND="compiled")
        assert canon(python) == canon(compiled)

    def test_full_fast_stack_vs_full_reference_stack(self, monkeypatch):
        """Strongest cross: compiled+columnar vs pure-python+dict-events."""
        reference = payload_under(monkeypatch, "sort_pdm", CELL,
                                  REPRO_KERNEL_BACKEND="vectorized",
                                  REPRO_OBS_COLUMNAR="0")
        fast = payload_under(monkeypatch, "sort_pdm", CELL,
                             REPRO_KERNEL_BACKEND="compiled",
                             REPRO_OBS_COLUMNAR=None)
        assert canon(reference) == canon(fast)

    def test_audit_report_identical(self, monkeypatch, tmp_path):
        """The Theorem 1–4 audit surface is backend-invariant."""
        from repro.cli import main

        reports = {}
        for backend in ("vectorized", "compiled"):
            _set_env(monkeypatch, REPRO_KERNEL_BACKEND=backend)
            path = tmp_path / f"audit-{backend}.json"
            rc = main(["audit", "--n", "2000", "--memory", "512",
                       "--block", "4", "--disks", "8",
                       "--emit-json", str(path)])
            assert rc == 0
            reports[backend] = json.loads(path.read_text())
        a, b = reports["vectorized"], reports["compiled"]
        # Wall-clock fields move run to run; the deterministic audit
        # verdicts and measurements must not.
        assert a["audit"] == b["audit"]
        assert a["result"] == b["result"]

    def test_profile_report_identical(self, monkeypatch, tmp_path):
        """``repro profile`` over the zero-clock payload trace matches."""
        from repro.cli import main

        profiles = {}
        for backend in ("vectorized", "compiled"):
            payload = payload_under(monkeypatch, "sort_pdm", CELL,
                                    REPRO_KERNEL_BACKEND=backend)
            trace_path = tmp_path / f"trace-{backend}.jsonl"
            with open(trace_path, "w") as fh:
                for event in payload["trace"]:
                    fh.write(json.dumps(event) + "\n")
            out_path = tmp_path / f"profile-{backend}.json"
            rc = main(["profile", str(trace_path),
                       "--emit-json", str(out_path)])
            assert rc == 0
            doc = json.loads(out_path.read_text())
            doc.pop("trace", None)  # the input path differs by name
            profiles[backend] = doc
        assert profiles["vectorized"] == profiles["compiled"]

    def test_backend_registered_and_selectable(self):
        from repro.core.kernels import get_backend, use_backend

        backend = get_backend("compiled")
        assert backend.name == "compiled"
        assert callable(getattr(backend, "round_ops", None))
        with use_backend("compiled"):
            assert get_backend(None).name == "compiled"
