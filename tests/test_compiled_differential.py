"""Differential tier: the fast paths vs their Python references.

Two fast paths must never change a single observable byte:

* the **columnar event journal** and the engine's O(1) round audit vs
  dict-per-event recording with eager metrics and a per-round auditor,
  the oracle in ``tests/obs_reference.py`` (``use_obs("dicts")``);
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
the audit and profile report surfaces, runs whose audit fires (a tight
Theorem-4 limit, a histogram tampered mid-pass) and what the sinks of a
ticking-clock tracer receive (``--trace-out``'s JSONL, ``--live``'s
progress).

Without the extension the compiled classes are skipped (the build is
optional by design); the columnar half always runs.
"""

import itertools
import json
from contextlib import contextmanager
from unittest import mock

import pytest

from repro import workloads
from repro.core import kernels
from repro.core.balance import BalanceEngine
from repro.core.sort_hierarchy import balance_sort_hierarchy
from repro.core.sort_pdm import balance_sort_pdm
from repro.exec import run_task
from repro.hierarchies import ParallelHierarchies, PowerCost
from repro.obs import (
    JsonlSink,
    Observation,
    ProgressSink,
    TelemetryWriter,
    TheoryAuditor,
    Tracer,
    zero_clock,
)
from repro.obs.columnar import expand_trace
from repro.pdm import ParallelDiskMachine

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


@contextmanager
def tampered_histogram(at_write: int):
    """Tamper with the histogram mid-pass; yields the round observer that
    mends it.

    After the ``at_write``-th write batch of the run, two blocks' worth
    of counts land on the fullest channel of the fullest bucket (through
    ``add_block``, so every maintained view follows) until that entry's
    aux is 2: the round ends with Invariant 2 broken, and the audit must
    fire.  The observer, registered after the auditor, takes the counts
    back before the next round can trip over them.
    """
    state = {"writes": 0, "undo": None}
    write_batch = BalanceEngine._write_batch

    def tampering(self, channels, entries):
        write_batch(self, channels, entries)
        state["writes"] += 1
        if state["writes"] == at_write:
            mat = self.matrices
            b = int(mat.X.sum(axis=1).argmax())
            h = int(mat.X[b].argmax())
            extra = 2 - int(mat.A[b, h])
            for _ in range(extra):
                mat.add_block(b, h)
            state["undo"] = (b, h, extra)

    def mend(engine, _info):
        if state["undo"] is not None:
            b, h, extra = state["undo"]
            for _ in range(extra):
                engine.matrices.remove_block(b, h)
            state["undo"] = None

    with mock.patch.object(BalanceEngine, "_write_batch", tampering):
        yield mend
    assert state["writes"] >= at_write


#: Runs whose audit fires: ``(id, target, Theorem-4 limit, tampered write)``.
AUDIT_CELLS = [
    ("theorem4-limit", "pdm", 0.5, None),
    ("tampered", "pdm", 2.0, 40),
    ("hierarchy-limit", "hierarchy", 0.5, None),
]


def audited_run(target: str, limit: float, tamper_at, sink=None,
                clock=zero_clock) -> dict:
    """One audited sort; its expanded trace, metrics and audit results."""
    with (tampered_histogram(tamper_at) if tamper_at else _no_tamper()) as mend:
        obs = Observation(tracer=Tracer(sink=sink, clock=clock))
        auditor = TheoryAuditor(theorem4_limit=limit).install(obs)
        if mend is not None:
            obs.engine_observers.append(mend)
        if target == "pdm":
            machine = ParallelDiskMachine(memory=512, block=4, disks=4)
            data = workloads.by_name("adversarial_bucket_skew", 4000, seed=1)
            res = balance_sort_pdm(machine, data, check_invariants=False, obs=obs)
            report = auditor.finish_pdm(machine, res)
        else:
            machine = ParallelHierarchies(27, model="bt", cost_fn=PowerCost(alpha=0.5))
            data = workloads.by_name("uniform", 1200, seed=0)
            res = balance_sort_hierarchy(machine, data, obs=obs)
            report = auditor.finish_hierarchy(machine, res)
        obs.close()
    trace, _ = obs.tracer.payload_events()
    return {
        "trace": expand_trace(trace),
        "metrics": obs.registry.export(),
        "rounds_checked": auditor.rounds_checked,
        "worst_factor": auditor.worst_factor,
        "report": report.to_dict(),
    }


@contextmanager
def _no_tamper():
    yield None


def _ticking():
    ticks = itertools.count()
    return lambda: next(ticks) * 0.001


class _Tee:
    """A sink that keeps what it forwards to the sinks behind it."""

    def __init__(self, *sinks):
        self.sinks = sinks
        self.events = []

    def emit(self, event):
        self.events.append(event)
        for sink in self.sinks:
            sink.emit(event)

    def close(self):
        for sink in self.sinks:
            sink.close()


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

    @pytest.mark.parametrize("cell", AUDIT_CELLS, ids=lambda c: c[0])
    def test_audit_fires_identically(self, cell):
        """Each violation, its place in the trace, the audit gauges and
        ``rounds_checked`` match the per-round auditor's."""
        _, target, limit, tamper_at = cell
        with use_obs("dicts"):
            classic = audited_run(target, limit, tamper_at)
        columnar = audited_run(target, limit, tamper_at)
        assert canon(classic) == canon(columnar)
        report = columnar["report"]
        assert report["violations"] and not report["ok"]
        check = "invariant2" if tamper_at else "theorem4"
        assert {v["check"] for v in report["violations"]} == {check}
        gauges = columnar["metrics"]["audit"]["gauges"]
        assert gauges["rounds_checked"]["value"] == columnar["rounds_checked"] > 0
        # Each violation comes right after its round's balance.round event.
        events = columnar["trace"]
        at = [i for i, e in enumerate(events) if e.get("name") == "audit.violation"]
        assert len(at) == len(report["violations"])
        for i in at:
            prev = events[i - 1]
            while prev.get("name") == "audit.violation":
                i -= 1
                prev = events[i - 1]
            assert prev["name"] == "balance.round"
            assert prev["attrs"]["round"] == events[i]["attrs"]["round"]

    def test_ticking_clock_sinks_get_the_same_events(self, tmp_path):
        """``--trace-out``'s JSONL sink and ``--live``'s progress sink see
        the same dicts in the same order, on a clock that ticks per read."""
        seen = {}
        for mode in ("dicts", "columnar"):
            writer = TelemetryWriter(str(tmp_path / f"{mode}.tel"), source="cell")
            progress = ProgressSink(writer, every=64, interval=float("inf"))
            path = tmp_path / f"{mode}.jsonl"
            tee = _Tee(JsonlSink(str(path)), progress)
            with use_obs(mode):
                run = audited_run("pdm", 0.5, None, sink=tee, clock=_ticking())
            writer.close()
            assert tee.events == run["trace"]
            seen[mode] = (tee.events, path.read_bytes(), progress.events,
                          progress.rounds, progress.spans, progress.balance_rounds,
                          progress.max_balance_factor)
        assert seen["dicts"] == seen["columnar"]
        assert any(e["ts"] for e in seen["columnar"][0])

    def test_real_clock_sinks_get_the_journal(self, tmp_path):
        """On ``perf_counter`` (no two runs alike) the sinks get exactly
        the journal's events, which its payload form expands back to."""
        writer = TelemetryWriter(str(tmp_path / "tel"), source="cell")
        progress = ProgressSink(writer, every=64, interval=float("inf"))
        path = tmp_path / "trace.jsonl"
        tee = _Tee(JsonlSink(str(path)), progress)
        obs = Observation(tracer=Tracer(sink=tee))
        TheoryAuditor(theorem4_limit=0.5).install(obs)
        machine = ParallelDiskMachine(memory=512, block=4, disks=4)
        balance_sort_pdm(machine, workloads.uniform(3000, seed=2), obs=obs,
                         check_invariants=False)
        obs.close()
        writer.close()
        events = obs.tracer.events
        assert tee.events == events
        assert expand_trace(obs.tracer.payload_events()[0]) == events
        assert [json.loads(line) for line in path.read_text().splitlines()] == events
        assert progress.events == len(events)
        assert any(e["name"] == "audit.violation" for e in events)


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

    def test_matrix_audit_state_parity(self):
        """After every update, the Python upkeep's O(1) max factor and
        invariant answers equal the walks over the compiled state."""
        from repro.core.matrices import BalanceMatrices

        from .test_matrices import random_updates

        for seed, s, hp in [(0, 5, 2), (1, 19, 4), (2, 7, 8)]:
            python, compiled = BalanceMatrices(s, hp), BalanceMatrices(s, hp)
            python.enable_incremental()
            compiled.enable_incremental()
            assert compiled.enable_compiled(kernels.ROUND_OPS)
            for add, b, h in random_updates(seed, s, hp, 300):
                for mat in (python, compiled):
                    (mat.add_block if add else mat.remove_block)(b, h)
                assert compiled.max_factor is None
                assert python.max_factor == compiled.max_balance_factor()
                assert python.invariant_1_ok() == compiled.invariant_1_ok()
                assert python.invariant_2_ok() == compiled.invariant_2_ok()
                assert python._alist == compiled._alist

    @pytest.mark.parametrize("cell", AUDIT_CELLS, ids=lambda c: c[0])
    def test_audit_state_parity(self, monkeypatch, cell):
        """The engine's audit reads the compiled path's walks where the
        Python path reads its O(1) indexes: same violations, same trace."""
        _, target, limit, tamper_at = cell
        with monkeypatch.context() as m:
            m.setattr(kernels, "ROUND_OPS", None)
            python = audited_run(target, limit, tamper_at)
        compiled = audited_run(target, limit, tamper_at)
        assert canon(python) == canon(compiled)

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
