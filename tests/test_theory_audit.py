"""Tests for the theory auditor: bounds, invariants, gauges, exit codes.

The acceptance contract from the issue: ``repro audit`` on a default PDM
sort reports the measured/Theorem-1 I/O ratio and confirms Invariants
1 & 2 held in every round and the Theorem-4 read-parallelism factor
stayed ≤ ~2 — with zero violations.  These tests pin that behaviour at
the library level (:class:`TheoryAuditor`), the report level
(:class:`AuditReport` / ``repro.audit/1``), the sweep level
(:func:`record_cell_audit` gauges), and the CLI exit-code level.
"""

import json

import numpy as np
import pytest

from repro import workloads
from repro.analysis import bounds
from repro.core.sort_hierarchy import balance_sort_hierarchy
from repro.core.sort_pdm import balance_sort_pdm
from repro.hierarchies import ParallelHierarchies
from repro.obs import (
    AUDIT_SCHEMA,
    AuditCheck,
    AuditReport,
    Observation,
    TheoryAuditor,
    record_cell_audit,
)
from repro.pdm import ParallelDiskMachine


def _pdm_audit(n=2000, disks=8, **kwargs):
    machine = ParallelDiskMachine(memory=512, block=4, disks=disks)
    data = workloads.by_name("uniform", n, seed=0)
    obs = Observation()
    auditor = TheoryAuditor(**kwargs).install(obs)
    res = balance_sort_pdm(machine, data, obs=obs, check_invariants=False)
    report = auditor.finish_pdm(machine, res)
    return machine, res, report, obs


class TestAuditorPdm:
    def test_clean_run_passes(self):
        machine, res, report, _ = _pdm_audit()
        assert report.ok
        assert report.violations == []
        assert report.target == "pdm"
        assert report.rounds_checked > 0

    def test_theorem1_ratio_matches_bound(self):
        machine, res, report, _ = _pdm_audit()
        check = report.check("theorem1.parallel_ios")
        bound = bounds.sort_io_bound(res.n_records, machine.M, machine.B,
                                     machine.D)
        assert check.bound == round(bound, 2)
        assert check.ratio == round(res.io_stats["total_ios"] / bound, 4)
        # Informational: no limit, so a large constant can't fail the audit.
        assert check.limit is None and check.ok

    def test_theorem4_within_two(self):
        _, res, report, _ = _pdm_audit()
        check = report.check("theorem4.read_parallelism")
        assert check.limit == 2.0
        assert check.measured <= 2.0 + 1e-9
        assert check.ok

    def test_bucket_bound_gates_at_one(self):
        machine, res, report, _ = _pdm_audit()
        check = report.check("partition.bucket_bound")
        assert check.limit == 1.0
        assert check.measured == round(res.max_bucket_ratio, 4) < 1.0
        assert check.ok
        # A bucket of exactly 2N/S breaks the paper's strict bound.
        res.max_bucket_ratio = 1.0
        failed = TheoryAuditor().finish_pdm(machine, res)
        assert not failed.check("partition.bucket_bound").ok
        assert not failed.ok

    def test_invariants_zero_violations(self):
        _, _, report, _ = _pdm_audit()
        for name in ("invariant1", "invariant2"):
            check = report.check(name)
            assert check.kind == "invariant"
            assert check.measured == 0
            assert check.limit == 0
            assert check.ok

    def test_rounds_checked_counts_every_engine(self):
        # The auditor hooks every BalanceEngine (all recursion levels), so
        # the round count must cover at least every match call of the run.
        _, res, report, _ = _pdm_audit()
        assert report.rounds_checked >= res.match_calls > 0

    def test_round_observations_do_not_change_measurements(self):
        machine_a = ParallelDiskMachine(memory=512, block=4, disks=8)
        machine_b = ParallelDiskMachine(memory=512, block=4, disks=8)
        data = workloads.by_name("uniform", 2000, seed=0)
        res_plain = balance_sort_pdm(machine_a, data)
        obs = Observation()
        TheoryAuditor().install(obs)
        res_audited = balance_sort_pdm(machine_b, data, obs=obs,
                                       check_invariants=False)
        assert res_audited.total_ios == res_plain.total_ios
        assert res_audited.io_stats == res_plain.io_stats

    def test_gauges_emitted_under_audit_scope(self):
        _, _, report, obs = _pdm_audit()
        gauges = obs.registry.export()["audit"]["gauges"]
        assert gauges["ok"]["value"] == 1
        assert gauges["rounds_checked"]["value"] == report.rounds_checked
        ratio = report.check("theorem1.parallel_ios").ratio
        assert gauges["theorem1.parallel_ios.ratio"]["value"] == ratio
        assert gauges["invariant1.violations"]["value"] == 0

    def test_tightened_limit_fails_the_report(self):
        # An absurdly tight Theorem-4 limit must flip ok to False through
        # the violation path, not an exception.
        _, _, report, obs = _pdm_audit(theorem4_limit=0.5)
        assert not report.ok
        assert any(v["check"] == "theorem4" for v in report.violations)
        audit = obs.registry.export()["audit"]
        assert audit["counters"]["violations"] > 0
        assert audit["gauges"]["ok"]["value"] == 0
        # Violations also land in the trace as audit.violation events.
        names = [e.get("name") for e in obs.tracer.events
                 if e.get("ev") == "event"]
        assert "audit.violation" in names


class TestAuditorHierarchy:
    def _run(self, model="hmm", cost="log", interconnect="pram", n=1200, h=27):
        from repro.hierarchies import LogCost, PowerCost, UMHCost

        cost_fn = {"log": LogCost(), "umh": UMHCost()}.get(cost)
        if cost_fn is None:
            cost_fn = PowerCost(alpha=float(cost))
        machine = ParallelHierarchies(h, model=model, cost_fn=cost_fn,
                                      interconnect=interconnect)
        data = workloads.by_name("uniform", n, seed=0)
        obs = Observation()
        auditor = TheoryAuditor().install(obs)
        res = balance_sort_hierarchy(machine, data, obs=obs)
        return auditor.finish_hierarchy(machine, res), res

    def test_hmm_log_uses_theorem2(self):
        report, res = self._run()
        assert report.ok
        check = report.check("theorem2.total_time")
        assert check.ratio is not None
        assert check.bound == round(
            bounds.theorem2_log_bound(res.n_records, 27), 2)

    def test_bt_uses_theorem3(self):
        report, res = self._run(model="bt", cost="0.5")
        check = report.check("theorem3.total_time")
        assert check.ratio is not None
        assert check.bound == round(
            bounds.theorem3_bound(res.n_records, 27, 0.5), 2)

    def test_umh_cost_has_no_closed_form_ratio(self):
        report, _ = self._run(model="umh", cost="umh")
        check = report.check("theorem2.total_time")
        assert check.ratio is None and check.bound is None
        assert "no closed-form bound" in check.detail
        assert check.ok  # informational only — never gates

    def test_hypercube_adds_interconnect_check(self):
        report, res = self._run(interconnect="hypercube", n=900, h=16)
        check = report.check("theorem2.hypercube_extra")
        assert check.bound == round(
            bounds.theorem2_hypercube_extra(res.n_records, 16), 2)
        # pram runs must not grow the check.
        pram_report, _ = self._run(n=900, h=16)
        with pytest.raises(KeyError):
            pram_report.check("theorem2.hypercube_extra")

    def test_theorem4_and_invariants_present(self):
        report, _ = self._run()
        assert report.check("theorem4.read_parallelism").ok
        assert report.check("invariant1").measured == 0
        assert report.check("invariant2").measured == 0


class TestAuditReportShape:
    def test_to_dict_schema_and_roundtrip(self):
        _, _, report, _ = _pdm_audit()
        d = report.to_dict()
        assert d["schema"] == AUDIT_SCHEMA
        assert d["ok"] is True and d["violations"] == []
        names = {c["name"] for c in d["checks"]}
        assert {"theorem1.parallel_ios", "theorem1.cpu_work",
                "theorem4.read_parallelism", "invariant1",
                "invariant2"} <= names
        json.loads(json.dumps(d))  # JSON-safe end to end

    def test_check_to_dict_omits_none_fields(self):
        d = AuditCheck(name="x", kind="invariant", measured=0).to_dict()
        assert "bound" not in d and "ratio" not in d and "limit" not in d

    def test_tables_render(self):
        _, _, report, _ = _pdm_audit()
        tables = report.tables()
        text = "\n".join(t.render() for t in tables)
        assert "theory audit" in text and "PASS" in text

    def test_violation_table_rendered_on_failure(self):
        _, _, report, _ = _pdm_audit(theorem4_limit=0.5)
        text = "\n".join(t.render() for t in report.tables())
        assert "violations" in text and "FAIL" in text

    def test_check_lookup_keyerror(self):
        report = AuditReport(target="pdm")
        with pytest.raises(KeyError):
            report.check("nope")


class TestRecordCellAudit:
    def test_gauges_merge_as_watermarks(self):
        # Two cells with different ratios through one registry must leave
        # min/max watermarks covering both — the sweep-merge contract.
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        for ratio in (3.5, 7.5):
            obs = Observation(registry=registry)
            report = AuditReport(
                target="pdm",
                checks=[AuditCheck(name="theorem1.parallel_ios", kind="bound",
                                   measured=1.0, bound=1.0, ratio=ratio)],
                rounds_checked=1,
            )
            record_cell_audit(obs, report)
        gauge = registry.export()["audit"]["gauges"][
            "theorem1.parallel_ios.ratio"]
        assert gauge["min"] == 3.5 and gauge["max"] == 7.5


class TestAuditCli:
    def test_pdm_audit_exit_zero_and_ratio_printed(self, capsys):
        from repro.cli import main

        rc = main(["audit", "--n", "2000", "--disks", "4"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "theorem1.parallel_ios" in out
        assert "audit: PASS" in out

    def test_hierarchy_audit_exit_zero(self, capsys):
        from repro.cli import main

        rc = main(["audit", "--target", "hierarchy", "--n", "1200",
                   "--h", "27"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "theorem2.total_time" in out

    def test_failing_limit_exits_nonzero(self, capsys):
        from repro.cli import main

        rc = main(["audit", "--n", "2000", "--disks", "4",
                   "--theorem4-limit", "0.5"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "audit: FAIL" in out

    def test_emit_json_carries_audit_section(self, capsys, tmp_path):
        from repro.cli import main

        path = tmp_path / "audit.json"
        rc = main(["audit", "--n", "2000", "--disks", "4",
                   "--emit-json", str(path)])
        assert rc == 0
        doc = json.loads(path.read_text())
        assert doc["audit"]["schema"] == AUDIT_SCHEMA
        assert doc["audit"]["ok"] is True
        assert doc["audit"]["violations"] == []

    def test_sort_report_includes_audit(self, capsys):
        from repro.cli import main

        rc = main(["sort", "--n", "2000", "--disks", "4", "--emit-json", "-"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["audit"]["ok"] is True
        names = {c["name"] for c in doc["audit"]["checks"]}
        assert "theorem1.parallel_ios" in names


class TestExecTaskAudit:
    def test_sort_pdm_payload_carries_audit_gauges(self):
        from repro.exec import run_task

        payload = run_task("sort_pdm", {"n": 2000, "disks": 4})
        gauges = payload["metrics"]["audit"]["gauges"]
        assert gauges["ok"]["value"] == 1
        assert gauges["theorem1.parallel_ios.ratio"]["value"] > 1.0
        assert gauges["rounds_checked"]["value"] > 0

    def test_hierarchy_payload_carries_audit_gauges(self):
        from repro.exec import run_task

        payload = run_task("hierarchy_sort", {"n": 1200, "h": 27})
        gauges = payload["metrics"]["audit"]["gauges"]
        assert gauges["ok"]["value"] == 1
        assert gauges["theorem2.total_time.ratio"]["value"] > 0
