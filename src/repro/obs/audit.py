"""Theory auditing: measured costs scored against the paper's bounds.

The paper's claims are *bounds*, not point predictions — Theorem 1's
optimal PDM I/O count, Theorems 2–3's hierarchy costs, and Theorem 4's
read-back-parallelism-within-~2x guarantee.  The observability layer
records raw counts; this module closes the loop by computing the bound
expressions from :mod:`repro.analysis.bounds` for the run's parameters and
reporting every measurement as a ``measured / bound`` constant-factor
ratio, plus live per-round verification of Invariants 1 & 2 and the
Theorem 4 factor on every round of every Balance engine.

Three layers:

* :class:`TheoryAuditor` — the live half.  :meth:`TheoryAuditor.install`
  sets ``obs.auditor``; every :class:`BalanceEngine` attached to ``obs``
  (both sorts attach every engine they construct) then tests the
  post-round matrices of every round against Invariants 1 & 2 and the
  auditor's Theorem-4 limit in O(1) — one truth test on a clean round —
  and hands a flagged round to :meth:`TheoryAuditor.check_round`.  Every
  round's factor lands in the engine's ``balance.round`` trace column,
  which the auditor reads for ``rounds_checked`` and ``worst_factor``.
  Violations never raise — they are recorded, emitted as
  ``audit.violation`` tracer events right after their round's
  ``balance.round`` event, and counted in the ``audit`` metrics scope (a
  monitor must outlive the run it monitors, unlike
  ``check_invariants=True`` which raises mid-sort).
* ``finish_pdm`` / ``finish_hierarchy`` — the scoring half: combine the
  round observations with the final result + machine parameters into an
  :class:`AuditReport` (schema ``repro.audit/1``) of bound ratios and
  pass/fail checks.
* :func:`record_cell_audit` — the sweep hook: writes the report's ratios
  as gauges under the ``audit`` metrics scope so per-cell audit results
  merge across a grid exactly like any other metric (gauge watermarks
  give the grid-wide worst case).

Bound checks are *informational* by default (``limit=None``): an
asymptotic reproduction verifies that the constant factor exists and is
stable, not a particular value.  Checks with a limit — the Theorem 4
factor (default 2.0), the PDM partition bound (every bucket below
``2N/S``) and the zero-violation invariant counts — gate
:attr:`AuditReport.ok`, which is what ``repro audit`` turns into its exit
code.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..analysis.bounds import (
    cpu_work_bound,
    sort_io_bound,
    theorem2_hypercube_extra,
    theorem2_log_bound,
    theorem2_power_bound,
    theorem3_bound,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .tracer import Observation

__all__ = [
    "AuditCheck",
    "AuditReport",
    "TheoryAuditor",
    "record_cell_audit",
    "AUDIT_SCHEMA",
]

AUDIT_SCHEMA = "repro.audit/1"

#: Slack on the Theorem-4 comparison: the factor is a ratio of two exact
#: integers stored as IEEE doubles, so equality with the limit must not
#: flip on representation noise.
_EPS = 1e-9


@dataclass
class AuditCheck:
    """One measured-vs-theory line item.

    ``kind`` is ``"bound"`` (ratio = measured/bound, informational unless
    ``limit`` is set) or ``"invariant"`` (measured = violation count,
    limit = 0).  ``ratio`` is ``None`` when no closed-form bound applies
    (e.g. a constant cost function on HMM).
    """

    name: str
    kind: str
    measured: float
    bound: float | None = None
    ratio: float | None = None
    limit: float | None = None
    ok: bool = True
    detail: str = ""

    def to_dict(self) -> dict:
        """JSON-safe view of the check; ``None`` fields are omitted."""
        d = {
            "name": self.name,
            "kind": self.kind,
            "measured": self.measured,
            "ok": self.ok,
        }
        if self.bound is not None:
            d["bound"] = self.bound
        if self.ratio is not None:
            d["ratio"] = self.ratio
        if self.limit is not None:
            d["limit"] = self.limit
        if self.detail:
            d["detail"] = self.detail
        return d


def _bound_check(name: str, measured: float, bound: float | None,
                 limit: float | None = None, detail: str = "") -> AuditCheck:
    ratio = None
    ok = True
    if bound is not None and bound > 0:
        ratio = round(measured / bound, 4)
        if limit is not None:
            ok = ratio <= limit + _EPS
    return AuditCheck(
        name=name, kind="bound", measured=measured,
        bound=round(bound, 2) if bound is not None else None,
        ratio=ratio, limit=limit, ok=ok, detail=detail,
    )


@dataclass
class AuditReport:
    """The audit surface of one run (schema ``repro.audit/1``)."""

    target: str
    params: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    violations: list = field(default_factory=list)
    rounds_checked: int = 0

    @property
    def ok(self) -> bool:
        """True iff every limited check passed and no violation was seen."""
        return not self.violations and all(c.ok for c in self.checks)

    def check(self, name: str) -> AuditCheck:
        """Look up a check by name (KeyError if absent)."""
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_dict(self) -> dict:
        """JSON-safe view of the whole report (``repro.audit/1``)."""
        return {
            "schema": AUDIT_SCHEMA,
            "target": self.target,
            "ok": self.ok,
            "params": dict(self.params),
            "rounds_checked": self.rounds_checked,
            "checks": [c.to_dict() for c in self.checks],
            "violations": list(self.violations),
        }

    def tables(self):
        """Human rendering (one aligned table, plus violations if any)."""
        from ..analysis.reporting import Table

        t = Table(
            ["check", "measured", "bound", "ratio", "limit", "ok"],
            title=f"theory audit · {self.target} "
                  f"({self.rounds_checked} rounds checked)",
        )
        for c in self.checks:
            t.add(
                c.name, c.measured,
                "-" if c.bound is None else c.bound,
                "-" if c.ratio is None else c.ratio,
                "-" if c.limit is None else c.limit,
                "PASS" if c.ok else "FAIL",
            )
        tables = [t]
        if self.violations:
            v = Table(["#", "check", "round", "detail"],
                      title=f"violations ({len(self.violations)})")
            for i, item in enumerate(self.violations, 1):
                v.add(i, item.get("check", "?"), item.get("round", "?"),
                      item.get("detail", ""))
            tables.append(v)
        return tables


class TheoryAuditor:
    """Live invariant/bound auditor for Balance Sort runs.

    Usage::

        obs = Observation(...)
        auditor = TheoryAuditor(theorem4_limit=2.0).install(obs)
        res = balance_sort_pdm(machine, data, obs=obs, check_invariants=False)
        report = auditor.finish_pdm(machine, res)
        assert report.ok

    ``check_invariants=False`` hands verification to the auditor: the
    engine stops raising mid-run and the auditor *observes* instead,
    checking Invariants 1 & 2 and the Theorem 4 balance factor against
    the post-round matrices after every matching round (the exact state
    the paper's invariants constrain).  Violations are recorded on the
    auditor, emitted as ``audit.violation`` tracer events, and counted
    under the ``audit`` metrics scope.
    """

    def __init__(self, theorem4_limit: float = 2.0):
        self.theorem4_limit = float(theorem4_limit)
        self._obs = None
        self.violations: list[dict] = []
        # The max-factor column of every watched engine's balance.round
        # channel: one entry per round.
        self._factor_columns: list[list] = []
        #: The last :class:`AuditReport` a ``finish_*`` call produced.
        self.report: AuditReport | None = None

    # ------------------------------------------------------------- install

    def install(self, obs: "Observation") -> "TheoryAuditor":
        """Make this the auditor of every engine attached to ``obs``.

        :meth:`~repro.core.balance.BalanceEngine.attach_obs` reads
        ``obs.auditor``, and both sorts attach every engine they
        construct, so one ``install`` covers every distribution pass of
        the run.  The auditor holds ``obs`` weakly (``obs.auditor`` is the
        strong link), so a finished run's observation is freed by
        reference counting, not left to the cyclic garbage collector.
        """
        self._obs = weakref.ref(obs)
        obs.auditor = self
        return self

    def watch(self, factors: list) -> float:
        """Count an engine's rounds: ``factors`` is its ``balance.round``
        channel's ``max_balance_factor`` column, one entry per round.

        Returns the factor above which the engine must hand a round to
        :meth:`check_round` (the Theorem-4 limit, with representation
        slack).
        """
        self._factor_columns.append(factors)
        return self.theorem4_limit + _EPS

    @property
    def rounds_checked(self) -> int:
        """Rounds of every watched engine so far."""
        return sum(map(len, self._factor_columns))

    @property
    def worst_factor(self) -> float:
        """The max Theorem-4 factor over every round checked (1.0 before any)."""
        return max([1.0, *(max(col) for col in self._factor_columns if col)])

    @property
    def obs(self) -> "Observation | None":
        """The observation this auditor was installed on, while it lives."""
        return None if self._obs is None else self._obs()

    # -------------------------------------------------------- round checks

    def check_round(self, engine, info: dict) -> None:
        """Record the violations of a round the engine flagged.

        The engine calls this after the round's writes complete, so
        ``engine.matrices`` reflects exactly the state Invariant 2
        constrains, and only when Invariant 1, Invariant 2 or the
        Theorem-4 limit flags the round (``info`` is the round observers'
        dict).  The vectorized detail scans only run here.
        """
        mat = engine.matrices
        if not mat.invariant_1_ok():
            need = (mat.n_channels + 1) // 2
            zeros = (mat.A == 0).sum(axis=1)
            bad = np.nonzero(zeros < need)[0]
            self._violation(
                "invariant1", info,
                detail=f"rows {bad.tolist()} have < {need} zeros in A",
            )
        if not mat.invariant_2_ok():
            rows, cols = np.nonzero(mat.A > 1)
            self._violation(
                "invariant2", info,
                detail=f"2s remain at {list(zip(rows.tolist(), cols.tolist()))[:8]}",
            )
        # Theorem 4: max balance factor within the ~2x guarantee.
        factor = float(info["max_balance_factor"])
        if factor > self.theorem4_limit + _EPS:
            self._violation(
                "theorem4", info,
                detail=f"balance factor {factor:.4f} > {self.theorem4_limit}",
            )

    def _violation(self, check: str, info: dict, detail: str) -> None:
        record = {"check": check, "round": info.get("round"), "detail": detail}
        self.violations.append(record)
        obs = self.obs
        if obs is not None:
            obs.scope("audit").counter("violations").inc()
            obs.event("audit.violation", **record)

    # ------------------------------------------------------------- scoring

    def _invariant_checks(self) -> list[AuditCheck]:
        by_check: dict[str, int] = {}
        for v in self.violations:
            by_check[v["check"]] = by_check.get(v["check"], 0) + 1
        checks = []
        for name in ("invariant1", "invariant2"):
            count = by_check.get(name, 0)
            checks.append(AuditCheck(
                name=name, kind="invariant", measured=count, limit=0,
                ok=count == 0,
                detail=f"checked after {self.rounds_checked} rounds",
            ))
        return checks

    def finish_pdm(self, machine, result, params: dict | None = None) -> AuditReport:
        """Score a finished PDM run against Theorems 1 and 4 and the
        partition bound (every bucket of every pass below ``2N/S``).

        ``machine`` is the :class:`~repro.pdm.machine.ParallelDiskMachine`
        the sort ran on (its M/B/D/P parameterize the bounds); ``result``
        the :class:`~repro.core.sort_pdm.PDMSortResult`.
        """
        n = result.n_records
        io_bound = sort_io_bound(n, machine.M, machine.B, machine.D)
        work_bound = cpu_work_bound(n, machine.P)
        factor = max(self.worst_factor, float(result.max_balance_factor))
        bucket = float(result.max_bucket_ratio)
        checks = [
            _bound_check(
                "theorem1.parallel_ios", result.io_stats["total_ios"], io_bound,
                detail=f"(N/DB)·log(N/B)/log(M/B) with N={n} M={machine.M} "
                       f"B={machine.B} D={machine.D}",
            ),
            _bound_check(
                "theorem1.cpu_work", result.cpu["work"], work_bound,
                detail=f"(N/P)·log N with P={machine.P}",
            ),
            AuditCheck(
                name="theorem4.read_parallelism", kind="bound",
                measured=round(factor, 4), bound=None, ratio=round(factor, 4),
                limit=self.theorem4_limit,
                ok=factor <= self.theorem4_limit + _EPS,
                detail="max blocks on one channel / ceil(total/H'), worst "
                       "bucket over all rounds and the final matrices",
            ),
            AuditCheck(
                name="partition.bucket_bound", kind="bound",
                measured=round(bucket, 4), bound=None, ratio=round(bucket, 4),
                limit=1.0, ok=bucket < 1.0,
                detail="worst bucket / (2N/S) over every distribution pass; "
                       "the paper's bound is strict",
            ),
            *self._invariant_checks(),
        ]
        report = AuditReport(
            target="pdm",
            params={"n": n, "memory": machine.M, "block": machine.B,
                    "disks": machine.D, "processors": machine.P},
            checks=checks,
            violations=list(self.violations),
            rounds_checked=self.rounds_checked,
        )
        return self._finish(report)

    def finish_hierarchy(self, machine, result,
                         params: dict | None = None) -> AuditReport:
        """Score a finished hierarchy run against Theorems 2–3 and 4.

        The bound is selected by the machine's model/cost-function regime:
        P-HMM with ``f = log x`` or ``x^alpha`` uses Theorem 2 (plus the
        hypercube ``T(H)`` term when the interconnect is a hypercube);
        P-BT uses Theorem 3.  Cost functions with no closed-form claim in
        the paper (``constant``, ``umh``) produce an informational check
        with no ratio.
        """
        n = result.n_records
        h = machine.h
        cost = machine.cost_fn.name
        alpha = getattr(machine.cost_fn, "alpha", None)
        bound = None
        bound_name = "theorem2.total_time"
        detail = f"model={machine.model} f={cost} H={h}"
        if machine.model == "bt":
            bound_name = "theorem3.total_time"
            bound = theorem3_bound(n, h, alpha if cost == "power" else None)
        elif machine.model == "hmm" and cost == "log":
            bound = theorem2_log_bound(n, h)
        elif machine.model == "hmm" and cost == "power":
            bound = theorem2_power_bound(n, h, alpha)
        else:
            detail += " (no closed-form bound in the paper)"
        factor = max(self.worst_factor, float(result.max_balance_factor))
        checks = [
            _bound_check(bound_name, round(result.total_time, 3), bound,
                         detail=detail),
        ]
        if getattr(machine, "interconnect", "pram") == "hypercube":
            checks.append(_bound_check(
                "theorem2.hypercube_extra", round(result.interconnect_time, 3),
                theorem2_hypercube_extra(n, h),
                detail="(N/(H log H))·log N·T(H) interconnect term",
            ))
        checks.append(AuditCheck(
            name="theorem4.read_parallelism", kind="bound",
            measured=round(factor, 4), bound=None, ratio=round(factor, 4),
            limit=self.theorem4_limit,
            ok=factor <= self.theorem4_limit + _EPS,
            detail="max blocks on one channel / ceil(total/H'), worst "
                   "bucket over all rounds and the final matrices",
        ))
        checks.extend(self._invariant_checks())
        report = AuditReport(
            target="hierarchy",
            params={"n": n, "h": h, "model": machine.model, "cost": cost,
                    **({"alpha": alpha} if cost == "power" else {})},
            checks=checks,
            violations=list(self.violations),
            rounds_checked=self.rounds_checked,
        )
        return self._finish(report)

    def _finish(self, report: AuditReport) -> AuditReport:
        self.report = report
        obs = self.obs
        if obs is not None:
            record_cell_audit(obs, report)
        return report


def record_cell_audit(obs: "Observation", report: AuditReport) -> None:
    """Write an audit report's ratios as gauges under the ``audit`` scope.

    Sweep cells call this inside their zero-clock observations; the
    gauges (``audit.<check>.ratio`` plus ``audit.ok`` / ``audit.
    rounds_checked``) then merge across the grid like every other metric
    — gauge min/max watermarks give the grid-wide best/worst constant
    factor per theorem, which is what the per-model "constant-factor gap"
    trend needs.  Ratios are pure functions of deterministic measurements
    and closed-form bounds, so cached/parallel/serial sweeps stay
    byte-identical.
    """
    scope = obs.scope("audit")
    for check in report.checks:
        if check.ratio is not None:
            scope.gauge(f"{check.name}.ratio").set(check.ratio)
        if check.kind == "invariant":
            scope.gauge(f"{check.name}.violations").set(check.measured)
    scope.gauge("ok").set(1 if report.ok else 0)
    scope.gauge("rounds_checked").set(report.rounds_checked)
