"""Reference oracle for the columnar event journal and the round audit.

Dict-per-event recording: every PDM parallel I/O and every Balance round
builds its trace event as a dict through ``Tracer.event`` (a literal
journal record) and updates its counters, histograms and gauge at once.
This is the recording the shipped channels must match bit for bit: the
``io.read`` / ``io.write`` channels of
:meth:`~repro.pdm.machine.ParallelDiskMachine.attach_obs` and the
``balance.round`` channel of
:meth:`~repro.core.balance.BalanceEngine.attach_obs`, whose metrics are
replayed in bulk.

The round audit's reference is a per-round observer: after every round it
counts the round, walks every row of ``A`` for Invariant 1, scans ``A``
for Invariant 2 and compares the factor with the Theorem-4 limit — what
the shipped engine decides from its maintained indexes in O(1), handing
only a flagged round to :meth:`~repro.obs.audit.TheoryAuditor.check_round`.

Differential tests run whole tasks with both patched in at those call
sites (:func:`use_obs`), the way ``io_reference.use_io`` patches the I/O
executor.
"""

import weakref
from contextlib import ExitStack
from unittest import mock

from repro.core.balance import BalanceEngine
from repro.obs.audit import _EPS, TheoryAuditor
from repro.pdm.machine import ParallelDiskMachine


def _no_mark():
    pass


def attach_pdm(self, obs, scope="pdm"):
    """``ParallelDiskMachine.attach_obs``, one dict and eager metrics per I/O."""
    self._obs_scope = reg = obs.scope(scope)
    ios_r, blocks_r = reg.counter("read_ios"), reg.counter("blocks_read")
    hist_r = reg.histogram("io.read.width")
    ios_w, blocks_w = reg.counter("write_ios"), reg.counter("blocks_written")
    full_w = reg.counter("full_width_writes")
    hist_w = reg.histogram("io.write.width")
    event = obs.tracer.event
    disks = self.D

    def read(width):
        ios_r.inc()
        blocks_r.inc(width)
        hist_r.observe(width)
        event("io.read", width=width)

    widths = []

    def write(_full_stripe):
        # The stripe flag is recomputed here, not taken from the call site.
        width = widths.pop()
        full = width == disks
        ios_w.inc()
        blocks_w.inc(width)
        if full:
            full_w.inc()
        hist_w.observe(width)
        event("io.write", width=width, full_stripe=full)

    # The machine calls each channel's appenders in order: the mark, then
    # one value per key.
    self._ev_read = (_no_mark, read)
    self._ev_write = (_no_mark, widths.append, write)
    self.cpu.attach_obs(obs, scope=f"{scope}.cpu")


def attach_balance(self, obs, scope="balance"):
    """``BalanceEngine.attach_obs``, one dict and eager metrics per round."""
    reg = obs.scope(scope)
    rounds = reg.counter("rounds")
    swaps = reg.counter("swaps")
    unprocessed = reg.counter("unprocessed")
    match_calls = reg.counter("match_calls")
    swap_hist = reg.histogram("swaps.per_round")
    bf = reg.gauge("max_balance_factor")
    prev = {"swapped": 0, "unprocessed": 0, "match_calls": 0}
    event = obs.tracer.event

    def observe(engine, info):
        rounds.inc()
        swaps.inc(info["swapped"] - prev["swapped"])
        unprocessed.inc(info["unprocessed"] - prev["unprocessed"])
        match_calls.inc(info["match_calls"] - prev["match_calls"])
        swap_hist.observe(info["swapped"] - prev["swapped"])
        bf.set(info["max_balance_factor"])
        event("balance.round", **info)
        prev.update(
            swapped=info["swapped"], unprocessed=info["unprocessed"],
            match_calls=info["match_calls"],
        )

    self.add_round_observer(observe)


def install_auditor(self, obs):
    """``TheoryAuditor.install`` as a per-round observer with full scans."""
    self._obs = weakref.ref(obs)
    obs.auditor = self
    factors = []
    self._factor_columns.append(factors)

    def check(engine, info):
        factors.append(info["max_balance_factor"])
        mat = engine.matrices
        need = (mat.n_channels + 1) // 2
        rows = mat.A.tolist()
        bad = [b for b, row in enumerate(rows) if row.count(0) < need]
        if bad:
            self._violation("invariant1", info,
                            detail=f"rows {bad} have < {need} zeros in A")
        if any(a > 1 for row in rows for a in row):
            cells = [(b, h) for b, row in enumerate(rows)
                     for h, a in enumerate(row) if a > 1]
            self._violation("invariant2", info, detail=f"2s remain at {cells[:8]}")
        factor = float(info["max_balance_factor"])
        if factor > self.theorem4_limit + _EPS:
            self._violation(
                "theorem4", info,
                detail=f"balance factor {factor:.4f} > {self.theorem4_limit}",
            )

    obs.engine_observers.append(check)
    return self


def use_obs(name: str) -> ExitStack:
    """Context manager selecting how every call site records its events.

    ``"dicts"`` patches in dict-per-event recording with eager metrics
    and the per-round auditor; ``"columnar"`` leaves the shipped
    channels and the engine's own audit.
    """
    stack = ExitStack()
    if name == "dicts":
        stack.enter_context(
            mock.patch.object(ParallelDiskMachine, "attach_obs", attach_pdm)
        )
        stack.enter_context(
            mock.patch.object(BalanceEngine, "attach_obs", attach_balance)
        )
        stack.enter_context(
            mock.patch.object(TheoryAuditor, "install", install_auditor)
        )
    return stack
