"""Reference oracle for the columnar event journal.

Dict-per-event recording: every PDM parallel I/O and every Balance round
builds its trace event as a dict through ``Tracer.event`` (a literal
journal record) and updates its counters, histograms and gauge at once.
This is the recording the shipped channels must match bit for bit: the
``io.read`` / ``io.write`` channels of
:meth:`~repro.pdm.machine.ParallelDiskMachine.attach_obs` and the
``balance.round`` channel of
:meth:`~repro.core.balance.BalanceEngine.attach_obs`, whose metrics are
replayed in bulk.  Differential tests run whole tasks with it patched in
at those call sites (:func:`use_obs`), the way ``io_reference.use_io``
patches the I/O executor.
"""

from contextlib import ExitStack
from unittest import mock

from repro.core.balance import BalanceEngine
from repro.pdm.machine import ParallelDiskMachine


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

    def write(width, _full_stripe):
        # The stripe flag is recomputed here, not taken from the call site.
        full = width == disks
        ios_w.inc()
        blocks_w.inc(width)
        if full:
            full_w.inc()
        hist_w.observe(width)
        event("io.write", width=width, full_stripe=full)

    self._ev_read = read
    self._ev_write = write
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


def use_obs(name: str) -> ExitStack:
    """Context manager selecting how every call site records its events.

    ``"dicts"`` patches in dict-per-event recording with eager metrics;
    ``"columnar"`` leaves the shipped channels.
    """
    stack = ExitStack()
    if name == "dicts":
        stack.enter_context(
            mock.patch.object(ParallelDiskMachine, "attach_obs", attach_pdm)
        )
        stack.enter_context(
            mock.patch.object(BalanceEngine, "attach_obs", attach_balance)
        )
    return stack
