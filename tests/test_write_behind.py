"""Full-stripe distribution writes against the per-batch write schedule.

The Balance engine holds each placed block in a per-channel FIFO until
every channel has one, then writes every head in one parallel I/O.  Only
*when* a block is written changes, never where it goes, so a sort with
the hold must match the same sort with every placement batch written at
once (the :class:`PerBatchEngine` oracle below, the engine's earlier
schedule) in everything but slots and the number of write I/Os:

* every pass's ``X``/``A``, its bucket runs (per-channel chain lengths,
  fills and contents), engine counters, balance factors and bucket
  ratios;
* the sorted output, read I/Os and blocks moved;
* no more write I/Os than the per-batch schedule, at most one block per
  virtual disk in every write, and the memory ledger never above ``M``.

The tight-shape replay pins the memory side: at the smallest ``M`` the
sort accepts, held blocks are written out on demand, so the hold refuses
no shape the per-batch schedule sorts.  Hierarchies hold nothing: their
writes are exactly the per-batch writes.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import workloads
from repro.core import sort_hierarchy, sort_pdm
from repro.core.balance import BalanceEngine, BlockRef
from repro.core.sort_hierarchy import balance_sort_hierarchy
from repro.core.sort_pdm import balance_sort_pdm
from repro.core.streams import peek_run
from repro.exceptions import ReproError
from repro.hierarchies import LogCost, ParallelHierarchies, VirtualHierarchies
from repro.hierarchies.parallel import EffectiveBTCost
from repro.pdm import ParallelDiskMachine, VirtualDisks
from repro.util import assert_is_permutation, assert_sorted


class PerBatchEngine(BalanceEngine):
    """The per-batch schedule: every placement batch is written at once."""

    def _write_batch(self, channels, entries):
        addresses = self.storage.write_round(
            channels, [e[1] for e in entries], park=True, checked=False
        )
        for (bucket, _, fill), channel, addr in zip(entries, channels, addresses):
            self.matrices.record_location(bucket, channel, BlockRef(addr, fill))
        self.stats.write_steps += 1
        self.stats.blocks_placed += len(entries)


class LoggedDisks(VirtualDisks):
    """Virtual disks that log the channels of every parallel write."""

    def __init__(self, machine, n_virtual):
        super().__init__(machine, n_virtual)
        self.writes = []

    def write_round(self, channels, blocks, park=False, checked=True):
        self.writes.append(list(channels))
        return super().write_round(channels, blocks, park=park, checked=checked)


def min_memory(d, b, s, dp):
    """The smallest M both ``_memoryload`` and the machine accept."""
    vb = b * d // dp
    return max((s + 2 * dp + 1) * vb + max(4 * s, d * b), 2 * d * b)


def pass_record(engine, runs):
    """What a distribution pass decided, slots left out."""
    mat = engine.matrices
    stats = dict(vars(engine.stats))
    stats.pop("write_steps")
    stats.pop("spill_writes")  # a write count too: the hold's, not placement
    return {
        "X": mat.X.tolist(),
        "A": mat.A.tolist(),
        "stats": stats,
        "factor": mat.max_balance_factor(),
        "counts": engine.bucket_record_counts.tolist(),
        "runs": [
            (run.bucket, run.n_records,
             [[(ref.address.vdisk, ref.fill) for ref in chain]
              for chain in run.chains],
             peek_run(engine.storage, run).tolist())
            for run in runs
        ],
    }


def sort_with(engine_cls, data, m, b, d, dp, s, matcher="derandomized"):
    """One PDM sort under ``engine_cls``: its facts, or the error it raised."""
    machine = ParallelDiskMachine(memory=m, block=b, disks=d)
    storage = LoggedDisks(machine, dp)
    passes = []

    class Recording(engine_cls):
        def flush(self):
            runs = super().flush()
            passes.append(pass_record(self, runs))
            return runs

    with mock.patch.object(sort_pdm, "BalanceEngine", Recording):
        try:
            res = balance_sort_pdm(
                machine, data, storage=storage, buckets=s, matcher=matcher,
                rng=np.random.default_rng(5),
            )
        except ReproError as exc:
            return {"error": (type(exc).__name__, str(exc))}
    io = res.io_stats
    return {
        "output": peek_run(storage, res.output).tolist(),
        "passes": passes,
        "read_ios": io["read_ios"],
        "blocks_read": io["blocks_read"],
        "blocks_written": io["blocks_written"],
        "write_ios": io["write_ios"],
        "rounds": res.engine_rounds,
        "factor": res.max_balance_factor,
        "bucket_ratio": res.max_bucket_ratio,
        "cpu": res.cpu,
        "writes": storage.writes,
        "high_water": machine.mem_snapshot()["ledger_high_water_records"],
    }


def assert_same_placement(held, per_batch, m, dp):
    """The hold changed slots and write counts, and nothing else."""
    assert "error" not in held, held.get("error")
    for name in ("output", "passes", "read_ios", "blocks_read",
                 "blocks_written", "rounds", "factor", "bucket_ratio", "cpu"):
        assert held[name] == per_batch[name], name
    assert held["write_ios"] <= per_batch["write_ios"]
    for channels in held["writes"]:
        assert len(set(channels)) == len(channels) <= dp
    assert held["high_water"] <= m


# --------------------------------------------- differential, drawn shapes


@st.composite
def sort_cases(draw):
    d = draw(st.sampled_from([1, 2, 4, 8]))
    dp = draw(st.sampled_from([x for x in (1, 2, 4, 8) if d % x == 0]))
    b = draw(st.sampled_from([1, 2, 4]))
    s = draw(st.integers(2, 6))
    m = min_memory(d, b, s, dp) + draw(st.integers(0, 4)) * (b * d // dp)
    m += draw(st.sampled_from([0, 0, 64, 256]))
    n = draw(st.integers(0, 6)) * m + draw(st.integers(0, m))
    workload = draw(st.sampled_from(
        ["uniform", "adversarial_bucket_skew", "adversarial_striping", "few_distinct"]
    ))
    matcher = draw(st.sampled_from(["derandomized", "randomized", "greedy", "mincost"]))
    seed = draw(st.integers(0, 99))
    return d, dp, b, s, m, n, workload, matcher, seed


@settings(max_examples=60, deadline=None)
@given(sort_cases())
def test_hold_matches_per_batch_schedule(case):
    d, dp, b, s, m, n, workload, matcher, seed = case
    data = workloads.by_name(workload, n, seed=seed)
    args = (data, m, b, d, dp, s, matcher)
    per_batch = sort_with(PerBatchEngine, *args)
    held = sort_with(BalanceEngine, *args)
    if "error" in per_batch:
        assert held == per_batch
        return
    assert_same_placement(held, per_batch, m, dp)


def test_hold_packs_the_e1_cell_writes():
    """On a Theorem-1 cell the hold writes nearly every stripe full."""
    data = workloads.by_name("uniform", 16_000, seed=1)
    per_batch = sort_with(PerBatchEngine, data, 512, 4, 4, 2, 3)
    held = sort_with(BalanceEngine, data, 512, 4, 4, 2, 3)
    assert_same_placement(held, per_batch, 512, 2)
    full = sum(len(w) == 2 for w in held["writes"])
    assert full / len(held["writes"]) > 0.95
    assert held["write_ios"] < 0.85 * per_batch["write_ios"]


# ------------------------------------------------------ tight shapes


def tight_shapes():
    """The 468-shape probe: every D' dividing D (at most 8), M at the
    smallest accepted value and 1 and 3 virtual blocks above it."""
    for d in (2, 4, 8, 16):
        for b in (1, 2, 4):
            for s in (3, 5):
                for dp in (x for x in (1, 2, 4, 8) if d % x == 0):
                    for extra in (0, 1, 3):
                        m = min_memory(d, b, s, dp) + extra * (b * d // dp)
                        for workload in ("uniform", "adversarial_bucket_skew"):
                            yield d, b, s, dp, m, workload


TIGHT = list(tight_shapes())


def held_sort(d, b, s, dp, m, workload):
    machine = ParallelDiskMachine(memory=m, block=b, disks=d)
    data = workloads.by_name(workload, 6 * m, seed=3)
    res = balance_sort_pdm(
        machine, data, virtual_disks=dp, buckets=s, check_invariants=True
    )
    assert machine.mem_snapshot()["ledger_high_water_records"] <= m
    assert machine.mem_spill is None  # the pass cleared its hook
    out = peek_run(res.storage, res.output)
    assert_sorted(out)
    assert_is_permutation(out, data)


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(TIGHT))
# The shapes that spill most, and one a guard keeping room for only the
# next read round refused (``memory overflow: 112 + 32 > M=128``).
@example((16, 4, 3, 8, 224, "adversarial_bucket_skew"))
@example((16, 4, 5, 8, 248, "uniform"))
@example((16, 1, 3, 8, 56, "uniform"))
@example((8, 2, 3, 8, 56, "uniform"))
@example((8, 4, 3, 4, 128, "uniform"))
def test_tight_shape_sorts_as_the_per_batch_schedule(shape):
    d, b, s, dp, m, workload = shape
    data = workloads.by_name(workload, 6 * m, seed=3)
    args = (data, m, b, d, dp, s)
    per_batch = sort_with(PerBatchEngine, *args)
    held = sort_with(BalanceEngine, *args)
    if "error" not in per_batch:
        assert_same_placement(held, per_batch, m, dp)


@pytest.mark.slow
@pytest.mark.parametrize("d, dp", sorted({(d, dp) for d, _, _, dp, _, _ in TIGHT}))
def test_tight_probe_every_shape_sorts(d, dp):
    """Every probe shape sorts with the hold (the per-batch schedule sorts
    them all), checked invariants and the ledger at or below M."""
    for shape in TIGHT:
        if shape[0] == d and shape[3] == dp:
            held_sort(*shape)


def test_a_raising_pass_clears_the_spill_hook():
    machine = ParallelDiskMachine(memory=256, block=2, disks=4)
    data = workloads.by_name("uniform", 2_000, seed=0)
    with mock.patch.object(
        sort_pdm, "read_run_batches", side_effect=RuntimeError("boom")
    ):
        with pytest.raises(RuntimeError, match="boom"):
            balance_sort_pdm(machine, data, virtual_disks=2, buckets=3)
    assert machine.mem_spill is None


# ------------------------------------------------------- hierarchies


class LoggedHierarchies(VirtualHierarchies):
    """Virtual hierarchies that log the addresses of every parallel write."""

    def __init__(self, machine):
        effective = EffectiveBTCost(machine.cost_fn) if machine.model == "bt" else None
        super().__init__(machine, effective_cost=effective)
        self.writes = []

    def write_round(self, channels, blocks, park=False, checked=True):
        addresses = super().write_round(channels, blocks, park=park, checked=checked)
        self.writes.append(list(addresses))
        return addresses


@pytest.mark.parametrize("model", ["hmm", "bt", "umh"])
def test_hierarchy_sort_writes_exactly_the_per_batch_writes(model):
    def run(engine_cls):
        cost = None if model == "umh" else LogCost()
        machine = ParallelHierarchies(27, model=model, cost_fn=cost)
        storage = LoggedHierarchies(machine)
        data = workloads.by_name("adversarial_bucket_skew", 3_000, seed=4)
        with mock.patch.object(sort_hierarchy, "BalanceEngine", engine_cls):
            res = balance_sort_hierarchy(machine, data, storage=storage)
        out = peek_run(storage, res.output).tolist()
        return storage.writes, machine.snapshot(), res.engine_rounds, out

    assert not VirtualHierarchies.has_ledger
    assert run(BalanceEngine) == run(PerBatchEngine)
