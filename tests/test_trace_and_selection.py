"""Tests for the trace tooling, selection pivots, write-width stats, and the
engine's no-progress (livelock) guard."""

import numpy as np
import pytest

from repro import workloads
from repro.analysis.trace import BalanceTracer, RoundSnapshot, render_matrix
from repro.core.balance import BalanceEngine
from repro.core.partition import pdm_partition_elements, selection_partition_elements
from repro.core.streams import load_ordered_run
from repro.exceptions import ParameterError
from repro.pdm import ParallelDiskMachine, VirtualDisks
from repro.records import composite_keys


def pivots_for(records, s):
    ck = np.sort(composite_keys(records))
    return ck[np.linspace(0, ck.size - 1, s + 1).astype(int)[1:-1]]


class TestTracer:
    def _run_traced(self, n=1200, chunk=32):
        machine = ParallelDiskMachine(memory=65536, block=4, disks=8)
        storage = VirtualDisks(machine, 4)
        data = workloads.adversarial_striping(n, seed=170, period=4)
        engine = BalanceEngine(storage, pivots_for(data, 4))
        tracer = BalanceTracer.attach(engine)
        for i in range(0, n, chunk):
            part = data[i : i + chunk]
            machine.mem_acquire(part.shape[0])
            engine.feed(part)
            engine.run_rounds(drain_below=0)
        engine.flush()
        return engine, tracer

    def test_snapshot_per_round(self):
        engine, tracer = self._run_traced()
        assert tracer.n_rounds == engine.stats.rounds
        assert all(isinstance(s, RoundSnapshot) for s in tracer.snapshots)

    def test_aux_always_binary_over_full_trace(self):
        _, tracer = self._run_traced()
        assert tracer.aux_always_binary()

    def test_worst_balance_factor_within_theorem4(self):
        _, tracer = self._run_traced()
        assert 1.0 <= tracer.worst_balance_factor() <= 2.5

    def test_swaps_per_round_sum(self):
        engine, tracer = self._run_traced()
        assert sum(tracer.swaps_per_round()) == engine.stats.blocks_swapped

    def test_summary_keys(self):
        _, tracer = self._run_traced(n=400)
        s = tracer.summary()
        assert set(s) == {
            "rounds", "worst_balance_factor", "total_swaps",
            "total_unprocessed", "aux_always_binary",
        }

    def test_histogram_snapshots_are_copies(self):
        engine, tracer = self._run_traced(n=400)
        tracer.snapshots[0].histogram[0, 0] = 999
        assert engine.matrices.X[0, 0] != 999

    def test_double_attach_returns_same_tracer(self):
        # Regression: attach() used to wrap _round a second time, silently
        # stacking observers and recording every round twice.
        machine = ParallelDiskMachine(memory=65536, block=4, disks=8)
        storage = VirtualDisks(machine, 4)
        data = workloads.adversarial_striping(400, seed=170, period=4)
        engine = BalanceEngine(storage, pivots_for(data, 4))
        t1 = BalanceTracer.attach(engine)
        t2 = BalanceTracer.attach(engine)
        assert t1 is t2
        machine.mem_acquire(400)
        engine.feed(data)
        engine.run_rounds(drain_below=0)
        engine.flush()
        assert t1.n_rounds == engine.stats.rounds  # no duplicate snapshots

    def test_tracer_coexists_with_obs(self):
        # The tracer rides the observer API, so it composes with attach_obs
        # without either seeing duplicated rounds.
        from repro.obs import Observation

        machine = ParallelDiskMachine(memory=65536, block=4, disks=8)
        storage = VirtualDisks(machine, 4)
        data = workloads.adversarial_striping(400, seed=171, period=4)
        engine = BalanceEngine(storage, pivots_for(data, 4))
        obs = Observation()
        engine.attach_obs(obs)
        tracer = BalanceTracer.attach(engine)
        machine.mem_acquire(400)
        engine.feed(data)
        engine.run_rounds(drain_below=0)
        engine.flush()
        assert tracer.n_rounds == engine.stats.rounds
        assert (
            obs.scope("balance").counter("rounds").value == engine.stats.rounds
        )


class TestRenderMatrix:
    def test_renders_zeros_as_dots(self):
        text = render_matrix(np.array([[0, 2], [1, 0]]))
        assert "·" in text
        assert "b0" in text and "b1" in text

    def test_row_and_column_sums(self):
        text = render_matrix(np.array([[1, 2], [3, 4]]))
        assert "| 3" in text  # row 0 sum
        assert text.splitlines()[-1].split() == ["4", "6"]

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            render_matrix(np.array([1, 2, 3]))

    def test_empty_matrix(self):
        text = render_matrix(np.zeros((0, 0), dtype=int))
        assert isinstance(text, str)  # degenerate input must not crash

    def test_single_row(self):
        text = render_matrix(np.array([[5, 0, 7]]))
        lines = text.splitlines()
        assert lines[0].startswith("b0 |")
        assert lines[0].rstrip().endswith("12")  # row sum
        assert lines[-1].split() == ["5", "0", "7"]  # column sums

    def test_no_bucket_labels_alignment(self):
        text = render_matrix(np.array([[1, 10], [100, 1]]), bucket_labels=False)
        lines = text.splitlines()
        assert not any(line.startswith("b0") for line in lines)
        # both body rows share the same width (aligned columns)
        assert len(lines[0]) == len(lines[1])


class TestSelectionPivots:
    def setup_io(self, n=3000, seed=171):
        machine = ParallelDiskMachine(memory=1024, block=4, disks=8)
        storage = VirtualDisks(machine, 2)
        data = workloads.by_name("zipf", n, seed=seed)
        run = load_ordered_run(storage, data)
        return machine, storage, data, run

    def test_identical_to_sorting_based_pivots(self):
        machine, storage, data, run = self.setup_io()
        p1 = pdm_partition_elements(machine, storage, run, 5, memoryload=512)
        machine2, storage2, _, run2 = self.setup_io()
        p2 = selection_partition_elements(machine2, storage2, run2, 5, memoryload=512)
        assert np.array_equal(p1, p2)

    def test_same_io_cost_different_cpu(self):
        machine, storage, data, run = self.setup_io()
        pdm_partition_elements(machine, storage, run, 5, memoryload=512)
        ios_sorting = machine.stats.total_ios

        machine2, storage2, _, run2 = self.setup_io()
        selection_partition_elements(machine2, storage2, run2, 5, memoryload=512)
        assert machine2.stats.total_ios == ios_sorting  # same streaming pass

    def test_parameter_validation(self):
        machine, storage, data, run = self.setup_io(n=200)
        with pytest.raises(ParameterError):
            selection_partition_elements(machine, storage, run, 1, memoryload=512)
        with pytest.raises(ParameterError):
            selection_partition_elements(machine, storage, run, 8, memoryload=16)


class TestWriteWidthStats:
    def test_no_writes_reports_zero_not_perfect(self):
        """0/0 full-stripe writes is 0.0: an empty run demonstrated no
        full-stripe behaviour and must not score a perfect 1.0 (the old
        behaviour, which let do-nothing runs top the Section-6 metric)."""
        from repro.pdm.machine import IOStats

        stats = IOStats()
        assert stats.write_ios == 0
        assert stats.write_width_fraction == 0.0
        assert stats.snapshot()["write_width_fraction"] == 0.0
        # A fresh machine (reads allowed, no writes) reports the same.
        m = ParallelDiskMachine(memory=64, block=2, disks=4)
        assert m.stats.write_width_fraction == 0.0

    def test_full_width_counted(self):
        from repro.records import make_records

        m = ParallelDiskMachine(memory=64, block=2, disks=4)
        disks = np.arange(4, dtype=np.int64)
        slots = np.zeros(4, dtype=np.int64)
        blocks = np.stack([make_records(np.arange(2, dtype=np.uint64))] * 4)
        m.mem_acquire(8)
        m.write_blocks_arr(disks, slots, blocks)
        assert m.stats.full_width_writes == 1
        assert m.stats.write_width_fraction == 1.0
        m.mem_acquire(2)
        m.write_blocks_arr(disks[:1], slots[:1], blocks[:1])
        assert m.stats.full_width_writes == 1
        assert m.stats.write_width_fraction == 0.5

    def test_sorts_mostly_full_width(self):
        # The input/output streaming dominates: most write I/Os are full
        # stripes (the Section 6 ECC-friendliness observation).
        from repro.core.sort_pdm import balance_sort_pdm

        m = ParallelDiskMachine(memory=512, block=4, disks=8)
        balance_sort_pdm(m, workloads.uniform(8000, seed=172), check_invariants=False)
        assert m.stats.write_width_fraction > 0.5


class TestLivelockGuard:
    def test_run_rounds_terminates_at_any_drain_level(self):
        # Without the no-progress guard this configuration loops forever:
        # a single tail block whose placement creates a 2 below the
        # Rebalance threshold is re-queued indefinitely.
        machine = ParallelDiskMachine(memory=65536, block=4, disks=8)
        storage = VirtualDisks(machine, 4)
        data = workloads.adversarial_striping(64, seed=173, period=4)
        engine = BalanceEngine(storage, pivots_for(data, 4))
        machine.mem_acquire(64)
        engine.feed(data)
        engine.run_rounds(drain_below=0)  # must terminate
        assert engine.queued_blocks == 0
