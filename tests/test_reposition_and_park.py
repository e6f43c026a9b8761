"""Tests for the working-set discipline: parked writes, reposition, dual pool."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ParallelHierarchies, workloads
from repro.core.streams import (
    load_ordered_run,
    peek_run,
    read_run_all,
    reposition_run,
    write_ordered_run,
)
from repro.hierarchies import VirtualHierarchies
from repro.records import records_equal


def storage_pair(h=16, hp=4):
    machine = ParallelHierarchies(h)
    return machine, VirtualHierarchies(machine, hp)


class TestDualEndedPool:
    def test_low_alloc_takes_lowest_free(self):
        _, vh = storage_pair()
        data = workloads.uniform(6 * vh.virtual_block_size, seed=130)
        run = load_ordered_run(vh, data)  # slots 0..., low
        vh.free_arr([run.blocks[0].address, run.blocks[4].address])  # channel 0 slots 0,1
        d = data[: vh.virtual_block_size]
        addr = vh.write_round([0], [d])[0]
        assert addr.slot == 0  # lowest recycled

    def test_park_alloc_takes_highest_free(self):
        _, vh = storage_pair()
        data = workloads.uniform(6 * vh.virtual_block_size, seed=131)
        run = load_ordered_run(vh, data)
        vh.free_arr([run.blocks[0].address, run.blocks[4].address])  # slots 0 and 1 on ch 0
        d = data[: vh.virtual_block_size]
        addr = vh.write_round([0], [d], park=True)[0]
        assert addr.slot == 1  # highest recycled, not the frontier

    def test_park_extends_frontier_when_pool_empty(self):
        _, vh = storage_pair()
        d = workloads.uniform(vh.virtual_block_size, seed=132)
        a1 = vh.write_round([0], [d], park=True)[0]
        a2 = vh.write_round([0], [d], park=True)[0]
        assert a2.slot == a1.slot + 1

    def test_no_double_allocation_under_mixed_traffic(self):
        # stress the advisory-heap laziness: interleave low/park allocs and
        # frees; every live block address must be unique
        rng = np.random.default_rng(133)
        _, vh = storage_pair()
        d = workloads.uniform(vh.virtual_block_size, seed=134)
        live = []
        for step in range(300):
            if live and rng.random() < 0.4:
                idx = int(rng.integers(0, len(live)))
                vh.free_arr([live.pop(idx)])
            else:
                park = bool(rng.random() < 0.5)
                live.append(vh.write_round([0], [d], park=park)[0])
            slots = [a.slot for a in live]
            assert len(set(slots)) == len(slots)

    @given(st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_property_pool_consistency(self, seed):
        rng = np.random.default_rng(seed)
        _, vh = storage_pair()
        d = workloads.uniform(vh.virtual_block_size, seed=0)
        live = set()
        for _ in range(120):
            op = rng.random()
            if live and op < 0.45:
                addr = list(live)[int(rng.integers(0, len(live)))]
                vh.free_arr([addr])
                live.discard(addr)
            else:
                a = vh.write_round([0], [d], park=bool(op > 0.7))[0]
                assert a not in live
                live.add(a)


class TestReposition:
    def test_preserves_content_and_order(self):
        _, vh = storage_pair()
        data = workloads.uniform(130, seed=135)
        run = write_ordered_run(vh, data, park=True)
        moved = reposition_run(vh, run)
        assert records_equal(peek_run(vh, moved), data)
        assert moved.n_records == 130

    def test_moves_to_front(self):
        machine, vh = storage_pair()
        vb = vh.virtual_block_size
        # park a run high up
        filler = workloads.uniform(20 * vb, seed=136)
        f_run = write_ordered_run(vh, filler, park=True)
        data = workloads.uniform(8 * vb, seed=137)
        run = write_ordered_run(vh, data, park=True)
        high_slots = [r.address.slot for r in run.blocks]
        # free the filler: the front of the pool opens up
        vh.free_arr([r.address for r in f_run.blocks])
        moved = reposition_run(vh, run)
        new_slots = [r.address.slot for r in moved.blocks]
        assert max(new_slots) < min(high_slots)
        assert records_equal(peek_run(vh, moved), data)

    def test_frees_the_source(self):
        from repro.exceptions import AddressError

        _, vh = storage_pair()
        vb = vh.virtual_block_size
        # live filler keeps the low slots occupied, so the rewrite cannot
        # recycle the source's own addresses
        load_ordered_run(vh, workloads.uniform(8 * vb, seed=142))
        data = workloads.uniform(4 * vb, seed=138)
        run = write_ordered_run(vh, data, park=True)
        sources = [r.address for r in run.blocks]
        moved = reposition_run(vh, run)
        new = {(a.address.vdisk, a.address.slot) for a in moved.blocks}
        for src in sources:
            if (src.vdisk, src.slot) not in new:
                with pytest.raises(AddressError):
                    vh.peek_many([src])

    def test_empty_run(self):
        _, vh = storage_pair()
        from repro.core.streams import OrderedRun

        out = reposition_run(vh, OrderedRun(blocks=[], n_records=0))
        assert out.n_records == 0

    def test_charges_read_and_write(self):
        machine, vh = storage_pair()
        data = workloads.uniform(64, seed=139)
        run = load_ordered_run(vh, data)
        before = machine.memory_time
        reposition_run(vh, run)
        assert machine.memory_time > before

    def test_works_on_bucket_runs(self):
        from repro.core.balance import BalanceEngine
        from repro.records import composite_keys

        machine, vh = storage_pair()
        data = workloads.uniform(300, seed=140)
        ck = np.sort(composite_keys(data))
        pivots = ck[np.linspace(0, ck.size - 1, 4).astype(int)[1:-1]]
        engine = BalanceEngine(vh, pivots)
        engine.feed(data)
        engine.run_rounds()
        runs = engine.flush()
        total = 0
        for brun in runs:
            moved = reposition_run(vh, brun)
            total += moved.n_records
            out = peek_run(vh, moved)
            assert out.shape[0] == brun.n_records
        assert total == 300


class TestWorkingSetShrinks:
    def test_recursion_footprint_scales_with_subproblem(self):
        # After a full hierarchy sort, the frontier must stay within a small
        # multiple of the input footprint (no unbounded parked growth).
        from repro import balance_sort_hierarchy

        machine = ParallelHierarchies(64)
        n = 16_000
        data = workloads.uniform(n, seed=141)
        res = balance_sort_hierarchy(machine, data, check_invariants=False)
        z = n / (res.storage.n_virtual * res.storage.virtual_block_size)
        frontier = max(res.storage._frontier)
        assert frontier < 3.0 * z
