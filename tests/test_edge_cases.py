"""Edge-case grab bag: branches the main suites don't reach."""

import numpy as np
import pytest

from repro import workloads
from repro.core.streams import load_ordered_run
from repro.exceptions import AddressError, ParameterError
from repro.pdm import ParallelDiskMachine, VirtualDisks, fully_striped_view
from repro.pdm.striping import VirtualBlockAddress
from repro.pram import PRAM, Variant, primitives
from repro.records import make_records


class TestResolveConcurrentWritesPriorities:
    def test_explicit_priorities_pick_lowest(self):
        m = PRAM(4, variant=Variant.CRCW)
        dests = np.array([5, 5, 5])
        prios = np.array([9, 1, 4])
        winners, uniq = primitives.resolve_concurrent_writes(m, dests, prios)
        assert uniq.tolist() == [5]
        assert winners.tolist() == [1]  # index of priority 1

    def test_priority_ties_break_by_position(self):
        m = PRAM(4, variant=Variant.CRCW)
        winners, _ = primitives.resolve_concurrent_writes(
            m, np.array([2, 2]), np.array([7, 7])
        )
        assert winners.tolist() == [0]


class TestStripedFileEdges:
    """A file striped over all D disks (:func:`fully_striped_view`)."""

    def test_write_stripe_wrong_length(self):
        m = ParallelDiskMachine(memory=640, block=4, disks=4)
        v = fully_striped_view(m)
        m.mem_acquire(3)
        with pytest.raises(ParameterError):
            v.write_round([0], [make_records(np.arange(3, dtype=np.uint64))])

    def test_block_address_out_of_range(self):
        m = ParallelDiskMachine(memory=640, block=4, disks=4)
        v = fully_striped_view(m)
        run = load_ordered_run(v, workloads.uniform(16, seed=210))
        (only,) = run.blocks
        with pytest.raises(AddressError):
            v.peek_many([VirtualBlockAddress(0, only.address.slot + 1)])

    def test_free_removes_blocks(self):
        m = ParallelDiskMachine(memory=640, block=4, disks=4)
        v = fully_striped_view(m)
        run = load_ordered_run(v, workloads.uniform(16, seed=210))
        v.free_arr([b.address for b in run.blocks])
        slot = run.blocks[0].address.slot
        with pytest.raises(AddressError):
            m.peek_blocks_arr(np.array([0]), np.array([slot]))


class TestMachineAddressing:
    def test_negative_slot(self):
        m = ParallelDiskMachine(memory=64, block=4, disks=4)
        with pytest.raises(AddressError, match="negative slot"):
            m.read_blocks_arr(np.array([0]), np.array([-1]))

    def test_disk_out_of_range(self):
        m = ParallelDiskMachine(memory=64, block=4, disks=4)
        with pytest.raises(AddressError, match="disk 9 out of range"):
            m.read_blocks_arr(np.array([9]), np.array([0]))

    def test_allocate_negative(self):
        m = ParallelDiskMachine(memory=64, block=4, disks=4)
        with pytest.raises(ParameterError):
            m.allocate_slots(-1)


class TestEffectiveBTCostRegimes:
    def test_all_regimes(self):
        from repro.hierarchies import LogCost, PowerCost
        from repro.hierarchies.parallel import EffectiveBTCost

        x = np.array([2**16], dtype=np.float64)
        # sublinear and log: loglog
        assert EffectiveBTCost(PowerCost(alpha=0.5))(x)[0] == pytest.approx(4.0)
        assert EffectiveBTCost(LogCost())(x)[0] == pytest.approx(4.0)
        # alpha = 1: log
        assert EffectiveBTCost(PowerCost(alpha=1.0))(x)[0] == pytest.approx(16.0)
        # alpha > 1: x^(alpha-1)
        assert EffectiveBTCost(PowerCost(alpha=2.0))(x)[0] == pytest.approx(2**16)


class TestUMHCost:
    def test_values_and_validation(self):
        from repro.hierarchies import UMHCost

        f = UMHCost(rho=2)
        assert f(np.array([1]))[0] == pytest.approx(1.0)
        assert f(np.array([8]))[0] == pytest.approx(4.0)
        with pytest.raises(ValueError):
            UMHCost(rho=1)

    def test_well_behaved_factory_umh(self):
        from repro.hierarchies.cost import UMHCost, well_behaved

        assert isinstance(well_behaved("umh"), UMHCost)


class TestPairwiseSpaceEdges:
    def test_universe_validation(self):
        from repro.util import PairwiseSpace

        with pytest.raises(ValueError):
            PairwiseSpace(0)

    def test_universe_one(self):
        from repro.util import PairwiseSpace

        sp = PairwiseSpace(1)
        assert sp.p == 2


class TestChooseSAndGSmall:
    def test_small_n_still_satisfiable(self):
        from repro.core.sort_hierarchy import choose_s_and_g

        # just above the base case of a tiny machine
        s, g = choose_s_and_g(30, 8)
        assert s >= 3 and g >= 2


class TestHypercubeCollectives:
    def test_allreduce_matches_numpy(self):
        from repro.hypercube import Hypercube

        net = Hypercube(16)
        vals = np.arange(16) ** 2
        out = net.allreduce_sum(vals)
        assert np.all(out == vals.sum())


class TestEngineDrainMode:
    def test_flush_on_engine_with_single_channel(self):
        # H' = 1: the aux matrix is identically zero (median = the entry);
        # no matching machinery should ever trigger
        from repro.core.balance import BalanceEngine
        from repro.records import composite_keys

        m = ParallelDiskMachine(memory=4096, block=4, disks=4)
        storage = VirtualDisks(m, 1)
        data = workloads.uniform(300, seed=211)
        ck = np.sort(composite_keys(data))
        engine = BalanceEngine(storage, ck[[100, 200]])
        m.mem_acquire(300)
        engine.feed(data)
        runs = engine.flush()
        assert engine.stats.match_calls == 0
        assert sum(r.n_records for r in runs) == 300
