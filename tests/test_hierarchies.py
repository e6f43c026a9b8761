"""Unit tests for HMM, BT, UMH machines and the parallel hierarchies."""

import numpy as np
import pytest

from repro.exceptions import AddressError, DiskContentionError, ParameterError
from repro.hierarchies import (
    BT,
    HMM,
    UMH,
    LogCost,
    ParallelHierarchies,
    PowerCost,
    UMHCost,
    VirtualHierarchies,
    well_behaved,
)
from repro.hierarchies.bt import touch_cost, transpose_cost
from repro.hierarchies.cost import ConstantCost, paper_log
from repro.pdm.striping import VirtualBlockAddress
from repro.records import make_records


class TestCostFunctions:
    def test_paper_log_floors_at_one(self):
        assert paper_log(1) == 1.0
        assert paper_log(2) == 1.0
        assert paper_log(8) == 3.0

    def test_log_cost(self):
        f = LogCost()
        assert f(np.array([16]))[0] == 4.0

    def test_power_cost(self):
        f = PowerCost(alpha=2.0)
        assert f(np.array([3]))[0] == 9.0

    def test_power_rejects_nonpositive_alpha(self):
        with pytest.raises(ValueError):
            PowerCost(alpha=0)

    def test_scan_cost_sums_locations(self):
        f = PowerCost(alpha=1.0)
        # locations 1..4 cost 1+2+3+4
        assert f.scan_cost(0, 4) == 10.0

    def test_well_behaved_factory(self):
        assert isinstance(well_behaved("log"), LogCost)
        assert isinstance(well_behaved(0.5), PowerCost)
        assert isinstance(well_behaved("constant"), ConstantCost)
        with pytest.raises(ValueError):
            well_behaved("bogus")

    def test_well_behaved_parses_every_cli_spec(self):
        assert well_behaved("0.5") == well_behaved(0.5) == PowerCost(alpha=0.5)
        assert well_behaved("umh") == UMHCost()
        for bad in ("abc", "-1", "0", "nan", "inf", "", None):
            with pytest.raises(ParameterError):
                well_behaved(bad)


class TestHMM:
    def test_write_read_roundtrip_and_cost(self):
        h = HMM(PowerCost(alpha=1.0))
        r = make_records(np.array([5, 6], dtype=np.uint64))
        h.write(np.array([0, 3]), r)
        assert h.cost == 1 + 4  # f(1) + f(4)
        out = h.read(np.array([3]))
        assert out["key"][0] == 6
        assert h.cost == 1 + 4 + 4

    def test_read_unwritten_raises(self):
        h = HMM()
        with pytest.raises(AddressError):
            h.read(np.array([0]))

    def test_negative_address_raises(self):
        h = HMM()
        with pytest.raises(AddressError):
            h.write(np.array([-1]), make_records(np.array([1], dtype=np.uint64)))

    def test_load_initial_is_free(self):
        h = HMM()
        h.load_initial(make_records(np.arange(10, dtype=np.uint64)))
        assert h.cost == 0.0
        assert h.read(np.array([9]))["key"][0] == 9

    def test_growth_beyond_initial_capacity(self):
        h = HMM()
        addr = HMM.GROWTH * 3
        h.write(np.array([addr]), make_records(np.array([1], dtype=np.uint64)))
        assert h.read(np.array([addr]))["key"][0] == 1

    def test_log_cost_hierarchy_far_access_costs_more(self):
        h = HMM(LogCost())
        r = make_records(np.array([1], dtype=np.uint64))
        h.write(np.array([0]), r)
        near = h.cost
        h.write(np.array([10**6]), r)
        assert h.cost - near > near


class TestBT:
    def test_block_read_cost_f_plus_length(self):
        bt = BT(PowerCost(alpha=1.0))
        r = make_records(np.arange(8, dtype=np.uint64))
        bt.load_initial(r)
        bt.read_block(high_address=7, length=8)
        assert bt.cost == 8 + 7  # f(8) + (8-1)

    def test_block_write_roundtrip(self):
        bt = BT(LogCost())
        r = make_records(np.arange(4, dtype=np.uint64))
        bt.write_block(high_address=9, records=r)
        out = bt.read_block(high_address=9, length=4)
        assert np.array_equal(out["key"], r["key"])

    def test_block_below_zero_raises(self):
        bt = BT()
        with pytest.raises(AddressError):
            bt.read_block(high_address=2, length=5)

    def test_touch_cost_shapes(self):
        n = 1 << 16
        # alpha < 1: n loglog n
        assert touch_cost(n, PowerCost(alpha=0.5)) == pytest.approx(n * 4.0)
        # alpha = 1: n log n
        assert touch_cost(n, PowerCost(alpha=1.0)) == pytest.approx(n * 16.0)
        # alpha > 1: n^alpha
        assert touch_cost(n, PowerCost(alpha=2.0)) == pytest.approx(float(n) ** 2)
        assert touch_cost(0, PowerCost(alpha=0.5)) == 0.0

    def test_transpose_cost_shape(self):
        n = 1 << 16
        assert transpose_cost(n, PowerCost(alpha=0.5)) == pytest.approx(n * 4.0**4)

    def test_charge_touch_accumulates(self):
        bt = BT(PowerCost(alpha=0.5))
        bt.charge_touch(256)
        assert bt.cost > 0


class TestUMH:
    def test_level_geometry(self):
        u = UMH(rho=2, alpha=2, levels=5)
        assert u.levels[3].block_size == 8
        assert u.levels[3].n_blocks == 16
        assert u.capacity(3) == 128

    def test_transfer_down_and_up(self):
        u = UMH(rho=2, alpha=2, levels=4)
        block = make_records(np.arange(2, dtype=np.uint64))
        u.put_block(1, 0, block)
        u.transfer(bus=0, lower_frame=0, upper_frame=0, sub_index=1, direction="down")
        sub = u.get_block(0, 0)
        assert sub["key"][0] == 1  # second half of the level-1 block
        u.transfer(bus=0, lower_frame=0, upper_frame=1, sub_index=0, direction="up")
        upper = u.get_block(1, 1)
        assert upper["key"][0] == 1

    def test_bus_time_accounting(self):
        u = UMH(rho=2, alpha=2, levels=4)
        u.put_block(2, 0, make_records(np.arange(4, dtype=np.uint64)))
        u.transfer(bus=1, lower_frame=0, upper_frame=0, sub_index=0, direction="down")
        assert u.bus_time[1] == 2.0  # level-1 block of 2 items / b=1
        assert u.time == 2.0

    def test_invalid_parameters(self):
        with pytest.raises(ParameterError):
            UMH(rho=1)
        with pytest.raises(ParameterError):
            UMH(alpha=0)

    def test_bad_direction(self):
        u = UMH(levels=3)
        u.put_block(1, 0, make_records(np.arange(2, dtype=np.uint64)))
        with pytest.raises(ParameterError):
            u.transfer(0, 0, 0, 0, direction="sideways")

    def test_fetch_cost_monotone(self):
        u = UMH(rho=2, alpha=2, levels=10)
        assert u.fetch_cost(4) < u.fetch_cost(64)


class TestParallelHierarchies:
    def test_construction_and_models(self):
        ph = ParallelHierarchies(4, model="bt", cost_fn=PowerCost(alpha=0.5))
        assert all(isinstance(h, BT) for h in ph.hierarchies)
        with pytest.raises(ParameterError):
            ParallelHierarchies(4, model="nope")
        with pytest.raises(ParameterError):
            ParallelHierarchies(4, interconnect="torus")

    def test_parallel_step_charges_max(self):
        ph = ParallelHierarchies(4)
        ph.parallel_step([1.0, 5.0, 2.0])
        assert ph.memory_time == 5.0
        assert ph.parallel_steps == 1

    def test_base_sort_charge_pram_vs_hypercube(self):
        pram = ParallelHierarchies(64, interconnect="pram")
        cube = ParallelHierarchies(64, interconnect="hypercube")
        pram.charge_base_sort()
        cube.charge_base_sort()
        assert pram.interconnect_time == 6.0  # log2 64
        assert cube.interconnect_time > pram.interconnect_time

    def test_total_time_sums(self):
        ph = ParallelHierarchies(4)
        ph.parallel_step([2.0])
        ph.charge_interconnect(3.0)
        assert ph.total_time == 5.0

    def test_default_virtual_hierarchy_count(self):
        for h, n_virtual in ((64, 4), (27, 3), (8, 2)):
            assert VirtualHierarchies(ParallelHierarchies(h)).n_virtual == n_virtual


class TestVirtualHierarchies:
    def _vh(self, h=8, n_virtual=2, cost=None):
        ph = ParallelHierarchies(h, cost_fn=cost or PowerCost(alpha=1.0))
        return ph, VirtualHierarchies(ph, n_virtual)

    def test_virtual_block_size(self):
        _, vh = self._vh(8, 2)
        assert vh.virtual_block_size == 4  # H/H' records

    def test_write_read_roundtrip(self):
        ph, vh = self._vh()
        d0 = make_records(np.arange(4, dtype=np.uint64))
        d1 = make_records(np.arange(4, dtype=np.uint64) + 50)
        addrs = vh.write_round([0, 1], [d0, d1])
        out = vh.gather_rounds_arr([addrs])
        vh.charge_read_round(addrs)
        assert np.array_equal(out[0]["key"], d0["key"])
        assert np.array_equal(out[1]["key"], d1["key"])

    def test_one_parallel_step_per_op(self):
        ph, vh = self._vh()
        d = make_records(np.arange(4, dtype=np.uint64))
        vh.write_round([0, 1], [d, d])
        assert ph.parallel_steps == 1

    def test_step_cost_is_max_f_of_address(self):
        ph, vh = self._vh(cost=PowerCost(alpha=1.0))
        d = make_records(np.arange(4, dtype=np.uint64))
        vh.write_round([0], [d])  # address 0 -> f(1) = 1 per record
        assert ph.memory_time == 1.0
        vh.write_round([0], [d])  # address 1 -> f(2) = 2
        assert ph.memory_time == 3.0

    def test_contention_rejected(self):
        _, vh = self._vh()
        d = make_records(np.arange(4, dtype=np.uint64))
        with pytest.raises(DiskContentionError):
            vh.write_round([0, 0], [d, d])

    def test_address_recycling_lowest_first(self):
        _, vh = self._vh()
        d = make_records(np.arange(4, dtype=np.uint64))
        a0 = vh.write_round([0], [d])[0]
        a1 = vh.write_round([0], [d])[0]
        assert (a0.slot, a1.slot) == (0, 1)
        vh.free_arr([a0])
        a2 = vh.write_round([0], [d])[0]
        assert a2.slot == 0  # lowest free address reused

    def test_divisibility_required(self):
        ph = ParallelHierarchies(8)
        with pytest.raises(ParameterError):
            VirtualHierarchies(ph, 3)

    def test_wrong_block_size_rejected(self):
        _, vh = self._vh()
        with pytest.raises(ParameterError):
            vh.write_round([0], [make_records(np.arange(2, dtype=np.uint64))])

    @pytest.mark.parametrize("dtype", [np.float32, np.int64])
    @pytest.mark.parametrize("as_matrix", [False, True], ids=["rows", "matrix"])
    def test_non_record_blocks_rejected(self, dtype, as_matrix):
        ph, vh = self._vh()
        rows = [np.arange(4, dtype=dtype), np.arange(4, dtype=dtype)]
        with pytest.raises(TypeError, match="record dtype"):
            vh.write_round([0, 1], np.stack(rows) if as_matrix else rows)
        assert ph.parallel_steps == 0

    @pytest.mark.parametrize("vdisk", [-1, 2])
    def test_read_of_out_of_range_hierarchy_rejected(self, vdisk):
        _, vh = self._vh()
        d = make_records(np.arange(4, dtype=np.uint64))
        vh.write_round([0, 1], [d, d])
        with pytest.raises(ParameterError, match=f"virtual hierarchy {vdisk} out of range"):
            vh.gather_rounds_arr([[VirtualBlockAddress(vdisk, 0)]])
