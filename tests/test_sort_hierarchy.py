"""End-to-end tests for Balance Sort on parallel hierarchies (Theorems 2-3)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import workloads
from repro.analysis import bounds
from repro.core.sort_hierarchy import (
    BASE_CASE_MIN,
    balance_sort_hierarchy,
    choose_s_and_g,
)
from repro.core.streams import peek_run
from repro.exceptions import ParameterError
from repro.hierarchies import LogCost, ParallelHierarchies, PowerCost, well_behaved
from repro.obs import Observation
from repro.util import assert_is_permutation, assert_sorted

from .io_reference import use_io


def phmm(h=64, cost=None, interconnect="pram", model="hmm"):
    return ParallelHierarchies(h, model=model, cost_fn=cost or LogCost(), interconnect=interconnect)


class TestCorrectness:
    @pytest.mark.parametrize(
        "workload",
        ["uniform", "sorted", "reverse", "few_distinct", "zipf",
         "adversarial_striping", "adversarial_bucket_skew"],
    )
    def test_sorts_workloads_phmm(self, workload):
        m = phmm()
        data = workloads.by_name(workload, 3000, seed=60)
        res = balance_sort_hierarchy(m, data)
        out = peek_run(res.storage, res.output)
        assert_sorted(out, workload)
        assert_is_permutation(out, data, workload)

    @pytest.mark.parametrize("model,alpha", [("hmm", None), ("hmm", 1.0), ("bt", 0.5), ("bt", 2.0)])
    def test_sorts_all_models(self, model, alpha):
        cost = LogCost() if alpha is None else PowerCost(alpha=alpha)
        m = phmm(model=model, cost=cost)
        data = workloads.uniform(2500, seed=61)
        res = balance_sort_hierarchy(m, data)
        out = peek_run(res.storage, res.output)
        assert_sorted(out)
        assert_is_permutation(out, data)

    @pytest.mark.parametrize("interconnect", ["pram", "hypercube"])
    def test_both_interconnects(self, interconnect):
        m = phmm(interconnect=interconnect)
        data = workloads.uniform(2000, seed=62)
        res = balance_sort_hierarchy(m, data)
        assert_sorted(peek_run(res.storage, res.output))
        assert res.interconnect_time > 0

    def test_base_case_only(self):
        m = phmm(h=64)
        data = workloads.uniform(150, seed=63)  # N <= 3H = 192
        res = balance_sort_hierarchy(m, data)
        assert res.recursion_depth == 0
        assert res.base_case_calls == 1
        assert_sorted(peek_run(res.storage, res.output))

    def test_empty_and_tiny(self):
        for n in (0, 1, 3):
            m = phmm(h=8)
            data = workloads.uniform(n, seed=64)
            res = balance_sort_hierarchy(m, data)
            out = peek_run(res.storage, res.output)
            assert out.shape[0] == n
            assert_sorted(out)

    @pytest.mark.parametrize("matcher", ["derandomized", "randomized", "greedy"])
    def test_matchers(self, matcher):
        m = phmm(h=27)
        data = workloads.adversarial_striping(2000, seed=65, period=3)
        res = balance_sort_hierarchy(m, data, matcher=matcher)
        assert_sorted(peek_run(res.storage, res.output))

    def test_rejects_bad_arguments(self):
        m = phmm()
        with pytest.raises(ParameterError):
            balance_sort_hierarchy(m)

    @given(st.integers(0, 10**6), st.integers(0, 2500))
    @settings(max_examples=10, deadline=None)
    def test_property_random_sizes(self, seed, n):
        m = phmm(h=16)
        data = workloads.uniform(n, seed=seed)
        res = balance_sort_hierarchy(m, data)
        out = peek_run(res.storage, res.output)
        assert_sorted(out)
        assert_is_permutation(out, data)


class TestSmallMachines:
    """Every H sorts: no sub-problem reaches Algorithm 2 unservable."""

    @pytest.mark.parametrize("h", range(1, 9))
    def test_small_h_sorts(self, h):
        for n in (4, 13, 20, 21, 200):
            data = workloads.uniform(n, seed=h)
            res = balance_sort_hierarchy(phmm(h=h), data)
            out = peek_run(res.storage, res.output)
            assert_sorted(out, f"H={h} N={n}")
            assert_is_permutation(out, data, f"H={h} N={n}")

    @pytest.mark.parametrize("model", ["bt", "umh"])
    def test_small_h_sorts_other_models(self, model):
        data = workloads.uniform(300, seed=5)
        res = balance_sort_hierarchy(phmm(h=4, model=model), data)
        out = peek_run(res.storage, res.output)
        assert_sorted(out)
        assert_is_permutation(out, data)

    def test_base_case_merge_charge(self):
        """k > 3 batches merge in ⌈log₂ k⌉ sweeps; k ≤ 3 keeps two."""
        for h, n, sweeps in ((2, 5, 2), (2, 8, 2), (2, 9, 3), (1, 20, 5)):
            m = phmm(h=h)
            res = balance_sort_hierarchy(m, workloads.uniform(n, seed=1))
            assert res.recursion_depth == 0
            lg = np.log2(max(2, h))
            base_sorts = -(-n // h) * m.sort_time()
            assert m.interconnect_time == pytest.approx(
                base_sorts + sweeps * (n / h + lg)
            ), (h, n)


class TestParameterChoice:
    def test_choose_s_and_g_above_the_base_case(self):
        """Above max(3H, BASE_CASE_MIN), Algorithm 2 always has (S, G)."""
        for h in range(1, 65):
            for n in range(max(3 * h, BASE_CASE_MIN) + 1, 10_001):
                s, g = choose_s_and_g(n, h)
                assert s >= 3 and g >= 2

    def test_choose_s_and_g_constraint(self):
        for n in [200, 1000, 10**4, 10**6]:
            for h in [8, 64, 512]:
                s, g = choose_s_and_g(n, h)
                lg = max(1, n.bit_length() - 1)
                assert s >= 3 and g >= 2
                assert g * lg <= n // s + 1

    def test_bucket_sizes_bounded(self):
        m = phmm()
        data = workloads.zipf_like(4000, seed=66)
        res = balance_sort_hierarchy(m, data)
        assert res.max_bucket_ratio <= 1.0


class TestCostShapes:
    def test_power_cost_dominates_log_cost(self):
        data = workloads.uniform(3000, seed=67)
        m_log = phmm(cost=LogCost())
        m_pow = phmm(cost=PowerCost(alpha=1.0))
        t_log = balance_sort_hierarchy(m_log, data).memory_time
        t_pow = balance_sort_hierarchy(m_pow, data).memory_time
        assert t_pow > t_log

    def test_bt_streams_cheaper_than_hmm_for_sublinear_alpha(self):
        # Section 4.4: the touch pipeline makes streaming cost ~loglog
        # instead of x^0.5 per record.
        data = workloads.uniform(3000, seed=68)
        t_hmm = balance_sort_hierarchy(phmm(cost=PowerCost(alpha=0.5)), data).memory_time
        t_bt = balance_sort_hierarchy(
            phmm(model="bt", cost=PowerCost(alpha=0.5)), data
        ).memory_time
        assert t_bt < t_hmm

    def test_hypercube_interconnect_costs_more(self):
        data = workloads.uniform(2000, seed=69)
        t_pram = balance_sort_hierarchy(phmm(interconnect="pram"), data).interconnect_time
        t_cube = balance_sort_hierarchy(phmm(interconnect="hypercube"), data).interconnect_time
        assert t_cube > t_pram

    def test_theorem2_power_ratio_bounded(self):
        ratios = []
        for n in [2000, 4000, 8000, 16000]:
            m = phmm(cost=PowerCost(alpha=1.0))
            res = balance_sort_hierarchy(
                m, workloads.uniform(n, seed=70), check_invariants=False
            )
            ratios.append(res.total_time / bounds.theorem2_power_bound(n, 64, 1.0))
        assert max(ratios) / min(ratios) < 4.0

    def test_more_hierarchies_is_faster(self):
        data = workloads.uniform(4000, seed=71)
        t8 = balance_sort_hierarchy(phmm(h=8), data).total_time
        t64 = balance_sort_hierarchy(phmm(h=64), data).total_time
        assert t64 < t8


class TestFusedReads:
    """Hierarchy reads take the windowed executor.  Each round's step is
    charged ``max f(slot + 1)`` and its addresses recycled at the round
    itself, so slot reuse, every step cost and the working set match the
    round-at-a-time oracle (``tests/io_reference.py``)."""

    @staticmethod
    def _run(io, model, cost, h):
        with use_io(io):
            machine = ParallelHierarchies(h, model=model, cost_fn=well_behaved(cost))
            obs = Observation()
            res = balance_sort_hierarchy(
                machine, workloads.uniform(3000, seed=62), obs=obs
            )
            obs.close()
        storage = res.storage
        steps = [ev for ev in obs.tracer.events if ev.get("name") == "mem.step"]
        return dict(
            memory_time=machine.memory_time,
            parallel_steps=machine.parallel_steps,
            footprint=[storage.footprint(v) for v in range(storage.n_virtual)],
            steps=[{k: v for k, v in ev.items() if k != "ts"} for ev in steps],
            output=peek_run(storage, res.output).tobytes(),
        )

    @pytest.mark.parametrize("model", ["hmm", "bt", "umh"])
    @pytest.mark.parametrize("cost", ["log", "0.5", "umh"])
    def test_matches_round_at_a_time(self, model, cost):
        fused = self._run("fused", model, cost, h=27)
        assert fused["steps"] and fused == self._run("rounds", model, cost, h=27)


class TestTheorem4ReadsTwo:
    """Why the Theorem-4 factor reads exactly 2.0 on hierarchies.

    With H = 64 (H' = 4) a bucket of at most H' virtual blocks needs one
    read at best, so one channel holding two of its blocks makes the
    factor 2.0: every round whose factor is 2.0 gets it that way.
    Buckets of more than H' blocks peak at 1.5 against their optimum of
    ceil(blocks / H') reads.
    """

    @pytest.mark.parametrize("model, cost", [("hmm", "log"), ("bt", "0.5")])
    def test_factor_two_comes_from_buckets_within_one_read(self, model, cost):
        rows = []  # (factor, blocks in the bucket, its fullest channel, H')

        def observe(engine, info):
            x, hp = engine.matrices.X, engine.matrices.n_channels
            for row in x[x.sum(axis=1) > 0]:
                total, fullest = int(row.sum()), int(row.max())
                rows.append((fullest / -(-total // hp), total, fullest, hp))

        obs = Observation()
        obs.engine_observers.append(observe)
        m = phmm(64, cost=well_behaved(cost), model=model)
        res = balance_sort_hierarchy(m, workloads.uniform(8000, seed=0), obs=obs)
        assert res.max_balance_factor == 2.0
        assert {hp for *_, hp in rows} == {4}
        twos = [r for r in rows if r[0] == 2.0]
        assert twos and all(total <= hp and fullest == 2 for _, total, fullest, hp in twos)
        assert max(f for f, total, _, hp in rows if total > hp) == 1.5
