"""Unit tests for the balance matrices (X, A, L), ComputeAux, invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.matrices import BalanceMatrices, compute_aux
from repro.exceptions import InvariantViolation, ParameterError


class TestComputeAux:
    def test_subtracts_row_median(self):
        X = np.array([[0, 1, 2, 3]])
        # paper median = 2nd smallest = 1; a = max(0, x - 1)
        assert compute_aux(X).tolist() == [[0, 0, 1, 2]]

    def test_all_equal_row_gives_zeros(self):
        X = np.full((2, 5), 7)
        assert compute_aux(X).tolist() == [[0] * 5, [0] * 5]

    def test_negative_clamped_to_zero(self):
        X = np.array([[10, 0, 0]])
        # median = 0; entries below median clamp at 0
        aux = compute_aux(X)
        assert aux.min() == 0

    @given(
        st.lists(
            st.lists(st.integers(0, 20), min_size=4, max_size=4),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_invariant_1_holds_for_any_histogram(self, rows):
        # At least ⌈H'/2⌉ entries of every row of A are 0 — by definition of
        # the paper median (Invariant 1 is unconditional).
        X = np.array(rows)
        aux = compute_aux(X)
        need = (X.shape[1] + 1) // 2
        assert np.all((aux == 0).sum(axis=1) >= need)


class TestBalanceMatrices:
    def test_construction_validates(self):
        with pytest.raises(ParameterError):
            BalanceMatrices(0, 4)
        with pytest.raises(ParameterError):
            BalanceMatrices(4, 0)

    def test_add_remove_block(self):
        m = BalanceMatrices(2, 4)
        m.add_block(1, 2)
        assert m.X[1, 2] == 1
        m.remove_block(1, 2)
        assert m.X[1, 2] == 0
        with pytest.raises(InvariantViolation):
            m.remove_block(1, 2)

    def test_refresh_aux_detects_over_2(self):
        m = BalanceMatrices(1, 4)
        for _ in range(3):
            m.add_block(0, 0)
        with pytest.raises(InvariantViolation):
            m.refresh_aux()

    def test_channels_with_two_and_bucket_lookup(self):
        m = BalanceMatrices(2, 4)
        # bucket 0: 2 blocks on channel 0, nothing elsewhere -> a_00 = 2
        m.add_block(0, 0)
        m.add_block(0, 0)
        m.refresh_aux()
        assert m.channels_with_two() == [0]
        assert m.bucket_with_two(0) == 0

    def test_bucket_with_two_requires_exactly_one(self):
        m = BalanceMatrices(2, 4)
        m.refresh_aux()
        with pytest.raises(InvariantViolation):
            m.bucket_with_two(0)

    def test_zero_channels_for_bucket(self):
        m = BalanceMatrices(1, 4)
        m.add_block(0, 0)
        m.add_block(0, 0)
        m.refresh_aux()
        assert m.zero_channels_for_bucket(0).tolist() == [1, 2, 3]

    def test_invariant_2_passes_when_binary(self):
        m = BalanceMatrices(2, 4)
        m.add_block(0, 0)
        m.add_block(0, 1)
        m.refresh_aux()
        m.check_invariant_2()

    def test_invariant_2_fails_on_two(self):
        m = BalanceMatrices(1, 4)
        m.add_block(0, 0)
        m.add_block(0, 0)
        m.refresh_aux()
        with pytest.raises(InvariantViolation):
            m.check_invariant_2()

    def test_location_chains(self):
        m = BalanceMatrices(2, 2)
        m.record_location(1, 0, "addr-a")
        m.record_location(1, 0, "addr-b")
        assert m.L[1][0] == ["addr-a", "addr-b"]

    def test_balance_factor_even(self):
        m = BalanceMatrices(1, 4)
        for ch in range(4):
            m.add_block(0, ch)
        assert m.balance_factor(0) == 1.0

    def test_balance_factor_skewed(self):
        m = BalanceMatrices(1, 4)
        for _ in range(4):
            m.X[0, 0] += 1  # direct manipulation: 4 blocks one channel
        # reads needed = 4; optimal = ceil(4/4) = 1
        assert m.balance_factor(0) == 4.0

    def test_balance_factor_empty_bucket(self):
        m = BalanceMatrices(1, 4)
        assert m.balance_factor(0) == 1.0

    def test_max_balance_factor(self):
        m = BalanceMatrices(2, 2)
        m.X[0] = [1, 1]
        m.X[1] = [3, 0]
        assert m.max_balance_factor() == pytest.approx(3 / 2)

    def test_bucket_sizes_blocks(self):
        m = BalanceMatrices(2, 2)
        m.X[0] = [1, 2]
        assert m.bucket_sizes_blocks().tolist() == [3, 0]


class TestTheorem4Property:
    """Invariant 2 ⟹ the factor-2 read bound, on random update traces."""

    @given(st.integers(0, 10**6), st.integers(2, 8), st.integers(2, 6))
    @settings(max_examples=40, deadline=None)
    def test_median_plus_one_implies_factor_about_2(self, seed, hp, s):
        # Construct any X satisfying x_bh <= m_b + 1 (Invariant 2's outcome)
        # and confirm the balance factor is <= 2 + small additive slack.
        rng = np.random.default_rng(seed)
        m = BalanceMatrices(s, hp)
        base = rng.integers(0, 10, size=(s, hp))
        # force the invariant: clip each row at its paper median + 1
        from repro.util.order_stats import paper_median_rows

        med = paper_median_rows(base)
        m.X = np.minimum(base, med[:, None] + 1)
        for b in range(s):
            total = m.X[b].sum()
            if total == 0:
                continue
            optimal = -(-total // hp)
            # max <= med + 1 and med <= ceil(total / ceil(H'/2) / ...) —
            # the paper's "factor of about 2": max <= 2*optimal + 1.
            assert m.X[b].max() <= 2 * optimal + 1


def random_updates(seed: int, s: int, hp: int, n: int) -> list:
    """``n`` valid ``(add?, bucket, channel)`` histogram updates."""
    rng = np.random.default_rng(seed)
    counts = np.zeros((s, hp), dtype=np.int64)
    ops = []
    for _ in range(n):
        b, h = int(rng.integers(s)), int(rng.integers(hp))
        add = counts[b, h] == 0 or rng.random() < 0.7
        counts[b, h] += 1 if add else -1
        ops.append((add, b, h))
    return ops


class TestIncrementalAuditState:
    """The O(1) answers the engine's round audit reads, against batch
    recomputation after every histogram update."""

    @given(st.integers(0, 10**6), st.integers(2, 6), st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_max_factor_and_invariants_match_batch(self, seed, hp, s):
        m = BalanceMatrices(s, hp)
        m.enable_incremental()
        batch = BalanceMatrices(s, hp)
        need = (hp + 1) // 2
        for add, b, h in random_updates(seed, s, hp, 120):
            (m.add_block if add else m.remove_block)(b, h)
            batch.X[b, h] += 1 if add else -1
            batch.A = compute_aux(batch.X)
            assert m.max_factor == batch.max_balance_factor()
            assert m.max_factor == max(m.balance_factor(i) for i in range(s))
            zeros = (batch.A == 0).sum(axis=1)
            assert m.short_rows == set(np.nonzero(zeros < need)[0].tolist()) == set()
            assert m.invariant_1_ok() == batch.invariant_1_ok()
            assert m.invariant_2_ok() == (int(batch.A.max()) <= 1)

    def test_resync_after_tampering_rebuilds_the_audit_state(self):
        m = BalanceMatrices(3, 4)
        m.enable_incremental()
        for b, h in [(0, 0), (0, 1), (1, 2)]:
            m.add_block(b, h)
        m.X[2, 3] += 5  # behind the upkeep's back
        with pytest.raises(InvariantViolation, match="exceeds 2"):
            m.refresh_aux()
        assert m.max_factor == 2.5 == m.max_balance_factor()  # 5 / ceil(5/4)
        assert m.short_rows == set() and not m.invariant_2_ok()
