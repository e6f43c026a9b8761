"""The Balance round loop against a placement-list reference round.

``BalanceEngine._round`` places one track with a per-round list of
moved flags and index checks (tentative block ``i`` sits on channel
``i``).  The oracle here is the earlier formulation of the same round:
every tentative block becomes a mutable placement record, a
``(channel, bucket)`` dict finds the block behind each 2, and the writes
filter the placements by their swapped/dropped flags.

The reference writes behind on its own: every placed block joins a
per-channel FIFO, and once every channel has one a single write takes
every head; a closing flush writes what is left, widest write first.

Both are driven over the same queues — built so that rounds hit 2s,
several Rearrange batches and unprocessed blocks — on twin engines whose
storage logs every parallel write.  After each ``run_rounds`` (and after
the closing flush) the write logs, queues, ``X``/``A``/``L``,
``EngineStats``, the ledger and the round-observer stream must be
identical, or both runs must fail with the same error.

The Rebalance loop must also stop on a matcher that swaps nothing: a
callable matcher returning no pairs is refused with an
:class:`~repro.exceptions.InvariantViolation` naming the overloaded
channels, instead of retrying the same instance forever.
"""

import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.balance import BalanceEngine, BlockRef
from repro.core.matching import MatchingInstance, MatchResult
from repro.exceptions import InvariantViolation, ReproError
from repro.pdm import ParallelDiskMachine, VirtualDisks
from repro.records import RECORD_DTYPE

BLOCK = 2  # records per physical (and, with one disk per channel, virtual) block

# ------------------------------------------------------------ reference round

_P_BUCKET, _P_BLOCK, _P_FILL, _P_CHANNEL, _P_SWAPPED, _P_DROPPED = range(6)


def ref_run_rounds(engine, drain_below=0, drain=False):
    """``run_rounds`` with the placement-list round below."""
    while len(engine._queue) > drain_below:
        before = (len(engine._queue), engine.stats.blocks_placed)
        ref_round(engine, drain)
        if (len(engine._queue), engine.stats.blocks_placed) == before:
            ref_round(engine, True)


def ref_round(engine, drain):
    mat = engine.matrices
    k = min(engine.n_channels, len(engine._queue))
    if k == 0:
        return
    engine.stats.rounds += 1
    placements = []
    for channel in range(k):
        bucket, block, fill = engine._queue.popleft()
        placements.append([bucket, block, fill, channel, False, False])
        mat.add_block(bucket, channel)
    mat.refresh_aux()
    if engine.check_invariants:
        mat.check_invariant_1()
    swap_batches = []
    threshold = 1 if drain else max(1, engine.n_channels // 2)
    twos = mat.channels_with_two()
    by_slot = None
    if twos:
        by_slot = {(p[_P_CHANNEL], p[_P_BUCKET]): p for p in placements}
        while len(twos) >= threshold:
            take = max(1, engine.n_channels // 2)
            swap_batches.append(ref_rearrange(engine, twos[:take], by_slot))
            twos = mat.channels_with_two()
        for h in twos:
            b = mat.bucket_with_two(h)
            p = by_slot.pop((h, b), None)
            if p is None:
                raise InvariantViolation(
                    f"2 at channel {h} (bucket {b}) not caused by this round's block"
                )
            mat.remove_block(b, h)
            p[_P_DROPPED] = True
            engine._queue.appendleft((b, p[_P_BLOCK], p[_P_FILL]))
            engine.stats.blocks_unprocessed += 1
    mat.refresh_aux()
    if engine.check_invariants:
        mat.check_invariant_2()
    if by_slot is None:
        ref_write_batch(engine, placements)
    else:
        live = [p for p in placements if not p[_P_DROPPED]]
        ref_write_batch(engine, [p for p in live if not p[_P_SWAPPED]])
        for batch in swap_batches:
            ref_write_batch(engine, [p for p in batch if not p[_P_DROPPED]])
    if engine._round_observers:
        engine._notify_round()


def ref_rearrange(engine, u_set, by_slot):
    mat = engine.matrices
    if len(u_set) == 1 and engine.n_channels == 2 and engine.matcher == "derandomized":
        u = u_set[0]
        v = 1 - u
        b = mat.bucket_with_two(u)
        if int(mat.A[b, v]) == 0:
            engine.stats.match_calls += 1
            p = ref_take(by_slot, u, b)
            mat.remove_block(b, u)
            mat.add_block(b, v)
            p[_P_CHANNEL] = v
            p[_P_SWAPPED] = True
            engine.stats.blocks_swapped += 1
            mat.refresh_aux()
            return [p]
    instance = MatchingInstance.from_matrices(mat, list(u_set))
    if engine.check_invariants:
        instance.check_degree_invariant()
    result = engine._run_matcher(instance)
    engine.stats.match_calls += 1
    if result.used_fallback:
        engine.stats.match_fallbacks += 1
    bucket_of = dict(zip(instance.u_channels, instance.buckets))
    batch = []
    for u, v in result.pairs:
        b = bucket_of[u]
        p = ref_take(by_slot, u, b)
        mat.remove_block(b, u)
        mat.add_block(b, v)
        p[_P_CHANNEL] = v
        p[_P_SWAPPED] = True
        batch.append(p)
        engine.stats.blocks_swapped += 1
    mat.refresh_aux()
    return batch


def ref_take(by_slot, u, b):
    p = by_slot.pop((u, b), None)
    if p is None:
        raise InvariantViolation(
            f"swap source (channel {u}, bucket {b}) has no block this round"
        )
    return p


def ref_write_batch(engine, batch):
    """Place a batch: its blocks wait in per-channel FIFOs until every
    channel has one, then one write takes the head of every FIFO."""
    if not batch:
        return
    engine.stats.blocks_placed += len(batch)
    fifos = engine.ref_fifos
    for p in batch:
        fifos[p[_P_CHANNEL]].append(p)
    if all(fifos):
        ref_write_heads(engine)


def ref_write_heads(engine):
    heads = [fifo.pop(0) for fifo in engine.ref_fifos if fifo]
    if not heads:
        return False
    addresses = engine.storage.write_round(
        [p[_P_CHANNEL] for p in heads], [p[_P_BLOCK] for p in heads],
        park=True, checked=False,
    )
    for p, addr in zip(heads, addresses):
        engine.matrices.record_location(
            p[_P_BUCKET], p[_P_CHANNEL], BlockRef(address=addr, fill=p[_P_FILL])
        )
    engine.stats.write_steps += 1
    return True


def ref_flush(engine):
    while ref_write_heads(engine):
        pass


# ------------------------------------------------------------------ harness


class RecordingDisks(VirtualDisks):
    """Virtual disks that log every parallel write the engine issues."""

    def __init__(self, machine, n_virtual):
        super().__init__(machine, n_virtual)
        self.log = []

    def write_round(self, channels, blocks, park=False, checked=True):
        self.log.append(
            [(c, block_id(b)) for c, b in zip(channels, blocks)]
        )
        return super().write_round(channels, blocks, park=park, checked=checked)


def block_id(block):
    """Blocks are built with every ``rid`` equal to the block's number."""
    return int(block["rid"][0])


def make_engine(hp, n_buckets, matcher, check):
    machine = ParallelDiskMachine(memory=1 << 16, block=BLOCK, disks=hp)
    machine.mem_acquire(1 << 15)  # the queue's records are already in memory
    storage = RecordingDisks(machine, hp)
    pivots = np.arange(1, n_buckets, dtype=np.uint64)
    engine = BalanceEngine(storage, pivots, matcher=matcher,
                           rng=np.random.default_rng(7), check_invariants=check)
    engine.ref_fifos = [[] for _ in range(hp)]  # the reference's write-behind
    rounds = []
    engine.add_round_observer(lambda _engine, info: rounds.append(dict(info)))
    return engine, rounds


def entries_for(buckets, fills, first_id):
    out = []
    for i, (b, fill) in enumerate(zip(buckets, fills)):
        block = np.zeros(BLOCK, dtype=RECORD_DTYPE)
        block["key"] = b
        block["rid"] = first_id + i
        out.append((b, block, fill))
    return out


def snapshot(engine, rounds):
    mat = engine.matrices
    return {
        "writes": engine.storage.log,
        "queue": [(b, block_id(blk), fill) for b, blk, fill in engine._queue],
        "X": mat.X.tolist(),
        "A": mat.A.tolist(),
        "L": mat.L,
        "stats": engine.stats,
        "rounds": rounds,
        "memory": engine.storage.machine.memory_in_use,
        "io": engine.storage.machine.stats.snapshot(),
    }


def run_step(engine, runner, drain_below, drain):
    try:
        runner(drain_below=drain_below, drain=drain)
    except ReproError as exc:
        return type(exc).__name__, str(exc)
    return None


@st.composite
def round_cases(draw):
    hp = draw(st.sampled_from([1, 2, 3, 4, 8]))
    matcher = draw(st.sampled_from(["derandomized", "randomized", "greedy", "mincost"]))
    check = draw(st.booleans())
    n_buckets = draw(st.integers(1, 6))
    steps = []
    for _ in range(draw(st.integers(1, 4))):
        buckets = []
        for _ in range(draw(st.integers(1, 6))):
            shape = draw(st.sampled_from(["diagonal", "pinned", "run", "random"]))
            if shape == "diagonal":
                # Bucket c on channel c, round after round: every row
                # overloads one channel at once — many 2s, several
                # Rearrange batches.
                row = [c % n_buckets for c in range(hp)]
            elif shape == "pinned":
                # One bucket pinned to one channel among distinct others:
                # a lone 2, left unprocessed below the ⌊H'/2⌋ threshold.
                b = draw(st.integers(0, n_buckets - 1))
                row = [b] + [(b + 1 + c) % n_buckets for c in range(hp - 1)]
            elif shape == "run":
                row = [draw(st.integers(0, n_buckets - 1))] * hp
            else:
                row = draw(st.lists(st.integers(0, n_buckets - 1),
                                    min_size=1, max_size=hp))
            buckets += row * draw(st.integers(1, 3))
        fills = draw(st.lists(st.integers(1, BLOCK), min_size=len(buckets),
                              max_size=len(buckets)))
        drain_below = draw(st.integers(0, 2 * hp))
        drain = draw(st.booleans())
        steps.append((buckets, fills, drain_below, drain))
    return hp, matcher, check, n_buckets, steps


@settings(max_examples=200, deadline=None)
@given(round_cases())
def test_round_loop_matches_reference_round(case):
    hp, matcher, check, n_buckets, steps = case
    engine, engine_rounds = make_engine(hp, n_buckets, matcher, check)
    oracle, oracle_rounds = make_engine(hp, n_buckets, matcher, check)
    next_id = 0
    steps = steps + [([], [], 0, True)]  # end drained: every block placed
    for buckets, fills, drain_below, drain in steps:
        engine.enqueue(entries_for(buckets, fills, next_id))
        oracle.enqueue(entries_for(buckets, fills, next_id))
        next_id += len(buckets)
        got = run_step(engine, engine.run_rounds, drain_below, drain)
        want = run_step(oracle, lambda **kw: ref_run_rounds(oracle, **kw),
                        drain_below, drain)
        assert got == want
        assert snapshot(engine, engine_rounds) == snapshot(oracle, oracle_rounds)
        if got is not None:
            return
    assert engine.queued_blocks == 0
    engine.flush()
    ref_flush(oracle)
    assert snapshot(engine, engine_rounds) == snapshot(oracle, oracle_rounds)
    assert engine.storage.machine.memory_in_use == (1 << 15) - BLOCK * len(
        [ref for row in engine.matrices.L for chain in row for ref in chain]
    )


def test_queue_shapes_reach_every_branch():
    """The generated shapes do force 2s, swap batches and unprocessed blocks."""
    engine, rounds = make_engine(8, 8, "derandomized", True)
    engine.enqueue(entries_for(list(range(8)) * 6, [BLOCK] * 48, 0))  # diagonal
    engine.run_rounds(drain_below=0, drain=True)
    assert engine.stats.blocks_swapped > 0
    calls = [0] + [info["match_calls"] for info in rounds]
    assert max(b - a for a, b in zip(calls, calls[1:])) >= 2  # 2+ batches in a round

    engine, _ = make_engine(4, 4, "derandomized", True)
    engine.enqueue(entries_for([0, 1, 2, 3] * 4, [BLOCK] * 16, 0))
    engine.enqueue(entries_for([0, 2, 3, 1] * 3, [BLOCK] * 12, 16))
    engine.run_rounds(drain_below=4, drain=False)
    assert engine.stats.blocks_unprocessed > 0


# ------------------------------------------------------- no-progress matcher


def test_matcher_returning_no_pairs_fails_fast():
    """A Rearrange batch that swaps nothing is refused, not retried forever."""

    def no_pairs(instance, matrices, rng):
        return MatchResult(pairs=[])

    def timeout(signum, frame):  # pragma: no cover - only on a regression
        raise AssertionError("run_rounds did not return: Rebalance loop spins")

    engine, _ = make_engine(4, 4, no_pairs, True)
    # Bucket 0 always lands on channel 0: its row overloads channel 0.
    engine.enqueue(entries_for([0, 1, 2, 3] * 8, [BLOCK] * 32, 0))
    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(5)
    try:
        with pytest.raises(InvariantViolation, match=r"overloaded channels \[0"):
            engine.run_rounds(drain_below=0, drain=True)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert engine.stats.match_calls == 1
