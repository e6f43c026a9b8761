"""The window feed: one ``BalanceEngine.feed`` call per gather window.

``feed(records, tracks=counts)`` groups a whole window of tracks at once
and returns one list of queue entries per track.  The contract is that
enqueueing those lists track by track is indistinguishable from feeding
each track on its own.  Two checks pin it:

* window calls against per-track calls, on random records, pivots,
  block sizes, channel counts and track splits (empty tracks included),
  with carries crossing calls;
* both against :func:`reference_feed`, a per-record model of Algorithm 3
  steps 1–2 kept here as the oracle.

The streaming side (``read_run_batches(..., window_map=...)``) must hand
the hook exactly the records the plain reader yields, with the memory
ledger moving at the same yield points, fused or round at a time
(``tests/io_reference.py``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import workloads
from repro.core.balance import BalanceEngine
from repro.core.streams import read_run_batches
from repro.pdm import ParallelDiskMachine, VirtualDisks
from repro.records import composite_keys, make_records

from .io_reference import use_io


def reference_feed(records, pivots, vb, tracks, held):
    """Per-record model: bucket each record, emit a block at every VB-th.

    ``held[b]`` is bucket ``b``'s list of not-yet-blocked records (carried
    across calls).  Within a track, buckets are visited in ascending order
    and each bucket's records in arrival order.  Returns one list of
    ``(bucket, block bytes, fill)`` per track.
    """
    # A record's bucket is the number of pivots not above its composite key.
    bucket = [sum(p <= k for p in pivots) for k in composite_keys(records).tolist()]
    out = []
    pos = 0
    for count in tracks:
        emitted = []
        span = range(pos, pos + count)
        for b in range(len(held)):
            for i in span:
                if bucket[i] == b:
                    held[b].append(records[i : i + 1])
                    if len(held[b]) == vb:
                        emitted.append((b, np.concatenate(held[b]).tobytes(), vb))
                        held[b] = []
        out.append(emitted)
        pos += count
    return out


def as_bytes(entries):
    return [(b, block.tobytes(), fill) for b, block, fill in entries]


@st.composite
def feed_cases(draw):
    hp = draw(st.sampled_from([1, 2, 4]))
    group = draw(st.integers(1, 3))
    block = draw(st.integers(1, 4))
    n = draw(st.integers(0, 300))
    keys = draw(st.lists(st.integers(0, 40), min_size=n, max_size=n))
    s = draw(st.integers(2, 8))
    pivot_keys = sorted(draw(st.lists(st.integers(0, 40), min_size=s - 1,
                                      max_size=s - 1)))
    # Composite pivots (key << 24 | rid): ties on a key split by rid.
    pivots = [(k << 24) | draw(st.integers(0, n)) for k in pivot_keys]
    pivots.sort()
    # Windows (feed calls), each cut into tracks; zeros allowed.
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=6)))
    windows = []
    start = 0
    for stop in cuts + [n]:
        size = stop - start
        k = draw(st.integers(1, 5))
        inner = sorted(draw(st.lists(st.integers(0, size), min_size=k - 1,
                                     max_size=k - 1)))
        bounds = [0] + inner + [size]
        windows.append((start, [bounds[i + 1] - bounds[i] for i in range(k)]))
        start = stop
    return hp, group, block, keys, pivots, windows


def make_engine(hp, group, block, pivots):
    machine = ParallelDiskMachine(memory=1 << 16, block=block, disks=hp * group)
    storage = VirtualDisks(machine, hp)
    return BalanceEngine(storage, np.array(pivots, dtype=np.uint64))


@settings(max_examples=150, deadline=None)
@given(feed_cases())
def test_window_feed_equals_per_track_feed_and_reference(case):
    hp, group, block, keys, pivots, windows = case
    records = make_records(np.array(keys, dtype=np.uint64))
    window_engine = make_engine(hp, group, block, pivots)
    track_engine = make_engine(hp, group, block, pivots)
    vb = window_engine.block_size
    held = [[] for _ in range(window_engine.n_buckets)]
    for start, tracks in windows:
        recs = records[start : start + sum(tracks)]
        lists = window_engine.feed(recs, tracks=tracks)
        assert len(lists) == len(tracks)
        assert window_engine.queued_blocks == 0  # a window call enqueues nothing
        expected = reference_feed(recs, pivots, vb, tracks, held)
        pos = 0
        for count, entries, want in zip(tracks, lists, expected):
            track_engine.feed(recs[pos : pos + count])
            queued = list(track_engine._queue)
            track_engine._queue.clear()
            assert as_bytes(entries) == as_bytes(queued) == want
            pos += count
    assert window_engine.bucket_record_counts.tolist() == \
        track_engine.bucket_record_counts.tolist()
    assert window_engine.stats.records_fed == len(keys)
    for carry, rest in zip(window_engine._carry, held):
        got = b"" if carry is None else carry.tobytes()
        assert got == (np.concatenate(rest).tobytes() if rest else b"")


def test_plain_feed_enqueues_and_returns_none():
    engine = make_engine(2, 2, 2, [20 << 24])
    data = make_records(np.arange(40, dtype=np.uint64))
    assert engine.feed(data) is None
    assert engine.queued_blocks == 40 // engine.block_size
    assert engine.feed(data[:0], tracks=[0, 0]) == [[], []]


# ------------------------------------------------ read_run_batches hook


def padded_bucket_run():
    """A fresh machine, its storage and a multi-round BucketRun with padding."""
    machine = ParallelDiskMachine(memory=1 << 14, block=2, disks=4)
    storage = VirtualDisks(machine, 2)
    data = workloads.uniform(403, seed=11)
    ck = np.sort(composite_keys(data))
    engine = BalanceEngine(storage, ck[[150, 290]])
    for i in range(0, data.shape[0], 16):
        part = data[i : i + 16]
        machine.mem_acquire(part.shape[0])
        engine.feed(part)
        engine.run_rounds(drain_below=4)
    runs = engine.flush()
    run = max(runs, key=lambda r: r.max_blocks_on_channel)
    assert run.max_blocks_on_channel > 2
    vb = storage.virtual_block_size
    assert sum(ref.fill for ref in run.block_refs()) < run.n_blocks * vb  # padded
    return machine, storage, run


def stream(window_map):
    """Read the padded run; record every chunk and the ledger after it."""
    machine, storage, run = padded_bucket_run()
    calls = []

    def hook(records, tracks):
        calls.append(list(tracks))
        out, pos = [], 0
        for count in tracks:
            out.append(records[pos : pos + count].tobytes())
            pos += count
        return out

    seen = []
    for item in read_run_batches(storage, run, free=True,
                                 window_map=hook if window_map else None):
        chunk, mapped = item if window_map else (item, None)
        if window_map:
            assert mapped == chunk.tobytes()
        seen.append((chunk.tobytes(), machine.memory_in_use))
        machine.mem_release(chunk.shape[0])
    return seen, calls


@pytest.mark.parametrize("io", ["fused", "rounds"], ids=["fused", "classic"])
def test_window_hook_matches_plain_reader(io):
    with use_io(io):
        plain, _ = stream(False)
        hooked, calls = stream(True)
    assert hooked == plain
    assert sum(len(c) for c in calls) == len(plain)
    if io == "fused":
        assert len(calls) == 1  # the whole run is one gather window
    else:
        assert all(len(c) == 1 for c in calls)  # one round per window
