"""Layer attribution for the traced run: self time per layer, from outside.

:class:`LayerTracer` patches the public entry points of each ``repro``
layer with thin wrappers that keep a per-thread span stack.  A wrapped
call opens a span in its layer's bucket; when the call returns, the
span's self time (its duration minus the time its child spans covered)
is added to that bucket.  Time no wrapped call claims lands in the
``unattributed_s`` root span that :meth:`LayerTracer.root` opens around
the measured region, so the buckets add up to the region's wall time
(the closing check).

A function imported by name into another module (``from .partition
import pdm_partition_elements``) is a separate binding, so every loaded
``repro.*`` module attribute that *is* the original function is rebound
to the wrapper: the call is timed at the site that makes it.  Generator
functions are timed per ``next()`` only, so the consumer's work between
items is never charged to the producer.

The wrappers pass arguments and results through untouched; counter hooks
only read lengths and counters.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
from contextlib import contextmanager
from time import perf_counter

__all__ = ["LayerTracer", "TIME_BUCKETS"]

#: Self-time buckets in report order; each is a per-layer metric (seconds).
TIME_BUCKETS = (
    "core.balance.feed_s",
    "core.balance.rounds_s",
    "core.matching.s",
    "core.partition.s",
    "core.streams.s",
    "core.sort_pdm.s",
    "pdm.machine.s",
    "pdm.store.s",
    "pram.sort_s",
    "obs.payload_s",
    "exec.runner_s",
    "exec.run_task_self_s",
    "exec.cache_s",
    "exec.fingerprint_s",
    "resilience.s",
    "perfbench.sampler_s",
    "unattributed_s",
)

_ROOT = "unattributed_s"


# Counter hooks.  "before" hooks see the call's arguments; "after" hooks
# see (self, result).  Each returns counter increments.

def _matcher_call(*_args, **_kwargs) -> dict:
    return {"core.matching.calls": 1}


def _attempt(*_args, **_kwargs) -> dict:
    return {"exec.attempts": 1}


def _store_call(_store, disks, *_args, **_kwargs) -> dict:
    return {"pdm.store.calls": 1, "pdm.store.blocks": len(disks)}


def _engine_rounds(engine, _result) -> dict:
    return {"core.balance.rounds": engine.stats.rounds}


def _fault_fired(_injector, result) -> dict:
    return {"resilience.faults_fired": 0 if result is None else 1}


_MATCH = ("before", _matcher_call)
_STORE = ("before", _store_call)

#: ``(module, qualified name, bucket, counter hook or None)``.
PATCHES = (
    ("repro.core.balance", "BalanceEngine.feed", "core.balance.feed_s", None),
    ("repro.core.balance", "BalanceEngine.bucket_ids", "core.balance.feed_s", None),
    ("repro.core.balance", "BalanceEngine.run_rounds", "core.balance.rounds_s", None),
    ("repro.core.balance", "BalanceEngine.flush", "core.balance.rounds_s",
     ("after", _engine_rounds)),
    ("repro.core.matching", "derandomized_partial_match", "core.matching.s", _MATCH),
    ("repro.core.matching", "randomized_partial_match", "core.matching.s", _MATCH),
    ("repro.core.matching", "greedy_match", "core.matching.s", _MATCH),
    ("repro.core.matching", "greedy_mincost_match", "core.matching.s", _MATCH),
    ("repro.core.partition", "pdm_partition_elements", "core.partition.s", None),
    ("repro.core.streams", "load_ordered_run", "core.streams.s", None),
    ("repro.core.streams", "write_ordered_run", "core.streams.s", None),
    ("repro.core.streams", "read_run_batches", "core.streams.s", None),
    ("repro.core.streams", "read_run_all", "core.streams.s", None),
    ("repro.core.streams", "reposition_run", "core.streams.s", None),
    ("repro.core.streams", "peek_run", "core.streams.s", None),
    ("repro.core.sort_pdm", "balance_sort_pdm", "core.sort_pdm.s", None),
    ("repro.pdm.machine", "ParallelDiskMachine.read_blocks_arr", "pdm.machine.s", None),
    ("repro.pdm.machine", "ParallelDiskMachine.write_blocks_arr", "pdm.machine.s", None),
    ("repro.pdm.machine", "ParallelDiskMachine.write_round_blocks", "pdm.machine.s", None),
    ("repro.pdm.machine", "ParallelDiskMachine.gather_blocks_arr", "pdm.machine.s", None),
    ("repro.pdm.machine", "ParallelDiskMachine.charge_read_io", "pdm.machine.s", None),
    ("repro.pdm.machine", "ParallelDiskMachine.free_blocks_arr", "pdm.machine.s", None),
    ("repro.pdm.machine", "ParallelDiskMachine.load_blocks_arr", "pdm.machine.s", None),
    ("repro.pdm.machine", "ParallelDiskMachine.flush_io_plan", "pdm.machine.s", None),
    ("repro.pdm.store", "ArenaBlockStore.read_batch", "pdm.store.s", _STORE),
    ("repro.pdm.store", "ArenaBlockStore.write_batch", "pdm.store.s", _STORE),
    ("repro.pdm.store", "ArenaBlockStore.free_batch", "pdm.store.s", _STORE),
    ("repro.pdm.store", "DictBlockStore.read_batch", "pdm.store.s", _STORE),
    ("repro.pdm.store", "DictBlockStore.write_batch", "pdm.store.s", _STORE),
    ("repro.pdm.store", "DictBlockStore.free_batch", "pdm.store.s", _STORE),
    ("repro.pram.sorting", "cole_merge_sort", "pram.sort_s", None),
    ("repro.pram.sorting", "rajasekaran_reif_radix", "pram.sort_s", None),
    ("repro.obs.tracer", "Tracer.payload_events", "obs.payload_s", None),
    ("repro.obs.metrics", "MetricsRegistry.export", "obs.payload_s", None),
    ("repro.exec.runner", "ParallelRunner.map", "exec.runner_s", None),
    ("repro.exec.runner", "_execute", "exec.runner_s", ("before", _attempt)),
    ("repro.exec.tasks", "run_task", "exec.run_task_self_s", None),
    ("repro.exec.cache", "ResultCache.get", "exec.cache_s", None),
    ("repro.exec.cache", "ResultCache.put", "exec.cache_s", None),
    ("repro.exec.fingerprint", "fingerprint", "exec.fingerprint_s", None),
    ("repro.resilience.injector", "FaultInjector.decide", "resilience.s",
     ("after", _fault_fired)),
)


class _ThreadState:
    """One thread's span stack plus its bucket totals and counters."""

    __slots__ = ("stack", "totals", "counts")

    def __init__(self):
        self.stack: list = []
        self.totals: dict = {}
        self.counts: dict = {}

    def enter(self, bucket: str) -> None:
        self.stack.append([bucket, perf_counter(), 0.0])

    def exit(self) -> float:
        t1 = perf_counter()
        bucket, t0, child = self.stack.pop()
        elapsed = t1 - t0
        self.totals[bucket] = self.totals.get(bucket, 0.0) + elapsed - child
        if self.stack:
            self.stack[-1][2] += elapsed
        return elapsed

    def count(self, incs: dict) -> None:
        counts = self.counts
        for name, n in incs.items():
            counts[name] = counts.get(name, 0) + n


class _Root:
    """The measured region: an ``unattributed_s`` span at stack depth 0.

    Re-entrant: each entry adds its duration to ``out["wall_s"]``.
    """

    def __init__(self, state: _ThreadState):
        self.state = state
        self.out: dict = {"wall_s": 0.0}

    def __enter__(self) -> dict:
        if self.state.stack:
            raise RuntimeError("root span opened inside another span")
        self.state.enter(_ROOT)
        return self.out

    def __exit__(self, *exc) -> bool:
        self.out["wall_s"] += self.state.exit()
        return False


class LayerTracer:
    """Install / remove the layer wrappers and collect their totals."""

    def __init__(self):
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._undo: list = []

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
        return state

    def root(self) -> _Root:
        """Context manager around the measured region; its ``out["wall_s"]``
        sums the durations of every entry."""
        return _Root(self._state())

    @contextmanager
    def span(self, bucket: str):
        """Charge the enclosed block to ``bucket`` (inside the root only)."""
        state = self._state()
        if not state.stack:
            yield
            return
        state.enter(bucket)
        try:
            yield
        finally:
            state.exit()

    def _wrap(self, fn, bucket: str, hook):
        when, counter = hook if hook is not None else (None, None)
        state_of = self._state

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                state = state_of()
                if when == "before":
                    state.count(counter(*args, **kwargs))
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        state.enter(bucket)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            state.exit()
                        yield item
                finally:
                    inner.close()

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = state_of()
            if when == "before":
                state.count(counter(*args, **kwargs))
            state.enter(bucket)
            try:
                result = fn(*args, **kwargs)
            finally:
                state.exit()
            if when == "after":
                state.count(counter(args[0], result))
            return result

        return wrapper

    def install(self) -> "LayerTracer":
        """Patch every entry point in :data:`PATCHES`."""
        if self._undo:
            raise RuntimeError("layer wrappers are already installed")
        for module_name, qualname, bucket, hook in PATCHES:
            module = importlib.import_module(module_name)
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                setattr(owner, attr, self._wrap(original, bucket, hook))
                self._undo.append((owner, attr, original))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(original, bucket, hook)
            for name, mod in list(sys.modules.items()):
                if mod is None or not (name == "repro" or name.startswith("repro.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        self._undo.append((mod, key, original))
        return self

    def uninstall(self) -> None:
        """Restore every patched binding."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def totals(self) -> tuple[dict, dict]:
        """``(seconds per bucket, counters)`` summed over all threads."""
        seconds = dict.fromkeys(TIME_BUCKETS, 0.0)
        counts: dict = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for bucket, s in state.totals.items():
                seconds[bucket] = seconds.get(bucket, 0.0) + s
            for name, n in state.counts.items():
                counts[name] = counts.get(name, 0) + n
        return seconds, counts
