"""Selectable compute kernels for the Balance-engine hot paths.

The per-round bookkeeping of the Balance engine (Algorithm 3) and the
conflict-resolution step of the matchers (Algorithm 7, step 2) were
originally written as straightforward per-bucket / per-vertex Python
loops.  Those loops are exactly the "CPU work" the paper charges to its
PRAM — simulating them record-by-record in Python is where the wall-clock
of large grid sweeps goes.

This module provides interchangeable **kernel backends**:

* ``"scalar"`` — the original pure-Python loops, kept verbatim as the
  reference semantics;
* ``"vectorized"`` — NumPy formulations of the same computations;
* ``"compiled"`` — the vectorized backend with its per-round matrix
  bookkeeping delegated to the optional ``repro._speedups`` C
  extension.  Present in :data:`BACKENDS` only when the extension is
  built (``python setup.py build_ext --inplace``) — membership *is* the
  build probe.  Selecting it on a host without the build is refused
  with a :class:`~repro.exceptions.ParameterError`; nothing falls back.

All backends are required (and tested, see
``tests/test_kernels_differential.py`` and
``tests/test_compiled_differential.py``) to be **bit-identical**: same
round plans, matching pairs and matrix updates, and therefore the same
I/O schedule, matrices, and ``IOStats`` on any seeded run.  The
vectorized backend is the default; select globally with
:func:`set_default_backend` / the ``REPRO_KERNEL_BACKEND`` environment
variable, per call site with the ``backend=`` parameters on
:class:`~repro.core.balance.BalanceEngine` and the matchers, or
temporarily with the :func:`use_backend` context manager.

Kernel surface
--------------
(Grouping a track's records by bucket and cutting them into virtual
blocks is not a kernel: ``BalanceEngine.feed`` does it for a whole
gather window in one NumPy pass on every backend.)

``tail_blocks``
    Slice a bucket's padded tail into (block, fill) pairs at flush time
    (previously the stripe-assembly loop in ``BalanceEngine.flush``).
``resolve_conflicts``
    Algorithm 7 step 2 — smallest-numbered ``u`` wins each contested
    ``v`` (previously the pick loop in ``matching._resolve_conflicts``).
``stream_batches``
    The round planner: split an ordered run's per-block channel sequence
    into maximal contention-free parallel-read rounds (greedy
    until-a-channel-repeats batching, previously an inline loop in
    ``streams.read_run_batches``).  Planned rounds are what the fused
    gather/scatter executor (``ParallelDiskMachine.io_plan``) prefetches.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager

import numpy as np

from ..exceptions import ParameterError

__all__ = [
    "KernelBackend",
    "ScalarBackend",
    "VectorizedBackend",
    "BACKENDS",
    "get_backend",
    "default_backend_name",
    "set_default_backend",
    "use_backend",
]


class KernelBackend:
    """Interface of a kernel backend (see module docstring)."""

    name = "abstract"

    # -- flush path ------------------------------------------------------

    @staticmethod
    def tail_blocks(padded, true_n, vb):
        """Slice a padded tail into ``(block, fill)`` pairs in order."""
        raise NotImplementedError

    # -- matching --------------------------------------------------------

    @staticmethod
    def resolve_conflicts(u_channels, picks):
        """Algorithm 7 step 2: smallest-numbered ``u`` wins each ``v``.

        ``picks[i]`` is vertex ``i``'s picked channel (−1 = no pick);
        returns ``[(u_channel, v), ...]`` ordered by vertex index.
        """
        raise NotImplementedError

    # -- round planning --------------------------------------------------

    @staticmethod
    def stream_batches(channels, n_virtual):
        """Greedy contention-free round boundaries over a channel sequence.

        ``channels`` is each block's channel in logical order; a round
        extends while its channels stay distinct and closes at the first
        repeat.  Returns the boundary list ``[0, b1, ..., len(channels)]``
        (round ``i`` spans ``[bounds[i], bounds[i+1])``); ``[0]`` for an
        empty sequence.
        """
        raise NotImplementedError


class ScalarBackend(KernelBackend):
    """The original pure-Python loops (reference semantics)."""

    name = "scalar"

    @staticmethod
    def tail_blocks(padded, true_n, vb):
        """Stride loop slicing ``vb``-wide windows with per-window fill."""
        out = []
        for i in range(0, padded.shape[0], vb):
            fill = min(vb, max(0, true_n - i))
            out.append((padded[i : i + vb], fill))
        return out

    @staticmethod
    def resolve_conflicts(u_channels, picks):
        """First-come loop over vertex indices with a seen-``v`` set."""
        pairs = []
        seen: set[int] = set()
        for i in range(picks.size):
            v = int(picks[i])
            if v >= 0 and v not in seen:
                seen.add(v)
                pairs.append((u_channels[i], v))
        return pairs

    @staticmethod
    def stream_batches(channels, n_virtual):
        """The original greedy loop: extend until a channel repeats."""
        if not channels:
            return [0]
        bounds = [0]
        seen: set[int] = set()
        for i, c in enumerate(channels):
            if c in seen:
                bounds.append(i)
                seen = {c}
            else:
                seen.add(c)
        bounds.append(len(channels))
        return bounds


class VectorizedBackend(KernelBackend):
    """NumPy formulations of the same kernels (bit-identical outputs)."""

    name = "vectorized"

    @staticmethod
    def tail_blocks(padded, true_n, vb):
        """Vectorized window starts + ``np.clip`` fills, sliced in one pass."""
        starts = np.arange(0, padded.shape[0], vb)
        fills = np.clip(true_n - starts, 0, vb)
        return [
            (padded[s : s + vb], int(f))
            for s, f in zip(starts.tolist(), fills.tolist())
        ]

    @staticmethod
    def resolve_conflicts(u_channels, picks):
        """``np.unique(return_index=True)`` keeps each ``v``'s first claimant."""
        valid = np.nonzero(picks >= 0)[0]
        if valid.size == 0:
            return []
        vs = picks[valid]
        # np.unique's return_index is the *first* occurrence of each value
        # in `vs`; first occurrence == smallest vertex index because
        # `valid` is ascending.  Re-sorting the kept indices restores the
        # scalar loop's output order (by vertex index).
        _, first = np.unique(vs, return_index=True)
        keep = np.sort(first)
        return [
            (u_channels[int(valid[i])], int(vs[i]))
            for i in keep.tolist()
        ]

    @staticmethod
    def stream_batches(channels, n_virtual):
        """Round-robin fast path; falls back to the greedy loop otherwise.

        The dominant layout (round-robin runs from ``write_ordered_run``
        / ``load_ordered_run``) makes every aligned ``H'``-wide window a
        permutation of all ``H'`` channels — then each greedy round is
        exactly that window (a full palette forces the next channel to
        repeat), so the boundaries are just the aligned strides.  The
        permutation test is two vectorized comparisons; any other layout
        (e.g. concatenated sub-runs with phase breaks) takes the scalar
        reference loop.  Bit-identical by construction.
        """
        n = len(channels)
        if n == 0:
            return [0]
        h = int(n_virtual)
        if h > 1 and n >= h:
            arr = np.asarray(channels, dtype=np.int64)
            full = (n // h) * h
            windows = arr[:full].reshape(-1, h)
            ok = bool(
                (np.sort(windows, axis=1) == np.arange(h, dtype=np.int64)).all()
            )
            if ok and full < n:
                tail = arr[full:]
                ok = np.unique(tail).size == tail.size
            if ok:
                bounds = list(range(0, n, h))
                bounds.append(n)
                return bounds
        return ScalarBackend.stream_batches(channels, n_virtual)


BACKENDS: dict[str, KernelBackend] = {
    ScalarBackend.name: ScalarBackend(),
    VectorizedBackend.name: VectorizedBackend(),
}

try:  # the optional C extension (setup.py build_ext --inplace)
    from .. import _speedups as _speedups_mod
except ImportError:  # pure-Python install: "compiled" is simply absent
    _speedups_mod = None

if _speedups_mod is not None:

    class CompiledBackend(VectorizedBackend):
        """NumPy kernels plus the ``repro._speedups`` C hot paths.

        Inherits every vectorized kernel and additionally exposes the
        compiled hook the Balance engine consults when this backend is
        the resolved one: ``round_ops`` (the incremental matrices
        bookkeeping, :class:`repro._speedups.RoundOps`).  It is
        bit-identical to the pure path — same containers, same values,
        same error behaviour — which `tests/test_compiled_differential.py`
        gates on whole payloads.  Only registered when the extension
        imported, so ``BACKENDS`` membership is the build-presence probe.
        """

        name = "compiled"
        round_ops = staticmethod(_speedups_mod.RoundOps)

    BACKENDS[CompiledBackend.name] = CompiledBackend()
    __all__.append("CompiledBackend")

_state = threading.local()


def default_backend_name() -> str:
    """The process-wide default backend name.

    Resolution order: :func:`set_default_backend` /
    :func:`use_backend` override → ``REPRO_KERNEL_BACKEND`` environment
    variable → ``"vectorized"``.
    """
    override = getattr(_state, "name", None)
    if override is not None:
        return override
    return os.environ.get("REPRO_KERNEL_BACKEND", VectorizedBackend.name)


def set_default_backend(name: str | None) -> None:
    """Set (or with ``None`` clear) the process-wide default backend."""
    if name is not None and name not in BACKENDS:
        raise ParameterError(
            f"unknown kernel backend {name!r} (have {sorted(BACKENDS)})"
        )
    _state.name = name


def get_backend(name: str | None = None) -> KernelBackend:
    """Resolve a backend: explicit ``name``, else the current default."""
    if name is None:
        name = default_backend_name()
    try:
        return BACKENDS[name]
    except KeyError:
        raise ParameterError(
            f"unknown kernel backend {name!r} (have {sorted(BACKENDS)})"
        ) from None


@contextmanager
def use_backend(name: str):
    """Temporarily make ``name`` the default backend (re-entrant)."""
    get_backend(name)  # validate eagerly
    prev = getattr(_state, "name", None)
    _state.name = name
    try:
        yield BACKENDS[name]
    finally:
        _state.name = prev
