"""Reference oracle for :mod:`repro.core.kernels`.

The original pure-Python loops the NumPy kernels replaced, kept as the
semantics each kernel must match bit for bit.
``test_kernels_differential`` compares every kernel with its loop on
generated inputs and runs whole engine passes and sorts with the loops
patched in at the kernels' call sites (:func:`use_kernels`).
"""

from contextlib import ExitStack
from unittest import mock


def tail_blocks(padded, true_n, vb):
    """Stride loop slicing ``vb``-wide windows with per-window fill."""
    out = []
    for i in range(0, padded.shape[0], vb):
        fill = min(vb, max(0, true_n - i))
        out.append((padded[i : i + vb], fill))
    return out


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


def stream_batches(channels, n_virtual):
    """The greedy loop: extend a round until a channel repeats."""
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


#: Every place the engine, matchers and run reader call a kernel.
CALL_SITES = {
    "repro.core.balance.tail_blocks": tail_blocks,
    "repro.core.matching.resolve_conflicts": resolve_conflicts,
    "repro.core.streams.stream_batches": stream_batches,
}


def use_kernels(name: str) -> ExitStack:
    """Context manager selecting the kernels every call site runs.

    ``"scalar"`` patches the reference loops in; ``"vectorized"`` leaves
    the shipped kernels.
    """
    stack = ExitStack()
    if name == "scalar":
        for target, loop in CALL_SITES.items():
            stack.enter_context(mock.patch(target, loop))
    return stack
