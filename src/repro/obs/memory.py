"""Memory telemetry: the opt-out gate and the per-phase RSS sampler.

The design rule of this package — measurements never perturb what they
measure — holds for memory too:

* The *counters* (arena occupancy / high-water gauges in
  :mod:`repro.pdm.store`, the internal-memory ledger high water in
  :mod:`repro.pdm.machine`) are always on: a handful of integer
  adds/compares on paths that already move whole record blocks.
* The *surfacing* (stderr ``[mem]`` chatter, ``--stats-json`` blocks,
  progress-channel fields, the ``_mem_stats`` payload sidecar) is gated
  by ``REPRO_MEM_TELEMETRY`` (default on; ``0``/``off``/``false`` or empty
  disables, ``1``/``on``/``true`` enables, anything else is refused) and is
  strictly out of band — the determinism suite proves exec payloads are
  bit-identical with telemetry on vs. off.

:class:`MemoryTelemetry` rides the tracer's span-end path (cold — one
call per phase, not per I/O) and samples :func:`peak_rss_kb` at each
top-level phase boundary, answering "which phase drove the process to
its peak footprint" without instrumenting any allocation site.
"""

from __future__ import annotations

from ..util.env import env_switch
from ..util.host import peak_rss_kb

__all__ = ["MemoryTelemetry", "PHASES", "memory_telemetry_enabled", "peak_rss_kb"]

#: Top-level algorithm phases worth an RSS sample — the same set the
#: progress channel announces (see ``ProgressSink.PHASES``).
PHASES = ("partition", "distribute", "recurse", "base-case", "merge")


def memory_telemetry_enabled() -> bool:
    """True unless ``REPRO_MEM_TELEMETRY`` opts out (see :mod:`repro.util.env`).

    Gates only the *surfacing* of memory telemetry; the underlying
    gauges are maintained unconditionally (they are too cheap to branch
    on and the differential suite pins them).
    """
    return env_switch("REPRO_MEM_TELEMETRY")


class MemoryTelemetry:
    """Phase-boundary RSS sampler, attached as ``tracer.memory``.

    The tracer invokes :meth:`observe_span_end` from its span-end path
    (one ``is not None`` test when detached, mirroring how machines
    guard their observation hooks); top-level phase spans each get one
    :func:`peak_rss_kb` sample.  Samples never enter the trace or any
    payload — they are read back through :meth:`snapshot` by the CLI
    and profile surfaces only.
    """

    def __init__(self, phases=PHASES):
        self.phases = frozenset(phases)
        self.phase_rss: list[dict] = []

    def observe_span_end(self, name: str, attrs: dict) -> None:
        """Sample RSS when a top-level phase span closes."""
        if name in self.phases and not attrs.get("level", 0):
            self.phase_rss.append({"phase": name, "rss_kb": peak_rss_kb()})

    def snapshot(self) -> dict:
        """The collected samples plus the process-lifetime peak."""
        samples = list(self.phase_rss)
        peak = max((s["rss_kb"] for s in samples), default=0)
        return {"phase_rss": samples, "peak_rss_kb": max(peak, peak_rss_kb())}
