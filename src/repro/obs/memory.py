"""Memory telemetry: the per-phase RSS sampler.

The design rule of this package — measurements never perturb what they
measure — holds for memory too:

* The *counters* (arena occupancy / high-water gauges in
  :mod:`repro.pdm.store`, the internal-memory ledger high water in
  :mod:`repro.pdm.machine`) are always on: a handful of integer
  adds/compares on paths that already move whole record blocks.
* The *surfacing* (stderr ``[mem]`` chatter, ``--stats-json`` blocks,
  progress-channel fields, the ``memory`` block of the runner's
  out-of-band ``_sidecar`` payload key) is always on and strictly out of
  band — the runner pops the sidecar before a payload is validated,
  cached or returned, and the determinism suite proves each payload
  serializes byte-identically to a plain :func:`repro.exec.run_task`.

:class:`MemoryTelemetry` rides the tracer's span-end path (cold — one
call per phase, not per I/O) and samples :func:`peak_rss_kb` at each
top-level phase boundary, answering "which phase drove the process to
its peak footprint" without instrumenting any allocation site.
"""

from __future__ import annotations

from ..util.host import peak_rss_kb

__all__ = ["MemoryTelemetry", "PHASES", "peak_rss_kb"]

#: Top-level algorithm phases worth an RSS sample — the same set the
#: progress channel announces (see ``ProgressSink.PHASES``).
PHASES = ("partition", "distribute", "recurse", "base-case", "merge")


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
