"""Metrics registry: counters, gauges, bucketed histograms, child scopes.

Names are dotted strings (``"io.read_ios"``); scopes nest
(``registry.scope("pdm").counter("io.read_ios")`` exports under
``{"pdm": {"counters": {"io.read_ios": ...}}}``).  Everything is plain
Python — no clock, no I/O — so instruments stay cheap enough to leave in
hot simulator paths behind a single ``is not None`` guard.

Design notes
------------
* **Get-or-create**: ``counter/gauge/histogram/scope`` return the existing
  instrument when the name is already registered (type mismatches raise).
* **Histograms** default to *exact* integer-valued counting (a dict of
  value → count) because the distributions the paper cares about — I/O
  stripe widths (≤ D), per-round swap counts (≤ H'), matching iterations —
  are tiny discrete ranges; pass explicit ``buckets`` for genuinely
  continuous data.
* **Export** is a nested plain dict, JSON-ready, stable key order.
"""

from __future__ import annotations

import bisect
from typing import Iterable, Sequence

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]


class Counter:
    """A monotonically increasing integer counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be ≥ 0) to the counter."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (inc {amount})")
        self.value += amount

    def export(self):
        """The counter's current value (a plain int)."""
        return self.value

    def reset(self) -> None:
        """Zero the counter."""
        self.value = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A last-value instrument that also tracks its min/max watermarks."""

    __slots__ = ("name", "value", "min", "max", "_touched")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self.min = 0.0
        self.max = 0.0
        self._touched = False

    def set(self, value: float) -> None:
        """Record the latest value and update the min/max watermarks."""
        value = float(value)
        if not self._touched:
            self.min = self.max = value
            self._touched = True
        else:
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value
        self.value = value

    def set_bulk(self, values) -> None:
        """Equivalent to calling :meth:`set` on each value in order.

        Bulk form for deferred replay from columnar event buffers: the
        resulting value/min/max (and ``_touched``) are bit-identical to
        the sequential calls — ``value`` ends at the last element, the
        watermarks widen by the slice's min/max.
        """
        if not values:
            return
        lo = float(min(values))
        hi = float(max(values))
        if not self._touched:
            self.min = lo
            self.max = hi
            self._touched = True
        else:
            if lo < self.min:
                self.min = lo
            if hi > self.max:
                self.max = hi
        self.value = float(values[-1])

    def export(self) -> dict:
        """The last value plus its min/max watermarks."""
        return {"value": self.value, "min": self.min, "max": self.max}

    def reset(self) -> None:
        """Zero the gauge and its watermarks."""
        self.value = self.min = self.max = 0.0
        self._touched = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.name}={self.value})"


class Histogram:
    """Distribution instrument: exact discrete counts or bucketed.

    With ``buckets=None`` (default) every observed value keeps its own
    count — right for the small discrete distributions the simulators
    produce (stripe widths, swap counts).  With explicit ``buckets`` (a
    sorted sequence of upper bounds) values are cumulative-bucketed like a
    Prometheus histogram, with a final ``+Inf`` bucket implied.
    """

    __slots__ = ("name", "buckets", "counts", "count", "sum", "min", "max")

    def __init__(self, name: str, buckets: Sequence[float] | None = None):
        self.name = name
        self.buckets = sorted(float(b) for b in buckets) if buckets else None
        if self.buckets is not None:
            self.counts = [0] * (len(self.buckets) + 1)
        else:
            self.counts = {}
        self.count = 0
        self.sum = 0.0
        self.min = None
        self.max = None

    def observe(self, value: float, n: int = 1) -> None:
        """Record ``value`` (``n`` times, for pre-aggregated observations)."""
        if n <= 0:
            return
        self.count += n
        self.sum += value * n
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if self.buckets is None:
            if type(value) is int:  # hot path: discrete counts (stripe widths)
                key = value
            else:
                key = int(value) if float(value).is_integer() else float(value)
            self.counts[key] = self.counts.get(key, 0) + n
        else:
            self.counts[bisect.bisect_left(self.buckets, value)] += n

    def observe_bulk(self, values) -> None:
        """Equivalent to observing each **int** value in order (exact mode).

        Bulk form for deferred replay from columnar event buffers —
        restricted to exact (non-bucketed) histograms fed plain ints,
        which is what the hot simulator paths record (stripe widths,
        per-round swap counts).  Bit-identical to the loop: integer sums
        below 2**53 accumulate exactly in a float either way, min/max are
        order-free, and the per-value counts add up the same (the counts
        dict gains new keys in first-seen order, exactly as the loop
        would).
        """
        if not values:
            return
        if self.buckets is not None:
            raise TypeError(
                f"histogram {self.name!r}: observe_bulk requires exact "
                f"(non-bucketed) mode"
            )
        n = len(values)
        self.count += n
        total = 0
        for v in values:
            total += v
        self.sum += total
        lo = min(values)
        hi = max(values)
        if self.min is None or lo < self.min:
            self.min = lo
        if self.max is None or hi > self.max:
            self.max = hi
        counts = self.counts
        if n > 8:
            from collections import Counter

            for key, c in Counter(values).items():
                counts[key] = counts.get(key, 0) + c
        else:
            for key in values:
                counts[key] = counts.get(key, 0) + 1

    def mean(self) -> float:
        """Arithmetic mean of all observations (0.0 when empty)."""
        return self.sum / self.count if self.count else 0.0

    def export(self) -> dict:
        """Count/sum/mean/min/max plus the distribution dict."""
        if self.buckets is None:
            dist = {str(k): v for k, v in sorted(self.counts.items(), key=lambda kv: float(kv[0]))}
        else:
            labels = [f"le={b:g}" for b in self.buckets] + ["le=+Inf"]
            dist = dict(zip(labels, self.counts))
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean(),
            "min": self.min,
            "max": self.max,
            "dist": dist,
        }

    def reset(self) -> None:
        """Forget every observation (bucket bounds are kept)."""
        if self.buckets is None:
            self.counts = {}
        else:
            self.counts = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = None
        self.max = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram({self.name}, n={self.count})"


class MetricsRegistry:
    """A named tree of instruments.

    Scopes nest arbitrarily (``registry.scope("sort").scope("level=1")``);
    each scope holds its own counters/gauges/histograms.  ``export()``
    returns the whole subtree as a nested plain dict.
    """

    def __init__(self, name: str = "root"):
        self.name = name
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._scopes: dict[str, MetricsRegistry] = {}
        # Deferred metric sources (columnar fast path): callables that
        # replay any not-yet-applied observations into this scope's
        # instruments.  Flushed before anything reads the scope — the
        # instrument accessors, export/walk/reset/merge — so deferral is
        # unobservable outside the hot loop itself.
        self._pending: list = []
        self._flushing = False

    # ----------------------------------------------------- deferred sources

    def add_pending_flush(self, flush) -> None:
        """Register ``flush()`` to run before this scope is read or reset.

        The columnar observation path batches per-event instrument
        updates: hot emitters append scalars to event columns only, and
        ``flush`` replays the new rows into the instruments (keeping its
        own cursor, so repeated flushes are idempotent).  Flushes run in
        registration order, which is chronological for sequentially
        attached emitters — exports are bit-identical to updating the
        instruments at every event.
        """
        self._pending.append(flush)

    def _flush_pending(self) -> None:
        if not self._pending or self._flushing:
            return
        self._flushing = True
        try:
            for flush in self._pending:
                flush()
        finally:
            self._flushing = False

    # --------------------------------------------------------- instruments

    def counter(self, name: str) -> Counter:
        """Get or create the counter ``name`` in this scope."""
        self._flush_pending()
        inst = self._counters.get(name)
        if inst is None:
            self._check_free(name, self._counters)
            inst = self._counters[name] = Counter(name)
        return inst

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge ``name`` in this scope."""
        self._flush_pending()
        inst = self._gauges.get(name)
        if inst is None:
            self._check_free(name, self._gauges)
            inst = self._gauges[name] = Gauge(name)
        return inst

    def histogram(self, name: str, buckets: Sequence[float] | None = None) -> Histogram:
        """Get or create the histogram ``name`` (``buckets`` only on create)."""
        self._flush_pending()
        inst = self._histograms.get(name)
        if inst is None:
            self._check_free(name, self._histograms)
            inst = self._histograms[name] = Histogram(name, buckets)
        return inst

    def scope(self, name: str) -> "MetricsRegistry":
        """Get or create the child scope ``name``.

        Dotted names nest: ``scope("pdm.cpu")`` is ``scope("pdm").scope("cpu")``,
        so resetting ``"pdm"`` also resets the machine's CPU sub-scope.
        """
        if "." in name:
            head, rest = name.split(".", 1)
            return self.scope(head).scope(rest)
        child = self._scopes.get(name)
        if child is None:
            child = self._scopes[name] = MetricsRegistry(name)
        return child

    def _check_free(self, name: str, owner: dict) -> None:
        for kind in (self._counters, self._gauges, self._histograms):
            if kind is not owner and name in kind:
                raise TypeError(
                    f"metric {name!r} already registered with a different type"
                )

    # ------------------------------------------------------------- export

    def export(self) -> dict:
        """The subtree as a nested, JSON-ready dict (stable key order)."""
        self._flush_pending()
        out: dict = {}
        if self._counters:
            out["counters"] = {
                k: v.export() for k, v in sorted(self._counters.items())
            }
        if self._gauges:
            out["gauges"] = {k: v.export() for k, v in sorted(self._gauges.items())}
        if self._histograms:
            out["histograms"] = {
                k: v.export() for k, v in sorted(self._histograms.items())
            }
        for k in sorted(self._scopes):
            sub = self._scopes[k].export()
            if sub:  # skip scopes with no instruments anywhere beneath
                out[k] = sub
        return out

    def merge_export(self, exported: dict) -> None:
        """Fold a previously exported registry dict back into this registry.

        The inverse of :meth:`export`, used by the parallel runner
        (:mod:`repro.exec`) to combine per-worker registries into one:
        counters add, gauges keep the last value while widening their
        min/max watermarks, histograms re-accumulate their distributions
        (exact histograms replay every value; bucketed histograms add
        their bucket counts, which requires identical bucket bounds).
        Scopes merge recursively; merging is associative, so worker order
        only affects gauge *values* (never counters or histograms).
        """
        self._flush_pending()
        for key, val in exported.items():
            if key == "counters":
                for name, v in val.items():
                    self.counter(name).inc(int(v))
            elif key == "gauges":
                for name, g in val.items():
                    inst = self.gauge(name)
                    # set() min/max/value in turn: widens the watermarks
                    # and leaves `value` at the incoming last-value.
                    inst.set(g["min"])
                    inst.set(g["max"])
                    inst.set(g["value"])
            elif key == "histograms":
                for name, h in val.items():
                    self._merge_histogram(name, h)
            else:
                self.scope(key).merge_export(val)

    def _merge_histogram(self, name: str, data: dict) -> None:
        dist = data.get("dist", {})
        labels = list(dist)
        if labels and labels[0].startswith("le="):
            bounds = [float(l[3:]) for l in labels if l != "le=+Inf"]
            inst = self.histogram(name, buckets=bounds)
            if inst.buckets != sorted(bounds):
                raise TypeError(
                    f"histogram {name!r}: cannot merge mismatched buckets "
                    f"{bounds} into {inst.buckets}"
                )
            for i, label in enumerate(labels):
                inst.counts[i] += int(dist[label])
            inst.count += int(data.get("count", 0))
            inst.sum += float(data.get("sum", 0.0))
            for attr, better in (("min", min), ("max", max)):
                incoming = data.get(attr)
                if incoming is not None:
                    current = getattr(inst, attr)
                    setattr(
                        inst, attr,
                        incoming if current is None else better(current, incoming),
                    )
        else:
            inst = self.histogram(name)
            for key, n in dist.items():
                value = float(key)
                inst.observe(int(value) if value.is_integer() else value, int(n))

    def reset(self) -> None:
        """Zero every instrument in this scope and all child scopes.

        Deferred sources flush first (their cursors advance), so events
        recorded before the reset are absorbed and zeroed with everything
        else while later events still land — exactly the per-event timeline.
        """
        self._flush_pending()
        for group in (self._counters, self._gauges, self._histograms):
            for inst in group.values():
                inst.reset()
        for child in self._scopes.values():
            child.reset()

    def walk(self) -> Iterable[tuple[str, object]]:
        """Yield ``(dotted_path, instrument)`` pairs over the whole subtree."""
        self._flush_pending()
        for group in (self._counters, self._gauges, self._histograms):
            for name, inst in sorted(group.items()):
                yield name, inst
        for sname in sorted(self._scopes):
            for path, inst in self._scopes[sname].walk():
                yield f"{sname}.{path}", inst

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        n = sum(1 for _ in self.walk())
        return f"MetricsRegistry({self.name!r}, instruments={n})"
