"""PRAM cost accountant.

A :class:`PRAM` does not itself move data — the primitives in
:mod:`repro.pram.primitives` do, using vectorized NumPy — it *meters* them.
Each primitive reports its total ``work`` (operation count over all
processors) and its ``depth`` (longest dependency chain).  Under Brent's
scheduling principle a machine with ``P`` processors executes such a step in
at most ``ceil(work / P) + depth`` parallel time, which is the charge we
apply.  This makes ``time`` an upper-bound model and ``work`` exact, matching
how the paper states its internal-processing bounds.

Variants:

* ``EREW`` — exclusive read, exclusive write (the interconnect assumed by
  Theorems 2 and 3 and by Cole's merge sort);
* ``CREW`` — concurrent read allowed;
* ``CRCW`` — both concurrent; the paper requires CRCW for the parallel disk
  model when ``log(M/B) = o(log M)`` (Section 5).
"""

from __future__ import annotations

import enum
import math
import weakref
from dataclasses import dataclass, field

from ..exceptions import ConcurrencyViolation, ParameterError

__all__ = ["Variant", "PRAM", "StepRecord"]


class Variant(enum.Enum):
    """PRAM concurrency discipline."""

    EREW = "EREW"
    CREW = "CREW"
    CRCW = "CRCW"

    @property
    def concurrent_read(self) -> bool:
        return self in (Variant.CREW, Variant.CRCW)

    @property
    def concurrent_write(self) -> bool:
        return self is Variant.CRCW


@dataclass
class StepRecord:
    """One charged primitive invocation (kept when tracing is enabled)."""

    label: str
    work: int
    depth: int
    time: int


@dataclass
class PRAM:
    """Cost-accounted PRAM with ``processors`` CPUs.

    Attributes
    ----------
    work:
        Total operations executed so far (exact, machine-independent).
    time:
        Parallel time steps charged so far (Brent upper bound).
    """

    processors: int
    variant: Variant = Variant.EREW
    trace: bool = False
    work: int = 0
    time: int = 0
    steps: list = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.processors < 1:
            raise ParameterError(f"need >= 1 processor, got {self.processors}")
        if isinstance(self.variant, str):
            self.variant = Variant(self.variant.upper())
        # Observability (optional; None keeps `charge` untouched): the
        # charges, work and time not yet replayed into the metrics, and
        # the work per label, in first-charge order.
        self._obs_scope = None
        self._meter: list | None = None
        self._label_work: dict | None = None

    def attach_obs(self, obs, scope: str = "pram") -> None:
        """Attach an :class:`~repro.obs.Observation`: per-charge metrics.

        Under ``obs.scope(scope)``: counters ``work``/``time``/``charges``
        plus a ``labels`` child scope with one ``work`` counter per charge
        label — the per-primitive CPU breakdown (partition vs. matching vs.
        matrix upkeep) the Theorem-1 internal-processing claim decomposes
        into.  ``charge`` only adds to plain ints; the counters are
        replayed from them in bulk when the scope is next read (see
        :meth:`~repro.obs.MetricsRegistry.add_pending_flush`), and appear
        once the machine has charged, as if updated at every charge.
        """
        reg = self._obs_scope = obs.scope(scope)
        reg.scope("labels")
        meter = self._meter = [0, 0, 0]
        label_work = self._label_work = {}
        totals: list = []  # the charges/work/time counters, once charged
        # The scope runs the flush, so it is alive whenever the flush is;
        # a strong reference would make a cycle through its flush list.
        scope_ref = weakref.ref(reg)

        def _flush():
            if not meter[0]:
                return
            reg = scope_ref()
            if not totals:
                totals.extend(
                    (reg.counter("charges"), reg.counter("work"), reg.counter("time"))
                )
            for counter, amount in zip(totals, meter):
                counter.inc(amount)
            meter[:] = (0, 0, 0)
            labels = reg.scope("labels")
            for label, work in label_work.items():
                labels.counter(label or "unlabeled").inc(work)
            label_work.clear()

        reg.add_pending_flush(_flush)

    def detach_obs(self) -> None:
        """Remove the attached observation (``charge`` is unmetered again)."""
        self._obs_scope = None
        self._meter = self._label_work = None

    def charge(self, work: int, depth: int, label: str = "") -> int:
        """Charge one primitive: ``time += ceil(work/P) + depth``.

        Returns the time charged for this step.
        """
        if work < 0 or depth < 0:
            raise ParameterError("work and depth must be non-negative")
        # P == 1: ceil(work/1) == work exactly (and dodges the float hop).
        if self.processors == 1:
            step_time = work + depth
        else:
            step_time = math.ceil(work / self.processors) + depth
        self.work += work
        self.time += step_time
        if self.trace:
            self.steps.append(StepRecord(label, work, depth, step_time))
        meter = self._meter
        if meter is not None:
            meter[0] += 1
            meter[1] += work
            meter[2] += step_time
            label_work = self._label_work
            label_work[label] = label_work.get(label, 0) + work
        return step_time

    def require_concurrent_read(self, context: str = "") -> None:
        """Raise unless this machine permits concurrent reads."""
        if not self.variant.concurrent_read:
            raise ConcurrencyViolation(
                f"concurrent read needed{f' for {context}' if context else ''} "
                f"but machine is {self.variant.value}"
            )

    def require_concurrent_write(self, context: str = "") -> None:
        """Raise unless this machine permits concurrent writes."""
        if not self.variant.concurrent_write:
            raise ConcurrencyViolation(
                f"concurrent write needed{f' for {context}' if context else ''} "
                f"but machine is {self.variant.value}"
            )

    def reset(self) -> None:
        """Zero the counters and any attached metrics scope."""
        self.work = 0
        self.time = 0
        self.steps.clear()
        if self._obs_scope is not None:
            self._obs_scope.reset()

    def snapshot(self) -> dict:
        """Current counters as a plain dict (for reporting)."""
        return {"processors": self.processors, "work": self.work, "time": self.time}
