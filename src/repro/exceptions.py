"""Exception hierarchy for the Balance Sort reproduction.

Every machine simulator in this package *enforces* its model's rules (one
block per disk per I/O, internal-memory capacity, EREW access exclusivity,
hypercube adjacency, ...) rather than trusting callers.  Violations raise
subclasses of :class:`ModelViolation` so tests can assert that illegal
schedules are rejected, not silently mis-counted.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class ModelViolation(ReproError):
    """An operation violated the rules of the machine model being simulated."""


class DiskContentionError(ModelViolation):
    """More than one block was addressed to a single disk in one parallel I/O."""


class CapacityError(ModelViolation):
    """Internal memory (or a storage region) would exceed its capacity."""


class AddressError(ModelViolation):
    """An address is outside the allocated region or misaligned to a block."""


class ConcurrencyViolation(ModelViolation):
    """An EREW PRAM step attempted concurrent access to one memory cell."""


class TopologyError(ModelViolation):
    """A message was sent between processors that are not adjacent."""


class InvariantViolation(ReproError):
    """A Balance Sort invariant (Invariant 1 or 2 of the paper) failed."""


class ParameterError(ReproError, ValueError):
    """Machine or algorithm parameters are out of the model's legal range."""


class InputError(ReproError, ValueError):
    """A file given to an offline reader is missing or not in its format."""


class BlockCorruptionError(ReproError):
    """A stored block's content no longer matches its recorded checksum.

    Raised by the checksum-enabled block stores (:mod:`repro.pdm.store`)
    when a read or peek observes bit rot — in practice, a ``corrupt``-mode
    fault injected by a :class:`~repro.resilience.FaultPlan`.  The failed
    operation has **no partial effects**: a fused ``read(free=True)`` that
    detects corruption frees nothing, on either backend.
    """


class ResilienceError(ReproError):
    """Base class for the fault-injection / recovery subsystem errors."""


class InjectedFault(ResilienceError):
    """Base class for faults fired deterministically by a FaultPlan."""


class InjectedIOError(InjectedFault):
    """A deterministically injected (transient or permanent) I/O failure."""


class InjectedWorkerCrash(InjectedFault):
    """Serial-mode surrogate for a worker-process crash.

    In process-pool mode a ``crash``-effect fault calls ``os._exit`` in
    the worker (the real thing — the parent sees ``BrokenProcessPool``);
    in serial mode the same plan raises this instead so serial and pool
    sweeps converge on identical retry behaviour.
    """


class PoisonedPayloadError(ResilienceError):
    """A worker returned a payload that failed schema/shape validation."""


class TaskTimeout(ResilienceError):
    """A grid cell exceeded the runner's per-task timeout."""
