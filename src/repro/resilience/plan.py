"""The seeded, deterministic fault-plan DSL.

A :class:`FaultPlan` describes *which* faults fire *where*, as a pure
function of the plan's seed — never of wall-clock, scheduling, or worker
identity.  That purity is what makes chaos testing a **determinism gate**
rather than a flake generator: under any transient plan with retries
enabled, a sweep's payloads must be bit-identical to the fault-free run
(see ``docs/resilience.md``).

Sites — where a rule can attach::

    store.read    one parallel read I/O on a ParallelDiskMachine
    store.write   one parallel write I/O (corrupt mode flips a stored bit)
    store.free    one batched free
    exec.task     one task attempt in the JobRunner (gate before run)
    cache.entry   one on-disk ResultCache entry (inject_cache_faults)

Modes — what kind of fault::

    transient     fires only while ``attempt < rule.attempts`` (default 1),
                  so a retried attempt runs clean — survivable by design
    permanent     fires on every attempt — exhausts retries, the cell
                  becomes a structured ``repro.failures/1`` record
    corrupt       data-at-rest damage instead of an exception: a stored
                  block gets one bit flipped (caught by the store
                  checksums), a cache entry gets one byte flipped (caught
                  by the cache's sha256 integrity field), a task payload
                  gets poisoned (caught by the runner's schema check)

Addressing — when a rule fires, per ``(cell, attempt, site)`` stream::

    rate=p        each opportunity fires independently with probability
                  ``p``, decided by a SHA-256 hash of
                  ``(plan.seed, rule.seed, site, cell, attempt, index)``
    at=(i, ...)   site-addressed: fire exactly at opportunity indices i
    budget=k      at most ``k`` fires per rule per (cell, attempt)

Opportunity indices count per site *within one attempt of one cell*, so a
cell's fault schedule is identical whether it runs serially, on a pool,
or after a pool rebuild — the decision never observes global state.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field

from ..exceptions import ParameterError

__all__ = ["FaultPlan", "FaultRule", "SITES", "MODES", "EFFECTS", "decision_unit"]

#: Valid injection sites.
SITES = ("store.read", "store.write", "store.free", "exec.task", "cache.entry")

#: Valid fault modes.
MODES = ("transient", "permanent", "corrupt")

#: Valid effects for ``exec.task`` raise-class faults.
EFFECTS = ("raise", "crash", "hang")

#: Sites on which ``corrupt`` mode is meaningful (data at rest / payload).
_CORRUPT_SITES = ("store.write", "cache.entry", "exec.task")


def decision_unit(
    plan_seed: int, rule_seed: int, site: str, cell: str, attempt: int, index: int
) -> float:
    """A uniform deterministic value in ``[0, 1)`` for one opportunity.

    SHA-256 over the full decision coordinates; the same coordinates
    always produce the same value, on any host, in any process.
    """
    text = f"{plan_seed}|{rule_seed}|{site}|{cell}|{attempt}|{index}"
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


def corruption_seed(
    plan_seed: int, rule_seed: int, site: str, cell: str, attempt: int, index: int
) -> int:
    """A deterministic integer seeding *what* to corrupt (row / bit / byte)."""
    text = f"corrupt|{plan_seed}|{rule_seed}|{site}|{cell}|{attempt}|{index}"
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[8:16], "big")


@dataclass(frozen=True)
class FaultRule:
    """One injection rule: a site, a mode, and an addressing scheme.

    ``attempts`` gates non-permanent rules: they fire only while the
    cell's attempt number is below it (default 1 → first attempt only),
    which is what guarantees a bounded retry budget always reaches a
    clean attempt.  ``effect`` selects the failure mechanism for
    ``exec.task`` rules (``raise`` | ``crash`` | ``hang``); ``duration``
    is the hang's sleep in seconds.
    """

    site: str
    mode: str = "transient"
    rate: float = 0.0
    at: tuple[int, ...] = ()
    budget: int | None = None
    attempts: int = 1
    effect: str = "raise"
    duration: float = 0.05
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "at", tuple(int(i) for i in self.at))

    def validate(self) -> None:
        """Raise :class:`~repro.exceptions.ParameterError` on a bad rule."""
        if self.site not in SITES:
            raise ParameterError(
                f"unknown fault site {self.site!r} (expected one of {SITES})"
            )
        if self.mode not in MODES:
            raise ParameterError(
                f"unknown fault mode {self.mode!r} (expected one of {MODES})"
            )
        if self.mode == "corrupt" and self.site not in _CORRUPT_SITES:
            raise ParameterError(
                f"corrupt mode applies to data at rest — site {self.site!r} "
                f"is not one of {_CORRUPT_SITES}"
            )
        if self.effect not in EFFECTS:
            raise ParameterError(
                f"unknown fault effect {self.effect!r} (expected one of {EFFECTS})"
            )
        if self.effect != "raise" and self.site != "exec.task":
            raise ParameterError(
                f"effect {self.effect!r} only applies to exec.task rules"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ParameterError(f"fault rate must be in [0, 1], got {self.rate}")
        if self.rate == 0.0 and not self.at:
            raise ParameterError(
                f"rule on {self.site!r} can never fire: give it a rate or at=(...)"
            )
        if self.budget is not None and self.budget < 1:
            raise ParameterError(f"fault budget must be >= 1, got {self.budget}")
        if self.attempts < 1:
            raise ParameterError(f"fault attempts must be >= 1, got {self.attempts}")
        if self.duration < 0:
            raise ParameterError(f"hang duration must be >= 0, got {self.duration}")


@dataclass(frozen=True)
class FaultPlan:
    """A named, seeded bundle of :class:`FaultRule` injections.

    Plans are frozen (hence picklable across the process pool) and
    JSON-round-trippable: ``FaultPlan.load`` accepts a file path or an
    inline JSON object, which is what ``repro sweep --fault-plan`` takes.
    The plan itself never enters the cache fingerprint — payloads are pure
    functions of ``(task, params)`` whether or not faults were injected,
    which is the chaos-determinism guarantee.
    """

    seed: int = 0
    rules: tuple[FaultRule, ...] = field(default_factory=tuple)
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "rules", tuple(self.rules))

    def validate(self) -> "FaultPlan":
        """Validate every rule; returns self for chaining."""
        for rule in self.rules:
            rule.validate()
        return self

    # ------------------------------------------------------------- queries

    def rules_for(self, site: str) -> tuple[tuple[int, FaultRule], ...]:
        """``(rule_index, rule)`` pairs attached to ``site``, in plan order."""
        return tuple((i, r) for i, r in enumerate(self.rules) if r.site == site)

    @property
    def watches_store(self) -> bool:
        """True when any rule attaches to a ``store.*`` site."""
        return any(r.site.startswith("store.") for r in self.rules)

    @property
    def wants_store_checksums(self) -> bool:
        """True when a ``store.write``/``corrupt`` rule needs checksums on."""
        return any(
            r.site == "store.write" and r.mode == "corrupt" for r in self.rules
        )

    # ------------------------------------------------------- serialization

    def to_dict(self) -> dict:
        """JSON-ready plain-dict form (schema ``repro.fault_plan/1``)."""
        return {
            "schema": "repro.fault_plan/1",
            "name": self.name,
            "seed": self.seed,
            "rules": [
                {k: (list(v) if isinstance(v, tuple) else v)
                 for k, v in asdict(r).items()}
                for r in self.rules
            ],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "FaultPlan":
        """Inverse of :meth:`to_dict`; validates the result (any malformed
        field raises :class:`~repro.exceptions.ParameterError`)."""
        if not isinstance(doc, dict):
            raise ParameterError(f"fault plan must be a JSON object, got {type(doc).__name__}")
        schema = doc.get("schema", "repro.fault_plan/1")
        if schema != "repro.fault_plan/1":
            raise ParameterError(f"unknown fault plan schema {schema!r}")
        rules = []
        try:
            for raw in doc.get("rules", []):
                if not isinstance(raw, dict) or "site" not in raw:
                    raise ParameterError(f"bad fault rule {raw!r} (need at least a site)")
                known = {f for f in FaultRule.__dataclass_fields__}
                unknown = set(raw) - known
                if unknown:
                    raise ParameterError(
                        f"unknown fault rule field(s) {sorted(unknown)} in {raw!r}"
                    )
                kwargs = dict(raw)
                if "at" in kwargs:
                    kwargs["at"] = tuple(kwargs["at"])
                rules.append(FaultRule(**kwargs))
            return cls(
                seed=int(doc.get("seed", 0)),
                rules=tuple(rules),
                name=str(doc.get("name", "")),
            ).validate()
        except ParameterError:
            raise
        except (TypeError, ValueError) as exc:
            raise ParameterError(f"malformed fault plan: {exc}") from None

    @classmethod
    def loads(cls, text: str) -> "FaultPlan":
        """Parse a plan from a JSON string."""
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParameterError(f"fault plan is not valid JSON: {exc}") from None
        return cls.from_dict(doc)

    @classmethod
    def load(cls, source: str) -> "FaultPlan":
        """Load a plan from a file path, or parse inline JSON.

        Anything starting with ``{`` is treated as inline JSON (the
        ``repro sweep --fault-plan '{...}'`` form); otherwise ``source``
        is a path to a JSON file.
        """
        text = source.strip()
        if text.startswith("{"):
            return cls.loads(text)
        if not os.path.exists(source):
            raise ParameterError(f"fault plan file not found: {source}")
        with open(source) as fh:
            return cls.loads(fh.read())

    def dump(self, path: str) -> None:
        """Write the plan as pretty JSON."""
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")
