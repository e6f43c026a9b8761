"""Content fingerprints for simulation configurations.

A grid cell is identified by ``(task name, parameter dict)``.  The
fingerprint is a SHA-256 digest of the canonical JSON form of that pair
plus a schema salt, so:

* the same config always hashes to the same key (dict insertion order,
  numpy scalar types, and tuples vs lists do not matter);
* any change to the payload schema (:data:`SCHEMA_SALT`) invalidates
  every cached entry at once — a cache can never serve a stale shape.

Only JSON-representable parameter values participate; numpy scalars and
arrays are coerced through ``item()`` / ``tolist()`` first.
"""

from __future__ import annotations

import hashlib
import json

__all__ = ["SCHEMA_SALT", "canonical_params", "fingerprint"]

#: Bump whenever the task payload schema changes shape (``/2``: the
#: trace's channel rows travel as typed columns, see
#: :mod:`repro.exec.tasks`).  A bump moves every fingerprint, so every
#: job id, cache key and journal or ledger grid id.
SCHEMA_SALT = "repro.exec_payload/2"


def _coerce(value):
    """Make a parameter value canonically JSON-serializable."""
    if isinstance(value, dict):
        return {str(k): _coerce(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_coerce(v) for v in value]
    for attr in ("item",):  # numpy scalars
        fn = getattr(value, attr, None)
        if fn is not None and not isinstance(value, (int, float, bool, str)):
            return fn()
    tolist = getattr(value, "tolist", None)
    if tolist is not None and not isinstance(value, (int, float, bool, str)):
        return tolist()
    return value


def canonical_params(params: dict) -> str:
    """The canonical JSON form of a parameter dict (sorted keys, compact)."""
    return json.dumps(_coerce(dict(params)), sort_keys=True, separators=(",", ":"))


def fingerprint(task: str, params: dict, salt: str = SCHEMA_SALT) -> str:
    """SHA-256 hex digest identifying one ``(task, params)`` grid cell."""
    payload = f"{salt}\n{task}\n{canonical_params(params)}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
