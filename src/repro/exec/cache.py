"""Content-addressed result cache for the parallel runner.

Each entry maps a config fingerprint (see
:mod:`repro.exec.fingerprint`) to the run's full payload — result
summary, metrics export, and trace events — stored as one JSON file
``<digest>.json`` in the cache directory.  Repeated grid cells (the same
``N × D × S × seed`` point appearing in several sweeps, or a re-run after
an interrupted benchmark) are then served without re-simulating.

``ResultCache(None)`` keeps entries in memory only — useful for
deduplicating *within* one sweep without touching disk.  All writes are
atomic (``os.replace`` of a temp file), so a crashed worker can never
leave a truncated JSON behind.

Integrity (schema ``repro.cache_entry/1``)
------------------------------------------
On-disk entries are wrapped as ``{"schema", "sha256", "payload"}`` where
``sha256`` digests the canonical JSON of the payload.  A read that finds
unparseable JSON, a missing wrapper (a bare payload), a digest mismatch,
or a payload that fails the payload shape check
(:func:`~repro.exec.tasks.payload_ok`) **quarantines** the file (rename
to ``<key>.json.quarantine``), bumps the ``corrupt`` counter, and
reports a miss — so bit rot (or an injected ``cache.entry`` fault) costs
one re-execution, never a wrong result or a crash.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile

try:  # optional C canonical-JSON encoder (byte-identical, see _speedups.c)
    from .. import _speedups as _speedups
except ImportError:
    _speedups = None

from .tasks import payload_ok

__all__ = ["ResultCache", "CACHE_ENTRY_SCHEMA", "payload_digest"]

CACHE_ENTRY_SCHEMA = "repro.cache_entry/1"


def payload_digest(payload: dict) -> str:
    """sha256 over the canonical (sorted, compact) JSON of ``payload``."""
    if _speedups is not None:
        try:
            text = _speedups.dumps(payload, True)
        except (TypeError, ValueError, RecursionError):
            # Non-scalar values (a hand-built payload in a test, say):
            # the stdlib encoder defines the bytes.
            text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    else:
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class ResultCache:
    """Fingerprint → payload store (directory-backed or in-memory)."""

    def __init__(self, directory: str | None = None):
        self.directory = directory
        self._memory: dict[str, dict] = {}
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt = 0
        if directory:
            os.makedirs(directory, exist_ok=True)

    # ------------------------------------------------------------ lookups

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}.json")  # type: ignore[arg-type]

    def _quarantine(self, key: str, obs=None) -> None:
        """Move a damaged entry aside (``*.quarantine``) and count it.

        Only the reader whose ``os.replace`` actually moved the file
        counts the corruption: two readers racing on the same damaged
        entry both report a miss, but exactly one quarantine file
        results and ``corrupt`` increments once.
        """
        path = self._path(key)
        try:
            os.replace(path, path + ".quarantine")
        except OSError:
            return  # a racing reader (or unlink) already moved it; miss either way
        self.corrupt += 1
        if obs is not None:
            obs.event("cache.quarantined", key=key[:16])
            obs.scope("resilience").counter("cache.quarantined").inc()

    def _load_entry(self, key: str, obs=None) -> dict | None:
        """Read + verify one on-disk entry; quarantine anything damaged."""
        try:
            with open(self._path(key)) as fh:
                doc = json.load(fh)
        except FileNotFoundError:
            return None
        except (json.JSONDecodeError, UnicodeDecodeError):
            # A flipped byte can break JSON *or* UTF-8; either way the
            # entry is damaged and gets quarantined.
            self._quarantine(key, obs)
            return None
        payload = doc.get("payload") if isinstance(doc, dict) else None
        if (
            not payload_ok(payload)
            or doc.get("schema") != CACHE_ENTRY_SCHEMA
            or payload_digest(payload) != doc.get("sha256")
        ):
            self._quarantine(key, obs)
            return None
        return payload

    def get(self, key: str, obs=None) -> dict | None:
        """The cached payload for ``key``, or None (counts hit/miss).

        Damaged on-disk entries are quarantined (renamed to
        ``<key>.json.quarantine``), counted in :attr:`corrupt`, and
        reported as misses — the caller simply re-executes.
        """
        payload = self._memory.get(key)
        if payload is None and self.directory:
            payload = self._load_entry(key, obs)
            if payload is not None:
                self._memory[key] = payload
        if payload is None:
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def put(self, key: str, payload: dict) -> None:
        """Store ``payload`` under ``key`` (atomic + integrity-wrapped on disk)."""
        self._memory[key] = payload
        self.stores += 1
        if not self.directory:
            return
        entry = {
            "schema": CACHE_ENTRY_SCHEMA,
            "sha256": payload_digest(payload),
            "payload": payload,
        }
        fd, tmp = tempfile.mkstemp(
            dir=self.directory, prefix=f".{key[:16]}-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(entry, fh, separators=(",", ":"))
            os.replace(tmp, self._path(key))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # ------------------------------------------------------------- stats

    @property
    def stats(self) -> dict:
        """Hit/miss/store/corrupt counters plus the backing directory."""
        return {
            "directory": self.directory,
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "corrupt": self.corrupt,
        }

    def __contains__(self, key: str) -> bool:
        if key in self._memory:
            return True
        return bool(self.directory) and os.path.exists(self._path(key))

    def __len__(self) -> int:
        if not self.directory:
            return len(self._memory)
        return sum(1 for n in os.listdir(self.directory) if n.endswith(".json"))
