"""The journal: checkpoint every job so a killed run resumes cheaply.

A journal directory holds two things:

* ``journal.jsonl`` — an append-only log (schema ``repro.journal/1``)
  of ``job`` records: one ``admitted`` record per job the runner queues
  (task, params, meta) and one per terminal status (``done``,
  ``failed``, ``cancelled``).  A sweep also writes one ``start`` record
  per session (task, cell count, and a grid fingerprint over the sorted
  cell keys).  Every line is flushed and fsynced, so a SIGKILL loses at
  most the job in flight.
* ``cells/`` — a :class:`~repro.exec.ResultCache` directory the runner
  uses as its payload store when no ``--cache-dir`` was given.  Payload
  writes are atomic per job, so a killed run leaves only whole,
  integrity-checked entries behind.

``repro sweep --journal DIR`` then re-runs the same grid: completed cells
are served from the checkpoint byte-identically (payloads are pure
functions of their specs) and only the missing ones execute.  The grid
fingerprint guards against resuming a *different* grid into an old
journal.  ``repro serve --journal DIR --resume`` resubmits the jobs
admitted but never finished.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Iterable, Sequence

from ..exceptions import InputError

__all__ = ["SweepJournal", "JOURNAL_SCHEMA", "grid_fingerprint"]

JOURNAL_SCHEMA = "repro.journal/1"


def grid_fingerprint(keys: Iterable[str]) -> str:
    """A short digest identifying a sweep grid (order-independent)."""
    joined = "\n".join(sorted(keys))
    return hashlib.sha256(joined.encode("utf-8")).hexdigest()[:16]


class SweepJournal:
    """Append-only job log + payload checkpoint for one sweep grid or service."""

    def __init__(self, directory: str):
        self.directory = directory
        if os.path.exists(directory) and not os.path.isdir(directory):
            raise InputError(f"journal {directory}: not a directory")
        os.makedirs(directory, exist_ok=True)
        self.path = os.path.join(directory, "journal.jsonl")
        self.cells_dir = os.path.join(directory, "cells")
        self.read()  # a malformed journal is refused before anything uses it
        #: Jobs recorded done / failed *by this session*.
        self.recorded_done = 0
        self.recorded_failed = 0
        #: Cells this session served from the checkpoint (set by the sweep).
        self.resumed = 0

    # ------------------------------------------------------------- writing

    def _append(self, record: dict) -> None:
        with open(self.path, "a") as fh:
            fh.write(json.dumps(record, separators=(",", ":")))
            fh.write("\n")
            fh.flush()
            os.fsync(fh.fileno())

    def begin(self, task: str, keys: Sequence[str]) -> None:
        """Append a session-start record (task, cell count, grid digest)."""
        self._append({
            "ev": "start",
            "schema": JOURNAL_SCHEMA,
            "task": task,
            "cells": len(keys),
            "grid": grid_fingerprint(keys),
        })

    def job(
        self,
        key: str,
        status: str,
        task: str | None = None,
        params: dict | None = None,
        meta: dict | None = None,
    ) -> None:
        """Checkpoint one job transition.

        ``status`` ∈ ``admitted | done | failed | cancelled``.  The
        ``admitted`` record carries the spec (task + params) so a
        restarted service can resubmit every job that never reached a
        terminal state — the payload of a ``done`` job lives in the
        ``cells/`` store, so resumed completions are byte-identical.
        """
        record: dict = {"ev": "job", "key": key, "status": status}
        if task is not None:
            record["task"] = task
        if params is not None:
            record["params"] = params
        if meta:
            record["meta"] = meta
        self._append(record)
        if status == "done":
            self.recorded_done += 1
        elif status == "failed":
            self.recorded_failed += 1

    # ------------------------------------------------------------- reading

    def read(self) -> list[dict]:
        """All journal records; a torn final line (SIGKILL) is forgiven,
        any other line that is not a JSON object is an ``InputError``."""
        if not os.path.exists(self.path):
            return []
        with open(self.path, encoding="utf-8", errors="replace") as fh:
            lines = fh.readlines()
        records = []
        for i, line in enumerate(lines, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                if i == len(lines):
                    break  # torn tail of a killed sweep
                record = None
            if not isinstance(record, dict):
                raise InputError(f"bad journal line {i} in {self.path}: not a JSON object")
            records.append(record)
        return records

    def _statuses(self) -> dict[str, str]:
        """``key -> status`` of every job over all sessions (the last
        record wins; ``admitted`` means still pending)."""
        out: dict[str, str] = {}
        for record in self.read():
            if record.get("ev") == "job" and record.get("key"):
                out[record["key"]] = record.get("status", "admitted")
        return out

    def completed(self) -> dict[str, str]:
        """``key -> status`` of the jobs whose last record is terminal."""
        return {k: s for k, s in self._statuses().items() if s != "admitted"}

    def last_start(self) -> dict | None:
        """The most recent session-start record, if any."""
        start = None
        for record in self.read():
            if record.get("ev") == "start":
                start = record
        return start

    def verify_grid(self, keys: Sequence[str]) -> tuple[str | None, str]:
        """``(recorded_fingerprint, requested_fingerprint)`` for ``keys``.

        ``recorded_fingerprint`` is None for a fresh journal.  Callers
        must refuse to attach when both exist and differ — appending a
        new grid to an old journal orphans the original checkpoints and
        poisons later resumes (the ``--resume`` mismatch diagnostic
        names both fingerprints).
        """
        start = self.last_start()
        recorded = start.get("grid") if start is not None else None
        return recorded, grid_fingerprint(keys)

    def pending_jobs(self) -> list[dict]:
        """Admitted-but-not-terminal job records, in admission order.

        The last status per key wins, so a job admitted, completed, and
        re-admitted later (say, after its cache entry was evicted) is
        pending again.  This is what a restarted service resubmits.
        """
        jobs: dict[str, dict] = {}
        order: list[str] = []
        for record in self.read():
            if record.get("ev") != "job":
                continue
            key = record.get("key")
            if not key:
                continue
            if record.get("status") == "admitted":
                if key not in jobs:
                    order.append(key)
                merged = dict(jobs.get(key) or {})
                merged.update(record)
                jobs[key] = merged
            elif key in jobs:
                jobs[key]["status"] = record.get("status", "done")
        return [jobs[k] for k in order if jobs[k].get("status") == "admitted"]

    # --------------------------------------------------------------- stats

    @property
    def stats(self) -> dict:
        """Session counters plus the all-sessions job tally."""
        statuses = list(self._statuses().values())
        return {
            "directory": self.directory,
            "recorded_done": self.recorded_done,
            "recorded_failed": self.recorded_failed,
            "resumed": self.resumed,
            "total_done": statuses.count("done"),
            "total_failed": statuses.count("failed"),
            "jobs_seen": len(statuses),
            "jobs_pending": statuses.count("admitted"),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SweepJournal({self.directory!r})"
