"""The run-history index: one queryable store over every run artifact.

Single-run artifacts are rich but isolated — a ``repro.run_report/1``
knows its phases, a ``repro.profile/1`` its hotspots, a ledger point its
wall-clock — and the question PRs 7/8 had to answer by hand ("which
phase regressed against which commit?") spans *runs*.  This module is
the cross-run substrate (schema ``repro.run_index/1``):

* an **append-friendly, host-keyed index**: one ``index.jsonl`` of
  compact index records (same durability conventions as the ledger —
  append order kept, torn tail forgiven) plus a ``runs/`` directory of
  verbatim artifacts, each stored under a content-hashed id so repeated
  ingests deduplicate instead of double-counting;
* **content-based kind detection**: run reports, theory audits, profile
  summaries, ledger points, hand-recorded ``BENCH_*.json`` points,
  benchmark sidecars, and sweep ``--stats-json`` dumps are recognized by
  their ``schema`` stamp; raw traces (plain or gzipped JSONL of ``ev``
  records) are profiled on ingest and indexed as profiles;
* a small **query surface** (:meth:`RunHistory.records`) filtered by
  kind / series / commit / host key — what ``repro history`` and the
  attribution engine (:mod:`repro.obs.attrib`) and dashboard
  (:mod:`repro.obs.dashboard`) are built on.

Round-trip contract: for document artifacts, ``load_artifact`` returns
a dict value-identical to the ingested source (the property suite pins
ingest → query → load against the original).  Traces are the one
derived case — the stored artifact is their profile, since a multi-MB
event stream is not a useful *index* entry.
"""

from __future__ import annotations

import hashlib
import json
import os
import time

from .. import __version__
from ..util import capture_host, host_key as _host_key_of
from .ledger import SERIES_SCHEMA
from .profile import PROFILE_SCHEMA, profile_trace
from .tracer import _open_trace, read_trace

__all__ = ["INDEX_SCHEMA", "RunHistory"]

INDEX_SCHEMA = "repro.run_index/1"

#: schema stamp → index kind.  Unknown schemas are refused loudly (an
#: index that silently swallows anything stops being queryable).
_SCHEMA_KINDS = {
    "repro.run_report/1": "report",
    "repro.audit/1": "audit",
    "repro.profile/1": "profile",
    SERIES_SCHEMA: "ledger",
    "repro.bench_point/1": "bench",
    "repro.bench_result/1": "bench",
    "repro.sweep_stats/1": "stats",
    "repro.serve_stats/1": "serve",
}

#: Environment knobs captured as run configuration at ingest time (only
#: the ones actually set — defaults are not configuration).
_CONFIG_ENV = (
    ("REPRO_PDM_STORE", "pdm_store"),
    ("REPRO_PDM_CHECKSUMS", "pdm_checksums"),
    ("REPRO_MEM_TELEMETRY", "mem_telemetry"),
)


def _capture_config() -> dict:
    """The REPRO_* knobs currently set in the environment."""
    cfg = {}
    for env, key in _CONFIG_ENV:
        value = os.environ.get(env)
        if value is not None:
            cfg[key] = value
    return cfg


def _artifact_id(kind: str, doc: dict) -> str:
    """Content-hashed id: ``<kind>-<sha256[:12] of canonical JSON>``."""
    canonical = json.dumps(
        doc, sort_keys=True, separators=(",", ":"), default=str
    )
    return f"{kind}-{hashlib.sha256(canonical.encode('utf-8')).hexdigest()[:12]}"


def _summarize(kind: str, doc: dict) -> dict:
    """The small kind-specific summary an index record carries inline."""
    if kind == "report":
        result = doc.get("result") or {}
        summary = {
            "command": doc.get("command", ""),
            **{k: result[k] for k in (
                "records", "parallel_ios", "ratio", "verified",
            ) if k in result},
            "phases": len(doc.get("phases") or []),
        }
        audit = doc.get("audit")
        if isinstance(audit, dict):
            summary["audit_ok"] = audit.get("ok")
            summary["audit_violations"] = len(audit.get("violations") or [])
        return summary
    if kind == "audit":
        return {
            "ok": doc.get("ok"),
            "violations": len(doc.get("violations") or []),
            "checks": len(doc.get("checks") or []),
            "rounds_checked": doc.get("rounds_checked"),
        }
    if kind == "profile":
        hotspots = doc.get("hotspots") or []
        io = doc.get("io") or {}
        summary = {
            "total_wall_s": doc.get("total_wall_s"),
            "n_spans": doc.get("n_spans"),
            "rounds": (io.get("rounds") or {}).get("total"),
        }
        if hotspots:
            summary["top_span"] = hotspots[0].get("name")
            summary["top_self_s"] = hotspots[0].get("self_s")
        memory = doc.get("memory")
        if isinstance(memory, dict) and memory.get("peak_rss_kb"):
            summary["peak_rss_kb"] = memory["peak_rss_kb"]
        return summary
    if kind == "ledger":
        return {k: doc[k] for k in (
            "seconds", "records_per_sec", "us_per_record", "min_of",
            "cells", "records", "notes",
        ) if k in doc}
    if kind == "bench":
        summary = {k: doc[k] for k in ("name", "description") if k in doc}
        if "repro_version" in doc:
            summary["repro_version"] = doc["repro_version"]
        return summary
    if kind == "stats":
        runner = doc.get("runner") or {}
        summary = {k: runner[k] for k in (
            "executed", "served_from_cache", "failed", "retried",
        ) if k in runner}
        memory = runner.get("memory") or {}
        for k in ("high_water_blocks", "peak_rss_kb"):
            if memory.get(k):
                summary[k] = memory[k]
        return summary
    if kind == "serve":
        serve = doc.get("serve") or {}
        summary = {k: serve[k] for k in (
            "admitted", "coalesced", "cache_hits", "shed", "quota_rejected",
            "completed", "failed", "cancelled", "drain_seconds", "resumed",
        ) if k in serve}
        runner = doc.get("runner") or {}
        if "retried" in runner:
            summary["retried"] = runner["retried"]
        tenants = doc.get("tenants")
        if isinstance(tenants, dict):
            summary["tenants"] = len(tenants)
        return summary
    return {}


class RunHistory:
    """Indexed-JSONL run history under one root directory.

    Layout::

        <root>/index.jsonl      # one repro.run_index/1 record per line
        <root>/runs/<id>.json   # verbatim artifact (content-hashed id)

    The index is the queryable surface; the artifacts are the evidence
    the attribution engine and ``repro history show`` load back.
    """

    def __init__(self, root: str):
        self.root = root
        self.index_path = os.path.join(root, "index.jsonl")
        self.runs_dir = os.path.join(root, "runs")

    # ------------------------------------------------------------- ingest

    def ingest_path(
        self,
        path: str,
        commit: str = "",
        series: str = "",
        config: dict | None = None,
        require_version: bool = False,
        when: float | None = None,
    ) -> list[dict]:
        """Ingest one artifact file; returns the index records it produced.

        Content-detected: a single JSON document is ingested as itself; a
        JSONL of ledger points ingests every point; a JSONL of trace
        events (``ev`` records, plain or gzipped) is profiled first and
        ingested as a ``repro.profile/1``.
        """
        with _open_trace(path) as fh:
            first_line = ""
            for line in fh:
                first_line = line.strip()
                if first_line:
                    break
        if not first_line:
            raise ValueError(f"empty artifact: {path}")
        try:
            first = json.loads(first_line)
        except json.JSONDecodeError:
            first = None
        if isinstance(first, dict):
            # Line-oriented: a trace or a JSONL of schema-stamped docs.
            if "ev" in first and "schema" not in first:
                events = read_trace(path, tolerate_truncated_tail=True)
                doc = profile_trace(events)
                assert doc.get("schema") == PROFILE_SCHEMA
                return [self.ingest_doc(
                    doc, source=path, commit=commit, series=series,
                    config=config, require_version=require_version, when=when,
                )]
            lines = read_trace(path, tolerate_truncated_tail=True)
            return [
                self.ingest_doc(
                    doc, source=path, commit=commit, series=series,
                    config=config, require_version=require_version, when=when,
                )
                for doc in lines
            ]
        with _open_trace(path) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError(f"unrecognized artifact (not a JSON object): {path}")
        return [self.ingest_doc(
            doc, source=path, commit=commit, series=series,
            config=config, require_version=require_version, when=when,
        )]

    def ingest_doc(
        self,
        doc: dict,
        source: str = "",
        commit: str = "",
        series: str = "",
        config: dict | None = None,
        require_version: bool = False,
        when: float | None = None,
    ) -> dict:
        """Index one artifact dict (stored verbatim, deduplicated by content).

        ``require_version=True`` enforces the bench-file shape discipline:
        hand-recorded ``repro.bench_point/1`` docs must carry both their
        ``schema`` stamp and a ``repro_version`` (the nightly sidecar gate
        ingests ``BENCH_*.json`` under this flag).
        """
        schema = doc.get("schema")
        kind = _SCHEMA_KINDS.get(schema)
        if kind is None:
            raise ValueError(
                f"unrecognized artifact schema {schema!r}"
                + (f" in {source}" if source else "")
                + f" (expected one of {sorted(_SCHEMA_KINDS)})"
            )
        if require_version and kind == "bench" and not doc.get("repro_version"):
            raise ValueError(
                f"bench point {source or _artifact_id(kind, doc)!r} lacks a "
                "repro_version stamp (the ledger-grade shape discipline "
                "requires schema + repro_version on every recorded point)"
            )
        run_id = _artifact_id(kind, doc)
        existing = self._find(run_id)
        if existing is not None:
            return {**existing, "duplicate": True}

        host = doc.get("host") if isinstance(doc.get("host"), dict) else None
        hk = doc.get("host_key", "")
        if not hk and host is not None:
            hk = host.get("key", "")
            if not hk:
                try:
                    hk = _host_key_of(host)
                except KeyError:
                    hk = ""
        if not hk and host is None:
            hk = capture_host()["key"]
        ts = when
        if ts is None:
            ts = doc.get("ts") if isinstance(doc.get("ts"), (int, float)) else None
        if ts is None:
            ts = time.time()
        cfg = _capture_config()
        if config:
            cfg.update(config)
        record = {
            "schema": INDEX_SCHEMA,
            "id": run_id,
            "kind": kind,
            "schema_of": schema,
            "ts": round(float(ts), 3),
            "host_key": hk,
            "commit": commit or doc.get("commit", ""),
            "series": series or doc.get("series", ""),
            "config": cfg,
            "summary": _summarize(kind, doc),
            "artifact": f"runs/{run_id}.json",
            "source": source,
        }
        os.makedirs(self.runs_dir, exist_ok=True)
        artifact_path = os.path.join(self.runs_dir, f"{run_id}.json")
        with open(artifact_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, default=str)
            fh.write("\n")
        with open(self.index_path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, separators=(",", ":")))
            fh.write("\n")
            fh.flush()
            os.fsync(fh.fileno())
        return record

    # -------------------------------------------------------------- query

    def read(self) -> list[dict]:
        """All index records in append order; a torn final line is forgiven."""
        if not os.path.exists(self.index_path):
            return []
        return read_trace(self.index_path, tolerate_truncated_tail=True)

    def _find(self, run_id: str) -> dict | None:
        for record in self.read():
            if record.get("id") == run_id:
                return record
        return None

    def records(
        self,
        kind: str | None = None,
        series: str | None = None,
        commit: str | None = None,
        host_key: str | None = None,
        limit: int | None = None,
    ) -> list[dict]:
        """Index records filtered by kind/series/commit/host, append order.

        ``commit`` matches on prefix (short hashes query long ones);
        ``limit`` keeps the **newest** N of the filtered set.
        """
        out = self.read()
        if kind is not None:
            out = [r for r in out if r.get("kind") == kind]
        if series is not None:
            out = [r for r in out if r.get("series") == series]
        if commit is not None:
            out = [
                r for r in out
                if str(r.get("commit", "")).startswith(commit)
                or commit.startswith(str(r.get("commit") or "\x00"))
            ]
        if host_key is not None:
            out = [r for r in out if r.get("host_key") == host_key]
        if limit is not None and limit >= 0:
            out = out[len(out) - limit:] if limit else []
        return out

    def get(self, run_id: str) -> dict:
        """The index record for ``run_id`` (prefix match accepted, unique)."""
        matches = [
            r for r in self.read()
            if r.get("id") == run_id or str(r.get("id", "")).startswith(run_id)
        ]
        exact = [r for r in matches if r.get("id") == run_id]
        if exact:
            return exact[0]
        if not matches:
            raise KeyError(f"no indexed run {run_id!r} in {self.root}")
        ids = sorted({r["id"] for r in matches})
        if len(ids) > 1:
            raise KeyError(f"ambiguous run id {run_id!r}: matches {ids}")
        return matches[0]

    def load_artifact(self, record: dict) -> dict:
        """The verbatim artifact a record points at."""
        path = os.path.join(self.root, record["artifact"])
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)

    # -------------------------------------------------------------- stats

    @property
    def stats(self) -> dict:
        """Record count and per-kind tallies (for stderr summaries)."""
        records = self.read()
        kinds: dict[str, int] = {}
        for r in records:
            kinds[r.get("kind", "?")] = kinds.get(r.get("kind", "?"), 0) + 1
        return {
            "root": self.root,
            "records": len(records),
            "kinds": kinds,
            "repro_version": __version__,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RunHistory({self.root!r})"
