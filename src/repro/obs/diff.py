"""Structural diffing of run reports, bench points, and trace summaries.

A regression gate needs one primitive: "these two JSON documents describe
the same experiment — did anything move more than I allow?".  This module
provides it for every JSON surface the repo emits — ``repro.run_report/1``
reports, ``repro.bench_point/1`` / ``repro.bench_result/1`` sidecars
(``benchmarks/results/*.json``, ``BENCH_*.json``), trace summaries, audit
and profile dicts.

:func:`diff_runs` flattens both documents to dotted paths
(``e1_grid.rows[3].arena_s``), coerces numeric strings (the bench sidecar
tables store rows as string lists), and classifies every path:

* **numeric pair** — relative delta ``(b - a) / |a|`` checked against the
  matching threshold (``0/0`` is equal; a zero baseline with a non-zero
  new value is an infinite delta and always exceeds any finite
  threshold);
* **non-numeric pair** — equal or ``changed``;
* **one-sided** — ``added`` / ``removed`` (regressions only under
  ``strict``).

Thresholds are *relative*: ``threshold=0.0`` demands bit-identical
numbers (the determinism gate — serial vs ``--jobs N`` sweeps, fresh vs
recorded simulated-I/O sidecars), while e.g. ``threshold=2.0`` allows up
to 3x growth (the wall-clock gate CI uses: "measured ≤ 3 × recorded" is
exactly "relative delta ≤ 2.0").  Per-path rules (``fnmatch`` patterns,
first match wins) override the default, and ``ignore`` patterns mask
paths that legitimately move (hosts, timestamps, wall-clock seconds in a
determinism gate).

The exit-code contract (used by ``repro diff`` and CI): regressions →
non-zero, identical or within threshold → zero.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fnmatch import fnmatchcase

from ..exceptions import InputError

__all__ = ["flatten", "DiffEntry", "DiffResult", "diff_runs", "load_doc",
           "DIFF_SCHEMA"]

DIFF_SCHEMA = "repro.diff/1"


def load_doc(path_or_doc) -> dict:
    """Accept a dict as-is or load one JSON object from a path."""
    if isinstance(path_or_doc, dict):
        return path_or_doc
    try:
        with open(path_or_doc) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read {path_or_doc} as JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise InputError(f"{path_or_doc}: not a JSON object")
    return doc


def _coerce(value):
    """Numeric-string coercion: bench sidecar tables store numbers as strings."""
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return value
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            try:
                f = float(value)
            except ValueError:
                return value
            return f if math.isfinite(f) else value
    return value


def flatten(doc, prefix: str = "") -> dict:
    """Flatten nested dicts/lists into ``{"a.b[2].c": leaf}`` paths.

    Leaves are scalars (numeric strings coerced); empty dicts/lists
    flatten to themselves so their presence still diffs.
    """
    flat: dict = {}

    def walk(node, path):
        if isinstance(node, dict):
            if not node:
                flat[path or "."] = {}
                return
            for key in node:
                walk(node[key], f"{path}.{key}" if path else str(key))
        elif isinstance(node, (list, tuple)):
            if not node:
                flat[path or "."] = []
                return
            for i, item in enumerate(node):
                walk(item, f"{path}[{i}]")
        else:
            flat[path or "."] = _coerce(node)

    walk(doc, prefix)
    return flat


@dataclass
class DiffEntry:
    """One differing path."""

    path: str
    kind: str  # "exceeds" | "changed" | "added" | "removed" | "within"
    a: object = None
    b: object = None
    rel_delta: float | None = None
    threshold: float | None = None

    def to_dict(self) -> dict:
        """JSON-safe view; non-finite ``rel_delta`` serialises as ``"inf"``."""
        d = {"path": self.path, "kind": self.kind, "a": self.a, "b": self.b}
        if self.rel_delta is not None:
            d["rel_delta"] = (
                self.rel_delta if math.isfinite(self.rel_delta) else "inf"
            )
        if self.threshold is not None:
            d["threshold"] = self.threshold
        return d


@dataclass
class DiffResult:
    """Everything :func:`diff_runs` found, split by severity."""

    regressions: list = field(default_factory=list)
    changes: list = field(default_factory=list)  # within threshold / informational
    n_compared: int = 0
    threshold: float = 0.0
    strict: bool = False

    @property
    def ok(self) -> bool:
        """True iff no regression (the exit-code contract)."""
        return not self.regressions

    def to_dict(self) -> dict:
        """JSON-safe view of the verdict (``repro.diff/1``)."""
        return {
            "schema": DIFF_SCHEMA,
            "ok": self.ok,
            "n_compared": self.n_compared,
            "threshold": self.threshold,
            "strict": self.strict,
            "regressions": [e.to_dict() for e in self.regressions],
            "changes": [e.to_dict() for e in self.changes],
        }

    def tables(self):
        """Human rendering: one table per severity bucket (non-empty only)."""
        from ..analysis.reporting import Table

        tables = []
        for title, entries in (
            (f"regressions ({len(self.regressions)})", self.regressions),
            (f"changes within threshold ({len(self.changes)})", self.changes),
        ):
            if not entries:
                continue
            t = Table(["path", "kind", "a", "b", "rel Δ", "threshold"], title=title)
            for e in entries[:50]:
                t.add(
                    e.path, e.kind,
                    "-" if e.a is None else e.a,
                    "-" if e.b is None else e.b,
                    "-" if e.rel_delta is None else (
                        "inf" if not math.isfinite(e.rel_delta)
                        else round(e.rel_delta, 4)
                    ),
                    "-" if e.threshold is None else e.threshold,
                )
            if len(entries) > 50:
                t.add(f"... {len(entries) - 50} more", "", "", "", "", "")
            tables.append(t)
        return tables


def _match_rule(path: str, rules: list[tuple[str, float]],
                default: float) -> float:
    for pattern, threshold in rules:
        if fnmatchcase(path, pattern):
            return threshold
    return default


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def diff_runs(
    a, b,
    threshold: float = 0.0,
    rules: list[tuple[str, float]] | None = None,
    ignore: list[str] | None = None,
    strict: bool = False,
) -> DiffResult:
    """Diff two JSON documents (dicts or paths) with relative thresholds.

    ``threshold`` is the default relative-delta allowance; ``rules`` is an
    ordered list of ``(fnmatch_pattern, threshold)`` overrides (first
    match wins); ``ignore`` patterns drop paths entirely.  ``strict=True``
    also treats added/removed paths and non-numeric changes at
    zero-threshold paths as regressions (a determinism gate wants shape
    changes to fail; a perf gate usually doesn't care).

    Deltas are signed: only *increases* past the threshold regress (a
    faster run is not a regression), except at ``threshold=0.0`` where
    any numeric difference does.
    """
    fa = flatten(load_doc(a))
    fb = flatten(load_doc(b))
    ignore = ignore or []
    rules = rules or []

    def ignored(path: str) -> bool:
        return any(fnmatchcase(path, pat) for pat in ignore)

    result = DiffResult(threshold=threshold, strict=strict)
    paths = list(fa.keys()) + [p for p in fb if p not in fa]
    for path in paths:
        if ignored(path):
            continue
        in_a, in_b = path in fa, path in fb
        if not (in_a and in_b):
            entry = DiffEntry(
                path=path, kind="removed" if in_a else "added",
                a=fa.get(path), b=fb.get(path),
            )
            (result.regressions if strict else result.changes).append(entry)
            continue
        result.n_compared += 1
        va, vb = fa[path], fb[path]
        if _is_number(va) and _is_number(vb):
            if va == vb:
                continue
            if va == 0:
                rel = math.inf if vb > 0 else -math.inf
            else:
                rel = (vb - va) / abs(va)
            limit = _match_rule(path, rules, threshold)
            if limit == 0.0:
                exceeds = True  # any numeric difference at zero threshold
            else:
                exceeds = rel > limit
            entry = DiffEntry(
                path=path, kind="exceeds" if exceeds else "within",
                a=va, b=vb, rel_delta=rel, threshold=limit,
            )
            (result.regressions if exceeds else result.changes).append(entry)
        else:
            if va == vb:
                continue
            entry = DiffEntry(path=path, kind="changed", a=va, b=vb)
            limit = _match_rule(path, rules, threshold)
            if strict and limit == 0.0:
                result.regressions.append(entry)
            else:
                result.changes.append(entry)
    return result
