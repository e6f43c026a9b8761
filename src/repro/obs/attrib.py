"""The regression-attribution engine: explain a perf delta, ranked.

A gate failure ("e1-grid went from 3.9 s to 4.5 s") names the symptom;
this module names the cause.  :func:`attribute_runs` diffs two runs at
the *profile* level — per-span self-time deltas, per-span I/O-round
counts, stripe-width means, and the config knobs the runs were indexed
under — and emits a ranked ``repro.attrib/1`` report whose findings
read like the diagnosis a human would write::

    distribute self-time +1.9 s, rounds unchanged
        ⇒ per-round dispatch regressed

The round-count cross-check is the heart of the heuristic: the paper's
cost model says *schedule* changes move the round count, while
*constant-factor* changes (dispatch overhead, compiled kernels, fusion)
move seconds-per-round.  A span that got slower with its rounds
unchanged therefore regressed per round; one whose rounds grew changed
schedule.  Inputs are ``repro.profile/1`` docs (self-time basis) or
``repro.run_report/1`` docs (phase wall-time basis — reports carry no
self time); both carry per-span round counts and stripe histograms.

Wired into ``repro attribute A B`` and ``repro bench compare
--attribute`` (see :mod:`repro.cli`), reading runs from the
:class:`~repro.obs.history.RunHistory` index.
"""

from __future__ import annotations

from ..analysis.reporting import Table
from .profile import PROFILE_SCHEMA
from .report import SCHEMA as REPORT_SCHEMA

__all__ = ["ATTRIB_SCHEMA", "attribute_runs", "render_attrib"]

ATTRIB_SCHEMA = "repro.attrib/1"

#: Spans whose |Δ| is below max(ABS_NOISE_S, REL_NOISE × total) get the
#: "unchanged" verdict instead of a causal story.
_ABS_NOISE_S = 0.005
_REL_NOISE = 0.01

#: Round counts within this relative window count as "unchanged" (round
#: counts are deterministic in this simulator, but reports built from
#: truncated traces can drop a few).
_ROUND_TOL = 0.02


def _doc_kind(doc: dict, label: str) -> str:
    schema = doc.get("schema")
    if schema == PROFILE_SCHEMA:
        return "profile"
    if schema == REPORT_SCHEMA:
        return "report"
    raise ValueError(
        f"cannot attribute {label}: schema {schema!r} is neither "
        f"{PROFILE_SCHEMA} nor {REPORT_SCHEMA}"
    )


def _spans_of(doc: dict, kind: str, basis: str) -> dict[str, dict]:
    """``{span name: {"t": seconds, "rounds": int, "count": int}}``."""
    out: dict[str, dict] = {}
    if kind == "profile":
        for h in doc.get("hotspots") or []:
            t = h.get(basis if basis in h else "wall_s", 0.0) or 0.0
            out[h.get("name", "?")] = {
                "t": float(t),
                "rounds": int(h.get("rounds") or 0),
                "count": int(h.get("count") or 0),
            }
        return out
    for p in doc.get("phases") or []:
        rounds = int(p.get("read_ios") or 0) + int(p.get("write_ios") or 0)
        if not rounds:
            rounds = int(p.get("ios") or 0)
        out[p.get("name", "?")] = {
            "t": float(p.get("wall_s") or 0.0),
            "rounds": rounds,
            "count": int(p.get("count") or 0),
        }
    return out


def _total_of(doc: dict, kind: str) -> float:
    if kind == "profile":
        return float(doc.get("total_wall_s") or 0.0)
    return sum(float(p.get("wall_s") or 0.0) for p in doc.get("phases") or [])


def _rounds_of(doc: dict, kind: str) -> int:
    if kind == "profile":
        return int(((doc.get("io") or {}).get("rounds") or {}).get("total") or 0)
    ios = 0
    for p in doc.get("phases") or []:
        ios += int(p.get("read_ios") or 0) + int(p.get("write_ios") or 0)
    return ios


def _mean_width(doc: dict, kind: str, direction: str) -> float | None:
    """Mean stripe width (blocks per physical round) of one direction."""
    if kind == "profile":
        hist = ((doc.get("io") or {}).get("stripe_width") or {}).get(direction)
    else:
        hist = (doc.get("stripe_width") or {}).get(direction)
    if not hist:
        return None
    total = blocks = 0
    for width, count in hist.items():
        total += int(count)
        blocks += int(width) * int(count)
    return round(blocks / total, 2) if total else None


def _rounds_changed(a: int, b: int) -> bool:
    if a == b:
        return False
    if a == 0 or b == 0:
        return True
    return abs(b - a) / a > _ROUND_TOL


def _verdict(delta_s: float, rounds_a: int, rounds_b: int, noise: float) -> str:
    if abs(delta_s) < noise:
        return "unchanged"
    changed = _rounds_changed(rounds_a, rounds_b)
    if not changed and (rounds_a or rounds_b):
        return (
            "per-round dispatch regressed (rounds unchanged)"
            if delta_s > 0
            else "per-round dispatch improved (rounds unchanged)"
        )
    if changed:
        grew = rounds_b > rounds_a
        if delta_s > 0:
            return (
                "more I/O rounds (schedule changed)"
                if grew else "slower despite fewer rounds"
            )
        return (
            "fewer I/O rounds (schedule changed)"
            if not grew else "faster despite more rounds"
        )
    return "self-time regressed" if delta_s > 0 else "self-time improved"


def _meta_ref(meta: dict | None, doc: dict, kind: str) -> dict:
    meta = meta or {}
    return {
        "id": meta.get("id", ""),
        "kind": kind,
        "commit": meta.get("commit", "") or doc.get("commit", ""),
        "host_key": meta.get("host_key", ""),
        "source": meta.get("source", ""),
    }


def attribute_runs(
    a_doc: dict,
    b_doc: dict,
    a_meta: dict | None = None,
    b_meta: dict | None = None,
    top: int | None = None,
) -> dict:
    """Diff run B against baseline A at the profile level, ranked.

    ``a_doc``/``b_doc`` are ``repro.profile/1`` or ``repro.run_report/1``
    documents (deltas are B − A, so "regressed" means B is worse);
    ``a_meta``/``b_meta`` are their ``repro.run_index/1`` records when
    available — the source of commit hashes and config deltas.  Returns
    a ``repro.attrib/1`` dict; render with :func:`render_attrib`.
    """
    kind_a = _doc_kind(a_doc, "run A")
    kind_b = _doc_kind(b_doc, "run B")
    basis = "self_s" if kind_a == kind_b == "profile" else "wall_s"
    basis_label = "self-time" if basis == "self_s" else "wall-time"
    spans_a = _spans_of(a_doc, kind_a, basis)
    spans_b = _spans_of(b_doc, kind_b, basis)
    total_a = _total_of(a_doc, kind_a)
    total_b = _total_of(b_doc, kind_b)
    noise = max(_ABS_NOISE_S, _REL_NOISE * max(total_a, total_b))

    names = list(spans_a)
    names.extend(n for n in spans_b if n not in spans_a)
    rows = []
    for name in names:
        a = spans_a.get(name, {"t": 0.0, "rounds": 0, "count": 0})
        b = spans_b.get(name, {"t": 0.0, "rounds": 0, "count": 0})
        delta = b["t"] - a["t"]
        rows.append({
            "name": name,
            "a_s": round(a["t"], 4),
            "b_s": round(b["t"], 4),
            "delta_s": round(delta, 4),
            "a_rounds": a["rounds"],
            "b_rounds": b["rounds"],
            "rounds_unchanged": not _rounds_changed(a["rounds"], b["rounds"]),
            "verdict": _verdict(delta, a["rounds"], b["rounds"], noise),
        })
    rows.sort(key=lambda r: (-abs(r["delta_s"]), r["name"]))
    total_abs = sum(abs(r["delta_s"]) for r in rows)
    for r in rows:
        r["pct_of_delta"] = (
            round(100.0 * r["delta_s"] / total_abs, 1) if total_abs else 0.0
        )
    if top is not None and top > 0:
        rows = rows[:top]

    config_rows = []
    cfg_a = (a_meta or {}).get("config") or {}
    cfg_b = (b_meta or {}).get("config") or {}
    for key in sorted(set(cfg_a) | set(cfg_b)):
        va, vb = cfg_a.get(key, "(default)"), cfg_b.get(key, "(default)")
        if va != vb:
            config_rows.append({"key": key, "a": va, "b": vb})

    stripes = []
    for direction in ("read", "write"):
        wa = _mean_width(a_doc, kind_a, direction)
        wb = _mean_width(b_doc, kind_b, direction)
        if wa is not None or wb is not None:
            stripes.append({"kind": direction, "a_mean": wa, "b_mean": wb})

    findings = []
    for r in rows:
        if r["verdict"] == "unchanged":
            continue
        rounds_part = (
            "rounds unchanged" if r["rounds_unchanged"]
            else f"rounds {r['a_rounds']} → {r['b_rounds']}"
        )
        verdict = r["verdict"].replace(" (rounds unchanged)", "")
        findings.append(
            f"{r['name']} {basis_label} {r['delta_s']:+.2f} s, "
            f"{rounds_part} ⇒ {verdict}"
        )
        if len(findings) >= 3:
            break
    for c in config_rows:
        findings.append(f"config delta: {c['key']} {c['a']!r} → {c['b']!r}")

    return {
        "schema": ATTRIB_SCHEMA,
        "basis": basis,
        "a": _meta_ref(a_meta, a_doc, kind_a),
        "b": _meta_ref(b_meta, b_doc, kind_b),
        "total": {
            "a_s": round(total_a, 4),
            "b_s": round(total_b, 4),
            "delta_s": round(total_b - total_a, 4),
        },
        "rounds": {
            "a": _rounds_of(a_doc, kind_a),
            "b": _rounds_of(b_doc, kind_b),
        },
        "stripe_width": stripes,
        "spans": rows,
        "config": config_rows,
        "findings": findings,
    }


def render_attrib(attrib: dict) -> list[Table]:
    """Aligned tables for one ``repro.attrib/1`` report (golden-pinned)."""
    basis_label = "self" if attrib.get("basis") == "self_s" else "wall"
    a, b = attrib.get("a") or {}, attrib.get("b") or {}
    title = "attribution"
    if a.get("commit") or b.get("commit"):
        title += f" · {a.get('commit') or '?'} → {b.get('commit') or '?'}"
    title += f" · ranked by |Δ {basis_label} time|"
    spans = Table(
        ["span", f"{basis_label} s (A)", f"{basis_label} s (B)",
         "Δ s", "Δ share %", "rounds (A)", "rounds (B)", "verdict"],
        title=title,
    )
    for r in attrib.get("spans") or []:
        spans.add(
            r["name"], r["a_s"], r["b_s"], r["delta_s"], r["pct_of_delta"],
            r["a_rounds"], r["b_rounds"], r["verdict"],
        )
    tables = [spans]

    totals = Table(["metric", "A", "B", "Δ"], title="run totals")
    total = attrib.get("total") or {}
    totals.add("total s", total.get("a_s"), total.get("b_s"),
               total.get("delta_s"))
    rounds = attrib.get("rounds") or {}
    totals.add("I/O rounds", rounds.get("a"), rounds.get("b"),
               (rounds.get("b") or 0) - (rounds.get("a") or 0))
    for s in attrib.get("stripe_width") or []:
        wa, wb = s.get("a_mean"), s.get("b_mean")
        delta = (
            round(wb - wa, 2) if wa is not None and wb is not None else None
        )
        totals.add(f"mean {s['kind']} width (blocks)", wa, wb, delta)
    tables.append(totals)

    config = attrib.get("config") or []
    if config:
        ct = Table(["config", "A", "B"], title="config deltas")
        for c in config:
            ct.add(c["key"], c["a"], c["b"])
        tables.append(ct)
    return tables
