"""Trace-driven profiling: where did the wall-clock actually go?

PR 3 ended with a measurement it could not explain: after the arena store
landed, the E1 grid's remaining 12.2 s was "spread over ~77k parallel-I/O
round trips with no dominant hotspot".  This module answers that question
from the traces the simulators already emit — no re-instrumentation, no
re-running.

:func:`profile_trace` rebuilds the span tree from a JSONL trace (plain or
gzipped, or an in-memory event list) and computes:

* **hotspots** — per span name: inclusive wall, *self* time (wall minus
  direct children), call count, attached I/O-round count, and µs per
  round.  Self times are exact complements by construction — summed over
  all names they equal the root spans' total wall to float rounding —
  so the hotspot table accounts for 100% of the measured time (the
  acceptance bar is 1%; the residual here is `round(…, 6)` noise on the
  emitted ``wall_s`` values).
* **critical path** — the longest root-to-leaf chain by inclusive wall
  (for these serial simulators: the recursion spine the run spent its
  time under).
* **levels** — wall/self/I/O-rounds per recursion level (spans carry a
  ``level`` attribute), i.e. where in the recursion the rounds happen.
* **io** — round-trip totals, width histograms, and a utilization
  timeline: the trace's time axis cut into ``bins`` equal slices with
  per-slice round counts and mean stripe width (mean width / machine
  width = duty cycle of the disk array).
* **truncated spans** — begins without ends (crashed or interrupted
  runs) are closed *virtually* at the last timestamp in the trace, so a
  partial trace still profiles instead of raising; the count is
  reported.

Schema: ``repro.profile/1`` (additive evolution, like the run report).
"""

from __future__ import annotations

from typing import Iterable

from .tracer import ROUND_EVENTS, read_trace, reading

__all__ = ["profile_trace", "render_profile", "PROFILE_SCHEMA"]

PROFILE_SCHEMA = "repro.profile/1"



def profile_trace(
    events_or_path: str | Iterable[dict],
    top: int | None = None,
    bins: int = 20,
    memory: dict | None = None,
) -> dict:
    """Profile a trace into hotspots, critical path, levels, and I/O stats.

    ``top`` truncates the hotspot table (None = all names); ``bins`` sets
    the utilization-timeline resolution.  Accepts a path (plain or
    gzipped JSONL; torn tails tolerated) or an iterable of event dicts.
    ``memory`` attaches a memory-telemetry snapshot (e.g. from
    :class:`~repro.obs.memory.MemoryTelemetry` or the runner's merged
    ``stats["memory"]``) under the profile's ``memory`` key.
    """
    if isinstance(events_or_path, str):
        with reading(events_or_path):
            events = read_trace(events_or_path, tolerate_truncated_tail=True)
            return profile_trace(events, top=top, bins=bins, memory=memory)
    events = list(events_or_path)

    spans: dict[int, dict] = {}
    order: list[int] = []
    max_ts = 0.0
    point_events = []
    for ev in events:
        ts = ev.get("ts")
        if isinstance(ts, (int, float)):
            max_ts = max(max_ts, float(ts))
        kind = ev.get("ev")
        sid = ev.get("span")
        if kind == "begin":
            spans[sid] = {
                "id": sid, "name": ev.get("name", "?"),
                "parent": ev.get("parent"), "t0": float(ev.get("ts", 0.0)),
                "wall": None, "children_wall": 0.0, "rounds": 0,
                "attrs": ev.get("attrs", {}) or {},
            }
            order.append(sid)
        elif kind == "end":
            node = spans.get(sid)
            if node is None:  # end without begin (merged/partial trace)
                node = spans[sid] = {
                    "id": sid, "name": ev.get("name", "?"),
                    "parent": ev.get("parent"),
                    "t0": float(ev.get("ts", 0.0)) - float(ev.get("wall_s", 0.0)),
                    "wall": None, "children_wall": 0.0, "rounds": 0,
                    "attrs": {},
                }
                order.append(sid)
            node["wall"] = float(ev.get("wall_s", 0.0))
            node["attrs"].update(ev.get("attrs", {}) or {})
        elif kind == "event":
            point_events.append(ev)

    # Close truncated spans virtually at the last observed timestamp.
    truncated = 0
    for sid in order:
        node = spans[sid]
        if node["wall"] is None:
            node["wall"] = round(max(0.0, max_ts - node["t0"]), 6)
            node["truncated"] = True
            truncated += 1

    # Children inclusive-wall sums (for self time) and child lists (for
    # the critical path).
    children: dict[int, list[int]] = {}
    for sid in order:
        node = spans[sid]
        parent = node["parent"]
        if parent in spans:
            spans[parent]["children_wall"] += node["wall"]
            children.setdefault(parent, []).append(sid)

    # Attribute round-trip point events to their owning span.
    round_total = {name: 0 for name in ROUND_EVENTS}
    timeline_events = []
    for ev in point_events:
        name = ev.get("name")
        if name not in ROUND_EVENTS:
            continue
        round_total[name] += 1
        node = spans.get(ev.get("span"))
        if node is not None:
            node["rounds"] += 1
        timeline_events.append(ev)

    # ------------------------------------------------------------ hotspots
    by_name: dict[str, dict] = {}
    name_order: list[str] = []
    roots_wall = 0.0
    for sid in order:
        node = spans[sid]
        if node["parent"] not in spans:
            roots_wall += node["wall"]
        agg = by_name.get(node["name"])
        if agg is None:
            agg = by_name[node["name"]] = {
                "name": node["name"], "count": 0, "wall_s": 0.0,
                "self_s": 0.0, "rounds": 0,
            }
            name_order.append(node["name"])
        agg["count"] += 1
        agg["wall_s"] += node["wall"]
        agg["self_s"] += node["wall"] - node["children_wall"]
        agg["rounds"] += node["rounds"]
    total_wall = roots_wall
    hotspots = []
    for name in name_order:
        agg = by_name[name]
        hotspots.append({
            "name": agg["name"],
            "count": agg["count"],
            "wall_s": round(agg["wall_s"], 6),
            "self_s": round(agg["self_s"], 6),
            "self_pct": round(100.0 * agg["self_s"] / total_wall, 2)
            if total_wall else 0.0,
            "rounds": agg["rounds"],
            "us_per_round": round(1e6 * agg["self_s"] / agg["rounds"], 2)
            if agg["rounds"] else None,
        })
    hotspots.sort(key=lambda h: h["self_s"], reverse=True)
    shown = hotspots if top is None else hotspots[:top]

    # -------------------------------------------------------- critical path
    critical = []
    roots = [sid for sid in order if spans[sid]["parent"] not in spans]
    if roots:
        sid = max(roots, key=lambda s: spans[s]["wall"])
        depth = 0
        while sid is not None:
            node = spans[sid]
            critical.append({
                "depth": depth,
                "name": node["name"],
                "wall_s": round(node["wall"], 6),
                "self_s": round(node["wall"] - node["children_wall"], 6),
                "rounds": node["rounds"],
            })
            kids = children.get(sid)
            sid = max(kids, key=lambda s: spans[s]["wall"]) if kids else None
            depth += 1

    # --------------------------------------------------------- level table
    levels: dict[int, dict] = {}
    for sid in order:
        node = spans[sid]
        level = node["attrs"].get("level")
        if not isinstance(level, int):
            continue
        agg = levels.setdefault(level, {
            "level": level, "spans": 0, "wall_s": 0.0, "self_s": 0.0, "rounds": 0,
        })
        agg["spans"] += 1
        agg["wall_s"] += node["wall"]
        agg["self_s"] += node["wall"] - node["children_wall"]
        agg["rounds"] += node["rounds"]
    level_rows = [
        {**levels[k],
         "wall_s": round(levels[k]["wall_s"], 6),
         "self_s": round(levels[k]["self_s"], 6)}
        for k in sorted(levels)
    ]

    # ---------------------------------------------- utilization timeline
    widths: dict[str, dict[int, int]] = {"read": {}, "write": {}}
    for ev in timeline_events:
        attrs = ev.get("attrs", {}) or {}
        width = attrs.get("width")
        if width is None:
            continue
        kind = attrs.get("kind") if ev["name"] == "mem.step" else (
            "read" if ev["name"] == "io.read" else "write")
        if kind in widths:
            widths[kind][int(width)] = widths[kind].get(int(width), 0) + 1
    timeline = []
    if timeline_events and max_ts > 0:
        step = max_ts / bins
        slots = [
            {"t0": round(i * step, 6), "rounds": 0, "width_sum": 0}
            for i in range(bins)
        ]
        for ev in timeline_events:
            ts = float(ev.get("ts", 0.0))
            i = min(bins - 1, int(ts / step)) if step else 0
            slots[i]["rounds"] += 1
            slots[i]["width_sum"] += int((ev.get("attrs") or {}).get("width", 0))
        for slot in slots:
            rounds = slot.pop("rounds")
            width_sum = slot.pop("width_sum")
            slot["rounds"] = rounds
            slot["mean_width"] = round(width_sum / rounds, 2) if rounds else 0.0
        timeline = slots

    total_rounds = sum(round_total.values())
    memory_block = None
    if memory:
        memory_block = {k: v for k, v in memory.items() if v}
    return {
        "schema": PROFILE_SCHEMA,
        "total_wall_s": round(total_wall, 6),
        "n_spans": len(order),
        "n_events": len(events),
        "truncated_spans": truncated,
        "hotspots": shown,
        "hotspots_total_self_s": round(sum(h["self_s"] for h in hotspots), 6),
        "critical_path": critical,
        "levels": level_rows,
        "io": {
            "rounds": {**round_total, "total": total_rounds},
            "us_per_round": round(1e6 * total_wall / total_rounds, 2)
            if total_rounds else None,
            "stripe_width": {
                kind: {str(k): v for k, v in sorted(h.items())}
                for kind, h in widths.items()
            },
            "timeline": timeline,
        },
        **({"memory": memory_block} if memory_block else {}),
    }


def render_profile(profile: dict):
    """Human rendering of a :func:`profile_trace` dict (aligned tables)."""
    from ..analysis.reporting import Table

    tables = []
    total = profile.get("total_wall_s", 0.0)
    io = profile.get("io", {})
    rounds = io.get("rounds", {})
    t = Table(["metric", "value"], title="profile summary")
    t.add("total wall s", total)
    t.add("spans", profile.get("n_spans", 0))
    t.add("trace events", profile.get("n_events", 0))
    if profile.get("truncated_spans"):
        t.add("truncated spans", profile["truncated_spans"])
    t.add("I/O round trips", rounds.get("total", 0))
    if io.get("us_per_round") is not None:
        t.add("µs per round trip", io["us_per_round"])
    tables.append(t)

    hotspots = profile.get("hotspots", [])
    if hotspots:
        t = Table(
            ["span", "count", "wall s", "self s", "self %", "I/O rounds",
             "self µs/round"],
            title="hotspots (by self time)",
        )
        for h in hotspots:
            t.add(
                h["name"], h["count"], h["wall_s"], h["self_s"],
                h["self_pct"], h["rounds"],
                "-" if h["us_per_round"] is None else h["us_per_round"],
            )
        tables.append(t)

    critical = profile.get("critical_path", [])
    if critical:
        t = Table(["depth", "span", "wall s", "self s", "I/O rounds"],
                  title="critical path (longest chain)")
        for row in critical:
            t.add(row["depth"], row["name"], row["wall_s"], row["self_s"],
                  row["rounds"])
        tables.append(t)

    levels = profile.get("levels", [])
    if levels:
        t = Table(["level", "spans", "wall s", "self s", "I/O rounds"],
                  title="recursion levels")
        for row in levels:
            t.add(row["level"], row["spans"], row["wall_s"], row["self_s"],
                  row["rounds"])
        tables.append(t)

    timeline = io.get("timeline", [])
    if timeline:
        t = Table(["t0 s", "I/O rounds", "mean width (blocks)"],
                  title=f"I/O utilization timeline ({len(timeline)} bins)")
        for slot in timeline:
            t.add(slot["t0"], slot["rounds"], slot["mean_width"])
        tables.append(t)

    memory = profile.get("memory")
    if memory:
        t = Table(["metric", "value"], title="memory telemetry")
        for key, label in (
            ("high_water_blocks", "arena high-water blocks"),
            ("resident_blocks", "resident blocks"),
            ("slab_rows", "slab rows"),
            ("slab_bytes", "slab bytes"),
            ("grow_events", "slab grow events"),
            ("ledger_high_water_records", "ledger high-water records"),
            ("peak_rss_kb", "peak RSS kB"),
        ):
            if memory.get(key):
                t.add(label, memory[key])
        for sample in memory.get("phase_rss") or []:
            t.add(f"RSS after {sample.get('phase')} (kB)", sample.get("rss_kb"))
        tables.append(t)
    return tables
