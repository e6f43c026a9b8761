"""`repro dashboard`: a self-contained static HTML view of the history.

Renders one HTML file — inline CSS, inline SVG, zero external requests,
no JavaScript required — from a :class:`~repro.obs.history.RunHistory`
index, so the nightly CI artifact is a single file anyone can open from
a mail attachment or an artifact download:

* **perf trajectory** per ledger series × host class (seconds over
  points, latest value and commit annotated);
* **constant-factor ratios** over time (the measured-vs-Theorem-1 ratio
  each run report carries — the paper's "small constant factor" claim
  as a trend line);
* **phase breakdown** stacked bars for the most recent profiled runs;
* **memory high-water trend** (arena high-water blocks and peak RSS
  from ingested sweep stats / profiles);
* **service health** (admission/shed/quota/drain counters from ingested
  ``repro serve --stats-json`` dumps — the CI smoke and nightly chaos
  drill each record one);
* the **league-table placeholder** the ROADMAP's cross-algorithm era
  (Guidesort / Histogram Sort with Sampling) will fill in.

Everything is hand-drawn SVG: polylines on a fixed-size viewBox with
min/max labels — honest sparklines, not a charting framework.
"""

from __future__ import annotations

import html
import time

from .. import __version__
from .history import RunHistory

__all__ = ["render_dashboard"]

#: Categorical palette (colorblind-friendly, dark-on-light).
_COLORS = (
    "#4e79a7", "#f28e2b", "#59a14f", "#e15759",
    "#b07aa1", "#76b7b2", "#edc948", "#9c755f",
)

_CSS = """
:root { color-scheme: light; }
body { font: 14px/1.5 system-ui, -apple-system, 'Segoe UI', sans-serif;
       margin: 2rem auto; max-width: 72rem; padding: 0 1rem;
       color: #1a1a24; background: #fcfcfd; }
h1 { font-size: 1.5rem; margin-bottom: .25rem; }
h2 { font-size: 1.1rem; margin: 2rem 0 .5rem; border-bottom: 1px solid #e3e3ea;
     padding-bottom: .25rem; }
.meta { color: #6b6b76; font-size: .85rem; }
.grid { display: flex; flex-wrap: wrap; gap: 1rem; }
.card { border: 1px solid #e3e3ea; border-radius: 8px; padding: .75rem 1rem;
        background: #fff; flex: 1 1 20rem; }
.card h3 { margin: 0 0 .25rem; font-size: .95rem; }
.card .sub { color: #6b6b76; font-size: .8rem; margin-bottom: .5rem; }
table { border-collapse: collapse; font-size: .85rem; width: 100%; }
th, td { text-align: left; padding: .2rem .6rem .2rem 0; }
th { color: #6b6b76; font-weight: 600; border-bottom: 1px solid #e3e3ea; }
.num { text-align: right; font-variant-numeric: tabular-nums; }
.placeholder { color: #6b6b76; font-style: italic; }
svg text { font: 10px system-ui, sans-serif; fill: #6b6b76; }
.legend span { display: inline-block; margin-right: .8rem; font-size: .8rem; }
.legend i { display: inline-block; width: .7rem; height: .7rem;
            border-radius: 2px; margin-right: .3rem; vertical-align: -1px; }
"""


def _esc(value) -> str:
    return html.escape(str(value))


def _fmt(value) -> str:
    if value is None:
        return "–"
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def _polyline_chart(
    series: list[tuple[str, list[float]]],
    width: int = 420,
    height: int = 120,
    unit: str = "",
) -> str:
    """An inline-SVG line chart: one polyline per named series."""
    values = [v for _, pts in series for v in pts if v is not None]
    if not values:
        return '<p class="placeholder">no data points yet</p>'
    lo, hi = min(values), max(values)
    if hi == lo:
        hi = lo + (abs(lo) or 1.0)
    pad, top = 6, 12
    span_y = height - pad - top

    def y_of(v: float) -> float:
        return top + span_y * (1 - (v - lo) / (hi - lo))

    parts = [
        f'<svg viewBox="0 0 {width} {height}" width="100%" height="{height}" '
        f'role="img" xmlns="http://www.w3.org/2000/svg">'
    ]
    parts.append(
        f'<text x="2" y="{top - 2}">{_fmt(round(hi, 4))}{_esc(unit)}</text>'
    )
    parts.append(
        f'<text x="2" y="{height - 1}">{_fmt(round(lo, 4))}{_esc(unit)}</text>'
    )
    for i, (name, pts) in enumerate(series):
        pts = [v for v in pts if v is not None]
        if not pts:
            continue
        color = _COLORS[i % len(_COLORS)]
        n = len(pts)
        xs = (
            [width / 2] if n == 1
            else [46 + (width - 56) * j / (n - 1) for j in range(n)]
        )
        coords = " ".join(
            f"{x:.1f},{y_of(v):.1f}" for x, v in zip(xs, pts)
        )
        if n > 1:
            parts.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" '
                f'stroke-width="1.6"><title>{_esc(name)}</title></polyline>'
            )
        for x, v in zip(xs, pts):
            parts.append(
                f'<circle cx="{x:.1f}" cy="{y_of(v):.1f}" r="2.4" '
                f'fill="{color}"><title>{_esc(name)}: {_fmt(v)}{_esc(unit)}'
                f'</title></circle>'
            )
    parts.append("</svg>")
    return "".join(parts)


def _legend(names: list[str]) -> str:
    spans = []
    for i, name in enumerate(names):
        color = _COLORS[i % len(_COLORS)]
        spans.append(
            f'<span><i style="background:{color}"></i>{_esc(name)}</span>'
        )
    return f'<div class="legend">{"".join(spans)}</div>'


def _stacked_bars(runs: list[tuple[str, list[tuple[str, float]]]]):
    """Horizontal stacked bars (SVG string, phase-name legend order)."""
    phase_names: list[str] = []
    for _, phases in runs:
        for name, _ in phases:
            if name not in phase_names:
                phase_names.append(name)
    color_of = {
        n: _COLORS[i % len(_COLORS)] for i, n in enumerate(phase_names)
    }
    width, row_h, gap, label_w = 560, 18, 8, 150
    height = len(runs) * (row_h + gap)
    parts = [
        f'<svg viewBox="0 0 {width} {height}" width="100%" height="{height}" '
        f'role="img" xmlns="http://www.w3.org/2000/svg">'
    ]
    max_total = max(
        (sum(v for _, v in phases) for _, phases in runs), default=0.0
    ) or 1.0
    for row, (label, phases) in enumerate(runs):
        y = row * (row_h + gap)
        parts.append(
            f'<text x="0" y="{y + row_h - 5}">{_esc(label[:24])}</text>'
        )
        x = float(label_w)
        for name, value in phases:
            w = (width - label_w - 4) * value / max_total
            if w <= 0:
                continue
            parts.append(
                f'<rect x="{x:.1f}" y="{y}" width="{w:.1f}" height="{row_h}" '
                f'fill="{color_of[name]}"><title>{_esc(name)}: '
                f'{value:.3f}s</title></rect>'
            )
            x += w
    parts.append("</svg>")
    return "".join(parts), phase_names


def _ledger_sections(records: list[dict]) -> str:
    """Per-series/host perf-trajectory cards from indexed ledger points."""
    groups: dict[tuple[str, str, int], list[dict]] = {}
    for r in records:
        if r.get("kind") != "ledger":
            continue
        summary = r.get("summary") or {}
        key = (
            r.get("series", "?"), r.get("host_key", "?"),
            int(summary.get("min_of", 1) or 1),
        )
        groups.setdefault(key, []).append(r)
    if not groups:
        return (
            '<p class="placeholder">no ledger points indexed — '
            "<code>repro history ingest BENCH_ledger.jsonl</code></p>"
        )
    cards = []
    for (series, hk, min_of), points in sorted(groups.items()):
        points = sorted(points, key=lambda r: r.get("ts", 0))
        seconds = [
            (r.get("summary") or {}).get("seconds") for r in points
        ]
        latest = points[-1]
        latest_summary = latest.get("summary") or {}
        chart = _polyline_chart([(series, seconds)], unit=" s")
        cards.append(
            '<div class="card">'
            f"<h3>{_esc(series)}</h3>"
            f'<div class="sub">host {_esc(hk or "?")} · min-of-{min_of} · '
            f"{len(points)} points · latest "
            f"{_fmt(latest_summary.get('seconds'))} s @ "
            f"{_esc(latest.get('commit') or '?')}</div>"
            f"{chart}</div>"
        )
    return f'<div class="grid">{"".join(cards)}</div>'


def _ratio_section(records: list[dict]) -> str:
    """Constant-factor ratios (measured / Theorem-1 bound) over runs."""
    ratios = []
    for r in records:
        if r.get("kind") != "report":
            continue
        ratio = (r.get("summary") or {}).get("ratio")
        if ratio is not None:
            ratios.append((r.get("commit") or r["id"], float(ratio)))
    if not ratios:
        return (
            '<p class="placeholder">no run reports with a Theorem-1 ratio '
            "indexed yet</p>"
        )
    chart = _polyline_chart(
        [("measured / bound", [v for _, v in ratios])], unit="×"
    )
    rows = "".join(
        f"<tr><td>{_esc(label)}</td>"
        f'<td class="num">{v:.3f}</td></tr>'
        for label, v in ratios[-8:]
    )
    return (
        f"{chart}<table><tr><th>run</th>"
        f'<th class="num">parallel I/Os vs Theorem 1</th></tr>{rows}</table>'
    )


def _phase_section(history: RunHistory, records: list[dict]) -> str:
    """Stacked phase-breakdown bars for the newest profiled/reported runs."""
    runs = []
    for r in records:
        if r.get("kind") == "profile":
            doc = history.load_artifact(r)
            phases = [
                (h.get("name", "?"), float(h.get("self_s") or 0.0))
                for h in (doc.get("hotspots") or [])[:8]
            ]
        elif r.get("kind") == "report":
            doc = history.load_artifact(r)
            phases = [
                (p.get("name", "?"), float(p.get("wall_s") or 0.0))
                for p in doc.get("phases") or []
            ]
        else:
            continue
        if phases:
            label = f"{r.get('commit') or r['id'][:14]} ({r['kind']})"
            runs.append((label, phases))
    runs = runs[-6:]
    if not runs:
        return '<p class="placeholder">no profiled runs yet</p>'
    svg, phase_names = _stacked_bars(runs)
    return _legend(phase_names) + svg


def _memory_section(records: list[dict]) -> str:
    """Memory high-water trend from stats/profile summaries."""
    hw, rss = [], []
    for r in records:
        summary = r.get("summary") or {}
        if summary.get("high_water_blocks"):
            hw.append(float(summary["high_water_blocks"]))
        if summary.get("peak_rss_kb"):
            rss.append(float(summary["peak_rss_kb"]) / 1024.0)
    if not hw and not rss:
        return (
            '<p class="placeholder">no memory telemetry indexed — ingest a '
            "sweep <code>--stats-json</code></p>"
        )
    parts = []
    if hw:
        parts.append("<h3>arena high-water blocks</h3>")
        parts.append(_polyline_chart([("high-water blocks", hw)]))
    if rss:
        parts.append("<h3>peak RSS (MiB)</h3>")
        parts.append(_polyline_chart([("peak RSS", rss)], unit=" MiB"))
    return "".join(parts)


def _serve_section(records: list[dict]) -> str:
    """Service-health cards from ingested ``repro.serve_stats/1`` dumps."""
    serves = [r for r in records if r.get("kind") == "serve"]
    if not serves:
        return (
            '<p class="placeholder">no service runs indexed — ingest a '
            "<code>repro serve --stats-json</code> dump (the CI smoke and "
            "nightly chaos drill record one per drill)</p>"
        )
    rows = []
    for r in serves[-8:]:
        s = r.get("summary") or {}
        rows.append(
            f"<tr><td>{_esc(r.get('commit') or r['id'][:14])}</td>"
            + "".join(
                f'<td class="num">{_fmt(s.get(k))}</td>'
                for k in (
                    "admitted", "coalesced", "cache_hits", "shed",
                    "quota_rejected", "retried", "failed", "drain_seconds",
                    "resumed",
                )
            )
            + "</tr>"
        )
    shed = [float((r.get("summary") or {}).get("shed") or 0) for r in serves]
    retried = [
        float((r.get("summary") or {}).get("retried") or 0) for r in serves
    ]
    chart = _polyline_chart([("shed", shed), ("retried", retried)])
    return (
        _legend(["shed", "retried"]) + chart
        + "<table><tr><th>run</th>"
        + "".join(
            f'<th class="num">{h}</th>'
            for h in (
                "admitted", "coalesced", "cache hits", "shed", "quota rej.",
                "retried", "failed", "drain s", "resumed",
            )
        )
        + f"</tr>{''.join(rows)}</table>"
    )


def render_dashboard(
    history: RunHistory,
    title: str = "repro perf dashboard",
    when: float | None = None,
) -> str:
    """The full dashboard page as one self-contained HTML string."""
    records = history.read()
    stats = history.stats
    kinds = ", ".join(
        f"{count} {kind}" for kind, count in sorted(stats["kinds"].items())
    ) or "empty"
    generated = time.strftime(
        "%Y-%m-%d %H:%M:%S UTC", time.gmtime(when if when is not None else time.time())
    )
    sections = [
        f"<h1>{_esc(title)}</h1>",
        f'<p class="meta">generated {generated} · repro {__version__} · '
        f"index {_esc(stats['root'])} · {stats['records']} records "
        f"({_esc(kinds)})</p>",
        '<h2 id="trajectory">Perf trajectory (ledger series × host)</h2>',
        _ledger_sections(records),
        '<h2 id="ratios">Constant-factor ratios over time</h2>',
        _ratio_section(records),
        '<h2 id="phases">Phase breakdown (latest runs)</h2>',
        _phase_section(history, records),
        '<h2 id="memory">Memory high-water trend</h2>',
        _memory_section(records),
        '<h2 id="service">Service health (sort-as-a-service drills)</h2>',
        _serve_section(records),
        '<h2 id="league">Algorithm league table</h2>',
        '<p class="placeholder">placeholder — the cross-algorithm '
        "constant-factor league table (Balance Sort vs Guidesort vs "
        "Histogram Sort with Sampling) lands with ROADMAP item 2; runs "
        "indexed with distinct task names will populate it from this "
        "same history.</p>",
    ]
    return (
        "<!doctype html>\n"
        '<html lang="en"><head><meta charset="utf-8">\n'
        f"<title>{_esc(title)}</title>\n"
        f"<style>{_CSS}</style>\n"
        "</head><body>\n" + "\n".join(sections) + "\n</body></html>\n"
    )
