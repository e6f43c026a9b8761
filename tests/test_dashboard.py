"""The dashboard contract: one self-contained HTML file, no exceptions.

The nightly artifact must open anywhere — so the page may not reference
any external script, stylesheet, image, or font, and every section the
docs promise must render (with an honest placeholder when the index has
no data for it yet).
"""

import re

from repro.obs import RunHistory, render_dashboard
from repro.obs.ledger import make_entry

_SECTIONS = (
    "Perf trajectory",
    "Constant-factor ratios",
    "Phase breakdown",
    "Memory high-water",
    "Algorithm league table",
)


def _host():
    return {"key": "k" * 12, "system": "Linux", "machine": "x86_64",
            "python": "3.12.1", "usable_cores": 4, "platform": "x"}


def _seeded_history(tmp_path):
    history = RunHistory(str(tmp_path / "h"))
    for i, seconds in enumerate([4.0, 3.5, 4.5]):
        history.ingest_doc(
            make_entry("e1-grid", seconds, 144000, grid="g", cells=9,
                       host=_host(), when=1000.0 + i, min_of=3,
                       commit=f"c{i}"),
            when=1000.0 + i,
        )
    history.ingest_doc({
        "schema": "repro.run_report/1",
        "command": "sort",
        "result": {"records": 8000, "parallel_ios": 3128, "ratio": 1.61,
                   "verified": True},
        "phases": [
            {"name": "partition", "wall_s": 0.012},
            {"name": "distribute", "wall_s": 0.074},
        ],
        "host": _host(),
    }, commit="c2")
    history.ingest_doc({
        "schema": "repro.sweep_stats/1",
        "runner": {"executed": 9, "served_from_cache": 0, "failed": 0,
                   "retried": 0,
                   "memory": {"high_water_blocks": 4242,
                              "peak_rss_kb": 131072}},
        "journal": None,
    })
    return history


class TestRenderDashboard:
    def test_self_contained_no_external_references(self, tmp_path):
        html = render_dashboard(_seeded_history(tmp_path))
        assert html.lstrip().startswith("<!doctype html>")
        assert "<script" not in html  # no JS at all, not even inline
        assert "<link" not in html
        assert "<img" not in html and "<iframe" not in html
        assert not re.search(r"""(?:src|href)\s*=\s*["']https?://""", html)
        assert "@import" not in html and "url(" not in html

    def test_every_promised_section_renders(self, tmp_path):
        html = render_dashboard(_seeded_history(tmp_path))
        for section in _SECTIONS:
            assert section in html, section

    def test_data_sections_chart_the_index(self, tmp_path):
        html = render_dashboard(_seeded_history(tmp_path), when=0.0)
        assert "<svg" in html and "<polyline" in html  # trajectory lines
        assert "e1-grid" in html and "min-of-3" in html and "3 points" in html
        assert "measured / bound" in html  # the Theorem-1 ratio series
        assert "distribute" in html  # phase stacked bars carry span names
        assert "arena high-water blocks" in html
        assert "peak RSS" in html

    def test_memory_section_plots_served_runs(self, tmp_path):
        history = RunHistory(str(tmp_path / "h"))
        history.ingest_doc({
            "schema": "repro.serve_stats/1", "serve": {"completed": 1},
            "runner": {"executed": 1, "memory": {"high_water_blocks": 96,
                                                 "peak_rss_kb": 65536}},
        })
        html = render_dashboard(history, when=0.0)
        assert "arena high-water blocks" in html and "peak RSS" in html
        assert "no memory telemetry indexed" not in html

    def test_empty_history_renders_placeholders_not_errors(self, tmp_path):
        history = RunHistory(str(tmp_path / "empty"))
        html = render_dashboard(history)
        for section in _SECTIONS:
            assert section in html, section
        assert "no ledger points indexed" in html
        assert "no profiled runs yet" in html

    def test_title_and_metadata_escaped(self, tmp_path):
        history = RunHistory(str(tmp_path / "empty"))
        html = render_dashboard(history, title="<b>sneaky & co</b>")
        assert "<b>sneaky" not in html
        assert "&lt;b&gt;sneaky &amp; co&lt;/b&gt;" in html

    def test_deterministic_for_fixed_when(self, tmp_path):
        history = _seeded_history(tmp_path)
        assert render_dashboard(history, when=42.0) == render_dashboard(
            history, when=42.0
        )
