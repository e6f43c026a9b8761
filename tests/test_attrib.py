"""Golden-pinned tests for the regression-attribution engine.

Attribution is CI-facing output: the ranked span table's column headers
and the verdict vocabulary are pinned here the same way the profile and
report tables are — renaming a column or a verdict is a contract change,
not a refactor.
"""

import pytest

from repro.obs import ATTRIB_SCHEMA, attribute_runs, render_attrib


def _profile(distribute=1.0, partition=0.2, rounds_distribute=1848,
             rounds_partition=756, total=None, read_width=None):
    hotspots = [
        {"name": "distribute", "count": 9, "wall_s": distribute + 0.1,
         "self_s": distribute, "rounds": rounds_distribute},
        {"name": "partition", "count": 9, "wall_s": partition + 0.05,
         "self_s": partition, "rounds": rounds_partition},
    ]
    io = {"rounds": {"io.read": 0, "io.write": 0, "mem.step": 0,
                     "total": rounds_distribute + rounds_partition}}
    if read_width is not None:
        io["stripe_width"] = {"read": read_width, "write": {}}
    return {
        "schema": "repro.profile/1",
        "total_wall_s": total if total is not None else distribute + partition,
        "hotspots": hotspots,
        "io": io,
    }


def _report(distribute=1.0, partition=0.2):
    return {
        "schema": "repro.run_report/1",
        "phases": [
            {"name": "distribute", "wall_s": distribute, "read_ios": 924,
             "write_ios": 924},
            {"name": "partition", "wall_s": partition, "read_ios": 378,
             "write_ios": 378},
        ],
    }


class TestAttributeRuns:
    def test_schema_basis_and_ranking(self):
        attrib = attribute_runs(_profile(), _profile(distribute=2.9))
        assert attrib["schema"] == ATTRIB_SCHEMA
        assert attrib["basis"] == "self_s"
        names = [r["name"] for r in attrib["spans"]]
        assert names[0] == "distribute"  # ranked by |Δ|, largest first
        top = attrib["spans"][0]
        assert top["delta_s"] == pytest.approx(1.9)
        assert top["rounds_unchanged"] is True
        assert top["verdict"] == "per-round dispatch regressed (rounds unchanged)"

    def test_rounds_changed_verdict(self):
        b = _profile(distribute=2.9, rounds_distribute=3700)
        attrib = attribute_runs(_profile(), b)
        top = attrib["spans"][0]
        assert top["rounds_unchanged"] is False
        assert top["verdict"] == "more I/O rounds (schedule changed)"

    def test_improvement_verdict(self):
        attrib = attribute_runs(_profile(distribute=2.9), _profile())
        top = attrib["spans"][0]
        assert top["delta_s"] == pytest.approx(-1.9)
        assert top["verdict"] == "per-round dispatch improved (rounds unchanged)"

    def test_noise_floor_says_unchanged(self):
        attrib = attribute_runs(_profile(), _profile(distribute=1.001))
        assert all(r["verdict"] == "unchanged" for r in attrib["spans"])
        assert attrib["findings"] == []

    def test_findings_read_like_the_diagnosis(self):
        attrib = attribute_runs(_profile(), _profile(distribute=2.9))
        finding = attrib["findings"][0]
        assert finding == (
            "distribute self-time +1.90 s, rounds unchanged "
            "⇒ per-round dispatch regressed"
        )

    def test_config_deltas_with_default_placeholder(self):
        attrib = attribute_runs(
            _profile(), _profile(distribute=2.9),
            a_meta={"config": {}}, b_meta={"config": {"pdm_store": "dict"}},
        )
        assert attrib["config"] == [
            {"key": "pdm_store", "a": "(default)", "b": "dict"}
        ]
        assert "config delta: pdm_store '(default)' → 'dict'" in attrib["findings"]

    def test_report_pair_uses_wall_basis(self):
        attrib = attribute_runs(_report(), _report(distribute=2.9))
        assert attrib["basis"] == "wall_s"
        assert attrib["spans"][0]["a_rounds"] == 1848  # read+write ios
        assert attrib["rounds"]["a"] == 1848 + 756

    def test_mixed_profile_report_uses_wall_basis(self):
        attrib = attribute_runs(_profile(), _report(distribute=2.9))
        assert attrib["basis"] == "wall_s"

    def test_stripe_width_means(self):
        a = _profile(read_width={"4": 10})
        b = _profile(distribute=2.9, read_width={"2": 10, "4": 10})
        attrib = attribute_runs(a, b)
        assert attrib["stripe_width"] == [
            {"kind": "read", "a_mean": 4.0, "b_mean": 3.0}
        ]

    def test_top_truncates_after_ranking(self):
        attrib = attribute_runs(_profile(), _profile(distribute=2.9), top=1)
        assert len(attrib["spans"]) == 1
        assert attrib["spans"][0]["name"] == "distribute"

    def test_non_run_documents_refused(self):
        with pytest.raises(ValueError, match="cannot attribute run A"):
            attribute_runs({"schema": "repro.bench_point/1"}, _profile())


class TestRenderAttrib:
    def test_golden_columns(self):
        attrib = attribute_runs(
            _profile(read_width={"4": 10}),
            _profile(distribute=2.9, read_width={"4": 10}),
            a_meta={"commit": "aaa", "config": {}},
            b_meta={"commit": "bbb", "config": {"pdm_store": "dict"}},
        )
        tables = render_attrib(attrib)
        assert [t.title for t in tables] == [
            "attribution · aaa → bbb · ranked by |Δ self time|",
            "run totals",
            "config deltas",
        ]
        spans, totals, config = tables
        assert spans.columns == [
            "span", "self s (A)", "self s (B)", "Δ s", "Δ share %",
            "rounds (A)", "rounds (B)", "verdict",
        ]
        assert totals.columns == ["metric", "A", "B", "Δ"]
        metric_rows = [row[0] for row in totals.rows]
        assert metric_rows == [
            "total s", "I/O rounds", "mean read width (blocks)",
        ]
        assert config.columns == ["config", "A", "B"]

    def test_wall_basis_labels_columns(self):
        tables = render_attrib(attribute_runs(_report(), _report(2.9)))
        assert "wall s (A)" in tables[0].columns
        assert tables[0].title.endswith("ranked by |Δ wall time|")

    def test_config_table_absent_without_deltas(self):
        tables = render_attrib(attribute_runs(_profile(), _profile(2.9)))
        assert [t.title for t in tables] == [
            "attribution · ranked by |Δ self time|", "run totals",
        ]
